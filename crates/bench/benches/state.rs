//! The O(delta) state layer, measured: cold-cache apparent-state sweep
//! time at one thread against the pre-refactor recorded baseline, and
//! the clone-traffic counters (`state.clone_count`, `state.clone_bytes`,
//! `replay.in_place_applies`) for the same sweep. Results land in
//! `BENCH_state.json` at the repository root.
//!
//! Two pinned claims from the recorded host back the refactor:
//!
//! * the n = 10⁴ sweep runs ≥ 2× faster than the pre-refactor
//!   `incremental_ns` recorded in `BENCH_replay.json` (411,070,781 ns);
//! * clone traffic is ≥ 10× under the pre-refactor engine, which
//!   materialised one full state per replayed update.

use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_bench::workloads::airline_execution_with_k;
use shard_core::{Application, Execution};
use std::hint::black_box;
use std::time::Instant;

/// `incremental_ns` at n = 10⁴ from `BENCH_replay.json` as recorded
/// immediately before the in-place/delta-chain refactor, on the same
/// host this bench re-runs on.
const PRE_REFACTOR_SWEEP_NS: f64 = 411_070_781.0;

/// One cold-cache incremental sweep (the clone restarts with an empty
/// replay cache), in nanoseconds — the exact shape `BENCH_replay.json`
/// times.
fn incremental_sweep_once_ns(app: &FlyByNight, e: &Execution<FlyByNight>) -> f64 {
    let fresh = e.clone();
    let t0 = Instant::now();
    for i in 0..fresh.len() {
        black_box(fresh.apparent_state_before(app, i));
    }
    t0.elapsed().as_nanos() as f64
}

/// Median of a sample set (mean of the middle pair for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn main() {
    let n = 10_000usize;
    let app = FlyByNight::new(40);
    let e = airline_execution_with_k(&app, 3, n, 4, AirlineMix::default());
    println!("\nstate/o_delta_layer (in-place apply + delta checkpoint chains)");

    // Sweep time, metrics on (matching how the pre-refactor baseline
    // was recorded), median of 5 cold-cache runs after one discarded
    // warmup (first-touch page faults and allocator growth otherwise
    // land entirely in the first sample).
    shard_obs::set_enabled(true);
    black_box(incremental_sweep_once_ns(&app, &e));
    let mut samples = [0.0f64; 5];
    for s in &mut samples {
        *s = incremental_sweep_once_ns(&app, &e);
    }
    let sweep_ns = median(&mut samples);
    let speedup = PRE_REFACTOR_SWEEP_NS / sweep_ns;

    // Clone traffic of exactly one cold sweep, from the global
    // counters (deltas, so earlier benches in the process don't leak
    // into the numbers).
    let r = shard_obs::Registry::global();
    let before = r.snapshot();
    let base = |k: &str| before.counter(k).unwrap_or(0);
    let (c0, b0, a0) = (
        base("state.clone_count"),
        base("state.clone_bytes"),
        base("replay.in_place_applies"),
    );
    black_box(incremental_sweep_once_ns(&app, &e));
    let after = r.snapshot();
    let delta = |k: &str, b: u64| after.counter(k).unwrap_or(0) - b;
    let clone_count = delta("state.clone_count", c0);
    let clone_bytes = delta("state.clone_bytes", b0);
    let in_place = delta("replay.in_place_applies", a0);

    // What the pre-refactor engine copied on this sweep: one full
    // state materialised per replayed update.
    let state_bytes = app.state_size_hint(&e.final_state(&app)) as u64;
    let pre_refactor_bytes = in_place.saturating_mul(state_bytes) + clone_bytes;
    let clone_reduction = pre_refactor_bytes as f64 / clone_bytes.max(1) as f64;

    println!(
        "  n={n}  sweep {sweep_ns:>12.0} ns  pre-refactor {PRE_REFACTOR_SWEEP_NS:>12.0} ns  \
         speedup {speedup:.2}x (target >= 2x)"
    );
    println!(
        "  clones {clone_count}  clone_bytes {clone_bytes}  in_place_applies {in_place}  \
         pre-refactor bytes {pre_refactor_bytes}  reduction {clone_reduction:.1}x (target >= 10x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"state_o_delta_layer\",\n  \
         \"workload\": \"airline apparent-state sweep, n=10000, k<=4, 40 seats\",\n  \
         \"threads\": 1,\n  \
         \"sweep_ns\": {sweep_ns:.0},\n  \
         \"pre_refactor_sweep_ns\": {PRE_REFACTOR_SWEEP_NS:.0},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"speedup_target\": 2.0,\n  \
         \"counters\": {{\n    \
         \"state.clone_count\": {clone_count},\n    \
         \"state.clone_bytes\": {clone_bytes},\n    \
         \"replay.in_place_applies\": {in_place}\n  }},\n  \
         \"state_size_hint_bytes\": {state_bytes},\n  \
         \"pre_refactor_clone_bytes\": {pre_refactor_bytes},\n  \
         \"clone_bytes_reduction\": {clone_reduction:.1},\n  \
         \"clone_reduction_target\": 10.0,\n  \
         \"note\": \"sweep_ns is the median of 5 cold-cache runs with metrics on, the \
         configuration under which pre_refactor_sweep_ns was recorded in BENCH_replay.json; \
         pre_refactor_clone_bytes counts one full state per replayed update, the allocation \
         the pure-apply engine performed before apply_in_place existed\"\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_state.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }

    assert!(
        speedup >= 2.0,
        "n=10^4 sweep must be >= 2x faster than the recorded pre-refactor baseline \
         (got {speedup:.2}x)"
    );
    assert!(
        clone_reduction >= 10.0,
        "clone traffic must be >= 10x under the pre-refactor engine (got {clone_reduction:.1}x)"
    );
}
