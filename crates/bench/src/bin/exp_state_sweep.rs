//! CI clone-budget gate for the O(delta) state layer.
//!
//! Runs the n = 10⁴ checker sweep (every `apparent_state_before` query
//! of the standard controlled-k airline execution — the workload
//! `BENCH_replay.json` records) with metrics on, then checks that the
//! replay engine's clone traffic stays under the pinned CI budget and
//! at least 10× under what the pre-refactor engine would have copied.
//!
//! Before `apply_in_place`, every replay step materialised a fresh
//! state (`s = apply(s, u)`), so the old clone traffic is bounded below
//! by one full state per replayed update. The sweep's sidecar
//! (`target/exp_metrics/state_sweep.json`) carries the raw counters;
//! `ci.sh` re-asserts the budget from the outside via
//! `shard-trace check 'state.clone_bytes<=…'`.

use shard_analysis::ClaimCheck;
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_bench::workloads::airline_execution_with_k;
use shard_core::Application;
use shard_obs::Registry;
use std::hint::black_box;

/// Hard ceiling on `state.clone_bytes` for the whole run (building the
/// n = 10⁴ execution — one replay query per push — plus the full
/// apparent-state sweep), enforced here and (independently, from the
/// sidecar) by `ci.sh`. Recorded traffic on the reference host is
/// ~215 MB: the checkpoint anchors the cache retains — the airline
/// state is Vec-backed, so each anchor is a deep copy. The
/// pre-refactor engine materialised one full state per replayed
/// update, ~9.6 GB on the same run, so this ceiling sits >20× under
/// it while leaving ~2× headroom over the recorded traffic.
pub const CLONE_BYTES_BUDGET: u64 = 400_000_000;

fn main() {
    let mut exp = shard_bench::Experiment::start("state_sweep");
    shard_obs::set_enabled(true);
    let n = 10_000usize;
    let app = FlyByNight::new(40);
    let e = airline_execution_with_k(&app, 3, n, 4, AirlineMix::default());

    for i in 0..e.len() {
        black_box(e.apparent_state_before(&app, i));
    }

    // Absolute counters, exactly what the sidecar records — the build
    // above queried one apparent state per push, so its replay traffic
    // is part of the budget too.
    let r = Registry::global();
    let snap = r.snapshot();
    let clone_count = snap.counter("state.clone_count").unwrap_or(0);
    let clone_bytes = snap.counter("state.clone_bytes").unwrap_or(0);
    let in_place = snap.counter("replay.in_place_applies").unwrap_or(0);

    // Every replayed update used to materialise a full state; a lower
    // bound on the old traffic is one final-state-sized copy per
    // in-place apply the sweep performed instead.
    let state_bytes = app.state_size_hint(&e.final_state(&app)) as u64;
    let pre_refactor_est = in_place.saturating_mul(state_bytes) + clone_bytes;
    r.gauge("state.pre_refactor_clone_bytes_est")
        .set(pre_refactor_est.min(i64::MAX as u64) as i64);
    r.gauge("state.sweep_n").set(n as i64);

    println!("state_sweep: n={n} pushes + n apparent-state queries");
    println!("  state.clone_count        = {clone_count}");
    println!("  state.clone_bytes        = {clone_bytes}");
    println!("  replay.in_place_applies  = {in_place}");
    println!("  pre-refactor estimate    = {pre_refactor_est} bytes (state hint {state_bytes})");

    exp.claim(ClaimCheck {
        name: format!("state.clone_bytes within CI budget ({CLONE_BYTES_BUDGET})"),
        instances: n,
        violations: if clone_bytes <= CLONE_BYTES_BUDGET {
            Vec::new()
        } else {
            vec![format!(
                "clone traffic {clone_bytes} bytes exceeds budget {CLONE_BYTES_BUDGET}"
            )]
        },
    });
    exp.claim(ClaimCheck {
        name: "clone traffic >= 10x under the pre-refactor engine".into(),
        instances: n,
        violations: if clone_bytes.saturating_mul(10) <= pre_refactor_est {
            Vec::new()
        } else {
            vec![format!(
                "clone traffic {clone_bytes} bytes not 10x under estimate {pre_refactor_est}"
            )]
        },
    });
    exp.claim(ClaimCheck {
        name: "the sweep exercised the in-place replay path".into(),
        instances: n,
        violations: if in_place > 0 {
            Vec::new()
        } else {
            vec!["no in-place applies recorded".into()]
        },
    });
    exp.finish();
}
