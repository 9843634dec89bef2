//! Apparent-state replay and the propagation kernel's overhead.
//!
//! `bench_replay_scaling` compares the incremental (checkpointed) replay
//! engine against from-scratch replay on the whole-execution
//! apparent-state sweep every checker performs, and writes the numbers
//! to `BENCH_replay.json` at the repository root.
//!
//! `bench_kernel_overhead` times the unified propagation kernel
//! ([`shard_sim::Runner`] + `EagerBroadcast`) against a bench-local
//! reconstruction of the seed's flat flooding driver (no strategy
//! indirection, no crash/trace/barrier plumbing) on identical
//! workloads; the overhead lands in `BENCH_replay.json` too, with a
//! 5% regression budget.

use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineState, AirlineTxn, FlyByNight};
use shard_bench::workloads::{airline_execution_with_k, airline_invocations, Routing};
use shard_core::{Application, Execution};
use shard_sim::broadcast::delivery_time;
use shard_sim::events::EventQueue;
use shard_sim::{
    ClusterConfig, DelayModel, Invocation, LamportClock, MergeLog, NodeId, PartitionSchedule,
    Runner, Timestamp,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// From-scratch apparent state: what every checker cost before the
/// replay engine existed (the seed's `O(n²)` path).
fn naive_apparent_state_before(
    app: &FlyByNight,
    e: &Execution<FlyByNight>,
    i: usize,
) -> <FlyByNight as Application>::State {
    let mut s = app.initial_state();
    for j in e.record(i).prefix.iter() {
        s = app.apply(&s, &e.record(j).update);
    }
    s
}

/// One cold-cache incremental sweep (the clone restarts with an empty
/// replay cache), in nanoseconds.
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

/// Naive vs incremental apparent-state sweeps at n ∈ {10², 10³, 10⁴}.
///
/// The incremental sweep is timed in full on a cold cache — five
/// interleaved pairs of runs with the `shard-obs` metrics layer
/// switched off and on, so the JSON also records the instrumentation
/// overhead (`obs_overhead_pct`, the median per-pair contrast, with
/// `obs_overhead_spread_pct` for its max−min spread; the repo budget
/// is < 5% at n = 10⁴). The naive sweep is timed on an evenly
/// strided sample of the queries (its per-query cost is linear in the
/// prefix length, so the strided mean is the overall mean) and scaled
/// to the full sweep; the sampling keeps the n = 10⁴ case from taking
/// minutes. Results are printed and written to `BENCH_replay.json`,
/// together with `kernel_rows` from [`bench_kernel_overhead`].
fn bench_replay_scaling(kernel_rows: &str) {
    let app = FlyByNight::new(40);
    let mut rows = String::new();
    println!("\nexecution/replay_scaling (naive vs incremental apparent-state sweep)");
    for n in [100usize, 1_000, 10_000] {
        let e = airline_execution_with_k(&app, 3, n, 4, AirlineMix::default());

        // Incremental, metrics off and on: 5 interleaved off/on pairs
        // (interleaving decorrelates drift — frequency scaling, cache
        // warmth — from the off/on contrast), medians reported, plus
        // the spread of the per-pair overhead estimates so the JSON
        // records how noisy the contrast itself was.
        let mut off_samples = [0.0f64; 5];
        let mut on_samples = [0.0f64; 5];
        let mut pair_overheads = [0.0f64; 5];
        for i in 0..5 {
            shard_obs::set_enabled(false);
            off_samples[i] = incremental_sweep_once_ns(&app, &e);
            shard_obs::set_enabled(true);
            on_samples[i] = incremental_sweep_once_ns(&app, &e);
            pair_overheads[i] = (on_samples[i] - off_samples[i]) / off_samples[i] * 100.0;
        }
        let incremental_off_ns = median(&mut off_samples);
        let incremental_ns = median(&mut on_samples);
        let obs_overhead_pct = median(&mut pair_overheads);
        let obs_overhead_spread_pct = pair_overheads[4] - pair_overheads[0];

        // Naive, on a strided sample of the same queries.
        let stride = (n / 100).max(1);
        let sampled: Vec<usize> = (0..n).step_by(stride).collect();
        let t0 = Instant::now();
        for &i in &sampled {
            black_box(naive_apparent_state_before(&app, &e, i));
        }
        let naive_ns = t0.elapsed().as_nanos() as f64 * (n as f64 / sampled.len() as f64);

        let speedup = naive_ns / incremental_ns;
        println!(
            "  n={n:>6}  naive {:>12.0} ns  incremental {:>12.0} ns  speedup {speedup:>8.1}x  \
             obs overhead {obs_overhead_pct:>+6.2}% (spread {obs_overhead_spread_pct:.2}pp, \
             median of 5)",
            naive_ns, incremental_ns
        );
        rows.push_str(&format!(
            "    {{\"n\": {n}, \"naive_ns\": {:.0}, \"incremental_ns\": {:.0}, \
             \"incremental_obs_off_ns\": {:.0}, \"obs_overhead_pct\": {obs_overhead_pct:.2}, \
             \"obs_overhead_spread_pct\": {obs_overhead_spread_pct:.2}, \
             \"obs_samples\": 5, \
             \"speedup\": {speedup:.2}, \"naive_sampled_queries\": {}}}{}\n",
            naive_ns,
            incremental_ns,
            incremental_off_ns,
            sampled.len(),
            if n == 10_000 { "" } else { "," }
        ));
    }
    let kernel = format!(
        ",\n  \"kernel_overhead\": {{\n    \
         \"workload\": \"airline flooding, 5 nodes, eager broadcast\",\n    \
         \"baseline\": \"bench-local seed driver (flat loop, no strategy/crash/trace plumbing)\",\n    \
         \"results\": [\n{}    ]\n  }}",
        kernel_rows.replace("    {", "      {")
    );
    let json = format!(
        "{{\n  \"bench\": \"execution_checker_sweep\",\n  \
         \"workload\": \"airline apparent-state sweep, k<=4, 40 seats\",\n  \
         \"checkpoint_interval\": 32,\n  \"results\": [\n{rows}  ]{kernel}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

/// What the seed driver recorded per transaction (the pre-kernel
/// report row): serial position, origin, decision-time
/// knowledge, chosen update and external actions.
struct SeedTxn {
    ts: Timestamp,
    #[allow(dead_code)]
    time: u64,
    #[allow(dead_code)]
    node: NodeId,
    update: Arc<<FlyByNight as Application>::Update>,
    #[allow(dead_code)]
    known: Vec<Timestamp>,
    #[allow(dead_code)]
    actions: Vec<shard_core::ExternalAction>,
}

/// The seed's pre-kernel flooding driver, reconstructed: one flat event
/// loop over Lamport clocks and merge logs with no propagation-strategy
/// indirection and no crash / trace / barrier plumbing, but the same
/// report bookkeeping the old driver performed (per-transaction known
/// sets, external actions, the final sort by timestamp). Same RNG
/// discipline as the kernel (delays sampled per peer in node order at
/// execution time), so it produces bit-identical replicas — the
/// baseline for the unified `Runner`'s structural overhead.
fn seed_eager_run(
    app: &FlyByNight,
    nodes: u16,
    seed: u64,
    delay: DelayModel,
    invs: &[Invocation<AirlineTxn>],
) -> (Vec<AirlineState>, Vec<SeedTxn>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    enum Ev {
        Invoke(usize),
        Deliver {
            to: NodeId,
            ts: Timestamp,
            update: Arc<<FlyByNight as Application>::Update>,
        },
    }

    let partitions = PartitionSchedule::new(Vec::new());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clocks: Vec<LamportClock> = (0..nodes).map(|i| LamportClock::new(NodeId(i))).collect();
    let mut logs: Vec<MergeLog<FlyByNight>> = (0..nodes).map(|_| MergeLog::new(app, 32)).collect();
    let mut transactions: Vec<SeedTxn> = Vec::with_capacity(invs.len());
    let mut queue = EventQueue::new();
    for (i, inv) in invs.iter().enumerate() {
        queue.schedule(inv.time, Ev::Invoke(i));
    }
    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Invoke(i) => {
                let node = invs[i].node;
                let n = node.0 as usize;
                let ts = clocks[n].tick();
                let known: Vec<_> = logs[n].entries().iter().map(|(ts, _)| *ts).collect();
                let outcome = app.decide(&invs[i].decision, logs[n].state());
                let update = Arc::new(outcome.update);
                logs[n].merge(app, ts, Arc::clone(&update));
                for to in 0..nodes {
                    if to == node.0 {
                        continue;
                    }
                    let at = delivery_time(&partitions, &delay, &mut rng, now, node, NodeId(to));
                    queue.schedule(
                        at,
                        Ev::Deliver {
                            to: NodeId(to),
                            ts,
                            update: Arc::clone(&update),
                        },
                    );
                }
                transactions.push(SeedTxn {
                    ts,
                    time: now,
                    node,
                    update,
                    known,
                    actions: outcome.external_actions,
                });
            }
            Ev::Deliver { to, ts, update } => {
                let n = to.0 as usize;
                clocks[n].observe(ts);
                logs[n].merge(app, ts, update);
            }
        }
    }
    transactions.sort_by_key(|t| t.ts);
    let states = logs.into_iter().map(MergeLog::into_state).collect();
    (states, transactions)
}

/// Best-of-`reps` wall time of one full run, in nanoseconds.
fn best_of_ns(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Unified kernel vs the seed flooding driver at n ∈ {1000, 4000}
/// transactions over 5 nodes. Both are timed with the metrics layer
/// off, so the number isolates the kernel's structural bookkeeping
/// (strategy dispatch, crash gating, traced merge, barrier checks).
/// The repo budget for the overhead is ≤ 5%; the returned JSON rows
/// land in `BENCH_replay.json` via `bench_replay_scaling`.
fn bench_kernel_overhead() -> String {
    let app = FlyByNight::new(40);
    let nodes = 5u16;
    let delay = DelayModel::Exponential { mean: 10 };
    let mut rows = String::new();
    println!("\nexecution/kernel_overhead (unified Runner vs seed flooding driver)");
    for n in [1000usize, 4000] {
        let invs = airline_invocations(11, n, nodes, 6, AirlineMix::default(), Routing::Random);
        let cfg = ClusterConfig {
            nodes,
            seed: 11,
            delay,
            ..Default::default()
        };

        // Both drivers must produce the same replicas and serial order
        // before their times are comparable.
        let unified = Runner::eager(&app, cfg.clone()).run(invs.clone());
        let (seed_states, seed_txns) = seed_eager_run(&app, nodes, 11, delay, &invs);
        assert_eq!(
            unified.final_states, seed_states,
            "kernel and seed driver must agree before timing them"
        );
        assert!(unified
            .transactions
            .iter()
            .zip(&seed_txns)
            .all(|(a, b)| a.ts == b.ts && a.update == *b.update));

        shard_obs::set_enabled(false);
        let unified_ns = best_of_ns(15, || {
            black_box(Runner::eager(&app, cfg.clone()).run(invs.clone()).rounds);
        });
        let seed_ns = best_of_ns(15, || {
            black_box(seed_eager_run(&app, nodes, 11, delay, &invs).1.len());
        });
        shard_obs::set_enabled(true);

        let overhead_pct = (unified_ns - seed_ns) / seed_ns * 100.0;
        println!(
            "  n={n:>6}  seed {seed_ns:>12.0} ns  unified {unified_ns:>12.0} ns  \
             overhead {overhead_pct:>+6.2}%  (budget ≤ 5%)"
        );
        rows.push_str(&format!(
            "    {{\"n\": {n}, \"seed_driver_ns\": {seed_ns:.0}, \
             \"unified_kernel_ns\": {unified_ns:.0}, \
             \"overhead_pct\": {overhead_pct:.2}, \"budget_pct\": 5.0}}{}\n",
            if n == 4000 { "" } else { "," }
        ));
    }
    rows
}

fn main() {
    let kernel_rows = bench_kernel_overhead();
    bench_replay_scaling(&kernel_rows);
}
