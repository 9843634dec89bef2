//! E11 — the undo/redo machinery (§1.2) and the history-processing
//! optimizations of \[BK\]/\[SKS\].
//!
//! "Keeping the copy correct entails frequent undoing and redoing of
//! transactions … there are several implementation ideas which reduce
//! the amount of undoing and redoing that is actually necessary." The
//! experiment measures (a) how much redo work out-of-order arrival
//! induces as delay variance grows, and (b) the checkpoint-interval
//! ablation: denser checkpoints cut replayed updates at the price of
//! more snapshots — the trade the optimization papers describe.

use shard_analysis::{ClaimCheck, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_sim::{ClusterConfig, DelayModel, Runner};
use std::sync::Arc;

fn run(
    app: &FlyByNight,
    delay: DelayModel,
    checkpoint_every: usize,
    sink: Option<&Arc<shard_obs::EventSink>>,
) -> (u64, u64, u64) {
    let mut out_of_order = 0;
    let mut replayed = 0;
    let mut merged = 0;
    for seed in TRIAL_SEEDS {
        let cluster = Runner::eager(
            app,
            ClusterConfig {
                nodes: 5,
                seed,
                delay,
                checkpoint_every,
                sink: sink.cloned(),
                ..Default::default()
            },
        );
        let invs = airline_invocations(seed, 1200, 5, 4, AirlineMix::default(), Routing::Random);
        let report = cluster.run(invs);
        assert!(report.mutually_consistent());
        for m in &report.node_metrics {
            out_of_order += m.out_of_order;
            replayed += m.replayed;
            merged += m.merged();
        }
    }
    (out_of_order, replayed, merged)
}

fn main() {
    let mut exp = shard_bench::Experiment::start("e11");
    // JSONL trace of the highest-variance sweep point (exp(80) delays),
    // where out-of-order arrival — and hence undo/redo — peaks.
    let trace_sink = exp.trace_sink();
    let app = FlyByNight::new(40);
    println!("E11: undo/redo volume (5 nodes, 1200 txns × 5 seeds, totals over all nodes)\n");

    let mut t = Table::new(
        "E11a delay-variance sweep (checkpoint interval 32)",
        &[
            "delay model",
            "out-of-order",
            "replayed",
            "merged",
            "replay ratio",
        ],
    );
    let mut prev_ratio = -1.0;
    let mut monotone =
        ClaimCheck::new("the replay ratio does not fall as the delay variance grows");
    for (name, delay) in [
        ("fixed(20)", DelayModel::Fixed(20)),
        ("uniform(1,40)", DelayModel::Uniform { lo: 1, hi: 40 }),
        ("uniform(1,160)", DelayModel::Uniform { lo: 1, hi: 160 }),
        ("exp(20)", DelayModel::Exponential { mean: 20 }),
        ("exp(80)", DelayModel::Exponential { mean: 80 }),
    ] {
        let traced = matches!(delay, DelayModel::Exponential { mean: 80 });
        let (ooo, replayed, merged) = run(
            &app,
            delay,
            32,
            if traced { trace_sink.as_ref() } else { None },
        );
        let ratio = replayed as f64 / merged as f64;
        if name.starts_with("uniform") || name == "fixed(20)" {
            monotone.record((ratio < prev_ratio).then(|| format!("{name}: ratio fell")));
            prev_ratio = ratio;
        }
        t.push_row(vec![
            name.to_string(),
            ooo.to_string(),
            replayed.to_string(),
            merged.to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{t}");
    exp.claim(monotone);

    let mut t = Table::new(
        "E11b checkpoint-interval ablation at exp(80) delays",
        &["checkpoint every", "replayed", "replay ratio"],
    );
    let mut rows: Vec<(usize, u64, f64)> = Vec::new();
    for interval in [1usize, 8, 32, 128, 100_000] {
        let (_, replayed, merged) = run(&app, DelayModel::Exponential { mean: 80 }, interval, None);
        rows.push((interval, replayed, replayed as f64 / merged as f64));
    }
    for (interval, replayed, ratio) in &rows {
        t.push_row(vec![
            interval.to_string(),
            replayed.to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{t}");
    // Shape: denser checkpoints strictly reduce replay volume.
    let mut shape = ClaimCheck::new("replay volume does not fall as checkpoints grow sparser");
    for w in rows.windows(2) {
        shape.record((w[0].1 > w[1].1).then(|| format!("interval {}: replay fell", w[1].0)));
    }
    exp.claim(shape);
    println!("shape: replay volume grows with delay variance and with checkpoint sparsity");

    exp.finish();
}
