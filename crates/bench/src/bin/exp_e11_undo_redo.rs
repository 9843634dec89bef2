//! E11 — the undo/redo machinery (§1.2) and the history-processing
//! optimizations of \[BK\]/\[SKS\].
//!
//! "Keeping the copy correct entails frequent undoing and redoing of
//! transactions … there are several implementation ideas which reduce
//! the amount of undoing and redoing that is actually necessary." The
//! experiment measures (a) how much redo work out-of-order arrival
//! induces as delay variance grows, and (b) the checkpoint-interval
//! ablation: denser checkpoints cut replayed updates at the price of
//! more snapshots — the trade the optimization papers describe. And (c)
//! that the history kept for those repairs stays flat as a run grows:
//! each node retires what lies below its stability frontier, so the
//! entries and checkpoints it holds at its peak do not follow the
//! number of updates it knows.

use shard_analysis::{ClaimCheck, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_apps::banking::Bank;
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_runtime::{banking_submissions, Pacing};
use shard_sim::{
    ClusterConfig, DelayModel, Invocation, NodeId, PartitionSchedule, PartitionWindow, Runner,
};
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

/// What one node kept: its peak retained entries and checkpoints, and
/// how many updates it merged.
struct Kept {
    entries: u64,
    checkpoints: u64,
    merged: u64,
}

/// The sum so far of one node's per-run peaks of `what`, from the merge
/// log's `merge.peak_retained_<what>.n<id>` histogram.
fn peak_sum(what: &str, node: usize) -> u64 {
    shard_obs::Registry::global()
        .histogram(&format!("merge.peak_retained_{what}.n{node}"))
        .snapshot()
        .sum
}

/// One eager run of `sim-partition`'s shape — 5 nodes, banking at one
/// invocation every 5 ticks, 40-tick mean exponential delays, node 0
/// cut off five times, checkpoints every 32 — at `n` invocations, each
/// cut `cut` ticks long: what each node kept, read off the merge log's
/// peak metrics. (`sim-partition` itself cuts for a fortieth of the
/// horizon: 1 250 ticks at 10⁴ invocations.)
fn partition_run(n: usize, cut: u64) -> Vec<Kept> {
    const NODES: u16 = 5;
    const GAP: u64 = 5;
    let bank = Bank::new(64, 100);
    let horizon = n as u64 * GAP;
    let windows = (0..5)
        .map(|k| {
            let start = k * horizon / 5 + horizon / 10;
            PartitionWindow::isolate(start, start + cut, vec![NodeId(0)])
        })
        .collect();
    let cfg = ClusterConfig {
        nodes: NODES,
        seed: 1,
        delay: DelayModel::Exponential { mean: 40 },
        partitions: PartitionSchedule::new(windows),
        checkpoint_every: 32,
        ..ClusterConfig::default()
    };
    let pacing = Pacing::Open { gap_us: GAP };
    let invs = banking_submissions(&bank, 1, n, NODES, 1.1, pacing, None)
        .into_iter()
        .map(|s| Invocation::new(s.at_us, s.node, s.decision))
        .collect();
    let before: Vec<(u64, u64)> = (0..usize::from(NODES))
        .map(|i| (peak_sum("entries", i), peak_sum("checkpoints", i)))
        .collect();
    let report = Runner::eager(&bank, cfg).run(invs);
    assert!(report.mutually_consistent() && report.missing().is_empty());
    before
        .into_iter()
        .enumerate()
        .map(|(i, (entries, checkpoints))| Kept {
            entries: peak_sum("entries", i) - entries,
            checkpoints: peak_sum("checkpoints", i) - checkpoints,
            merged: report.node_metrics[i].merged(),
        })
        .collect()
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

    let mut t = Table::new(
        "E11c history kept on sim-partition's shape (seed 1): each node's peak \
         retained entries / checkpoints",
        &[
            "invocations",
            "cut (ticks)",
            "known",
            "n0",
            "n1",
            "n2",
            "n3",
            "n4",
        ],
    );
    let runs = [(10_000, 1_250), (100_000, 1_250), (100_000, 12_500)];
    let kept: Vec<Vec<Kept>> = runs.iter().map(|&(n, cut)| partition_run(n, cut)).collect();
    for ((n, cut), nodes) in runs.iter().zip(&kept) {
        let mut row = vec![n.to_string(), cut.to_string(), nodes[0].merged.to_string()];
        row.extend(
            nodes
                .iter()
                .map(|k| format!("{} / {}", k.entries, k.checkpoints)),
        );
        t.push_row(row);
    }
    let mut flat = ClaimCheck::new(
        "under the same cuts, each node's peak retained entries and checkpoints at 1e5 \
         invocations are at most twice those at 1e4, while the updates it knows grow tenfold",
    );
    for (node, (s, l)) in kept[0].iter().zip(&kept[1]).enumerate() {
        let grew = |what: &str, s: u64, l: u64| {
            (l > 2 * s).then(|| format!("node {node}: {what} {s} -> {l}"))
        };
        flat.record(grew("entries", s.entries, l.entries));
        flat.record(grew("checkpoints", s.checkpoints, l.checkpoints));
        flat.record(
            (l.merged < 10 * s.merged)
                .then(|| format!("node {node}: known {} -> {}", s.merged, l.merged)),
        );
    }
    println!("{t}");
    println!(
        "a cut holds every frontier at its start until it heals: the peak follows the \
         longest cut, not the run's length"
    );
    exp.claim(flat);

    exp.finish();
}
