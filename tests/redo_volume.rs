//! The kernel's undo/redo volume is a deterministic function of its
//! inputs, and `benchmark/`'s `sim-partition` workload checks it only
//! at full scale (`RECORDED_SEED_1`). This pins the same shape at the
//! benchmark's smoke scale, where tier-1 runs it: a change to the merge
//! log, the checkpoint chain or a state type may make a re-application
//! cheaper, never more or fewer of them — nor move them between the
//! checkpoint gap and the suffix. The banking run is the
//! benchmark's own; the airline run is its twin over Fly-by-Night.

use shard::apps::airline::workload::AirlineWorkload;
use shard::apps::airline::FlyByNight;
use shard::apps::banking::Bank;
use shard::sim::{
    ClusterConfig, DelayModel, Invocation, MergeMetrics, NodeId, PartitionSchedule,
    PartitionWindow, Runner,
};
use shard_runtime::{banking_submissions, Pacing};

const NODES: u16 = 5;
const INVOCATIONS: usize = 200;
const GAP: u64 = 5;

/// `benchmark/src/sim.rs` at `--scale 0.02`, seed 1: five nodes, one
/// invocation every 5 ticks, exponential delays of mean 40, a
/// checkpoint every 32 entries, node 0 cut off for a fortieth of the
/// horizon five times.
fn sim_partition_shape() -> ClusterConfig {
    let horizon = INVOCATIONS as u64 * GAP;
    let windows = (0..5)
        .map(|k| {
            let start = k * horizon / 5 + horizon / 10;
            PartitionWindow::isolate(start, start + horizon / 40, vec![NodeId(0)])
        })
        .collect();
    ClusterConfig {
        nodes: NODES,
        seed: 1,
        delay: DelayModel::Exponential { mean: 40 },
        partitions: PartitionSchedule::new(windows),
        checkpoint_every: 32,
        piggyback: false,
        ..ClusterConfig::default()
    }
}

/// The re-applications split by where they start: from each repair's
/// restored checkpoint up to its insertion slot (the checkpoint gap),
/// and from the slot to the tip (the suffix).
fn gap_and_suffix(metrics: &[MergeMetrics]) -> (u64, u64) {
    let sum = |f: fn(&MergeMetrics) -> u64| metrics.iter().map(f).sum::<u64>();
    let gap = sum(|m| m.gap_replayed);
    (gap, sum(|m| m.replayed) - gap)
}

/// The benchmark's workload: 64 Zipf(1.1) accounts.
#[test]
fn sim_partition_shape_replays_a_recorded_volume() {
    let bank = Bank::new(64, 100);
    let invocations: Vec<_> = banking_submissions(
        &bank,
        1,
        INVOCATIONS,
        NODES,
        1.1,
        Pacing::Open { gap_us: GAP },
        None,
    )
    .into_iter()
    .map(|s| Invocation::new(s.at_us, s.node, s.decision))
    .collect();
    let report = Runner::eager(&bank, sim_partition_shape()).run(invocations);
    assert_eq!(report.transactions.len(), INVOCATIONS);
    assert_eq!(report.total_replayed(), 12_766);
    assert_eq!(gap_and_suffix(&report.node_metrics), (8_675, 4_091));
    assert_eq!(report.messages_sent, 800);
    assert!(report.mutually_consistent());
}

/// The airline twin: Fly-by-Night (capacity 20) over seed 1's default
/// mix, origins round-robin over the nodes.
#[test]
fn airline_sim_partition_shape_replays_a_recorded_volume() {
    let app = FlyByNight::new(20);
    let mut workload = AirlineWorkload::with_seed(1);
    let invocations: Vec<_> = (0..INVOCATIONS)
        .map(|i| {
            let node = NodeId((i % NODES as usize) as u16);
            Invocation::new(i as u64 * GAP, node, workload.next_txn())
        })
        .collect();
    let report = Runner::eager(&app, sim_partition_shape()).run(invocations);
    assert_eq!(report.transactions.len(), INVOCATIONS);
    assert_eq!(report.total_replayed(), 13_027);
    assert_eq!(gap_and_suffix(&report.node_metrics), (8_879, 4_148));
    assert_eq!(report.messages_sent, 800);
    assert!(report.mutually_consistent());
}
