//! The kernel's undo/redo volume is a deterministic function of its
//! inputs, and `benchmark/`'s `sim-partition` workload checks it only
//! at full scale (`RECORDED_SEED_1`). This pins the same shape at the
//! benchmark's smoke scale, where tier-1 runs it: a change to the merge
//! log, the checkpoint chain or a state type may make a re-application
//! cheaper, never more or fewer of them.

use shard::apps::banking::Bank;
use shard::sim::{
    ClusterConfig, DelayModel, Invocation, NodeId, PartitionSchedule, PartitionWindow, Runner,
};
use shard_runtime::{banking_submissions, Pacing};

/// `benchmark/src/sim.rs` at `--scale 0.02`, seed 1: five nodes, 64
/// Zipf(1.1) accounts, one invocation every 5 ticks, exponential delays
/// of mean 40, a checkpoint every 32 entries, node 0 cut off for a
/// fortieth of the horizon five times.
#[test]
fn sim_partition_shape_replays_a_recorded_volume() {
    const NODES: u16 = 5;
    const INVOCATIONS: usize = 200;
    const GAP: u64 = 5;
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
    let horizon = INVOCATIONS as u64 * GAP;
    let windows = (0..5)
        .map(|k| {
            let start = k * horizon / 5 + horizon / 10;
            PartitionWindow::isolate(start, start + horizon / 40, vec![NodeId(0)])
        })
        .collect();
    let config = ClusterConfig {
        nodes: NODES,
        seed: 1,
        delay: DelayModel::Exponential { mean: 40 },
        partitions: PartitionSchedule::new(windows),
        checkpoint_every: 32,
        piggyback: false,
        ..ClusterConfig::default()
    };
    let report = Runner::eager(&bank, config).run(invocations);
    assert_eq!(report.transactions.len(), INVOCATIONS);
    assert_eq!(report.total_replayed(), 12_766);
    assert_eq!(report.messages_sent, 800);
    assert!(report.mutually_consistent());
}
