//! Group commit in the live loop: a durable node pays one fsync per
//! burst of due submissions, not one per transaction, and the recorded
//! schedule still replays to the live report.
//!
//! Every submission is due at 0, so a node works its queue in full
//! bursts of the live loop's batch (64) and its received batches are
//! appended without a barrier: node `n` takes exactly ⌈own_n / 64⌉
//! fsyncs. The kernel, on the same submissions, runs bursts of one: one
//! fsync per own update. The `store.*` counters are process-wide, which
//! is why this test has a file of its own.

use shard_apps::banking::Bank;
use shard_runtime::{
    banking_submissions, replay, report_digest, run_live_durable, Pacing, RuntimeConfig, Submission,
};
use shard_sim::{
    ClusterConfig, DurabilityConfig, DurableFleet, EagerBroadcast, Gossip, Invocation, NodeId,
    Propagation, Runner,
};

const NODES: u16 = 3;
/// The live loop's burst size (`EXEC_BATCH` in `live.rs`).
const BURST: u64 = 64;

fn fsyncs() -> u64 {
    shard_obs::Registry::global()
        .counter("store.wal_fsyncs")
        .get()
}

/// `txns` banking submissions, all due at 0, node 0 given half, node 1
/// a third and node 2 the rest.
fn due_at_zero(bank: &Bank, txns: usize) -> Vec<Submission<shard_apps::banking::BankTxn>> {
    let mut subs = banking_submissions(bank, 5, txns, NODES, 1.1, Pacing::Open { gap_us: 0 }, None);
    for (i, s) in subs.iter_mut().enumerate() {
        s.at_us = 0;
        s.node = NodeId(match i % 6 {
            0..=2 => 0,
            3 | 4 => 1,
            _ => 2,
        });
    }
    subs
}

fn check<P: Propagation<Bank> + Clone + Send>(strategy: P) {
    let bank = Bank::new(16, 500);
    let subs = due_at_zero(&bank, 500);
    let cfg = RuntimeConfig {
        nodes: NODES,
        seed: 3,
        ..Default::default()
    };
    let mirrors = DurableFleet::<Bank>::new(NODES, &DurabilityConfig::mem(0))
        .unwrap()
        .into_mirrors();
    let before = fsyncs();
    let live = run_live_durable(&bank, &cfg, strategy.clone(), subs.clone(), mirrors);
    let taken = fsyncs() - before;
    assert_eq!(live.report.transactions.len(), subs.len());
    assert!(live.report.mutually_consistent(), "the run converged");

    // Each burst appends at least one own update and takes one fsync,
    // so every node takes at least ⌈own / 64⌉: the sum can stay within
    // the sum of the bounds only if every node does.
    let bound: u64 = (0..NODES)
        .map(|n| {
            let own = subs.iter().filter(|s| s.node == NodeId(n)).count() as u64;
            own.div_ceil(BURST)
        })
        .sum();
    assert!(
        taken <= bound,
        "{}: {taken} fsyncs for {} transactions, at most {bound} bursts",
        strategy.label(),
        subs.len()
    );
    assert!(taken > 0, "the durable nodes synced");

    let replayed = replay(&bank, &cfg, strategy, &subs, &live.schedule);
    assert_eq!(
        report_digest(&live.report),
        report_digest(&replayed),
        "the recorded schedule replays to the live report"
    );
}

/// The kernel's bursts are of one: every own update takes its own
/// fsync, and no delivery takes any.
fn kernel_pays_one_fsync_per_own_update() {
    let bank = Bank::new(16, 500);
    let invs: Vec<Invocation<_>> = due_at_zero(&bank, 500)
        .into_iter()
        .map(|s| Invocation::new(s.at_us, s.node, s.decision))
        .collect();
    let cfg = ClusterConfig {
        nodes: NODES,
        ..Default::default()
    };
    let fleet = DurableFleet::new(NODES, &DurabilityConfig::mem(0)).unwrap();
    let before = fsyncs();
    let report = Runner::new(&bank, cfg, EagerBroadcast::default())
        .with_durability(fleet)
        .run(invs);
    assert_eq!(report.transactions.len(), 500);
    assert_eq!(fsyncs() - before, 500, "one fsync per own update");
}

#[test]
fn a_burst_pays_one_fsync_and_replays() {
    check(EagerBroadcast::default());
    check(Gossip::new(0, u16::MAX));
    check(Gossip::new(300, u16::MAX));
    kernel_pays_one_fsync_per_own_update();
}
