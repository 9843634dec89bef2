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
//!
//! A node without a mirror takes the same path: it too releases a burst
//! only after the burst ends, so its first release already finds the
//! burst's last own update in its log.

use shard_apps::banking::{Bank, BankTxn, BankUpdate};
use shard_runtime::{
    banking_submissions, replay, report_digest, run_live, run_live_durable, Pacing, RuntimeConfig,
    Submission,
};
use shard_sim::events::SimTime;
use shard_sim::kernel::Node;
use shard_sim::{
    ClusterConfig, DurabilityConfig, DurableFleet, EagerBroadcast, Gossip, Invocation, NodeId,
    Propagation, Runner, Timestamp, Transport,
};
use std::sync::{Arc, Mutex};

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
fn due_at_zero(bank: &Bank, txns: usize) -> Vec<Submission<BankTxn>> {
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

/// `P`, noting at each release how many own updates the releasing
/// node's log holds.
#[derive(Clone)]
struct Recorder<P> {
    inner: P,
    releases: Arc<Mutex<Vec<(NodeId, usize)>>>,
}

impl<P: Propagation<Bank>> Propagation<Bank> for Recorder<P> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn tick_interval(&self) -> Option<SimTime> {
        self.inner.tick_interval()
    }
    fn ordered_links(&self) -> bool {
        self.inner.ordered_links()
    }
    fn validate(&self, app: &Bank, nodes: u16, invs: &[Invocation<BankTxn>]) {
        self.inner.validate(app, nodes, invs)
    }
    fn on_execute(
        &mut self,
        app: &Bank,
        net: &mut dyn Transport<Bank>,
        node: &Node<Bank>,
        now: SimTime,
        ts: Timestamp,
        update: &Arc<BankUpdate>,
    ) {
        let own = node.log.entries().iter().filter(|(t, _)| t.node == node.id);
        let entry = (node.id, own.count());
        self.releases.lock().unwrap().push(entry);
        self.inner.on_execute(app, net, node, now, ts, update)
    }
    fn on_tick(
        &mut self,
        app: &Bank,
        net: &mut dyn Transport<Bank>,
        node: &Node<Bank>,
        now: SimTime,
    ) {
        self.inner.on_tick(app, net, node, now)
    }
    fn on_recover(&mut self, node: &Node<Bank>) {
        self.inner.on_recover(node)
    }
    fn has_unsent(&self, node: &Node<Bank>) -> bool {
        self.inner.has_unsent(node)
    }
    fn wants(&self, app: &Bank, node: NodeId, update: &BankUpdate) -> bool {
        self.inner.wants(app, node, update)
    }
}

/// One run of `strategy` on `MemStore` mirrors if `durable`, on none
/// otherwise. Either way a node releases a burst after it ends, so its
/// first release finds its whole first burst — its first
/// min(own, 64) own updates — in its log, and the recorded schedule
/// replays to the live report.
fn check<P: Propagation<Bank> + Clone + Send>(strategy: P, durable: bool) {
    let bank = Bank::new(16, 500);
    let subs = due_at_zero(&bank, 500);
    let cfg = RuntimeConfig {
        nodes: NODES,
        seed: 3,
        ..Default::default()
    };
    let recorder = Recorder {
        inner: strategy.clone(),
        releases: Arc::default(),
    };
    let before = fsyncs();
    let live = if durable {
        let mirrors = DurableFleet::<Bank>::new(NODES, &DurabilityConfig::mem(0))
            .unwrap()
            .into_mirrors();
        run_live_durable(&bank, &cfg, recorder.clone(), subs.clone(), mirrors)
    } else {
        run_live(&bank, &cfg, recorder.clone(), subs.clone())
    };
    let taken = fsyncs() - before;
    assert_eq!(live.report.transactions.len(), subs.len());
    assert!(live.report.mutually_consistent(), "the run converged");

    // Each burst appends at least one own update and takes one fsync,
    // so every node takes at least ⌈own / 64⌉: the sum can stay within
    // the sum of the bounds only if every node does.
    let own = |n: NodeId| subs.iter().filter(|s| s.node == n).count();
    let bound: u64 = (0..NODES)
        .map(|n| (own(NodeId(n)) as u64).div_ceil(BURST))
        .sum();
    assert!(
        taken <= bound,
        "{}: {taken} fsyncs for {} transactions, at most {bound} bursts",
        strategy.label(),
        subs.len()
    );
    assert_eq!(taken > 0, durable, "only durable nodes sync");

    let releases = recorder.releases.lock().unwrap();
    for n in (0..NODES).map(NodeId) {
        let first = releases.iter().find(|(at, _)| *at == n).map(|r| r.1);
        assert_eq!(
            first,
            Some(own(n).min(BURST as usize)),
            "{} (durable: {durable}): node {n}'s first release sees its whole first burst",
            strategy.label()
        );
    }

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
    for durable in [true, false] {
        check(EagerBroadcast::default(), durable);
        check(Gossip::new(0, u16::MAX), durable);
        check(Gossip::new(300, u16::MAX), durable);
    }
    kernel_pays_one_fsync_per_own_update();
}
