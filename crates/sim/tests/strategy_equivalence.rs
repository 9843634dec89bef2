//! Cross-strategy equivalence: with gossip cranked to its fastest
//! setting (`interval: 1`, full fanout) and partial replication
//! degenerated to full placement, all three propagation strategies (and
//! gossip over that full placement) are *the same protocol* — every
//! update reaches every peer one sampled delay after it becomes
//! shippable. Under a fixed delay model (which
//! consumes no RNG), invocation times ≥ 1 (so a gossip tick coincides
//! with every execution instant) and partitions that only ever isolate
//! node 0 (so relays cannot beat direct delivery), the kernel must
//! produce identical serial orders, identical decision-time knowledge —
//! hence identical timed executions — and identical final per-node
//! states, whichever strategy drives it. Exercised on the airline,
//! banking and inventory applications; banking's `Audit` also covers
//! the empty-write-set path (pure serial-order information goes to
//! every node under partial placement too).
//!
//! And one equivalence across mechanisms: on FIFO links, gossip at each
//! execution (`Gossip::new(0, nodes − 1)`) knows exactly what the
//! whole-log piggybacking it replaced knew — [`WholeLog`], kept here as
//! the oracle.

use proptest::prelude::*;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_apps::banking::{AccountId, Bank, BankTxn};
use shard_apps::inventory::{InvTxn, ItemId, Order, OrderId, Warehouse};
use shard_apps::Person;
use shard_core::{Application, ObjectModel};
use shard_sim::events::SimTime;
use shard_sim::kernel::{Entries, Node};
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{
    ClusterConfig, DelayModel, EagerBroadcast, Gossip, Invocation, NodeId, Placement, Propagation,
    RunReport, Runner, Timestamp, Transport,
};
use std::sync::Arc;

/// Per-transaction fingerprint: everything the timed execution is built
/// from (serial position, real time, origin, decision-time knowledge)
/// plus the chosen update. Two reports with equal fingerprints have
/// equal `timed_execution()`s by construction.
/// The known set is materialised from the report's arrival record and
/// sorted: strategies may merge the same updates in different orders.
type Fingerprint<A> = (
    Timestamp,
    u64,
    NodeId,
    <A as Application>::Update,
    Vec<Timestamp>,
);

fn fingerprints<A: Application>(report: &RunReport<A>) -> Vec<Fingerprint<A>> {
    report
        .transactions
        .iter()
        .map(|t| {
            let mut known = report.known(t).to_vec();
            known.sort_unstable();
            (t.ts, t.time, t.node, t.update.clone(), known)
        })
        .collect()
}

/// Non-overlapping partition windows, every one isolating node 0 —
/// the restriction under which gossip relays cannot outrun eager
/// broadcast's direct (partition-waiting) sends.
fn isolate_node0(specs: &[(u64, u64)]) -> PartitionSchedule {
    let mut windows = Vec::new();
    let mut t = 0;
    for &(gap, len) in specs {
        let start = t + gap;
        windows.push(PartitionWindow::isolate(
            start,
            start + len,
            vec![NodeId(0)],
        ));
        t = start + len + 1;
    }
    PartitionSchedule::new(windows)
}

/// Runs the same workload through all three strategies at their
/// equivalence settings, and gossip over a full placement (which must
/// be gossip: everyone wants everything), and checks the reports agree.
fn assert_strategies_agree<A>(app: &A, cfg: &ClusterConfig, invs: &[Invocation<A::Decision>])
where
    A: Application + ObjectModel,
{
    let eager = Runner::new(app, cfg.clone(), EagerBroadcast::default()).run(invs.to_vec());
    let gossip = Runner::new(app, cfg.clone(), Gossip::new(1, cfg.nodes)).run(invs.to_vec());
    let full = Placement::round_robin(cfg.nodes, &app.objects(), cfg.nodes);
    let partial = Runner::new(app, cfg.clone(), full.clone()).run(invs.to_vec());
    let gossip_over = Gossip::new(1, cfg.nodes).over(full);
    let gossip_over = Runner::new(app, cfg.clone(), gossip_over).run(invs.to_vec());

    let reference = fingerprints(&eager);
    for other in [&gossip, &partial, &gossip_over] {
        assert_eq!(&eager.final_states, &other.final_states);
        assert_eq!(&reference, &fingerprints(other));
    }
    let wire = |r: &RunReport<A>| (r.messages_sent, r.entries_shipped, r.rounds);
    assert_eq!(wire(&gossip), wire(&gossip_over));
    // And the shared execution is a valid one.
    let te = eager.timed_execution();
    te.execution
        .verify(app)
        .expect("the strategies' shared execution must satisfy §3.1");
}

/// Whole-log piggybacking, the transitivity mechanism eager broadcast
/// once carried: at each execution every peer is sent the origin's
/// entire log, the fresh update last — a datagram that may overtake.
struct WholeLog;

impl<A: Application> Propagation<A> for WholeLog {
    fn label(&self) -> &'static str {
        "whole-log"
    }

    fn on_execute(
        &mut self,
        _app: &A,
        net: &mut dyn Transport<A>,
        node: &Node<A>,
        now: SimTime,
        ts: Timestamp,
        update: &Arc<A::Update>,
    ) {
        let others = node.log.entries().iter().filter(|(t, _)| *t != ts);
        let log: Entries<A> = others.cloned().chain([(ts, Arc::clone(update))]).collect();
        for to in (0..net.nodes()).map(NodeId).filter(|&to| to != node.id) {
            net.send(now, node.id, to, Arc::clone(&log));
        }
    }
}

/// Raw workloads: `(txn, time, node)` triples with times ≥ 1 (so every
/// execution instant coincides with a gossip tick); node indices are
/// folded mod the generated cluster size by [`build`].
fn workload<D: std::fmt::Debug>(
    txn: impl Strategy<Value = D>,
) -> impl Strategy<Value = Vec<(D, u64, u16)>> {
    proptest::collection::vec((txn, 1u64..250, 0u16..8), 0..40)
}

/// `(gap, len)` specs for the node-0 partition windows.
fn windows() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..120, 1u64..90), 0..3)
}

fn build<D>(raw: Vec<(D, u64, u16)>, nodes: u16) -> Vec<Invocation<D>> {
    let mut invs: Vec<_> = raw
        .into_iter()
        .map(|(d, t, n)| Invocation::new(t, NodeId(n % nodes), d))
        .collect();
    invs.sort_by_key(|i| i.time);
    invs
}

fn config(nodes: u16, seed: u64, delay: u64, windows: &[(u64, u64)]) -> ClusterConfig {
    ClusterConfig {
        nodes,
        seed,
        delay: DelayModel::Fixed(delay),
        partitions: isolate_node0(windows),
        ..Default::default()
    }
}

fn airline_txn() -> impl Strategy<Value = AirlineTxn> {
    prop_oneof![
        (1u32..10).prop_map(|p| AirlineTxn::Request(Person(p))),
        (1u32..10).prop_map(|p| AirlineTxn::Cancel(Person(p))),
        Just(AirlineTxn::MoveUp),
        Just(AirlineTxn::MoveDown),
    ]
}

fn bank_txn() -> impl Strategy<Value = BankTxn> {
    prop_oneof![
        (1u32..=3, 1u32..40).prop_map(|(a, x)| BankTxn::Deposit(AccountId(a), x)),
        (1u32..=3, 1u32..40).prop_map(|(a, x)| BankTxn::Withdraw(AccountId(a), x)),
        (1u32..=3, 1u32..=3, 1u32..40).prop_map(|(a, b, x)| BankTxn::Transfer(
            AccountId(a),
            AccountId(b),
            x
        )),
        (1u32..=3).prop_map(|a| BankTxn::Reconcile(AccountId(a))),
        Just(BankTxn::Audit),
    ]
}

fn inventory_txn() -> impl Strategy<Value = InvTxn> {
    prop_oneof![
        (0u32..3, 0u32..12, 1u64..8).prop_map(|(i, id, qty)| InvTxn::PlaceOrder {
            item: ItemId(i),
            order: Order {
                id: OrderId(id),
                qty,
            },
        }),
        (0u32..3, 0u32..12).prop_map(|(i, id)| InvTxn::CancelOrder {
            item: ItemId(i),
            id: OrderId(id),
        }),
        (0u32..3).prop_map(|i| InvTxn::Promote { item: ItemId(i) }),
        (0u32..3).prop_map(|i| InvTxn::Unship { item: ItemId(i) }),
        (0u32..3, 1u64..10).prop_map(|(i, qty)| InvTxn::Restock {
            item: ItemId(i),
            qty
        }),
        (0u32..3, 1u64..10).prop_map(|(i, qty)| InvTxn::Shrink {
            item: ItemId(i),
            qty
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Airline: fastest gossip ≡ full partial ≡ eager broadcast.
    #[test]
    fn airline_strategies_agree(
        raw in workload(airline_txn()),
        nodes in 2u16..5,
        seed in 0u64..1000,
        delay in 1u64..25,
        specs in windows(),
    ) {
        let app = FlyByNight::new(4);
        let invs = build(raw, nodes);
        assert_strategies_agree(&app, &config(nodes, seed, delay, &specs), &invs);
    }

    /// Banking — including read-only `Audit`s, whose empty write sets
    /// must still reach every node as serial-order information.
    #[test]
    fn banking_strategies_agree(
        raw in workload(bank_txn()),
        nodes in 2u16..5,
        seed in 0u64..1000,
        delay in 1u64..25,
        specs in windows(),
    ) {
        let app = Bank::new(3, 50);
        let invs = build(raw, nodes);
        assert_strategies_agree(&app, &config(nodes, seed, delay, &specs), &invs);
    }

    /// Inventory control with per-item objects under full placement.
    #[test]
    fn inventory_strategies_agree(
        mut raw in workload(inventory_txn()),
        nodes in 2u16..5,
        seed in 0u64..1000,
        delay in 1u64..25,
        specs in windows(),
    ) {
        let app = Warehouse::new(3, 40, 2, 1);
        // Order ids are globally unique by client discipline (the
        // warehouse's well-formedness condition), so renumber.
        for (k, (txn, _, _)) in raw.iter_mut().enumerate() {
            if let InvTxn::PlaceOrder { order, .. } = txn {
                order.id = OrderId(k as u32 + 100);
            }
        }
        let invs = build(raw, nodes);
        assert_strategies_agree(&app, &config(nodes, seed, delay, &specs), &invs);
    }

    /// Gossip at each execution against the whole-log oracle. On FIFO
    /// links — a fixed delay, any partition windows — every batch lands
    /// after its sender's earlier ones, so a node knows at each instant
    /// exactly what whole-log messages would have taught it: identical
    /// timed executions and final states, for fewer entries shipped.
    /// Under exponential delays a whole-log datagram may overtake an
    /// older one and a cursor batch waits instead, so the executions
    /// differ, but both stay transitive.
    #[test]
    fn per_execution_gossip_is_whole_log_piggybacking_on_fifo_links(
        raw in workload(airline_txn()),
        nodes in 2u16..5,
        seed in 0u64..1000,
        delay in 1u64..25,
        cuts in proptest::collection::vec((0u64..300, 1u64..150, 0u16..8), 0..3),
    ) {
        let app = FlyByNight::new(4);
        let invs = build(raw, nodes);
        let isolate = |&(start, len, node): &(u64, u64, u16)| {
            PartitionWindow::isolate(start, start + len, vec![NodeId(node % nodes)])
        };
        let fifo = ClusterConfig {
            nodes,
            seed,
            delay: DelayModel::Fixed(delay),
            partitions: PartitionSchedule::new(cuts.iter().map(isolate).collect()),
            ..Default::default()
        };
        let exponential = ClusterConfig {
            delay: DelayModel::Exponential { mean: 4 * delay },
            ..fifo.clone()
        };
        let per_execution = Gossip::new(0, nodes - 1);
        let whole = Runner::new(&app, fifo.clone(), WholeLog).run(invs.clone());
        let gossip = Runner::new(&app, fifo, per_execution.clone()).run(invs.clone());
        prop_assert_eq!(fingerprints(&whole), fingerprints(&gossip));
        prop_assert_eq!(&whole.final_states, &gossip.final_states);
        prop_assert_eq!(whole.messages_sent, gossip.messages_sent);
        prop_assert!(gossip.entries_shipped <= whole.entries_shipped);
        for report in [
            Runner::new(&app, exponential.clone(), WholeLog).run(invs.clone()),
            Runner::new(&app, exponential, per_execution).run(invs),
        ] {
            let execution = report.timed_execution().execution;
            prop_assert!(shard_core::conditions::is_transitive(&execution));
        }
    }
}
