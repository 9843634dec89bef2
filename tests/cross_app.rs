//! Integration across applications: banking, inventory and the
//! dictionary all run on the same simulator substrate, converge, and
//! satisfy their transplanted correctness conditions.

use shard::apps::banking::{AccountId, Bank, BankTxn};
use shard::apps::dictionary::{DictState, DictTxn, Dictionary};
use shard::apps::inventory::{InvTxn, ItemId, Order, OrderId, Warehouse};
use shard::core::costs::BoundFn;
use shard::core::Application;
use shard::sim::partition::{PartitionSchedule, PartitionWindow};
use shard::sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

#[test]
fn bank_replicas_converge_and_overdrafts_stay_bounded() {
    let app = Bank::new(2, 1_000);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 3,
            seed: 17,
            delay: DelayModel::Exponential { mean: 40 },
            ..Default::default()
        },
    );
    let a = AccountId(1);
    let mut invs = vec![Invocation::new(0, NodeId(0), BankTxn::Deposit(a, 1_000))];
    // Racing withdrawals at all three branches.
    for (t, n) in [(100u64, 0u16), (101, 1), (102, 2)] {
        invs.push(Invocation::new(t, NodeId(n), BankTxn::Withdraw(a, 800)));
    }
    invs.push(Invocation::new(600, NodeId(0), BankTxn::Reconcile(a)));
    let report = cluster.run(invs);
    assert!(report.mutually_consistent());
    let te = report.timed_execution();
    te.execution.verify(&app).unwrap();
    let c = app.account_constraint(a).unwrap();
    // Transient overdraft bounded by max_debit · k (Corollary 8 analog).
    let (k, check) = shard::analysis::claims::check_invariant_bound(
        &app,
        &te.execution,
        c,
        &BoundFn::linear(1_000),
        |d| matches!(d, BankTxn::Withdraw(..) | BankTxn::Transfer(..)),
    );
    assert!(check.holds(), "k={k}: {check}");
    // Reconciliation swept the damage.
    assert_eq!(app.cost(&te.execution.final_state(&app), c), 0);
}

#[test]
fn warehouse_replicas_converge_under_partition() {
    let app = Warehouse::new(1, 5, 40, 15);
    let item = ItemId(0);
    let partitions =
        PartitionSchedule::new(vec![PartitionWindow::isolate(50, 400, vec![NodeId(1)])]);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 2,
            seed: 23,
            delay: DelayModel::Fixed(5),
            partitions,
            ..Default::default()
        },
    );
    let mut invs = vec![Invocation::new(
        0,
        NodeId(0),
        InvTxn::Restock { item, qty: 5 },
    )];
    // Both sides of the partition sell the same five units.
    invs.push(Invocation::new(
        100,
        NodeId(0),
        InvTxn::PlaceOrder {
            item,
            order: Order {
                id: OrderId(1),
                qty: 5,
            },
        },
    ));
    invs.push(Invocation::new(
        110,
        NodeId(1),
        InvTxn::PlaceOrder {
            item,
            order: Order {
                id: OrderId(2),
                qty: 5,
            },
        },
    ));
    // After healing: the fulfilment agent unships the excess.
    invs.push(Invocation::new(500, NodeId(0), InvTxn::Unship { item }));
    let report = cluster.run(invs);
    assert!(report.mutually_consistent());
    let te = report.timed_execution();
    te.execution.verify(&app).unwrap();
    let fin = te.execution.final_state(&app);
    assert_eq!(app.cost(&fin, app.oversell_constraint(item)), 0);
    assert_eq!(fin.item(item).committed_units(), 5);
    assert_eq!(
        fin.item(item).backlog.len(),
        1,
        "the losing order is backordered"
    );
}

#[test]
fn dictionary_nodes_agree_and_stale_lookups_are_visible() {
    let app = Dictionary;
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 3,
            seed: 31,
            delay: DelayModel::Fixed(100),
            ..Default::default()
        },
    );
    let invs = vec![
        Invocation::new(0, NodeId(0), DictTxn::Insert(1, 10)),
        Invocation::new(10, NodeId(0), DictTxn::Insert(1, 11)),
        // A lookup at node 1 before the inserts arrive: observes ∅.
        Invocation::new(20, NodeId(1), DictTxn::Lookup(1)),
        // A lookup at node 0 sees its own writes.
        Invocation::new(30, NodeId(0), DictTxn::Lookup(1)),
        Invocation::new(500, NodeId(2), DictTxn::Delete(1)),
    ];
    let report = cluster.run(invs);
    assert!(report.mutually_consistent());
    let te = report.timed_execution();
    te.execution.verify(&app).unwrap();
    let lookups: Vec<&str> = report
        .external_actions()
        .into_iter()
        .filter(|(_, _, a)| a.kind == "lookup-result")
        .map(|(_, _, a)| a.subject.as_str())
        .collect();
    assert_eq!(lookups, vec!["1=∅", "1=11"]);
    assert_eq!(report.final_states[0], DictState::default());
}

#[test]
fn last_writer_wins_is_by_timestamp_not_arrival() {
    // Node 1's later-timestamped write beats node 0's even when node
    // 0's message arrives at node 2 afterwards.
    let app = Dictionary;
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 3,
            seed: 37,
            delay: DelayModel::Uniform { lo: 1, hi: 400 },
            ..Default::default()
        },
    );
    let invs = vec![
        Invocation::new(0, NodeId(0), DictTxn::Insert(7, 100)),
        Invocation::new(1, NodeId(1), DictTxn::Insert(7, 200)),
    ];
    let report = cluster.run(invs);
    assert!(report.mutually_consistent());
    // The serial order is the timestamp order; both had lamport 1, so
    // the node-id tiebreak puts node 1's write second: it wins
    // everywhere, regardless of arrival order.
    assert_eq!(report.final_states[0].get(7), Some(200));
}
