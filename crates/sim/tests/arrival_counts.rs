//! What a transaction records of what its node knew — an incarnation
//! and a count of that incarnation's arrivals — names exactly the set
//! the node held. Two or three nodes are driven through the replica
//! step itself (`Node::{execute_step, deliver_step, recover_step}`) on
//! `MemStore` mirrors: executions, batches of whatever a peer merged
//! since its last offer, and crashes that cut a node's WAL at a random
//! record boundary past its last fsync, after which the node restarts
//! from its store and every peer re-offers its whole log. At every
//! execution the node's `log.entries()` is the oracle: the set the
//! report materialises from the transaction's record must equal it,
//! and the formal execution's prefix must be its serial ranks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_apps::banking::{AccountId, Bank, BankTxn};
use shard_sim::kernel::{Entries, Node};
use shard_sim::{EagerBroadcast, ExecutedTxn, NodeId, NodeMirror, RunReport, Sender, Timestamp};
use std::collections::BTreeMap;

/// One run of `steps` random steps over `nodes` replicas, checked
/// against the oracle.
fn run(seed: u64, nodes: usize, steps: usize) {
    let app = Bank::new(8, 100);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut replicas: Vec<Node<Bank>> = (0..nodes)
        .map(|i| Node::new(&app, NodeId(i as u16), nodes as u16, 4))
        .collect();
    let mut mirrors: Vec<NodeMirror<Bank>> = (0..nodes).map(|_| NodeMirror::mem()).collect();
    // What each node has offered each peer: a cursor into its arrivals.
    let mut offered = vec![vec![0usize; nodes]; nodes];
    // The WAL length after each append burst since the last fsync: the
    // record boundaries a crash may cut at.
    let mut boundaries: Vec<Vec<u64>> = vec![Vec::new(); nodes];
    let mut restarts = vec![0u32; nodes];
    let mut txns: Vec<ExecutedTxn<Bank>> = Vec::new();
    // Per executed timestamp: the oracle, the log's timestamps then.
    let mut held: BTreeMap<Timestamp, Vec<Timestamp>> = BTreeMap::new();
    for now in 0..steps as u64 {
        let at = rng.random_range(0..nodes);
        match rng.random_range(0..10) {
            0..=3 => {
                let before: Vec<Timestamp> = replicas[at]
                    .log
                    .entries()
                    .iter()
                    .map(|(ts, _)| *ts)
                    .collect();
                let decision = BankTxn::Deposit(AccountId(rng.random_range(0..8)), 1);
                let (txn, _) =
                    replicas[at].execute_step(&app, decision, now, Some(&mut mirrors[at]), None);
                mirrors[at].persist(&replicas[at].log, true);
                boundaries[at].clear();
                assert_eq!(txn.known.len(), before.len(), "count of {}", txn.ts);
                assert_eq!(
                    txn.known.incarnation, restarts[at],
                    "incarnation of {}",
                    txn.ts
                );
                held.insert(txn.ts, before);
                txns.push(txn);
            }
            4..=8 => {
                let from = rng.random_range(0..nodes);
                if from == at {
                    continue;
                }
                let arrivals = replicas[from].log.arrivals();
                let batch: Entries<Bank> = arrivals[offered[from][at]..].iter().cloned().collect();
                offered[from][at] = arrivals.len();
                if batch.is_empty() {
                    continue;
                }
                replicas[at].deliver_step(
                    &app,
                    Sender {
                        node: NodeId(from as u16),
                        stamp: None,
                    },
                    &batch,
                    now,
                    Some(&mut mirrors[at]),
                    None,
                );
                boundaries[at].push(mirrors[at].store_mut().len_bytes());
            }
            _ => {
                // Cut at the last fsync or at a later record boundary.
                let store = mirrors[at].store_mut();
                let mut cuts = vec![store.synced_bytes()];
                cuts.extend(&boundaries[at]);
                let keep = cuts[rng.random_range(0..cuts.len())];
                mirrors[at].crash_at(keep);
                boundaries[at].clear();
                replicas[at].recover_step(&app, 4, now, &mut mirrors[at], None);
                restarts[at] += 1;
                // A new incarnation: its arrivals start over, and every
                // peer offers it everything again.
                offered[at].fill(0);
                for cursors in &mut offered {
                    cursors[at] = 0;
                }
            }
        }
    }
    let report = RunReport::collect(&app, &EagerBroadcast::default(), replicas, txns);
    for (lists, restarts) in report.arrivals.iter().zip(&restarts) {
        assert_eq!(
            lists.len(),
            *restarts as usize + 1,
            "one arrival list per incarnation"
        );
    }
    let te = report.timed_execution();
    let order: Vec<Timestamp> = report.transactions.iter().map(|t| t.ts).collect();
    for (i, t) in report.transactions.iter().enumerate() {
        let mut known = report.known(t).to_vec();
        known.sort_unstable();
        assert_eq!(&known, &held[&t.ts], "materialised set of {}", t.ts);
        let ranks: Vec<usize> = known
            .iter()
            .map(|ts| order.binary_search(ts).expect("an executed timestamp"))
            .collect();
        let prefix: Vec<usize> = te.execution.record(i).prefix.iter().collect();
        assert_eq!(prefix, ranks, "prefix of {}", t.ts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_count_of_arrivals_names_the_set_the_node_held(
        seed in any::<u64>(),
        nodes in 2usize..=3,
        steps in 1usize..300,
    ) {
        run(seed, nodes, steps);
    }
}

/// A fixed long run, so every path — a crash cutting unsynced
/// deliveries, several restarts of one node — is taken on every build.
#[test]
fn a_long_run_with_restarts_names_every_set() {
    run(7, 3, 3_000);
}

/// A shape the proptest may not draw: a node restarts before it ever
/// executes, so its first transaction is in incarnation 1.
#[test]
fn a_restart_before_the_first_execution_counts_from_the_recovered_log() {
    let app = Bank::new(2, 100);
    let mut a = Node::new(&app, NodeId(0), 2, 4);
    let mut b = Node::new(&app, NodeId(1), 2, 4);
    let (mut ma, mut mb) = (NodeMirror::<Bank>::mem(), NodeMirror::<Bank>::mem());
    let (t0, _) = a.execute_step(
        &app,
        BankTxn::Deposit(AccountId(0), 5),
        0,
        Some(&mut ma),
        None,
    );
    ma.persist(&a.log, true);
    let batch: Entries<Bank> = a.log.arrivals().iter().cloned().collect();
    b.deliver_step(
        &app,
        Sender {
            node: NodeId(0),
            stamp: None,
        },
        &batch,
        1,
        Some(&mut mb),
        None,
    );
    mb.persist(&b.log, true);
    b.recover_step(&app, 4, 2, &mut mb, None);
    let (t1, _) = b.execute_step(&app, BankTxn::Audit, 3, Some(&mut mb), None);
    assert_eq!((t1.known.incarnation, t1.known.len()), (1, 1));
    let report = RunReport::collect(&app, &EagerBroadcast::default(), vec![a, b], vec![t0, t1]);
    assert_eq!(report.arrivals[1].len(), 2);
    assert_eq!(
        report.known(&report.transactions[1]),
        &[report.transactions[0].ts]
    );
    assert!(report
        .timed_execution()
        .execution
        .record(1)
        .prefix
        .iter()
        .eq([0]));
}
