//! E16 — extension: partial replication (§6).
//!
//! "The inessential full replication assumption needs to be removed.
//! Even with only partial replication, it should be possible to continue
//! to maintain the correctness conditions we describe in this paper, by
//! judicious assignment of data and transactions to nodes."
//!
//! The bank's accounts are sharded across nodes with a replication
//! factor; transactions are routed to holders of the data they read.
//! The experiment verifies that (a) the correctness conditions survive —
//! the emitted execution still satisfies §3.1 and the per-account
//! overdraft bounds still hold — (b) per-object replicas stay mutually
//! consistent, and (c) update-message volume drops with the replication
//! factor, the point of the generalization.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_analysis::claims::check_invariant_bound;
use shard_analysis::Table;
use shard_apps::banking::{AccountId, Bank, BankTxn};
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_core::{Application, ObjectModel};
use shard_sim::{ClusterConfig, DelayModel, Invocation, Placement, Runner};

fn main() {
    let exp = shard_bench::Experiment::start("e16");
    let accounts = 8u32;
    let max_debit = 100u32;
    let nodes = 8u16;
    let app = Bank::new(accounts, max_debit);
    let objects = app.objects();
    let f = BoundFn::linear(max_debit as u64);
    let mut ok = true;
    println!("E16: partial replication (§6 extension) — 8 accounts over 8 nodes\n");

    let mut t = Table::new(
        "E16 replication-factor sweep (800 txns × 5 seeds, totals)",
        &[
            "replication",
            "messages",
            "msgs/txn",
            "objects consistent",
            "bounds hold",
            "worst k",
        ],
    );
    for factor in [8u16, 4, 2] {
        let placement = Placement::round_robin(nodes, &objects, factor);
        let mut messages = 0u64;
        let mut txns = 0u64;
        let mut consistent = true;
        let mut bounds = true;
        let mut worst_k = 0usize;
        for seed in TRIAL_SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut invs = Vec::new();
            let mut t_now = 0u64;
            for _ in 0..800 {
                t_now += rng.random_range(1..=8);
                let a = AccountId(rng.random_range(1..=accounts));
                let txn = if rng.random_bool(0.6) {
                    BankTxn::Deposit(a, rng.random_range(1..=max_debit))
                } else {
                    BankTxn::Withdraw(a, rng.random_range(1..=max_debit))
                };
                // Route to a uniformly random holder of everything the
                // decision reads.
                let reads = app.decision_objects(&txn);
                let holders: Vec<_> = (0..nodes)
                    .map(shard_sim::NodeId)
                    .filter(|n| placement.holds_all(*n, &reads))
                    .collect();
                let node = holders[rng.random_range(0..holders.len())];
                invs.push(Invocation::new(t_now, node, txn));
            }
            txns += invs.len() as u64;
            let cluster = Runner::partial(
                &app,
                ClusterConfig {
                    nodes,
                    seed,
                    delay: DelayModel::Exponential { mean: 30 },
                    ..Default::default()
                },
                placement.clone(),
            );
            let report = cluster.run(invs);
            messages += report.messages_sent;
            consistent &= report.objects_consistent(&app, &placement);
            let te = report.timed_execution();
            te.execution
                .verify(&app)
                .expect("§3.1 conditions hold under partial replication");
            for c in 0..app.constraint_count() {
                let (k, check) = check_invariant_bound(&app, &te.execution, c, &f, |d| {
                    matches!(d, BankTxn::Withdraw(..) | BankTxn::Transfer(..))
                });
                bounds &= check.holds();
                worst_k = worst_k.max(k);
            }
        }
        ok &= consistent && bounds;
        t.push_row(vec![
            if factor == nodes {
                format!("{factor}× (full)")
            } else {
                format!("{factor}×")
            },
            messages.to_string(),
            format!("{:.1}", messages as f64 / txns as f64),
            consistent.to_string(),
            bounds.to_string(),
            worst_k.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "shape: message volume scales with the replication factor while every §3.1\n\
         condition and cost bound survives — §6's claim, realized"
    );

    exp.finish(ok);
}
