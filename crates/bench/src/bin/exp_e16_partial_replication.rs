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

use shard_analysis::claims::check_invariant_bound;
use shard_analysis::{ClaimCheck, Table};
use shard_apps::banking::{Bank, BankTxn};
use shard_bench::workloads::placed_bank_invocations;
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_core::{Application, ObjectModel};
use shard_sim::{ClusterConfig, DelayModel, Placement, Runner};

fn main() {
    let mut exp = shard_bench::Experiment::start("e16");
    let accounts = 8u32;
    let max_debit = 100u32;
    let nodes = 8u16;
    let app = Bank::new(accounts, max_debit);
    let objects = app.objects();
    let f = BoundFn::linear(max_debit as u64);
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
    let mut agree = ClaimCheck::new("§6: every object's holders agree at every replication factor");
    for factor in [8u16, 4, 2] {
        let placement = Placement::round_robin(nodes, &objects, factor);
        let mut messages = 0u64;
        let mut txns = 0u64;
        let mut consistent = true;
        let mut bounds = true;
        let mut worst_k = 0usize;
        for seed in TRIAL_SEEDS {
            let invs = placed_bank_invocations(&app, &placement, seed, 800);
            txns += invs.len() as u64;
            let cluster = Runner::new(
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
                bounds &= exp.claim(check);
                worst_k = worst_k.max(k);
            }
        }
        agree.record((!consistent).then(|| format!("replication {factor}")));
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
    exp.claim(agree);
    println!(
        "shape: message volume scales with the replication factor while every §3.1\n\
         condition and cost bound survives — §6's claim, realized"
    );

    exp.finish();
}
