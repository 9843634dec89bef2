//! E12 — generality of the framework (§4, §6): the banking application.
//!
//! The paper claims its transaction taxonomy and cost-bound technique
//! "carry over to other resource allocation systems"; banking is the
//! first example §1.1 names. The experiment (a) verifies the §4.1
//! classification for the bank's transactions, (b) runs simulated
//! partitioned workloads and checks the per-account invariant bound
//! `overdraft(a) ≤ max_debit · k` (the banking analogue of Corollary 8,
//! with every transaction cost-preserving and `WITHDRAW`/`TRANSFER`
//! unsafe), and (c) checks compensation convergence for `RECONCILE`.

use shard_analysis::claims::{check_invariant_bound, check_theorem5};
use shard_analysis::{trace, ClaimCheck, Table};
use shard_apps::banking::{AccountId, Bank, BankState, BankTxn};
use shard_bench::workloads::bank_invocations;
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::{classify_transaction, compensation_steps, BoundFn};
use shard_core::Application;
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{ClusterConfig, DelayModel, NodeId, Runner};

fn main() {
    let mut exp = shard_bench::Experiment::start("e12");
    let accounts = 4u32;
    let max_debit = 100u32;
    let app = Bank::new(accounts, max_debit);
    let f = BoundFn::linear(max_debit as u64);
    println!("E12: banking — taxonomy, invariant overdraft bound, compensation\n");

    // (a) §4.1 classification over a structured state space.
    let space: Vec<BankState> = {
        let mut states = Vec::new();
        let vals = [-250i64, -100, -1, 0, 1, 99, 100, 300];
        for b1 in vals {
            for b2 in vals {
                states.push(BankState::with_balances(&[
                    (AccountId(1), b1),
                    (AccountId(2), b2),
                ]));
            }
        }
        states
    };
    let c1 = app.account_constraint(AccountId(1)).unwrap();
    let mut t = Table::new(
        "E12a classification vs constraint no-overdraft-A1",
        &["transaction", "safe", "preserves", "compensates"],
    );
    let txns: Vec<(&str, BankTxn)> = vec![
        ("DEPOSIT(A1,50)", BankTxn::Deposit(AccountId(1), 50)),
        ("WITHDRAW(A1,50)", BankTxn::Withdraw(AccountId(1), 50)),
        (
            "TRANSFER(A1→A2,50)",
            BankTxn::Transfer(AccountId(1), AccountId(2), 50),
        ),
        ("RECONCILE(A1)", BankTxn::Reconcile(AccountId(1))),
        ("AUDIT", BankTxn::Audit),
    ];
    let mut preserves = ClaimCheck::new("§4.1: every banking transaction preserves no-overdraft");
    for (name, txn) in &txns {
        let c = classify_transaction(&app, txn, c1, &space);
        t.push_row(vec![
            name.to_string(),
            c.safe.to_string(),
            c.preserves.to_string(),
            c.compensates.to_string(),
        ]);
        // Everything preserves; only the debits are unsafe; Reconcile
        // compensates.
        preserves.record((!c.preserves).then(|| format!("{name} does not preserve")));
    }
    println!("{t}");
    exp.claim(preserves);

    // (b) invariant bound under simulated partitions.
    let mut t = Table::new(
        "E12b overdraft bound per account (1000 txns × 5 seeds, worst)",
        &[
            "mean delay",
            "k measured",
            "max overdraft ¢",
            "bound max_debit·k ¢",
            "holds",
        ],
    );
    for mean_delay in [10u64, 60, 240] {
        let mut worst_cost = 0;
        let mut worst_k = 0;
        let mut holds = true;
        for seed in TRIAL_SEEDS {
            let partitions =
                PartitionSchedule::new(vec![PartitionWindow::isolate(500, 2500, vec![NodeId(1)])]);
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay: DelayModel::Exponential { mean: mean_delay },
                    partitions,
                    ..Default::default()
                },
            );
            let report = cluster.run(bank_invocations(seed, 1000, 4, accounts, max_debit));
            assert!(report.mutually_consistent());
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            for c in 0..app.constraint_count() {
                let (k, check) = check_invariant_bound(&app, &te.execution, c, &f, |d| {
                    matches!(d, BankTxn::Withdraw(..) | BankTxn::Transfer(..))
                });
                holds &= exp.claim(check);
                worst_k = worst_k.max(k);
                worst_cost = worst_cost.max(trace::max_cost(&app, &te.execution, c));
                exp.claim(check_theorem5(&app, &te.execution, c, &f, |_| true));
            }
        }
        t.push_row(vec![
            mean_delay.to_string(),
            worst_k.to_string(),
            worst_cost.to_string(),
            (max_debit as u64 * worst_k as u64).to_string(),
            holds.to_string(),
        ]);
    }
    println!("{t}");

    // (c) compensation: RECONCILE clears an overdraft in one step.
    let damaged = BankState::with_balances(&[(AccountId(1), -500)]);
    let steps = compensation_steps(&app, &BankTxn::Reconcile(AccountId(1)), c1, &damaged, 5);
    println!("E12c RECONCILE(A1) from ¢-500: converges in {steps:?} step(s)");
    let mut c = ClaimCheck::new("RECONCILE clears an overdraft in one step");
    c.record((steps != Some(1)).then(|| format!("{steps:?} steps")));
    exp.claim(c);

    exp.finish();
}
