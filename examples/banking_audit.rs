//! Double-spending at partitioned ATMs, overdraft reconciliation, and a
//! trustworthy audit — the banking scenario of §1.1 and §3.2.
//!
//! ```sh
//! cargo run --example banking_audit
//! ```

use shard::apps::banking::{AccountId, Bank, BankTxn};
use shard::core::Application;
use shard::sim::partition::{PartitionSchedule, PartitionWindow};
use shard::sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

fn main() {
    let app = Bank::new(2, 50_000);
    let alice = AccountId(1);
    let bob = AccountId(2);

    // Three branches; branch 2's ATM is cut off from t=50 to t=400.
    let partitions =
        PartitionSchedule::new(vec![PartitionWindow::isolate(50, 400, vec![NodeId(2)])]);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 3,
            seed: 3,
            delay: DelayModel::Fixed(8),
            partitions,
            ..Default::default()
        },
    );

    let invs = vec![
        // Alice deposits $100 at branch 0; everyone learns of it.
        Invocation::new(10, NodeId(0), BankTxn::Deposit(alice, 10_000)),
        // During the partition, Alice withdraws $80 at branch 1 *and*
        // $80 at the cut-off ATM 2. Both decisions see a $100 balance
        // and both dispense cash — this cannot be undone.
        Invocation::new(100, NodeId(1), BankTxn::Withdraw(alice, 8_000)),
        Invocation::new(120, NodeId(2), BankTxn::Withdraw(alice, 8_000)),
        // Bob's unrelated deposit keeps flowing at branch 0.
        Invocation::new(150, NodeId(0), BankTxn::Deposit(bob, 2_500)),
        // After healing, the back office reconciles Alice's overdraft
        // and audits the books.
        Invocation::new(500, NodeId(0), BankTxn::Reconcile(alice)),
        Invocation::new(520, NodeId(0), BankTxn::Audit),
    ];

    let report = cluster.run(invs);
    let te = report.timed_execution();
    te.execution.verify(&app).expect("valid execution");
    assert!(report.mutually_consistent());

    println!("external actions (cash movements & notices):");
    for (time, node, action) in report.external_actions() {
        println!("  t={time:<4} branch {node}: {action}");
    }

    // Both withdrawals dispensed cash: the overdraft is real.
    let dispensed = report
        .external_actions()
        .iter()
        .filter(|(_, _, a)| a.kind == "dispense-cash")
        .count();
    println!("\ncash dispensals: {dispensed} (two, despite one balance — the availability price)");
    assert_eq!(dispensed, 2);

    // Trace Alice's balance through the serial order.
    println!("\nAlice's balance along the global serial order:");
    for (i, s) in te.execution.actual_states(&app).iter().enumerate() {
        println!("  after {} txns: ¢{}", i, s.balance(alice));
    }

    let final_state = te.execution.final_state(&app);
    let c1 = app.account_constraint(alice).unwrap();
    println!(
        "\nfinal: Alice ¢{} (overdraft cost {}), Bob ¢{}",
        final_state.balance(alice),
        app.cost(&final_state, c1),
        final_state.balance(bob)
    );
    assert_eq!(
        app.cost(&final_state, c1),
        0,
        "reconciliation swept the overdraft"
    );

    // The audit reported the total it *observed* — with a complete
    // prefix in this run, that is the true total.
    let actions = report.external_actions();
    let audit = actions
        .iter()
        .find(|(_, _, a)| a.kind == "audit-report")
        .expect("audit ran");
    println!("audit report: total ¢{}", audit.2.subject);
}
