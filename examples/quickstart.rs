//! Quickstart: run the Fly-by-Night airline on a simulated SHARD
//! cluster, check the execution against the formal model, and verify the
//! paper's headline cost bound.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use shard::analysis::claims::check_invariant_bound;
use shard::analysis::{completeness, trace};
use shard::apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard::apps::Person;
use shard::core::costs::BoundFn;
use shard::sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

fn main() {
    // A 10-seat flight, replicated across 5 nodes with exponential
    // message delays (mean 30 ticks).
    let app = FlyByNight::new(10);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 5,
            seed: 7,
            delay: DelayModel::Exponential { mean: 30 },
            ..Default::default()
        },
    );

    // 14 passengers request seats at whichever node is closest; an agent
    // transaction tries to seat someone after every booking.
    let mut invocations = Vec::new();
    let mut t = 0;
    for i in 1..=14u32 {
        t += 10;
        invocations.push(Invocation::new(
            t,
            NodeId((i % 5) as u16),
            AirlineTxn::Request(Person(i)),
        ));
        t += 5;
        invocations.push(Invocation::new(
            t,
            NodeId(((i + 2) % 5) as u16),
            AirlineTxn::MoveUp,
        ));
    }

    let report = cluster.run(invocations);
    println!(
        "ran {} transactions across 5 replicas",
        report.transactions.len()
    );
    println!("replicas converged: {}", report.mutually_consistent());

    // The simulator's behaviour is re-checked against the paper's formal
    // execution model — nothing is trusted.
    let te = report.timed_execution();
    te.execution
        .verify(&app)
        .expect("prefix-subsequence conditions hold");

    let final_state = te.execution.final_state(&app);
    println!("\nfinal state: {final_state}");
    println!(
        "costs: overbooking ${}, underbooking ${}",
        shard::core::Application::cost(&app, &final_state, OVERBOOKING),
        shard::core::Application::cost(&app, &final_state, UNDERBOOKING),
    );

    // How much information did transactions miss, and what did it cost?
    println!(
        "\nmissed-predecessor distribution: {}",
        completeness::missed_summary(&te.execution)
    );
    println!(
        "worst transient overbooking: ${}",
        trace::max_cost(&app, &te.execution, OVERBOOKING)
    );

    // Corollary 8: overbooking cost ≤ 900·k, with k measured from the run.
    let (k, check) = check_invariant_bound(
        &app,
        &te.execution,
        OVERBOOKING,
        &BoundFn::linear(900),
        |d| !app.is_statically_safe(d, OVERBOOKING),
    );
    println!("\nCorollary 8 with measured k = {k}: {check}");
    assert!(check.holds());

    // Every passenger who was told "you have a seat" appears in the
    // external-action log exactly when their MOVE-UP's decision ran.
    println!("\nexternal actions (notifications sent to passengers):");
    for (time, node, action) in report.external_actions() {
        println!("  t={time:<5} {node}: {action}");
    }
}
