//! A flight gets overbooked during a network partition — and the
//! compensating MOVE-DOWN repairs it after the network heals, exactly
//! the life cycle §1.2 of the paper narrates.
//!
//! ```sh
//! cargo run --example airline_partition
//! ```

use shard::analysis::airline::{all_external_actions, notification_churn};
use shard::analysis::trace;
use shard::apps::airline::{AirlineTxn, FlyByNight, ACTION_WAITLIST, OVERBOOKING};
use shard::apps::Person;
use shard::core::Application;
use shard::sim::partition::{PartitionSchedule, PartitionWindow};
use shard::sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

fn main() {
    // A 3-seat commuter flight sold from two ticket offices (nodes 0
    // and 1) that lose their link between t=100 and t=600.
    let app = FlyByNight::new(3);
    let partitions =
        PartitionSchedule::new(vec![PartitionWindow::isolate(100, 600, vec![NodeId(1)])]);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 2,
            seed: 1,
            delay: DelayModel::Fixed(10),
            partitions,
            ..Default::default()
        },
    );

    let mut invs = Vec::new();
    // Before the partition: P1 books through office 0.
    invs.push(Invocation::new(
        10,
        NodeId(0),
        AirlineTxn::Request(Person(1)),
    ));
    invs.push(Invocation::new(20, NodeId(0), AirlineTxn::MoveUp));
    // During the partition both offices keep selling the "remaining"
    // two seats — to different passengers.
    for (t, node, p) in [(150, 0, 2), (160, 0, 3), (200, 1, 4), (210, 1, 5)] {
        invs.push(Invocation::new(
            t,
            NodeId(node),
            AirlineTxn::Request(Person(p)),
        ));
        invs.push(Invocation::new(t + 5, NodeId(node), AirlineTxn::MoveUp));
    }
    // After healing, the agent at office 0 audits the flight and bumps
    // the overbooked passengers.
    for t in [700, 720, 740] {
        invs.push(Invocation::new(t, NodeId(0), AirlineTxn::MoveDown));
    }

    let report = cluster.run(invs);
    let te = report.timed_execution();
    te.execution.verify(&app).expect("valid execution");
    assert!(report.mutually_consistent(), "offices agree after healing");

    println!("timeline of passenger notifications:");
    for (time, node, action) in report.external_actions() {
        let phase = match time {
            t if t < 100 => "pre-partition ",
            t if t < 600 => "PARTITIONED   ",
            _ => "healed        ",
        };
        println!("  t={time:<4} {phase} office {node}: {action}");
    }

    let over = trace::cost_trace(&app, &te.execution, OVERBOOKING);
    let peak = over.iter().max().copied().unwrap_or(0);
    println!("\npeak overbooking cost during the run: ${peak}");
    assert!(peak > 0, "the partition double-sold seats");

    let final_state = te.execution.final_state(&app);
    println!("final state: {final_state}");
    assert_eq!(
        app.cost(&final_state, OVERBOOKING),
        0,
        "MOVE-DOWNs repaired the flight"
    );

    let churn = notification_churn(&all_external_actions(&te.execution));
    println!(
        "passengers who received conflicting notifications (churn): {churn} — \
         the real-world price of availability"
    );
    let rescinds = report
        .external_actions()
        .iter()
        .filter(|(_, _, a)| a.kind == ACTION_WAITLIST)
        .count();
    println!("seats rescinded after the fact: {rescinds}");
}
