//! Integration tests of node crash/recovery in the SHARD cluster — and,
//! since the kernel refactor, regression tests that *every* propagation
//! strategy applies the same crash gating (the pre-kernel gossip and
//! partial drivers executed client transactions at crashed nodes).

use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_apps::Person;
use shard_core::ObjectModel;
use shard_sim::{
    ClusterConfig, CrashSchedule, CrashWindow, DelayModel, Gossip, Invocation, NodeId, Placement,
    Runner,
};
use std::sync::Arc;

fn cfg(crashes: CrashSchedule) -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        seed: 1,
        delay: DelayModel::Fixed(10),
        crashes,
        ..Default::default()
    }
}

#[test]
fn crashed_nodes_reject_clients() {
    let app = FlyByNight::new(5);
    let crashes = CrashSchedule::new(vec![CrashWindow::new(NodeId(1), 50, 150)]);
    let cluster = Runner::eager(&app, cfg(crashes));
    let invs = vec![
        Invocation::new(10, NodeId(1), AirlineTxn::Request(Person(1))), // before: ok
        Invocation::new(100, NodeId(1), AirlineTxn::Request(Person(2))), // down: rejected
        Invocation::new(100, NodeId(0), AirlineTxn::Request(Person(3))), // other node: ok
        Invocation::new(200, NodeId(1), AirlineTxn::Request(Person(4))), // recovered: ok
    ];
    let report = cluster.run(invs);
    assert_eq!(report.rejected, vec![(100, NodeId(1))]);
    assert_eq!(report.transactions.len(), 3);
    let fin = &report.final_states[0];
    assert!(fin.is_waiting(Person(1)));
    assert!(
        !fin.is_known(Person(2)),
        "rejected transaction never entered"
    );
    assert!(fin.is_waiting(Person(3)));
    assert!(fin.is_waiting(Person(4)));
}

#[test]
fn messages_are_held_until_recovery_and_replicas_converge() {
    let app = FlyByNight::new(5);
    let crashes = CrashSchedule::new(vec![CrashWindow::new(NodeId(2), 0, 500)]);
    let cluster = Runner::eager(&app, cfg(crashes));
    let mut invs = Vec::new();
    for i in 1..=6u32 {
        invs.push(Invocation::new(
            i as u64 * 10,
            NodeId((i % 2) as u16),
            AirlineTxn::Request(Person(i)),
        ));
    }
    let report = cluster.run(invs);
    assert!(report.rejected.is_empty());
    // The crashed node received everything after recovery.
    assert!(report.mutually_consistent());
    let te = report.timed_execution();
    te.execution.verify(&app).unwrap();
}

#[test]
fn crash_during_barrier_defers_promises() {
    let app = FlyByNight::new(5);
    // Node 1 is down while the critical mover at node 0 probes.
    let crashes = CrashSchedule::new(vec![CrashWindow::new(NodeId(1), 0, 400)]);
    let cluster = Runner::eager(&app, cfg(crashes));
    let invs = vec![
        Invocation::new(5, NodeId(0), AirlineTxn::Request(Person(1))),
        Invocation::new(20, NodeId(0), AirlineTxn::MoveUp),
    ];
    let report = cluster.run_with_critical(invs, |d| matches!(d, AirlineTxn::MoveUp));
    assert_eq!(report.barrier_latencies.len(), 1);
    assert!(
        report.barrier_latencies[0] >= 380,
        "the barrier waited for node 1 to recover: {}",
        report.barrier_latencies[0]
    );
    assert!(report.final_states[0].is_assigned(Person(1)));
}

/// The schedule shared by the per-strategy rejection tests: node 1 is
/// down for `[50, 150)` and gets one invocation before, during, and
/// after the outage.
fn rejection_invocations() -> Vec<Invocation<AirlineTxn>> {
    vec![
        Invocation::new(10, NodeId(1), AirlineTxn::Request(Person(1))), // before: ok
        Invocation::new(100, NodeId(1), AirlineTxn::Request(Person(2))), // down: rejected
        Invocation::new(200, NodeId(1), AirlineTxn::Request(Person(3))), // recovered: ok
    ]
}

fn assert_rejects_like_broadcast(
    report: &shard_sim::RunReport<FlyByNight>,
    sink: &Arc<shard_obs::EventSink>,
) {
    assert_eq!(report.rejected, vec![(100, NodeId(1))]);
    assert_eq!(report.transactions.len(), 2);
    assert!(
        !report.final_states[0].is_known(Person(2)),
        "rejected transaction never entered"
    );
    assert!(report.final_states[0].is_waiting(Person(1)));
    assert!(report.final_states[0].is_waiting(Person(3)));
    let summary = shard_obs::summarize(&sink.drain_to_string());
    assert_eq!(
        summary.event_counts["reject"], 1,
        "the rejection is visible in the trace"
    );
    assert_eq!(summary.event_counts["execute"], 2);
}

#[test]
fn gossip_rejects_clients_at_crashed_nodes() {
    // Regression: the pre-kernel gossip driver executed this schedule's
    // t=100 invocation at the crashed node.
    let app = FlyByNight::new(5);
    let sink = shard_obs::EventSink::in_memory();
    let mut config = cfg(CrashSchedule::new(vec![CrashWindow::new(
        NodeId(1),
        50,
        150,
    )]));
    config.sink = Some(Arc::clone(&sink));
    let cluster = Runner::new(&app, config, Gossip::new(20, 1));
    let report = cluster.run(rejection_invocations());
    assert_rejects_like_broadcast(&report, &sink);
    assert!(report.mutually_consistent());
}

#[test]
fn partial_rejects_clients_at_crashed_nodes() {
    // Regression: ditto for the pre-kernel partial-replication driver.
    let app = FlyByNight::new(5);
    let sink = shard_obs::EventSink::in_memory();
    let mut config = cfg(CrashSchedule::new(vec![CrashWindow::new(
        NodeId(1),
        50,
        150,
    )]));
    config.sink = Some(Arc::clone(&sink));
    let cluster = Runner::new(&app, config, Placement::round_robin(3, &app.objects(), 3));
    let report = cluster.run(rejection_invocations());
    assert_rejects_like_broadcast(&report, &sink);
    assert!(report.mutually_consistent());
}

#[test]
fn no_crashes_is_the_default() {
    let app = FlyByNight::new(5);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 2,
            ..Default::default()
        },
    );
    let report = cluster.run(vec![Invocation::new(
        0,
        NodeId(0),
        AirlineTxn::Request(Person(1)),
    )]);
    assert!(report.rejected.is_empty());
}
