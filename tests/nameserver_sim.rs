//! Cross-crate integration: the Grapevine-style name server on the
//! simulator — the dangling-member anomaly appears under delay and the
//! scavenger repairs it.

use shard::apps::nameserver::{GroupId, Name, NameServer, NsTxn};
use shard::core::Application;
use shard::sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

#[test]
fn racing_deregistration_dangles_then_scavenges() {
    let app = NameServer::new(1, 25);
    let g = GroupId(0);
    let alice = Name(1);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 2,
            seed: 1,
            delay: DelayModel::Fixed(100),
            ..Default::default()
        },
    );
    let invs = vec![
        Invocation::new(0, NodeId(0), NsTxn::Register(alice, 7)),
        // Both nodes know the registration by t=150.
        Invocation::new(200, NodeId(0), NsTxn::AddMember(g, alice)),
        // Node 1 deregisters concurrently — it cannot see the add yet.
        Invocation::new(210, NodeId(1), NsTxn::Deregister(alice)),
        // Much later, the janitor scavenges with full information.
        Invocation::new(1_000, NodeId(0), NsTxn::Scavenge(g)),
    ];
    let report = cluster.run(invs);
    assert!(report.mutually_consistent());
    let te = report.timed_execution();
    te.execution.verify(&app).unwrap();

    // The anomaly existed mid-run…
    let states = te.execution.actual_states(&app);
    let worst = states.iter().map(|s| app.cost(s, 0)).max().unwrap();
    assert_eq!(worst, 25, "one dangling member at $25");
    // …and the scavenger repaired it.
    let fin = te.execution.final_state(&app);
    assert_eq!(app.cost(&fin, 0), 0);
    assert!(fin.members(g).is_empty());
    // The scavenger's external notice went out exactly once.
    let scavenges = report
        .external_actions()
        .iter()
        .filter(|(_, _, a)| a.kind == "scavenged")
        .count();
    assert_eq!(scavenges, 1);
}

#[test]
fn lookups_route_messages_by_observed_bindings() {
    let app = NameServer::new(1, 25);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 2,
            seed: 2,
            delay: DelayModel::Fixed(50),
            ..Default::default()
        },
    );
    let invs = vec![
        Invocation::new(0, NodeId(0), NsTxn::Register(Name(1), 7)),
        // A lookup at node 1 before the registration propagates.
        Invocation::new(10, NodeId(1), NsTxn::Lookup(Name(1))),
        // And after.
        Invocation::new(200, NodeId(1), NsTxn::Lookup(Name(1))),
    ];
    let report = cluster.run(invs);
    let lookups: Vec<&str> = report
        .external_actions()
        .into_iter()
        .filter(|(_, _, a)| a.kind == "lookup-result")
        .map(|(_, _, a)| a.subject.as_str())
        .collect();
    assert_eq!(lookups, vec!["N1@∅", "N1@7"]);
}
