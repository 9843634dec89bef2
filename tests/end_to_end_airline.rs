//! End-to-end integration: simulated SHARD clusters running the airline,
//! with the full theorem battery applied to every emitted execution.

use shard::analysis::airline::check_theorem20;
use shard::analysis::claims::{check_invariant_bound, check_theorem5};
use shard::apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard::apps::Person;
use shard::core::costs::BoundFn;
use shard::core::{conditions, Application};
use shard::sim::partition::{PartitionSchedule, PartitionWindow};
use shard::sim::{ClusterConfig, DelayModel, Gossip, Invocation, NodeId, Runner};

fn booking_storm(seed: u64, n: u32, nodes: u16) -> Vec<Invocation<AirlineTxn>> {
    // Requests and move-ups interleaved tightly across all nodes.
    let mut invs = Vec::new();
    let mut t = 0;
    for i in 1..=n {
        t += 3;
        invs.push(Invocation::new(
            t,
            NodeId((i % nodes as u32) as u16),
            AirlineTxn::Request(Person(i)),
        ));
        t += 2;
        invs.push(Invocation::new(
            t,
            NodeId(((i * 7 + seed as u32) % nodes as u32) as u16),
            AirlineTxn::MoveUp,
        ));
    }
    invs
}

#[test]
fn every_simulated_execution_satisfies_the_formal_model() {
    let app = FlyByNight::new(20);
    for seed in [1u64, 2, 3] {
        for delay in [DelayModel::Fixed(5), DelayModel::Exponential { mean: 50 }] {
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay,
                    ..Default::default()
                },
            );
            let report = cluster.run(booking_storm(seed, 80, 4));
            assert!(report.mutually_consistent(), "seed {seed}, {delay:?}");
            let te = report.timed_execution();
            te.execution.verify(&app).expect("conditions (1)-(4)");
            // The merged final state equals the formal final state.
            assert_eq!(report.final_states[0], te.execution.final_state(&app));
        }
    }
}

#[test]
fn theorem_battery_on_partitioned_runs() {
    let app = FlyByNight::new(20);
    let f900 = BoundFn::linear(900);
    let f300 = BoundFn::linear(300);
    for seed in [5u64, 6] {
        let partitions = PartitionSchedule::new(vec![
            PartitionWindow::isolate(50, 300, vec![NodeId(0)]),
            PartitionWindow::isolate(350, 500, vec![NodeId(3)]),
        ]);
        let cluster = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 4,
                seed,
                delay: DelayModel::Exponential { mean: 25 },
                partitions,
                ..Default::default()
            },
        );
        let report = cluster.run(booking_storm(seed, 120, 4));
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();

        let t5_over = check_theorem5(&app, &te.execution, OVERBOOKING, &f900, |_| true);
        assert!(t5_over.holds(), "{t5_over}");
        let t5_under = check_theorem5(&app, &te.execution, UNDERBOOKING, &f300, |d| {
            matches!(d, AirlineTxn::MoveUp | AirlineTxn::MoveDown)
        });
        assert!(t5_under.holds(), "{t5_under}");
        let (_, c8) = check_invariant_bound(&app, &te.execution, OVERBOOKING, &f900, |d| {
            matches!(d, AirlineTxn::MoveUp)
        });
        assert!(c8.holds(), "{c8}");
        let t20 = check_theorem20(&app, &te.execution);
        assert!(t20.holds(), "{t20}");
    }
}

#[test]
fn centralized_movers_with_piggyback_never_overbook() {
    // Theorem 22/23 hypotheses realized by routing + piggybacking what
    // each peer lacks (a gossip round at each execution).
    let app = FlyByNight::new(10);
    for seed in [9u64, 10] {
        let cluster = Runner::new(
            &app,
            ClusterConfig {
                nodes: 3,
                seed,
                delay: DelayModel::Exponential { mean: 60 },
                ..Default::default()
            },
            Gossip::new(0, 2),
        );
        // All MOVE-UPs at node 0; one request per person.
        let mut invs = Vec::new();
        let mut t = 0;
        for i in 1..=40u32 {
            t += 4;
            invs.push(Invocation::new(
                t,
                NodeId((i % 3) as u16),
                AirlineTxn::Request(Person(i)),
            ));
            t += 3;
            invs.push(Invocation::new(t, NodeId(0), AirlineTxn::MoveUp));
        }
        let report = cluster.run(invs);
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
        assert!(conditions::is_transitive(&te.execution));
        for s in te.execution.actual_states(&app) {
            assert_eq!(app.cost(&s, OVERBOOKING), 0, "Theorem 23: never overbooked");
        }
    }
}

#[test]
fn external_actions_fire_once_at_origin_despite_redo() {
    // The decision/update split in action: P assigned exactly once even
    // though the update is re-merged at every node.
    let app = FlyByNight::new(5);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 4,
            seed: 11,
            delay: DelayModel::Uniform { lo: 1, hi: 100 },
            ..Default::default()
        },
    );
    let invs = vec![
        Invocation::new(0, NodeId(0), AirlineTxn::Request(Person(1))),
        Invocation::new(50, NodeId(1), AirlineTxn::MoveUp),
    ];
    let report = cluster.run(invs);
    let assigns = report
        .external_actions
        .iter()
        .filter(|(_, _, a)| a.kind == "assign-seat")
        .count();
    // At most one node saw the request by t=50; exactly the origin of
    // the MOVE-UP decision triggers the notification — and only once.
    assert!(assigns <= 1);
    // Undo/redo happened at some node (out-of-order arrivals), but no
    // extra notifications were produced.
    assert!(report.mutually_consistent());
}

#[test]
fn deterministic_reports_per_seed() {
    let app = FlyByNight::new(20);
    let run = |seed: u64| {
        let cluster = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 4,
                seed,
                delay: DelayModel::Exponential { mean: 30 },
                ..Default::default()
            },
        );
        let r = cluster.run(booking_storm(seed, 60, 4));
        (r.final_states.clone(), r.external_actions.clone())
    };
    assert_eq!(run(21).0, run(21).0);
    assert_eq!(run(21).1, run(21).1);
}
