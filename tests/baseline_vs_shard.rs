//! Integration: the availability/integrity trade-off (§1.1) — the same
//! workload through the serializable baseline and the SHARD cluster.

use shard::apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
use shard::apps::Person;
use shard::baseline::{BaselineConfig, PrimaryCopy, TxnOutcome};
use shard::core::{conditions, Application};
use shard::sim::partition::{PartitionSchedule, PartitionWindow};
use shard::sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

fn contended_workload() -> Vec<Invocation<AirlineTxn>> {
    // Twelve passengers chase 5 seats from 4 nodes during a partition
    // that cuts nodes 2-3 off between t=50 and t=800.
    let mut invs = Vec::new();
    for i in 1..=12u32 {
        let t = 40 + i as u64 * 20;
        invs.push(Invocation::new(
            t,
            NodeId((i % 4) as u16),
            AirlineTxn::Request(Person(i)),
        ));
        invs.push(Invocation::new(
            t + 5,
            NodeId(((i + 1) % 4) as u16),
            AirlineTxn::MoveUp,
        ));
    }
    invs
}

fn partitions() -> PartitionSchedule {
    PartitionSchedule::new(vec![PartitionWindow::isolate(
        50,
        800,
        vec![NodeId(2), NodeId(3)],
    )])
}

#[test]
fn baseline_preserves_integrity_but_loses_availability() {
    let app = FlyByNight::new(5);
    let sys = PrimaryCopy::new(
        &app,
        BaselineConfig {
            nodes: 4,
            seed: 5,
            delay: DelayModel::Fixed(10),
            partitions: partitions(),
            request_ttl: 200,
        },
    );
    let report = sys.run(contended_workload());
    // Integrity: serializable — never overbooks, prefixes complete.
    report.execution.verify(&app).unwrap();
    assert_eq!(conditions::max_missed(&report.execution), 0);
    for s in report.execution.actual_states(&app) {
        assert_eq!(app.cost(&s, OVERBOOKING), 0);
    }
    // Availability: the cut-off nodes' clients timed out.
    assert!(report.availability() < 1.0, "partitioned clients blocked");
    let timeouts = report
        .outcomes
        .iter()
        .filter(|o| matches!(o, TxnOutcome::TimedOut))
        .count();
    assert!(timeouts > 0);
}

#[test]
fn shard_stays_available_and_pays_bounded_cost() {
    let app = FlyByNight::new(5);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 4,
            seed: 5,
            delay: DelayModel::Fixed(10),
            partitions: partitions(),
            ..Default::default()
        },
    );
    let invs = contended_workload();
    let n = invs.len();
    let report = cluster.run(invs);
    // Availability: every transaction executed locally, immediately.
    assert_eq!(report.transactions.len(), n);
    // Integrity: transient overbooking is possible but bounded by 900·k.
    let te = report.timed_execution();
    te.execution.verify(&app).unwrap();
    let (k, check) = shard::analysis::claims::check_invariant_bound(
        &app,
        &te.execution,
        OVERBOOKING,
        &shard::core::costs::BoundFn::linear(900),
        |d| !app.is_statically_safe(d, OVERBOOKING),
    );
    assert!(check.holds(), "k={k}: {check}");
    // And the network healed: replicas agree.
    assert!(report.mutually_consistent());
}

#[test]
fn without_partitions_both_systems_behave_well() {
    let app = FlyByNight::new(5);
    let invs = contended_workload();
    let sys = PrimaryCopy::new(
        &app,
        BaselineConfig {
            nodes: 4,
            seed: 5,
            delay: DelayModel::Fixed(10),
            partitions: PartitionSchedule::none(),
            request_ttl: 200,
        },
    );
    let breport = sys.run(invs.clone());
    assert!((breport.availability() - 1.0).abs() < 1e-9);

    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 4,
            seed: 5,
            delay: DelayModel::Fixed(10),
            ..Default::default()
        },
    );
    let sreport = cluster.run(invs);
    assert!(sreport.mutually_consistent());
    // Both fill the plane exactly in the calm case.
    assert_eq!(breport.execution.final_state(&app).al(), 5);
    assert_eq!(sreport.final_states[0].al(), 5);
}
