//! Moderate-scale end-to-end stress: the full pipeline — workload →
//! simulator (partitions + crashes + piggybacking) → formal execution →
//! verification → theorem battery — on a few thousand transactions.

use shard::analysis::claims::{check_invariant_bound, check_theorem5};
use shard::analysis::{completeness, trace};
use shard::apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard::apps::Person;
use shard::core::conditions;
use shard::core::costs::BoundFn;
use shard::sim::partition::{PartitionSchedule, PartitionWindow};
use shard::sim::{
    ClusterConfig, CrashSchedule, CrashWindow, DelayModel, Invocation, NodeId, Runner,
};

fn big_workload(seed: u64, n: u32, nodes: u16) -> Vec<Invocation<AirlineTxn>> {
    // Deterministic mixed workload without pulling rand into this test:
    // a simple LCG drives the mix.
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut invs = Vec::with_capacity(n as usize);
    let mut t = 0u64;
    let mut persons = 0u32;
    for _ in 0..n {
        t += u64::from(next() % 7) + 1;
        let node = NodeId((next() % u32::from(nodes)) as u16);
        let txn = match next() % 10 {
            0..=3 => {
                persons += 1;
                AirlineTxn::Request(Person(persons))
            }
            4 => AirlineTxn::Cancel(Person(next() % persons.max(1) + 1)),
            5..=8 => AirlineTxn::MoveUp,
            _ => AirlineTxn::MoveDown,
        };
        invs.push(Invocation::new(t, node, txn));
    }
    invs
}

#[test]
fn three_thousand_transactions_survive_the_battery() {
    let app = FlyByNight::new(60);
    let partitions = PartitionSchedule::new(vec![
        PartitionWindow::isolate(2_000, 6_000, vec![NodeId(0), NodeId(1)]),
        PartitionWindow::isolate(9_000, 12_000, vec![NodeId(5)]),
    ]);
    let crashes = CrashSchedule::new(vec![CrashWindow::new(NodeId(3), 4_000, 7_000)]);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 6,
            seed: 2026,
            delay: DelayModel::Exponential { mean: 35 },
            partitions,
            crashes,
            checkpoint_every: 32,
            ..ClusterConfig::default()
        },
    );
    let invs = big_workload(7, 3_000, 6);
    let n = invs.len();
    let report = cluster.run(invs);

    // Everything not rejected executed; replicas converged.
    assert_eq!(report.transactions.len() + report.rejected.len(), n);
    assert!(report.mutually_consistent());

    // The emitted execution is a valid formal object.
    let te = report.timed_execution();
    te.execution
        .verify(&app)
        .expect("conditions (1)-(4) at scale");
    assert_eq!(report.final_states[0], te.execution.final_state(&app));

    // Theorems hold with k measured from the run.
    let f900 = BoundFn::linear(900);
    let f300 = BoundFn::linear(300);
    let (k, c8) = check_invariant_bound(&app, &te.execution, OVERBOOKING, &f900, |d| {
        !app.is_statically_safe(d, OVERBOOKING)
    });
    assert!(c8.holds(), "k={k}: {c8}");
    assert!(
        check_theorem5(&app, &te.execution, OVERBOOKING, &f900, |d| app
            .preserves(d, OVERBOOKING))
        .holds()
    );
    assert!(
        check_theorem5(&app, &te.execution, UNDERBOOKING, &f300, |d| app
            .preserves(d, UNDERBOOKING))
        .holds()
    );

    // The partition actually disturbed information flow (the run is not
    // vacuously serial)…
    assert!(conditions::max_missed(&te.execution) > 0);
    let summary = completeness::missed_summary(&te.execution);
    assert!(summary.max > 10, "partitions inflate k: {summary}");
    // …and undo/redo actually happened.
    assert!(report.total_replayed() > 0);
    // Costs stayed within the measured envelope throughout.
    assert!(trace::max_cost(&app, &te.execution, OVERBOOKING) <= 900 * k as u64);
}
