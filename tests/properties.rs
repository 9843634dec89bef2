//! Property-based integration tests: randomized workloads, delays and
//! partitions; the paper's invariants must hold on *every* generated
//! execution.

use proptest::prelude::*;
use shard::analysis::airline::check_theorem20;
use shard::analysis::claims::{check_invariant_bound, check_theorem5};
use shard::apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard::apps::Person;
use shard::core::costs::BoundFn;
use shard::core::{conditions, Application};
use shard::sim::partition::{PartitionSchedule, PartitionWindow};
use shard::sim::{ClusterConfig, DelayModel, Gossip, Invocation, NodeId, Runner};

/// Strategy: a random airline transaction over a small person pool.
fn txn_strategy() -> impl Strategy<Value = AirlineTxn> {
    prop_oneof![
        (1u32..20).prop_map(|p| AirlineTxn::Request(Person(p))),
        (1u32..20).prop_map(|p| AirlineTxn::Cancel(Person(p))),
        Just(AirlineTxn::MoveUp),
        Just(AirlineTxn::MoveDown),
    ]
}

fn invocations_strategy() -> impl Strategy<Value = Vec<Invocation<AirlineTxn>>> {
    proptest::collection::vec((txn_strategy(), 0u64..500, 0u16..4), 1..80).prop_map(|v| {
        let mut invs: Vec<Invocation<AirlineTxn>> = v
            .into_iter()
            .map(|(txn, t, n)| Invocation::new(t, NodeId(n), txn))
            .collect();
        invs.sort_by_key(|i| i.time);
        invs
    })
}

fn partition_strategy() -> impl Strategy<Value = PartitionSchedule> {
    prop_oneof![
        Just(PartitionSchedule::none()),
        (0u64..300, 1u64..500, 0u16..4).prop_map(|(start, len, node)| {
            PartitionSchedule::new(vec![PartitionWindow::isolate(
                start,
                start + len,
                vec![NodeId(node)],
            )])
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulator always emits executions satisfying the formal
    /// prefix-subsequence conditions, and all replicas converge.
    #[test]
    fn simulator_emits_valid_executions(
        invs in invocations_strategy(),
        seed in 0u64..1000,
        partitions in partition_strategy(),
        mean in 1u64..200,
    ) {
        let app = FlyByNight::new(5);
        let cluster = Runner::eager(&app, ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Exponential { mean },
            partitions,
            ..Default::default()
        });
        let report = cluster.run(invs);
        prop_assert!(report.mutually_consistent());
        let te = report.timed_execution();
        prop_assert!(te.execution.verify(&app).is_ok());
        prop_assert_eq!(&report.final_states[0], &te.execution.final_state(&app));
    }

    /// The cost theorems hold on every randomized execution.
    #[test]
    fn cost_bounds_hold_on_random_executions(
        invs in invocations_strategy(),
        seed in 0u64..1000,
    ) {
        let app = FlyByNight::new(5);
        let cluster = Runner::eager(&app, ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Uniform { lo: 1, hi: 150 },
            ..Default::default()
        });
        let te = cluster.run(invs).timed_execution();
        let f900 = BoundFn::linear(900);
        let f300 = BoundFn::linear(300);
        prop_assert!(check_theorem5(&app, &te.execution, OVERBOOKING, &f900, |d| app.preserves(d, OVERBOOKING)).holds());
        prop_assert!(check_theorem5(&app, &te.execution, UNDERBOOKING, &f300,
            |d| app.preserves(d, UNDERBOOKING)).holds());
        let (_, c8) = check_invariant_bound(&app, &te.execution, OVERBOOKING, &f900,
            |d| !app.is_statically_safe(d, OVERBOOKING));
        prop_assert!(c8.holds());
        prop_assert!(check_theorem20(&app, &te.execution).holds());
    }

    /// Piggybacking what a peer lacks — a gossip round at each
    /// execution — always yields transitive executions.
    #[test]
    fn piggyback_guarantees_transitivity(
        invs in invocations_strategy(),
        seed in 0u64..1000,
    ) {
        let app = FlyByNight::new(5);
        let cluster = Runner::new(&app, ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Exponential { mean: 80 },
            ..Default::default()
        }, Gossip::new(0, 3));
        let te = cluster.run(invs).timed_execution();
        prop_assert!(conditions::is_transitive(&te.execution));
    }

    /// Well-formedness is preserved in every reachable *and* apparent
    /// state of every randomized execution.
    #[test]
    fn well_formedness_everywhere(
        invs in invocations_strategy(),
        seed in 0u64..1000,
    ) {
        let app = FlyByNight::new(5);
        let cluster = Runner::eager(&app, ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Uniform { lo: 1, hi: 80 },
            ..Default::default()
        });
        let te = cluster.run(invs).timed_execution();
        for s in te.execution.actual_states(&app) {
            prop_assert!(app.is_well_formed(&s));
        }
        for i in 0..te.execution.len() {
            prop_assert!(app.is_well_formed(&te.execution.apparent_state_before(&app, i)));
        }
    }
}
