//! The simulated SHARD cluster (§1.2, §3.3): eager broadcast.
//!
//! [`Runner::eager`] runs a schedule of client [`Invocation`]s against
//! `n` fully replicated nodes:
//!
//! 1. the origin node assigns a Lamport timestamp, runs the **decision
//!    part once** against its local merged state, performs the external
//!    actions, and merges its own update;
//! 2. the update (never the decision) is broadcast to every peer,
//!    arriving after partition holds plus network delay;
//! 3. receiving nodes merge it by timestamp, undoing and redoing as
//!    needed ([`crate::merge`]).
//!
//! The run produces a [`RunReport`] whose centrepiece is a formal
//! [`shard_core::TimedExecution`]: the global timestamp order of the
//! transactions, each with the prefix subsequence its origin node
//! actually knew at decision time. [`shard_core::Execution::verify`]
//! re-checks that the simulator behaved exactly as the paper's model
//! prescribes, and [`RunReport::mutually_consistent`] checks that, once
//! every message has drained, all node copies agree — the
//! mutual-consistency guarantee of §1.2.
//!
//! The event loop lives in [`crate::kernel`]; this module contributes
//! the [`EagerBroadcast`] propagation strategy (the default
//! [`Propagation::on_execute`] flood, every peer wanting every update)
//! and the [`Runner::eager`] constructor. Transitive executions (§3.3)
//! come from the gossip strategy's round at each execution instead,
//! [`crate::Gossip::new`]`(0, nodes − 1)`: the same flood, each message
//! also carrying what its sender knew that the peer had not been offered.
//!
//! [`RunReport`]: crate::RunReport
//! [`RunReport::mutually_consistent`]: crate::RunReport::mutually_consistent

use crate::kernel::{Propagation, Runner};
use shard_core::Application;

pub use crate::kernel::{ClusterConfig, ExecutedTxn, Invocation};

/// Flooding propagation: the moment a transaction executes, its update
/// — and nothing else — is sent to every peer as a datagram, timed on
/// its own: [`Propagation`]'s defaults, over numbered links
/// ([`Propagation::numbered_links`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EagerBroadcast {
    /// Must stay `false` ([`Propagation::validate`] refuses `true`).
    /// Kept only because the frozen benchmark writes `piggyback: false`.
    #[doc(hidden)]
    pub piggyback: bool,
}

impl<A: Application> Propagation<A> for EagerBroadcast {
    fn label(&self) -> &'static str {
        "cluster"
    }

    /// The default flood: each message is one own update, in execution
    /// order.
    fn numbered_links(&self) -> bool {
        true
    }

    fn validate(&self, _app: &A, _nodes: u16, _invocations: &[Invocation<A::Decision>]) {
        assert!(
            !self.piggyback,
            "whole-log piggybacking was removed: for transitive executions run \
             `Gossip::new(0, nodes - 1)`, a cursor round at each execution"
        );
    }
}

impl<'a, A: Application> Runner<'a, A, EagerBroadcast> {
    /// An eager-broadcast (flooding) runner over `config.nodes` replicas
    /// of `app`.
    ///
    /// # Examples
    ///
    /// ```
    /// use shard_apps::airline::{AirlineTxn, FlyByNight};
    /// use shard_apps::Person;
    /// use shard_sim::{ClusterConfig, Invocation, NodeId, Runner};
    ///
    /// let app = FlyByNight::new(3);
    /// let report = Runner::eager(&app, ClusterConfig::default()).run(vec![
    ///     Invocation::new(0, NodeId(0), AirlineTxn::Request(Person(1))),
    ///     Invocation::new(9, NodeId(4), AirlineTxn::MoveUp),
    /// ]);
    /// assert!(report.mutually_consistent());
    /// report.timed_execution().execution.verify(&app).unwrap();
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero nodes; the run panics at
    /// start if `config.piggyback` is set ([`EagerBroadcast`] refuses it).
    pub fn eager(app: &'a A, config: ClusterConfig) -> Self {
        let piggyback = config.piggyback;
        Runner::new(app, config, EagerBroadcast { piggyback })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{PartitionSchedule, PartitionWindow};
    use crate::{delay::DelayModel, events::SimTime, NodeId};
    use shard_core::{conditions, DecisionOutcome};
    use std::sync::Arc;

    /// Grow-only counter with a cap-aware decision, to make missing
    /// information observable.
    struct Counter;

    #[derive(Clone, Debug, PartialEq)]
    enum CUpd {
        Inc,
        Noop,
    }

    impl Application for Counter {
        type State = i64;
        type Update = CUpd;
        type Decision = ();
        fn initial_state(&self) -> i64 {
            0
        }
        fn is_well_formed(&self, _: &i64) -> bool {
            true
        }
        fn apply_in_place(&self, s: &mut i64, u: &CUpd) {
            if let CUpd::Inc = u {
                *s += 1;
            }
        }
        fn decide(&self, _: &(), observed: &i64) -> DecisionOutcome<CUpd> {
            if *observed < 3 {
                DecisionOutcome::update_only(CUpd::Inc)
            } else {
                DecisionOutcome::update_only(CUpd::Noop)
            }
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &i64, _: usize) -> u64 {
            0
        }
    }

    fn spread_invocations(n: usize, nodes: u16, gap: SimTime) -> Vec<Invocation<()>> {
        (0..n)
            .map(|i| Invocation::new(i as SimTime * gap, NodeId((i % nodes as usize) as u16), ()))
            .collect()
    }

    #[test]
    fn single_node_behaves_serially() {
        let app = Counter;
        let runner = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 1,
                ..Default::default()
            },
        );
        let report = runner.run(spread_invocations(10, 1, 5));
        assert_eq!(report.final_states[0], 3, "cap respected with full info");
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
        assert_eq!(conditions::max_missed(&te.execution), 0);
        assert!(te.is_orderly());
    }

    #[test]
    fn replicas_converge_and_execution_verifies() {
        let app = Counter;
        let runner = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 4,
                seed: 7,
                ..Default::default()
            },
        );
        let report = runner.run(spread_invocations(40, 4, 3));
        assert!(report.mutually_consistent());
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
        assert_eq!(te.execution.len(), 40);
        // The merged result equals the formal execution's final state.
        assert_eq!(report.final_states[0], te.execution.final_state(&app));
    }

    #[test]
    fn concurrent_invocations_overshoot_the_cap() {
        // All 10 transactions fire at t=0 on different nodes: nobody has
        // seen anybody, so all increment — exactly the availability
        // penalty the paper studies.
        let app = Counter;
        let runner = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 5,
                seed: 1,
                ..Default::default()
            },
        );
        let invs: Vec<_> = (0..10)
            .map(|i| Invocation::new(0, NodeId(i % 5), ()))
            .collect();
        let report = runner.run(invs);
        assert!(report.final_states[0] > 3);
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
        assert!(conditions::max_missed(&te.execution) > 0);
    }

    #[test]
    fn partition_delays_information_but_heals() {
        let app = Counter;
        let partitions =
            PartitionSchedule::new(vec![PartitionWindow::isolate(0, 1000, vec![NodeId(0)])]);
        let runner = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 3,
                seed: 3,
                delay: DelayModel::Fixed(5),
                partitions,
                ..Default::default()
            },
        );
        // Node 0 is isolated; its transactions see only themselves.
        let report = runner.run(spread_invocations(12, 3, 10));
        assert!(report.mutually_consistent(), "heals after the window");
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
        assert!(conditions::max_missed(&te.execution) > 0);
    }

    #[test]
    #[should_panic(expected = "run `Gossip::new(0, nodes - 1)`")]
    fn piggybacking_strategy_is_refused_at_run_start() {
        let strategy = EagerBroadcast { piggyback: true };
        let runner = Runner::new(&Counter, ClusterConfig::default(), strategy);
        let _ = runner.run(spread_invocations(3, 5, 2));
    }

    #[test]
    #[should_panic(expected = "run `Gossip::new(0, nodes - 1)`")]
    fn piggybacking_config_is_refused_at_run_start() {
        let config = ClusterConfig {
            piggyback: true,
            ..Default::default()
        };
        let _ = Runner::eager(&Counter, config).run(Vec::new());
    }

    /// An update merged from a peer travels on only with the merging
    /// node's next execution, so at interval 0 a random partner per
    /// round could leave a run quiet but unconverged.
    #[test]
    #[should_panic(expected = "must serve every peer: run `Gossip::new(0, nodes - 1)`")]
    fn gossip_at_each_execution_below_full_fanout_is_refused() {
        let runner = Runner::new(&Counter, ClusterConfig::default(), crate::Gossip::new(0, 1));
        let _ = runner.run(spread_invocations(3, 5, 2));
    }

    #[test]
    fn same_node_transactions_are_centralized() {
        // Transactions initiated at one node always see each other —
        // the implementation of centralization suggested in §3.3.
        let app = Counter;
        let runner = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 3,
                seed: 5,
                ..Default::default()
            },
        );
        let mut invs = spread_invocations(30, 3, 4);
        // Mark: transactions at node 0.
        let report = runner.run(std::mem::take(&mut invs));
        let te = report.timed_execution();
        let node0_group: Vec<usize> = report
            .transactions
            .iter()
            .enumerate()
            .filter(|(_, t)| t.node == NodeId(0))
            .map(|(i, _)| i)
            .collect();
        assert!(conditions::is_centralized(&te.execution, &node0_group));
    }

    #[test]
    fn out_of_order_arrivals_cause_replays() {
        let app = Counter;
        let runner = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 4,
                seed: 2,
                delay: DelayModel::Uniform { lo: 1, hi: 200 },
                ..Default::default()
            },
        );
        let report = runner.run(spread_invocations(100, 4, 1));
        assert!(
            report.total_replayed() > 0,
            "high-variance delays reorder messages"
        );
        assert!(report.mutually_consistent());
    }

    #[test]
    fn sink_captures_structured_events_matching_the_report() {
        let app = Counter;
        let sink = shard_obs::EventSink::in_memory();
        let partitions =
            PartitionSchedule::new(vec![PartitionWindow::isolate(0, 300, vec![NodeId(0)])]);
        let runner = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 3,
                seed: 2,
                delay: DelayModel::Uniform { lo: 1, hi: 200 },
                partitions,
                sink: Some(Arc::clone(&sink)),
                ..Default::default()
            },
        );
        let report = runner.run(spread_invocations(30, 3, 2));
        let summary = shard_obs::summarize(&sink.drain_to_string());
        assert_eq!(summary.malformed, 0, "every line is valid JSON");
        assert_eq!(summary.event_counts["execute"], 30);
        assert_eq!(summary.event_counts["deliver"], report.messages_sent);
        assert_eq!(summary.event_counts["partition.cut"], 1);
        assert_eq!(summary.event_counts["partition.heal"], 1);
        // The per-node undo/redo distribution reconstructed from the
        // trace equals the report's merge metrics exactly.
        let ooo: u64 = report.node_metrics.iter().map(|m| m.out_of_order).sum();
        assert_eq!(
            summary
                .event_counts
                .get("merge.out_of_order")
                .copied()
                .unwrap_or(0),
            ooo
        );
        let traced_replayed: u64 = summary.node_replay.values().map(|r| r.replayed).sum();
        assert_eq!(traced_replayed, report.total_replayed());
        assert!(
            summary.spans.contains_key("sim.cluster.run"),
            "run emits its wall-time span line"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let app = Counter;
        let run = |seed| {
            let runner = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 3,
                    seed,
                    ..Default::default()
                },
            );
            runner.run(spread_invocations(25, 3, 2)).final_states
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Runner::eager(
            &Counter,
            ClusterConfig {
                nodes: 0,
                ..Default::default()
            },
        );
    }
}
