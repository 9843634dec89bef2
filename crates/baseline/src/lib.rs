//! # shard-baseline — the serializable comparator
//!
//! §1.1 of the paper diagnoses why classical distributed-database
//! techniques were not adopted by airlines and banks: "the mechanisms
//! developed in research guarantee preservation of integrity constraints,
//! but they are inadequate for meeting stringent response time and
//! availability requirements … an unavoidable result of strong
//! requirements for synchronization among remote nodes."
//!
//! This crate implements that other side of the trade-off: a
//! **primary-copy serializable** replicated database. Every transaction
//! is forwarded to the primary node, executed there atomically against
//! the *current* state (decision and update together — full
//! serializability, so integrity constraints are preserved whenever the
//! transactions preserve them in the classical sense), and acknowledged
//! back to the client. During a network partition, clients severed from
//! the primary simply wait; requests outliving their time-to-live are
//! aborted. Experiment E09 sweeps partition rates and compares
//! availability and latency against the SHARD cluster, and the
//! integrity-violation costs SHARD pays in exchange.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use shard_core::{Application, Execution, ExternalAction};
use shard_sim::broadcast::delivery_time;
use shard_sim::events::{EventQueue, SimTime};
use shard_sim::{DelayModel, Invocation, NodeId, PartitionSchedule};

/// Configuration of the primary-copy system.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// Number of nodes; node 0 is the primary.
    pub nodes: u16,
    /// RNG seed for delay sampling.
    pub seed: u64,
    /// Message delay model (one hop per direction).
    pub delay: DelayModel,
    /// Partition schedule shared with the SHARD run being compared.
    pub partitions: PartitionSchedule,
    /// A request older than this on arrival (or a reply arriving past
    /// it) counts the transaction as timed out — the availability
    /// failure mode.
    pub request_ttl: SimTime,
}

impl Default for BaselineConfig {
    /// Five nodes, 20-tick mean delays, 500-tick TTL.
    fn default() -> Self {
        BaselineConfig {
            nodes: 5,
            seed: 0,
            delay: DelayModel::Exponential { mean: 20 },
            partitions: PartitionSchedule::none(),
            request_ttl: 500,
        }
    }
}

/// How one submission fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Executed at the primary and acknowledged within the TTL.
    Committed {
        /// Submission-to-acknowledgement latency in ticks.
        latency: SimTime,
    },
    /// Not acknowledged within the TTL (request or reply stuck behind a
    /// partition, or the request expired before reaching the primary).
    TimedOut,
}

impl TxnOutcome {
    /// Whether the transaction committed in time.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }
}

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineReport<A: Application> {
    /// Outcome per submitted transaction, in submission order.
    pub outcomes: Vec<TxnOutcome>,
    /// The serializable execution the primary produced (every prefix
    /// complete).
    pub execution: Execution<A>,
    /// External actions performed (at the primary), with times.
    pub external_actions: Vec<(SimTime, ExternalAction)>,
    /// The primary's final state.
    pub final_state: A::State,
}

impl<A: Application> BaselineReport<A> {
    /// Fraction of submissions committed within the TTL.
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.outcomes.iter().filter(|o| o.is_committed()).count() as f64
            / self.outcomes.len() as f64
    }

    /// Latencies of the committed transactions.
    pub fn commit_latencies(&self) -> Vec<SimTime> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                TxnOutcome::Committed { latency } => Some(*latency),
                TxnOutcome::TimedOut => None,
            })
            .collect()
    }

    /// Mean commit latency (`None` if nothing committed).
    pub fn mean_latency(&self) -> Option<f64> {
        let l = self.commit_latencies();
        if l.is_empty() {
            None
        } else {
            Some(l.iter().sum::<SimTime>() as f64 / l.len() as f64)
        }
    }
}

enum Event<D> {
    RequestArrive {
        submitted: SimTime,
        origin: NodeId,
        id: usize,
        decision: D,
    },
    ReplyArrive {
        submitted: SimTime,
        id: usize,
    },
}

/// The primary-copy serializable system.
///
/// # Examples
///
/// ```
/// use shard_apps::airline::{AirlineTxn, FlyByNight};
/// use shard_apps::Person;
/// use shard_baseline::{BaselineConfig, PrimaryCopy};
/// use shard_sim::{Invocation, NodeId};
///
/// let app = FlyByNight::new(3);
/// let sys = PrimaryCopy::new(&app, BaselineConfig::default());
/// let report = sys.run(vec![
///     Invocation::new(0, NodeId(1), AirlineTxn::Request(Person(1))),
/// ]);
/// assert!((report.availability() - 1.0).abs() < 1e-9);
/// ```
pub struct PrimaryCopy<'a, A: Application> {
    app: &'a A,
    config: BaselineConfig,
}

impl<'a, A: Application> PrimaryCopy<'a, A> {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero nodes.
    pub fn new(app: &'a A, config: BaselineConfig) -> Self {
        assert!(config.nodes > 0, "need at least the primary");
        PrimaryCopy { app, config }
    }

    /// Runs a schedule of submissions and reports.
    ///
    /// # Panics
    ///
    /// Panics if an invocation names a node outside the cluster.
    pub fn run(&self, invocations: Vec<Invocation<A::Decision>>) -> BaselineReport<A> {
        let app = self.app;
        let cfg = &self.config;
        let primary = NodeId(0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut queue: EventQueue<Event<A::Decision>> = EventQueue::new();
        let mut outcomes = vec![TxnOutcome::TimedOut; invocations.len()];
        let mut state = app.initial_state();
        let mut execution: Execution<A> = Execution::new();
        let mut external_actions: Vec<(SimTime, ExternalAction)> = Vec::new();

        queue.schedule_all(invocations.into_iter().enumerate().map(|(id, inv)| {
            assert!(
                (inv.node.0) < cfg.nodes,
                "invocation at unknown node {}",
                inv.node
            );
            let arrive = if inv.node == primary {
                inv.time
            } else {
                delivery_time(
                    &cfg.partitions,
                    &cfg.delay,
                    &mut rng,
                    inv.time,
                    inv.node,
                    primary,
                )
            };
            let event = Event::RequestArrive {
                submitted: inv.time,
                origin: inv.node,
                id,
                decision: inv.decision,
            };
            (arrive, event)
        }));

        while let Some((now, event)) = queue.pop() {
            match event {
                Event::RequestArrive {
                    submitted,
                    origin,
                    id,
                    decision,
                } => {
                    if now - submitted > cfg.request_ttl {
                        continue; // expired in flight: aborted
                    }
                    // Execute atomically at the primary: the decision
                    // sees the true current state (serializable).
                    let outcome = app.decide(&decision, &state);
                    for a in &outcome.external_actions {
                        external_actions.push((now, a.clone()));
                    }
                    state = app.apply(&state, &outcome.update);
                    execution.push_record(shard_core::TxnRecord {
                        decision,
                        prefix: shard_core::Prefix::from_missed(execution.len(), &[]),
                        update: outcome.update,
                        external_actions: outcome.external_actions,
                    });
                    let ack = if origin == primary {
                        now
                    } else {
                        delivery_time(&cfg.partitions, &cfg.delay, &mut rng, now, primary, origin)
                    };
                    queue.schedule(ack, Event::ReplyArrive { submitted, id });
                }
                Event::ReplyArrive { submitted, id } => {
                    let latency = /* ack time */ now - submitted;
                    if latency <= cfg.request_ttl {
                        outcomes[id] = TxnOutcome::Committed { latency };
                    }
                }
            }
        }

        BaselineReport {
            outcomes,
            execution,
            external_actions,
            final_state: state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
    use shard_apps::Person;
    use shard_core::conditions;
    use shard_sim::partition::PartitionWindow;

    fn requests_and_moveups(n: u32, nodes: u16, gap: SimTime) -> Vec<Invocation<AirlineTxn>> {
        let mut invs = Vec::new();
        let mut t = 0;
        for i in 1..=n {
            invs.push(Invocation::new(
                t,
                NodeId((i % nodes as u32) as u16),
                AirlineTxn::Request(Person(i)),
            ));
            t += gap;
            invs.push(Invocation::new(
                t,
                NodeId(((i + 1) % nodes as u32) as u16),
                AirlineTxn::MoveUp,
            ));
            t += gap;
        }
        invs
    }

    #[test]
    fn serializable_run_never_overbooks() {
        let app = FlyByNight::new(3);
        let sys = PrimaryCopy::new(&app, BaselineConfig::default());
        let report = sys.run(requests_and_moveups(10, 5, 10));
        report.execution.verify(&app).unwrap();
        // Complete prefixes — the definition of the serializable baseline.
        assert_eq!(conditions::max_missed(&report.execution), 0);
        for s in report.execution.actual_states(&app) {
            assert_eq!(app.cost(&s, OVERBOOKING), 0);
        }
        assert_eq!(report.final_state.al(), 3);
        assert_eq!(app.cost(&report.final_state, UNDERBOOKING), 0);
        assert!((report.availability() - 1.0).abs() < 1e-9);
        assert!(report.mean_latency().unwrap() > 0.0);
    }

    #[test]
    fn partition_makes_cut_off_clients_time_out() {
        let app = FlyByNight::new(3);
        // Node 1 is cut off from the primary for a long window.
        let partitions =
            PartitionSchedule::new(vec![PartitionWindow::isolate(0, 100_000, vec![NodeId(1)])]);
        let cfg = BaselineConfig {
            nodes: 2,
            partitions,
            delay: DelayModel::Fixed(5),
            request_ttl: 200,
            ..Default::default()
        };
        let sys = PrimaryCopy::new(&app, cfg);
        let invs = vec![
            Invocation::new(0, NodeId(0), AirlineTxn::Request(Person(1))),
            Invocation::new(10, NodeId(1), AirlineTxn::Request(Person(2))),
        ];
        let report = sys.run(invs);
        assert_eq!(report.outcomes[0], TxnOutcome::Committed { latency: 0 });
        assert_eq!(report.outcomes[1], TxnOutcome::TimedOut);
        assert!((report.availability() - 0.5).abs() < 1e-9);
        // The expired request was aborted: P2 never entered the database.
        assert!(!report.final_state.is_known(Person(2)));
    }

    #[test]
    fn remote_commit_latency_is_two_hops() {
        let app = FlyByNight::new(3);
        let cfg = BaselineConfig {
            nodes: 2,
            delay: DelayModel::Fixed(30),
            request_ttl: 500,
            ..Default::default()
        };
        let sys = PrimaryCopy::new(&app, cfg);
        let report = sys.run(vec![Invocation::new(
            0,
            NodeId(1),
            AirlineTxn::Request(Person(1)),
        )]);
        assert_eq!(report.outcomes[0], TxnOutcome::Committed { latency: 60 });
    }

    #[test]
    fn external_actions_fire_at_the_primary_once() {
        let app = FlyByNight::new(1);
        let sys = PrimaryCopy::new(&app, BaselineConfig::default());
        let invs = vec![
            Invocation::new(0, NodeId(0), AirlineTxn::Request(Person(1))),
            Invocation::new(10, NodeId(0), AirlineTxn::MoveUp),
            Invocation::new(20, NodeId(0), AirlineTxn::MoveUp),
        ];
        let report = sys.run(invs);
        // Only the first MOVE-UP assigns; the second sees a full plane.
        assert_eq!(report.external_actions.len(), 1);
        assert_eq!(report.external_actions[0].1.kind, "assign-seat");
    }

    #[test]
    fn empty_run_is_fully_available() {
        let app = FlyByNight::default();
        let sys = PrimaryCopy::new(&app, BaselineConfig::default());
        let report = sys.run(vec![]);
        assert!((report.availability() - 1.0).abs() < 1e-9);
        assert_eq!(report.mean_latency(), None);
        assert!(report.execution.is_empty());
    }
}
