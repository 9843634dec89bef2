//! Partial replication (§6): removing the "inessential full replication
//! assumption".
//!
//! "Even with only partial replication, it should be possible to
//! continue to maintain the correctness conditions we describe in this
//! paper, by judicious assignment of data and transactions to nodes,
//! (i.e. in such a way that each transaction will have copies of all the
//! data it requires)."
//!
//! The database is divided into **objects**; each node replicates a
//! subset of them (its *placement*). A transaction must be invoked at a
//! node holding every object its decision reads, and an update is
//! broadcast only to the nodes holding one of the objects it writes —
//! with one deliberate exception: an update writing *no* objects is pure
//! serial-order information and goes to every node, which is what lets a
//! full placement reproduce the eager-broadcast run exactly. Because the
//! prefix-subsequence condition never mentions replication, the emitted
//! execution is checked by exactly the same machinery as the fully
//! replicated cluster — the paper's point. What changes is the *message
//! volume*, which [`RunReport::messages_sent`] measures (experiment
//! E16).
//!
//! Since the kernel refactor this module contributes the [`Placement`]
//! map and the [`PartialPlacement`] propagation strategy; the event loop
//! lives in [`crate::kernel`], entered via [`Runner::partial`].

use crate::clock::{NodeId, Timestamp};
use crate::events::SimTime;
use crate::kernel::{Entries, Node, Propagation, RunReport, Runner};
use crate::transport::Transport;
use shard_core::{Application, ObjectId, ObjectModel};
use std::sync::Arc;

use crate::kernel::{ClusterConfig, Invocation};

/// Which nodes replicate which objects.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Placement {
    held: Vec<Vec<ObjectId>>, // per node
}

impl Placement {
    /// Full replication of `objects` at `nodes` nodes (the degenerate
    /// case, for comparisons).
    pub fn full(nodes: u16, objects: &[ObjectId]) -> Self {
        Placement {
            held: vec![objects.to_vec(); nodes as usize],
        }
    }

    /// Explicit per-node object sets.
    pub fn new(held: Vec<Vec<ObjectId>>) -> Self {
        Placement { held }
    }

    /// Round-robin placement with a replication factor: object `i` lives
    /// on nodes `i, i+1, …, i+factor−1 (mod nodes)`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or exceeds the node count.
    pub fn round_robin(nodes: u16, objects: &[ObjectId], factor: u16) -> Self {
        assert!(factor >= 1 && factor <= nodes, "1 ≤ factor ≤ nodes");
        let mut held = vec![Vec::new(); nodes as usize];
        for (i, &o) in objects.iter().enumerate() {
            for r in 0..factor {
                held[(i + r as usize) % nodes as usize].push(o);
            }
        }
        Placement { held }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.held.len() as u16
    }

    /// Whether `node` holds `object`.
    pub fn holds(&self, node: NodeId, object: ObjectId) -> bool {
        self.held[node.0 as usize].contains(&object)
    }

    /// Whether `node` holds every object in `objects`.
    pub fn holds_all(&self, node: NodeId, objects: &[ObjectId]) -> bool {
        objects.iter().all(|o| self.holds(node, *o))
    }

    /// The nodes holding at least one of `objects`.
    pub fn holders_of_any(&self, objects: &[ObjectId]) -> Vec<NodeId> {
        (0..self.nodes())
            .map(NodeId)
            .filter(|n| objects.iter().any(|o| self.holds(*n, *o)))
            .collect()
    }

    /// Whether `node` should end up holding `update`: it writes an object
    /// `node` holds, or none (pure serial-order information).
    pub fn wants<A: ObjectModel>(&self, app: &A, node: NodeId, update: &A::Update) -> bool {
        let writes = app.update_objects(update);
        writes.is_empty() || writes.iter().any(|o| self.holds(node, *o))
    }

    /// A node holding all of `objects`, if any (useful for routing).
    pub fn any_holder_of_all(&self, objects: &[ObjectId]) -> Option<NodeId> {
        (0..self.nodes())
            .map(NodeId)
            .find(|n| self.holds_all(*n, objects))
    }
}

impl<A: Application> RunReport<A> {
    /// Per-object mutual consistency: all holders of each object agree
    /// on its projection — the check that replaces global agreement on
    /// a partially replicated run.
    pub fn objects_consistent(&self, app: &A, placement: &Placement) -> bool
    where
        A: ObjectModel,
    {
        for o in app.objects() {
            let mut views = (0..placement.nodes())
                .map(NodeId)
                .filter(|n| placement.holds(*n, o))
                .map(|n| app.project(&self.final_states[n.0 as usize], o));
            if let Some(first) = views.next() {
                if !views.all(|v| v == first) {
                    return false;
                }
            }
        }
        true
    }
}

/// Object-aware propagation: the moment a transaction executes, its
/// update is sent only to the nodes whose [`Placement`] holds one of the
/// objects it writes. Updates with an empty write set carry pure
/// serial-order information and are sent to every node, so
/// `PartialPlacement::full` reproduces [`crate::cluster::EagerBroadcast`]
/// exactly.
#[derive(Clone, Debug)]
pub struct PartialPlacement {
    placement: Placement,
}

impl PartialPlacement {
    /// Routes by the given placement.
    pub fn new(placement: Placement) -> Self {
        PartialPlacement { placement }
    }

    /// The degenerate fully replicated placement (for comparisons with
    /// eager broadcast).
    pub fn full(nodes: u16, objects: &[ObjectId]) -> Self {
        PartialPlacement {
            placement: Placement::full(nodes, objects),
        }
    }
}

impl<A: ObjectModel> Propagation<A> for PartialPlacement {
    fn label(&self) -> &'static str {
        "partial"
    }

    /// Every invocation must target a node holding all the objects its
    /// decision reads (the §6 routing rule).
    ///
    /// # Panics
    ///
    /// Panics if an invocation targets a node missing a required object.
    fn validate(&self, app: &A, invocations: &[Invocation<A::Decision>]) {
        for inv in invocations {
            let reads = app.decision_objects(&inv.decision);
            assert!(
                self.placement.holds_all(inv.node, &reads),
                "node {} lacks objects {:?} read by {:?}",
                inv.node,
                reads,
                inv.decision
            );
        }
    }

    fn on_execute(
        &mut self,
        app: &A,
        net: &mut dyn Transport<A>,
        node: &Node<A>,
        now: SimTime,
        ts: Timestamp,
        update: &Arc<A::Update>,
    ) {
        let writes = app.update_objects(update);
        let entries: Entries<A> = Arc::from(vec![(ts, Arc::clone(update))]);
        let recipients = if writes.is_empty() {
            // Pure serial-order information: everyone hears about it.
            (0..net.nodes()).map(NodeId).collect()
        } else {
            self.placement.holders_of_any(&writes)
        };
        for to in recipients {
            if to == node.id {
                continue;
            }
            net.send(now, node.id, to, Arc::clone(&entries));
        }
    }

    fn wants(&self, app: &A, node: NodeId, update: &A::Update) -> bool {
        self.placement.wants(app, node, update)
    }
}

impl<'a, A: ObjectModel> Runner<'a, A, PartialPlacement> {
    /// A partially replicated runner routing by `placement`. Each
    /// invocation must target a node holding all the objects its
    /// decision reads (checked at run start).
    ///
    /// # Panics
    ///
    /// Panics if the node counts disagree or the cluster is empty.
    pub fn partial(app: &'a A, config: ClusterConfig, placement: Placement) -> Self {
        assert_eq!(
            config.nodes,
            placement.nodes(),
            "placement must cover all nodes"
        );
        Runner::new(app, config, PartialPlacement::new(placement))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayModel;
    use shard_core::DecisionOutcome;

    /// A two-register database: object 0 and object 1, each an
    /// independent counter.
    struct TwoRegs;

    #[derive(Clone, Debug, PartialEq)]
    struct Bump(u32);

    impl Application for TwoRegs {
        type State = [u64; 2];
        type Update = Bump;
        type Decision = Bump;
        fn initial_state(&self) -> [u64; 2] {
            [0, 0]
        }
        fn is_well_formed(&self, _: &[u64; 2]) -> bool {
            true
        }
        fn apply_in_place(&self, s: &mut [u64; 2], u: &Bump) {
            s[u.0 as usize] += 1;
        }
        fn decide(&self, d: &Bump, _: &[u64; 2]) -> DecisionOutcome<Bump> {
            DecisionOutcome::update_only(d.clone())
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &[u64; 2], _: usize) -> u64 {
            0
        }
    }

    impl ObjectModel for TwoRegs {
        fn objects(&self) -> Vec<ObjectId> {
            vec![ObjectId(0), ObjectId(1)]
        }
        fn update_objects(&self, u: &Bump) -> Vec<ObjectId> {
            vec![ObjectId(u.0)]
        }
        fn decision_objects(&self, d: &Bump) -> Vec<ObjectId> {
            vec![ObjectId(d.0)]
        }
        fn project(&self, s: &[u64; 2], o: ObjectId) -> String {
            s[o.0 as usize].to_string()
        }
    }

    fn cfg(nodes: u16) -> ClusterConfig {
        ClusterConfig {
            nodes,
            seed: 1,
            delay: DelayModel::Fixed(5),
            ..Default::default()
        }
    }

    #[test]
    fn placement_helpers() {
        let objs = [ObjectId(0), ObjectId(1), ObjectId(2)];
        let p = Placement::round_robin(3, &objs, 2);
        assert!(p.holds(NodeId(0), ObjectId(0)));
        assert!(p.holds(NodeId(1), ObjectId(0)));
        assert!(!p.holds(NodeId(2), ObjectId(0)));
        assert_eq!(p.holders_of_any(&[ObjectId(0)]), vec![NodeId(0), NodeId(1)]);
        assert!(p.holds_all(NodeId(1), &[ObjectId(0), ObjectId(1)]));
        assert_eq!(
            p.any_holder_of_all(&[ObjectId(0), ObjectId(2)]),
            Some(NodeId(0))
        );
        let full = Placement::full(2, &objs);
        assert!(full.holds_all(NodeId(1), &objs));
    }

    #[test]
    fn updates_only_reach_holders() {
        // Object 0 on nodes {0,1}, object 1 on nodes {1,2}.
        let app = TwoRegs;
        let p = Placement::new(vec![
            vec![ObjectId(0)],
            vec![ObjectId(0), ObjectId(1)],
            vec![ObjectId(1)],
        ]);
        let runner = Runner::partial(&app, cfg(3), p.clone());
        let invs = vec![
            Invocation::new(0, NodeId(0), Bump(0)),
            Invocation::new(10, NodeId(2), Bump(1)),
        ];
        let report = runner.run(invs);
        // Each update went to exactly one other holder.
        assert_eq!(report.messages_sent, 2);
        assert!(report.objects_consistent(&app, &p));
        // Node 0 never heard about object 1.
        assert_eq!(report.final_states[0], [1, 0]);
        assert_eq!(report.final_states[1], [1, 1]);
        assert_eq!(report.final_states[2], [0, 1]);
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
    }

    #[test]
    fn full_placement_matches_global_state() {
        let app = TwoRegs;
        let p = Placement::full(3, &app.objects());
        let runner = Runner::partial(&app, cfg(3), p.clone());
        let invs: Vec<_> = (0..10)
            .map(|i| Invocation::new(i * 5, NodeId((i % 3) as u16), Bump((i % 2) as u32)))
            .collect();
        let report = runner.run(invs);
        assert!(report.objects_consistent(&app, &p));
        assert_eq!(report.final_states[0], [5, 5]);
        // Full replication sends to every other node: 10 × 2 messages.
        assert_eq!(report.messages_sent, 20);
    }

    #[test]
    fn partial_replication_cuts_messages() {
        let app = TwoRegs;
        let objs = app.objects();
        let invs: Vec<_> = (0..20)
            .map(|i| Invocation::new(i * 5, NodeId(0), Bump(0)))
            .collect();
        // All activity on object 0.
        let full = Runner::partial(&app, cfg(4), Placement::full(4, &objs))
            .run(invs.clone())
            .messages_sent;
        let part = Runner::partial(&app, cfg(4), Placement::round_robin(4, &objs, 2))
            .run(invs)
            .messages_sent;
        assert!(part < full, "partial {part} < full {full}");
    }

    #[test]
    #[should_panic(expected = "lacks objects")]
    fn misrouted_decision_panics() {
        let app = TwoRegs;
        let p = Placement::new(vec![vec![ObjectId(0)], vec![ObjectId(1)]]);
        let runner = Runner::partial(&app, cfg(2), p);
        let _ = runner.run(vec![Invocation::new(0, NodeId(0), Bump(1))]);
    }
}
