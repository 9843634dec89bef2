//! Anti-entropy gossip broadcast — the \[GLBKSS\]-style alternative to
//! per-update flooding.
//!
//! §1.2 relies on a reliable broadcast that delivers "in as timely a
//! manner as possible" but tolerates arbitrary delay. The flooding model
//! in [`crate::cluster`] sends every update to every peer directly; real
//! deployments (and the Grapevine lineage the paper cites) often use
//! **anti-entropy**: each node periodically picks a partner and pushes
//! everything it knows. Gossip gives eventual delivery with per-round
//! (not per-update) message cost, at the price of higher propagation
//! delay — i.e. larger `k`. Experiment E17 measures that trade.
//!
//! Since the kernel refactor this module only contributes propagation
//! strategies — [`Gossip`] (uniform random partners) and
//! [`GossipPlacement`] (gossip × partial replication: rounds ship only
//! the entries the partner's placement cares about) — plus the
//! [`Runner::gossip`] constructor. The event loop, failure gating and
//! traced merging live in [`crate::kernel`], shared with every other
//! strategy.
//!
//! Termination is deliberately omniscient about *convergence only*:
//! rounds stop once every replica holds every update it should and no
//! client invocations remain — a simulation-harness stopping rule, not
//! protocol logic ([`crate::kernel::Propagation::synced`]).

use crate::clock::NodeId;
use crate::events::SimTime;
use crate::kernel::{Entries, Node, Propagation, Runner};
use crate::partial::Placement;
use crate::transport::Transport;
use rand::Rng;
use shard_core::{Application, ObjectModel};
use std::sync::Arc;

use crate::kernel::{ClusterConfig, ExecutedTxn};

/// Configuration of the gossip layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipConfig {
    /// How often each node initiates an anti-entropy round.
    pub interval: SimTime,
}

impl Default for GossipConfig {
    /// One round per 50 ticks.
    fn default() -> Self {
        GossipConfig { interval: 50 }
    }
}

/// Anti-entropy propagation: nothing is sent at execution time; every
/// `interval` ticks each live node picks `fanout` uniform random
/// partners and pushes its whole log (rounds blocked by a partition are
/// skipped, not retried early).
///
/// `Gossip { interval: 1, fanout: n }` degenerates to deterministic
/// flooding — with fanout ≥ `nodes − 1` the strategy pushes to *all*
/// peers in node order without consuming randomness, which is what makes
/// the cross-strategy equivalence suite exact.
#[derive(Clone, Copy, Debug)]
pub struct Gossip {
    /// How often each node initiates an anti-entropy round.
    pub interval: SimTime,
    /// Number of random partners pushed to per round.
    pub fanout: u16,
}

impl Gossip {
    /// Picks a uniform random partner other than `node` (the historical
    /// redraw-while-self scheme, preserving the seed's draw sequence).
    fn partner<A: Application>(net: &mut dyn Transport<A>, node: NodeId) -> NodeId {
        let n = net.nodes();
        let mut peer = NodeId(net.rng().random_range(0..n));
        while peer == node {
            peer = NodeId(net.rng().random_range(0..n));
        }
        peer
    }
}

impl<A: Application> Propagation<A> for Gossip {
    fn label(&self) -> &'static str {
        "gossip"
    }

    fn tick_interval(&self) -> Option<SimTime> {
        Some(self.interval)
    }

    fn on_tick(&mut self, _app: &A, net: &mut dyn Transport<A>, node: &Node<A>, now: SimTime) {
        // One shared snapshot of the whole log per round.
        let entries: Entries<A> = Arc::from(node.log.entries().to_vec());
        if u32::from(self.fanout) >= u32::from(net.nodes()) - 1 {
            push_to_all(net, node.id, now, &entries);
        } else {
            for _ in 0..self.fanout {
                let peer = Self::partner(net, node.id);
                // Skip the round if the partition blocks it right now.
                if net.connected(now, node.id, peer) {
                    net.send(now, node.id, peer, Arc::clone(&entries));
                }
            }
        }
    }

    fn synced(&self, _app: &A, nodes: &[Node<A>], transactions: &[ExecutedTxn<A>]) -> bool {
        synced_on_identical_logs(nodes, transactions)
    }
}

/// Full fanout: pushes `entries` to every peer no partition cuts `node`
/// off from right now, in node order (no randomness consumed).
fn push_to_all<A: Application>(
    net: &mut dyn Transport<A>,
    node: NodeId,
    now: SimTime,
    entries: &Entries<A>,
) {
    for to in (0..net.nodes()).map(NodeId) {
        if to != node && net.connected(now, node, to) {
            net.send(now, node, to, Arc::clone(entries));
        }
    }
}

/// The gossip strategies' shared stopping rule: every replica's log is
/// identical and covers at least every transaction this run executed.
/// On an ordinary run this is exactly "every log holds all `n` executed
/// transactions"; on a run whose nodes recovered durable state from a
/// previous process ([`crate::Runner::with_durability`]) the recovered
/// entries inflate the logs past this run's transaction count, so the
/// rule compares the logs themselves. Length equality is the cheap
/// gate; the known-set comparison runs only once lengths agree.
fn synced_on_identical_logs<A: Application>(
    nodes: &[Node<A>],
    transactions: &[ExecutedTxn<A>],
) -> bool {
    let len0 = nodes[0].log.len();
    len0 >= transactions.len()
        && nodes.iter().all(|n| n.log.len() == len0)
        && nodes
            .windows(2)
            .all(|w| w[0].log.known_set() == w[1].log.known_set())
}

/// Delta anti-entropy: every `interval` ticks each node pushes to
/// **every** peer only the entries it merged since its *own* last round
/// — a cursor into the merge log's arrival order
/// ([`crate::MergeLog::arrivals`]), not a log scan. Rounds with nothing
/// new send nothing.
///
/// Whole-log gossip ([`Gossip`]) re-ships the entire log every round:
/// O(rounds · log) entries on the wire and through the receiving merge
/// path, which turns quadratic the moment rounds overlap sustained
/// load. Delta rounds ship each entry from each node at most once —
/// O(entries · n²) total — which is what makes 10⁵-transaction live
/// gossip runs feasible. Propagation is flooding: a node re-ships
/// whatever it just *learned* (from anyone), so an update reaches
/// everyone within two rounds of its first delivery.
///
/// Fanout is always full, and a cursor advances whether or not a given
/// peer was reachable — an entry dropped by a partition is only
/// re-delivered via third parties, and a received tail a crashed peer
/// lost from its store only by copies still in flight — so under
/// adversarial partitions or lossy crash windows the omniscient
/// [`Propagation::synced`] rule may never hold. Use [`Gossip`] for
/// chaos schedules; `GossipDelta` is the live-runtime
/// strategy (`shard-runtime --mode gossip`), where its determinism
/// (no partner sampling, no randomness) makes record–replay exact.
#[derive(Clone, Debug)]
pub struct GossipDelta {
    /// How often each node initiates a delta round.
    pub interval: SimTime,
    /// Per-node cursors into each node's [`crate::MergeLog::arrivals`]:
    /// everything before the cursor has been offered to every peer. In
    /// the kernel one strategy instance serves all nodes; in the live
    /// runtime each node thread owns an instance and uses only its own
    /// slot — the behavior per node is identical either way.
    cursors: Vec<usize>,
}

impl GossipDelta {
    /// A delta-gossip strategy pushing every `interval` ticks.
    pub fn new(interval: SimTime) -> Self {
        GossipDelta {
            interval,
            cursors: Vec::new(),
        }
    }
}

impl<A: Application> Propagation<A> for GossipDelta {
    fn label(&self) -> &'static str {
        "gossip_delta"
    }

    fn tick_interval(&self) -> Option<SimTime> {
        Some(self.interval)
    }

    fn on_tick(&mut self, _app: &A, net: &mut dyn Transport<A>, node: &Node<A>, now: SimTime) {
        let idx = usize::from(node.id.0);
        if self.cursors.len() <= idx {
            self.cursors.resize(idx + 1, 0);
        }
        let arrivals = node.log.arrivals();
        let cur = self.cursors[idx];
        if cur == arrivals.len() {
            return;
        }
        self.cursors[idx] = arrivals.len();
        // Ship the new arrivals sorted — an ascending batch is the
        // receiving merge path's fast case.
        let mut delta = arrivals[cur..].to_vec();
        delta.sort_unstable_by_key(|(ts, _)| *ts);
        push_to_all(net, node.id, now, &delta.into());
    }

    /// The recovered log is a prefix of the arrival order the cursor
    /// indexed: positions below its length hold the same entries, the
    /// rest were lost and re-arrive at new positions, unshipped.
    fn on_recover(&mut self, node: &Node<A>) {
        if let Some(cursor) = self.cursors.get_mut(usize::from(node.id.0)) {
            *cursor = (*cursor).min(node.log.arrivals().len());
        }
    }

    fn synced(&self, _app: &A, nodes: &[Node<A>], transactions: &[ExecutedTxn<A>]) -> bool {
        synced_on_identical_logs(nodes, transactions)
    }
}

/// Gossip over partial replication — the composed scenario the kernel
/// refactor unlocks (experiment E20). Rounds run exactly like
/// [`Gossip`]'s, but a push to a partner ships only the entries that
/// partner's [`Placement`] cares about: updates writing one of its held
/// objects, plus empty-write updates (pure serial-order information,
/// relevant everywhere). Rounds with nothing relevant to say are
/// skipped entirely.
#[derive(Clone, Debug)]
pub struct GossipPlacement {
    /// How often each node initiates an anti-entropy round.
    pub interval: SimTime,
    /// Number of random partners pushed to per round.
    pub fanout: u16,
    /// Which nodes replicate which objects.
    pub placement: Placement,
}

impl GossipPlacement {
    /// Whether `update` matters to `node` under this placement.
    fn relevant<A: ObjectModel>(&self, app: &A, node: NodeId, update: &A::Update) -> bool {
        let writes = app.update_objects(update);
        writes.is_empty() || writes.iter().any(|o| self.placement.holds(node, *o))
    }

    /// The subset of `node`'s log that `to` cares about.
    fn selection<A: ObjectModel>(&self, app: &A, node: &Node<A>, to: NodeId) -> Entries<A> {
        node.log
            .entries()
            .iter()
            .filter(|(_, u)| self.relevant(app, to, u))
            .cloned()
            .collect::<Vec<_>>()
            .into()
    }
}

impl<A: ObjectModel> Propagation<A> for GossipPlacement {
    fn label(&self) -> &'static str {
        "gossip_partial"
    }

    fn tick_interval(&self) -> Option<SimTime> {
        Some(self.interval)
    }

    fn on_tick(&mut self, app: &A, net: &mut dyn Transport<A>, node: &Node<A>, now: SimTime) {
        if net.nodes() <= 1 {
            return;
        }
        for _ in 0..self.fanout {
            let peer = Gossip::partner(net, node.id);
            if !net.connected(now, node.id, peer) {
                continue;
            }
            let entries = self.selection(app, node, peer);
            if !entries.is_empty() {
                net.send(now, node.id, peer, entries);
            }
        }
    }

    /// Converged when every node's log contains every executed update
    /// relevant to it (per-object completeness, not global identity).
    fn synced(&self, app: &A, nodes: &[Node<A>], transactions: &[ExecutedTxn<A>]) -> bool {
        transactions.iter().all(|t| {
            nodes.iter().all(|n| {
                !self.relevant(app, n.id, &t.update)
                    || n.log
                        .entries()
                        .binary_search_by_key(&t.ts, |(ts, _)| *ts)
                        .is_ok()
            })
        })
    }
}

impl<'a, A: Application> Runner<'a, A, Gossip> {
    /// A single-partner anti-entropy runner; the interesting report
    /// fields are [`RunReport::rounds`](crate::RunReport::rounds) and
    /// [`RunReport::entries_shipped`](crate::RunReport::entries_shipped).
    /// The `delay` and
    /// `partitions` of `config` govern the gossip pushes; `piggyback` is
    /// ignored (gossip *is* full piggybacking).
    ///
    /// The seed is perturbed (`seed ^ 0x60551b`) — a historical quirk
    /// kept for per-seed reproducibility, so flood-vs-gossip comparisons
    /// under one seed don't share delay streams.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero nodes or the gossip interval
    /// is zero.
    pub fn gossip(app: &'a A, mut config: ClusterConfig, gossip: GossipConfig) -> Self {
        config.seed ^= 0x60551b;
        Runner::new(
            app,
            config,
            Gossip {
                interval: gossip.interval,
                fanout: 1,
            },
        )
    }
}
