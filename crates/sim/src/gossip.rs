//! Anti-entropy gossip — the \[GLBKSS\]-style alternative to per-update
//! flooding ([`crate::cluster`]), as one strategy: [`Gossip`]. Each node
//! periodically hands its partners what they have not been offered yet:
//! per-round (not per-update) message cost, at the price of a larger
//! `k`. E17 measures that trade, E20 the same over partial replication.
//! At interval 0 the round runs at each execution instead: §3.3's
//! "piggybacking information about known transactions on messages",
//! cut to what the peer lacks.
//!
//! Who is offered an entry is the [`Propagation::wants`] of the
//! strategy a round runs over: [`EagerBroadcast`] or a [`Placement`].
//!
//! §1.2 asks one thing of the broadcast — barring permanent failure,
//! every node eventually receives every update — and it has two owners:
//!
//! * **The link owns delivery.** [`Transport::send`] holds a message
//!   until the partition between the pair heals and its receiver is up,
//!   so a round never asks whether a partner is reachable — it sends.
//!   Rounds travel *ordered* links ([`Propagation::ordered_links`],
//!   `shard-runtime`'s channels): a batch arrives no earlier than the one
//!   handed to the same link before it, and never at a peer that
//!   restarted from its store in between.
//! * **The strategy owns what it handed to which link**: a cursor *per
//!   peer* into the sender's arrival order
//!   ([`crate::MergeLog::arrivals`]) that moves only with what was sent
//!   to that peer. A peer that restarts is a new link epoch: every
//!   cursor *for* it starts over, so what its WAL lost is offered again
//!   (duplicates are idempotent at the merge) — at the sender's next
//!   round, which under interval 0 means its next execution.
//!
//! Each node thus offers each entry to each peer once per epoch —
//! O(entries · n²) on the wire, never a log twice — with no digest, no
//! acknowledgement, no second message kind; and a partner holds all
//! below its cursor when a batch (in timestamp order) from above it
//! lands, so §3.2 transitivity holds, restarts included.

use crate::clock::{NodeId, Timestamp};
use crate::cluster::EagerBroadcast;
use crate::events::SimTime;
use crate::kernel::{Entries, Invocation, Node, Propagation};
use crate::partial::Placement;
use crate::transport::Transport;
use rand::Rng;
use shard_core::Application;
use std::sync::Arc;

/// Anti-entropy propagation: every `interval` ticks, and never at
/// execution time, each live node hands each partner the entries merged
/// since that partner was last served, sorted by timestamp and, under a
/// [`Placement`], narrowed to what the partner holds (plus empty-write
/// updates). A run ends when no node has anything unsent.
///
/// **Interval 0 means no clock: the same round runs at each of the
/// node's executions**, over the log up to its own update — what the
/// node held when it executed, even when a live node releases the
/// execution after the rest of its burst — §3.3's transitive flooding.
/// Nothing then counts as unsent; what a node merges travels on with
/// its next execution, and
/// [`crate::RunReport::missing`] names what no later execution carried.
/// So each origin must reach every peer itself: a round at interval 0
/// below full fanout panics.
///
/// Partners are all peers in node order, with no RNG draw, when `fanout
/// ≥ nodes − 1`; otherwise `fanout` uniform random ones. Full fanout is
/// therefore deterministic given the local replica (E23's live gossip
/// mode, replayed, needs that), and `Gossip::new(1, nodes)` degenerates
/// to flooding — `tests/strategy_equivalence.rs` holds it (and its
/// `.over` a full placement) to that, and `Gossip::new(0, nodes − 1)`
/// to whole-log piggybacking on FIFO links.
///
/// # Examples
///
/// ```
/// use shard_apps::banking::{AccountId, Bank, BankTxn};
/// use shard_core::ObjectModel;
/// use shard_sim::{ClusterConfig, Gossip, Invocation, NodeId, Placement, Runner};
///
/// let app = Bank::new(4, 100);
/// // Account 1 is the first object: round-robin puts it on nodes 0 and 1.
/// let placement = Placement::round_robin(5, &app.objects(), 2);
/// let invs = vec![Invocation::new(1, NodeId(0), BankTxn::Deposit(AccountId(1), 5))];
/// let strategy = Gossip::new(10, 2).over(placement.clone());
/// let report = Runner::new(&app, ClusterConfig::default(), strategy).run(invs);
/// assert!(report.missing().is_empty());
/// assert!(report.objects_consistent(&app, &placement));
/// ```
#[derive(Clone, Debug)]
pub struct Gossip<P = EagerBroadcast> {
    /// How often each node initiates an anti-entropy round; 0: at each
    /// of its executions.
    pub interval: SimTime,
    /// Number of partners served per round.
    pub fanout: u16,
    /// Whose `wants` and `validate` gossip reuses: [`EagerBroadcast`]
    /// (everyone, everything, anywhere) or a [`Placement`].
    placement: P,
    /// `cursors[node][peer]`: how much of `node`'s arrival order has
    /// been handed to its link to `peer`. The kernel's one instance
    /// serves all nodes; a live node thread uses only its own row.
    cursors: Vec<Vec<usize>>,
}

impl Gossip {
    /// Rounds every `interval` ticks (0: at each execution) to `fanout`
    /// partners, everyone offered everything.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero: such rounds would offer nothing, ever.
    pub fn new(interval: SimTime, fanout: u16) -> Self {
        assert!(fanout > 0, "a round needs at least one partner");
        Gossip {
            interval,
            fanout,
            placement: EagerBroadcast::default(),
            cursors: Vec::new(),
        }
    }

    /// The same over partial replication: a partner is offered only
    /// what `placement` has it hold.
    pub fn over(self, placement: Placement) -> Gossip<Placement> {
        Gossip {
            interval: self.interval,
            fanout: self.fanout,
            placement,
            cursors: self.cursors,
        }
    }
}

/// A uniform random partner other than `node` (redraw while self).
fn partner<A: Application>(net: &mut dyn Transport<A>, node: NodeId) -> NodeId {
    let n = net.nodes();
    loop {
        let peer = NodeId(net.rng().random_range(0..n));
        if peer != node {
            return peer;
        }
    }
}

impl<P> Gossip<P> {
    /// One round at `node`: each partner is offered what `arrivals` — a
    /// prefix of the node's arrival order — holds past its cursor.
    fn round<A: Application>(
        &mut self,
        app: &A,
        net: &mut dyn Transport<A>,
        node: &Node<A>,
        now: SimTime,
        arrivals: &[(Timestamp, Arc<A::Update>)],
    ) where
        P: Propagation<A>,
    {
        let n = net.nodes();
        if self.cursors.len() < usize::from(n) {
            self.cursors.resize(usize::from(n), vec![0; usize::from(n)]);
        }
        let row = &mut self.cursors[usize::from(node.id.0)];
        let full = u32::from(self.fanout) >= u32::from(n) - 1;
        assert!(
            full || self.interval > 0,
            "gossip at each execution must serve every peer: run `Gossip::new(0, nodes - 1)`"
        );
        // The sorted slice past the cursor served last: partners whose
        // cursors agree (all of them, on a run without restarts at full
        // fanout) share it.
        let mut shared: Option<(usize, Entries<A>)> = None;
        for k in 0..if full { n } else { self.fanout } {
            let peer = if full {
                NodeId(k)
            } else {
                partner(net, node.id)
            };
            let cursor = row[usize::from(peer.0)];
            if peer == node.id || cursor >= arrivals.len() {
                continue;
            }
            row[usize::from(peer.0)] = arrivals.len();
            shared.take_if(|(from, _)| *from != cursor);
            let (_, delta) = shared.get_or_insert_with(|| {
                let mut sorted = arrivals[cursor..].to_vec();
                sorted.sort_unstable_by_key(|(ts, _)| *ts);
                (cursor, sorted.into())
            });
            // All of it by reference count, or the part the peer holds.
            let wanted = |(_, u): &&(_, Arc<A::Update>)| self.placement.wants(app, peer, u);
            let batch = if delta.iter().all(|e| wanted(&e)) {
                Arc::clone(delta)
            } else {
                delta.iter().filter(wanted).cloned().collect()
            };
            if !batch.is_empty() {
                net.send(now, node.id, peer, batch);
            }
        }
    }
}

impl<A: Application, P: Propagation<A>> Propagation<A> for Gossip<P> {
    fn label(&self) -> &'static str {
        "gossip"
    }

    fn tick_interval(&self) -> Option<SimTime> {
        (self.interval > 0).then_some(self.interval)
    }

    fn ordered_links(&self) -> bool {
        true
    }

    /// Over a [`Placement`], the §6 routing rule.
    fn validate(&self, app: &A, nodes: u16, invocations: &[Invocation<A::Decision>]) {
        self.placement.validate(app, nodes, invocations);
    }

    fn on_execute(
        &mut self,
        app: &A,
        net: &mut dyn Transport<A>,
        node: &Node<A>,
        now: SimTime,
        ts: Timestamp,
        _update: &Arc<A::Update>,
    ) {
        if self.interval == 0 {
            // The log as it stood at this execution, up to its own
            // update: a live node releases a burst's executions after
            // their barrier, when its log already holds the later ones.
            let arrivals = node.log.arrivals();
            let upto = arrivals
                .iter()
                .rposition(|(t, _)| *t == ts)
                .expect("an execution's own update is in its log");
            self.round(app, net, node, now, &arrivals[..=upto]);
        }
    }

    fn on_tick(&mut self, app: &A, net: &mut dyn Transport<A>, node: &Node<A>, now: SimTime) {
        self.round(app, net, node, now, node.log.arrivals());
    }

    /// A restart is a new link epoch, on both sides. The recovered log
    /// is a prefix of the arrival order the node's own cursors indexed
    /// (what was lost re-arrives at new positions, unsent), so those are
    /// pulled back to it; and what the peers had handed to their links
    /// for this node may be among what it lost, so they start over.
    fn on_recover(&mut self, node: &Node<A>) {
        let (id, len) = (usize::from(node.id.0), node.log.arrivals().len());
        for (from, row) in self.cursors.iter_mut().enumerate() {
            if from == id {
                row.iter_mut().for_each(|c| *c = (*c).min(len));
            } else {
                row[id] = 0;
            }
        }
    }

    /// Never at interval 0: no clock will start a round.
    fn has_unsent(&self, node: &Node<A>) -> bool {
        if self.interval == 0 {
            return false;
        }
        let (id, len) = (usize::from(node.id.0), node.log.arrivals().len());
        match self.cursors.get(id) {
            Some(row) => row.iter().enumerate().any(|(p, &c)| p != id && c < len),
            // Before the first round everything is unsent.
            None => len > 0,
        }
    }

    fn wants(&self, app: &A, node: NodeId, update: &A::Update) -> bool {
        self.placement.wants(app, node, update)
    }
}
