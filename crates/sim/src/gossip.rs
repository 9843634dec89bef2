//! Anti-entropy gossip — the \[GLBKSS\]-style alternative to per-update
//! flooding ([`crate::cluster`]), as one strategy: [`Gossip`]. Each node
//! periodically hands its partners what they have not been offered yet:
//! per-round (not per-update) message cost, at the price of a larger
//! `k`. E17 measures that trade, E20 the same over partial replication.
//! At interval 0 the round runs at each execution instead: §3.3's
//! "piggybacking information about known transactions on messages",
//! cut to what the peer lacks.
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
use crate::events::SimTime;
use crate::kernel::{Entries, Node, Propagation};
use crate::partial::Placement;
use crate::transport::Transport;
use rand::Rng;
use shard_core::{Application, ObjectModel};
use std::sync::Arc;

/// Anti-entropy propagation: every `interval` ticks, and never at
/// execution time, each live node hands each partner the entries merged
/// since that partner was last served, sorted by timestamp and, under a
/// [`Placement`], narrowed to what the partner holds (plus empty-write
/// updates). A run ends when no node has anything unsent.
///
/// **Interval 0 means no clock: the same round runs at each of the
/// node's executions**, right after it merged its own update — §3.3's
/// transitive flooding. Nothing then counts as unsent; what a node
/// merges travels on with its next execution, and
/// [`crate::RunReport::missing`] names what no later execution carried.
/// So each origin must reach every peer itself: a round at interval 0
/// below full fanout panics.
///
/// Partners are all peers in node order, with no RNG draw, when `fanout
/// ≥ nodes − 1`; otherwise `fanout` uniform random ones. Full fanout is
/// therefore deterministic given the local replica (`shard-runtime
/// --mode gossip` needs that), and `Gossip::new(1, nodes)` degenerates
/// to flooding — `tests/strategy_equivalence.rs` holds it to that, and
/// `Gossip::new(0, nodes − 1)` to whole-log piggybacking on FIFO links.
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
pub struct Gossip<F = ()> {
    /// How often each node initiates an anti-entropy round; 0: at each
    /// of its executions.
    pub interval: SimTime,
    /// Number of partners served per round.
    pub fanout: u16,
    /// Who is offered what: `()` or a [`Placement`] ([`Gossip::over`]).
    pub placement: F,
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
            placement: (),
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

/// Whom a batch is for (`()`: everyone, everything) — private, and there
/// to carry the [`ObjectModel`] bound only a [`Placement`] needs.
mod audience {
    pub trait Audience<A: super::Application> {
        fn wants(&self, app: &A, node: super::NodeId, update: &A::Update) -> bool;
    }
}
use audience::Audience;

impl<A: Application> Audience<A> for () {
    fn wants(&self, _app: &A, _node: NodeId, _update: &A::Update) -> bool {
        true
    }
}

impl<A: ObjectModel> Audience<A> for Placement {
    fn wants(&self, app: &A, node: NodeId, update: &A::Update) -> bool {
        Placement::wants(self, app, node, update)
    }
}

impl<A: Application, F: Audience<A>> Propagation<A> for Gossip<F> {
    fn label(&self) -> &'static str {
        "gossip"
    }

    fn tick_interval(&self) -> Option<SimTime> {
        (self.interval > 0).then_some(self.interval)
    }

    fn ordered_links(&self) -> bool {
        true
    }

    fn on_execute(
        &mut self,
        app: &A,
        net: &mut dyn Transport<A>,
        node: &Node<A>,
        now: SimTime,
        _ts: Timestamp,
        _update: &Arc<A::Update>,
    ) {
        if self.interval == 0 {
            self.on_tick(app, net, node, now);
        }
    }

    fn on_tick(&mut self, app: &A, net: &mut dyn Transport<A>, node: &Node<A>, now: SimTime) {
        let n = net.nodes();
        if self.cursors.len() < usize::from(n) {
            self.cursors.resize(usize::from(n), vec![0; usize::from(n)]);
        }
        let row = &mut self.cursors[usize::from(node.id.0)];
        let arrivals = node.log.arrivals();
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
            if peer == node.id || cursor == arrivals.len() {
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
