//! The undo/redo merge engine (§1.2, §3.3).
//!
//! "Since messages about different transactions could arrive at a single
//! node out of timestamp order, keeping the copy correct entails frequent
//! undoing and redoing of transactions. The SHARD system uses an
//! undo-redo strategy in lieu of any other inter-node concurrency control
//! mechanism."
//!
//! A [`MergeLog`] keeps the updates a node knows, sorted by timestamp,
//! together with the state that results from applying them in order to
//! the initial state. In-order arrivals are a cheap append. An
//! out-of-order arrival rolls the state back to the nearest earlier
//! **checkpoint** and replays — the optimization of \[BK\]/\[SKS\] ("using
//! history information to process delayed database updates"). The
//! checkpoint sequence is the same [`Checkpoints`] structure the core
//! replay engine uses ([`shard_core::replay`]); its interval is the
//! ablation knob of experiment E11. Updates are held behind [`Arc`] so a
//! broadcast fans an update out to peers by reference count, not by deep
//! clone. [`MergeMetrics`] counts appends, insertions and replayed
//! updates so the undo/redo volume is measurable.

use crate::clock::Timestamp;
use crate::known::KnownSet;
use shard_core::replay::note_state_clone;
use shard_core::{Application, Checkpoints};
use std::sync::Arc;

/// Registers the merge log's global metrics — totals across every node
/// of every simulation in the process — together (see
/// `shard_obs::counter!`): `merge.appends` / `merge.out_of_order` /
/// `merge.duplicates` mirror [`MergeMetrics`], and the histogram
/// `merge.replay_depth` records the undo/redo depth of each
/// out-of-order merge — the quantity the paper's checkpoint discussion
/// (§1.2, \[BK\]/\[SKS\]) is about bounding. `replay.ckpt_hits` /
/// `replay.ckpt_misses` are *shared* with the core replay engine
/// ([`shard_core::replay`]) on purpose: both paths resolve the identical
/// question against the same [`Checkpoints`] structure — can this replay
/// resume from a snapshot, or must it restart from the initial state?
fn family() {
    let r = shard_obs::Registry::global();
    for name in [
        "merge.appends",
        "merge.out_of_order",
        "merge.duplicates",
        "replay.ckpt_hits",
        "replay.ckpt_misses",
    ] {
        r.counter(name);
    }
    r.histogram("merge.replay_depth");
}

/// How a single merge landed in a [`MergeLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The timestamp was already known; nothing changed.
    Duplicate,
    /// The update extended the log in timestamp order (cheap path).
    Appended,
    /// The update landed in the middle of the log; `replayed` updates
    /// were re-applied to repair history.
    OutOfOrder {
        /// Updates re-applied during the undo/redo.
        replayed: u64,
    },
}

impl MergeOutcome {
    /// Whether the update was new to the log.
    pub fn is_new(&self) -> bool {
        !matches!(self, MergeOutcome::Duplicate)
    }
}

/// Counters describing how much undo/redo work a node performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeMetrics {
    /// Updates that arrived in timestamp order (cheap path).
    pub appends: u64,
    /// Updates that arrived out of order (forced an undo/redo).
    pub out_of_order: u64,
    /// Total updates re-applied during undo/redo replays.
    pub replayed: u64,
    /// Duplicate deliveries ignored.
    pub duplicates: u64,
}

impl MergeMetrics {
    /// Total updates merged (appends + out-of-order insertions).
    pub fn merged(&self) -> u64 {
        self.appends + self.out_of_order
    }
}

/// A node's copy of the database: the timestamp-ordered update log and
/// the state reflecting all of it, maintained by undo/redo with
/// checkpointing.
///
/// # Examples
///
/// Out-of-order arrivals are merged by timestamp, never by arrival:
///
/// ```
/// use shard_apps::airline::{AirlineUpdate, FlyByNight};
/// use shard_apps::Person;
/// use shard_sim::{MergeLog, NodeId, Timestamp};
///
/// let app = FlyByNight::new(5);
/// let mut log = MergeLog::new(&app, 32);
/// let ts = |l| Timestamp { lamport: l, node: NodeId(0) };
/// // The move-up arrives before the request it depends on…
/// log.merge(&app, ts(2), AirlineUpdate::MoveUp(Person(1)));
/// assert!(!log.state().is_assigned(Person(1)));
/// // …and the late request triggers an undo/redo that repairs history.
/// log.merge(&app, ts(1), AirlineUpdate::Request(Person(1)));
/// assert!(log.state().is_assigned(Person(1)));
/// assert_eq!(log.metrics().out_of_order, 1);
/// ```
#[derive(Debug)]
pub struct MergeLog<A: Application> {
    entries: Vec<(Timestamp, Arc<A::Update>)>,
    state: A::State,
    checkpoints: Checkpoints<A::State>,
    metrics: MergeMetrics,
    /// The entry timestamps as a persistent set, maintained merge by
    /// merge so [`MergeLog::known_set`] snapshots it in O(1).
    known: KnownSet,
    /// Every entry in **merge order** (append-only, sharing the log's
    /// `Arc`s) — cursors into this vector are how the WAL mirror
    /// ([`crate::NodeMirror`]) and anti-entropy ([`crate::Gossip`], a
    /// cursor per peer) find "everything merged since my last visit"
    /// without scanning or searching the log.
    arrivals: Vec<(Timestamp, Arc<A::Update>)>,
}

impl<A: Application> MergeLog<A> {
    /// A fresh log whose state is the application's initial state.
    /// `checkpoint_every` controls snapshot density: 1 snapshots after
    /// every update (fast replays, heavy memory), large values approach
    /// replay-from-scratch.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_every` is zero.
    pub fn new(app: &A, checkpoint_every: usize) -> Self {
        MergeLog {
            entries: Vec::new(),
            state: app.initial_state(),
            checkpoints: Checkpoints::new(checkpoint_every),
            metrics: MergeMetrics::default(),
            known: KnownSet::new(),
            arrivals: Vec::new(),
        }
    }

    /// The current merged state — "each node's copy of the database
    /// always reflects the effects of all the transactions known to that
    /// node, as if they were run according to the global timestamp
    /// order".
    pub fn state(&self) -> &A::State {
        &self.state
    }

    /// Consumes the log, yielding its merged state without a clone.
    pub fn into_state(self) -> A::State {
        self.state
    }

    /// The known updates in timestamp order. Updates are `Arc`-shared:
    /// forwarding one to a peer costs a reference-count bump.
    pub fn entries(&self) -> &[(Timestamp, Arc<A::Update>)] {
        &self.entries
    }

    /// The known timestamps as a persistent set: cloning the returned
    /// reference is O(1) and shares structure with the log's future —
    /// this is the per-execute snapshot §3's conditions are checked
    /// against.
    pub fn known_set(&self) -> &KnownSet {
        &self.known
    }

    /// Every entry in merge (arrival) order. Append-only: a consumer
    /// that remembers an index `i` can later read `arrivals()[i..]` to
    /// learn exactly what merged in between — the basis of the WAL
    /// mirror and of delta propagation.
    pub fn arrivals(&self) -> &[(Timestamp, Arc<A::Update>)] {
        &self.arrivals
    }

    /// Number of known updates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Undo/redo counters.
    pub fn metrics(&self) -> MergeMetrics {
        self.metrics
    }

    /// Whether an update with timestamp `ts` is already known.
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.entries.binary_search_by_key(&ts, |(t, _)| *t).is_ok()
    }

    /// Merges an update into the log, maintaining the invariant that
    /// [`MergeLog::state`] equals the timestamp-ordered replay of all
    /// known updates. Duplicate timestamps are ignored (redeliveries).
    /// Accepts either an owned update or an already-shared
    /// `Arc<A::Update>` (re-merging a forwarded entry costs no clone).
    /// Returns `true` if the update was new.
    pub fn merge(&mut self, app: &A, ts: Timestamp, update: impl Into<Arc<A::Update>>) -> bool {
        self.merge_with_outcome(app, ts, update).is_new()
    }

    /// [`MergeLog::merge`], reporting *how* the update landed. The
    /// kernel's tracer keys its merge events off the outcome.
    pub fn merge_with_outcome(
        &mut self,
        app: &A,
        ts: Timestamp,
        update: impl Into<Arc<A::Update>>,
    ) -> MergeOutcome {
        match self.locate(ts) {
            Ok(_) => self.note_duplicate(),
            Err(pos) if pos == self.entries.len() => self.append(app, ts, update.into()),
            Err(pos) => self.insert_and_replay(app, ts, update.into(), pos),
        }
    }

    /// Where `ts` sits in the log, or would go — `binary_search`'s
    /// answer, found by galloping back from the end, where arrivals
    /// land: O(log d) for a timestamp d entries from the end, one
    /// comparison for an append.
    fn locate(&self, ts: Timestamp) -> Result<usize, usize> {
        let entries = &self.entries;
        // Everything before `lo` sorts below `ts` once this stops.
        let (mut lo, mut step) = (entries.len(), 1);
        while lo > 0 && entries[lo - 1].0 >= ts {
            lo = lo.saturating_sub(step);
            step *= 2;
        }
        entries[lo..]
            .binary_search_by_key(&ts, |(t, _)| *t)
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// Merges a burst of deliveries, invoking `on_each` with every
    /// entry's outcome, in arrival order.
    ///
    /// Merging a burst entry by entry is quadratic twice over: every
    /// duplicate pays a binary search, and every mid-log insert pays its
    /// own undo/redo replay of the log tail — a shuffled delivery block
    /// repairs the same tail once per straggler. The batch path sorts
    /// the burst once, finds its duplicates with a single cursor walk
    /// over the log, splices every new entry that sorts below the old
    /// log end in one linear merge, repairs history with **one**
    /// undo/redo pass from the earliest insertion point, and appends
    /// the rest in timestamp order — O(batch · log batch + tail), not
    /// O(batch · tail).
    ///
    /// Log contents, final state, known set, the
    /// [`arrivals`](MergeLog::arrivals) record, each entry's outcome
    /// *kind* and the `appends` / `out_of_order` / `duplicates` tallies
    /// are exactly what the equivalent sequence of [`MergeLog::merge`]
    /// calls gives (an entry is out of order iff something the log
    /// already held or the burst delivered earlier sorts after it; a
    /// timestamp repeated within the burst is a duplicate from its
    /// second arrival on). The difference is confined to work:
    /// `MergeMetrics::replayed` counts the updates actually re-applied
    /// — at most what sequential merging re-applies — and the burst's
    /// single repair is attributed to its first
    /// `OutOfOrder { replayed }` outcome. A single-entry or ascending
    /// burst does what sequential merging does update for update,
    /// except that several stragglers share one repair. Live runs and
    /// their kernel replays share this code path, so record–replay
    /// reports agree exactly.
    pub fn merge_batch(
        &mut self,
        app: &A,
        batch: impl IntoIterator<Item = (Timestamp, Arc<A::Update>)>,
        mut on_each: impl FnMut(Timestamp, MergeOutcome),
    ) {
        #[derive(Clone, Copy, PartialEq)]
        enum Kind {
            Dup,
            App,
            Oo,
        }
        struct Delivery<U> {
            ts: Timestamp,
            /// Taken when the entry is merged, dropped when it turns
            /// out a duplicate.
            update: Option<Arc<U>>,
            kind: Kind,
        }
        let mut batch = batch.into_iter().peekable();
        let Some(first) = batch.next() else {
            return;
        };
        if batch.peek().is_none() {
            // A burst of one — every message of an eager broadcast — is
            // a sequential merge: nothing to sort, splice or tally up.
            let (ts, update) = first;
            let outcome = self.merge_with_outcome(app, ts, update);
            return on_each(ts, outcome);
        }
        // Arrival order.
        let mut burst: Vec<Delivery<A::Update>> = std::iter::once(first)
            .chain(batch)
            .map(|(ts, u)| Delivery {
                ts,
                update: Some(u),
                kind: Kind::App,
            })
            .collect();
        // The burst's positions in timestamp order (stable: a repeated
        // timestamp keeps its first arrival first).
        let mut by_ts: Vec<usize> = (0..burst.len()).collect();
        by_ts.sort_by_key(|&k| burst[k].ts);

        // Duplicates, in timestamp order: one cursor walk over the log.
        let mut cursor = self
            .entries
            .partition_point(|(t, _)| *t < burst[by_ts[0]].ts);
        let mut previous = None;
        for &k in &by_ts {
            let ts = burst[k].ts;
            while self.entries.get(cursor).is_some_and(|(t, _)| *t < ts) {
                cursor += 1;
            }
            if previous == Some(ts) || self.entries.get(cursor).is_some_and(|(t, _)| *t == ts) {
                burst[k].update = None;
                burst[k].kind = Kind::Dup;
            }
            previous = Some(ts);
        }

        // Kinds, in arrival order: what sequential merging would have
        // called each new entry, against the running log maximum.
        let old_last = self.entries.last().map(|(t, _)| *t);
        let mut running_max = old_last;
        for d in burst.iter_mut().filter(|d| d.kind != Kind::Dup) {
            if running_max.is_none_or(|m| d.ts > m) {
                running_max = Some(d.ts);
            } else {
                d.kind = Kind::Oo;
            }
        }

        // `arrivals` keeps delivery order whatever order the log takes
        // the entries in — WAL mirrors and gossip cursors read it.
        // (Only duplicates have lost their update by now.)
        self.arrivals.extend(
            burst
                .iter()
                .filter_map(|d| Some((d.ts, Arc::clone(d.update.as_ref()?)))),
        );

        // The new entries in timestamp order: those below the old log
        // end are spliced into its tail by a linear merge and repaired
        // in one undo/redo pass; the rest extend the log.
        let mut new = by_ts
            .iter()
            .filter_map(|&k| burst[k].update.take().map(|u| (burst[k].ts, u)))
            .peekable();
        let mut replayed = 0u64;
        if let Some(first) = new.peek().map(|(ts, _)| *ts) {
            if old_last.is_some_and(|last| first < last) {
                let p0 = self.entries.partition_point(|(t, _)| *t < first);
                for old in self.entries.split_off(p0) {
                    while let Some((ts, u)) = new.next_if(|(ts, _)| *ts < old.0) {
                        self.known.insert(ts);
                        self.entries.push((ts, u));
                    }
                    self.entries.push(old);
                }
                replayed = self.repair_from(app, p0);
            }
        }
        for (ts, u) in new {
            self.extend(app, ts, u);
        }

        let count = |kind: Kind| burst.iter().filter(|d| d.kind == kind).count() as u64;
        let (appends, out_of_order, duplicates) =
            (count(Kind::App), count(Kind::Oo), count(Kind::Dup));
        self.metrics.appends += appends;
        self.metrics.out_of_order += out_of_order;
        self.metrics.duplicates += duplicates;
        if shard_obs::enabled() {
            shard_obs::counter!("merge.appends", family).add(appends);
            shard_obs::counter!("merge.out_of_order", family).add(out_of_order);
            shard_obs::counter!("merge.duplicates", family).add(duplicates);
        }

        // Outcomes in arrival order; the repair's cost is attributed to
        // the burst's first out-of-order entry.
        for d in burst {
            let outcome = match d.kind {
                Kind::Dup => MergeOutcome::Duplicate,
                Kind::App => MergeOutcome::Appended,
                Kind::Oo => MergeOutcome::OutOfOrder {
                    replayed: std::mem::take(&mut replayed),
                },
            };
            on_each(d.ts, outcome);
        }
    }

    fn note_duplicate(&mut self) -> MergeOutcome {
        self.metrics.duplicates += 1;
        if shard_obs::enabled() {
            shard_obs::counter!("merge.duplicates", family).inc();
        }
        MergeOutcome::Duplicate
    }

    /// In timestamp order: apply incrementally, no clone unless a
    /// checkpoint is recorded.
    fn append(&mut self, app: &A, ts: Timestamp, update: Arc<A::Update>) -> MergeOutcome {
        self.arrivals.push((ts, Arc::clone(&update)));
        self.extend(app, ts, update);
        self.metrics.appends += 1;
        if shard_obs::enabled() {
            shard_obs::counter!("merge.appends", family).inc();
        }
        MergeOutcome::Appended
    }

    /// [`MergeLog::append`] without the tallies and the `arrivals`
    /// record.
    fn extend(&mut self, app: &A, ts: Timestamp, update: Arc<A::Update>) {
        app.apply_in_place(&mut self.state, &update);
        self.entries.push((ts, update));
        self.known.insert(ts);
        self.checkpoints
            .record_for(app, self.entries.len(), &self.state);
    }

    /// Out of order: undo back to a checkpoint ≤ pos, redo.
    fn insert_and_replay(
        &mut self,
        app: &A,
        ts: Timestamp,
        update: Arc<A::Update>,
        pos: usize,
    ) -> MergeOutcome {
        self.metrics.out_of_order += 1;
        if shard_obs::enabled() {
            shard_obs::counter!("merge.out_of_order", family).inc();
        }
        self.arrivals.push((ts, Arc::clone(&update)));
        self.entries.insert(pos, (ts, update));
        self.known.insert(ts);
        let replayed = self.repair_from(app, pos);
        MergeOutcome::OutOfOrder { replayed }
    }

    /// The undo/redo pass after entries were inserted at or past `pos`:
    /// drops the checkpoints the insertion invalidated, copies the
    /// deepest survivor over the live state, replays from there to the
    /// end of the log, and returns how many updates that re-applied.
    /// The copies land in allocations the state and the dropped
    /// checkpoints already hold.
    fn repair_from(&mut self, app: &A, pos: usize) -> u64 {
        self.checkpoints.truncate(pos);
        let base_len = match self.checkpoints.restore_last(&mut self.state) {
            Some(len) => {
                note_state_clone(app.state_size_hint(&self.state));
                len
            }
            None => {
                self.state = app.initial_state();
                0
            }
        };
        for i in base_len..self.entries.len() {
            app.apply_in_place(&mut self.state, &self.entries[i].1);
            // Recreate the checkpoints the insertion invalidated
            // so the next straggler replays only its own tail.
            if i + 1 < self.entries.len() {
                self.checkpoints.record_for(app, i + 1, &self.state);
            }
        }
        let replayed = (self.entries.len() - base_len) as u64;
        self.metrics.replayed += replayed;
        if shard_obs::enabled() {
            shard_obs::histogram!("merge.replay_depth", family).record(replayed);
            if base_len > 0 {
                shard_obs::counter!("replay.ckpt_hits", family).inc();
            } else {
                shard_obs::counter!("replay.ckpt_misses", family).inc();
            }
        }
        replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NodeId;
    use shard_core::DecisionOutcome;

    /// Append-only integer log app: state = vector of applied values, so
    /// ordering mistakes are visible.
    struct Trace;

    impl shard_core::Application for Trace {
        type State = Vec<u64>;
        type Update = u64;
        type Decision = u64;
        fn initial_state(&self) -> Vec<u64> {
            Vec::new()
        }
        fn is_well_formed(&self, _: &Vec<u64>) -> bool {
            true
        }
        fn apply_in_place(&self, s: &mut Vec<u64>, u: &u64) {
            s.push(*u);
        }
        fn decide(&self, d: &u64, _: &Vec<u64>) -> DecisionOutcome<u64> {
            DecisionOutcome::update_only(*d)
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &Vec<u64>, _: usize) -> u64 {
            0
        }
    }

    fn ts(l: u64) -> Timestamp {
        Timestamp {
            lamport: l,
            node: NodeId(0),
        }
    }

    #[test]
    fn in_order_merges_are_appends() {
        let app = Trace;
        let mut log = MergeLog::new(&app, 4);
        for i in 1..=5 {
            assert!(log.merge(&app, ts(i), i * 10));
        }
        assert_eq!(log.state(), &vec![10, 20, 30, 40, 50]);
        let m = log.metrics();
        assert_eq!(m.appends, 5);
        assert_eq!(m.out_of_order, 0);
        assert_eq!(m.replayed, 0);
        assert_eq!(m.merged(), 5);
    }

    #[test]
    fn out_of_order_merge_reorders_by_timestamp() {
        let app = Trace;
        let mut log = MergeLog::new(&app, 4);
        log.merge(&app, ts(1), 10);
        log.merge(&app, ts(3), 30);
        log.merge(&app, ts(2), 20); // late arrival
        assert_eq!(log.state(), &vec![10, 20, 30]);
        assert_eq!(log.metrics().out_of_order, 1);
        assert!(log.metrics().replayed >= 2);
    }

    #[test]
    fn duplicates_are_ignored() {
        let app = Trace;
        let mut log = MergeLog::new(&app, 4);
        assert!(log.merge(&app, ts(1), 10));
        assert!(!log.merge(&app, ts(1), 10));
        assert_eq!(log.len(), 1);
        assert_eq!(log.metrics().duplicates, 1);
    }

    #[test]
    fn merging_shared_arcs_does_not_clone() {
        let app = Trace;
        let mut a = MergeLog::new(&app, 4);
        a.merge(&app, ts(1), 10);
        // Forward node a's entry to node b the way the cluster does:
        // share the Arc, no deep copy of the update.
        let mut b = MergeLog::new(&app, 4);
        let (t, u) = a.entries()[0].clone();
        assert!(b.merge(&app, t, Arc::clone(&u)));
        assert!(Arc::ptr_eq(&u, &b.entries()[0].1));
        assert_eq!(b.state(), &vec![10]);
    }

    #[test]
    fn checkpoints_bound_replay_work() {
        let app = Trace;
        // Dense checkpoints: replay after a late insert near the end
        // touches only the tail.
        let mut dense = MergeLog::new(&app, 2);
        let mut sparse = MergeLog::new(&app, 1000);
        for i in 0..100u64 {
            let t = 2 * i + 2; // even lamports, leaving odd gaps
            dense.merge(&app, ts(t), t);
            sparse.merge(&app, ts(t), t);
        }
        // A very late straggler with an early timestamp.
        dense.merge(&app, ts(1), 1);
        sparse.merge(&app, ts(1), 1);
        assert_eq!(dense.state(), sparse.state());
        assert!(
            dense.metrics().replayed >= 100,
            "early insert replays everything"
        );
        // A straggler near the end is cheap for the dense log only.
        dense.merge(&app, ts(199), 199);
        sparse.merge(&app, ts(199), 199);
        assert_eq!(dense.state(), sparse.state());
        let dense_tail = dense.metrics().replayed;
        let sparse_tail = sparse.metrics().replayed;
        assert!(
            dense_tail < sparse_tail,
            "dense={dense_tail} sparse={sparse_tail}"
        );
    }

    #[test]
    fn state_always_equals_full_replay() {
        // Adversarial arrival order; invariant checked after every merge.
        let app = Trace;
        let mut log = MergeLog::new(&app, 3);
        let order = [7u64, 2, 9, 1, 8, 3, 6, 4, 5, 10];
        for (i, &l) in order.iter().enumerate() {
            log.merge(&app, ts(l), l);
            let mut expect = app.initial_state();
            for (_, u) in log.entries() {
                expect = app.apply(&expect, u);
            }
            assert_eq!(log.state(), &expect, "after {} merges", i + 1);
            // Entries stay sorted.
            assert!(log.entries().windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert_eq!(log.known_set().to_vec().len(), 10);
        assert!(log.contains(ts(7)));
        assert!(!log.contains(ts(77)));
        assert_eq!(log.into_state(), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_checkpoint_interval_panics() {
        let _ = MergeLog::new(&Trace, 0);
    }

    #[test]
    fn outcomes_classify_each_merge() {
        let app = Trace;
        let mut log = MergeLog::new(&app, 4);
        assert_eq!(
            log.merge_with_outcome(&app, ts(1), 10),
            MergeOutcome::Appended
        );
        assert_eq!(
            log.merge_with_outcome(&app, ts(3), 30),
            MergeOutcome::Appended
        );
        assert_eq!(
            log.merge_with_outcome(&app, ts(2), 20),
            MergeOutcome::OutOfOrder { replayed: 3 }
        );
        assert_eq!(
            log.merge_with_outcome(&app, ts(2), 20),
            MergeOutcome::Duplicate
        );
        assert!(MergeOutcome::Appended.is_new());
        assert!(!MergeOutcome::Duplicate.is_new());
    }

    /// Merges `bursts` one `merge_batch` each into one log and entry by
    /// entry into another, and holds the batch path to everything but
    /// work: state, entries, known set, arrival record, per-entry outcome
    /// kinds and the non-`replayed` tallies are equal after every burst,
    /// and the batch path never re-applies more. Returns both logs'
    /// `replayed`.
    fn assert_batches_match_sequential(every: usize, bursts: &[Vec<u64>]) -> (u64, u64) {
        let app = Trace;
        let mut sequential = MergeLog::new(&app, every);
        let mut batched = MergeLog::new(&app, every);
        for burst in bursts {
            let burst: Vec<(Timestamp, Arc<u64>)> =
                burst.iter().map(|&l| (ts(l), Arc::new(l))).collect();
            let expected: Vec<MergeOutcome> = burst
                .iter()
                .map(|(t, u)| sequential.merge_with_outcome(&app, *t, Arc::clone(u)))
                .collect();
            let mut got = Vec::new();
            let replayed_before = batched.metrics().replayed;
            batched.merge_batch(&app, burst.iter().cloned(), |t, o| got.push((t, o)));
            assert_eq!(
                got.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
                burst.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
                "outcomes come back in arrival order"
            );
            for ((_, g), e) in got.iter().zip(&expected) {
                assert_eq!(
                    std::mem::discriminant(g),
                    std::mem::discriminant(e),
                    "interval {every}, burst {burst:?}: {got:?} vs {expected:?}"
                );
            }
            assert_eq!(batched.state(), sequential.state());
            assert_eq!(batched.entries(), sequential.entries());
            assert_eq!(batched.known_set(), sequential.known_set());
            // Timestamps and carried updates, and each carried update is
            // the log's own allocation for that timestamp.
            assert_eq!(batched.arrivals(), sequential.arrivals());
            let log = batched.entries();
            assert!(batched
                .arrivals()
                .iter()
                .all(|(t, u)| log.iter().any(|(lt, lu)| lt == t && Arc::ptr_eq(lu, u))));
            let (b, s) = (batched.metrics(), sequential.metrics());
            assert_eq!(
                (b.appends, b.out_of_order, b.duplicates),
                (s.appends, s.out_of_order, s.duplicates)
            );
            assert!(b.replayed <= s.replayed, "{} > {}", b.replayed, s.replayed);
            // The outcomes account for the burst's share of the tally.
            let reported: u64 = got
                .iter()
                .map(|(_, o)| match o {
                    MergeOutcome::OutOfOrder { replayed } => *replayed,
                    _ => 0,
                })
                .sum();
            assert_eq!(reported, b.replayed - replayed_before);
        }
        (batched.metrics().replayed, sequential.metrics().replayed)
    }

    #[test]
    fn batch_path_is_identical_to_entry_at_a_time() {
        // Adversarial burst: in-order run, straggler, in-burst
        // duplicate, another in-order run, a straggler below everything.
        for every in [1, 3, 1000] {
            assert_batches_match_sequential(every, &[vec![5, 6, 7, 2, 5, 8, 9, 1, 10]]);
            // Out of order only against the burst itself: nothing sorts
            // below the old log end, so nothing is re-applied at all.
            let (batched, _) = assert_batches_match_sequential(every, &[vec![1, 2], vec![9, 4, 7]]);
            assert_eq!(batched, 0);
        }
        // Shuffled delivery blocks with redeliveries, over a growing log
        // (what `audit-inmem` ingests): displacement < 16, every fifth
        // delivery repeated somewhere later in its block.
        let mut state = 0x5EED_u64;
        let mut below = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let bursts: Vec<Vec<u64>> = (0..40u64)
            .map(|b| {
                let mut block: Vec<u64> = (16 * b + 1..=16 * b + 16).collect();
                for i in (1..block.len()).rev() {
                    block.swap(i, below(i as u64 + 1) as usize);
                }
                for i in (0..block.len()).step_by(5) {
                    let at = i + 1 + below((block.len() - i) as u64) as usize;
                    block.insert(at, block[i]);
                }
                block
            })
            .collect();
        for every in [1, 7, 64, 1000] {
            let (batched, sequential) = assert_batches_match_sequential(every, &bursts);
            assert!(batched < sequential, "{batched} vs {sequential}");
        }
    }

    #[test]
    fn single_entry_and_ascending_bursts_repair_like_sequential_merging() {
        // One delivery per burst, and ascending bursts carrying at most
        // one straggler, must re-apply exactly what `merge` re-applies
        // (the kernel's pinned `total_replayed` rides on this).
        let singles: Vec<Vec<u64>> = [7u64, 2, 9, 1, 8, 3, 6, 4, 5, 10, 3]
            .iter()
            .map(|&l| vec![l])
            .collect();
        let ascending = vec![
            vec![10, 20, 30],
            vec![5, 10, 40, 50],
            vec![45, 60],
            vec![70],
        ];
        for every in [1, 2, 4, 1000] {
            for bursts in [&singles, &ascending] {
                let (batched, sequential) = assert_batches_match_sequential(every, bursts);
                assert_eq!(batched, sequential, "interval {every}");
            }
        }
    }

    #[test]
    fn multiple_stragglers_in_one_run_share_a_single_repair() {
        // A run with several mid-log inserts ([2, 4, 6] into
        // [1, 3, 5, 7, 9]) converges to the same log, state, and
        // outcome kinds as sequential merging, but pays one undo/redo
        // pass instead of three.
        let app = Trace;
        let seed = [1u64, 3, 5, 7, 9];
        let burst: Vec<(Timestamp, Arc<u64>)> =
            [2u64, 4, 6].iter().map(|&l| (ts(l), Arc::new(l))).collect();

        let mut sequential = MergeLog::new(&app, 2);
        let mut batched = MergeLog::new(&app, 2);
        for &l in &seed {
            sequential.merge(&app, ts(l), Arc::new(l));
            batched.merge(&app, ts(l), Arc::new(l));
        }
        for (t, u) in &burst {
            sequential.merge_with_outcome(&app, *t, Arc::clone(u));
        }
        let mut got = Vec::new();
        batched.merge_batch(&app, burst.iter().cloned(), |_, o| got.push(o));

        assert_eq!(batched.state(), sequential.state());
        assert_eq!(batched.entries(), sequential.entries());
        assert_eq!(batched.known_set(), sequential.known_set());
        assert!(got
            .iter()
            .all(|o| matches!(o, MergeOutcome::OutOfOrder { .. })));
        // The repair cost lands on the run's first straggler; the rest
        // ride along for free.
        assert_eq!(
            got[1..]
                .iter()
                .map(|o| match o {
                    MergeOutcome::OutOfOrder { replayed } => *replayed,
                    _ => unreachable!(),
                })
                .sum::<u64>(),
            0
        );
        let (b, s) = (batched.metrics(), sequential.metrics());
        assert_eq!(b.out_of_order, s.out_of_order);
        assert_eq!(b.appends, s.appends);
        assert_eq!(b.duplicates, s.duplicates);
        assert!(
            b.replayed < s.replayed,
            "one repair ({}) must beat three ({})",
            b.replayed,
            s.replayed
        );
    }
}
