//! Incremental, checkpointed state computation — the *replay engine*.
//!
//! Everything in the paper is defined by replaying update sequences from
//! the initial state: apparent states replay a prefix subsequence `𝒫ᵢ`,
//! actual states replay the full serial order, cost bounds replay kept
//! subsequences, and the undo/redo merge of §1.2 replays a timestamped
//! log. The seed implementation recomputed each of these from scratch on
//! every query, which made whole-execution checkers (verify, grouping
//! discovery, k-completeness sweeps) quadratic in the execution length.
//!
//! This module centralizes state computation in one place:
//!
//! * [`Checkpoints`] — the one sparse, strictly increasing sequence of
//!   `(updates applied, state)` pairs recorded every `interval` updates,
//!   all in RAM. Shared verbatim by the simulator's undo/redo merge log,
//!   where the interval is the checkpoint-spacing ablation knob
//!   (experiment E11).
//! * `ReplayCache` *(crate-private)* — the memo owned by every
//!   [`Execution`](crate::execution::Execution): checkpoints along the
//!   full serial order for actual-state queries, plus checkpoints along
//!   the **most recent replay path** for prefix-subsequence queries.
//!   A query for a new prefix resumes from the deepest checkpoint at or
//!   below the longest shared prefix with the previous path, so a sweep
//!   of near-identical prefixes (exactly what `verify`, grouping
//!   discovery and k-completeness checkers produce) costs
//!   `O(changed suffix + interval)` per query instead of `O(n)`.
//! * [`Replayer`] — the public face of the same cache over a bare update
//!   sequence. Its callers are tests: `tests/replay_equivalence.rs`
//!   holds every query's [`ReplayStats`] against a list model through
//!   it.
//!
//! Rows are not this module's business: the store-backed execution
//! ([`StreamingExecution`](crate::stream::StreamingExecution)) and its
//! row codec live in [`crate::stream`], next to the row they store.
//!
//! Streaming (`fold`-style) traversal of all actual states lives on
//! `Execution` itself
//! ([`fold_actual_states`](crate::execution::Execution::fold_actual_states) /
//! [`for_each_actual_state`](crate::execution::Execution::for_each_actual_state));
//! it is a plain forward pass and deliberately does not touch the cache,
//! so callbacks may re-enter other state queries freely.

use crate::app::Application;
use crate::execution::{Prefix, TxnIndex};

/// Registers the replay engine's global metrics together, the first
/// time any of them is touched, so a sidecar lists the whole family —
/// at zero where nothing fired — rather than only the members that did.
///
/// * `replay.queries` / `replay.applied` / `replay.reused` — the global
///   equivalents of [`ReplayStats`] across every cache in the process.
/// * `replay.ckpt_hits` / `replay.ckpt_misses` — queries that resumed
///   from a checkpoint or cached tip vs. from the initial state.
/// * `replay.lcp` — histogram of the longest-common-prefix length each
///   prefix query shared with its predecessor (the reuse opportunity).
/// * `replay.in_place_applies` — updates advanced via
///   [`Application::apply_in_place`] on a state the fold owns.
/// * `state.clone_count` / `state.clone_bytes` — full state snapshots
///   cloned (checkpoint records, cached tips) and their cost per
///   [`Application::state_size_hint`]. The clone-budget CI gate watches
///   `state.clone_bytes`; a snapshot-copying regression moves it first.
/// * `state.peak_resident_bytes` — the high-watermark of what the
///   out-of-core merge holds in RAM, raised by `shard-sim`'s
///   `StreamingMerge`; registered here so every sidecar lists it.
fn family() {
    let r = shard_obs::Registry::global();
    for name in [
        "replay.queries",
        "replay.applied",
        "replay.reused",
        "replay.ckpt_hits",
        "replay.ckpt_misses",
        "replay.in_place_applies",
        "state.clone_count",
        "state.clone_bytes",
    ] {
        r.counter(name);
    }
    r.histogram("replay.lcp");
    r.gauge("state.peak_resident_bytes");
}

/// Records that a full state snapshot was cloned somewhere in the
/// state layer — a checkpoint record, a cached tip, a resume copy.
/// `bytes` comes from [`Application::state_size_hint`]. Feeds the
/// `state.clone_count` / `state.clone_bytes` counters; no-op while the
/// obs layer is disabled. Public because the simulator's merge log
/// clones against the same budget.
pub fn note_state_clone(bytes: usize) {
    if shard_obs::enabled() {
        shard_obs::counter!("state.clone_count", family).inc();
        shard_obs::counter!("state.clone_bytes", family).add(bytes as u64);
    }
}

/// Records `count` updates advanced via
/// [`Application::apply_in_place`] (counter
/// `replay.in_place_applies`). Public for the same reason as
/// [`note_state_clone`].
pub fn note_in_place_applies(count: u64) {
    if shard_obs::enabled() {
        shard_obs::counter!("replay.in_place_applies", family).add(count);
    }
}

/// Accounts one cache query that resumed `reused` updates deep and
/// applies `applied` more, in place.
fn note_query(reused: usize, applied: usize) {
    if shard_obs::enabled() {
        shard_obs::counter!("replay.queries", family).inc();
        shard_obs::counter!("replay.reused", family).add(reused as u64);
        shard_obs::counter!("replay.applied", family).add(applied as u64);
        shard_obs::counter!("replay.in_place_applies", family).add(applied as u64);
        if reused > 0 {
            shard_obs::counter!("replay.ckpt_hits", family).inc();
        } else {
            shard_obs::counter!("replay.ckpt_misses", family).inc();
        }
    }
}

/// Default spacing, in applied updates, between state checkpoints.
///
/// Matches the simulator's default merge-log checkpoint interval, so the
/// core replay cache and the undo/redo log have the same replay-depth
/// bound out of the box.
pub const DEFAULT_CHECKPOINT_INTERVAL: usize = 32;

/// Cumulative counters describing how much work the replay engine did —
/// and, via `reused`, how much from-scratch work it avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// State queries answered.
    pub queries: u64,
    /// Updates actually applied while answering them.
    pub applied: u64,
    /// Updates *not* re-applied because a checkpoint or cached tip
    /// already covered them. A from-scratch engine would have
    /// `applied + reused` applications.
    pub reused: u64,
}

/// The sequence of prefix-state checkpoints: strictly increasing
/// `(updates applied, state)` pairs, recorded at most every `interval`
/// updates, all in RAM.
///
/// This is the structure the paper's §1.2 merge discussion attributes to
/// \[BK\]/\[SKS\]: keep periodic snapshots so that undoing to a timestamp
/// means dropping the invalidated suffix of checkpoints and redoing from
/// the deepest survivor. The one type serves the replay cache of
/// [`Replayer`] and `Execution`, and the simulator's merge log.
///
/// With structurally-shared states (e.g. [`crate::pmap::PMap`]-backed),
/// consecutive recorded snapshots share all but the nodes touched since
/// the previous record — the sequence is then a **delta chain**: each
/// link costs O(delta) memory, not O(state).
pub struct Checkpoints<S> {
    every: usize,
    /// The points, ascending by depth.
    points: Vec<(usize, S)>,
    /// States of points [`truncate`](Checkpoints::truncate) dropped,
    /// kept — at most `SPARE_STATES` — for the records that redo those
    /// depths to copy into with `clone_from`, reusing their allocations.
    spare: Vec<S>,
}

/// Most dropped checkpoint states a [`Checkpoints`] keeps for reuse. A
/// repair re-records the depths its undo dropped, so a few spares serve
/// it; the bound keeps a deep undo from holding on to many states.
const SPARE_STATES: usize = 4;

impl<S> std::fmt::Debug for Checkpoints<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoints")
            .field("every", &self.every)
            .field("points", &self.points.len())
            .finish()
    }
}

impl<S> Checkpoints<S> {
    /// Creates an empty checkpoint sequence recording every `every`
    /// applied updates.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0` (checkpoint interval must be positive).
    pub fn new(every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Checkpoints {
            every,
            points: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The configured spacing between checkpoints, in applied updates.
    pub fn interval(&self) -> usize {
        self.every
    }

    /// Checkpoints currently stored.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no checkpoints are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Drops all checkpoints, keeping the interval.
    pub fn clear(&mut self) {
        // Every recorded depth is at least the (positive) interval.
        self.truncate(0);
    }

    /// The depth (applied-update count) of the deepest checkpoint, or 0.
    pub fn last_len(&self) -> usize {
        self.points.last().map_or(0, |&(l, _)| l)
    }

    /// Drops every checkpoint deeper than `keep` applied updates — the
    /// *undo* half of undo/redo: checkpoints past an insertion point are
    /// invalidated, those at or before it survive. A few dropped states
    /// are kept for the redo's records to reuse.
    pub fn truncate(&mut self, keep: usize) {
        while self.points.last().is_some_and(|&(l, _)| l > keep) {
            let (_, state) = self.points.pop().expect("a deeper point");
            if self.spare.len() < SPARE_STATES {
                self.spare.push(state);
            }
        }
    }
}

impl<S: Clone> Checkpoints<S> {
    /// Records `state` as the checkpoint after `len` applied updates if
    /// the deepest checkpoint is at least `interval` updates back (an
    /// empty sequence counts as a checkpoint at depth 0). Calls with
    /// `len` at or below the deepest checkpoint are no-ops — replaying
    /// *between* existing checkpoints records nothing new. Returns
    /// whether a checkpoint was stored; the clone is not accounted (see
    /// [`Checkpoints::record_for`]).
    pub fn record(&mut self, len: usize, state: &S) -> bool {
        if len < self.last_len() + self.every {
            return false;
        }
        let point = match self.spare.pop() {
            Some(mut spare) => {
                spare.clone_from(state);
                spare
            }
            None => state.clone(),
        };
        self.points.push((len, point));
        true
    }

    /// [`record`](Checkpoints::record)s a state of `app`, accounting
    /// the clone ([`note_state_clone`]) if one is taken.
    pub fn record_for<A>(&mut self, app: &A, len: usize, state: &S) -> bool
    where
        A: Application<State = S>,
    {
        let stored = self.record(len, state);
        if stored {
            note_state_clone(app.state_size_hint(state));
        }
        stored
    }

    /// Copies the deepest checkpoint into `state` — with `clone_from`,
    /// so a state type that can reuses `state`'s allocation — and
    /// returns its depth. `None`, with `state` untouched, if there is no
    /// checkpoint. The copy is not accounted (see [`note_state_clone`]).
    pub fn restore_last(&self, state: &mut S) -> Option<usize> {
        let (depth, point) = self.points.last()?;
        state.clone_from(point);
        Some(*depth)
    }

    /// The deepest checkpoint at or below `limit` applied updates —
    /// the best place to resume a replay targeting depth `limit`.
    pub fn floor(&self, limit: usize) -> Option<(usize, S)> {
        let idx = self.points.partition_point(|&(l, _)| l <= limit);
        idx.checked_sub(1).map(|i| self.points[i].clone())
    }
}

/// The memo behind all incremental state queries.
///
/// Holds two checkpoint sequences plus a cached "tip" for each:
///
/// * `full` — checkpoints along the full serial order `A₀ … Aₙ₋₁`,
///   serving actual-state queries. Executions are append-only, so these
///   never invalidate.
/// * `path` / `path_ckpts` — the index path of the most recent
///   prefix-subsequence replay and checkpoints along it. A new query
///   resumes from the deepest checkpoint at or below the longest prefix
///   shared with `path`.
#[derive(Debug)]
pub(crate) struct ReplayCache<A: Application> {
    /// Index path of the most recent prefix replay.
    path: Prefix,
    /// Checkpoints along `path`, keyed by depth *into the path*.
    path_ckpts: Checkpoints<A::State>,
    /// State after applying all of `path`, if known.
    path_tip: Option<A::State>,
    /// Checkpoints along the full serial order, keyed by prefix length.
    full: Checkpoints<A::State>,
    /// Deepest full-order state computed so far `(prefix length, state)`.
    full_tip: Option<(usize, A::State)>,
    stats: ReplayStats,
}

impl<A: Application> ReplayCache<A> {
    pub(crate) fn new(every: usize) -> Self {
        ReplayCache {
            path: Prefix::default(),
            path_ckpts: Checkpoints::new(every),
            path_tip: None,
            full: Checkpoints::new(every),
            full_tip: None,
            stats: ReplayStats::default(),
        }
    }

    pub(crate) fn interval(&self) -> usize {
        self.path_ckpts.interval()
    }

    pub(crate) fn stats(&self) -> ReplayStats {
        self.stats
    }

    /// The state after applying the updates selected by `prefix`
    /// (in order) to the initial state. `update_at(j)` supplies `Aⱼ`.
    ///
    /// Resumes from the deepest cached point at or below the longest
    /// prefix shared with the previous query's path.
    pub(crate) fn state_after_prefix<'u>(
        &mut self,
        app: &A,
        update_at: impl Fn(TxnIndex) -> &'u A::Update,
        prefix: &Prefix,
    ) -> A::State
    where
        A::Update: 'u,
    {
        self.stats.queries += 1;
        // Longest common prefix with the previous path, in members.
        // Whole-execution sweeps ask ~n queries whose shared head is ~n
        // long; walking the two run lists costs O(runs), where comparing
        // members was the last O(n²) term of a sweep.
        let lcp = prefix.common_len(&self.path);
        // Deepest path-based resume point.
        let path_resume: (usize, Option<A::State>) =
            if lcp == self.path.len() && self.path_tip.is_some() {
                // The previous path is a prefix of this query: extend its tip.
                (lcp, self.path_tip.clone())
            } else {
                match self.path_ckpts.floor(lcp) {
                    Some((l, s)) => (l, Some(s)),
                    None => (0, None),
                }
            };
        // The query's leading *serial run* — members `0, 1, 2, …` — walks
        // the full order itself, so full-order checkpoints (e.g. prebuilt
        // by `state_after_first`) are equally valid resume points for it.
        // This is what lets many fresh caches share one warmed full
        // chain instead of each replaying the common prefix from `s₀`.
        let serial_run = match prefix.runs().first() {
            Some(run) if run.start == 0 => run.end,
            _ => 0,
        };
        let (depth, mut state, from_full) = match self.full_resume(serial_run) {
            Some((fl, fs)) if fl > path_resume.0 => (fl, fs, true),
            _ => match path_resume {
                (d, Some(s)) => (d, s, false),
                _ => (0, app.initial_state(), false),
            },
        };
        self.stats.reused += depth as u64;
        // Each loop iteration below applies exactly one update, in place.
        note_query(depth, prefix.len() - depth);
        if shard_obs::enabled() {
            shard_obs::histogram!("replay.lcp", family).record(lcp as u64);
        }
        if from_full {
            // The old path may disagree with the query's first `depth`
            // members (the serial run guarantees those are `0..depth`),
            // so restart the path bookkeeping from the full-order state.
            self.path_ckpts.clear();
            // Plain `record`, not `record_for`: `state.clone_count` has
            // never included this seed, and sidecar diffs pin the counter.
            self.path_ckpts.record(depth, &state);
        } else {
            self.path_ckpts.truncate(depth);
        }
        for (at, j) in prefix.iter_from(depth).enumerate() {
            app.apply_in_place(&mut state, update_at(j));
            self.stats.applied += 1;
            self.path_ckpts.record_for(app, depth + at + 1, &state);
        }
        self.path = prefix.clone();
        note_state_clone(app.state_size_hint(&state));
        self.path_tip = Some(state.clone());
        state
    }

    /// The deepest full-order resume point at or below `limit`: a
    /// checkpoint, or the cached tip where that is deeper.
    fn full_resume(&self, limit: usize) -> Option<(usize, A::State)> {
        let base = self.full.floor(limit);
        match &self.full_tip {
            Some((l, s)) if *l <= limit && *l > base.as_ref().map_or(0, |&(bl, _)| bl) => {
                Some((*l, s.clone()))
            }
            _ => base,
        }
    }

    /// The state after the first `m` updates of the serial order —
    /// `sₘ` in the paper's numbering (`s₀` for `m = 0`).
    pub(crate) fn state_after_first<'u>(
        &mut self,
        app: &A,
        update_at: impl Fn(TxnIndex) -> &'u A::Update,
        m: usize,
    ) -> A::State
    where
        A::Update: 'u,
    {
        self.stats.queries += 1;
        let (mut len, mut state) = self.full_resume(m).unwrap_or((0, app.initial_state()));
        self.stats.reused += len as u64;
        note_query(len, m - len);
        while len < m {
            app.apply_in_place(&mut state, update_at(len));
            len += 1;
            self.stats.applied += 1;
            self.full.record_for(app, len, &state);
        }
        if self.full_tip.as_ref().is_none_or(|(l, _)| *l <= m) {
            note_state_clone(app.state_size_hint(&state));
            self.full_tip = Some((m, state.clone()));
        }
        state
    }
}

/// Incremental state computation over an update sequence.
///
/// The public face of the replay cache for code that holds an update
/// sequence and asks for many related states:
/// cost-bound subsequence enumeration, checker benches, analysis sweeps.
/// Queries whose index sequences share long prefixes — which is what
/// every whole-execution sweep in this codebase produces — are answered
/// by longest-shared-prefix reuse instead of from-scratch replay.
///
/// ```
/// use shard_core::{Application, DecisionOutcome, replay::Replayer};
/// # struct Counter;
/// # #[derive(Clone, Debug, PartialEq)]
/// # struct Add(i64);
/// # impl Application for Counter {
/// #     type State = i64;
/// #     type Update = Add;
/// #     type Decision = Add;
/// #     fn initial_state(&self) -> i64 { 0 }
/// #     fn is_well_formed(&self, _: &i64) -> bool { true }
/// #     fn apply_in_place(&self, s: &mut i64, u: &Add) { *s += u.0 }
/// #     fn decide(&self, d: &Add, _: &i64) -> DecisionOutcome<Add> {
/// #         DecisionOutcome::update_only(d.clone())
/// #     }
/// #     fn constraint_count(&self) -> usize { 0 }
/// #     fn constraint_name(&self, _: usize) -> &str { unreachable!() }
/// #     fn cost(&self, _: &i64, _: usize) -> u64 { 0 }
/// # }
/// let app = Counter;
/// let updates = vec![Add(1), Add(2), Add(4)];
/// let mut replayer = Replayer::from_updates(&app, &updates);
/// assert_eq!(replayer.state_after_prefix(&[0, 2]), 5);
/// assert_eq!(replayer.state_after_prefix(&[0, 1, 2]), 7);
/// assert_eq!(replayer.final_state(), 7);
/// ```
pub struct Replayer<'a, A: Application> {
    app: &'a A,
    updates: Vec<&'a A::Update>,
    cache: ReplayCache<A>,
}

impl<'a, A: Application> Replayer<'a, A> {
    /// A replayer over an explicit update sequence, with the default
    /// checkpoint interval.
    pub fn from_updates(app: &'a A, updates: impl IntoIterator<Item = &'a A::Update>) -> Self {
        Self::from_updates_with_interval(app, updates, DEFAULT_CHECKPOINT_INTERVAL)
    }

    /// A replayer over an explicit update sequence with checkpoints every
    /// `every` applied updates.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn from_updates_with_interval(
        app: &'a A,
        updates: impl IntoIterator<Item = &'a A::Update>,
        every: usize,
    ) -> Self {
        Replayer {
            app,
            updates: updates.into_iter().collect(),
            cache: ReplayCache::new(every),
        }
    }

    /// The number of updates in the sequence.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the update sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Cumulative work counters for this replayer.
    pub fn stats(&self) -> ReplayStats {
        self.cache.stats()
    }

    /// The state after applying the updates selected by `prefix`, in the
    /// given order, to the initial state. Indices may select any
    /// subsequence (the paper's prefix subsequences and the kept sets of
    /// cost-bound instances are the intended callers); the slice becomes
    /// a [`Prefix`] here, so the cache has one path representation.
    ///
    /// # Panics
    ///
    /// Panics if the indices are not strictly increasing or any is out
    /// of range.
    pub fn state_after_prefix(&mut self, prefix: &[TxnIndex]) -> A::State {
        let prefix = prefix.iter().copied().collect();
        self.cache
            .state_after_prefix(self.app, |j| self.updates[j], &prefix)
    }

    /// The state after the first `m` updates of the sequence (`s₀` for
    /// `m = 0`), answered from full-order checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `m > self.len()`.
    pub fn state_after_first(&mut self, m: usize) -> A::State {
        assert!(
            m <= self.updates.len(),
            "state_after_first: {m} updates requested"
        );
        self.cache
            .state_after_first(self.app, |j| self.updates[j], m)
    }

    /// The state after the whole sequence.
    pub fn final_state(&mut self) -> A::State {
        self.state_after_first(self.updates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DecisionOutcome;

    /// Toy application: state is the concatenation-as-number of applied
    /// update ids, so every distinct subsequence yields a distinct state
    /// and any replay mistake is visible.
    struct Trace;

    #[derive(Clone, Debug, PartialEq)]
    struct Tag(u64);

    impl Application for Trace {
        type State = Vec<u64>;
        type Update = Tag;
        type Decision = Tag;
        fn initial_state(&self) -> Vec<u64> {
            Vec::new()
        }
        fn is_well_formed(&self, _: &Vec<u64>) -> bool {
            true
        }
        fn apply_in_place(&self, s: &mut Vec<u64>, u: &Tag) {
            s.push(u.0);
        }
        fn decide(&self, d: &Tag, _: &Vec<u64>) -> DecisionOutcome<Tag> {
            DecisionOutcome::update_only(d.clone())
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

    /// The deepest checkpoint, as `restore_last` copies it out.
    fn deepest<S: Clone + Default>(c: &Checkpoints<S>) -> Option<(usize, S)> {
        let mut state = S::default();
        c.restore_last(&mut state).map(|depth| (depth, state))
    }

    fn naive(updates: &[Tag], prefix: &[usize]) -> Vec<u64> {
        prefix.iter().map(|&j| updates[j].0).collect()
    }

    #[test]
    fn checkpoints_record_at_interval() {
        let mut c: Checkpoints<u32> = Checkpoints::new(3);
        assert!(!c.record(1, &10));
        assert!(!c.record(2, &20));
        assert!(c.record(3, &30));
        assert!(!c.record(4, &40));
        assert!(c.record(6, &60));
        assert_eq!(deepest(&c), Some((6, 60)));
        assert_eq!(c.last_len(), 6);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn checkpoints_floor_and_truncate() {
        let mut c: Checkpoints<u32> = Checkpoints::new(2);
        for len in 1..=10usize {
            c.record(len, &(len as u32 * 10));
        }
        assert_eq!(c.floor(1), None);
        assert_eq!(c.floor(5), Some((4, 40)));
        assert_eq!(c.floor(100), Some((10, 100)));
        c.truncate(5);
        assert_eq!(deepest(&c), Some((4, 40)));
        c.truncate(0);
        assert!(c.is_empty());
        assert_eq!(c.floor(100), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn checkpoints_reject_zero_interval() {
        let _ = Checkpoints::<u32>::new(0);
    }

    #[test]
    fn replayer_matches_naive_on_prefix_sweeps() {
        let app = Trace;
        let updates: Vec<Tag> = (0..100).map(Tag).collect();
        for every in [1, 2, 7, 32, 1000] {
            let mut r = Replayer::from_updates_with_interval(&app, &updates, every);
            // The sweep every whole-execution checker produces: prefix i
            // is "all of 0..i except a sliding window".
            for i in 0..updates.len() {
                let prefix: Vec<usize> = (0..i).filter(|j| !(j + 3 > i && j % 2 == 0)).collect();
                assert_eq!(
                    r.state_after_prefix(&prefix),
                    naive(&updates, &prefix),
                    "interval {every}, txn {i}"
                );
            }
        }
    }

    #[test]
    fn replayer_handles_divergent_paths() {
        let app = Trace;
        let updates: Vec<Tag> = (0..40).map(Tag).collect();
        let mut r = Replayer::from_updates_with_interval(&app, &updates, 4);
        let a: Vec<usize> = (0..30).collect();
        let b: Vec<usize> = (0..30).filter(|j| j % 3 != 1).collect();
        let c: Vec<usize> = vec![5, 7, 11];
        for prefix in [&a, &b, &c, &a, &c, &b] {
            assert_eq!(r.state_after_prefix(prefix), naive(&updates, prefix));
        }
    }

    #[test]
    fn replayer_reuses_work_across_related_queries() {
        let app = Trace;
        let updates: Vec<Tag> = (0..200).map(Tag).collect();
        let mut r = Replayer::from_updates_with_interval(&app, &updates, 8);
        let full: Vec<usize> = (0..200).collect();
        r.state_after_prefix(&full);
        let applied_first = r.stats().applied;
        // Dropping one late index shares a 150-long prefix: the second
        // query must not replay from scratch.
        let almost: Vec<usize> = (0..200).filter(|&j| j != 150).collect();
        r.state_after_prefix(&almost);
        let applied_second = r.stats().applied - applied_first;
        assert!(
            applied_second <= 200 - 150 + 8,
            "second query applied {applied_second} updates"
        );
        assert!(r.stats().reused > 0);
    }

    #[test]
    fn state_after_first_uses_full_checkpoints() {
        let app = Trace;
        let updates: Vec<Tag> = (0..100).map(Tag).collect();
        let mut r = Replayer::from_updates_with_interval(&app, &updates, 10);
        let full: Vec<usize> = (0..100).collect();
        for m in [100usize, 50, 55, 0, 99] {
            assert_eq!(r.state_after_first(m), naive(&updates, &full[..m]));
        }
        // A forward sweep after the warm-up replays only between
        // checkpoints: far less than the quadratic 100·100/2.
        let before = r.stats().applied;
        for m in 0..=100 {
            r.state_after_first(m);
        }
        let swept = r.stats().applied - before;
        assert!(swept <= 100 * 10, "sweep applied {swept} updates");
    }

    #[test]
    fn prefix_queries_resume_from_prebuilt_full_chain() {
        let app = Trace;
        let updates: Vec<Tag> = (0..200).map(Tag).collect();
        let mut r = Replayer::from_updates_with_interval(&app, &updates, 8);
        r.final_state(); // warms the full-order chain
        let before = r.stats().applied;
        // A kept set missing only index 190 has a serial run of length
        // 190; a cold path cache would replay all 199 updates, but the
        // prebuilt full chain offers a checkpoint near depth 190.
        let kept: Vec<usize> = (0..200).filter(|&j| j != 190).collect();
        assert_eq!(r.state_after_prefix(&kept), naive(&updates, &kept));
        let applied = r.stats().applied - before;
        assert!(applied <= 200 - 190 + 8, "applied {applied} after prebuild");
        // And the answers stay correct when the path cache is reused for
        // a related query afterwards.
        let kept2: Vec<usize> = (0..200).filter(|&j| j != 190 && j != 195).collect();
        assert_eq!(r.state_after_prefix(&kept2), naive(&updates, &kept2));
    }

    #[test]
    fn full_chain_resume_never_changes_answers() {
        let app = Trace;
        let updates: Vec<Tag> = (0..60).map(Tag).collect();
        // Interleave serial-run queries with divergent paths, warm vs
        // cold, and compare every answer against the naive oracle.
        let queries: Vec<Vec<usize>> = vec![
            (0..50).collect(),
            (0..50).filter(|&j| j != 49).collect(),
            (0..50).filter(|&j| j % 5 != 2).collect(),
            (0..60).collect(),
            vec![3, 7, 11],
            (0..58).filter(|&j| j != 20).collect(),
            (0..60).filter(|&j| j != 59).collect(),
        ];
        let mut warm = Replayer::from_updates_with_interval(&app, &updates, 4);
        warm.final_state();
        let mut cold = Replayer::from_updates_with_interval(&app, &updates, 4);
        for q in &queries {
            let expect = naive(&updates, q);
            assert_eq!(warm.state_after_prefix(q), expect, "warm, query {q:?}");
            assert_eq!(cold.state_after_prefix(q), expect, "cold, query {q:?}");
        }
    }

    #[test]
    fn empty_sequence_yields_initial_state() {
        let app = Trace;
        let updates: Vec<Tag> = Vec::new();
        let mut r = Replayer::from_updates(&app, &updates);
        assert!(r.is_empty());
        assert_eq!(r.state_after_prefix(&[]), Vec::<u64>::new());
        assert_eq!(r.final_state(), Vec::<u64>::new());
    }
}
