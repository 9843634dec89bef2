//! Persistent known-set snapshots — the O(1) capture that makes
//! `ExecutedTxn::known` affordable at scale.
//!
//! §3's correctness conditions are all phrased over the set of updates
//! a node *knew* when it executed a transaction. The kernel used to
//! materialize that set as a fresh `Vec<Timestamp>` on every execute —
//! O(log length) allocation per transaction, O(n²) for a run, which
//! turned 10⁵-transaction runs into allocation storms long before any
//! checker ran. A [`KnownSet`] is instead a persistent ordered set with
//! structural sharing: the merge log maintains one incrementally, and
//! snapshotting it at execute time is two reference-count bumps.
//!
//! It is shaped by its traffic, which is nearly but not quite
//! ascending. On `sim-partition` at seed 1, 41 % of inserts extend the
//! set, 42 % land among its newest eight timestamps and 17 % further
//! down, up to 277 ranks after a healed partition. So the set is two
//! parts split at a *floor*:
//!
//! * a **base**, a [`PMap`] of every member up to the floor, which is
//!   the base's largest;
//! * a **tail** of the members above the floor, at most 32, one sorted
//!   `Vec` behind an `Arc` that every snapshot since its last write
//!   shares.
//!
//! An insert above the floor goes into the tail. The first after a
//! snapshot copies it (≤ 512 B) — every execution pays one, since its
//! origin merges the own update right after the snapshot — and the
//! inserts after it write in place until the next snapshot. The tail's
//! 33rd member moves its lowest 16 into the base as one new rightmost
//! leaf ([`PMap::push_leaf`]): one path copy down the map's right spine
//! per 16 keys, where a per-key insert pays a descent and a path copy
//! each. Only a timestamp at or below the floor takes that per-key
//! insert: at seed 1, 2 515 of 50 000 inserts (5.0 %), beside 2 960
//! flushes. The leaf append is what pays: the same tail flushing its 16
//! by per-key inserts measured 23 % slower, and a tail that a flush
//! empties (8 slots) sent 36 % of inserts down the per-key path
//! (EXPERIMENTS.md, "The known set a leaf at a time").
//!
//! Beyond cost, [`KnownSet::nth`] resolves the i-th timestamp in
//! O(log n), which keeps finding what a transaction *missed*
//! ([`KnownSet::missed_ranks`], behind the live monitor's rows and the
//! report's formal execution alike) at O(misses · log²n) instead of
//! forcing a full materialization. Equality is by content: a live
//! threaded run and its kernel replay merge in different orders and may
//! build different trees and split them at different floors, and their
//! sets still compare equal.

use crate::clock::Timestamp;
use shard_core::pmap::PMap;
use std::fmt;
use std::sync::Arc;

/// Most timestamps the tail holds; one more flushes it.
const TAIL: usize = 32;
/// How many of its lowest timestamps a flush moves into the base: one
/// `PMap` leaf, which holds at most 16.
const FLUSH: usize = 16;

/// An immutable-feeling, cheaply-snapshottable set of timestamps: the
/// updates a node knew at one moment. `clone` is O(1) and shares
/// structure with every other snapshot of the same log.
#[derive(Clone, Default)]
pub struct KnownSet {
    /// Every member up to `floor`.
    base: PMap<Timestamp, ()>,
    /// The base's largest member; `None` while the base is empty.
    floor: Option<Timestamp>,
    /// Every member above `floor`, ascending, at most `TAIL` of them.
    /// Shared with every snapshot taken since it was last written.
    tail: Arc<Vec<Timestamp>>,
}

impl KnownSet {
    /// The empty set.
    pub fn new() -> Self {
        KnownSet::default()
    }

    /// Number of known timestamps.
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// Whether nothing is known yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `ts` goes in the base rather than the tail.
    fn in_base(&self, ts: Timestamp) -> bool {
        self.floor.is_some_and(|floor| ts <= floor)
    }

    /// Whether `ts` is known.
    pub fn contains(&self, ts: Timestamp) -> bool {
        if self.in_base(ts) {
            self.base.contains_key(&ts)
        } else {
            self.tail.binary_search(&ts).is_ok()
        }
    }

    /// Adds a timestamp, returning whether it was new. A timestamp above
    /// the floor goes into the tail, copying it first (≤ 512 B) if a
    /// snapshot shares it; the tail's 33rd moves its lowest 16 into the
    /// base as one leaf. One at or below the floor is an O(log n) insert
    /// into the base, path-copying only nodes shared with snapshots.
    pub fn insert(&mut self, ts: Timestamp) -> bool {
        if self.in_base(ts) {
            return self.base.insert(ts, ()).is_none();
        }
        let Err(at) = self.tail.binary_search(&ts) else {
            return false;
        };
        match Arc::get_mut(&mut self.tail) {
            Some(tail) => tail.insert(at, ts),
            None => {
                // Shared: one copy, sized for the insert that flushes.
                let mut tail = Vec::with_capacity(TAIL + 1);
                tail.extend_from_slice(&self.tail[..at]);
                tail.push(ts);
                tail.extend_from_slice(&self.tail[at..]);
                self.tail = Arc::new(tail);
            }
        }
        if self.tail.len() > TAIL {
            let tail = Arc::get_mut(&mut self.tail).expect("written just above");
            let leaf: Vec<_> = tail.drain(..FLUSH).map(|ts| (ts, ())).collect();
            self.floor = Some(leaf[FLUSH - 1].0);
            self.base.push_leaf(leaf);
        }
        true
    }

    /// The `i`-th smallest known timestamp, if any. O(log n).
    pub fn nth(&self, i: usize) -> Option<Timestamp> {
        match i.checked_sub(self.base.len()) {
            None => self.base.nth(i).map(|(ts, ())| *ts),
            Some(i) => self.tail.get(i).copied(),
        }
    }

    /// The ranks in `0..index` of the serial order `order(0) < order(1)
    /// < …` whose timestamps this set lacks, ascending — the miss set of
    /// a transaction that knew this set and sorts `index`-th, every
    /// member of the set being one of those `index` timestamps.
    ///
    /// With `m` misses found so far, `order(t) == nth(t − m)` holds on
    /// the run up to the next miss and fails from it onward (both
    /// sequences are strictly increasing), so each miss is one binary
    /// search over rank lookups: O(misses · log²index), not O(index) —
    /// a known set is nearly the whole prefix on healthy runs.
    ///
    /// # Panics
    ///
    /// Panics, naming it, if the set holds a timestamp that is not among
    /// the first `index` of `order`.
    pub fn missed_ranks(&self, index: usize, order: impl Fn(usize) -> Timestamp) -> Vec<usize> {
        let mut missed = Vec::with_capacity(index.saturating_sub(self.len()));
        let mut j = 0usize;
        while j < index {
            let m = missed.len();
            let diverged = |t: usize| self.nth(t - m).is_none_or(|k| k != order(t));
            if !diverged(j) {
                // Skip the aligned run: first diverged rank in (j, index].
                let (mut lo, mut hi) = (j, index);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if diverged(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                j = hi;
                if j == index {
                    break;
                }
            }
            missed.push(j);
            j += 1;
        }
        if self.len() + missed.len() != index {
            let stranger = self.iter().find(|&k| (0..index).all(|t| order(t) != k));
            panic!(
                "known-set invariant: rank {index} knows {stranger:?}, which no \
                 transaction of this run executed before it"
            );
        }
        missed
    }

    /// Iterates timestamps in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.base.keys().chain(self.tail.iter()).copied()
    }

    /// Materializes the set as a sorted vector (offline consumers
    /// only — this is the O(n) copy the snapshot representation
    /// exists to avoid on the hot path).
    pub fn to_vec(&self) -> Vec<Timestamp> {
        self.iter().collect()
    }
}

/// By content: two sets with the same members may split them between
/// base and tail differently.
impl PartialEq for KnownSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for KnownSet {}

impl fmt::Debug for KnownSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Timestamp> for KnownSet {
    fn from_iter<I: IntoIterator<Item = Timestamp>>(iter: I) -> Self {
        let mut s = KnownSet::new();
        for ts in iter {
            s.insert(ts);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ts(lamport: u64, node: u16) -> Timestamp {
        Timestamp {
            lamport,
            node: NodeId(node),
        }
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let forward: KnownSet = (0..50).map(|l| ts(l, (l % 3) as u16)).collect();
        let backward: KnownSet = (0..50).rev().map(|l| ts(l, (l % 3) as u16)).collect();
        assert_eq!(forward, backward);
        assert_eq!(forward.to_vec(), backward.to_vec());
    }

    #[test]
    fn snapshots_are_independent() {
        let mut live = KnownSet::new();
        live.insert(ts(1, 0));
        let snap = live.clone();
        assert!(live.insert(ts(2, 1)));
        assert!(!live.insert(ts(2, 1)), "duplicate insert reports false");
        assert_eq!(snap.len(), 1);
        assert_eq!(live.len(), 2);
        assert!(live.contains(ts(2, 1)));
        assert!(!snap.contains(ts(2, 1)));
    }

    #[test]
    fn nth_walks_the_sorted_order() {
        let set: KnownSet = [ts(5, 1), ts(2, 0), ts(9, 2), ts(2, 1)]
            .into_iter()
            .collect();
        assert_eq!(set.nth(0), Some(ts(2, 0)));
        assert_eq!(set.nth(1), Some(ts(2, 1)));
        assert_eq!(set.nth(2), Some(ts(5, 1)));
        assert_eq!(set.nth(3), Some(ts(9, 2)));
        assert_eq!(set.nth(4), None);
    }

    /// The tail's 33rd timestamp moves exactly its lowest 16 into the
    /// base, and the 16th becomes the floor — whether the 33rd lands on
    /// top of the tail or below all of it.
    #[test]
    fn the_thirty_third_tail_insert_flushes_sixteen() {
        for lowest_last in [false, true] {
            let keys: Vec<Timestamp> = (1..=33).map(|l| ts(2 * l, 0)).collect();
            let (first, last) = if lowest_last {
                (&keys[1..], keys[0])
            } else {
                (&keys[..32], keys[32])
            };
            let mut set: KnownSet = first.iter().copied().collect();
            assert_eq!((set.base.len(), set.tail.len(), set.floor), (0, 32, None));
            let snapshot = set.clone();
            assert!(set.insert(last));
            assert_eq!((set.base.len(), set.tail.len()), (16, 17));
            assert_eq!(set.floor, Some(keys[15]));
            assert!(set.iter().eq(keys.iter().copied()));
            assert_eq!(snapshot.len(), 32, "the snapshot kept its tail");
            // At the floor, one either side of it, in a gap below it.
            assert!(!set.insert(keys[15]) && !set.insert(keys[14]) && !set.insert(keys[16]));
            assert!(set.insert(ts(31, 0)));
            assert_eq!((set.base.len(), set.tail.len()), (17, 17));
            assert!(set.insert(ts(33, 0)));
            assert_eq!((set.base.len(), set.tail.len()), (17, 18));
        }
    }

    /// Equal members, different splits: built ascending, the set flushes
    /// once and keeps 24 in its tail; built descending, its flush lands
    /// in the middle and the rest goes into the base key by key.
    #[test]
    fn equality_ignores_where_base_and_tail_split() {
        let keys: Vec<Timestamp> = (0..40).map(|l| ts(l, 1)).collect();
        let up: KnownSet = keys.iter().copied().collect();
        let down: KnownSet = keys.iter().rev().copied().collect();
        assert_eq!((up.base.len(), up.tail.len()), (16, 24));
        assert_eq!((down.base.len(), down.tail.len()), (23, 17));
        assert_eq!(up, down);
        assert_eq!(format!("{up:?}"), format!("{down:?}"));
        let mut fewer = down.clone();
        fewer.tail = Arc::new(fewer.tail[1..].to_vec());
        assert_ne!(up, fewer);
    }

    /// How the next timestamp of a drawn insert sequence relates to what
    /// the set holds — the shapes of a merge log's traffic.
    #[derive(Clone, Debug)]
    enum Next {
        /// Above everything so far.
        Ascending(u64),
        /// A straggler a few ranks below the top, where most land.
        Near(u64),
        /// A straggler anywhere below, down to the first timestamp — a
        /// healed partition's backlog.
        Far(u64),
        /// One the set already holds.
        Duplicate(usize),
        /// One the tail already holds.
        TailDuplicate(usize),
        /// The member one rank below the floor, the floor, or the one
        /// rank above it (−1, 0, 1): a duplicate on either side of the
        /// split.
        FloorRank(i64),
        /// A lamport one below, at or one above the floor's: the floor
        /// itself, or a neighbour that may be new.
        NearFloor(i64),
        /// A snapshot instead of an insert.
        Snapshot,
    }

    fn next() -> impl Strategy<Value = Next> {
        prop_oneof![
            (1u64..4).prop_map(Next::Ascending),
            (0u64..12).prop_map(Next::Near),
            (0u64..1000).prop_map(Next::Far),
            (0usize..1000).prop_map(Next::Duplicate),
            (0usize..TAIL).prop_map(Next::TailDuplicate),
            (-1i64..=1).prop_map(Next::FloorRank),
            (-1i64..=1).prop_map(Next::NearFloor),
            Just(Next::Snapshot),
        ]
    }

    /// The split's own invariants: the floor is the base's largest
    /// member, every tail member lies above it, the tail is ascending and
    /// at most `TAIL` long.
    fn assert_split(set: &KnownSet) {
        assert_eq!(set.floor, set.base.keys().last().copied());
        assert!(set.tail.len() <= TAIL);
        assert!(set.tail.is_sorted_by(|a, b| a < b));
        assert!(set.tail.first().is_none_or(|t| !set.in_base(*t)));
    }

    /// `set` against the oracle on everything a reader asks: `len`,
    /// `contains` over `universe`, every `nth`, `iter`, and
    /// `missed_ranks` against `universe` as the serial order.
    fn assert_matches(set: &KnownSet, oracle: &BTreeSet<Timestamp>, universe: &[Timestamp]) {
        assert_eq!(set.len(), oracle.len());
        assert_eq!(set.is_empty(), oracle.is_empty());
        assert!(set.iter().eq(oracle.iter().copied()));
        for (i, t) in oracle.iter().enumerate() {
            assert_eq!(set.nth(i), Some(*t));
        }
        assert_eq!(set.nth(oracle.len()), None);
        for t in universe {
            assert_eq!(set.contains(*t), oracle.contains(t));
        }
        // From just past the set's largest member to the universe's end.
        let floor = oracle
            .last()
            .map_or(0, |top| universe.partition_point(|t| t <= top));
        let end = universe.len();
        for index in [floor, floor + (end - floor) / 2, end] {
            let expect: Vec<usize> = (0..index)
                .filter(|&r| !oracle.contains(&universe[r]))
                .collect();
            assert_eq!(set.missed_ranks(index, |r| universe[r]), expect);
        }
    }

    proptest! {
        /// Random insert orders — ascending runs, stragglers near the
        /// top and far below it, timestamps at and either side of the
        /// floor, duplicates in base and tail — with snapshots at random
        /// points: every snapshot, and the live set, reads exactly like
        /// a `BTreeSet` taken at the same moment, whatever was inserted
        /// after it. The same timestamps inserted in other orders give
        /// sets that compare equal.
        #[test]
        fn known_set_matches_btreeset_oracle(
            steps in proptest::collection::vec(next(), 0..500),
        ) {
            // Ascending draws take even lamports; stragglers the odd
            // gaps below the top. Two nodes share each lamport.
            let mut set = KnownSet::new();
            let mut oracle = BTreeSet::new();
            let mut top = 0u64;
            let mut snapshots = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                let node = (i % 2) as u16;
                let below = |back: u64| ts(top.saturating_sub(2 * back + 1), node);
                let t = match *step {
                    Next::Ascending(by) => {
                        top += 2 * by;
                        ts(top, node)
                    }
                    Next::Near(back) => below(back),
                    Next::Far(back) => below(back % (top / 2 + 1)),
                    Next::Duplicate(k) => {
                        oracle.iter().nth(k % oracle.len().max(1)).copied().unwrap_or(ts(0, 0))
                    }
                    Next::TailDuplicate(k) => match set.tail.len() {
                        0 => continue,
                        n => set.tail[k % n],
                    },
                    Next::FloorRank(d) => {
                        let rank = usize::try_from(set.base.len() as i64 - 1 + d);
                        match rank.ok().and_then(|r| set.nth(r)) {
                            Some(t) => t,
                            None => continue,
                        }
                    }
                    Next::NearFloor(d) => match set.floor {
                        Some(floor) => ts(floor.lamport.saturating_add_signed(d), node),
                        None => continue,
                    },
                    Next::Snapshot => {
                        snapshots.push((set.clone(), oracle.clone()));
                        continue;
                    }
                };
                prop_assert_eq!(set.insert(t), oracle.insert(t), "insert {:?}", t);
                assert_split(&set);
            }
            let universe: Vec<Timestamp> = oracle.iter().copied().collect();
            assert_matches(&set, &oracle, &universe);
            for (snap, snap_oracle) in &snapshots {
                assert_matches(snap, snap_oracle, &universe);
            }
            let reversed: KnownSet = universe.iter().rev().copied().collect();
            prop_assert_eq!(&reversed, &set);
            let interleaved: KnownSet = universe
                .iter()
                .step_by(2)
                .chain(universe.iter().skip(1).step_by(2))
                .copied()
                .collect();
            prop_assert_eq!(&interleaved, &set);
            if !set.is_empty() {
                let fewer: KnownSet = set.iter().skip(1).collect();
                prop_assert_ne!(&fewer, &set);
            }
        }
    }
}
