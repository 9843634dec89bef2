//! Persistent known-set snapshots — the O(1) capture that makes
//! `ExecutedTxn::known` affordable at scale.
//!
//! §3's correctness conditions are all phrased over the set of updates
//! a node *knew* when it executed a transaction. The kernel used to
//! materialize that set as a fresh `Vec<Timestamp>` on every execute —
//! O(log length) allocation per transaction, O(n²) for a run, which
//! turned 10⁵-transaction runs into allocation storms long before any
//! checker ran. A [`KnownSet`] is instead a persistent ordered set
//! (a [`PMap`] of timestamps, with structural sharing): the merge log
//! maintains one incrementally (O(log n) per merged update), and
//! snapshotting it at execute time is a reference-count bump. The
//! insert after a snapshot copies one root-to-leaf path of the map's
//! wide nodes — every execution pays one, since its origin merges the
//! own update right after the snapshot — and the inserts after it write
//! in place until the next snapshot.
//!
//! The traffic is not the ascending stream it looks like. On
//! `sim-partition` at seed 1, 41 % of inserts extend the set, 42 % land
//! among its newest eight timestamps and 17 % further down, up to 277
//! ranks after a healed partition. So an inline tail of the newest
//! eight timestamps, flushed into the map a leaf at a time, was
//! measured and not adopted: a flush empties it, and 36 % of inserts
//! land below it and still take the per-key path; a tail that missed
//! only 3 % would need 64 slots in every snapshot (EXPERIMENTS.md, "The
//! kernel's own time, named").
//!
//! Beyond cost, [`KnownSet::nth`] resolves the i-th timestamp in
//! O(log n), which keeps finding what a transaction *missed*
//! ([`KnownSet::missed_ranks`], behind the live monitor's rows and the
//! report's formal execution alike) at O(misses · log²n) instead of
//! forcing a full materialization. Equality is by content: a live
//! threaded run and its kernel replay merge in different orders and may
//! build different trees, and their sets still compare equal.

use crate::clock::Timestamp;
use shard_core::pmap::PMap;
use std::fmt;

/// An immutable-feeling, cheaply-snapshottable set of timestamps: the
/// updates a node knew at one moment. `clone` is O(1) and shares
/// structure with every other snapshot of the same log.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct KnownSet {
    set: PMap<Timestamp, ()>,
}

impl KnownSet {
    /// The empty set.
    pub fn new() -> Self {
        KnownSet { set: PMap::new() }
    }

    /// Number of known timestamps.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether nothing is known yet.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Whether `ts` is known.
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.set.contains_key(&ts)
    }

    /// Adds a timestamp, returning whether it was new. O(log n),
    /// path-copying only nodes shared with live snapshots.
    pub fn insert(&mut self, ts: Timestamp) -> bool {
        self.set.insert(ts, ()).is_none()
    }

    /// The `i`-th smallest known timestamp, if any. O(log n).
    pub fn nth(&self, i: usize) -> Option<Timestamp> {
        self.set.nth(i).map(|(ts, ())| *ts)
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
        self.set.keys().copied()
    }

    /// Materializes the set as a sorted vector (offline consumers
    /// only — this is the O(n) copy the snapshot representation
    /// exists to avoid on the hot path).
    pub fn to_vec(&self) -> Vec<Timestamp> {
        self.iter().collect()
    }
}

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
        /// A snapshot instead of an insert.
        Snapshot,
    }

    fn next() -> impl Strategy<Value = Next> {
        prop_oneof![
            (1u64..4).prop_map(Next::Ascending),
            (0u64..12).prop_map(Next::Near),
            (0u64..1000).prop_map(Next::Far),
            (0usize..1000).prop_map(Next::Duplicate),
            Just(Next::Snapshot),
        ]
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
        /// top and far below it, duplicates — with snapshots at random
        /// points: every snapshot, and the live set, reads exactly like
        /// a `BTreeSet` taken at the same moment, whatever was inserted
        /// after it. The same timestamps inserted in other orders give
        /// sets that compare equal.
        #[test]
        fn known_set_matches_btreeset_oracle(
            steps in proptest::collection::vec(next(), 0..300),
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
                    Next::Snapshot => {
                        snapshots.push((set.clone(), oracle.clone()));
                        continue;
                    }
                };
                prop_assert_eq!(set.insert(t), oracle.insert(t), "insert {:?}", t);
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
