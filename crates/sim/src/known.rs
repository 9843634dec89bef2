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
//! wide nodes; timestamps mostly arrive in ascending order, which the
//! map's split rule turns into completely filled leaves — 16 bytes a
//! timestamp plus a sixteenth of a node header.
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
}
