//! What a transaction knew, recorded as a count.
//!
//! §3's correctness conditions are all phrased over the set of updates
//! a node *knew* when it executed a transaction — 𝒫ᵢ, the prefix
//! subsequence. A node's merge log records every update it merges in
//! merge order ([`crate::MergeLog::arrivals`], append-only), so what it
//! knew at an execute is exactly the first *m* arrivals of its current
//! **incarnation**: the node's life since the run started, or since its
//! last restart from its store, which rebuilds the log and so starts
//! the arrivals over. A transaction records that as a [`Known`] — the
//! incarnation and *m*, 8 bytes — and the run keeps each incarnation's
//! arrival timestamps once ([`crate::RunReport::arrivals`]), 16 bytes
//! an arrival.
//!
//! A `Sweep` turns the counts back into what §3 checks: the ranks of
//! the serial order a transaction missed. One sweep walks one
//! incarnation's transactions in serial order. Their counts never
//! decrease (a node's later execution has a later timestamp and has
//! merged at least as much), so each one retires the arrivals its count
//! has passed, each resolved to its serial rank by one binary search,
//! and its missed ranks are the earlier ranks not retired yet. The
//! retired ranks are kept as disjoint runs; at least one miss lies
//! between two runs, so reading a row's misses costs O(misses + 1) and
//! retiring an arrival O(log runs). A whole run costs O((N + misses)
//! log N) for N arrivals, and no set is built per transaction.
//! [`crate::RunReport::timed_execution`] and [`crate::RunReport::judge`]
//! both read the run through it, in one shared pass.

use crate::clock::Timestamp;
use std::collections::BTreeMap;

/// How far a node's arrival log reached when it executed a
/// transaction: its incarnation and how many of that incarnation's
/// arrivals it had merged. The known timestamps are the first
/// [`Known::len`] of [`crate::RunReport::arrivals`]`[node][incarnation]`
/// ([`crate::RunReport::known`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Known {
    /// The node's incarnation: 0 from the run's start, one more at each
    /// restart from its store ([`crate::kernel::Node::recover_step`]).
    pub incarnation: u32,
    /// How many of the incarnation's arrivals the node had merged.
    pub count: u32,
}

impl Known {
    /// The record of a node in incarnation `incarnation` that has merged
    /// `count` arrivals.
    ///
    /// # Panics
    ///
    /// Panics if either figure reaches 2³²: an incarnation that merged
    /// that many updates would hold 96 GiB of arrival record alone.
    pub(crate) fn at(incarnation: usize, count: usize) -> Self {
        let narrow = |n: usize| u32::try_from(n).expect("a node incarnation counts below 2^32");
        Known {
            incarnation: narrow(incarnation),
            count: narrow(count),
        }
    }

    /// Number of known timestamps.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether nothing was known yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// One node incarnation's transactions, walked in serial order: the
/// serial ranks its arrivals have reached so far.
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    /// How many of the incarnation's arrivals are retired: the count of
    /// the last row.
    reached: usize,
    /// The retired ranks as disjoint, non-adjacent runs, start → end
    /// (exclusive).
    runs: BTreeMap<usize, usize>,
}

impl Sweep {
    /// How many of the incarnation's arrivals the rows so far retired.
    pub(crate) fn reached(&self) -> usize {
        self.reached
    }

    /// The next row of the incarnation, at serial rank `index`: retires
    /// `passed` — the arrivals from [`Sweep::reached`] up to the row's
    /// count, in merge order — and returns the row's missed ranks,
    /// ascending: those in `0..index` no arrival so far resolves to.
    /// `order` is the serial order, ascending, at least `index` long.
    ///
    /// # Panics
    ///
    /// Panics, naming it, on an arrival that is not among the first
    /// `index` timestamps of `order`.
    pub(crate) fn row(
        &mut self,
        index: usize,
        passed: impl IntoIterator<Item = Timestamp>,
        order: &[Timestamp],
    ) -> Vec<usize> {
        for ts in passed {
            let Ok(rank) = order[..index].binary_search(&ts) else {
                panic!(
                    "known-set invariant: rank {index} knows {ts:?}, which no transaction of \
                     this run executed before it"
                );
            };
            self.retire(rank);
            self.reached += 1;
        }
        let mut missed = Vec::new();
        let mut from = 0;
        for (&start, &end) in &self.runs {
            missed.extend(from..start);
            from = end;
        }
        missed.extend(from..index);
        missed
    }

    /// Adds `rank` to the runs, joining the run that ends at it and the
    /// one that starts right after it.
    fn retire(&mut self, rank: usize) {
        let before = self.runs.range(..=rank).next_back();
        let before = before.map(|(&start, &end)| (start, end));
        debug_assert!(
            before.is_none_or(|(_, end)| end <= rank),
            "an incarnation's arrivals are distinct"
        );
        let end = self.runs.remove(&(rank + 1)).unwrap_or(rank + 1);
        match before {
            Some((start, until)) if until == rank => self.runs.insert(start, end),
            _ => self.runs.insert(rank, end),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The serial order's `r`-th timestamp: two nodes share each lamport.
    fn ts(r: usize) -> Timestamp {
        Timestamp {
            lamport: (r / 2) as u64,
            node: NodeId((r % 2) as u16),
        }
    }

    #[test]
    fn the_record_is_one_word() {
        assert_eq!(std::mem::size_of::<Known>(), 8);
        assert_eq!(Known::at(3, 7).len(), 7);
        assert!(Known::default().is_empty());
    }

    #[test]
    fn runs_join_on_both_sides() {
        let order: Vec<Timestamp> = (0..6).map(ts).collect();
        let mut sweep = Sweep::default();
        assert_eq!(sweep.row(4, [ts(0), ts(2)], &order), [1, 3]);
        assert_eq!(sweep.runs.len(), 2);
        assert_eq!(sweep.row(6, [ts(1)], &order), [3, 4, 5]);
        assert_eq!(sweep.runs, BTreeMap::from([(0, 3)]));
        assert_eq!(sweep.row(6, [ts(4), ts(3)], &order), [5]);
        assert_eq!(sweep.runs, BTreeMap::from([(0, 5)]));
        assert_eq!(sweep.reached(), 5);
    }

    #[test]
    #[should_panic(
        expected = "known-set invariant: rank 2 knows Timestamp { lamport: 1, node: \
                               NodeId(0) }, which no transaction of this run executed before it"
    )]
    fn an_arrival_at_or_past_the_row_is_named() {
        let order: Vec<Timestamp> = (0..4).map(ts).collect();
        Sweep::default().row(2, [ts(2)], &order);
    }

    /// A known timestamp no transaction of this run carries (what a
    /// restarted, recovered log would hold) is reported by name, not as
    /// an allocator failure.
    #[test]
    #[should_panic(expected = "which no transaction of this run executed")]
    fn unknown_known_timestamp_is_named() {
        let order: Vec<Timestamp> = [0, 2].map(ts).to_vec();
        Sweep::default().row(2, [ts(1)], &order);
    }

    /// One incarnation's arrival order over a serial order of `n`:
    /// each rank arrives in order, a few ranks late, far behind, or
    /// never; some draws shuffle the whole order instead.
    fn arrival_order(n: usize, rng: &mut StdRng) -> Vec<usize> {
        if rng.random_range(0..8) == 0 {
            let mut all: Vec<usize> = (0..n).filter(|_| rng.random_range(0..4) > 0).collect();
            for i in (1..all.len()).rev() {
                all.swap(i, rng.random_range(0..=i));
            }
            return all;
        }
        let mut keyed: Vec<(usize, usize)> = (0..n)
            .filter_map(|r| {
                let late = match rng.random_range(0..20) {
                    0 => return None,
                    1..=3 => rng.random_range(1..12),
                    4 => rng.random_range(1..=n),
                    _ => 0,
                };
                Some((r + late, r))
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, r)| r).collect()
    }

    proptest! {
        /// Arbitrary arrival orders — in order, stragglers near and far,
        /// ranks that never arrive, whole shuffles — and rows at random
        /// serial ranks, each with a random count that names only earlier
        /// ranks: every row's missed ranks are exactly those a
        /// `BTreeSet` of the row's known timestamps lacks.
        #[test]
        fn sweep_matches_btreeset_oracle(seed in any::<u64>(), n in 0usize..400) {
            let mut rng = StdRng::seed_from_u64(seed);
            let order: Vec<Timestamp> = (0..n).map(ts).collect();
            let arrivals: Vec<Timestamp> =
                arrival_order(n, &mut rng).into_iter().map(ts).collect();
            let mut sweep = Sweep::default();
            let mut count = 0;
            let mut index = 0;
            while index <= n {
                // The longest count whose arrivals all precede `index`.
                let most = arrivals.iter().position(|&t| t >= ts(index)).unwrap_or(arrivals.len());
                count = rng.random_range(count..=most.max(count));
                let known: BTreeSet<Timestamp> = arrivals[..count].iter().copied().collect();
                let expect: Vec<usize> =
                    (0..index).filter(|&r| !known.contains(&order[r])).collect();
                let passed = arrivals[sweep.reached()..count].iter().copied();
                prop_assert_eq!(sweep.row(index, passed, &order), expect, "row {}", index);
                prop_assert_eq!(sweep.reached(), count);
                index += rng.random_range(1..6);
            }
        }
    }
}
