//! Conditions guaranteed by the system (§3): refinements of the prefix
//! subsequence condition.
//!
//! The bare prefix-subsequence guarantee is too weak on its own — it is
//! satisfied even if every transaction sees the empty prefix. The paper
//! therefore defines refinements the system may additionally guarantee,
//! each trading availability for correctness (§3.2):
//!
//! * **transitivity** — if `T` is in the prefix of `T'` and `T'` in the
//!   prefix of `T''`, then `T` is in the prefix of `T''`;
//! * **k-completeness** — a transaction sees all but at most `k` of its
//!   preceding transactions;
//! * **centralization** of a group `G` — each member of `G` sees all
//!   earlier members of `G` (as if a single "agent" ran them);
//! * **atomicity** of a consecutive run — the run executes without new
//!   information intervening;
//! * **timed executions** with **t-bounded delay** — every transaction
//!   sees all predecessors initiated at least `t` earlier.

use crate::app::Application;
use crate::execution::{Execution, TxnIndex};
use std::ops::Range;

/// The number of preceding transactions that transaction `i` does **not**
/// see: `|{0..i} ∖ 𝒫ᵢ|`. Transaction `i` is *k-complete* iff this is ≤ `k`.
/// Counted from the gaps of the prefix, so a record whose prefix strays
/// past its index (which [`Execution::verify`] rejects) cannot wrap it.
///
/// # Panics
///
/// Panics if `i >= exec.len()`.
pub fn missed_count<A: Application>(exec: &Execution<A>, i: TxnIndex) -> usize {
    exec.record(i).prefix.missed_below(i).count()
}

/// Whether transaction `i` is k-complete in `exec` (§3.2): it sees the
/// results of all but at most `k` of the preceding transactions.
///
/// # Panics
///
/// Panics if `i >= exec.len()`.
pub fn is_k_complete<A: Application>(exec: &Execution<A>, i: TxnIndex, k: usize) -> bool {
    missed_count(exec, i) <= k
}

/// The largest number of missed predecessors over all transactions — the
/// smallest `k` such that *every* transaction is k-complete.
pub fn max_missed<A: Application>(exec: &Execution<A>) -> usize {
    (0..exec.len())
        .map(|i| missed_count(exec, i))
        .max()
        .unwrap_or(0)
}

/// Whether the execution is **transitive** (§3.2): for all `T, T', T''`,
/// if `T ∈ 𝒫(T')` and `T' ∈ 𝒫(T'')` then `T ∈ 𝒫(T'')`.
///
/// [`transitivity_violation`] finding nothing. Single-threaded: at the
/// sizes its matrix allows, the whole check is shorter than a pool
/// hand-off.
pub fn is_transitive<A: Application>(exec: &Execution<A>) -> bool {
    let _span = shard_obs::span!("conditions.is_transitive");
    transitivity_violation(exec).is_none()
}

/// Returns the first transitivity violation as `(t, t_mid, t_top)` where
/// `t ∈ 𝒫(t_mid)`, `t_mid ∈ 𝒫(t_top)`, but `t ∉ 𝒫(t_top)` — or `None` if
/// the execution is transitive. First in the order of the triple loop
/// over `t_top`, then `t_mid ∈ 𝒫(t_top)`, then `t ∈ 𝒫(t_mid)`.
///
/// Works on miss sets `Mᵢ = {0..i} ∖ 𝒫ᵢ` against an n×n bit matrix of
/// columns `col[x] = { j : x ∈ 𝒫ⱼ }`. Row `i` is transitive iff no
/// missed `x ∈ Mᵢ` has a witness `j ∈ 𝒫ᵢ ∩ col[x]` — and since `𝒫ᵢ`
/// lies below `i` and `col[x]` above `x`, that is a word-wise AND over
/// the words covering `(x, i)` only. Cost: n²/64 words to lay the
/// matrix out plus Σᵢ Σ_{x ∈ Mᵢ} (i − x)/64 word operations — linear in
/// the total number of misses when misses are recent, n³/768 at the
/// dense worst case where every row misses half its predecessors
/// arbitrarily far back.
///
/// The matrix is **n²/8 bytes resident** — 1.25 GB at 10⁵ rows — which
/// caps this checker near there although an [`Execution`] itself now
/// holds 10⁶ rows easily. Above that the in-memory verdict is
/// [`check_rows`](crate::stream::check_rows) over
/// [`rows_from_execution`](crate::stream::rows_from_execution), whose
/// state is the live span of misses; `tests/checker_oracles.rs` holds
/// the two equal.
pub fn transitivity_violation<A: Application>(
    exec: &Execution<A>,
) -> Option<(TxnIndex, TxnIndex, TxnIndex)> {
    let n = exec.len();
    let words = n.div_ceil(64);
    // Columns start complete — col[x] = {x+1..} — and lose one bit per
    // miss, so the matrix costs O(n²/64 + total misses) to build, not
    // O(Σ|𝒫ᵢ|). Bits from n up are never read back set: they are only
    // ever ANDed with a row, which stops below n.
    let mut cols = vec![0u64; n * words];
    for x in 0..n {
        let col = &mut cols[x * words..(x + 1) * words];
        col[(x + 1) / 64..].fill(!0);
        if (x + 1) % 64 != 0 {
            col[(x + 1) / 64] = !0 << ((x + 1) % 64);
        }
    }
    // One pass in serial order: when row i is checked, every bit of a
    // column below i is final, and the bits from i up are masked off by
    // the row. `seen` is {0..i} between rows and 𝒫ᵢ during row i.
    let mut seen = vec![0u64; words];
    let mut missed: Vec<TxnIndex> = Vec::new();
    for (i, record) in exec.records().iter().enumerate() {
        missed.clear();
        record.prefix.extend_missed_below(i, &mut missed);
        for &x in &missed {
            seen[x / 64] &= !(1u64 << (x % 64));
            cols[x * words + i / 64] &= !(1u64 << (i % 64));
        }
        // `𝒫ᵢ` against the column of `x`, 64 candidates a word, over the
        // words covering `(x, i)`: a common bit is a witness.
        let candidates = |x: TxnIndex| {
            let span = x / 64..=i / 64;
            let col = &cols[x * words..(x + 1) * words];
            seen[span.clone()].iter().zip(&col[span])
        };
        if !missed
            .iter()
            .all(|&x| candidates(x).all(|(p, c)| p & c == 0))
        {
            // The triple loop meets the smallest witness first, and
            // under it the smallest miss.
            let smallest = |x: TxnIndex| {
                let mut common = candidates(x).map(|(p, c)| p & c).enumerate();
                let (w, bits) = common.find(|&(_, bits)| bits != 0)?;
                Some(((x / 64 + w) * 64 + bits.trailing_zeros() as usize, x))
            };
            let first = missed.iter().filter_map(|&x| smallest(x)).min();
            let (mid, low) = first.expect("some miss of this row has a witness");
            return Some((low, mid, i));
        }
        for &x in &missed {
            seen[x / 64] |= 1u64 << (x % 64);
        }
        seen[i / 64] |= 1u64 << (i % 64);
    }
    None
}

/// Whether the group of transactions `group` (indices into `exec`, any
/// order) is **centralized** in `exec` (§3.2): each member's prefix
/// subsequence includes every other member that precedes it in the
/// complete prefix. Conceptually, a single "agent" runs the group.
///
/// # Panics
///
/// Panics if a member is not an index of `exec`.
pub fn is_centralized<A: Application>(exec: &Execution<A>, group: &[TxnIndex]) -> bool {
    let _span = shard_obs::span!("conditions.is_centralized");
    let mut sorted: Vec<TxnIndex> = group.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.iter().enumerate().all(|(pos, &g)| {
        assert!(g < exec.len(), "group index {g} out of range");
        let prefix = &exec.record(g).prefix;
        sorted[..pos]
            .iter()
            .all(|&earlier| prefix.contains(earlier))
    })
}

/// Whether the consecutive index range `range` is **atomic** in `exec`
/// (§3.1): (a) each transaction in the range includes every earlier
/// transaction of the range in its prefix subsequence, and (b) all
/// transactions in the range see the same subset of the transactions with
/// indices below the range.
///
/// # Panics
///
/// Panics if the range extends past the end of the execution.
pub fn is_atomic<A: Application>(exec: &Execution<A>, range: Range<TxnIndex>) -> bool {
    assert!(range.end <= exec.len(), "range out of bounds");
    // Runs are canonical, and clipping them to an interval keeps them
    // so: two prefixes agree on an interval iff their clipped runs are
    // equal, one pass per prefix, no scratch allocations.
    let clipped = |j: TxnIndex, within: Range<TxnIndex>| {
        let runs = exec.record(j).prefix.runs().iter();
        runs.map(move |r| r.start.max(within.start)..r.end.min(within.end))
            .filter(|r| !r.is_empty())
    };
    range.clone().all(|j| {
        // Below the range: the first member's view. From its start on:
        // exactly the members before `j`.
        clipped(j, 0..range.start).eq(clipped(range.start, 0..range.start))
            && clipped(j, range.start..usize::MAX).eq((range.start < j).then_some(range.start..j))
    })
}

/// A timed execution (§3.2): an execution together with a real initiation
/// time for each transaction. The serial (timestamp) order need not agree
/// with the real-time order; when it does, the timed execution is
/// *orderly*.
#[derive(Clone, Debug)]
pub struct TimedExecution<A: Application> {
    /// The underlying execution.
    pub execution: Execution<A>,
    /// Real initiation time of each transaction, indexed like the
    /// execution. Units are whatever the workload used (the simulator
    /// uses integer microticks).
    pub times: Vec<u64>,
}

impl<A: Application> TimedExecution<A> {
    /// Pairs an execution with transaction initiation times.
    ///
    /// # Panics
    ///
    /// Panics if `times.len() != execution.len()`.
    pub fn new(execution: Execution<A>, times: Vec<u64>) -> Self {
        assert_eq!(execution.len(), times.len(), "one time per transaction");
        TimedExecution { execution, times }
    }

    /// Whether real times are monotone along the serial order (§3.2's
    /// *orderly* condition).
    pub fn is_orderly(&self) -> bool {
        self.times.windows(2).all(|w| w[0] <= w[1])
    }

    /// Whether the execution has **t-bounded delay**: the prefix
    /// subsequence of each transaction `T` includes every preceding
    /// transaction whose real time is at least `t` smaller than `T`'s.
    pub fn has_t_bounded_delay(&self, t: u64) -> bool {
        self.delay_bound_violation(t).is_none()
    }

    /// Returns the first `(seer, missed)` pair violating t-bounded delay,
    /// or `None` if the bound holds. Walks each transaction's miss set
    /// ([`Prefix::missed_below`](crate::execution::Prefix::missed_below))
    /// — no per-transaction set materialization.
    pub fn delay_bound_violation(&self, t: u64) -> Option<(TxnIndex, TxnIndex)> {
        self.execution.iter().find_map(|(i, record)| {
            record
                .prefix
                .missed_below(i)
                .find(|&j| self.times[j] + t <= self.times[i])
                .map(|j| (i, j))
        })
    }

    /// The smallest `t` for which the execution has t-bounded delay
    /// (`0` for empty executions). Exact; worst case O(n²) when most
    /// pairs are missed, but allocation-free (the same miss-set walk
    /// as [`TimedExecution::delay_bound_violation`]).
    pub fn min_delay_bound(&self) -> u64 {
        // Missing j is tolerable only for t > times[i] - times[j].
        self.execution
            .iter()
            .flat_map(|(i, record)| {
                record
                    .prefix
                    .missed_below(i)
                    .map(move |j| self.times[i].saturating_sub(self.times[j]) + 1)
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DecisionOutcome;
    use crate::execution::ExecutionBuilder;

    #[derive(Clone, Debug, PartialEq)]
    struct Nop;

    struct Trivial;
    impl Application for Trivial {
        type State = ();
        type Update = Nop;
        type Decision = ();
        fn initial_state(&self) {}
        fn is_well_formed(&self, _: &()) -> bool {
            true
        }
        fn apply_in_place(&self, _: &mut (), _: &Nop) {}
        fn decide(&self, _: &(), _: &()) -> DecisionOutcome<Nop> {
            DecisionOutcome::update_only(Nop)
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &(), _: usize) -> u64 {
            0
        }
    }

    fn exec_with_prefixes(prefixes: &[&[usize]]) -> Execution<Trivial> {
        let app = Trivial;
        let mut b = ExecutionBuilder::new(&app);
        for p in prefixes {
            b.push((), p.to_vec()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn missed_and_k_complete() {
        let e = exec_with_prefixes(&[&[], &[0], &[0]]);
        assert_eq!(missed_count(&e, 0), 0);
        assert_eq!(missed_count(&e, 1), 0);
        assert_eq!(missed_count(&e, 2), 1);
        assert!(is_k_complete(&e, 2, 1));
        assert!(!is_k_complete(&e, 2, 0));
        assert_eq!(max_missed(&e), 1);
    }

    /// `push_record` takes any record and leaves judging it to `verify`;
    /// until that judgement a prefix that strays past its index — here
    /// with more entries than the transaction has predecessors — must not
    /// wrap a count or trip a checker.
    #[test]
    fn a_prefix_past_its_index_is_rejected_by_verify_and_wraps_nothing() {
        use crate::execution::{ExecutionError, TxnRecord};
        let mut e = exec_with_prefixes(&[&[], &[0], &[0, 1]]);
        e.push_record(TxnRecord {
            decision: (),
            prefix: [1, 2, 3, 9].into_iter().collect(),
            update: Nop,
            external_actions: Vec::new(),
        });
        assert_eq!(
            e.verify(&Trivial),
            Err(ExecutionError::PrefixOutOfRange { txn: 3, entry: 3 })
        );
        assert_eq!(
            missed_count(&e, 3),
            1,
            "below 3 it misses 0, whatever lies above"
        );
        assert_eq!(max_missed(&e), 1);
        assert!(is_centralized(&e, &[1, 3]));
        assert!(!is_centralized(&e, &[0, 3]));
        assert_eq!(transitivity_violation(&e), Some((0, 1, 3)));
        assert!(!is_transitive(&e));
        let te = TimedExecution::new(e, vec![0, 1, 2, 3]);
        let rows = crate::stream::rows_from_execution(&shard_pool::PoolConfig::sequential(), &te);
        assert_eq!(rows[3].missed, vec![0]);
        assert_eq!(te.min_delay_bound(), 4);
    }

    #[test]
    fn transitive_execution() {
        // 2 sees 1, 1 sees 0, 2 sees 0 as well: transitive.
        let e = exec_with_prefixes(&[&[], &[0], &[0, 1]]);
        assert!(is_transitive(&e));
        assert_eq!(transitivity_violation(&e), None);
    }

    #[test]
    fn intransitive_execution() {
        // 2 sees 1, 1 sees 0, but 2 does not see 0.
        let e = exec_with_prefixes(&[&[], &[0], &[1]]);
        assert!(!is_transitive(&e));
        assert_eq!(transitivity_violation(&e), Some((0, 1, 2)));
    }

    #[test]
    fn empty_and_singleton_are_transitive() {
        let e = exec_with_prefixes(&[]);
        assert!(is_transitive(&e));
        let e = exec_with_prefixes(&[&[]]);
        assert!(is_transitive(&e));
    }

    #[test]
    fn long_executions_agree_with_the_naive_oracles() {
        // 1 224 rows: a multi-word `is_transitive`, and a delay bound
        // held to the naive double loop over `times`.
        let naive_bound = |te: &TimedExecution<Trivial>| {
            let mut bound = 0;
            for (i, record) in te.execution.iter() {
                for j in (0..i).filter(|&j| !record.prefix.contains(j)) {
                    bound = bound.max(te.times[i].saturating_sub(te.times[j]) + 1);
                }
            }
            bound
        };
        let n = 1224;
        let skip_at = n - 3;
        let mut b = ExecutionBuilder::new(&Trivial);
        for i in 0..n {
            // Complete prefixes except one late transaction that skips
            // index 0 — the lone (0, 1, skip_at) transitivity breach.
            let prefix: Vec<usize> = if i == skip_at {
                (1..i).collect()
            } else {
                (0..i).collect()
            };
            b.push((), prefix).unwrap();
        }
        let e = b.finish();
        assert!(!is_transitive(&e));
        assert_eq!(transitivity_violation(&e), Some((0, 1, skip_at)));
        let times: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        let te = TimedExecution::new(e, times);
        // The only missed pair is (skip_at, 0), separated by 3·skip_at.
        assert_eq!(te.min_delay_bound(), 3 * skip_at as u64 + 1);
        assert_eq!(te.min_delay_bound(), naive_bound(&te));

        // Scattered misses under unorderly times: the bound is attained
        // by a pair in the middle of the execution.
        let mut b = ExecutionBuilder::new(&Trivial);
        for i in 0..n {
            b.push((), (0..i).filter(|j| (i + j) % 97 != 5).collect())
                .unwrap();
        }
        let times: Vec<u64> = (0..n as u64).map(|i| i * 7 % 400 + i).collect();
        let te = TimedExecution::new(b.finish(), times);
        assert_eq!(te.min_delay_bound(), naive_bound(&te));

        // The fully-complete variant is transitive with zero bound.
        let mut b = ExecutionBuilder::new(&Trivial);
        for i in 0..n {
            b.push((), (0..i).collect()).unwrap();
        }
        let e = b.finish();
        assert!(is_transitive(&e));
        let te = TimedExecution::new(e, (0..n as u64).collect());
        assert_eq!(te.min_delay_bound(), 0);
    }

    #[test]
    fn centralization() {
        // Group {0, 2, 4}: 2 sees 0, 4 sees 0 and 2.
        let e = exec_with_prefixes(&[&[], &[], &[0], &[], &[0, 2]]);
        assert!(is_centralized(&e, &[0, 2, 4]));
        assert!(is_centralized(&e, &[4, 2, 0])); // order-insensitive
                                                 // Group {1, 3}: 3 does not see 1.
        assert!(!is_centralized(&e, &[1, 3]));
        // Singleton and empty groups are trivially centralized.
        assert!(is_centralized(&e, &[3]));
        assert!(is_centralized(&e, &[]));
    }

    #[test]
    fn atomicity() {
        // Transactions 1..3 form an atomic block on top of base prefix {0}.
        let e = exec_with_prefixes(&[&[], &[0], &[0, 1], &[0, 1, 2]]);
        assert!(is_atomic(&e, 1..4));
        assert!(is_atomic(&e, 2..2)); // empty range
        assert!(is_atomic(&e, 2..3)); // singleton

        // Base prefixes differ: 2 sees {0}, 3 sees {} below index 2.
        let e = exec_with_prefixes(&[&[], &[], &[0, 1], &[1, 2]]);
        assert!(!is_atomic(&e, 2..4));

        // Later member does not see earlier member of the block.
        let e = exec_with_prefixes(&[&[], &[0], &[0]]);
        assert!(!is_atomic(&e, 1..3));
    }

    #[test]
    fn timed_execution_orderly_and_bounded() {
        let e = exec_with_prefixes(&[&[], &[0], &[1]]);
        let te = TimedExecution::new(e, vec![0, 10, 20]);
        assert!(te.is_orderly());
        // Txn 2 misses txn 0 which ran 20 earlier: bound must exceed 20.
        assert!(!te.has_t_bounded_delay(20));
        assert!(te.has_t_bounded_delay(21));
        assert_eq!(te.min_delay_bound(), 21);
        assert_eq!(te.delay_bound_violation(5), Some((2, 0)));
    }

    #[test]
    fn unorderly_times_detected() {
        let e = exec_with_prefixes(&[&[], &[]]);
        let te = TimedExecution::new(e, vec![5, 1]);
        assert!(!te.is_orderly());
    }

    #[test]
    fn complete_prefixes_have_zero_delay_bound() {
        let e = exec_with_prefixes(&[&[], &[0], &[0, 1]]);
        let te = TimedExecution::new(e, vec![0, 1, 2]);
        assert!(te.has_t_bounded_delay(0));
        assert_eq!(te.min_delay_bound(), 0);
    }

    #[test]
    #[should_panic(expected = "one time per transaction")]
    fn timed_execution_length_mismatch_panics() {
        let e = exec_with_prefixes(&[&[]]);
        let _ = TimedExecution::new(e, vec![]);
    }
}
