//! Executions and the prefix subsequence condition (§3.1).
//!
//! An *execution* of a set of transaction instances consists of a serial
//! ordering `T` of the instances together with, for each `Tᵢ`:
//!
//! 1. a **prefix subsequence** `𝒫ᵢ ⊆ {0, …, i−1}` — the preceding
//!    transactions whose effects `Tᵢ` "sees";
//! 2. the **apparent state** `tᵢ₋₁` observed by `Tᵢ`'s decision part —
//!    the result of applying the updates of `𝒫ᵢ` (in order) to `s₀`;
//! 3. the update `Aᵢ` and external actions `Eᵢ` determined by running the
//!    decision part on the apparent state (condition 3 of the paper);
//! 4. the **actual state** `sᵢ = Aᵢ(…A₁(s₀))` — the effect of running the
//!    complete update sequence through `Tᵢ` (condition 4).
//!
//! The system guarantees only that each transaction sees *some*
//! subsequence of its prefix — serializability would be the special case
//! where every prefix subsequence is complete. [`ExecutionBuilder`]
//! *constructs* executions satisfying conditions (1)–(4) by running
//! decision parts against apparent states it computes itself;
//! [`Execution::verify`] re-checks a finished execution from scratch,
//! which is how simulator output is validated against the formal model.

use crate::app::{Application, DecisionOutcome, ExternalAction};
use crate::replay::{ReplayCache, DEFAULT_CHECKPOINT_INTERVAL};
use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

/// Index of a transaction instance within an execution's serial order.
pub type TxnIndex = usize;

/// A prefix subsequence `𝒫ᵢ` — the set of preceding transactions one
/// transaction saw — stored as **sorted, disjoint, non-adjacent runs**
/// `[start, end)` of seen indices.
///
/// The paper's parameter for `𝒫ᵢ` is its complement (k-completeness
/// counts what a transaction *missed*, §3.2), and on every run this
/// repository produces a prefix is "all of `0..i` but a handful": `k`
/// misses cost at most `k + 1` runs, the empty prefix none, and the
/// complement below any `i` is the gaps between the runs
/// ([`Prefix::missed_below`]) — so an execution holds O(n·k̄) indices
/// where a list of seen predecessors held O(n²). The form is canonical
/// (no empty, overlapping or touching runs), so equality is structural
/// and a prefix needs no knowledge of whose it is: it collects from any
/// strictly increasing index iterator.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Prefix {
    runs: Vec<Range<TxnIndex>>,
    /// Σ run lengths, cached.
    len: usize,
}

impl Prefix {
    /// The prefix of transaction `i` that misses exactly `missed`:
    /// `{0..i} ∖ missed`. O(|missed|), one exact allocation.
    ///
    /// # Panics
    ///
    /// Panics if `missed` is not strictly increasing below `i`.
    pub fn from_missed(i: TxnIndex, missed: &[TxnIndex]) -> Self {
        // What lies between consecutive misses, `i` closing the last (and
        // failing the order check itself after a miss at or above it).
        let between = || {
            let mut start = 0;
            missed.iter().chain([&i]).filter_map(move |&m| {
                assert!(
                    start <= m,
                    "misses {missed:?} are not strictly increasing below {i}"
                );
                let run = start..m;
                start = m + 1;
                (!run.is_empty()).then_some(run)
            })
        };
        let mut runs = Vec::with_capacity(between().count());
        runs.extend(between());
        Prefix {
            runs,
            len: i - missed.len(),
        }
    }

    /// The number of seen transactions, `|𝒫ᵢ|`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was seen.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The maximal runs `[start, end)` of seen indices, ascending.
    pub fn runs(&self) -> &[Range<TxnIndex>] {
        &self.runs
    }

    /// Whether transaction `j` was seen. O(log runs).
    pub fn contains(&self, j: TxnIndex) -> bool {
        let at = self.runs.partition_point(|r| r.end <= j);
        self.runs.get(at).is_some_and(|r| r.start <= j)
    }

    /// The seen indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = TxnIndex> + '_ {
        self.iter_from(0)
    }

    /// The seen indices from the `rank`-th on, ascending; reaching it
    /// costs O(runs), not O(rank).
    pub(crate) fn iter_from(&self, mut rank: usize) -> impl Iterator<Item = TxnIndex> + '_ {
        self.runs.iter().flat_map(move |r| {
            let skipped = rank.min(r.len());
            rank -= skipped;
            r.start + skipped..r.end
        })
    }

    /// The *miss set* `{0..i} ∖ 𝒫`, ascending: the gaps between the runs,
    /// clipped to `i` — O(runs + misses). Members at or above `i` (which
    /// [`Execution::verify`] rejects) are ignored, never subtracted.
    pub fn missed_below(&self, i: TxnIndex) -> impl Iterator<Item = TxnIndex> + '_ {
        let mut next = 0;
        let runs = self.runs.iter().map(|r| (r.start, r.end));
        runs.chain([(i, i)]).flat_map(move |(start, end)| {
            let gap = next..start.min(i);
            next = end;
            gap
        })
    }

    /// Appends [`missed_below(i)`](Prefix::missed_below) to `out` a gap
    /// at a time: the bulk copy under every row extraction, a tenth to a
    /// third cheaper than driving the iterator index by index.
    pub(crate) fn extend_missed_below(&self, i: TxnIndex, out: &mut Vec<TxnIndex>) {
        let mut next = 0;
        for run in self.runs.iter().take_while(|run| run.start < i) {
            out.extend(next..run.start);
            next = run.end;
        }
        out.extend(next..i);
    }

    /// How many leading members `self` and `other` share as sequences:
    /// the largest `l` with the first `l` members of both equal.
    /// O(shared runs).
    pub(crate) fn common_len(&self, other: &Prefix) -> usize {
        let mut shared = 0;
        for (a, b) in self.runs.iter().zip(&other.runs) {
            if a.start != b.start {
                break;
            }
            shared += a.end.min(b.end) - a.start;
            // Runs never touch: past the shorter one the sequences differ.
            if a.end != b.end {
                break;
            }
        }
        shared
    }
}

/// Runs [`Prefix::from_iter`] gathers on the stack before it allocates.
/// A row of this repository's block-shuffled shapes (E25, `audit-inmem`)
/// has 6 on average and 21 at most; a prefix with more takes a growing
/// vector for the rest.
const GATHERED_RUNS: usize = 32;

impl FromIterator<TxnIndex> for Prefix {
    /// Collects strictly increasing indices. The runs gather on the
    /// stack and reach the heap in one exact allocation: a vector grown
    /// run by run leaves a trail of outgrown blocks between the prefixes
    /// of an execution, and whatever is allocated next — measured on the
    /// benchmark's delivery stream — is scattered over them.
    ///
    /// # Panics
    ///
    /// Panics on an index at or below its predecessor — prefixes are
    /// collected by this program, so that is a bug in the collector
    /// ([`Prefix::try_from`] checks a list from outside).
    fn from_iter<I: IntoIterator<Item = TxnIndex>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Prefix::default();
        };
        let mut gathered: [Range<TxnIndex>; GATHERED_RUNS] = std::array::from_fn(|_| 0..0);
        let (mut used, mut overflow, mut len) = (0, Vec::new(), 0);
        let mut close = |run: Range<TxnIndex>| {
            len += run.len();
            match gathered.get_mut(used) {
                Some(slot) => {
                    *slot = run;
                    used += 1;
                }
                None => overflow.push(run),
            }
        };
        let mut run = first..first + 1;
        for j in iter {
            if j == run.end {
                run.end += 1;
            } else {
                assert!(j > run.end, "prefix index {j} is not strictly increasing");
                close(std::mem::replace(&mut run, j..j + 1));
            }
        }
        close(run);
        let mut runs = Vec::with_capacity(used + overflow.len());
        runs.extend_from_slice(&gathered[..used]);
        runs.append(&mut overflow);
        Prefix { runs, len }
    }
}

impl TryFrom<Vec<TxnIndex>> for Prefix {
    type Error = ExecutionError;

    /// Checks that `entries` is strictly increasing, then collects it. A
    /// list does not say whose prefix it is: the error's `txn` is the
    /// earliest transaction the entries up to the offending one could
    /// belong to, and [`ExecutionBuilder::push`], which knows, names its
    /// own.
    fn try_from(entries: Vec<TxnIndex>) -> Result<Self, ExecutionError> {
        match entries.windows(2).find(|w| w[0] >= w[1]) {
            Some(w) => Err(ExecutionError::PrefixNotIncreasing { txn: w[0] + 1 }),
            None => Ok(entries.into_iter().collect()),
        }
    }
}

/// One transaction instance `Tᵢ` in an execution, with everything the
/// paper associates with it: its prefix subsequence, the update its
/// decision chose, and the external actions it triggered.
#[derive(Clone, Debug)]
pub struct TxnRecord<A: Application> {
    /// The transaction as submitted (input of the decision part).
    pub decision: A::Decision,
    /// The prefix subsequence `𝒫ᵢ`: the seen indices, all `< i`.
    pub prefix: Prefix,
    /// The update `Aᵢ` chosen by the decision part from the apparent state.
    pub update: A::Update,
    /// The external actions `Eᵢ` triggered when the decision ran.
    pub external_actions: Vec<ExternalAction>,
}

/// A complete execution: the serial order of transactions with their
/// prefix subsequences, updates and external actions.
///
/// States are *not* stored as part of the mathematical object; they are
/// recomputed on demand from the update sequence so that an `Execution`
/// is exactly the paper's (`T`, `𝒜`, `E`, `𝒫`) and can never disagree
/// with itself. Recomputation is incremental: every execution owns a
/// [`replay cache`](crate::replay) of prefix-state checkpoints, so a
/// sweep of related state queries (what `verify` and every grouping /
/// k-completeness checker issues) costs `O(n · interval)` overall rather
/// than `O(n²)`. Executions are append-only, which keeps the cache valid
/// without invalidation logic; the cache is transparent to equality,
/// cloning and debug output.
pub struct Execution<A: Application> {
    records: Vec<TxnRecord<A>>,
    cache: RefCell<ReplayCache<A>>,
}

impl<A: Application> Clone for Execution<A>
where
    TxnRecord<A>: Clone,
{
    fn clone(&self) -> Self {
        // The clone starts with a cold cache (same interval): cached
        // states are a memo, not part of the mathematical object.
        Execution {
            records: self.records.clone(),
            cache: RefCell::new(ReplayCache::new(self.cache.borrow().interval())),
        }
    }
}

impl<A: Application> fmt::Debug for Execution<A>
where
    TxnRecord<A>: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Execution")
            .field("records", &self.records)
            .finish()
    }
}

impl<A: Application> Default for Execution<A> {
    fn default() -> Self {
        Execution::new()
    }
}

/// Errors from building or verifying executions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionError {
    /// A prefix contained an index ≥ the transaction's own index.
    PrefixOutOfRange {
        /// The transaction whose prefix is invalid.
        txn: TxnIndex,
        /// The offending prefix entry.
        entry: TxnIndex,
    },
    /// A prefix was not strictly increasing (not a subsequence).
    PrefixNotIncreasing {
        /// The transaction whose prefix is invalid.
        txn: TxnIndex,
    },
    /// Replaying the decision part on the apparent state produced a
    /// different update than the one recorded (condition 3 violated).
    UpdateMismatch {
        /// The transaction whose recorded update is wrong.
        txn: TxnIndex,
    },
    /// Replaying the decision part produced different external actions.
    ExternalActionMismatch {
        /// The transaction whose recorded actions are wrong.
        txn: TxnIndex,
    },
    /// An apparent or actual state failed well-formedness.
    IllFormedState {
        /// The transaction after which the state is ill-formed.
        txn: TxnIndex,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::PrefixOutOfRange { txn, entry } => {
                write!(
                    f,
                    "transaction {txn}: prefix entry {entry} is not a preceding index"
                )
            }
            ExecutionError::PrefixNotIncreasing { txn } => {
                write!(f, "transaction {txn}: prefix is not strictly increasing")
            }
            ExecutionError::UpdateMismatch { txn } => {
                write!(
                    f,
                    "transaction {txn}: recorded update differs from decision replay"
                )
            }
            ExecutionError::ExternalActionMismatch { txn } => {
                write!(
                    f,
                    "transaction {txn}: recorded external actions differ from replay"
                )
            }
            ExecutionError::IllFormedState { txn } => {
                write!(f, "transaction {txn}: produced an ill-formed state")
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

impl<A: Application> Execution<A> {
    /// Creates an empty execution (no transactions yet).
    pub fn new() -> Self {
        Self::with_checkpoint_interval(DEFAULT_CHECKPOINT_INTERVAL)
    }

    /// Creates an empty execution whose replay cache checkpoints every
    /// `every` applied updates (the replay-depth/memory knob; see
    /// [`crate::replay`]).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_checkpoint_interval(every: usize) -> Self {
        Execution {
            records: Vec::new(),
            cache: RefCell::new(ReplayCache::new(every)),
        }
    }

    /// The number of transaction instances.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the execution contains no transactions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record of transaction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn record(&self, i: TxnIndex) -> &TxnRecord<A> {
        &self.records[i]
    }

    /// All records in serial order.
    pub fn records(&self) -> &[TxnRecord<A>] {
        &self.records
    }

    /// Iterates over `(index, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TxnIndex, &TxnRecord<A>)> {
        self.records.iter().enumerate()
    }

    /// The apparent state `tᵢ₋₁` seen by transaction `i`: the result of
    /// applying the updates of its prefix subsequence, in order, to `s₀`.
    ///
    /// Answered incrementally: the replay cache resumes from the deepest
    /// checkpoint shared with the previous prefix query.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn apparent_state_before(&self, app: &A, i: TxnIndex) -> A::State {
        self.cache.borrow_mut().state_after_prefix(
            app,
            |j| &self.records[j].update,
            &self.records[i].prefix,
        )
    }

    /// The apparent state *after* transaction `i`: `Tᵢ(tᵢ₋₁, tᵢ₋₁)`, i.e.
    /// the update applied to the transaction's own observed state.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn apparent_state_after(&self, app: &A, i: TxnIndex) -> A::State {
        let t = self.apparent_state_before(app, i);
        app.apply(&t, &self.records[i].update)
    }

    /// The actual state `sᵢ` after running updates `A₀ … Aᵢ` from `s₀`,
    /// answered from full-order checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn actual_state_after(&self, app: &A, i: TxnIndex) -> A::State {
        assert!(
            i < self.records.len(),
            "actual_state_after: index {i} out of range"
        );
        self.cache
            .borrow_mut()
            .state_after_first(app, |j| &self.records[j].update, i + 1)
    }

    /// The actual state before transaction `i` (equals `s₀` for `i = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn actual_state_before(&self, app: &A, i: TxnIndex) -> A::State {
        if i == 0 {
            app.initial_state()
        } else {
            self.actual_state_after(app, i - 1)
        }
    }

    /// All actual (reachable) states `s₀, s₁, …, sₙ`, starting with the
    /// initial state — the states the paper calls *reachable in e*.
    ///
    /// This materializes `n + 1` state clones; prefer
    /// [`Execution::fold_actual_states`] /
    /// [`Execution::for_each_actual_state`] for single-pass checkers.
    pub fn actual_states(&self, app: &A) -> Vec<A::State> {
        self.fold_actual_states(
            app,
            Vec::with_capacity(self.records.len() + 1),
            |mut out, _, s| {
                out.push(s.clone());
                out
            },
        )
    }

    /// Streams the actual states `s₀, s₁, …, sₙ` through `f` in one
    /// forward pass, threading an accumulator. The callback receives the
    /// number of updates applied so far (so `m = 0` is the initial state
    /// and `m = i + 1` is the state after transaction `i`) and a
    /// reference to the state — no per-state clones.
    ///
    /// The pass is independent of the replay cache, so `f` may freely
    /// re-enter other state queries on the same execution.
    pub fn fold_actual_states<T>(
        &self,
        app: &A,
        init: T,
        mut f: impl FnMut(T, usize, &A::State) -> T,
    ) -> T {
        let mut s = app.initial_state();
        let mut acc = f(init, 0, &s);
        for (i, rec) in self.records.iter().enumerate() {
            app.apply_in_place(&mut s, &rec.update);
            acc = f(acc, i + 1, &s);
        }
        crate::replay::note_in_place_applies(self.records.len() as u64);
        acc
    }

    /// Streams the actual states `s₀, s₁, …, sₙ` through `f` in one
    /// forward pass (see [`Execution::fold_actual_states`]).
    pub fn for_each_actual_state(&self, app: &A, mut f: impl FnMut(usize, &A::State)) {
        self.fold_actual_states(app, (), |(), m, s| f(m, s));
    }

    /// The final actual state (the initial state if empty).
    pub fn final_state(&self, app: &A) -> A::State {
        self.cache.borrow_mut().state_after_first(
            app,
            |j| &self.records[j].update,
            self.records.len(),
        )
    }

    /// The state resulting from applying only the updates with indices in
    /// `subsequence` (which must be strictly increasing) to `s₀`. This is
    /// the `t` of Corollary 2 / Lemma 12 and the right-hand side of the
    /// information order `s ≤ₖ t`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subsequence_state(&self, app: &A, subsequence: &[TxnIndex]) -> A::State {
        self.cache.borrow_mut().state_after_prefix(
            app,
            |j| &self.records[j].update,
            &subsequence.iter().copied().collect(),
        )
    }

    /// Verifies conditions (1)–(4) of §3.1 against the recorded data:
    /// prefixes are subsequences of the preceding indices, each recorded
    /// update and external-action set equals what the decision part
    /// yields on the recomputed apparent state, and every apparent and
    /// actual state is well-formed. Apparent states are recomputed
    /// through the replay cache (consecutive prefixes share long
    /// prefixes, so the whole pass is near-linear); actual states are a
    /// single streaming sweep.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in serial order.
    pub fn verify(&self, app: &A) -> Result<(), ExecutionError>
    where
        A::Update: PartialEq,
    {
        let _span = shard_obs::span!("core.verify");
        for (i, rec) in self.records.iter().enumerate() {
            // A `Prefix` is increasing by construction; only its range
            // is the record's to get wrong.
            if let Some(stray) = rec.prefix.runs().iter().find(|r| r.end > i) {
                let entry = stray.start.max(i);
                return Err(ExecutionError::PrefixOutOfRange { txn: i, entry });
            }
            let t = self.apparent_state_before(app, i);
            if !app.is_well_formed(&t) {
                return Err(ExecutionError::IllFormedState { txn: i });
            }
            let outcome = app.decide(&rec.decision, &t);
            if outcome.update != rec.update {
                return Err(ExecutionError::UpdateMismatch { txn: i });
            }
            if outcome.external_actions != rec.external_actions {
                return Err(ExecutionError::ExternalActionMismatch { txn: i });
            }
        }
        // Actual states must stay well-formed, too (updates preserve
        // well-formedness by assumption; this checks the app honours it).
        let mut s = app.initial_state();
        for (i, rec) in self.records.iter().enumerate() {
            app.apply_in_place(&mut s, &rec.update);
            if !app.is_well_formed(&s) {
                return Err(ExecutionError::IllFormedState { txn: i });
            }
        }
        crate::replay::note_in_place_applies(self.records.len() as u64);
        Ok(())
    }

    /// Appends a pre-formed record. Intended for simulators that already
    /// computed the decision outcome; [`Execution::verify`] will catch
    /// records inconsistent with the formal model. Appending never
    /// invalidates cached replay state (existing prefixes are unchanged).
    pub fn push_record(&mut self, record: TxnRecord<A>) -> TxnIndex {
        self.records.push(record);
        self.records.len() - 1
    }
}

/// Builds executions by running decision parts against apparent states
/// that the builder computes from the supplied prefix subsequences, so
/// conditions (1)–(4) hold by construction.
pub struct ExecutionBuilder<'a, A: Application> {
    app: &'a A,
    exec: Execution<A>,
}

impl<'a, A: Application> ExecutionBuilder<'a, A> {
    /// Creates a builder for executions of `app`.
    pub fn new(app: &'a A) -> Self {
        ExecutionBuilder {
            app,
            exec: Execution::new(),
        }
    }

    /// The number of transactions pushed so far.
    pub fn len(&self) -> usize {
        self.exec.len()
    }

    /// Whether no transactions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.exec.is_empty()
    }

    /// Read access to the execution built so far.
    pub fn execution(&self) -> &Execution<A> {
        &self.exec
    }

    /// Appends transaction `decision` seeing exactly the prefix
    /// subsequence `prefix`. The decision part runs against the apparent
    /// state computed from `prefix`; its update and external actions are
    /// recorded. Returns the new transaction's index.
    ///
    /// # Errors
    ///
    /// Returns an error if `prefix` is not a strictly increasing sequence
    /// of indices less than the new transaction's index.
    pub fn push(
        &mut self,
        decision: A::Decision,
        mut prefix: Vec<TxnIndex>,
    ) -> Result<TxnIndex, ExecutionError> {
        let txn = self.exec.len();
        // The first violation in list order decides the error: entries
        // from the first out-of-range one on are not the order check's.
        let stray = prefix.iter().position(|&p| p >= txn).map(|at| {
            let entry = prefix[at];
            prefix.truncate(at);
            entry
        });
        let prefix =
            Prefix::try_from(prefix).map_err(|_| ExecutionError::PrefixNotIncreasing { txn })?;
        match stray {
            Some(entry) => Err(ExecutionError::PrefixOutOfRange { txn, entry }),
            None => Ok(self.push_seeing(decision, prefix)),
        }
    }

    /// Appends `decision` seeing `prefix`, which lies below its index.
    fn push_seeing(&mut self, decision: A::Decision, prefix: Prefix) -> TxnIndex {
        // Prefixes of consecutive pushes usually extend one another, so
        // the cache's tip makes building linear instead of quadratic.
        let t = self.exec.cache.borrow_mut().state_after_prefix(
            self.app,
            |j| &self.exec.records[j].update,
            &prefix,
        );
        let DecisionOutcome {
            update,
            external_actions,
        } = self.app.decide(&decision, &t);
        self.exec.push_record(TxnRecord {
            decision,
            prefix,
            update,
            external_actions,
        })
    }

    /// Appends a transaction that sees the **complete prefix** — all
    /// preceding transactions. This is what a serializable system would
    /// always do.
    pub fn push_complete(&mut self, decision: A::Decision) -> Result<TxnIndex, ExecutionError> {
        self.push_missing(decision, &[])
    }

    /// Appends a transaction whose prefix omits exactly the indices in
    /// `missing` (which need not be sorted; duplicates and indices that
    /// do not precede it are ignored).
    pub fn push_missing(
        &mut self,
        decision: A::Decision,
        missing: &[TxnIndex],
    ) -> Result<TxnIndex, ExecutionError> {
        let i = self.exec.len();
        let mut missed: Vec<TxnIndex> = missing.iter().copied().filter(|&m| m < i).collect();
        missed.sort_unstable();
        missed.dedup();
        Ok(self.push_seeing(decision, Prefix::from_missed(i, &missed)))
    }

    /// Finishes building and returns the execution.
    pub fn finish(self) -> Execution<A> {
        self.exec
    }
}

/// From-scratch replay, kept as the test oracle for the incremental
/// replay engine: byte-for-byte what the pre-checkpoint implementation
/// computed. Equivalence proptests (here and in the workspace-level
/// `replay_equivalence` suite) compare [`Execution`]'s cached answers
/// against these on random executions.
#[cfg(test)]
pub(crate) mod naive {
    use super::*;

    /// `state_after_prefix` by plain left-to-right replay.
    pub fn state_after_prefix<A: Application>(
        app: &A,
        exec: &Execution<A>,
        prefix: &[TxnIndex],
    ) -> A::State {
        let mut s = app.initial_state();
        for &j in prefix {
            s = app.apply(&s, &exec.records[j].update);
        }
        s
    }

    /// `actual_state_after` by plain left-to-right replay.
    pub fn actual_state_after<A: Application>(
        app: &A,
        exec: &Execution<A>,
        i: TxnIndex,
    ) -> A::State {
        let mut s = app.initial_state();
        for rec in &exec.records[..=i] {
            s = app.apply(&s, &rec.update);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DecisionOutcome;

    /// Tiny saturating counter app: `Bump` adds 1 if the decision saw a
    /// state below the cap, else it is a no-op. One constraint: value ≤ 2.
    #[derive(Clone)]
    struct Capped;

    #[derive(Clone, Debug, PartialEq)]
    enum Up {
        Bump,
        Noop,
    }

    impl Application for Capped {
        type State = u32;
        type Update = Up;
        type Decision = ();
        fn initial_state(&self) -> u32 {
            0
        }
        fn is_well_formed(&self, s: &u32) -> bool {
            *s < 1000
        }
        fn apply_in_place(&self, s: &mut u32, u: &Up) {
            if let Up::Bump = u {
                *s += 1;
            }
        }
        fn decide(&self, _: &(), observed: &u32) -> DecisionOutcome<Up> {
            if *observed < 2 {
                DecisionOutcome::update_only(Up::Bump)
            } else {
                DecisionOutcome::update_only(Up::Noop)
            }
        }
        fn constraint_count(&self) -> usize {
            1
        }
        fn constraint_name(&self, _: usize) -> &str {
            "le-two"
        }
        fn cost(&self, s: &u32, _: usize) -> u64 {
            (*s as u64).saturating_sub(2)
        }
    }

    #[test]
    fn complete_prefixes_behave_serializably() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        for _ in 0..5 {
            b.push_complete(()).unwrap();
        }
        let e = b.finish();
        // With full information the cap is respected: only 2 bumps happen.
        assert_eq!(e.final_state(&app), 2);
        assert_eq!(app.cost(&e.final_state(&app), 0), 0);
        e.verify(&app).unwrap();
    }

    #[test]
    fn missing_information_overshoots_the_cap() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        // Each transaction sees the empty prefix: all five bump.
        for _ in 0..5 {
            b.push((), vec![]).unwrap();
        }
        let e = b.finish();
        assert_eq!(e.final_state(&app), 5);
        assert_eq!(app.cost(&e.final_state(&app), 0), 3);
        e.verify(&app).unwrap();
    }

    #[test]
    fn apparent_vs_actual_states() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(()).unwrap(); // t=0 -> bump, s1=1
        b.push((), vec![]).unwrap(); // sees s0=0 -> bump, s2=2
        let e = b.finish();
        assert_eq!(e.apparent_state_before(&app, 1), 0);
        assert_eq!(e.actual_state_before(&app, 1), 1);
        assert_eq!(e.actual_state_after(&app, 1), 2);
        assert_eq!(e.apparent_state_after(&app, 1), 1);
    }

    #[test]
    fn push_rejects_bad_prefixes() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(()).unwrap();
        assert_eq!(
            b.push((), vec![1]),
            Err(ExecutionError::PrefixOutOfRange { txn: 1, entry: 1 })
        );
        b.push_complete(()).unwrap();
        assert_eq!(
            b.push((), vec![1, 0]),
            Err(ExecutionError::PrefixNotIncreasing { txn: 2 })
        );
        assert_eq!(
            b.push((), vec![0, 0]),
            Err(ExecutionError::PrefixNotIncreasing { txn: 2 })
        );
    }

    #[test]
    fn push_missing_filters_indices() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(()).unwrap();
        b.push_complete(()).unwrap();
        let i = b.push_missing((), &[0]).unwrap();
        assert_eq!(b.execution().record(i).prefix, Prefix::from_iter([1]));
    }

    #[test]
    fn verify_detects_tampered_update() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(()).unwrap();
        let mut e = b.finish();
        e.records[0].update = Up::Noop; // decision from state 0 says Bump
        let e = e.clone(); // in-place edit invalidates replays; a clone's cache is cold
        assert_eq!(
            e.verify(&app),
            Err(ExecutionError::UpdateMismatch { txn: 0 })
        );
    }

    #[test]
    fn verify_detects_tampered_actions() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(()).unwrap();
        let mut e = b.finish();
        e.records[0]
            .external_actions
            .push(crate::app::ExternalAction::new("bogus", "x"));
        let e = e.clone();
        assert_eq!(
            e.verify(&app),
            Err(ExecutionError::ExternalActionMismatch { txn: 0 })
        );
    }

    #[test]
    fn subsequence_state_applies_selected_updates() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        for _ in 0..3 {
            b.push((), vec![]).unwrap(); // three bumps
        }
        let e = b.finish();
        assert_eq!(e.subsequence_state(&app, &[0, 2]), 2);
        assert_eq!(e.subsequence_state(&app, &[]), 0);
    }

    #[test]
    fn actual_states_includes_initial() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        b.push((), vec![]).unwrap();
        let e = b.finish();
        assert_eq!(e.actual_states(&app), vec![0, 1]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ExecutionError::UpdateMismatch { txn: 3 };
        assert!(e.to_string().contains("transaction 3"));
    }

    #[test]
    fn fold_matches_actual_states() {
        let app = Capped;
        let mut b = ExecutionBuilder::new(&app);
        for i in 0..10 {
            b.push((), (0..i).filter(|j| j % 2 == 0).collect()).unwrap();
        }
        let e = b.finish();
        let streamed = e.fold_actual_states(&app, Vec::new(), |mut acc, m, s| {
            acc.push((m, *s));
            acc
        });
        let materialized: Vec<(usize, u32)> =
            e.actual_states(&app).into_iter().enumerate().collect();
        assert_eq!(streamed, materialized);
    }

    mod equivalence {
        //! The cached engine must be byte-identical to from-scratch
        //! replay (the [`naive`] oracle) on random executions, at every
        //! checkpoint interval.
        use super::super::naive;
        use super::*;
        use proptest::prelude::*;

        /// Random prefix recipe: each transaction keeps preceding index
        /// `j` iff bit `j % 64` of its mask is set. The replay cache
        /// checkpoints every `every` applied updates.
        fn build(masks: &[u64], every: usize) -> Execution<Capped> {
            let app = Capped;
            let mut b = ExecutionBuilder {
                app: &app,
                exec: Execution::with_checkpoint_interval(every),
            };
            for (i, m) in masks.iter().enumerate() {
                let prefix: Vec<TxnIndex> = (0..i).filter(|j| m >> (j % 64) & 1 == 1).collect();
                b.push((), prefix).unwrap();
            }
            b.finish()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn cached_queries_match_naive_oracle(
                masks in proptest::collection::vec(any::<u64>(), 1..60),
                every in 1usize..40,
            ) {
                let app = Capped;
                let e = build(&masks, every);
                for i in 0..e.len() {
                    let prefix: Vec<TxnIndex> = e.record(i).prefix.iter().collect();
                    prop_assert_eq!(
                        e.apparent_state_before(&app, i),
                        naive::state_after_prefix(&app, &e, &prefix)
                    );
                    prop_assert_eq!(
                        e.actual_state_after(&app, i),
                        naive::actual_state_after(&app, &e, i)
                    );
                }
                let last: Vec<TxnIndex> = (0..e.len()).step_by(2).collect();
                prop_assert_eq!(
                    e.subsequence_state(&app, &last),
                    naive::state_after_prefix(&app, &e, &last)
                );
            }
        }
    }
}
