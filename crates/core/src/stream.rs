//! Streaming (online) verification of the §3 conditions.
//!
//! The condition checkers in [`crate::conditions`] are whole-execution
//! folds: they need every prefix in memory before they answer, so a
//! chaos run must finish before we learn it was doomed. This module is
//! the *online* counterpart — monitors that consume an execution one
//! transaction at a time, in serial order, and maintain exactly the
//! evidence needed to answer "does the condition still hold?" after
//! every row:
//!
//! * **k-completeness** is trivially online: `missed_count(i)` is the
//!   size of row `i`'s miss set, so the running maximum is one
//!   comparison per row.
//! * **transitivity** is the interesting one. Row `i` with miss set
//!   `Mᵢ` violates transitivity iff some `x ∈ Mᵢ` has a *witness*
//!   `j ∈ (x, i)` with `j ∈ 𝒫ᵢ` and `x ∈ 𝒫ⱼ` — a transaction `i` saw
//!   that had itself seen `x`. Because `j ∈ 𝒫ᵢ ⟺ j ∉ Mᵢ` and
//!   `x ∈ 𝒫ⱼ ⟺ j ∉ missers(x)`, the check only needs, per past
//!   transaction `x`, the set of rows that missed `x` — the **missers
//!   index**. Each past row keeps its missers less than 128 rows on
//!   **inline**, beside its time, as a 128-bit map relative to itself
//!   (bit `d`: row `x + d` missed `x`), and row `i` comes to the checker
//!   with the misses of its own last 127 rows as one *near map* ending
//!   just below `i`. For a missed `x` that near, one shift lines the two
//!   maps up: a clear bit in `(x, i)` is the smallest witness, and
//!   adding `i` to `missers(x)` is one OR. Under 64 rows back — every
//!   miss of a block-shuffled stream — the halves of both maps that
//!   matter are one machine word each, so that is `u64` work; the near
//!   map's set bits are walked in ascending order. Misses 128 or more
//!   rows back take the general path, on **64-row words** — ascending
//!   `(row / 64, bits)` pairs aligned on absolute row numbers: `Mᵢ`
//!   packed once, and `missers(x)` as its near map's words plus a list
//!   of the far ones, walked over `(x, i)` a word at a time, a full
//!   word of that list at one compare. That is O(|Mᵢ|) per row
//!   plus Σ ⌈(i − x)/64⌉ word operations over the far misses only;
//!   rows with empty miss sets (the common case) cost nothing.
//! * **t-bounded delay** follows the same shape: row `i` raises the
//!   running bound to `timeᵢ − timeₓ + 1` for each missed `x`, which
//!   needs only the initiation time of every row that can still be
//!   missed.
//!
//! The [`StreamChecker`] wraps the three monitors behind a *window*
//! abstraction: every `window` rows it emits a [`WindowVerdict`] (the
//! cumulative verdicts at that boundary). Per-row state — the time, the
//! near missers and where the far ones are — sits in a window indexed
//! by `row − start`, so looking up `missers(x)` and adding to it are
//! O(1). A driver that knows no later row will miss anything below some
//! frontier says so ([`StreamChecker::retire_below`]): the window
//! slides and the word lists behind it are recycled, so the checker
//! holds the live span, not the history.
//!
//! A row reaches the checker in one form: its far misses as a sorted
//! slice and its near map. Two adapters build it.
//! [`StreamChecker::try_push`] takes a miss list from outside the
//! program, refuses an ill-formed one ([`RowError`]) and ORs the near
//! part into the map. The fold behind [`par_check`] and the
//! whole-execution checkers reads each prefix's runs directly: a gap
//! inside the near span is one mask, and only a gap reaching 128 rows
//! back is copied out, miss by miss.
//!
//! The checker is the one §3 transitivity algorithm: `is_transitive`
//! and `transitivity_violation` are [`par_check`]'s fold, cut at the
//! first violation. Its independent judges are the oracles of
//! `tests/checker_oracles.rs` and the shared-nothing `shard-trace
//! certify`; its k and t equal `max_missed` and `min_delay_bound` at
//! every window (`tests/stream_equivalence.rs`).
//!
//! The row has one home. This module declares [`StreamRow`], its JSONL
//! form (trace lines) and its binary form (store records), and
//! [`StreamingExecution`] — the store-backed sequence of rows an
//! out-of-core run seals into and re-checks from — so a change to what
//! a sealed row *is* touches one file.
//!
//! Every verdict ships with a [`Certificate`] — the witness rows that
//! *prove* it — serialized into the trace vocabulary so an independent
//! validator (`shard-trace certify`, implemented in `shard-obs` with no
//! types from this crate) can re-check it against the raw trace in
//! O(|certificate|) work, without replaying the execution.

use crate::app::Application;
use crate::conditions::TimedExecution;
use crate::execution::{Execution, TxnIndex};
use shard_pool::PoolConfig;

/// Schema tag stamped into serialized certificates.
pub const CERT_SCHEMA: &str = "shard-cert/v1";

/// Registers `stream.rows` / `stream.windows` / `stream.violations`
/// together (see `shard_obs::counter!`).
fn family() {
    for name in ["stream.rows", "stream.windows", "stream.violations"] {
        shard_obs::Registry::global().counter(name);
    }
}

/// One transaction of the streaming vocabulary: its position in the
/// serial order, its real initiation time, and the sorted indices of
/// the preceding transactions it did **not** see (the complement of its
/// prefix subsequence). Miss sets are the natural wire form — sparse
/// under realistic fault rates where prefixes are nearly complete, so a
/// row is O(|missed|), not O(i).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamRow {
    /// Position in the global serial order (0-based).
    pub index: TxnIndex,
    /// Real initiation time (the simulator's integer ticks).
    pub time: u64,
    /// Strictly increasing indices in `0..index` the transaction
    /// missed: `missed = {0..index} ∖ 𝒫(index)`.
    pub missed: Vec<TxnIndex>,
}

impl StreamRow {
    /// Renders the row as one JSONL trace line:
    /// `{"event":"txn","i":…,"t":…,"missed":[…]}`.
    pub fn to_json_line(&self) -> String {
        let missed: Vec<String> = self.missed.iter().map(ToString::to_string).collect();
        shard_obs::ObjWriter::new()
            .str("event", "txn")
            .u64("i", self.index as u64)
            .u64("t", self.time)
            .raw("missed", &format!("[{}]", missed.join(",")))
            .finish()
    }

    /// Parses a `txn` trace line back into a row.
    ///
    /// # Errors
    ///
    /// Returns a description if the line is not a `txn` event or its
    /// fields are missing, ill-typed, or the miss set is not strictly
    /// increasing below `i`.
    pub fn from_json_line(line: &str) -> Result<StreamRow, String> {
        let v = shard_obs::json::parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
        if v.get("event").and_then(shard_obs::Json::as_str) != Some("txn") {
            return Err("not a txn event".to_string());
        }
        let index = v
            .get("i")
            .and_then(shard_obs::Json::as_u64)
            .ok_or("txn event lacks index field \"i\"")? as usize;
        let time = v
            .get("t")
            .and_then(shard_obs::Json::as_u64)
            .ok_or("txn event lacks time field \"t\"")?;
        let missed: Vec<usize> = v
            .get("missed")
            .and_then(shard_obs::Json::as_arr)
            .ok_or("txn event lacks \"missed\" array")?
            .iter()
            .map(|m| {
                shard_obs::Json::as_u64(m)
                    .map(|m| m as usize)
                    .ok_or_else(|| "non-integer miss entry".to_string())
            })
            .collect::<Result<_, _>>()?;
        let row = StreamRow {
            index,
            time,
            missed,
        };
        if !row.missed_well_formed() {
            return Err(format!(
                "miss set of row {index} is not strictly increasing below {index}"
            ));
        }
        Ok(row)
    }

    /// Whether the miss set is strictly increasing and below `index`.
    pub fn missed_well_formed(&self) -> bool {
        missed_well_formed(self.index, &self.missed)
    }
}

fn missed_well_formed(index: TxnIndex, missed: &[TxnIndex]) -> bool {
    missed.windows(2).all(|w| w[0] < w[1]) && missed.last().is_none_or(|&m| m < index)
}

/// A compact, independently checkable witness for a monitor verdict —
/// the streaming analogue of the §3.1 counterexamples. Certificates
/// name *rows of the trace*; re-validation reads only those rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// A transitivity violation: `low ∈ 𝒫(mid)`, `mid ∈ 𝒫(top)`, yet
    /// `low ∉ 𝒫(top)` — in miss-set terms, `low ∉ missed(mid)`,
    /// `mid ∉ missed(top)`, `low ∈ missed(top)`.
    Transitivity {
        /// The transaction seen indirectly but not directly.
        low: TxnIndex,
        /// The intermediary that saw `low`.
        mid: TxnIndex,
        /// The transaction that saw `mid` but missed `low`.
        top: TxnIndex,
    },
    /// The row attaining the execution's `max_missed`: a witness that
    /// the execution is **not** (`missed − 1`)-complete.
    KCompleteness {
        /// The witness row.
        index: TxnIndex,
        /// Its miss-set size (the execution's `max_missed`).
        missed: usize,
    },
    /// The pair attaining the execution's minimal delay bound: `seer`
    /// missed `missed` although it ran `bound − 1` ticks later, so no
    /// `t < bound` is a valid delay bound.
    DelayBound {
        /// The late transaction whose prefix omitted `missed`.
        seer: TxnIndex,
        /// The omitted predecessor.
        missed: TxnIndex,
        /// `time(seer) − time(missed) + 1` — the execution's
        /// `min_delay_bound`.
        bound: u64,
    },
}

impl Certificate {
    /// The property the certificate witnesses, as its trace name.
    pub fn property(&self) -> &'static str {
        match self {
            Certificate::Transitivity { .. } => "transitivity",
            Certificate::KCompleteness { .. } => "k_completeness",
            Certificate::DelayBound { .. } => "delay_bound",
        }
    }

    /// Serializes the certificate as one JSON object in the trace
    /// vocabulary (schema [`CERT_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let w = shard_obs::ObjWriter::new()
            .str("schema", CERT_SCHEMA)
            .str("property", self.property());
        match *self {
            Certificate::Transitivity { low, mid, top } => w
                .u64("low", low as u64)
                .u64("mid", mid as u64)
                .u64("top", top as u64),
            Certificate::KCompleteness { index, missed } => {
                w.u64("index", index as u64).u64("missed", missed as u64)
            }
            Certificate::DelayBound {
                seer,
                missed,
                bound,
            } => w
                .u64("seer", seer as u64)
                .u64("missed", missed as u64)
                .u64("bound", bound),
        }
        .finish()
    }
}

/// The cumulative verdicts at one window boundary: after `end` rows,
/// over the whole stream so far (not just the window's rows — a
/// violation in window 2 keeps every later verdict false, exactly like
/// the offline checkers on the growing prefix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowVerdict {
    /// 0-based window ordinal.
    pub window: usize,
    /// First row of the window.
    pub start: TxnIndex,
    /// One past the last row of the window.
    pub end: TxnIndex,
    /// `is_transitive` of the first `end` rows.
    pub transitive: bool,
    /// `max_missed` of the first `end` rows.
    pub max_missed: usize,
    /// `min_delay_bound` of the first `end` rows.
    pub delay_bound: u64,
}

impl WindowVerdict {
    /// Renders the verdict as one JSONL trace line
    /// (`{"event":"monitor.window",…}`).
    pub fn to_json_line(&self) -> String {
        shard_obs::ObjWriter::new()
            .str("event", "monitor.window")
            .u64("window", self.window as u64)
            .u64("start", self.start as u64)
            .u64("end", self.end as u64)
            .bool("transitive", self.transitive)
            .u64("max_missed", self.max_missed as u64)
            .u64("delay_bound", self.delay_bound)
            .finish()
    }
}

/// Everything a finished (or in-flight) stream check concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamReport {
    /// Rows consumed.
    pub rows: usize,
    /// `is_transitive` verdict over all consumed rows.
    pub transitive: bool,
    /// `max_missed` over all consumed rows.
    pub max_missed: usize,
    /// `min_delay_bound` over all consumed rows.
    pub min_delay_bound: u64,
    /// One cumulative verdict per completed window.
    pub verdicts: Vec<WindowVerdict>,
    /// Witnesses for the verdicts: the first transitivity violation (if
    /// any), the `max_missed` row (when > 0), and the delay-bound pair
    /// (when > 0) — each independently checkable against the raw trace.
    pub certificates: Vec<Certificate>,
}

impl StreamReport {
    /// The transitivity-violation certificate, if the stream had one.
    pub fn violation(&self) -> Option<&Certificate> {
        self.certificates
            .iter()
            .find(|c| matches!(c, Certificate::Transitivity { .. }))
    }
}

/// Why [`StreamChecker::try_push`] refused a row. The checker is left
/// exactly as it was before the call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowError {
    /// The row is not the next one of the serial order.
    OutOfOrder {
        /// The index the checker would accept (rows consumed so far).
        expected: TxnIndex,
        /// The index the row carried.
        got: TxnIndex,
    },
    /// The row's miss set is not strictly increasing below its index.
    MalformedMisses {
        /// The offending row.
        index: TxnIndex,
    },
    /// The row misses a transaction the caller retired
    /// ([`StreamChecker::retire_below`]): the evidence needed to judge
    /// it is gone, so the row is refused rather than judged wrongly.
    RetiredMiss {
        /// The offending row.
        index: TxnIndex,
        /// Its smallest miss.
        missed: TxnIndex,
        /// The frontier the caller retired below.
        frontier: TxnIndex,
    },
}

impl std::fmt::Display for RowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RowError::OutOfOrder { expected, got } => write!(
                f,
                "stream rows must arrive in serial order: got row {got}, expected {expected}"
            ),
            RowError::MalformedMisses { index } => write!(
                f,
                "miss set of row {index} is not strictly increasing below it"
            ),
            RowError::RetiredMiss {
                index,
                missed,
                frontier,
            } => write!(
                f,
                "row {index} misses {missed}, below the retired frontier {frontier}"
            ),
        }
    }
}

impl std::error::Error for RowError {}

/// One 64-row word of a row set: `(row / 64, bits)`, bit `row % 64` set
/// for each member. A set is its non-zero words in ascending order,
/// aligned on absolute row numbers, so two sets OR word against word.
type Word = (u32, u64);

/// How far back the inline missers bitmap reaches: row `x + d` for
/// `d < NEAR` missed `x` iff bit `d` of `x`'s bitmap is set.
const NEAR: usize = 128;

/// Adds `row` — above every member so far — to a word set.
fn push_row(words: &mut Vec<Word>, row: TxnIndex) {
    let (word, bit) = ((row / 64) as u32, 1u64 << (row % 64));
    match words.last_mut() {
        Some(last) if last.0 == word => last.1 |= bit,
        _ => {
            // Most sets span a word or two: grow 1, 2, 4, … rather
            // than by `Vec`'s first step of four.
            if words.len() == words.capacity() {
                words.reserve_exact(words.len().max(1));
            }
            words.push((word, bit));
        }
    }
}

/// What the checker keeps of one row `x` it has consumed and not yet
/// retired.
#[derive(Clone, Copy, Debug)]
struct Seen {
    /// `missers(x)` below [`NEAR`] rows on: bit `d` is set iff row
    /// `x + d` missed `x`.
    near: u128,
    /// Initiation time of `x`.
    time: u64,
    /// Where the rest of `missers(x)` — rows `NEAR` or more after `x`
    /// — is kept: 0 while there are none, else 1 + its position in
    /// `lists`.
    slot: u32,
}

/// The windowed online checker: push rows in serial order, get a
/// cumulative [`WindowVerdict`] back every `window` rows, read the
/// final [`StreamReport`] (verdicts + certificates) at any point.
///
/// State is the **live span**: 32 B per row not yet retired — its
/// time and the missers less than 128 rows on — 24 B more once a row
/// 128 or more later missed it plus 16 B per 64-row word of those far
/// missers, and one [`WindowVerdict`] per *change* of the cumulative
/// verdict (the windows between repeat it).
/// Windows bound *latency to a verdict*; memory is bounded by
/// [`retire_below`](StreamChecker::retire_below) — a checker nobody
/// retires (the live monitor, `shard-trace watch`, [`check_rows`])
/// keeps every row.
#[derive(Clone, Debug)]
pub struct StreamChecker {
    window: usize,
    /// First transitivity violation `(low, mid, top)` in (row, missed,
    /// smallest witness) scan order; the stream is transitive so far
    /// iff this is `None`.
    pub(crate) first_violation: Option<(TxnIndex, TxnIndex, TxnIndex)>,
    /// Rows below this are retired: no later row may miss them.
    base: TxnIndex,
    /// The row `seen[0]` describes; at most `base`, and brought up to
    /// it whenever the retired rows outnumber the rest.
    start: TxnIndex,
    /// Rows `start..rows()`, indexed by `row − start`.
    seen: Vec<Seen>,
    /// The far missers word lists of the rows that have any.
    lists: Vec<Vec<Word>>,
    /// The `slot` values of retired rows, their lists emptied
    /// for the rows that follow: a retiring stream allocates nothing
    /// in steady state.
    free: Vec<u32>,
    /// The miss set of the row being pushed, packed — reused, and
    /// filled only for a row with a miss [`NEAR`] or more rows back.
    mine: Vec<Word>,
    /// Largest miss-set size so far (`max_missed` of the prefix).
    max_missed: usize,
    /// First row attaining `max_missed` (meaningful when > 0).
    worst_row: TxnIndex,
    /// Minimal delay bound of the prefix (0 = all prefixes complete).
    delay_bound: u64,
    /// First `(seer, missed)` pair attaining `delay_bound`.
    delay_witness: Option<(TxnIndex, TxnIndex)>,
    /// Windows completed.
    windows: usize,
    /// The verdict history, run-length: the verdict of every window
    /// whose cumulative answer differs from the window before it.
    changes: Vec<WindowVerdict>,
}

impl StreamChecker {
    /// A fresh checker emitting a verdict every `window` rows.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "a verdict window must hold at least one row");
        StreamChecker {
            window,
            first_violation: None,
            base: 0,
            start: 0,
            seen: Vec::new(),
            lists: Vec::new(),
            free: Vec::new(),
            mine: Vec::new(),
            max_missed: 0,
            worst_row: 0,
            delay_bound: 0,
            delay_witness: None,
            windows: 0,
            changes: Vec::new(),
        }
    }

    /// Rows consumed so far.
    pub fn rows(&self) -> usize {
        self.start + self.seen.len()
    }

    /// Whether no transitivity violation has been seen yet — the
    /// running verdict, readable between windows without building a
    /// report.
    pub fn transitive_so_far(&self) -> bool {
        self.first_violation.is_none()
    }

    /// The caller's statement that no later row will miss anything
    /// below `frontier` (clamped to [`rows`](StreamChecker::rows)):
    /// the times and missers of those rows are dropped and their word
    /// lists recycled. Verdicts, witnesses and certificates are exactly
    /// those of a checker that kept everything; a later row that does
    /// miss below the frontier is refused
    /// ([`RowError::RetiredMiss`]), never judged without its evidence.
    /// The frontier only moves forward — a lower one is a no-op.
    ///
    /// Each time the window slides over its dead prefix the gauge
    /// `stream.checker_resident_bytes` is set to
    /// [`resident_bytes`](StreamChecker::resident_bytes) — the one
    /// place it is written, so it reads what the checker of the pass
    /// running (or last run) holds; a checker nobody retires never
    /// touches it.
    pub fn retire_below(&mut self, frontier: TxnIndex) {
        let frontier = frontier.min(self.rows());
        if frontier <= self.base {
            return;
        }
        for dead in &self.seen[self.base - self.start..frontier - self.start] {
            if dead.slot != 0 {
                self.lists[dead.slot as usize - 1].clear();
                self.free.push(dead.slot);
            }
        }
        self.base = frontier;
        // Close the gap once it is the larger half: a move per row.
        let gap = self.base - self.start;
        if gap >= self.seen.len() - gap {
            self.seen.drain(..gap);
            self.start = self.base;
            if shard_obs::enabled() {
                shard_obs::Registry::global()
                    .gauge("stream.checker_resident_bytes")
                    .set(self.resident_bytes() as i64);
            }
        }
    }

    /// Heap and inline bytes the checker holds right now, summed from
    /// the capacities of everything it owns. This is the state that
    /// [`retire_below`](StreamChecker::retire_below) bounds; a
    /// [`report`](StreamChecker::report) is built on top of it, one
    /// verdict per window, at every call.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let words = self.lists.iter().map(Vec::capacity).sum::<usize>() + self.mine.capacity();
        size_of::<Self>()
            + self.seen.capacity() * size_of::<Seen>()
            + self.lists.capacity() * size_of::<Vec<Word>>()
            + self.free.capacity() * size_of::<u32>()
            + words * size_of::<Word>()
            + self.changes.capacity() * size_of::<WindowVerdict>()
    }

    /// Consumes the next row of the serial order; returns the
    /// cumulative verdict when `row` completes a window.
    ///
    /// # Panics
    ///
    /// Panics where [`StreamChecker::try_push`] returns an error —
    /// for streams fed in serial order by construction, where either
    /// is a harness bug.
    pub fn push(&mut self, row: &StreamRow) -> Option<WindowVerdict> {
        self.try_push(row.index, row.time, &row.missed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`StreamChecker::push`] by borrowed parts, for rows read from
    /// outside the program (a store, a trace file).
    ///
    /// # Errors
    ///
    /// [`RowError`] if `index` is not the next expected index, `missed`
    /// is not strictly increasing below it, or it reaches below the
    /// retired frontier.
    ///
    /// # Panics
    ///
    /// Panics past 2³⁸ rows (the index numbers its words as `u32`).
    pub fn try_push(
        &mut self,
        index: TxnIndex,
        time: u64,
        missed: &[TxnIndex],
    ) -> Result<Option<WindowVerdict>, RowError> {
        if index != self.rows() {
            return Err(RowError::OutOfOrder {
                expected: self.rows(),
                got: index,
            });
        }
        if !missed_well_formed(index, missed) {
            return Err(RowError::MalformedMisses { index });
        }
        if let Some(&x) = missed.first().filter(|&&x| x < self.base) {
            return Err(RowError::RetiredMiss {
                index,
                missed: x,
                frontier: self.base,
            });
        }
        let near_from = missed.partition_point(|&x| index - x >= NEAR);
        // The near map, bit k for row index − NEAR + k, built a word at
        // a time: a u128 shift by a variable is a shld/cmov sequence.
        let (mut low, mut high) = (0u64, 0u64);
        for &x in &missed[near_from..] {
            match x + NEAR - index {
                k @ 0..64 => low |= 1 << k,
                k => high |= 1 << (k - 64),
            }
        }
        let near = u128::from(high) << 64 | u128::from(low);
        Ok(self.counted_step(index, time, &missed[..near_from], near))
    }

    /// [`step`](StreamChecker::step), counted as a stream row.
    #[inline]
    fn counted_step(
        &mut self,
        index: TxnIndex,
        time: u64,
        far: &[TxnIndex],
        near: u128,
    ) -> Option<WindowVerdict> {
        let transitive = self.transitive_so_far();
        let verdict = self.step(index, time, far, near);
        if shard_obs::enabled() {
            // One atomic a row: the other two counters move rarely.
            shard_obs::counter!("stream.rows", family).inc();
            if verdict.is_some() {
                shard_obs::counter!("stream.windows", family).inc();
            }
            if transitive && !self.transitive_so_far() {
                shard_obs::counter!("stream.violations", family).inc();
            }
        }
        verdict
    }

    /// [`try_push`](StreamChecker::try_push)'s work on a row the caller
    /// vouches for, counted nowhere: the whole-execution checkers of
    /// [`crate::conditions`] consume no stream. The row comes as its
    /// misses [`NEAR`] or more rows back, `far` (ascending, at or above
    /// the retired frontier), and its *near map* of the rest: bit `k`
    /// is row `index − NEAR + k`, so bit 0 is always clear.
    pub(crate) fn step(
        &mut self,
        index: TxnIndex,
        time: u64,
        far: &[TxnIndex],
        near: u128,
    ) -> Option<WindowVerdict> {
        assert!(
            index / 64 <= u32::MAX as usize,
            "the missers index numbers words as u32"
        );

        // The miss-set size, counted as the loops below walk it.
        let mut missed = far.len();
        if !far.is_empty() {
            self.far_misses(index, time, far, near);
        }

        // The near misses, ascending. The near map shifted down by
        // NEAR − (i − x) is Mᵢ from x on, aligned with x's near map:
        // bit d is row x + d; bits 1..back are (x, i), and bit 0 — x
        // itself — is set, since i missed it. First those 64 to 127 rows
        // back (the low word and bit 64), on u128.
        let mut wide = near & ((1 << 65) - 1);
        while wide != 0 {
            let back = NEAR - wide.trailing_zeros() as usize;
            wide &= wide - 1;
            missed += 1;
            let x = index - back;
            let seen = &mut self.seen[x - self.start];
            let mut witness = None;
            if self.first_violation.is_none() {
                let blocked = (near >> (NEAR - back)) | seen.near;
                let free = !blocked & ((1 << back) - 1);
                witness = (free != 0).then(|| x + free.trailing_zeros() as usize);
            }
            seen.near |= 1 << back;
            let since = seen.time;
            self.judge_miss(index, time, x, since, witness);
        }
        // Then those under 64 rows back — every miss of a block-shuffled
        // stream — on one word: the high word of the near map holds row
        // i − 64 + k at bit k, and missers(x) under 64 rows on is the low
        // word of x's map.
        let high = (near >> 64) as u64;
        let mut narrow = high & !1;
        while narrow != 0 {
            let back = 64 - narrow.trailing_zeros() as usize;
            narrow &= narrow - 1;
            missed += 1;
            let x = index - back;
            let seen = &mut self.seen[x - self.start];
            let mut witness = None;
            if self.first_violation.is_none() {
                let blocked = (high >> (64 - back)) | seen.near as u64;
                let free = !blocked & ((1 << back) - 1);
                witness = (free != 0).then(|| x + free.trailing_zeros() as usize);
            }
            seen.near |= u128::from(1u64 << back);
            let since = seen.time;
            self.judge_miss(index, time, x, since, witness);
        }

        // k-completeness: the miss-set size IS missed_count(i).
        if missed > self.max_missed {
            self.max_missed = missed;
            self.worst_row = index;
        }
        self.seen.push(Seen {
            near: 0,
            time,
            slot: 0,
        });

        let rows = self.rows();
        if !rows.is_multiple_of(self.window) {
            return None;
        }
        let verdict = WindowVerdict {
            window: self.windows,
            start: rows - self.window,
            end: rows,
            transitive: self.first_violation.is_none(),
            max_missed: self.max_missed,
            delay_bound: self.delay_bound,
        };
        self.windows += 1;
        let answer = |v: &WindowVerdict| (v.transitive, v.max_missed, v.delay_bound);
        if self.changes.last().map(answer) != Some(answer(&verdict)) {
            self.changes.push(verdict);
        }
        Some(verdict)
    }

    /// [`step`](StreamChecker::step)'s general path, for the misses
    /// [`NEAR`] or more rows back: the row's misses packed into words,
    /// against each one's near map and far list.
    // Kept out of `step`, whose near loops every row runs: inlined, it
    // slowed the far-miss shapes it serves.
    #[inline(never)]
    fn far_misses(&mut self, index: TxnIndex, time: u64, far: &[TxnIndex], near: u128) {
        self.mine.clear();
        for &x in far {
            push_row(&mut self.mine, x);
        }
        let mut bits = near;
        while bits != 0 {
            push_row(
                &mut self.mine,
                index - NEAR + bits.trailing_zeros() as usize,
            );
            bits &= bits - 1;
        }
        // The first word of `mine` that reaches above x.
        let mut above = 0;
        for &x in far {
            let seen = &mut self.seen[x - self.start];
            let mut witness = None;
            if self.first_violation.is_none() {
                let first = (x + 1) / 64;
                while self.mine.get(above).is_some_and(|m| (m.0 as usize) < first) {
                    above += 1;
                }
                let list = match seen.slot {
                    0 => &[][..],
                    slot => &self.lists[slot as usize - 1],
                };
                witness = gap_witness(&self.mine[above..], seen.near, list, x, index);
            }
            // Row i joins missers(x) — after the check, though its own
            // bit lies outside (x, i) either way.
            if seen.slot == 0 {
                seen.slot = self.free.pop().unwrap_or_else(|| {
                    self.lists.push(Vec::new());
                    u32::try_from(self.lists.len()).expect("under 2³² rows missed at once")
                });
            }
            push_row(&mut self.lists[seen.slot as usize - 1], index);
            let since = seen.time;
            self.judge_miss(index, time, x, since, witness);
        }
    }

    /// Folds one miss of row `index` (started at `time`) into the
    /// running verdicts: of `x`, started at `since`, with the smallest
    /// transitivity witness for it if the check ran and found one.
    fn judge_miss(
        &mut self,
        index: TxnIndex,
        time: u64,
        x: TxnIndex,
        since: u64,
        witness: Option<TxnIndex>,
    ) {
        // Delay bound: missing x is tolerable only for t > timeᵢ − timeₓ.
        let bound = time.saturating_sub(since).saturating_add(1);
        if bound > self.delay_bound {
            self.delay_bound = bound;
            self.delay_witness = Some((index, x));
        }
        // Transitivity: a witness j ∈ (x, i) is outside both Mᵢ and
        // missers(x) — such a j is in 𝒫ᵢ and saw x.
        if let Some(j) = witness {
            self.first_violation = Some((x, j, index));
        }
    }

    /// The verdicts and certificates for everything consumed so far.
    /// O(windows) time and allocation per call, however far the checker
    /// has retired: the run-length history is expanded into one
    /// [`WindowVerdict`] per window. A caller that polls has the
    /// verdict [`try_push`](StreamChecker::try_push) returned at the
    /// last window and
    /// [`transitive_so_far`](StreamChecker::transitive_so_far).
    pub fn report(&self) -> StreamReport {
        let mut certificates = Vec::new();
        if let Some((low, mid, top)) = self.first_violation {
            certificates.push(Certificate::Transitivity { low, mid, top });
        }
        if self.max_missed > 0 {
            certificates.push(Certificate::KCompleteness {
                index: self.worst_row,
                missed: self.max_missed,
            });
        }
        if let Some((seer, missed)) = self.delay_witness {
            certificates.push(Certificate::DelayBound {
                seer,
                missed,
                bound: self.delay_bound,
            });
        }
        let mut verdicts = Vec::with_capacity(self.windows);
        for (k, change) in self.changes.iter().enumerate() {
            let until = self.changes.get(k + 1).map_or(self.windows, |c| c.window);
            verdicts.extend((change.window..until).map(|w| WindowVerdict {
                window: w,
                start: w * self.window,
                end: (w + 1) * self.window,
                ..*change
            }));
        }
        StreamReport {
            rows: self.rows(),
            transitive: self.first_violation.is_none(),
            max_missed: self.max_missed,
            min_delay_bound: self.delay_bound,
            verdicts,
            certificates,
        }
    }
}

/// Finds the smallest `j ∈ (x, i)` in none of the checking row's
/// misses (`mine`, words from the word of `x + 1` on) and the rows that
/// missed `x` (`near`, its map, and `far`, its words), or `None` if
/// every candidate is blocked. One OR per 64 candidates, ends masked; a
/// word in no set is free at its first in-range bit. A full word of the
/// far list blocks whatever else holds: past the row's own last word,
/// such words are stepped over at one compare each — the whole scan
/// when a row long cut off is missed by every row since.
fn gap_witness(
    mine: &[Word],
    near: u128,
    far: &[Word],
    x: TxnIndex,
    i: TxnIndex,
) -> Option<TxnIndex> {
    // Candidates are x + 1 ..= i − 1 (x < i, so i ≥ 1); for x + 1 = i
    // the words or the masks leave none.
    let (first, last) = ((x + 1) / 64, (i - 1) / 64);
    // The near map spans the word of x and the two after it; its last
    // word may also be the first of `far`, and each blocks on its own.
    let s = x % 64;
    let near_words = [
        (near << s) as u64,
        ((near << s) >> 64) as u64,
        near.checked_shr(128 - s as u32).unwrap_or(0) as u64,
    ];
    let (mut a, mut b) = (0, 0);
    let mut w = first;
    while w <= last {
        if a == mine.len() {
            while w < last && far.get(b).is_some_and(|&t| t == (w as u32, !0)) {
                w += 1;
                b += 1;
            }
        }
        let mut free = !near_words.get(w - x / 64).copied().unwrap_or(0);
        if let Some(m) = mine.get(a).filter(|m| m.0 as usize == w) {
            free &= !m.1;
            a += 1;
        }
        if let Some(t) = far.get(b).filter(|t| t.0 as usize == w) {
            free &= !t.1;
            b += 1;
        }
        if w == first {
            free &= !0 << ((x + 1) % 64);
        }
        if w == last {
            free &= !0 >> (63 - (i - 1) % 64);
        }
        if free != 0 {
            return Some(w * 64 + free.trailing_zeros() as usize);
        }
        w += 1;
    }
    None
}

/// Converts a timed execution into its stream rows: row `i`'s miss set
/// is a copy of the gaps of `𝒫ᵢ` below `i`
/// ([`Prefix::missed_below`](crate::execution::Prefix::missed_below)),
/// extended gap by gap, O(|Mᵢ|) per row, on the calling thread.
///
/// `pool` is not used: callers (the frozen benchmark among them) pass
/// one, and a second thread never paid for the hand-off (DESIGN.md
/// §12 has the measurement).
pub fn rows_from_execution<A: Application>(
    _pool: &PoolConfig,
    te: &TimedExecution<A>,
) -> Vec<StreamRow> {
    let rows = te.execution.records().iter().zip(&te.times).enumerate();
    rows.map(|(i, (record, &time))| {
        // Exact unless the prefix strays past `i`, which only `verify`
        // rules out; then the vector grows.
        let mut missed = Vec::with_capacity(i.saturating_sub(record.prefix.len()));
        for gap in record.prefix.gaps_below(i) {
            missed.extend(gap);
        }
        StreamRow {
            index: i,
            time,
            missed,
        }
    })
    .collect()
}

/// Feeds pre-extracted rows through a fresh checker and reports.
pub fn check_rows(window: usize, rows: &[StreamRow]) -> StreamReport {
    let mut checker = StreamChecker::new(window);
    for row in rows {
        checker.push(row);
    }
    checker.report()
}

/// The offline entry point: folds the execution through one
/// [`StreamChecker`] — its rows are never materialized — and reports.
/// `pool` is not used, as in [`rows_from_execution`].
pub fn par_check<A: Application>(
    _pool: &PoolConfig,
    te: &TimedExecution<A>,
    window: usize,
) -> StreamReport {
    let _span = shard_obs::span!("stream.par_check");
    fold_execution(&te.execution, Some(&te.times), window).report()
}

/// The fold of an execution behind [`par_check`] and the §3
/// transitivity checkers: row `i` is `(i, times[i], gaps of 𝒫ᵢ)`, read
/// straight off the prefix's runs into the form the checker steps on.
/// A gap less than [`NEAR`] rows back is one mask on the row's near
/// map; only a gap reaching further writes its far part, miss by miss,
/// into one reused buffer. Its rows are never materialized: no
/// [`StreamRow`], no miss list. With `times` every row is counted as
/// [`StreamChecker::try_push`] counts it. Without, it checks
/// transitivity only: every time 0, stopped at the first violating row
/// (whose certificate is final there), and uncounted.
pub(crate) fn fold_execution<A: Application>(
    exec: &Execution<A>,
    times: Option<&[u64]>,
    window: usize,
) -> StreamChecker {
    let mut checker = StreamChecker::new(window);
    checker.seen.reserve_exact(exec.len());
    let mut far = Vec::new();
    for (i, record) in exec.records().iter().enumerate() {
        if times.is_none() && !checker.transitive_so_far() {
            break;
        }
        // Rows from `near_from` on sit in the near map; bit k is row
        // i − NEAR + k.
        let near_from = (i + 1).saturating_sub(NEAR);
        let mut near = 0u128;
        far.clear();
        for gap in record.prefix.gaps_below(i) {
            if gap.start < near_from {
                far.extend(gap.start..gap.end.min(near_from));
            }
            let start = gap.start.max(near_from);
            if start < gap.end {
                near |= ((1 << (gap.end - start)) - 1) << (start + NEAR - i);
            }
        }
        match times {
            Some(times) => checker.counted_step(i, times[i], &far, near),
            None => checker.step(i, 0, &far, near),
        };
    }
    checker
}

/// A stored row as [`StreamingExecution::for_each_row`] hands it back:
/// the sealed [`StreamRow`] plus the update the transaction contributed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamedRecord<U> {
    /// Position, initiation time and miss set.
    pub row: StreamRow,
    /// The update the transaction contributed.
    pub update: U,
}

/// An execution that lives in a [`Store`](shard_store::Store) instead
/// of a `Vec<TxnRecord>`: rows are appended in serial order, one record
/// each, and every whole-execution traversal —
/// [`for_each_row`](StreamingExecution::for_each_row),
/// [`final_state`](StreamingExecution::final_state),
/// the §3 window checker ([`check_stream`](StreamingExecution::check_stream)) —
/// runs in one key-order scan of the store, so peak resident state is one
/// application state plus one row, independent of the execution length.
///
/// Row `i` is the record under key `(i, 0)`; its value is `time` and
/// the miss count as LEB128 varints, the misses as varint
/// back-distances — `i` minus the last miss, then each gap down to the
/// miss before — and the update's [`Codec`](shard_store::Codec)
/// encoding (`docs/storage.md`).
pub struct StreamingExecution<A: Application> {
    store: Box<dyn shard_store::Store + Send>,
    len: usize,
    /// How far back a row reaches: the largest `index − missed[0]` over
    /// the rows in the store. Known while every row went through
    /// [`push`](StreamingExecution::push); `None` after a
    /// [`reopen`](StreamingExecution::reopen).
    reach: Option<usize>,
    /// The row being pushed, encoded — reused from row to row.
    scratch: Vec<u8>,
    _app: std::marker::PhantomData<fn() -> A>,
}

impl<A: Application> std::fmt::Debug for StreamingExecution<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingExecution")
            .field("len", &self.len)
            .finish()
    }
}

impl<A: Application> StreamingExecution<A>
where
    A::Update: shard_store::Codec,
{
    /// An empty streaming execution over `store` (which should be
    /// empty; reuse [`StreamingExecution::reopen`] for a store that
    /// already holds rows).
    pub fn new(store: Box<dyn shard_store::Store + Send>) -> Self {
        debug_assert_eq!(store.entries(), 0, "use reopen for a non-empty store");
        StreamingExecution {
            reach: Some(0),
            ..Self::reopen(store, 0)
        }
    }

    /// Re-attaches to a store holding `len` previously pushed rows.
    pub fn reopen(store: Box<dyn shard_store::Store + Send>, len: usize) -> Self {
        StreamingExecution {
            store,
            len,
            reach: None,
            scratch: Vec::new(),
            _app: std::marker::PhantomData,
        }
    }

    /// Durability barrier on the backing store.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.store.sync()
    }

    /// The backing store — exposed so fault harnesses can crash it
    /// under a live execution.
    pub fn store_mut(&mut self) -> &mut (dyn shard_store::Store + Send) {
        &mut *self.store
    }

    /// Appends the next transaction of the serial order: its sealed
    /// `row` and the `update` it contributed.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not the next row or its miss set is not
    /// strictly increasing below its index — rows are sealed by this
    /// program, so either is a bug in the sealer.
    pub fn push(&mut self, row: &StreamRow, update: &A::Update) -> std::io::Result<()> {
        assert_eq!(row.index, self.len, "rows are pushed in serial order");
        assert!(row.missed_well_formed(), "ill-formed miss set: {row:?}");
        self.scratch.clear();
        encode_row(row, update, &mut self.scratch);
        self.store.append(
            shard_store::StoreKey::new(row.index as u64, 0),
            &self.scratch,
        )?;
        self.len += 1;
        if let (Some(reach), Some(&low)) = (&mut self.reach, row.missed.first()) {
            *reach = (*reach).max(row.index - low);
        }
        Ok(())
    }

    /// Streams every row in serial order through `f`, in one key-order
    /// scan of the store, each row decoded straight from the bytes the
    /// store lends. Errors (`InvalidData`, naming the row) on a missing,
    /// torn or malformed row — a streaming execution is an
    /// *authoritative* copy, not a cache, so holes are not skippable.
    pub fn for_each_row(
        &mut self,
        mut f: impl FnMut(&StreamedRecord<A::Update>),
    ) -> std::io::Result<()> {
        self.try_for_each_row(|rec| {
            f(rec);
            Ok(())
        })
    }

    /// [`for_each_row`](StreamingExecution::for_each_row) for an `f`
    /// that may refuse a row: the scan stops at the first refusal, and
    /// the refusal is the answer.
    fn try_for_each_row(
        &mut self,
        mut f: impl FnMut(&StreamedRecord<A::Update>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut next = 0usize;
        // One miss vector, handed from row to row.
        let mut missed = Vec::new();
        let mut step = |key: shard_store::StoreKey, payload: &[u8]| {
            if key.secondary != 0 {
                let row = key.primary as usize;
                return Err(bad_row(row, "a record under a secondary key"));
            }
            if key.primary != next as u64 {
                return Err(bad_row(next, "row missing"));
            }
            let (time, update) =
                decode_row::<A>(next, payload, &mut missed).map_err(|e| bad_row(next, e))?;
            let rec = StreamedRecord {
                row: StreamRow {
                    index: next,
                    time,
                    missed: std::mem::take(&mut missed),
                },
                update,
            };
            f(&rec)?;
            missed = rec.row.missed;
            next += 1;
            Ok(())
        };
        let mut refused = None;
        self.store
            .scan_key_range(shard_store::StoreKey::new(0, 0), &mut |key, payload| {
                step(key, payload).map_err(|e| refused = Some(e)).is_ok()
            })?;
        if let Some(e) = refused {
            return Err(e);
        }
        if next != self.len {
            return Err(bad_row(next, "row missing"));
        }
        Ok(())
    }

    /// The final actual state (the initial state if empty).
    pub fn final_state(&mut self, app: &A) -> std::io::Result<A::State> {
        let mut state = app.initial_state();
        let mut applied = 0u64;
        self.for_each_row(|rec| {
            app.apply_in_place(&mut state, &rec.update);
            applied += 1;
        })?;
        crate::replay::note_in_place_applies(applied);
        Ok(state)
    }

    /// Runs the online §3 window checker over the stored rows —
    /// verdicts, certificates and the final report are byte-identical
    /// to [`check_rows`] on the same rows materialized in memory. An
    /// execution that pushed its rows itself knows how far back any of
    /// them reaches and retires the checker behind that, so the pass
    /// holds `reach` rows of checker state; a reopened one retires
    /// nothing.
    ///
    /// # Errors
    ///
    /// Store errors, and `InvalidData` naming the first stored row that
    /// is missing, torn, malformed or carries an ill-formed miss set.
    /// The scan stops at that row.
    pub fn check_stream(&mut self, window: usize) -> std::io::Result<StreamReport> {
        let mut checker = StreamChecker::new(window);
        let reach = self.reach;
        // A row that decodes but does not belong to a serial order
        // (some other writer's, or a bug upstream of the checksum) is
        // bad data, not a panic.
        self.try_for_each_row(|rec| {
            let row = &rec.row;
            checker
                .try_push(row.index, row.time, &row.missed)
                .map_err(|e| bad_row(row.index, e))?;
            if let Some(reach) = reach {
                checker.retire_below((row.index + 1).saturating_sub(reach));
            }
            Ok(())
        })?;
        Ok(checker.report())
    }
}

/// `InvalidData` naming stored row `index`.
fn bad_row(index: TxnIndex, what: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("streaming row {index}: {what}"),
    )
}

/// Appends `v` as an LEB128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends the payload of stored row `row`, laid out as
/// [`StreamingExecution`] describes.
fn encode_row<U: shard_store::Codec>(row: &StreamRow, update: &U, out: &mut Vec<u8>) {
    put_varint(out, row.time);
    put_varint(out, row.missed.len() as u64);
    let mut above = row.index;
    for &m in row.missed.iter().rev() {
        put_varint(out, (above - m) as u64);
        above = m;
    }
    update.encode(out);
}

/// Reads the varint at `bytes[*at..]` and moves `at` past it. Refuses
/// one that runs off the end, is overlong (a last byte of 0 after the
/// first) or does not fit in a `u64` (a tenth byte above 1, which an
/// eleventh would follow).
#[inline]
fn get_varint(bytes: &[u8], at: &mut usize) -> Result<u64, &'static str> {
    const CUT: &str = "a varint cut short";
    let &first = bytes.get(*at).ok_or(CUT)?;
    *at += 1;
    if first < 0x80 {
        return Ok(u64::from(first));
    }
    let mut v = u64::from(first & 0x7f);
    let mut shift = 7;
    loop {
        let &b = bytes.get(*at).ok_or(CUT)?;
        *at += 1;
        if shift == 63 && b > 1 {
            return Err("a varint past 64 bits");
        }
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return if b == 0 {
                Err("an overlong varint")
            } else {
                Ok(v)
            };
        }
        shift += 7;
    }
}

/// Decodes the payload [`StreamingExecution::push`] wrote for row
/// `index` straight from the bytes the store lends: its time and
/// update, its miss set into `missed`. The miss count is untrusted and
/// must fit in the bytes left, so `missed` never grows past the
/// payload's length; a zero gap, a gap reaching below row 0 and
/// trailing bytes are refused, so a decoded miss set is always strictly
/// increasing below `index`.
fn decode_row<A: Application>(
    index: TxnIndex,
    payload: &[u8],
    missed: &mut Vec<TxnIndex>,
) -> Result<(u64, A::Update), &'static str>
where
    A::Update: shard_store::Codec,
{
    let mut at = 0;
    let time = get_varint(payload, &mut at)?;
    let count = get_varint(payload, &mut at)?;
    // Every gap takes at least one byte.
    if count > (payload.len() - at) as u64 {
        return Err("a miss count above the bytes left");
    }
    missed.clear();
    missed.reserve_exact(count as usize);
    missed.resize(count as usize, 0);
    let mut above = index as u64;
    for slot in missed.iter_mut().rev() {
        let gap = get_varint(payload, &mut at)?;
        if gap == 0 {
            return Err("a zero gap between misses");
        }
        above = above.checked_sub(gap).ok_or("a miss below row 0")?;
        *slot = above as TxnIndex;
    }
    let mut r = shard_store::ByteReader::new(&payload[at..]);
    let update = <A::Update as shard_store::Codec>::decode(&mut r).ok_or("a malformed update")?;
    if !r.is_done() {
        return Err("trailing bytes");
    }
    Ok((time, update))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DecisionOutcome;
    use crate::conditions::{is_transitive, max_missed, transitivity_violation};
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
            unreachable!()
        }
    }

    fn timed(prefixes: &[&[usize]], times: &[u64]) -> TimedExecution<Trivial> {
        let mut b = ExecutionBuilder::new(&Trivial);
        for p in prefixes {
            b.push((), p.to_vec()).unwrap();
        }
        TimedExecution::new(b.finish(), times.to_vec())
    }

    fn rows_of(te: &TimedExecution<Trivial>) -> Vec<StreamRow> {
        rows_from_execution(&PoolConfig::sequential(), te)
    }

    #[test]
    fn rows_complement_prefixes() {
        let te = timed(&[&[], &[0], &[1], &[0, 2]], &[0, 5, 9, 14]);
        let rows = rows_of(&te);
        assert_eq!(rows[0].missed, Vec::<usize>::new());
        assert_eq!(rows[1].missed, Vec::<usize>::new());
        assert_eq!(rows[2].missed, vec![0]);
        assert_eq!(rows[3].missed, vec![1]);
        assert_eq!(rows[3].time, 14);
    }

    #[test]
    fn verdicts_match_offline_checkers_on_the_paper_shapes() {
        // The §3.2 intransitive shape: 2 sees 1, 1 sees 0, 2 misses 0.
        let te = timed(&[&[], &[0], &[1]], &[0, 10, 20]);
        let report = check_rows(1, &rows_of(&te));
        assert!(!report.transitive);
        assert_eq!(report.max_missed, 1);
        assert_eq!(report.min_delay_bound, 21);
        assert!(is_transitive(&te.execution) == report.transitive);
        assert_eq!(max_missed(&te.execution), report.max_missed);
        assert_eq!(te.min_delay_bound(), report.min_delay_bound);
        // The certificate is the offline violation triple.
        assert_eq!(
            report.violation(),
            Some(&Certificate::Transitivity {
                low: 0,
                mid: 1,
                top: 2
            })
        );
        assert_eq!(transitivity_violation(&te.execution), Some((0, 1, 2)));

        // A transitive shape stays clean at every window size.
        let te = timed(&[&[], &[0], &[0, 1]], &[0, 1, 2]);
        for w in [1, 2, 7] {
            let report = check_rows(w, &rows_of(&te));
            assert!(report.transitive);
            assert_eq!(report.max_missed, 0);
            assert_eq!(report.min_delay_bound, 0);
            assert!(report.violation().is_none());
        }
    }

    #[test]
    fn late_indirect_witnesses_are_caught() {
        // 3 sees 2 (which saw 0 and 1) but misses 1: the witness is not
        // adjacent to the missed transaction.
        let te = timed(&[&[], &[], &[0, 1], &[0, 2]], &[0, 1, 2, 3]);
        let report = check_rows(4, &rows_of(&te));
        assert!(!report.transitive);
        assert_eq!(
            report.violation(),
            Some(&Certificate::Transitivity {
                low: 1,
                mid: 2,
                top: 3
            })
        );
    }

    #[test]
    fn missers_index_blocks_false_witnesses() {
        // 3 misses 0; its only in-range peers 1 and 2 also missed 0, so
        // nobody 3 saw had seen 0 — transitive despite the misses.
        let te = timed(&[&[], &[], &[1], &[1, 2]], &[0, 1, 2, 3]);
        let report = check_rows(1, &rows_of(&te));
        assert!(report.transitive, "no witness exists");
        assert!(is_transitive(&te.execution));
        assert_eq!(report.max_missed, max_missed(&te.execution));
    }

    #[test]
    fn window_verdicts_are_cumulative() {
        // The violation occurs at row 2 (inside window 1); window 2's
        // rows are clean but its verdict must still report it.
        let te = timed(
            &[&[], &[0], &[1], &[0, 1, 2], &[0, 1, 2, 3], &[0, 1, 2, 3, 4]],
            &[0, 1, 2, 3, 4, 5],
        );
        let report = check_rows(2, &rows_of(&te));
        assert_eq!(report.verdicts.len(), 3);
        assert!(report.verdicts[0].transitive, "rows 0-1 are clean");
        assert!(!report.verdicts[1].transitive, "row 2 violates");
        assert!(!report.verdicts[2].transitive, "verdicts are cumulative");
        assert_eq!(report.verdicts[2].start, 4);
        assert_eq!(report.verdicts[2].end, 6);
    }

    #[test]
    fn try_push_refuses_bad_rows_and_leaves_the_checker_untouched() {
        let te = timed(&[&[], &[0], &[1]], &[0, 10, 20]);
        let rows = rows_of(&te);
        let mut checker = StreamChecker::new(2);
        checker.push(&rows[0]);
        checker.push(&rows[1]);
        assert_eq!(
            checker.try_push(5, 0, &[]),
            Err(RowError::OutOfOrder {
                expected: 2,
                got: 5
            })
        );
        // Not increasing, repeated, and not below the row's index.
        for bad in [&[1, 0][..], &[1, 1], &[2]] {
            assert_eq!(
                checker.try_push(2, 20, bad),
                Err(RowError::MalformedMisses { index: 2 })
            );
        }
        assert_eq!(checker.rows(), 2);
        // The refused rows left no trace: the stream continues and
        // reports exactly what an undisturbed checker reports.
        assert_eq!(checker.try_push(2, 20, &rows[2].missed), Ok(None));
        assert_eq!(checker.report(), check_rows(2, &rows));
    }

    #[test]
    fn a_miss_below_the_retired_frontier_is_refused_not_misjudged() {
        let row = |index, missed: &[usize]| StreamRow {
            index,
            time: 10 * index as u64,
            missed: missed.to_vec(),
        };
        let rows = [
            row(0, &[]),
            row(1, &[0]),
            row(2, &[]),
            row(3, &[2]),
            row(4, &[2, 3]),
            row(5, &[4]),
        ];
        let mut checker = StreamChecker::new(2);
        for row in &rows[..4] {
            checker.push(row);
        }
        checker.retire_below(2);
        // Judging a miss of row 1 takes missers(1), which is gone.
        assert_eq!(
            checker.try_push(4, 40, &[1, 2]),
            Err(RowError::RetiredMiss {
                index: 4,
                missed: 1,
                frontier: 2
            })
        );
        assert_eq!(checker.rows(), 4);
        // The frontier never moves back, and stops at the rows consumed.
        checker.retire_below(0);
        assert!(checker.try_push(4, 40, &[1, 2]).is_err());
        checker.push(&rows[4]);
        checker.retire_below(99);
        assert_eq!(
            checker.try_push(5, 50, &[4]),
            Err(RowError::RetiredMiss {
                index: 5,
                missed: 4,
                frontier: 5
            })
        );
        // Refused rows left no trace.
        let mut kept = StreamChecker::new(2);
        for row in &rows[..5] {
            kept.push(row);
        }
        assert_eq!(checker.report(), kept.report());
    }

    /// The naive §3 fold the word checker is held against: a `BTreeSet`
    /// per row and a triple loop for the first `(low, mid, top)` in
    /// (top, low, mid) scan order.
    fn naive_report(window: usize, rows: &[StreamRow]) -> StreamReport {
        use std::collections::BTreeSet;
        let sets: Vec<BTreeSet<usize>> = rows
            .iter()
            .map(|r| r.missed.iter().copied().collect())
            .collect();
        let (mut violation, mut worst, mut delay) = (None, (0, 0), (0, None));
        let mut verdicts = Vec::new();
        for (top, row) in rows.iter().enumerate() {
            if violation.is_none() {
                violation = sets[top].iter().find_map(|&low| {
                    (low + 1..top)
                        .find(|mid| !sets[top].contains(mid) && !sets[*mid].contains(&low))
                        .map(|mid| (low, mid, top))
                });
            }
            if sets[top].len() > worst.1 {
                worst = (top, sets[top].len());
            }
            for &x in &row.missed {
                let bound = row.time.saturating_sub(rows[x].time) + 1;
                if bound > delay.0 {
                    delay = (bound, Some((top, x)));
                }
            }
            if (top + 1) % window == 0 {
                verdicts.push(WindowVerdict {
                    window: verdicts.len(),
                    start: top + 1 - window,
                    end: top + 1,
                    transitive: violation.is_none(),
                    max_missed: worst.1,
                    delay_bound: delay.0,
                });
            }
        }
        let mut certificates = Vec::new();
        if let Some((low, mid, top)) = violation {
            certificates.push(Certificate::Transitivity { low, mid, top });
        }
        if worst.1 > 0 {
            certificates.push(Certificate::KCompleteness {
                index: worst.0,
                missed: worst.1,
            });
        }
        if let Some((seer, missed)) = delay.1 {
            certificates.push(Certificate::DelayBound {
                seer,
                missed,
                bound: delay.0,
            });
        }
        StreamReport {
            rows: rows.len(),
            transitive: violation.is_none(),
            max_missed: worst.1,
            min_delay_bound: delay.0,
            verdicts,
            certificates,
        }
    }

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Rows of a delivery schedule built from `segments` of `(shape,
    /// salt)`: row `i` misses the earlier rows delivered after it, which
    /// is transitive whatever the schedule. Shapes: calm runs; jitter
    /// below one word; dense reversed blocks reaching back hundreds of
    /// rows (what a partition leaves); one straggler delivered a
    /// thousand or more rows late (a single far miss in every row it
    /// passes); one delivered so late that the last row to miss it does
    /// so from exactly 127, 128 or 129 rows on (either side of the
    /// checker's near map), or from exactly 63, 64 or 65 rows on (either
    /// side of the near map's word path); and a swap across a word boundary
    /// (`x % 64 == 63`, `i % 64 == 0`, `x + 1 == i`). `flip` then adds
    /// or removes one miss somewhere — half the time in the first row
    /// of a word, or of the last row of one — which usually breaks
    /// transitivity there.
    fn scheduled_rows(segments: &[(u8, u64)], flip: Option<(u64, u64)>) -> Vec<StreamRow> {
        const MAX_ROWS: usize = 1_400;
        // Delivery key of each row; ties deliver in serial order.
        let mut keys: Vec<usize> = Vec::new();
        for &(shape, salt) in segments {
            let at = keys.len();
            match shape % 10 {
                0..=2 => keys.extend(at..at + 1 + salt as usize % 120),
                3 | 4 => keys.extend(
                    (at..at + 1 + salt as usize % 60)
                        .map(|i| i + splitmix(salt ^ i as u64) as usize % 64),
                ),
                5 => {
                    let block = 70 + salt as usize % 60;
                    keys.extend((0..block).map(|k| at + 2 * block - k));
                }
                6 => keys.push(at + 1_000 + salt as usize % 1_000),
                7 => {
                    // Rows at + 1 … at + back deliver before row at.
                    let back = NEAR - 1 + salt as usize % 3;
                    keys.push(at + back + 1);
                    keys.extend(at + 1..at + back + 2);
                }
                8 => {
                    // The same, with the last misser 63, 64 or 65 rows on.
                    let back = 63 + salt as usize % 3;
                    keys.push(at + back + 1);
                    keys.extend(at + 1..at + back + 2);
                }
                _ => {
                    // Calm up to the last row of a word, then that row
                    // and the next trade places.
                    keys.extend(at..at.next_multiple_of(64) + 63);
                    keys.push(keys.len() + 2);
                    keys.push(keys.len());
                }
            }
        }
        keys.truncate(MAX_ROWS);
        let mut rows: Vec<StreamRow> = (0..keys.len())
            .map(|i| StreamRow {
                index: i,
                time: splitmix(i as u64 ^ 0xE25) % 5_000,
                missed: (0..i).filter(|&j| keys[j] > keys[i]).collect(),
            })
            .collect();
        if let (Some((row, slot)), false) = (flip, rows.len() < 2) {
            let mut at = 1 + row as usize % (rows.len() - 1);
            if row >> 63 == 1 && at >= 64 {
                at -= at % 64;
            }
            let row = &mut rows[at];
            let mut x = slot as usize % row.index;
            if slot >> 63 == 1 && x | 63 < row.index {
                x |= 63;
            }
            match row.missed.binary_search(&x) {
                Ok(at) => drop(row.missed.remove(at)),
                Err(at) => row.missed.insert(at, x),
            }
        }
        rows
    }

    fn segments() -> impl proptest::strategy::Strategy<Value = Vec<(u8, u64)>> {
        use proptest::prelude::any;
        proptest::collection::vec((any::<u8>(), any::<u64>()), 1..24)
    }

    fn flip() -> impl proptest::strategy::Strategy<Value = Option<(u64, u64)>> {
        use proptest::prelude::{any, Strategy};
        (any::<bool>(), any::<u64>(), any::<u64>())
            .prop_map(|(on, row, slot)| on.then_some((row, slot)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn the_word_checker_reports_what_the_naive_fold_reports(
            segments in segments(),
            flip in flip(),
            window in 1usize..130,
        ) {
            let rows = scheduled_rows(&segments, flip);
            assert_eq!(check_rows(window, &rows), naive_report(window, &rows));
        }

        #[test]
        fn retiring_at_legal_frontiers_changes_no_report_and_bounds_the_state(
            segments in segments(),
            flip in flip(),
            window in 1usize..130,
            eagerness in 0u64..4,
        ) {
            let rows = scheduled_rows(&segments, flip);
            // legal[i]: the smallest row any row from i on misses.
            let mut legal = vec![rows.len(); rows.len() + 1];
            for row in rows.iter().rev() {
                let low = row.missed.first().copied().unwrap_or(row.index);
                legal[row.index] = legal[row.index + 1].min(low);
            }
            let mut checker = StreamChecker::new(window);
            let mut span = 0;
            for row in &rows {
                checker.push(row);
                // Sometimes not at all, sometimes part of the way.
                let frontier = match splitmix(row.index as u64) % 4 {
                    r if r < eagerness => legal[row.index + 1],
                    _ => legal[row.index + 1] / 2,
                };
                checker.retire_below(frontier);
                span = span.max(checker.rows() - checker.base);

                // At most 2·span + 2 rows sit in the window, doubled
                // for `Vec` growth. Lists and the packed row exist only
                // once a row misses one NEAR or more rows back, which
                // takes a span over NEAR: then as many lists as rows,
                // each covering the span past NEAR above its row, and a
                // packed row covering the span — doubled too. Only the
                // verdict changes are history.
                let far = match span.checked_sub(NEAR + 1) {
                    None => 0,
                    Some(past) => {
                        let list_words = 2 * (past / 64 + 2);
                        let row_words = 2 * (span / 64 + 2);
                        (2 * span + 4) * (28 + list_words * 16) + row_words * 16
                    }
                };
                let bound = std::mem::size_of::<StreamChecker>()
                    + (4 * span + 8) * std::mem::size_of::<Seen>()
                    + far
                    + checker.changes.capacity() * std::mem::size_of::<WindowVerdict>();
                assert!(
                    checker.resident_bytes() <= bound,
                    "{} B resident over {bound} B for a span of {span} at row {}",
                    checker.resident_bytes(),
                    row.index
                );
            }
            assert_eq!(checker.report(), check_rows(window, &rows));
        }
    }

    /// Row 10 is missed by every row up to 200, so its missers' word 2
    /// (rows 128–191) holds rows 128–137 in its near map and 138–191 in
    /// its far list. Row 201 misses 10 and nothing else: the witness
    /// search must block on both halves of that word at once. Checking
    /// the list's first word apart from, rather than together with, the
    /// map's last finds a false witness in either half.
    #[test]
    fn a_far_miss_blocks_on_the_word_its_near_map_and_far_list_share() {
        let row = |index: usize, missed: Vec<usize>| StreamRow {
            index,
            time: index as u64,
            missed,
        };
        let mut rows: Vec<StreamRow> = (0..=10).map(|i| row(i, vec![])).collect();
        rows.extend((11..=200).map(|i| row(i, vec![10])));
        rows.push(row(201, vec![10]));
        let report = check_rows(7, &rows);
        assert!(report.transitive, "every row 201 saw had missed 10");
        assert_eq!(report, naive_report(7, &rows));

        // Row 201 saw 10 through one row on either side of the seam,
        // or through one in the word before it — a row that saw 10 and
        // that every later row up to 200 missed along with 10.
        for mid in [60, 137, 138] {
            let mut rows = rows.clone();
            rows[mid].missed.clear();
            for row in &mut rows[mid + 1..=200] {
                row.missed.push(mid);
            }
            let report = check_rows(7, &rows);
            assert_eq!(
                report.violation(),
                Some(&Certificate::Transitivity {
                    low: 10,
                    mid,
                    top: 201
                }),
                "through row {mid}"
            );
            assert_eq!(report, naive_report(7, &rows));
        }
    }

    #[test]
    fn certificates_serialize_and_rows_round_trip() {
        let cert = Certificate::Transitivity {
            low: 3,
            mid: 5,
            top: 9,
        };
        let json = cert.to_json();
        let v = shard_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(shard_obs::Json::as_str),
            Some(CERT_SCHEMA)
        );
        assert_eq!(
            v.get("property").and_then(shard_obs::Json::as_str),
            Some("transitivity")
        );
        assert_eq!(v.get("top").and_then(shard_obs::Json::as_u64), Some(9));

        let row = StreamRow {
            index: 7,
            time: 42,
            missed: vec![1, 4],
        };
        let line = row.to_json_line();
        assert_eq!(StreamRow::from_json_line(&line).unwrap(), row);
        assert!(StreamRow::from_json_line("{\"event\":\"deliver\"}").is_err());
        assert!(
            StreamRow::from_json_line("{\"event\":\"txn\",\"i\":2,\"t\":0,\"missed\":[2]}")
                .is_err(),
            "miss entries must lie below the row index"
        );
    }

    #[test]
    fn delay_bounds_saturate_at_the_end_of_time_and_certify_agrees() {
        // Row 1 started 2⁶⁴ − 1 ticks after row 0 and missed it.
        let two = |times: [u64; 2]| timed(&[&[], &[]], &times);
        let te = two([0, u64::MAX]);
        let rows = rows_of(&te);
        let report = check_rows(1, &rows);
        assert_eq!(report.min_delay_bound, u64::MAX);
        assert_eq!(te.min_delay_bound(), u64::MAX);
        // The saturated bound is a ceiling, not a bound that holds.
        assert!(te.delay_bound_violation(u64::MAX).is_some());
        let trace: String = rows.iter().map(|r| r.to_json_line() + "\n").collect();
        for cert in &report.certificates {
            shard_obs::certify(&trace, &cert.to_json()).expect("the checker's own certificate");
        }
        // `t = 0` stays exact, and `tⱼ + t` past u64::MAX is no violation.
        assert_eq!(te.delay_bound_violation(0), Some((1, 0)));
        assert_eq!(two([u64::MAX; 2]).delay_bound_violation(1), None);
        assert_eq!(two([5, 3]).delay_bound_violation(0), None);
    }

    #[test]
    fn rows_match_the_walked_complement_on_a_long_execution() {
        let n = 600;
        let mut b = ExecutionBuilder::new(&Trivial);
        for i in 0..n {
            let prefix: Vec<usize> = if i % 97 == 3 {
                (1..i).collect()
            } else {
                (0..i).collect()
            };
            b.push((), prefix).unwrap();
        }
        let te = TimedExecution::new(b.finish(), (0..n as u64).collect());
        let walked: Vec<StreamRow> = (0..n)
            .map(|i| {
                let mut missed = Vec::new();
                let mut seen = te.execution.record(i).prefix.iter().peekable();
                for j in 0..i {
                    if seen.next_if_eq(&j).is_some() {
                        continue;
                    }
                    missed.push(j);
                }
                StreamRow {
                    index: i,
                    time: te.times[i],
                    missed,
                }
            })
            .collect();
        assert_eq!(rows_of(&te), walked);
        // And the report agrees with the offline verdicts.
        let report = check_rows(64, &walked);
        assert_eq!(report.transitive, is_transitive(&te.execution));
        assert_eq!(report.max_missed, max_missed(&te.execution));
        assert_eq!(report.min_delay_bound, te.min_delay_bound());
    }

    /// Prefixes that reach past their own index (which `verify`
    /// rejects) are read below it: a run that straddles the index or lies
    /// wholly above it subtracts nothing. The fold behind `par_check` and
    /// `transitivity_violation` reads the runs itself, so it is held to
    /// the rows worked out by filtering, on gaps that fall on either
    /// side of the near map's two seams (64 and 128 rows back).
    #[test]
    fn prefixes_past_their_own_index_are_clipped_by_every_reader() {
        use crate::conditions::missed_count;
        use crate::execution::TxnRecord;
        let n = 300;
        let seen = |i: usize| -> Vec<usize> {
            match i {
                0 => vec![0, 1, 2],
                5 => (0..8).collect(),
                9 => vec![20, 21],
                // Gaps 40..60 (far) and 70..150 (far below 73, near from
                // it on); the last run straddles 200.
                200 => (0..40).chain(60..70).chain(150..260).collect(),
                // A gap 63 to 28 rows back, and a run wholly above 263.
                263 => (0..200).chain(236..263).chain(264..270).collect(),
                // One miss exactly 64 rows back.
                264 => (0..200).chain(201..264).chain(265..300).collect(),
                _ => (0..i).collect(),
            }
        };
        let mut exec = Execution::new();
        for i in 0..n {
            exec.push_record(TxnRecord {
                decision: (),
                prefix: seen(i).into_iter().collect(),
                update: Nop,
                external_actions: Vec::new(),
            });
        }
        let te = TimedExecution::new(exec, (0..n as u64).map(|t| 7 * t % 50).collect());
        let rows: Vec<StreamRow> = (0..n)
            .map(|i| StreamRow {
                index: i,
                time: te.times[i],
                missed: (0..i).filter(|j| !seen(i).contains(j)).collect(),
            })
            .collect();
        assert_eq!(rows[9].missed, (0..9).collect::<Vec<_>>());
        assert_eq!(rows_of(&te), rows);
        for (i, row) in rows.iter().enumerate() {
            let prefix = &te.execution.record(i).prefix;
            assert_eq!(prefix.missed_below(i).collect::<Vec<_>>(), row.missed);
            assert_eq!(missed_count(&te.execution, i), row.missed.len());
        }
        for window in [1, 7, 64] {
            let report = par_check(&PoolConfig::sequential(), &te, window);
            assert_eq!(report, check_rows(window, &rows), "window {window}");
            assert_eq!(report, naive_report(window, &rows), "window {window}");
        }
        let first = naive_report(1, &rows).violation().map(|c| match *c {
            Certificate::Transitivity { low, mid, top } => (low, mid, top),
            _ => unreachable!(),
        });
        assert_eq!(first.map(|(.., top)| top), Some(200));
        assert_eq!(transitivity_violation(&te.execution), first);
    }

    #[test]
    #[should_panic(expected = "serial order")]
    fn out_of_order_rows_panic() {
        let mut checker = StreamChecker::new(1);
        checker.push(&StreamRow {
            index: 3,
            time: 0,
            missed: vec![],
        });
    }

    /// An application whose updates have a store codec: the state is
    /// the list of applied updates.
    struct Trace;
    impl Application for Trace {
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

    fn mem_store() -> Box<dyn shard_store::Store + Send> {
        Box::new(shard_store::MemStore::new())
    }

    /// Stores `payload` as the record of row `index`.
    fn append_row(store: &mut dyn shard_store::Store, index: u64, payload: &[u8]) {
        store
            .append(shard_store::StoreKey::new(index, 0), payload)
            .unwrap();
    }

    fn mixed_timed_execution(n: usize) -> TimedExecution<Trace> {
        let app = Trace;
        let mut b = ExecutionBuilder::new(&app);
        for i in 0..n {
            if i % 3 == 2 {
                b.push_missing(i as u64, &[i - 1, i / 2]).unwrap();
            } else {
                b.push_complete(i as u64).unwrap();
            }
        }
        let times = (0..n as u64).map(|t| t * 7 % 400 + t).collect();
        TimedExecution::new(b.finish(), times)
    }

    /// Spills `te` into a memory store row by row, through `push`.
    fn spilled(te: &TimedExecution<Trace>) -> StreamingExecution<Trace> {
        let mut se = StreamingExecution::new(mem_store());
        let rows = rows_from_execution(&PoolConfig::sequential(), te);
        for (rec, row) in te.execution.records().iter().zip(&rows) {
            se.push(row, &rec.update).unwrap();
        }
        se
    }

    #[test]
    fn streaming_execution_matches_in_memory_traversals() {
        let app = Trace;
        let te = mixed_timed_execution(60);
        let mut se = spilled(&te);
        let mem: Vec<(usize, Vec<u64>)> =
            te.execution
                .fold_actual_states(&app, Vec::new(), |mut acc, m, s| {
                    acc.push((m, s.clone()));
                    acc
                });
        // Folding the updates as the rows hand them back visits the
        // same states.
        let mut state = app.initial_state();
        let mut streamed = vec![(0, state.clone())];
        se.for_each_row(|rec| {
            app.apply_in_place(&mut state, &rec.update);
            streamed.push((rec.row.index + 1, state.clone()));
        })
        .unwrap();
        assert_eq!(mem, streamed, "identical fold results");
        assert_eq!(
            se.final_state(&app).unwrap(),
            te.execution.final_state(&app)
        );
        let rows = rows_from_execution(&PoolConfig::sequential(), &te);
        let reach = rows
            .iter()
            .filter_map(|r| Some(r.index - r.missed.first()?))
            .max();
        assert_eq!(se.reach, reach, "and the checker is retired behind it");
        for window in [1, 7, 64] {
            assert_eq!(
                se.check_stream(window).unwrap(),
                check_rows(window, &rows),
                "window {window}"
            );
        }
        // Reopened, the execution no longer knows how far its rows
        // reach and retires nothing; it reports the same.
        let mut reopened = StreamingExecution::<Trace>::reopen(se.store, rows.len());
        assert_eq!(reopened.reach, None);
        assert_eq!(reopened.check_stream(7).unwrap(), check_rows(7, &rows));
    }

    #[test]
    fn streaming_execution_round_trips_rows_through_disk() {
        let dir = std::env::temp_dir().join(format!("shard_streaming_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (store, _) =
            shard_store::DiskStore::open(&dir, shard_store::StoreOptions::default()).unwrap();
        let records = [
            StreamedRecord {
                row: StreamRow {
                    index: 0,
                    time: 3,
                    missed: vec![],
                },
                update: 7,
            },
            StreamedRecord {
                row: StreamRow {
                    index: 1,
                    time: 9,
                    missed: vec![0],
                },
                update: 8,
            },
        ];
        let mut se = StreamingExecution::<Trace>::new(Box::new(store));
        for rec in &records {
            se.push(&rec.row, &rec.update).unwrap();
        }
        se.sync().unwrap();
        drop(se);
        let (store, recovered) =
            shard_store::DiskStore::open(&dir, shard_store::StoreOptions::default()).unwrap();
        assert_eq!(recovered, 2);
        let mut se = StreamingExecution::<Trace>::reopen(Box::new(store), 2);
        let mut rows = Vec::new();
        se.for_each_row(|rec| rows.push(rec.clone())).unwrap();
        assert_eq!(rows, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_execution_rejects_torn_rows() {
        let mut se = spilled(&mixed_timed_execution(10));
        let keep = se.store.len_bytes() - 1;
        se.store.crash(keep).unwrap();
        let err = se.final_state(&Trace).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// The payload of stored row `index` (its time is its index), miss
    /// count and miss list written independently so they can disagree.
    /// Gaps are taken wrapping, so a miss list out of order or at or
    /// above the row stores a gap of 0 or one reaching below row 0.
    fn raw_row(index: u64, missed_len: u64, missed: &[u64]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_varint(&mut payload, index);
        put_varint(&mut payload, missed_len);
        let mut above = index;
        for &m in missed.iter().rev() {
            put_varint(&mut payload, above.wrapping_sub(m));
            above = m;
        }
        shard_store::Codec::encode(&1u64, &mut payload);
        payload
    }

    #[test]
    fn check_stream_reports_corrupted_rows_instead_of_panicking() {
        // What a writer other than `push` can make of a row (a stored
        // record's own bytes are behind the WAL's checksum): every
        // variant must come back as InvalidData naming the row, never
        // as a panic or a multi-gigabyte reservation.
        let row = raw_row;
        let good = [row(0, 0, &[]), row(1, 1, &[0]), row(2, 2, &[0, 1])];
        let corruptions = [
            (
                "a miss count far past the payload",
                row(2, u64::MAX, &[0, 1]),
            ),
            ("a miss count past the misses written", row(2, 4, &[0, 1])),
            ("a miss set out of order", row(2, 2, &[1, 0])),
            ("a repeated miss", row(2, 2, &[1, 1])),
            ("a miss at the row's own index", row(2, 1, &[2])),
            ("a miss far in the future", row(2, 1, &[1 << 40])),
        ];
        for (what, bad) in corruptions {
            let mut store = mem_store();
            // The bad row sits between good ones: rows 0, 1, bad, 3.
            for (i, payload) in [&good[0], &good[1], &bad, &row(3, 0, &[])]
                .into_iter()
                .enumerate()
            {
                append_row(&mut *store, i as u64, payload);
            }
            let mut se = StreamingExecution::<Trace>::reopen(store, 4);
            let err = se.check_stream(2).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("row 2"), "{what}: {err}");
        }
        // The uncorrupted rows check clean.
        let mut store = mem_store();
        for (i, payload) in good.iter().enumerate() {
            append_row(&mut *store, i as u64, payload);
        }
        let report = StreamingExecution::<Trace>::reopen(store, 3)
            .check_stream(2)
            .unwrap();
        assert_eq!((report.rows, report.max_missed), (3, 2));
    }

    #[test]
    fn check_stream_reports_rows_that_are_not_one_record_each() {
        // The store filled key by key, so the row store can hold what
        // `push` never writes: a row left out, a second record under a
        // row's key, a payload cut short or run long.
        use shard_store::StoreKey;
        let whole = raw_row(2, 1, &[0]);
        let mut long = whole.clone();
        long.push(0);
        type Records<'a> = Vec<(u16, &'a [u8])>;
        let missing: Records = vec![];
        let stray: Records = vec![(0, &whole), (1, b"junk")];
        let only_stray: Records = vec![(1, &whole)];
        let short: Records = vec![(0, &whole[..whole.len() - 1])];
        let trailing: Records = vec![(0, &long)];
        for (what, records) in [
            ("row 2 missing", missing),
            ("a second record under row 2", stray),
            ("row 2 only under a secondary key", only_stray),
            ("row 2 cut short", short),
            ("a byte past the end of row 2", trailing),
        ] {
            let mut store = mem_store();
            append_row(&mut *store, 0, &raw_row(0, 0, &[]));
            append_row(&mut *store, 1, &raw_row(1, 0, &[]));
            for (secondary, bytes) in records {
                store.append(StoreKey::new(2, secondary), bytes).unwrap();
            }
            append_row(&mut *store, 3, &raw_row(3, 0, &[]));
            let mut se = StreamingExecution::<Trace>::reopen(store, 4);
            let err = se.check_stream(2).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("row 2"), "{what}: {err}");
        }
        // The last row missing is a missing row too.
        let mut store = mem_store();
        append_row(&mut *store, 0, &raw_row(0, 0, &[]));
        let err = StreamingExecution::<Trace>::reopen(store, 2)
            .check_stream(2)
            .expect_err("row 1 missing");
        assert!(err.to_string().contains("row 1"), "{err}");
    }

    /// A store that counts the records its key scans hand out.
    struct Counting {
        inner: shard_store::MemStore,
        handed: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl shard_store::Store for Counting {
        fn append(&mut self, key: shard_store::StoreKey, value: &[u8]) -> std::io::Result<()> {
            self.inner.append(key, value)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.inner.sync()
        }
        fn len_bytes(&self) -> u64 {
            self.inner.len_bytes()
        }
        fn synced_bytes(&self) -> u64 {
            self.inner.synced_bytes()
        }
        fn entries(&self) -> usize {
            self.inner.entries()
        }
        fn scan_arrival(
            &mut self,
            f: &mut dyn FnMut(shard_store::StoreKey, &[u8]),
        ) -> std::io::Result<()> {
            self.inner.scan_arrival(f)
        }
        fn scan_key_range(
            &mut self,
            from: shard_store::StoreKey,
            f: &mut dyn FnMut(shard_store::StoreKey, &[u8]) -> bool,
        ) -> std::io::Result<()> {
            let handed = &self.handed;
            self.inner.scan_key_range(from, &mut |k, v| {
                handed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                f(k, v)
            })
        }
        fn crash(&mut self, keep: u64) -> std::io::Result<shard_store::CrashReport> {
            self.inner.crash(keep)
        }
    }

    #[test]
    fn check_stream_stops_reading_at_the_first_refused_row() {
        // Row 5 of 1 000 is refused — for a miss above its own index
        // (a gap reaching below row 0) or a miss count past the
        // payload; either way the scan reads no row after it.
        for (what, bad) in [
            ("a miss above the row", raw_row(5, 1, &[7])),
            ("a miss count past the payload", raw_row(5, 10, &[1])),
        ] {
            let handed = std::sync::Arc::default();
            let mut store = Counting {
                inner: shard_store::MemStore::new(),
                handed: std::sync::Arc::clone(&handed),
            };
            for i in 0..1_000 {
                let payload = if i == 5 {
                    bad.clone()
                } else {
                    raw_row(i, 0, &[])
                };
                append_row(&mut store, i, &payload);
            }
            let mut se = StreamingExecution::<Trace>::reopen(Box::new(store), 1_000);
            let err = se.check_stream(8).expect_err(what);
            assert!(err.to_string().contains("row 5"), "{what}: {err}");
            assert_eq!(
                handed.load(std::sync::atomic::Ordering::Relaxed),
                6,
                "{what}"
            );
        }
    }

    #[test]
    fn a_row_with_ten_thousand_misses_round_trips() {
        // Ten thousand misses in one record: no cell limit to split at.
        let wide = StreamRow {
            index: 10_000,
            time: 77,
            missed: (0..10_000).collect(),
        };
        let dir = std::env::temp_dir().join(format!("shard_streaming_wide_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (disk, _) =
            shard_store::DiskStore::open(&dir, shard_store::StoreOptions::default()).unwrap();
        for store in [mem_store(), Box::new(disk)] {
            let mut se = StreamingExecution::<Trace>::new(store);
            for index in 0..10_000 {
                let row = StreamRow {
                    index,
                    time: index as u64,
                    missed: vec![],
                };
                se.push(&row, &(index as u64)).unwrap();
            }
            se.push(&wide, &5).unwrap();
            let mut last = None;
            se.for_each_row(|rec| last = Some(rec.clone())).unwrap();
            let last = last.unwrap();
            assert_eq!((last.row, last.update), (wide.clone(), 5));
            assert_eq!(se.check_stream(64).unwrap().max_missed, 10_000);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misses_past_row_two_to_the_32_round_trip() {
        // A `u32` miss index would read row 2³² + 1 back as row 1.
        let big = 1usize << 32;
        for index in [big - 1, big, big + 1, big + 3] {
            for missed in [
                vec![],
                vec![0],
                vec![1, index - 2],
                vec![0, big - 3, index - 1],
            ] {
                let row = StreamRow {
                    index,
                    time: u64::MAX - index as u64,
                    missed,
                };
                let mut payload = Vec::new();
                encode_row(&row, &(index as u64), &mut payload);
                let mut missed = Vec::new();
                let decoded = decode_row::<Trace>(index, &payload, &mut missed);
                assert_eq!(decoded, Ok((row.time, index as u64)), "{row:?}");
                assert_eq!(missed, row.missed);
            }
        }
    }

    /// A hostile payload for row `index` from `(shape, salt, junk)`:
    /// the junk itself; a valid row with a byte flipped, cut short or
    /// run long; or a valid row with one of its varints (time, count
    /// or a gap) replaced by an 11-byte varint or a 10-byte one that
    /// overflows 64 bits.
    fn hostile_payload(index: usize, shape: u8, salt: u64, junk: &[u8]) -> Vec<u8> {
        let missed: Vec<usize> = (0..index)
            .filter(|&j| splitmix(salt ^ j as u64).is_multiple_of(3))
            .collect();
        let row = StreamRow {
            index,
            time: splitmix(salt) >> (salt % 64),
            missed,
        };
        let mut valid = Vec::new();
        encode_row(&row, &salt, &mut valid);
        let at = splitmix(salt ^ 0x5A17) as usize % valid.len();
        match shape % 6 {
            0 => junk.to_vec(),
            1 => {
                valid[at] ^= 1 << (salt >> 61);
                valid
            }
            2 => valid[..at].to_vec(),
            3 => {
                valid.extend_from_slice(junk);
                valid.push(salt as u8);
                valid
            }
            long => {
                let bad: &[u8] = if long == 4 {
                    &[
                        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00,
                    ]
                } else {
                    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]
                };
                let mut fields = vec![row.time, row.missed.len() as u64];
                let mut above = index;
                for &m in row.missed.iter().rev() {
                    fields.push((above - m) as u64);
                    above = m;
                }
                let at = salt as usize % fields.len();
                let mut payload = Vec::new();
                for (k, &field) in fields.iter().enumerate() {
                    match k == at {
                        true => payload.extend_from_slice(bad),
                        false => put_varint(&mut payload, field),
                    }
                }
                shard_store::Codec::encode(&salt, &mut payload);
                payload
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn hostile_row_payloads_are_refused_by_row_never_by_panic(
            at in 1usize..7,
            shape in proptest::prelude::any::<u8>(),
            salt in proptest::prelude::any::<u64>(),
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
        ) {
            let bad = hostile_payload(at, shape, salt, &junk);
            // However it decodes, the miss vector stays within the bytes.
            let mut missed = Vec::new();
            let decoded = decode_row::<Trace>(at, &bad, &mut missed);
            assert!(missed.capacity() <= bad.len(), "{decoded:?}: {bad:?}");
            // A valid row cut short, run long or given a bad varint is
            // always refused.
            assert!(shape % 6 < 2 || decoded.is_err(), "{decoded:?}: {bad:?}");

            let mut store = mem_store();
            for i in 0..8 {
                let payload = match i == at {
                    true => bad.clone(),
                    false => raw_row(i as u64, 0, &[]),
                };
                append_row(&mut *store, i as u64, &payload);
            }
            let mut se = StreamingExecution::<Trace>::reopen(store, 8);
            let named = format!("row {at}");
            let judge = |what: &str, outcome: std::io::Result<()>| match outcome {
                Ok(()) => assert!(decoded.is_ok(), "{what} took a row decode_row refuses"),
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
                    assert!(e.to_string().contains(&named), "{what}: {e}");
                }
            };
            let mut widest = 0;
            let outcome = se.for_each_row(|rec| widest = widest.max(rec.row.missed.capacity()));
            judge("for_each_row", outcome);
            assert!(widest <= bad.len());
            judge("final_state", se.final_state(&Trace).map(drop));
            judge("check_stream", se.check_stream(3).map(drop));
        }
    }
}
