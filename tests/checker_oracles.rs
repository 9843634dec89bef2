//! The one §3 transitivity checker — the [`StreamChecker`] fold behind
//! `is_transitive` / `transitivity_violation` and, over extracted rows,
//! `check_rows(w, rows_from_execution(..))` at windows {1, 7, 64} —
//! held to oracles that share none of its code: the definition as a
//! triple loop over seen lists ([`triple_loop`]) where the cubic loop
//! is affordable, and the definition over per-row bitsets ([`bitsets`])
//! at the sizes it sits out. Both enumerate in the checker's
//! certificate order, so the first violation must match exactly. On
//! generated executions of the three shapes delivery faults produce,
//! each also with one violation injected:
//!
//! * **windowed** — delivery order is the serial order shuffled inside
//!   blocks, so a row misses only recent predecessors (displacement
//!   < 64);
//! * **two-sided partition** — after a common head every row sees only
//!   its own side, so miss sets are dense and reach far back;
//! * **long partition** — a few early rows stay unseen by the other
//!   side for thousands of rows, so their missers lists grow far longer
//!   than any verdict window.
//!
//! The online checker's certificate is pinned on three literal cases
//! (first violation in (row, missed, smallest witness) order), and the
//! complement every checker reads, [`Prefix::missed_below`], is held to
//! the linear scan.
//!
//! [`StreamChecker`]: shard::core::StreamChecker
//! [`Prefix::missed_below`]: shard::core::Prefix::missed_below

use proptest::prelude::*;
use shard::core::conditions::{is_transitive, max_missed, transitivity_violation};
use shard::core::stream::{check_rows, par_check, rows_from_execution};
use shard::core::{
    Application, Certificate, DecisionOutcome, Execution, Prefix, StreamChecker, StreamRow,
    TimedExecution, TxnIndex, TxnRecord,
};
use shard_pool::PoolConfig;

const WINDOWS: [usize; 3] = [1, 7, 64];

/// The checkers read prefixes only; the application is a stub.
struct Stub;

impl Application for Stub {
    type State = ();
    type Update = ();
    type Decision = ();
    fn initial_state(&self) {}
    fn is_well_formed(&self, _: &()) -> bool {
        true
    }
    fn apply_in_place(&self, _: &mut (), _: &()) {}
    fn decide(&self, _: &(), _: &()) -> DecisionOutcome<()> {
        DecisionOutcome::update_only(())
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

fn timed(prefixes: Vec<Vec<TxnIndex>>) -> TimedExecution<Stub> {
    let mut exec = Execution::new();
    let n = prefixes.len();
    for prefix in prefixes {
        exec.push_record(TxnRecord {
            decision: (),
            prefix: prefix.into_iter().collect(),
            update: (),
            external_actions: Vec::new(),
        });
    }
    TimedExecution::new(exec, (0..n as u64).map(|t| 3 * t).collect())
}

/// A small deterministic generator, so a failing case is its seed.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, m: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % m
    }
}

/// Row `i` sees the `j < i` for which `sees(j, i)`.
fn prefixes_where(n: usize, sees: impl Fn(usize, usize) -> bool) -> Vec<Vec<TxnIndex>> {
    (0..n)
        .map(|i| (0..i).filter(|&j| sees(j, i)).collect())
        .collect()
}

/// Serial order shuffled inside delivery blocks of `block` rows; a row
/// misses the serially earlier rows delivered after it. Transitive: a
/// seen row was delivered before every missed one.
fn windowed(seed: u64, n: usize, block: usize) -> Vec<Vec<TxnIndex>> {
    let mut rng = Lcg(seed | 1);
    let mut delivered_at: Vec<usize> = (0..n).collect();
    for chunk in delivered_at.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            chunk.swap(i, rng.below(i + 1));
        }
    }
    prefixes_where(n, |j, i| delivered_at[j] < delivered_at[i])
}

/// Rows `0..head` see everything; from `head` on each row is on a
/// random side and sees the head and its own side only. Transitive:
/// whatever a seen row saw lies in the head or on the same side.
fn two_sided(seed: u64, n: usize, head: usize) -> Vec<Vec<TxnIndex>> {
    let mut rng = Lcg(seed | 1);
    let side: Vec<usize> = (0..n).map(|_| rng.below(2)).collect();
    prefixes_where(n, |j, i| j < head || i < head || side[j] == side[i])
}

/// `isolated` random rows among the first `span` are cut off: they see
/// each other and nobody else sees them, for the rest of the run.
/// Transitive for the same reason as [`two_sided`].
fn long_partition(seed: u64, n: usize, span: usize, isolated: usize) -> Vec<Vec<TxnIndex>> {
    let mut rng = Lcg(seed | 1);
    let mut cut_off = vec![false; n];
    for _ in 0..isolated {
        cut_off[rng.below(span)] = true;
    }
    prefixes_where(n, |j, i| cut_off[j] == cut_off[i])
}

/// Makes some `top` see a `mid` it had missed although it still misses
/// something `mid` saw — one injected violation. Returns whether the
/// shape offered such a pair.
fn inject_violation(prefixes: &mut [Vec<TxnIndex>], seed: u64) -> bool {
    let n = prefixes.len();
    let mut rng = Lcg(seed | 1);
    for _ in 0..4 * n {
        let top = rng.below(n);
        let missed: Vec<TxnIndex> = (0..top)
            .filter(|j| prefixes[top].binary_search(j).is_err())
            .collect();
        if missed.is_empty() {
            continue;
        }
        let mid = missed[rng.below(missed.len())];
        // `mid` must have seen something `top` missed.
        if prefixes[mid]
            .iter()
            .any(|low| prefixes[top].binary_search(low).is_err())
        {
            let at = prefixes[top].binary_search(&mid).unwrap_err();
            prefixes[top].insert(at, mid);
            return true;
        }
    }
    false
}

/// §3.2's definition, literally: the first `(low, mid, top)` with
/// `low ∈ 𝒫(mid)`, `mid ∈ 𝒫(top)`, `low ∉ 𝒫(top)` in loop order — over
/// `top`, the `low` it missed, then `mid`. Cubic.
fn triple_loop(prefixes: &[Vec<TxnIndex>]) -> Option<(TxnIndex, TxnIndex, TxnIndex)> {
    prefixes.iter().enumerate().find_map(|(top, seen)| {
        let unseen = |low: &TxnIndex| seen.binary_search(low).is_err();
        (0..top).filter(unseen).find_map(|low| {
            let saw_low = |mid: &&TxnIndex| prefixes[**mid].binary_search(&low).is_ok();
            Some((low, *seen.iter().find(saw_low)?, top))
        })
    })
}

/// The same definition in the same order over one bitset per row: for
/// each `top` and each `low` it missed, the smallest `mid ∈ 𝒫(top)`
/// with `low ∈ 𝒫(mid)` — a bit test per candidate, for the sizes
/// where [`triple_loop`]'s searches cost too much.
fn bitsets(prefixes: &[Vec<TxnIndex>]) -> Option<(TxnIndex, TxnIndex, TxnIndex)> {
    let words = prefixes.len().div_ceil(64);
    let mut seen = vec![0u64; prefixes.len() * words];
    for (i, prefix) in prefixes.iter().enumerate() {
        for &j in prefix {
            seen[i * words + j / 64] |= 1 << (j % 64);
        }
    }
    let sees = |i: usize, j: usize| seen[i * words + j / 64] >> (j % 64) & 1 == 1;
    (0..prefixes.len()).find_map(|top| {
        (0..top).filter(|&low| !sees(top, low)).find_map(|low| {
            let mid = (low + 1..top).find(|&mid| sees(top, mid) && sees(mid, low))?;
            Some((low, mid, top))
        })
    })
}

/// The checker agrees with an oracle on `te` — built from `prefixes`:
/// the triple loop where it can afford to (`naive`), else the bitsets;
/// returns the shared verdict.
fn assert_checkers_agree(prefixes: &[Vec<TxnIndex>], naive: bool) -> bool {
    let te = &timed(prefixes.to_vec());
    let first = transitivity_violation(&te.execution);
    let oracle = if naive { triple_loop } else { bitsets };
    assert_eq!(first, oracle(prefixes), "the checker vs the definition");
    assert_eq!(first.is_none(), is_transitive(&te.execution));
    let certificate = first.map(|(low, mid, top)| Certificate::Transitivity { low, mid, top });
    let rows = rows_from_execution(&PoolConfig::sequential(), te);
    let mut certificates = None;
    for window in WINDOWS {
        let report = check_rows(window, &rows);
        assert_eq!(report.max_missed, max_missed(&te.execution));
        assert_eq!(report.min_delay_bound, te.min_delay_bound());
        assert_eq!(report.violation(), certificate.as_ref(), "window {window}");
        // Windows change when verdicts are cut, never what they say.
        let certs = report.certificates.clone();
        assert_eq!(*certificates.get_or_insert(certs), report.certificates);
    }
    first.is_none()
}

/// Checks a generated shape as built (transitive by construction) and
/// again with one injected violation.
fn assert_shape(mut prefixes: Vec<Vec<TxnIndex>>, seed: u64, naive: bool) {
    assert!(assert_checkers_agree(&prefixes, naive));
    if inject_violation(&mut prefixes, seed) {
        assert!(!assert_checkers_agree(&prefixes, naive));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn windowed_shapes_agree(seed in any::<u64>(), n in 1usize..260, block in 2usize..64) {
        assert_shape(windowed(seed, n, block), seed, true);
    }

    #[test]
    fn two_sided_partitions_agree(seed in any::<u64>(), n in 1usize..200, head in 0usize..40) {
        assert_shape(two_sided(seed, n, head), seed, true);
    }

    /// The gaps between a prefix's runs equal the linear scan on
    /// strictly increasing prefixes of every density.
    #[test]
    fn missed_below_matches_linear_scan(
        seed in any::<u64>(),
        i in 0usize..400,
        keep_per_mille in 0usize..=1000,
    ) {
        let mut rng = Lcg(seed | 1);
        let prefix: Vec<TxnIndex> = (0..i).filter(|_| rng.below(1000) < keep_per_mille).collect();
        assert_complement(&prefix, i);
    }
}

/// The fold reads a row straight off its prefix's runs: misses under 64
/// rows back on one word, 64 to 127 on the near map's two, the rest
/// copied out. `is_transitive` and `par_check` (every window) are held to
/// the definition and to the slice path, `check_rows` over the extracted
/// rows, on `prefixes` as built and with one injected violation.
fn assert_folds_agree(mut prefixes: Vec<Vec<TxnIndex>>, seed: u64) {
    for injected in [false, true] {
        if injected && !inject_violation(&mut prefixes, seed) {
            return;
        }
        let te = &timed(prefixes.clone());
        let first = triple_loop(&prefixes);
        assert_eq!(first.is_some(), injected, "built transitive, then broken");
        assert_eq!(transitivity_violation(&te.execution), first);
        assert_eq!(is_transitive(&te.execution), first.is_none());
        let certificate = first.map(|(low, mid, top)| Certificate::Transitivity { low, mid, top });
        let rows = rows_from_execution(&PoolConfig::sequential(), te);
        for window in WINDOWS {
            let report = par_check(&PoolConfig::sequential(), te, window);
            assert_eq!(report, check_rows(window, &rows), "window {window}");
            assert_eq!(report.violation(), certificate.as_ref(), "window {window}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delivery blocks of 60–140 rows: a row misses up to 139 rows back,
    /// so misses fall on both sides of 64 and of 128.
    #[test]
    fn windowed_shapes_across_the_word_seams_agree(
        seed in any::<u64>(),
        n in 1usize..420,
        block in 60usize..140,
    ) {
        assert_folds_agree(windowed(seed, n, block), seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Lists far longer than the window: each cut-off row collects a
    /// misser per later row on the other side, over thousands of rows —
    /// held to the bitsets, as the triple loop sits this size out.
    #[test]
    fn long_partitions_agree(seed in any::<u64>(), n in 2_100usize..2_400, isolated in 1usize..12) {
        assert_shape(long_partition(seed, n, 64, isolated), seed, false);
    }
}

fn assert_complement(prefix: &[TxnIndex], i: TxnIndex) {
    let linear: Vec<TxnIndex> = (0..i).filter(|j| !prefix.contains(j)).collect();
    let runs: Prefix = prefix.iter().copied().collect();
    let gaps: Vec<TxnIndex> = runs.missed_below(i).collect();
    assert_eq!(gaps, linear, "prefix {prefix:?} below {i}");
}

#[test]
fn missed_below_edge_cases() {
    assert_complement(&[], 0);
    assert_complement(&[], 5);
    for i in [1usize, 2, 63, 64, 65, 300] {
        let full: Vec<TxnIndex> = (0..i).collect();
        assert_complement(&full, i);
        // Every single-gap prefix, and every single-member one.
        for gap in 0..i {
            let one_gap: Vec<TxnIndex> = (0..i).filter(|&j| j != gap).collect();
            assert_complement(&one_gap, i);
            assert_complement(&[gap], i);
        }
    }
}

/// The violation certificate is the first in (row, missed, smallest
/// witness) order — pinned on one injected violation per shape, with
/// the triples the pre-rewrite checker reported.
#[test]
fn certificates_name_the_first_violation_in_scan_order() {
    let cases = [
        (windowed(11, 200, 16), (64, 77, 78)),
        (two_sided(12, 150, 10), (10, 25, 113)),
        (long_partition(13, 2_200, 64, 6), (19, 22, 1_763)),
    ];
    for (k, (mut prefixes, triple)) in cases.into_iter().enumerate() {
        assert!(inject_violation(&mut prefixes, 7 + k as u64), "case {k}");
        assert!(!assert_checkers_agree(&prefixes, k < 2), "case {k}");
        let te = timed(prefixes);
        assert_eq!(
            transitivity_violation(&te.execution),
            Some(triple),
            "case {k}"
        );
    }
}

/// The size a list of seen predecessors could not reach — 2¹⁷ rows are
/// 64 GiB of indices, the runs a few megabytes: E25's shape (delivery
/// shuffled inside blocks of 64, so a row misses at most 63 recent
/// predecessors) built from its miss sets, extracted back, and checked.
/// `is_transitive` is the same fold as `check_rows` over these rows.
#[test]
fn block_shuffled_execution_of_131072_rows_round_trips() {
    const ROWS: usize = 1 << 17;
    const BLOCK: usize = 64;
    let mut rng = Lcg(25);
    let mut delivered_at: Vec<u64> = (0..ROWS as u64).collect();
    for chunk in delivered_at.chunks_mut(BLOCK) {
        for i in (1..chunk.len()).rev() {
            chunk.swap(i, rng.below(i + 1));
        }
    }
    let rows: Vec<StreamRow> = (0..ROWS)
        .map(|i| StreamRow {
            index: i,
            time: delivered_at[i],
            missed: (i.saturating_sub(BLOCK)..i)
                .filter(|&j| delivered_at[j] > delivered_at[i])
                .collect(),
        })
        .collect();
    let mut exec: Execution<Stub> = Execution::new();
    for row in &rows {
        exec.push_record(TxnRecord {
            decision: (),
            prefix: Prefix::from_missed(row.index, &row.missed),
            update: (),
            external_actions: Vec::new(),
        });
    }
    let runs: usize = exec.records().iter().map(|r| r.prefix.runs().len()).sum();
    let misses: usize = rows.iter().map(|r| r.missed.len()).sum();
    assert!(misses > 15 * ROWS, "the shape misses ~16 of the last 64");
    assert!(runs <= misses + ROWS, "k misses cost at most k + 1 runs");
    let te = TimedExecution::new(exec, delivered_at);

    let extracted = rows_from_execution(&PoolConfig::sequential(), &te);
    assert!(
        extracted == rows,
        "extraction returns the rows it was built from"
    );
    let mut checker = StreamChecker::new(BLOCK);
    for row in &rows {
        checker.push(row);
    }
    let report = check_rows(BLOCK, &extracted);
    assert!(report == checker.report());
    assert!(report == par_check(&PoolConfig::sequential(), &te, BLOCK));
    assert!(
        report.transitive && is_transitive(&te.execution),
        "a seen row was delivered before every missed one"
    );
    assert_eq!(report.max_missed, max_missed(&te.execution));
    assert_eq!(report.min_delay_bound, te.min_delay_bound());
}
