//! Property-based tests of the formal model: the execution builder,
//! condition checkers and the prefix representation are checked against
//! brute-force reference implementations on randomized inputs. Hostile
//! lines never panic the trace row parser.

// One splice dictionary and rule for both crates' parser tests.
#[path = "../../obs/tests/hostile/mod.rs"]
mod hostile;

use hostile::{arb_string, mutate, TRACE};
use proptest::prelude::*;
use shard_core::stream::StreamRow;
use shard_core::{
    conditions, Application, DecisionOutcome, ExecutionBuilder, ExecutionError, Prefix,
    TimedExecution,
};
use std::collections::BTreeSet;

/// Reference application: an append-log of the observed state sizes, so
/// decisions genuinely depend on the apparent state.
struct LogApp;

#[derive(Clone, Debug, PartialEq)]
struct Append(usize);

impl Application for LogApp {
    type State = Vec<usize>;
    type Update = Append;
    type Decision = ();
    fn initial_state(&self) -> Vec<usize> {
        Vec::new()
    }
    fn is_well_formed(&self, _: &Vec<usize>) -> bool {
        true
    }
    fn apply_in_place(&self, s: &mut Vec<usize>, u: &Append) {
        s.push(u.0);
    }
    fn decide(&self, _: &(), observed: &Vec<usize>) -> DecisionOutcome<Append> {
        // The update records how much the decision saw: any tampering
        // with prefixes or states is detected by verify().
        DecisionOutcome::update_only(Append(observed.len()))
    }
    fn constraint_count(&self) -> usize {
        0
    }
    fn constraint_name(&self, _: usize) -> &str {
        unreachable!()
    }
    fn cost(&self, _: &Vec<usize>, _: usize) -> u64 {
        0
    }
}

/// Strategy: per-transaction random subsets of predecessors, expressed
/// as a seed vector of booleans (index j of entry i: does i see j?).
fn prefix_matrix(n: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), n), n)
}

fn build_execution(matrix: &[Vec<bool>]) -> shard_core::Execution<LogApp> {
    let app = LogApp;
    let mut b = ExecutionBuilder::new(&app);
    for (i, row) in matrix.iter().enumerate() {
        let prefix: Vec<usize> = (0..i).filter(|&j| row[j]).collect();
        b.push((), prefix).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder-constructed executions always verify.
    #[test]
    fn builder_output_always_verifies(matrix in prefix_matrix(12)) {
        let e = build_execution(&matrix);
        prop_assert!(e.verify(&LogApp).is_ok());
    }

    /// The transitivity checker agrees with the brute-force triple loop,
    /// down to which violation it names first: loops over `top`, the
    /// `low` it missed, then `mid`.
    #[test]
    fn transitivity_matches_brute_force(matrix in prefix_matrix(10)) {
        let e = build_execution(&matrix);
        let sets: Vec<BTreeSet<usize>> = e
            .records()
            .iter()
            .map(|r| r.prefix.iter().collect())
            .collect();
        let brute = sets.iter().enumerate().find_map(|(top, set)| {
            (0..top).filter(|low| !set.contains(low)).find_map(|low| {
                let mid = set.iter().find(|&&mid| sets[mid].contains(&low))?;
                Some((low, *mid, top))
            })
        });
        prop_assert_eq!(conditions::transitivity_violation(&e), brute);
        prop_assert_eq!(conditions::is_transitive(&e), brute.is_none());
    }

    /// `missed_count` + prefix length always equals the index.
    #[test]
    fn missed_count_arithmetic(matrix in prefix_matrix(12)) {
        let e = build_execution(&matrix);
        for i in 0..e.len() {
            prop_assert_eq!(
                conditions::missed_count(&e, i) + e.record(i).prefix.len(),
                i
            );
        }
        let max = conditions::max_missed(&e);
        for i in 0..e.len() {
            prop_assert!(conditions::missed_count(&e, i) <= max);
        }
    }

    /// Atomic ranges detected by `is_atomic` satisfy both defining
    /// clauses, cross-checked naively.
    #[test]
    fn atomicity_matches_definition(matrix in prefix_matrix(9), start in 0usize..8, len in 0usize..5) {
        let e = build_execution(&matrix);
        let end = (start + len).min(e.len());
        let start = start.min(end);
        let range = start..end;
        let naive = {
            let mut ok = true;
            if !range.is_empty() {
                let base: Vec<usize> = e.record(range.start).prefix.iter()
                    .filter(|&p| p < range.start).collect();
                for j in range.clone() {
                    let below: Vec<usize> = e.record(j).prefix.iter()
                        .filter(|&p| p < range.start).collect();
                    ok &= below == base;
                    for earlier in range.start..j {
                        ok &= e.record(j).prefix.contains(earlier);
                    }
                }
            }
            ok
        };
        prop_assert_eq!(conditions::is_atomic(&e, range), naive);
    }

    /// `min_delay_bound` is exactly the smallest t with t-bounded delay.
    #[test]
    fn min_delay_bound_is_tight(
        matrix in prefix_matrix(8),
        times in proptest::collection::vec(0u64..100, 8),
    ) {
        let e = build_execution(&matrix);
        let mut times = times;
        times.sort_unstable();
        let te = TimedExecution::new(e, times);
        let t = te.min_delay_bound();
        prop_assert!(te.delay_bound_violation(t).is_none());
        if t > 0 {
            prop_assert!(te.delay_bound_violation(t - 1).is_some());
        }
    }

    /// `Prefix` agrees with a `BTreeSet` model however it is built, and
    /// its runs are canonical: none empty, overlapping or touching.
    #[test]
    fn prefix_matches_btreeset_model(
        model in proptest::collection::btree_set(0usize..300, 0..120),
        slack in 0usize..70,
    ) {
        let members: Vec<usize> = model.iter().copied().collect();
        let collected: Prefix = members.iter().copied().collect();
        let checked = Prefix::try_from(members.clone()).unwrap();
        // The smallest index this could be the prefix of, and beyond.
        let floor = members.last().map_or(0, |&max| max + 1);
        for i in [floor, floor + 1, floor + slack] {
            let missed: Vec<usize> = (0..i).filter(|j| !model.contains(j)).collect();
            let complemented = Prefix::from_missed(i, &missed);
            prop_assert_eq!(&complemented, &collected);
            prop_assert_eq!(complemented.runs(), collected.runs());
            prop_assert_eq!(collected.missed_below(i).collect::<Vec<_>>(), missed);
        }
        prop_assert_eq!(&checked, &collected);
        prop_assert_eq!(checked.runs(), collected.runs());
        let runs = collected.runs();
        prop_assert!(runs.iter().all(|r| r.start < r.end));
        prop_assert!(runs.windows(2).all(|w| w[0].end < w[1].start));
        prop_assert_eq!(collected.iter().collect::<Vec<_>>(), members);
        prop_assert_eq!(collected.len(), model.len());
        prop_assert_eq!(collected.is_empty(), model.is_empty());
        for j in 0..floor + 2 {
            prop_assert_eq!(collected.contains(j), model.contains(&j));
        }
    }

    /// A list that is not strictly increasing is refused with the typed
    /// error, wherever the first repeat or descent sits.
    #[test]
    fn prefix_try_from_rejects_non_increasing_lists(
        model in proptest::collection::btree_set(0usize..300, 1..60),
        at in any::<usize>(),
        back in 0usize..5,
    ) {
        let mut entries: Vec<usize> = model.iter().copied().collect();
        let at = at % entries.len();
        // Re-insert a value at or below entry `at` right after it.
        entries.insert(at + 1, entries[at].saturating_sub(back));
        prop_assert!(matches!(
            Prefix::try_from(entries),
            Err(ExecutionError::PrefixNotIncreasing { .. })
        ));
    }

    /// Apparent and actual states coincide exactly when prefixes are
    /// complete.
    #[test]
    fn complete_prefixes_mean_serializable(n in 1usize..15) {
        let app = LogApp;
        let mut b = ExecutionBuilder::new(&app);
        for _ in 0..n {
            b.push_complete(()).unwrap();
        }
        let e = b.finish();
        for i in 0..n {
            prop_assert_eq!(
                e.apparent_state_before(&app, i),
                e.actual_state_before(&app, i)
            );
        }
        prop_assert_eq!(conditions::max_missed(&e), 0);
    }
}

/// `from_missed` refuses a miss list that repeats, descends, or reaches
/// the transaction's own index.
#[test]
fn prefix_from_missed_rejects_ill_formed_miss_lists() {
    for (i, missed) in [
        (5, vec![2, 2]),
        (5, vec![3, 1]),
        (5, vec![5]),
        (5, vec![1, 9]),
        (0, vec![0]),
    ] {
        let built = std::panic::catch_unwind(|| Prefix::from_missed(i, &missed));
        assert!(built.is_err(), "{missed:?} below {i}");
    }
    assert_eq!(Prefix::from_missed(0, &[]), Prefix::default());
    assert_eq!(Prefix::from_missed(3, &[0, 1, 2]), Prefix::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text, and the lines of a valid trace mutated by
    /// `shard-obs`'s token splicer, never panic the row parser.
    #[test]
    fn hostile_lines_never_panic_the_row_parser(
        text in arb_string(),
        edits in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 1..6),
    ) {
        let _ = StreamRow::from_json_line(&text);
        for line in mutate(TRACE, &edits).lines() {
            if let Ok(parsed) = StreamRow::from_json_line(line) {
                prop_assert!(parsed.missed_well_formed(), "{line}");
            }
        }
    }
}
