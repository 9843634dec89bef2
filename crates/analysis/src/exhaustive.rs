//! Small-scope exhaustive verification.
//!
//! For a fixed decision sequence of length `n`, the prefix-subsequence
//! condition allows `2^(n·(n−1)/2)` distinct executions (each
//! transaction independently sees any subset of its predecessors). For
//! small `n` we can enumerate **all** of them and check a theorem on
//! every one — a model-checking-style complement to the randomized
//! experiments: within the scope, the theorem is *verified*, not
//! sampled. `n ≤ 7` keeps the space under 2²¹ executions.
//!
//! The update-sequence statements — §4.1's bound functions and §5.3's
//! lemmas — are checked the same way over every sequence of a few
//! updates and every subsequence of it
//! ([`for_each_sequence_and_subsequence`]). Each `check_*` function here
//! is one experiment's claim: E02 (Theorem 5, the 900·k bound), E03 (the
//! 300·k bound), E05 (the lemmas and their errata), E06 (Theorem 22)
//! and E07 (§4.2 priority preservation).

use crate::claims::{check_theorem5, ClaimCheck};
use crate::trace;
use shard_apps::airline::{AirlineTxn, AirlineUpdate, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard_apps::Person;
use shard_core::conditions;
use shard_core::costs::{check_bound_instance, for_each_sequence_and_subsequence, BoundFn};
use shard_core::fairness::priority_violation;
use shard_core::{Application, Execution, ExecutionBuilder, TxnIndex};

/// Visits every execution of `decisions` (every combination of prefix
/// subsequences), in a deterministic order.
///
/// # Panics
///
/// Panics if `decisions.len() > 7` (the space would exceed 2²¹
/// executions; use the randomized harness instead).
pub fn for_each_execution<A: Application>(
    app: &A,
    decisions: &[A::Decision],
    mut visit: impl FnMut(&Execution<A>),
) {
    let n = decisions.len();
    assert!(n <= 7, "exhaustive enumeration is for small scopes (n ≤ 7)");
    // Odometer over per-transaction prefix bitmasks: txn i has 2^i
    // subsets of {0..i}.
    let mut masks = vec![0u32; n];
    for _ in 0..execution_count(n) {
        let mut b = ExecutionBuilder::new(app);
        for (i, d) in decisions.iter().enumerate() {
            let prefix: Vec<TxnIndex> = (0..i).filter(|j| masks[i] & (1 << j) != 0).collect();
            b.push(d.clone(), prefix)
                .expect("valid prefix by construction");
        }
        let e = b.finish();
        visit(&e);
        // Increment the odometer.
        let mut i = 0;
        while i < n {
            masks[i] += 1;
            if masks[i] < (1u32 << i) {
                break;
            }
            masks[i] = 0;
            i += 1;
        }
    }
}

/// The number of executions [`for_each_execution`] visits for `n`
/// transactions: `2^(n(n−1)/2)`.
pub fn execution_count(n: usize) -> u64 {
    1u64 << (n * n.saturating_sub(1) / 2)
}

/// **Theorem 5**, verified on every execution of a contention-heavy
/// six-transaction workload on a 1-seat plane (32 768 executions): the
/// per-step bound holds for both constraints, `900·k` for overbooking
/// and `300·k` for underbooking.
pub fn check_theorem5_exhaustively() -> ClaimCheck {
    let app = FlyByNight::new(1);
    let decisions = [
        AirlineTxn::Request(Person(1)),
        AirlineTxn::Request(Person(2)),
        AirlineTxn::MoveUp,
        AirlineTxn::MoveUp,
        AirlineTxn::MoveDown,
        AirlineTxn::Cancel(Person(1)),
    ];
    let f900 = BoundFn::linear(900);
    let f300 = BoundFn::linear(300);
    let mut check = ClaimCheck::new("Theorem 5, every execution of 6 contending transactions");
    for_each_execution(&app, &decisions, |e| {
        let over = check_theorem5(&app, e, OVERBOOKING, &f900, |d| {
            app.preserves(d, OVERBOOKING)
        });
        let under = check_theorem5(&app, e, UNDERBOOKING, &f300, |d| {
            app.preserves(d, UNDERBOOKING)
        });
        check.record(over.violations.into_iter().chain(under.violations).next());
    });
    check
}

/// **Theorem 22**, verified on every execution of the §5.4 block
/// workload (32 768 executions): each one that satisfies *all three*
/// hypotheses (transitive, movers centralized, each person's
/// transactions centralized) has zero overbooking in every reachable
/// state. The claim also fails if fewer than 50 executions meet the
/// hypotheses, or if none that drops only the per-person hypothesis
/// overbooks — the §5.4 counterexample must exist within the scope.
pub fn check_theorem22_exhaustively() -> ClaimCheck {
    let app = FlyByNight::new(1);
    let (p1, p2) = (Person(1), Person(2));
    let decisions = [
        AirlineTxn::Request(p1),
        AirlineTxn::Cancel(p1),
        AirlineTxn::Request(p1),
        AirlineTxn::MoveUp,
        AirlineTxn::Request(p2),
        AirlineTxn::MoveUp,
    ];
    let movers = [3usize, 5];
    let mut check = ClaimCheck::new("Theorem 22, every execution of the §5.4 block workload");
    let mut hypothesis_met = 0u64;
    let mut counterexamples = 0u64;
    for_each_execution(&app, &decisions, |e| {
        let transitive = conditions::is_transitive(e);
        let movers_central = conditions::is_centralized(e, &movers);
        // Per-person centralization, computed from the updates the
        // decisions actually generated.
        let person_central = [p1, p2].iter().all(|person| {
            let group: Vec<usize> = (0..e.len())
                .filter(|&i| e.record(i).update.person() == Some(*person))
                .collect();
            conditions::is_centralized(e, &group)
        });
        let zero_over = trace::max_cost(&app, e, OVERBOOKING) == 0;
        let in_scope = transitive && movers_central && person_central;
        hypothesis_met += u64::from(in_scope);
        counterexamples += u64::from(transitive && movers_central && !in_scope && !zero_over);
        check.record((in_scope && !zero_over).then(|| {
            let prefixes: Vec<Vec<TxnIndex>> = (0..e.len())
                .map(|i| e.record(i).prefix.iter().collect())
                .collect();
            format!("overbooked under every hypothesis: prefixes {prefixes:?}")
        }));
    });
    if hypothesis_met < 50 {
        let trivial = format!("only {hypothesis_met} executions meet the hypotheses");
        check.violations.push(trivial);
    }
    if counterexamples == 0 {
        let missing = "dropping per-person centralization never overbooks (§5.4)";
        check.violations.push(missing.to_string());
    }
    check
}

/// **§4.2 priority preservation**, verified on every execution of a
/// six-transaction workload (32 768 executions): each transaction's
/// step from its *own apparent state* keeps the relative priority of
/// the people it leaves known and ranks newcomers last
/// ([`priority_violation`]). Two MOVE-UPs can overbook the 1-seat plane
/// while a third person waits, so the MOVE-DOWN bumps someone past a
/// waiter.
pub fn check_priority_preservation_exhaustively() -> ClaimCheck {
    let app = FlyByNight::new(1);
    let decisions = [
        AirlineTxn::Request(Person(1)),
        AirlineTxn::Request(Person(2)),
        AirlineTxn::Request(Person(3)),
        AirlineTxn::MoveUp,
        AirlineTxn::MoveUp,
        AirlineTxn::MoveDown,
    ];
    let mut check =
        ClaimCheck::new("§4.2: every step preserves priority, every execution of 6 transactions");
    for_each_execution(&app, &decisions, |e| {
        let violated = (0..e.len()).find_map(|i| {
            let apparent = e.apparent_state_before(&app, i);
            priority_violation(&app, &e.record(i).decision, &[apparent])
        });
        check.record(violated.map(|v| format!("{:?} at {}", v.kind, v.acting)));
    });
    check
}

/// The universe of the update-sequence sweeps below: every update two
/// people can be the subject of, bar the second person's cancel.
const UPDATES: [AirlineUpdate; 7] = [
    AirlineUpdate::Request(Person(1)),
    AirlineUpdate::Cancel(Person(1)),
    AirlineUpdate::MoveUp(Person(1)),
    AirlineUpdate::MoveDown(Person(1)),
    AirlineUpdate::Request(Person(2)),
    AirlineUpdate::MoveUp(Person(2)),
    AirlineUpdate::MoveDown(Person(2)),
];

/// **§4.1's bound functions** for the airline: `f` bounds the cost
/// increase for `constraint` if `cost(s) ≤ cost(t) + f(k)` whenever
/// `s ≤ₖ t`. Checked with [`check_bound_instance`] on every pair
/// `(𝒜, 𝒮)` — `𝒜` a sequence of at most 4 updates over two people on a
/// 1-seat plane, `𝒮` any subsequence, `k = |𝒜| − |𝒮|` (41 371 pairs).
pub fn check_bound_exhaustively(constraint: usize, f: &BoundFn) -> ClaimCheck {
    let app = FlyByNight::new(1);
    let mut check = ClaimCheck::new(format!(
        "§4.1: {} bounds the {} cost increase over every (𝒜, 𝒮) pair, |𝒜| ≤ 4",
        f,
        app.constraint_name(constraint)
    ));
    for_each_sequence_and_subsequence(&UPDATES, 4, |seq, kept| {
        let holds = check_bound_instance(&app, f, constraint, seq, kept);
        check.record((!holds).then(|| format!("𝒜 = {seq:?}, 𝒮 keeps {kept:?}")));
    });
    check
}

/// **A §5.3 lemma** (`shard_apps::airline::lemmas`), checked on every
/// instance `(𝒜, 𝒮, P)`: `𝒜` a sequence of at most 4 updates over two
/// people on a 1-seat plane, `𝒮` any subsequence and `P` either
/// person. An instance counts when it meets the lemma's hypothesis
/// (`lemma` returns `Some`), and violates the claim when the
/// conclusion fails.
pub fn check_lemma_exhaustively(
    name: &str,
    lemma: impl Fn(&FlyByNight, &[AirlineUpdate], &[usize], Person) -> Option<bool>,
) -> ClaimCheck {
    let app = FlyByNight::new(1);
    let mut check = ClaimCheck::new(format!("§5.3 {name}, every (𝒜, 𝒮, P) with |𝒜| ≤ 4"));
    for_each_sequence_and_subsequence(&UPDATES, 4, |seq, kept| {
        for p in [Person(1), Person(2)] {
            if let Some(conclusion) = lemma(&app, seq, kept, p) {
                check.record((!conclusion).then(|| format!("{p}: 𝒜 = {seq:?}, 𝒮 keeps {kept:?}")));
            }
        }
    });
    check
}

/// **A §5.3 erratum**: the claim that `literal`, the printed reading
/// of lemma `name`, is refuted. It holds when
/// [`check_lemma_exhaustively`] finds a counterexample, and `seq`
/// keeping `kept` is one for P1.
pub fn check_refuted(
    name: &str,
    literal: impl Fn(&FlyByNight, &[AirlineUpdate], &[usize], Person) -> Option<bool>,
    seq: &[AirlineUpdate],
    kept: &[usize],
) -> ClaimCheck {
    let sweep = check_lemma_exhaustively(&format!("{name} as printed"), &literal);
    let mut refuted = ClaimCheck::new(format!("§5.3 erratum: {name} as printed is refuted"));
    refuted.record(
        sweep
            .holds()
            .then(|| "no counterexample at |𝒜| ≤ 4".to_string()),
    );
    let outcome = literal(&FlyByNight::new(1), seq, kept, Person(1));
    refuted.record((outcome != Some(false)).then(|| format!("{seq:?} keeping {kept:?}")));
    refuted
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_apps::airline::lemmas::{
        lemma15, lemma16, lemma16_literal, lemma17, lemma18, lemma19, lemma19_literal,
    };

    fn p(n: u32) -> Person {
        Person(n)
    }

    #[test]
    fn counts_match_formula() {
        let app = FlyByNight::new(1);
        let decisions = vec![AirlineTxn::Request(p(1)); 5];
        // Every visit is a distinct execution: the odometer covers the
        // space exactly once.
        let mut seen = std::collections::HashSet::new();
        for_each_execution(&app, &decisions, |e| {
            let prefixes: Vec<Vec<TxnIndex>> = (0..e.len())
                .map(|i| e.record(i).prefix.iter().collect())
                .collect();
            assert!(seen.insert(prefixes), "an execution visited twice");
        });
        assert_eq!(seen.len() as u64, execution_count(5));
        assert_eq!(execution_count(5), 1024);
        assert_eq!(execution_count(0), 1);
        assert_eq!(execution_count(1), 1);
    }

    #[test]
    fn all_enumerated_executions_verify() {
        let app = FlyByNight::new(1);
        let decisions = vec![
            AirlineTxn::Request(p(1)),
            AirlineTxn::Request(p(2)),
            AirlineTxn::MoveUp,
            AirlineTxn::MoveUp,
            AirlineTxn::MoveDown,
        ];
        let (mut checked, mut intransitive) = (0, 0);
        for_each_execution(&app, &decisions, |e| {
            e.verify(&app).expect("every enumerated execution is valid");
            checked += 1;
            intransitive += usize::from(!conditions::is_transitive(e));
        });
        assert_eq!(checked, 1024);
        // The space is not only the transitive corner: the enumeration
        // reaches intransitive executions too.
        assert!(
            intransitive > 0,
            "some enumerated executions are intransitive"
        );
    }

    #[test]
    fn theorem5_verified_exhaustively() {
        let check = check_theorem5_exhaustively();
        assert!(check.holds(), "{check}");
        assert_eq!(check.instances, 32768);
    }

    #[test]
    fn theorem22_verified_exhaustively() {
        let check = check_theorem22_exhaustively();
        assert!(check.holds(), "{check}");
        assert_eq!(check.instances, 32768);
    }

    #[test]
    fn priority_preservation_verified_exhaustively() {
        let check = check_priority_preservation_exhaustively();
        assert!(check.holds(), "{check}");
        assert_eq!(check.instances, 32768);
    }

    #[test]
    fn lemmas_15_to_19_verified_exhaustively() {
        for (lemma, floor) in [
            (lemma15 as fn(&_, &_, &_, _) -> _, 500),
            (lemma16, 200),
            (lemma17, 500),
            (lemma18, 500),
            (lemma19, 400),
        ] {
            let check = check_lemma_exhaustively("lemma", lemma);
            assert!(check.holds(), "{check}");
            assert!(check.instances > floor, "non-trivial scope: {check}");
        }
    }

    /// The errata, demonstrated: the paper's printed readings of
    /// Lemmas 16 and 19 fail in the same scope, on the counterexamples
    /// from the module docs.
    #[test]
    fn the_printed_lemmas_16_and_19_are_refuted() {
        use AirlineUpdate::*;
        let seq = [Request(p(1)), MoveUp(p(1)), Cancel(p(1)), Request(p(1))];
        // Drop the cancel.
        let check = check_refuted("Lemma 16", lemma16_literal, &seq, &[0, 1, 3]);
        assert!(check.holds(), "{check}");
        let seq = [Request(p(1)), MoveUp(p(1)), Request(p(1))];
        // Both "lasts" kept, the establishing request dropped.
        let check = check_refuted("Lemma 19", lemma19_literal, &seq, &[1, 2]);
        assert!(check.holds(), "{check}");
        // The corrected hypothesis excludes this instance.
        assert_eq!(lemma19(&FlyByNight::new(1), &seq, &[1, 2], p(1)), None);
    }

    #[test]
    #[should_panic(expected = "small scopes")]
    fn oversized_scope_panics() {
        let app = FlyByNight::new(1);
        let decisions = vec![AirlineTxn::MoveUp; 8];
        for_each_execution(&app, &decisions, |_| {});
    }
}
