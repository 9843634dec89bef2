//! Small-scope exhaustive verification.
//!
//! For a fixed decision sequence of length `n`, the prefix-subsequence
//! condition allows `2^(n·(n−1)/2)` distinct executions (each
//! transaction independently sees any subset of its predecessors). For
//! small `n` we can enumerate **all** of them and check a theorem on
//! every one — a model-checking-style complement to the randomized
//! experiments: within the scope, the theorem is *verified*, not
//! sampled. `n ≤ 7` keeps the space under 2²¹ executions.

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

/// Checks `property` on every execution of `decisions`; returns
/// `(executions_checked, violations)`.
pub fn check_all_executions<A: Application>(
    app: &A,
    decisions: &[A::Decision],
    mut property: impl FnMut(&Execution<A>) -> bool,
) -> (u64, u64) {
    let mut checked = 0;
    let mut violations = 0;
    for_each_execution(app, decisions, |e| {
        checked += 1;
        if !property(e) {
            violations += 1;
        }
    });
    (checked, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::check_theorem5;
    use crate::trace;
    use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
    use shard_apps::Person;
    use shard_core::conditions;
    use shard_core::costs::BoundFn;

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
        let (checked, violations) =
            check_all_executions(&app, &decisions, |e| e.verify(&app).is_ok());
        assert_eq!(checked, 1024);
        assert_eq!(violations, 0);
        // The space is not only the transitive corner: the enumeration
        // reaches intransitive executions too.
        let (_, intransitive) = check_all_executions(&app, &decisions, conditions::is_transitive);
        assert!(
            intransitive > 0,
            "some enumerated executions are intransitive"
        );
    }

    /// Theorem 5, *verified* (not sampled) at small scope: over every
    /// execution of a contention-heavy workload, the per-step cost bound
    /// holds for both constraints.
    #[test]
    fn theorem5_verified_exhaustively() {
        let app = FlyByNight::new(1);
        let decisions = vec![
            AirlineTxn::Request(p(1)),
            AirlineTxn::Request(p(2)),
            AirlineTxn::MoveUp,
            AirlineTxn::MoveUp,
            AirlineTxn::MoveDown,
            AirlineTxn::Cancel(p(1)),
        ];
        let f900 = BoundFn::linear(900);
        let f300 = BoundFn::linear(300);
        let (checked, violations) = check_all_executions(&app, &decisions, |e| {
            check_theorem5(&app, e, OVERBOOKING, &f900, |_| true).holds()
                && check_theorem5(&app, e, UNDERBOOKING, &f300, |d| {
                    matches!(d, AirlineTxn::MoveUp | AirlineTxn::MoveDown)
                })
                .holds()
        });
        assert_eq!(checked, 32768);
        assert_eq!(violations, 0);
    }

    /// Theorem 22, verified at small scope: every execution of the §5.4
    /// block workload that satisfies *all three* hypotheses (transitive,
    /// movers centralized, per-person transactions centralized) has zero
    /// overbooking in every reachable state — and executions violating
    /// only the per-person hypothesis can overbook (the counterexample
    /// exists within the scope).
    #[test]
    fn theorem22_verified_exhaustively() {
        let app = FlyByNight::new(1);
        let decisions = vec![
            AirlineTxn::Request(p(1)),
            AirlineTxn::Cancel(p(1)),
            AirlineTxn::Request(p(1)),
            AirlineTxn::MoveUp,
            AirlineTxn::Request(p(2)),
            AirlineTxn::MoveUp,
        ];
        let movers = [3usize, 5];
        // Transactions generating updates involving P1: 0,1,2,3 (the
        // first MOVE-UP can select P1); involving P2: 4,5.
        let mut hypothesis_met = 0u64;
        let mut counterexamples_without_hypothesis = 0u64;
        let (checked, violations) = check_all_executions(&app, &decisions, |e| {
            let transitive = conditions::is_transitive(e);
            let movers_central = conditions::is_centralized(e, &movers);
            // Per-person centralization, computed from the updates the
            // decisions actually generated.
            let person_central = [p(1), p(2)].iter().all(|person| {
                let group: Vec<usize> = (0..e.len())
                    .filter(|&i| e.record(i).update.person() == Some(*person))
                    .collect();
                conditions::is_centralized(e, &group)
            });
            let zero_over = trace::max_cost(&app, e, OVERBOOKING) == 0;
            if transitive && movers_central && person_central {
                hypothesis_met += 1;
                zero_over // Theorem 22's conclusion must hold
            } else {
                if transitive && movers_central && !zero_over {
                    counterexamples_without_hypothesis += 1;
                }
                true // out of scope for the theorem
            }
        });
        assert_eq!(checked, 32768);
        assert_eq!(
            violations, 0,
            "Theorem 22 holds on every in-scope execution"
        );
        assert!(
            hypothesis_met >= 50,
            "the scope is non-trivial: {hypothesis_met}"
        );
        assert!(
            counterexamples_without_hypothesis > 0,
            "dropping per-person centralization admits overbooking (§5.4)"
        );
    }

    /// The §4.2 priority-preservation claim, verified over every
    /// execution: each transaction's step from its *own apparent state*
    /// never inverts priorities.
    #[test]
    fn priority_preservation_verified_exhaustively() {
        use shard_core::PriorityModel;
        let app = FlyByNight::new(1);
        let decisions = vec![
            AirlineTxn::Request(p(1)),
            AirlineTxn::Request(p(2)),
            AirlineTxn::MoveUp,
            AirlineTxn::MoveDown,
            AirlineTxn::Cancel(p(2)),
        ];
        let (checked, violations) = check_all_executions(&app, &decisions, |e| {
            (0..e.len()).all(|i| {
                let t = e.apparent_state_before(&app, i);
                let t2 = e.apparent_state_after(&app, i);
                let known_before = app.known(&t);
                known_before.iter().all(|a| {
                    known_before.iter().all(|b| {
                        if a == b || !app.precedes(&t, a, b) {
                            return true;
                        }
                        // If both survive, order must persist.
                        !(t2.is_known(*a) && t2.is_known(*b)) || app.precedes(&t2, a, b)
                    })
                })
            })
        });
        assert_eq!(checked, 1024);
        assert_eq!(violations, 0);
    }

    #[test]
    #[should_panic(expected = "small scopes")]
    fn oversized_scope_panics() {
        let app = FlyByNight::new(1);
        let decisions = vec![AirlineTxn::MoveUp; 8];
        for_each_execution(&app, &decisions, |_| {});
    }
}
