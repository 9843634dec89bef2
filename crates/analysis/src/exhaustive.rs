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
use shard_pool::PoolConfig;

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
    visit: impl FnMut(&Execution<A>),
) {
    for_each_execution_in(app, decisions, 0..execution_count(decisions.len()), visit);
}

/// The odometer state of the execution with global index `g` in the
/// order [`for_each_execution`] visits: transaction `i`'s prefix
/// bitmask occupies the `i` bits of `g` starting at bit `i(i−1)/2`
/// (transaction 0 has no predecessors and contributes no bits). The
/// closed form is what lets an index range of the space be enumerated
/// without stepping through its predecessors.
pub fn masks_for_index(n: usize, g: u64) -> Vec<u32> {
    (0..n)
        .map(|i| ((g >> (i * i.saturating_sub(1) / 2)) as u32) & ((1u32 << i) - 1))
        .collect()
}

/// Visits the executions with global indices in `range`, in index
/// order — the contiguous sub-block of [`for_each_execution`]'s
/// sequence that parallel sweeps hand to one worker.
///
/// # Panics
///
/// Panics if `decisions.len() > 7` or `range` extends past
/// [`execution_count`].
pub fn for_each_execution_in<A: Application>(
    app: &A,
    decisions: &[A::Decision],
    range: std::ops::Range<u64>,
    mut visit: impl FnMut(&Execution<A>),
) {
    let n = decisions.len();
    assert!(n <= 7, "exhaustive enumeration is for small scopes (n ≤ 7)");
    assert!(
        range.end <= execution_count(n),
        "range extends past the execution space"
    );
    if range.is_empty() {
        return;
    }
    // Odometer over per-transaction prefix bitmasks: txn i has 2^i
    // subsets of {0..i}. Seeded from the closed form, then stepped.
    let mut masks = masks_for_index(n, range.start);
    for _ in range {
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

/// Parallel [`check_all_executions`]: splits the `2^(n(n−1)/2)` index
/// space into contiguous ranges across the pool, each worker running
/// the same odometer over its block. The decomposition depends on the
/// space size alone, so the tally equals the sequential one at every
/// thread count.
pub fn par_check_all_executions<A>(
    pool: &PoolConfig,
    app: &A,
    decisions: &[A::Decision],
    property: impl Fn(&Execution<A>) -> bool + Sync,
) -> (u64, u64)
where
    A: Application + Sync,
    A::Decision: Sync,
{
    let total = execution_count(decisions.len());
    shard_pool::par_ranges(pool, total as usize, |r| {
        let mut checked = 0u64;
        let mut violations = 0u64;
        for_each_execution_in(app, decisions, r.start as u64..r.end as u64, |e| {
            checked += 1;
            if !property(e) {
                violations += 1;
            }
        });
        (checked, violations)
    })
    .into_iter()
    .fold((0, 0), |(c, v), (pc, pv)| (c + pc, v + pv))
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
    fn masks_closed_form_matches_odometer_order() {
        let app = FlyByNight::new(1);
        let decisions = vec![AirlineTxn::Request(p(1)); 5];
        let mut g = 0u64;
        for_each_execution(&app, &decisions, |e| {
            let masks = masks_for_index(decisions.len(), g);
            for (i, &m) in masks.iter().enumerate() {
                let prefix: shard_core::Prefix = (0..i).filter(|j| m & (1 << j) != 0).collect();
                assert_eq!(e.record(i).prefix, prefix, "g = {g}, txn {i}");
            }
            g += 1;
        });
        assert_eq!(g, execution_count(5));
    }

    #[test]
    fn range_blocks_concatenate_to_the_full_enumeration() {
        let app = FlyByNight::new(1);
        let decisions = vec![
            AirlineTxn::Request(p(1)),
            AirlineTxn::MoveUp,
            AirlineTxn::Request(p(2)),
            AirlineTxn::MoveDown,
        ];
        let mut full: Vec<Vec<shard_core::Prefix>> = Vec::new();
        for_each_execution(&app, &decisions, |e| {
            full.push((0..e.len()).map(|i| e.record(i).prefix.clone()).collect())
        });
        let total = execution_count(decisions.len());
        let mut blocks: Vec<Vec<shard_core::Prefix>> = Vec::new();
        for bounds in [vec![0, total], vec![0, 1, 7, 13, 64], vec![0, 63, 64]] {
            blocks.clear();
            for w in bounds.windows(2) {
                for_each_execution_in(&app, &decisions, w[0]..w[1], |e| {
                    blocks.push((0..e.len()).map(|i| e.record(i).prefix.clone()).collect())
                });
            }
            assert_eq!(blocks, full, "bounds {bounds:?}");
        }
    }

    #[test]
    fn parallel_check_matches_sequential() {
        use shard_core::conditions;
        let app = FlyByNight::new(1);
        let decisions = vec![
            AirlineTxn::Request(p(1)),
            AirlineTxn::Request(p(2)),
            AirlineTxn::MoveUp,
            AirlineTxn::MoveUp,
            AirlineTxn::MoveDown,
        ];
        // A property with a non-trivial violation count, so the oracle
        // is not vacuous.
        let seq = check_all_executions(&app, &decisions, conditions::is_transitive);
        assert!(seq.1 > 0, "some enumerated executions are intransitive");
        for threads in [1, 2, 4, 7] {
            let par = par_check_all_executions(
                &PoolConfig::with_threads(threads),
                &app,
                &decisions,
                conditions::is_transitive,
            );
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn counts_match_formula() {
        let app = FlyByNight::new(1);
        let decisions = vec![AirlineTxn::Request(p(1)); 5];
        let mut seen = 0u64;
        for_each_execution(&app, &decisions, |_| seen += 1);
        assert_eq!(seen, execution_count(5));
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
