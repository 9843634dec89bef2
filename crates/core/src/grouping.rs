//! Groupings of an execution for a constraint, and normal states (§5.2).
//!
//! An invariant upper bound for the *underbooking* cost fails in general:
//! many requests can arrive in rapid succession without intervening
//! MOVE-UPs. Theorem 9 therefore restricts attention to **normal states**
//! with respect to a *grouping*: a partition of the execution's indices
//! into groups of consecutive indices, each of which either
//!
//! * (a) is a single transaction that **preserves** the constraint's
//!   cost, or
//! * (b) ends in an apparent state whose cost for the constraint is `0` —
//!   a point where the transactions *believe* they have repaired the
//!   constraint.
//!
//! Executions with groupings are abundant whenever the application has a
//! compensating transaction (Corollary 2): run the compensator atomically
//! after each non-preserving transaction until the apparent cost is zero.

use crate::app::Application;
use crate::execution::{Execution, TxnIndex};
use std::ops::Range;

/// A partition of `0..n` into consecutive groups.
///
/// # Examples
///
/// ```
/// use shard_core::Grouping;
/// let g = Grouping::from_ends(vec![2, 5]);
/// let groups: Vec<_> = g.groups().collect();
/// assert_eq!(groups, vec![0..2, 2..5]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grouping {
    /// Exclusive end index of each group; the last entry equals `n`.
    ends: Vec<usize>,
}

impl Grouping {
    /// Builds a grouping from consecutive group end indices (exclusive).
    /// `ends` must be strictly increasing and its last entry must equal
    /// the execution length the grouping is used with.
    ///
    /// # Panics
    ///
    /// Panics if `ends` is not strictly increasing.
    pub fn from_ends(ends: Vec<usize>) -> Self {
        assert!(
            ends.windows(2).all(|w| w[0] < w[1]),
            "group ends must increase"
        );
        Grouping { ends }
    }

    /// The number of groups.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over the groups as index ranges.
    pub fn groups(&self) -> impl Iterator<Item = Range<TxnIndex>> + '_ {
        self.ends.iter().scan(0usize, |start, &end| {
            let r = *start..end;
            *start = end;
            Some(r)
        })
    }

    /// The total number of indices covered.
    pub fn covered(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Whether this is a valid grouping of `exec` for `constraint`
    /// (§5.2): it covers exactly the execution and each group satisfies
    /// (a) or (b). `is_preserving(d)` must say whether transaction kind
    /// `d` preserves the cost of the constraint (applications know this
    /// statically; the paper proves it per transaction in §4.1).
    pub fn is_grouping_for<A: Application>(
        &self,
        app: &A,
        exec: &Execution<A>,
        constraint: usize,
        is_preserving: impl Fn(&A::Decision) -> bool,
    ) -> bool {
        if self.covered() != exec.len() {
            return false;
        }
        self.groups().all(|g| {
            let last = g.end - 1;
            (g.len() == 1 && is_preserving(&exec.record(last).decision))
                || app.cost(&exec.apparent_state_after(app, last), constraint) == 0
        })
    }

    /// Discovers a grouping of `exec` for `constraint` greedily: each
    /// cost-preserving transaction with no group open becomes a singleton
    /// group; any other transaction opens (or continues) a group that
    /// closes at the first transaction whose apparent state after has
    /// cost `0`. Returns `None` if a group never closes (the execution
    /// then has no grouping of this shape — e.g. requests with no
    /// compensating MOVE-UPs after them).
    pub fn discover<A: Application>(
        app: &A,
        exec: &Execution<A>,
        constraint: usize,
        is_preserving: impl Fn(&A::Decision) -> bool,
    ) -> Option<Grouping> {
        let _span = shard_obs::span!("grouping.discover");
        let mut ends = Vec::new();
        let mut open = false;
        for i in 0..exec.len() {
            let rec = exec.record(i);
            if !open && is_preserving(&rec.decision) {
                ends.push(i + 1);
                continue;
            }
            // A non-preserving transaction (or a continuing group).
            open = true;
            if app.cost(&exec.apparent_state_after(app, i), constraint) == 0 {
                ends.push(i + 1);
                open = false;
            }
        }
        if open {
            None
        } else {
            Some(Grouping { ends })
        }
    }

    /// The **normal states** of `exec` with respect to this grouping: the
    /// actual states reachable *after* each group (the initial state is
    /// normal too, matching the paper's induction basis).
    ///
    /// This clones one state per group; checkers that only *inspect*
    /// normal states should prefer the streaming
    /// [`Grouping::for_each_normal_state`].
    pub fn normal_states<A: Application>(
        &self,
        app: &A,
        exec: &Execution<A>,
    ) -> Vec<(Option<TxnIndex>, A::State)> {
        let mut out = Vec::with_capacity(self.len() + 1);
        self.for_each_normal_state(app, exec, |idx, s| out.push((idx, s.clone())));
        out
    }

    /// Streams the normal states through `f` in one forward pass over
    /// the execution — no intermediate `Vec<State>`. `f` receives
    /// `(None, s₀)` first, then `(Some(last index of group), state after
    /// the group)` for each group in order.
    pub fn for_each_normal_state<A: Application>(
        &self,
        app: &A,
        exec: &Execution<A>,
        mut f: impl FnMut(Option<TxnIndex>, &A::State),
    ) {
        let mut ends = self.ends.iter().peekable();
        exec.for_each_actual_state(app, |m, s| {
            if m == 0 {
                f(None, s);
            }
            while ends.next_if(|&&e| e == m).is_some() {
                f(Some(m - 1), s);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Cost, DecisionOutcome};
    use crate::execution::ExecutionBuilder;

    /// A debt counter: `Borrow` raises debt by 1 (never preserves the
    /// "no-debt" constraint); `Repay` clears all debt (preserves and
    /// compensates). Cost = debt.
    struct Debt;

    #[derive(Clone, Debug, PartialEq)]
    enum Act {
        Borrow,
        Repay,
    }

    impl Application for Debt {
        type State = u32;
        type Update = Act;
        type Decision = Act;
        fn initial_state(&self) -> u32 {
            0
        }
        fn is_well_formed(&self, _: &u32) -> bool {
            true
        }
        fn apply_in_place(&self, s: &mut u32, u: &Act) {
            match u {
                Act::Borrow => *s += 1,
                Act::Repay => *s = 0,
            }
        }
        fn decide(&self, d: &Act, _: &u32) -> DecisionOutcome<Act> {
            DecisionOutcome::update_only(d.clone())
        }
        fn constraint_count(&self) -> usize {
            1
        }
        fn constraint_name(&self, _: usize) -> &str {
            "no-debt"
        }
        fn cost(&self, s: &u32, _: usize) -> Cost {
            *s as Cost
        }
    }

    fn exec(seq: &[Act]) -> Execution<Debt> {
        let app = Debt;
        let mut b = ExecutionBuilder::new(&app);
        for d in seq {
            b.push_complete(d.clone()).unwrap();
        }
        b.finish()
    }

    fn preserving(d: &Act) -> bool {
        matches!(d, Act::Repay)
    }

    #[test]
    fn groups_iteration() {
        let g = Grouping::from_ends(vec![2, 3, 6]);
        let groups: Vec<_> = g.groups().collect();
        assert_eq!(groups, vec![0..2, 2..3, 3..6]);
        assert_eq!(g.covered(), 6);
        assert_eq!(g.len(), 3);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn non_increasing_ends_panic() {
        let _ = Grouping::from_ends(vec![2, 2]);
    }

    #[test]
    fn discover_closes_groups_at_repair_points() {
        // Borrow, Borrow, Repay | Repay | Borrow, Repay
        let e = exec(&[
            Act::Borrow,
            Act::Borrow,
            Act::Repay,
            Act::Repay,
            Act::Borrow,
            Act::Repay,
        ]);
        let g = Grouping::discover(&Debt, &e, 0, preserving).unwrap();
        assert_eq!(g.groups().collect::<Vec<_>>(), vec![0..3, 3..4, 4..6]);
        assert!(g.is_grouping_for(&Debt, &e, 0, preserving));
    }

    #[test]
    fn discover_fails_when_group_never_closes() {
        let e = exec(&[Act::Borrow, Act::Borrow]);
        assert_eq!(Grouping::discover(&Debt, &e, 0, preserving), None);
    }

    #[test]
    fn invalid_groupings_rejected() {
        let e = exec(&[Act::Borrow, Act::Repay]);
        // A singleton group around the Borrow violates both (a) and (b).
        let g = Grouping::from_ends(vec![1, 2]);
        assert!(!g.is_grouping_for(&Debt, &e, 0, preserving));
        // Wrong coverage.
        let g = Grouping::from_ends(vec![1]);
        assert!(!g.is_grouping_for(&Debt, &e, 0, preserving));
    }

    #[test]
    fn normal_states_are_post_group_states() {
        let e = exec(&[Act::Borrow, Act::Repay, Act::Borrow, Act::Repay]);
        let g = Grouping::discover(&Debt, &e, 0, preserving).unwrap();
        let normals = g.normal_states(&Debt, &e);
        // Initial state plus one per group, all with zero debt here.
        assert_eq!(normals.len(), 1 + g.len());
        assert!(normals.iter().all(|(_, s)| *s == 0));
        assert_eq!(normals[0].0, None);
        assert_eq!(normals[1].0, Some(1));
    }

    #[test]
    fn empty_execution_grouping() {
        let e = exec(&[]);
        let g = Grouping::discover(&Debt, &e, 0, preserving).unwrap();
        assert!(g.is_empty());
        assert!(g.is_grouping_for(&Debt, &e, 0, preserving));
        assert_eq!(g.normal_states(&Debt, &e).len(), 1);
    }
}
