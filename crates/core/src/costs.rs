//! Conditions guaranteed by the transactions (§4.1): cost behaviour of
//! updates and transactions, and the information order `s ≤ₖ t`.
//!
//! The paper analyses the *update parts* of transactions to determine
//! whether they can increase the cost of an integrity constraint:
//!
//! * an update `A` is **increasing** for constraint `i` if some
//!   well-formed `s` has `cost(A(s), i) > cost(s, i)`; otherwise it is
//!   **non-increasing**;
//! * a transaction `T` is **safe** for `i` if every update its decision
//!   part can choose (from a well-formed state) is non-increasing;
//! * `T` **preserves the cost** of `i` if whenever its decision (run from
//!   well-formed `s`) picks an increasing update `A`, the state the
//!   transaction *believes* will result satisfies `cost(A(s), i) = 0` —
//!   "T does not increase the cost on purpose";
//! * `T` **compensates** for `i` if from any well-formed `s` with
//!   `cost(s, i) > 0`, running `T(s, s)` strictly decreases the cost
//!   (Lemma 1: with integral costs, iterating `T` drives the cost to 0);
//! * a function `f` **bounds the cost increase** for `i` if `s ≤ₖ t`
//!   implies `cost(s, i) ≤ cost(t, i) + f(k)`, where `s ≤ₖ t` means `t`
//!   is the result of a subsequence of `s`'s update sequence missing at
//!   most `k` updates.
//!
//! These properties quantify over all well-formed states, which is
//! undecidable for a black-box [`Application`]; the checkers here are
//! exact over a caller-supplied slice of states (applications provide
//! exhaustive enumerations of a scaled-down instance, e.g. an airline
//! with 3 seats and 4 people).

use crate::app::{Application, Cost};
use crate::execution::{Execution, TxnIndex};
use std::fmt;

/// Truncated subtraction `X ∸ Y = max(X − Y, 0)` — the paper's `X /. Y`,
/// used throughout the airline cost functions.
///
/// ```
/// assert_eq!(shard_core::monus(7, 3), 4);
/// assert_eq!(shard_core::monus(3, 7), 0);
/// ```
pub fn monus(x: u64, y: u64) -> u64 {
    x.saturating_sub(y)
}

/// A cost-increase bound function `f(k)` (§4.1). The airline bounds are
/// linear (`900·k` for overbooking, `300·k` for underbooking), but `f`
/// may be arbitrary.
///
/// # Examples
///
/// ```
/// use shard_core::costs::BoundFn;
/// let f = BoundFn::linear(900);
/// assert_eq!(f.at(3), 2700);
/// assert_eq!(f.description(), "900·k");
/// ```
pub struct BoundFn {
    f: Box<dyn Fn(usize) -> Cost + Send + Sync>,
    describe: String,
}

impl BoundFn {
    /// The linear bound `f(k) = slope · k`.
    pub fn linear(slope: Cost) -> Self {
        BoundFn {
            f: Box::new(move |k| slope * k as Cost),
            describe: format!("{slope}·k"),
        }
    }

    /// An arbitrary bound function with a description for reports.
    pub fn new(
        describe: impl Into<String>,
        f: impl Fn(usize) -> Cost + Send + Sync + 'static,
    ) -> Self {
        BoundFn {
            f: Box::new(f),
            describe: describe.into(),
        }
    }

    /// Evaluates `f(k)`.
    pub fn at(&self, k: usize) -> Cost {
        (self.f)(k)
    }

    /// The human-readable description, e.g. `"900·k"`.
    pub fn description(&self) -> &str {
        &self.describe
    }
}

impl fmt::Debug for BoundFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundFn")
            .field("f", &self.describe)
            .finish()
    }
}

/// Whether update `u` is **increasing** for `constraint` over
/// `states`: some well-formed state's cost strictly rises under `u`.
pub fn is_increasing_for<A: Application>(
    app: &A,
    u: &A::Update,
    constraint: usize,
    states: &[A::State],
) -> bool {
    states.iter().any(|s| {
        app.is_well_formed(s) && app.cost(&app.apply(s, u), constraint) > app.cost(s, constraint)
    })
}

/// Whether transaction `decision` is **safe** for `constraint` over
/// `states`: from every well-formed state, the update it invokes is
/// non-increasing for the constraint.
pub fn is_safe_for<A: Application>(
    app: &A,
    decision: &A::Decision,
    constraint: usize,
    states: &[A::State],
) -> bool {
    states.iter().all(|s| {
        if !app.is_well_formed(s) {
            return true;
        }
        let u = app.decide(decision, s).update;
        !is_increasing_for(app, &u, constraint, states)
    })
}

/// Whether transaction `decision` **preserves the cost** of `constraint`
/// over `states` (§4.1): if from well-formed `s` it invokes an
/// update `A` that is increasing for the constraint, then
/// `cost(A(s), constraint) = 0` — the transaction believes the post-state
/// satisfies the constraint.
pub fn preserves_cost<A: Application>(
    app: &A,
    decision: &A::Decision,
    constraint: usize,
    states: &[A::State],
) -> bool {
    states.iter().all(|s| {
        if !app.is_well_formed(s) {
            return true;
        }
        let u = app.decide(decision, s).update;
        if is_increasing_for(app, &u, constraint, states) {
            app.cost(&app.apply(s, &u), constraint) == 0
        } else {
            true
        }
    })
}

/// Whether transaction `decision` **compensates** for `constraint` over
/// `states`: from every well-formed `s` with positive cost,
/// `T(s, s)` strictly decreases the cost.
pub fn compensates_for<A: Application>(
    app: &A,
    decision: &A::Decision,
    constraint: usize,
    states: &[A::State],
) -> bool {
    states.iter().all(|s| {
        if !(app.is_well_formed(s) && app.cost(s, constraint) > 0) {
            return true;
        }
        let after = app.run(decision, s, s);
        app.cost(&after, constraint) < app.cost(s, constraint)
    })
}

/// Whether every update a transaction can invoke (over `states`)
/// preserves well-formedness — the baseline requirement the paper places
/// on all updates (§2.3).
pub fn updates_preserve_well_formedness<A: Application>(
    app: &A,
    decision: &A::Decision,
    states: &[A::State],
) -> bool {
    states.iter().all(|observed| {
        if !app.is_well_formed(observed) {
            return true;
        }
        let u = app.decide(decision, observed).update;
        states
            .iter()
            .all(|acting| !app.is_well_formed(acting) || app.is_well_formed(&app.apply(acting, &u)))
    })
}

/// Lemma 1: iterate a compensating transaction from `start` (running each
/// iteration from the state it just produced, i.e. atomically) until the
/// cost of `constraint` reaches 0. Returns the number of iterations
/// needed, or `None` if the cost is still positive after `max_steps`.
pub fn compensation_steps<A: Application>(
    app: &A,
    decision: &A::Decision,
    constraint: usize,
    start: &A::State,
    max_steps: usize,
) -> Option<usize> {
    let mut s = start.clone();
    for step in 0..=max_steps {
        if app.cost(&s, constraint) == 0 {
            return Some(step);
        }
        if step == max_steps {
            break;
        }
        s = app.run(decision, &s, &s);
    }
    None
}

/// The classification of one transaction against one constraint —
/// the taxonomy of §4.1 (used by experiment E14).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnClassification {
    /// `true` if every update the transaction can invoke is
    /// non-increasing for the constraint.
    pub safe: bool,
    /// `true` if the transaction preserves the cost of the constraint.
    pub preserves: bool,
    /// `true` if the transaction compensates for the constraint.
    pub compensates: bool,
}

/// Classifies `decision` against `constraint` over `states`.
pub fn classify_transaction<A: Application>(
    app: &A,
    decision: &A::Decision,
    constraint: usize,
    states: &[A::State],
) -> TxnClassification {
    TxnClassification {
        safe: is_safe_for(app, decision, constraint, states),
        preserves: preserves_cost(app, decision, constraint, states),
        compensates: compensates_for(app, decision, constraint, states),
    }
}

/// Checks one instance of the bound property: `s` is the result of the
/// full update sequence `seq`, `t` the result of the subsequence keeping
/// the (strictly increasing) indices `kept`; verifies
/// `cost(s, constraint) ≤ cost(t, constraint) + f(k)` with
/// `k = seq.len() − kept.len()`.
///
/// # Panics
///
/// Panics if `kept` contains an index `≥ seq.len()`.
pub fn check_bound_instance<A: Application>(
    app: &A,
    f: &BoundFn,
    constraint: usize,
    seq: &[A::Update],
    kept: &[usize],
) -> bool {
    let mut s = app.initial_state();
    for u in seq {
        app.apply_in_place(&mut s, u);
    }
    let mut t = app.initial_state();
    for &i in kept {
        app.apply_in_place(&mut t, &seq[i]);
    }
    let k = seq.len() - kept.len();
    app.cost(&s, constraint) <= app.cost(&t, constraint) + f.at(k)
}

/// Enumerates every subsequence of `0..n` that omits at most `max_missing`
/// indices, invoking `visit` with the kept indices. Exponential in
/// `max_missing` (`Σ_{j≤k} C(n, j)` subsequences) — intended for the
/// exhaustive small-instance checks.
pub fn for_each_subsequence_missing_at_most(
    n: usize,
    max_missing: usize,
    mut visit: impl FnMut(&[usize]),
) {
    // Choose the set of *missing* indices of each size 0..=max_missing.
    let mut missing: Vec<usize> = Vec::new();
    subsequences_go(n, 0, max_missing, &mut missing, &mut visit);
}

/// The recursion behind [`for_each_subsequence_missing_at_most`]: emits
/// the kept set for the current missing set, then extends the missing
/// set with each index in `start..n` while budget remains. Enumeration
/// order is depth-first on the smallest still-addable missing index.
fn subsequences_go(
    n: usize,
    start: usize,
    remaining: usize,
    missing: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    let kept: Vec<usize> = (0..n).filter(|i| !missing.contains(i)).collect();
    visit(&kept);
    if remaining == 0 {
        return;
    }
    for i in start..n {
        missing.push(i);
        subsequences_go(n, i + 1, remaining - 1, missing, visit);
        missing.pop();
    }
}

/// The relation `s ≤ₖ t` realized over an execution: `t` is the state
/// reached by keeping only `kept` (strictly increasing indices into the
/// execution) and `s` the full final state; returns the `k` for which the
/// pair is related, i.e. the number of omitted updates.
pub fn missing_between<A: Application>(exec: &Execution<A>, kept: &[TxnIndex]) -> usize {
    exec.len() - kept.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::DecisionOutcome;

    /// A bank account with one constraint: balance ≥ 0. `Withdraw` is
    /// invoked only when the decision saw enough money; `Deposit` always.
    /// `Sweep` zeroes a negative balance (compensating).
    struct Account;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Deposit(i64),
        Withdraw(i64),
        Sweep,
        Noop,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Txn {
        Deposit(i64),
        Withdraw(i64),
        Sweep,
    }

    impl Application for Account {
        type State = i64;
        type Update = Op;
        type Decision = Txn;
        fn initial_state(&self) -> i64 {
            0
        }
        fn is_well_formed(&self, s: &i64) -> bool {
            *s > -1000 && *s < 1000
        }
        fn apply_in_place(&self, s: &mut i64, u: &Op) {
            match u {
                Op::Deposit(a) => *s += a,
                Op::Withdraw(a) => *s -= a,
                Op::Sweep => *s = (*s).max(0),
                Op::Noop => {}
            }
        }
        fn decide(&self, d: &Txn, observed: &i64) -> DecisionOutcome<Op> {
            match d {
                Txn::Deposit(a) => DecisionOutcome::update_only(Op::Deposit(*a)),
                Txn::Withdraw(a) if observed >= a => DecisionOutcome::update_only(Op::Withdraw(*a)),
                Txn::Withdraw(_) => DecisionOutcome::update_only(Op::Noop),
                Txn::Sweep => DecisionOutcome::update_only(Op::Sweep),
            }
        }
        fn constraint_count(&self) -> usize {
            1
        }
        fn constraint_name(&self, _: usize) -> &str {
            "no-overdraft"
        }
        fn cost(&self, s: &i64, _: usize) -> Cost {
            (-*s).max(0) as Cost
        }
    }

    fn space() -> Vec<i64> {
        (-20..=20).collect()
    }

    #[test]
    fn monus_truncates() {
        assert_eq!(monus(5, 2), 3);
        assert_eq!(monus(2, 5), 0);
        assert_eq!(monus(0, 0), 0);
    }

    #[test]
    fn bound_fn_linear_and_custom() {
        let f = BoundFn::linear(900);
        assert_eq!(f.at(0), 0);
        assert_eq!(f.at(3), 2700);
        assert_eq!(f.description(), "900·k");
        let g = BoundFn::new("k²", |k| (k * k) as Cost);
        assert_eq!(g.at(4), 16);
        assert!(format!("{g:?}").contains("k²"));
    }

    #[test]
    fn withdraw_update_is_increasing_deposit_is_not() {
        let app = Account;
        assert!(is_increasing_for(&app, &Op::Withdraw(5), 0, &space()));
        assert!(!is_increasing_for(&app, &Op::Deposit(5), 0, &space()));
        assert!(!is_increasing_for(&app, &Op::Sweep, 0, &space()));
        assert!(!is_increasing_for(&app, &Op::Noop, 0, &space()));
    }

    #[test]
    fn deposit_is_safe_withdraw_is_unsafe() {
        let app = Account;
        assert!(is_safe_for(&app, &Txn::Deposit(5), 0, &space()));
        assert!(!is_safe_for(&app, &Txn::Withdraw(5), 0, &space()));
        assert!(is_safe_for(&app, &Txn::Sweep, 0, &space()));
    }

    #[test]
    fn withdraw_preserves_cost() {
        // The decision only withdraws when it saw sufficient funds, so the
        // believed post-state has cost 0 — exactly the paper's property.
        let app = Account;
        assert!(preserves_cost(&app, &Txn::Withdraw(5), 0, &space()));
        assert!(preserves_cost(&app, &Txn::Deposit(5), 0, &space()));
    }

    #[test]
    fn overdrawing_withdraw_does_not_preserve() {
        // A variant that withdraws unconditionally violates preservation.
        struct Reckless;
        impl Application for Reckless {
            type State = i64;
            type Update = Op;
            type Decision = Txn;
            fn initial_state(&self) -> i64 {
                0
            }
            fn is_well_formed(&self, s: &i64) -> bool {
                *s > -1000 && *s < 1000
            }
            fn apply_in_place(&self, s: &mut i64, u: &Op) {
                Account.apply_in_place(s, u)
            }
            fn decide(&self, d: &Txn, _: &i64) -> DecisionOutcome<Op> {
                match d {
                    Txn::Withdraw(a) => DecisionOutcome::update_only(Op::Withdraw(*a)),
                    Txn::Deposit(a) => DecisionOutcome::update_only(Op::Deposit(*a)),
                    Txn::Sweep => DecisionOutcome::update_only(Op::Sweep),
                }
            }
            fn constraint_count(&self) -> usize {
                1
            }
            fn constraint_name(&self, _: usize) -> &str {
                "no-overdraft"
            }
            fn cost(&self, s: &i64, c: usize) -> Cost {
                Account.cost(s, c)
            }
        }
        assert!(!preserves_cost(&Reckless, &Txn::Withdraw(5), 0, &space()));
    }

    #[test]
    fn sweep_compensates() {
        let app = Account;
        assert!(compensates_for(&app, &Txn::Sweep, 0, &space()));
        assert!(!compensates_for(&app, &Txn::Withdraw(1), 0, &space()));
    }

    #[test]
    fn lemma1_iteration_converges() {
        let app = Account;
        assert_eq!(compensation_steps(&app, &Txn::Sweep, 0, &-7, 10), Some(1));
        assert_eq!(compensation_steps(&app, &Txn::Sweep, 0, &3, 10), Some(0));
        // A non-compensating transaction never converges from debt.
        assert_eq!(compensation_steps(&app, &Txn::Deposit(0), 0, &-7, 5), None);
    }

    #[test]
    fn classification_bundle() {
        let app = Account;
        let c = classify_transaction(&app, &Txn::Sweep, 0, &space());
        assert!(c.safe && c.preserves && c.compensates);
        let c = classify_transaction(&app, &Txn::Withdraw(2), 0, &space());
        assert!(!c.safe && c.preserves && !c.compensates);
    }

    #[test]
    fn updates_preserve_wf() {
        let app = Account;
        let small: Vec<i64> = (-5..=5).collect();
        assert!(updates_preserve_well_formedness(
            &app,
            &Txn::Deposit(3),
            &small
        ));
        assert!(updates_preserve_well_formedness(
            &app,
            &Txn::Withdraw(3),
            &small
        ));
    }

    #[test]
    fn bound_instance_holds_for_unit_slope() {
        let app = Account;
        // Sequence: two deposits of 1, one withdraw of 2 (decision-time
        // withdraw is recorded as an update directly here).
        let seq = vec![Op::Deposit(1), Op::Deposit(1), Op::Withdraw(2)];
        let f = BoundFn::linear(2);
        // Missing the two deposits (k = 2): s = -0? s = 0, t = -2 … check
        // the inequality cost(s) ≤ cost(t) + f(k) in all enumerations.
        for_each_subsequence_missing_at_most(seq.len(), 2, |kept| {
            assert!(check_bound_instance(&app, &f, 0, &seq, kept));
        });
    }

    #[test]
    fn subsequence_enumeration_counts() {
        let mut count = 0;
        for_each_subsequence_missing_at_most(4, 2, |_| count += 1);
        // C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6.
        assert_eq!(count, 11);

        let mut kept_sets = Vec::new();
        for_each_subsequence_missing_at_most(2, 2, |kept| kept_sets.push(kept.to_vec()));
        assert!(kept_sets.contains(&vec![]));
        assert!(kept_sets.contains(&vec![0, 1]));
        assert!(kept_sets.contains(&vec![0]));
        assert!(kept_sets.contains(&vec![1]));
    }
}
