//! Mechanical checkers for the paper's conditional theorems.
//!
//! Each checker takes a concrete execution, *measures* the hypothesis
//! parameters (the relevant `k` is taken from the execution itself, so
//! the hypotheses hold by construction), and then verifies the
//! conclusion, reporting every violation. A sound theorem therefore
//! yields zero violations on every execution — which is exactly what the
//! experiment harness demonstrates over randomized simulator runs.

use crate::completeness::max_missed_where;
use shard_core::conditions::missed_count;
use shard_core::costs::BoundFn;
use shard_core::{Application, Cost, Execution, Grouping};

/// The result of checking one claim on one execution.
#[derive(Clone, Debug)]
pub struct ClaimCheck {
    /// Which claim was checked.
    pub name: String,
    /// How many instances (transactions / states) the conclusion was
    /// evaluated on.
    pub instances: usize,
    /// Human-readable description of each violation (empty for a pass).
    pub violations: Vec<String>,
}

impl ClaimCheck {
    /// Whether the claim held on every instance.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// Convenience constructor.
    pub fn new(name: impl Into<String>) -> Self {
        ClaimCheck {
            name: name.into(),
            instances: 0,
            violations: Vec::new(),
        }
    }

    /// Records one checked instance, with an optional violation message.
    pub fn record(&mut self, violation: Option<String>) {
        self.instances += 1;
        if let Some(v) = violation {
            self.violations.push(v);
        }
    }
}

impl std::fmt::Display for ClaimCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.holds() {
            write!(f, "{}: HOLDS ({} instances)", self.name, self.instances)
        } else {
            write!(
                f,
                "{}: {} VIOLATIONS / {} instances (first: {})",
                self.name,
                self.violations.len(),
                self.instances,
                self.violations[0]
            )
        }
    }
}

/// **Theorem 5.** For each transaction `T` whose kind preserves the cost
/// of `constraint` (per `is_preserving`), with `s`/`s′` the actual states
/// around `T` and `k` its measured missed count:
/// `cost(s′) ≤ cost(s)` or `cost(s′) ≤ f(k)`.
pub fn check_theorem5<A: Application>(
    app: &A,
    exec: &Execution<A>,
    constraint: usize,
    f: &BoundFn,
    mut is_preserving: impl FnMut(&A::Decision) -> bool,
) -> ClaimCheck {
    let _span = shard_obs::span!("claims.check_theorem5");
    let mut check = ClaimCheck::new(format!(
        "Theorem 5 [{} / f={}]",
        app.constraint_name(constraint),
        f
    ));
    // One streaming pass: the cost of sᵢ is remembered from the previous
    // callback, so no Vec of all reachable states is materialized.
    let mut before = 0;
    exec.for_each_actual_state(app, |m, s| {
        let after = app.cost(s, constraint);
        if m > 0 {
            let i = m - 1;
            if is_preserving(&exec.record(i).decision) {
                let k = missed_count(exec, i);
                let ok = after <= before || after <= f.at(k);
                check.record((!ok).then(|| {
                    format!(
                        "txn {i}: cost {before} -> {after}, k={k}, bound {}",
                        f.at(k)
                    )
                }));
            }
        }
        before = after;
    });
    check
}

/// **Theorem 7 / Corollary 8.** When every transaction preserves the
/// cost of `constraint` (the caller asserts this of the application) and
/// the unsafe transactions are k-complete, every reachable state has
/// cost ≤ `f(k)`. The `k` is *measured*: the largest missed count over
/// transactions selected by `is_unsafe`. Returns `(k, check)`.
pub fn check_invariant_bound<A: Application>(
    app: &A,
    exec: &Execution<A>,
    constraint: usize,
    f: &BoundFn,
    mut is_unsafe: impl FnMut(&A::Decision) -> bool,
) -> (usize, ClaimCheck) {
    let _span = shard_obs::span!("claims.check_invariant_bound");
    let k = max_missed_where(exec, |_, d| is_unsafe(d));
    let bound = f.at(k);
    let mut check = ClaimCheck::new(format!(
        "Corollary 8 invariant [{} ≤ {}]",
        app.constraint_name(constraint),
        f
    ));
    exec.for_each_actual_state(app, |i, s| {
        let c = app.cost(s, constraint);
        check.record((c > bound).then(|| format!("k={k}: state {i}: cost {c} > bound {bound}")));
    });
    (k, check)
}

/// **Theorem 9 / Corollary 10.** Under a grouping for `constraint`, the
/// *normal* states (after each group) have cost ≤ `f(k)` where `k` is
/// the measured missed count over the cost-preserving transactions and
/// the group-end transactions. Returns `None` when no grouping of the
/// greedy shape exists (then the theorem's hypothesis is unmet);
/// otherwise `(k, check)`.
pub fn check_grouped_bound<A: Application>(
    app: &A,
    exec: &Execution<A>,
    constraint: usize,
    f: &BoundFn,
    is_preserving: impl Fn(&A::Decision) -> bool,
) -> Option<(usize, ClaimCheck)> {
    let _span = shard_obs::span!("claims.check_grouped_bound");
    let grouping = Grouping::discover(app, exec, constraint, &is_preserving)?;
    let group_ends: Vec<usize> = grouping.groups().map(|g| g.end - 1).collect();
    let k = max_missed_where(exec, |i, d| {
        is_preserving(d) || group_ends.binary_search(&i).is_ok()
    });
    let bound = f.at(k);
    let mut check = ClaimCheck::new(format!(
        "Corollary 10 normal-state bound [{} ≤ {}]",
        app.constraint_name(constraint),
        f
    ));
    grouping.for_each_normal_state(app, exec, |after, state| {
        let c = app.cost(state, constraint);
        check.record(
            (c > bound).then(|| format!("k={k}: normal state after {after:?}: {c} > {bound}")),
        );
    });
    Some((k, check))
}

/// **Corollary 11.** Combines the invariant overbooking-style bound with
/// the grouped bound: at normal states the *total* cost is ≤ `f(k)`,
/// using the same measured `k` as [`check_grouped_bound`] joined with the
/// unsafe-transaction `k` of the invariant constraint. The caller passes
/// the two constraint indices and the dominating bound function.
pub fn check_total_bound_at_normal_states<A: Application>(
    app: &A,
    exec: &Execution<A>,
    grouping_constraint: usize,
    f: &BoundFn,
    is_preserving: impl Fn(&A::Decision) -> bool,
    mut is_unsafe_any: impl FnMut(&A::Decision) -> bool,
) -> Option<(usize, ClaimCheck)> {
    let _span = shard_obs::span!("claims.check_total_bound_at_normal_states");
    let grouping = Grouping::discover(app, exec, grouping_constraint, &is_preserving)?;
    let group_ends: Vec<usize> = grouping.groups().map(|g| g.end - 1).collect();
    let k = max_missed_where(exec, |i, d| {
        is_preserving(d) || group_ends.binary_search(&i).is_ok() || is_unsafe_any(d)
    });
    let bound = f.at(k);
    let mut check = ClaimCheck::new(format!("Corollary 11 total cost at normal states ≤ {}", f));
    grouping.for_each_normal_state(app, exec, |after, state| {
        let c: Cost = app.total_cost(state);
        check.record(
            (c > bound)
                .then(|| format!("k={k}: normal state after {after:?}: total {c} > {bound}")),
        );
    });
    Some((k, check))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
    use shard_apps::Person;
    use shard_core::ExecutionBuilder;

    /// 1-seat plane, two blind MOVE-UPs: k=1 for the second mover.
    fn blind_overbooking() -> (FlyByNight, Execution<FlyByNight>) {
        let app = FlyByNight::new(1);
        let mut b = ExecutionBuilder::new(&app);
        let r1 = b.push_complete(AirlineTxn::Request(Person(1))).unwrap();
        let r2 = b.push_complete(AirlineTxn::Request(Person(2))).unwrap();
        // Each MOVE-UP sees only "its" request (k = 1 and 2): they pick
        // different people and the 1-seat plane ends up with two.
        b.push(AirlineTxn::MoveUp, vec![r1]).unwrap();
        b.push(AirlineTxn::MoveUp, vec![r2]).unwrap();
        let e = b.finish();
        (app, e)
    }

    #[test]
    fn theorem5_holds_on_blind_overbooking() {
        let (app, e) = blind_overbooking();
        let f = BoundFn::linear(900);
        let check = check_theorem5(&app, &e, OVERBOOKING, &f, |_| true);
        assert!(check.holds(), "{check}");
        assert_eq!(check.instances, 4);
    }

    #[test]
    fn corollary8_invariant_bound_measured_k() {
        let (app, e) = blind_overbooking();
        let f = BoundFn::linear(900);
        let (k, check) = check_invariant_bound(&app, &e, OVERBOOKING, &f, |d| {
            !app.is_statically_safe(d, OVERBOOKING)
        });
        // The second MOVE-UP misses two predecessors (REQUEST(P1) and
        // the first MOVE-UP).
        assert_eq!(k, 2);
        assert!(check.holds(), "{check}");
    }

    #[test]
    fn corollary8_detects_a_false_bound() {
        // Sanity: with a bound function that is too small, the checker
        // must report violations (it is not vacuous).
        let (app, e) = blind_overbooking();
        let f = BoundFn::linear(1); // absurd: $1 per missed txn
        let (_, check) = check_invariant_bound(&app, &e, OVERBOOKING, &f, |d| {
            !app.is_statically_safe(d, OVERBOOKING)
        });
        assert!(!check.holds());
        assert!(check.to_string().contains("VIOLATIONS"));
    }

    #[test]
    fn grouped_bound_for_underbooking() {
        let app = FlyByNight::new(1);
        let mut b = ExecutionBuilder::new(&app);
        // Request | MoveUp (closes group), Request | MoveUp…
        for i in 1..=2 {
            b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
            b.push_complete(AirlineTxn::MoveUp).unwrap();
        }
        let e = b.finish();
        let f = BoundFn::linear(300);
        let result = check_grouped_bound(&app, &e, UNDERBOOKING, &f, |d| {
            app.preserves(d, UNDERBOOKING)
        });
        let (k, check) = result.expect("grouping exists");
        assert_eq!(k, 0);
        assert!(check.holds(), "{check}");
    }

    #[test]
    fn grouped_bound_absent_without_compensation() {
        // Requests with no MOVE-UPs: the greedy grouping never closes.
        let app = FlyByNight::new(1);
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(AirlineTxn::Request(Person(1))).unwrap();
        let e = b.finish();
        let f = BoundFn::linear(300);
        let preserving = |d: &AirlineTxn| app.preserves(d, UNDERBOOKING);
        assert!(check_grouped_bound(&app, &e, UNDERBOOKING, &f, preserving).is_none());
    }

    #[test]
    fn total_bound_at_normal_states() {
        let app = FlyByNight::new(1);
        let mut b = ExecutionBuilder::new(&app);
        for i in 1..=3 {
            b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
            b.push_complete(AirlineTxn::MoveUp).unwrap();
        }
        let e = b.finish();
        let f = BoundFn::linear(900);
        let (k, check) = check_total_bound_at_normal_states(
            &app,
            &e,
            UNDERBOOKING,
            &f,
            |d| app.preserves(d, UNDERBOOKING),
            |d| !app.is_statically_safe(d, OVERBOOKING),
        )
        .expect("grouping exists");
        assert_eq!(k, 0);
        assert!(check.holds(), "{check}");
    }

    #[test]
    fn claim_check_display() {
        let mut c = ClaimCheck::new("demo");
        c.record(None);
        assert!(c.to_string().contains("HOLDS"));
        c.record(Some("boom".into()));
        assert!(c.to_string().contains("boom"));
        assert!(!c.holds());
        assert_eq!(c.instances, 2);
    }
}
