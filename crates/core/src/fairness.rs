//! Fairness: competing entities, priority, and priority preservation
//! (§4.2).
//!
//! Resource-allocation applications have *entities* (people, customers)
//! competing for a resource. In each state, some entities are **known**
//! (currently competing) and a partial order on the known entities gives
//! their **priority**. The paper defines two transaction properties:
//!
//! * `T` **preserves priority** if running `T(s, s)` (observing the state
//!   it changes) never inverts the relative priority of two entities that
//!   stay known, and newly known entities rank below previously known
//!   ones;
//! * `T` **strongly preserves priority** if the same holds for
//!   `T(s, s′)` with *arbitrary* well-formed `s′` — the airline's
//!   REQUEST and CANCEL are strong, but MOVE-UP and MOVE-DOWN are not
//!   (the worked example in §4.2), which is precisely why the fairness
//!   theorems of §5.5 need centralization of the moving transactions.

use crate::app::Application;
use std::fmt::Debug;

/// Extends an [`Application`] with the competing-entity model of §4.2.
pub trait PriorityModel: Application {
    /// The competing entities (people, customers, …).
    type Entity: Clone + PartialEq + Debug;

    /// The entities known (currently competing) in `state`.
    fn known(&self, state: &Self::State) -> Vec<Self::Entity>;

    /// Whether `p` strictly precedes `q` in `state`'s priority order.
    /// Only meaningful when both are known in `state`.
    fn precedes(&self, state: &Self::State, p: &Self::Entity, q: &Self::Entity) -> bool;
}

/// One witness of a priority violation, for diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct PriorityViolation<S, E> {
    /// The state the decision part observed.
    pub observed: S,
    /// The state the update was applied to (equals `observed` for the
    /// weak property).
    pub acting: S,
    /// The pair whose relative priority was violated.
    pub pair: (E, E),
    /// What went wrong.
    pub kind: PriorityViolationKind,
}

/// The two clauses of the priority-preservation definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityViolationKind {
    /// Clause (a): both entities known before and after, but their order
    /// inverted (or the strict precedence was lost).
    Inverted,
    /// Clause (b): a newly known entity moved ahead of a previously known
    /// one.
    NewAheadOfOld,
}

/// Checks both clauses for a single `(observed, acting)` pair and a
/// transaction kind; returns the first violation if any.
fn check_pair<A: PriorityModel>(
    app: &A,
    decision: &A::Decision,
    observed: &A::State,
    acting: &A::State,
) -> Option<PriorityViolation<A::State, A::Entity>> {
    let after = app.run(decision, observed, acting);
    let before_known = app.known(acting);
    let after_known = app.known(&after);
    // Clause (a): known in acting state and still known after.
    for p in &before_known {
        for q in &before_known {
            if p == q || !app.precedes(acting, p, q) {
                continue;
            }
            let both_after = after_known.contains(p) && after_known.contains(q);
            if both_after && !app.precedes(&after, p, q) {
                return Some(PriorityViolation {
                    observed: observed.clone(),
                    acting: acting.clone(),
                    pair: (p.clone(), q.clone()),
                    kind: PriorityViolationKind::Inverted,
                });
            }
        }
    }
    // Clause (b): p known before, q not; both known after ⇒ p precedes q.
    for p in &before_known {
        if !after_known.contains(p) {
            continue;
        }
        for q in &after_known {
            if before_known.contains(q) || p == q {
                continue;
            }
            if !app.precedes(&after, p, q) {
                return Some(PriorityViolation {
                    observed: observed.clone(),
                    acting: acting.clone(),
                    pair: (p.clone(), q.clone()),
                    kind: PriorityViolationKind::NewAheadOfOld,
                });
            }
        }
    }
    None
}

/// Whether `decision` **preserves priority** over `states`:
/// for every well-formed `s`, running `T(s, s)` keeps relative priority
/// of surviving entities and ranks newcomers last.
pub fn preserves_priority<A: PriorityModel>(
    app: &A,
    decision: &A::Decision,
    states: &[A::State],
) -> bool {
    priority_violation(app, decision, states).is_none()
}

/// First violation of the weak property, if any.
pub fn priority_violation<A: PriorityModel>(
    app: &A,
    decision: &A::Decision,
    states: &[A::State],
) -> Option<PriorityViolation<A::State, A::Entity>> {
    states
        .iter()
        .filter(|s| app.is_well_formed(s))
        .find_map(|s| check_pair(app, decision, s, s))
}

/// Whether `decision` **strongly preserves priority** over `states`:
/// for all well-formed `s` (observed) and `s′` (acting), `T(s, s′)`
/// keeps relative priority. Quadratic in `states.len()`.
pub fn strongly_preserves_priority<A: PriorityModel>(
    app: &A,
    decision: &A::Decision,
    states: &[A::State],
) -> bool {
    strong_priority_violation(app, decision, states).is_none()
}

/// First violation of the strong property, if any.
pub fn strong_priority_violation<A: PriorityModel>(
    app: &A,
    decision: &A::Decision,
    states: &[A::State],
) -> Option<PriorityViolation<A::State, A::Entity>> {
    let well_formed = || states.iter().filter(|s| app.is_well_formed(s));
    well_formed().find_map(|observed| {
        well_formed().find_map(|acting| check_pair(app, decision, observed, acting))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Cost, DecisionOutcome};

    /// A one-slot queue world: state is an ordered list of entities.
    /// `Join(e)` appends `e` if absent; `Promote(e)` moves `e` to the
    /// front (violates priority); `Leave(e)` removes `e`.
    #[derive(Clone, Debug, PartialEq)]
    struct Q(Vec<u8>);

    #[derive(Clone, Debug, PartialEq)]
    enum QOp {
        Join(u8),
        Promote(u8),
        Leave(u8),
    }

    struct Queue;

    impl Application for Queue {
        type State = Q;
        type Update = QOp;
        type Decision = QOp;
        fn initial_state(&self) -> Q {
            Q(Vec::new())
        }
        fn is_well_formed(&self, s: &Q) -> bool {
            let mut v = s.0.clone();
            v.sort_unstable();
            v.dedup();
            v.len() == s.0.len()
        }
        fn apply_in_place(&self, s: &mut Q, u: &QOp) {
            let v = &mut s.0;
            match u {
                QOp::Join(e) => {
                    if !v.contains(e) {
                        v.push(*e);
                    }
                }
                QOp::Promote(e) => {
                    if let Some(pos) = v.iter().position(|x| x == e) {
                        v.remove(pos);
                        v.insert(0, *e);
                    }
                }
                QOp::Leave(e) => v.retain(|x| x != e),
            }
        }
        fn decide(&self, d: &QOp, _: &Q) -> DecisionOutcome<QOp> {
            DecisionOutcome::update_only(d.clone())
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &Q, _: usize) -> Cost {
            0
        }
    }

    impl PriorityModel for Queue {
        type Entity = u8;
        fn known(&self, s: &Q) -> Vec<u8> {
            s.0.clone()
        }
        fn precedes(&self, s: &Q, p: &u8, q: &u8) -> bool {
            match (
                s.0.iter().position(|x| x == p),
                s.0.iter().position(|x| x == q),
            ) {
                (Some(a), Some(b)) => a < b,
                _ => false,
            }
        }
    }

    fn space() -> Vec<Q> {
        // All permutations of subsets of {1,2,3} up to length 3.
        let mut out = vec![Q(vec![])];
        for a in 1..=3u8 {
            out.push(Q(vec![a]));
            for b in 1..=3u8 {
                if b != a {
                    out.push(Q(vec![a, b]));
                    for c in 1..=3u8 {
                        if c != a && c != b {
                            out.push(Q(vec![a, b, c]));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn join_preserves_priority_weak_and_strong() {
        let app = Queue;
        assert!(preserves_priority(&app, &QOp::Join(2), &space()));
        assert!(strongly_preserves_priority(&app, &QOp::Join(2), &space()));
    }

    #[test]
    fn leave_preserves_priority() {
        let app = Queue;
        assert!(preserves_priority(&app, &QOp::Leave(1), &space()));
        assert!(strongly_preserves_priority(&app, &QOp::Leave(1), &space()));
    }

    #[test]
    fn promote_violates_priority() {
        let app = Queue;
        let v = priority_violation(&app, &QOp::Promote(2), &space()).unwrap();
        assert_eq!(v.kind, PriorityViolationKind::Inverted);
        assert!(!strongly_preserves_priority(
            &app,
            &QOp::Promote(2),
            &space()
        ));
    }

    #[test]
    fn violation_reports_the_inverted_pair() {
        let app = Queue;
        let v = strong_priority_violation(&app, &QOp::Promote(2), &space()).unwrap();
        // Some entity was overtaken by 2.
        assert_eq!(v.pair.1, 2);
    }

    /// A transaction that appends a *new* entity at the front violates
    /// clause (b): newcomers must rank below previously known entities.
    #[test]
    fn newcomer_ahead_violates_clause_b() {
        struct PushFront;
        impl Application for PushFront {
            type State = Q;
            type Update = QOp;
            type Decision = ();
            fn initial_state(&self) -> Q {
                Q(vec![])
            }
            fn is_well_formed(&self, s: &Q) -> bool {
                Queue.is_well_formed(s)
            }
            fn apply_in_place(&self, s: &mut Q, u: &QOp) {
                if let QOp::Join(e) = u {
                    if !s.0.contains(e) {
                        s.0.insert(0, *e);
                    }
                }
            }
            fn decide(&self, _: &(), _: &Q) -> DecisionOutcome<QOp> {
                DecisionOutcome::update_only(QOp::Join(9))
            }
            fn constraint_count(&self) -> usize {
                0
            }
            fn constraint_name(&self, _: usize) -> &str {
                unreachable!()
            }
            fn cost(&self, _: &Q, _: usize) -> Cost {
                0
            }
        }
        impl PriorityModel for PushFront {
            type Entity = u8;
            fn known(&self, s: &Q) -> Vec<u8> {
                Queue.known(s)
            }
            fn precedes(&self, s: &Q, p: &u8, q: &u8) -> bool {
                Queue.precedes(s, p, q)
            }
        }
        let app = PushFront;
        let sp = vec![Q(vec![1])];
        let v = priority_violation(&app, &(), &sp).unwrap();
        assert_eq!(v.kind, PriorityViolationKind::NewAheadOfOld);
        assert_eq!(v.pair, (1, 9));
    }
}
