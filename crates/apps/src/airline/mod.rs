//! The Fly-by-Night airline reservation system (§2, §5).
//!
//! Fly-by-Night Airlines has exactly one scheduled flight with
//! `capacity` seats (100 in the paper). The database holds an ordered
//! `ASSIGNED-LIST` and an ordered `WAIT-LIST`. Four transactions are
//! defined (§2.3):
//!
//! * `REQUEST(P)` — puts `P` at the end of the wait list (if unknown);
//! * `CANCEL(P)` — removes `P` from whichever list it is on;
//! * `MOVE-UP` — if the decision sees a free seat and a waiter, informs
//!   the *first* waiter `P` that they are assigned (external action) and
//!   invokes `move-up(P)`;
//! * `MOVE-DOWN` — if the decision sees the flight overbooked, informs
//!   the *last* assigned person `P` that they are waitlisted and invokes
//!   `move-down(P)`.
//!
//! Two integrity constraints (§2.2):
//!
//! * **no overbooking** (`AL ≤ capacity`), violation cost
//!   `900 · (AL ∸ capacity)` — a first-class ticket plus a week in the
//!   Caribbean per bumped passenger;
//! * **no unnecessary underbooking** (`AL ≥ capacity` or `WL = 0`),
//!   violation cost `300 · min(capacity ∸ AL, WL)` — missed profit.

pub mod lemmas;
pub mod space;
mod state;
pub mod witness;
pub mod workload;

pub use state::AirlineState;

use crate::person::Person;
use shard_core::{monus, Application, Cost, DecisionOutcome, ExternalAction, PriorityModel};

/// Index of the overbooking constraint (Integrity Constraint 1).
pub const OVERBOOKING: usize = 0;
/// Index of the unnecessary-underbooking constraint (Integrity
/// Constraint 2).
pub const UNDERBOOKING: usize = 1;

/// External-action kind used when MOVE-UP informs a passenger they have
/// a seat.
pub const ACTION_ASSIGN: &str = "assign-seat";
/// External-action kind used when MOVE-DOWN informs a passenger their
/// reservation is rescinded.
pub const ACTION_WAITLIST: &str = "rescind-seat";

/// The four transactions of the airline application (decision parts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AirlineTxn {
    /// `REQUEST(P)`: ask for a seat.
    Request(Person),
    /// `CANCEL(P)`: withdraw entirely.
    Cancel(Person),
    /// `MOVE-UP`: assign the first waiter if a seat appears free.
    MoveUp,
    /// `MOVE-DOWN`: bump the last assigned person if overbooked.
    MoveDown,
}

/// The updates broadcast between nodes (the undoable/redoable parts).
///
/// `MoveUp`/`MoveDown` are *parametrized by the person the decision
/// selected* (§2.3): the update re-executed at another node moves that
/// same person, whatever state it encounters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AirlineUpdate {
    /// `request(P)`.
    Request(Person),
    /// `cancel(P)`.
    Cancel(Person),
    /// `move-up(P)`.
    MoveUp(Person),
    /// `move-down(P)`.
    MoveDown(Person),
    /// The identity update, invoked when a MOVE-UP / MOVE-DOWN decision
    /// found nothing to do.
    Noop,
}

impl AirlineUpdate {
    /// The person the update concerns, if any.
    pub fn person(&self) -> Option<Person> {
        match self {
            AirlineUpdate::Request(p)
            | AirlineUpdate::Cancel(p)
            | AirlineUpdate::MoveUp(p)
            | AirlineUpdate::MoveDown(p) => Some(*p),
            AirlineUpdate::Noop => None,
        }
    }
}

/// The Fly-by-Night airline application: flight capacity and the two
/// violation cost rates.
///
/// # Examples
///
/// A booking that sees the whole history behaves serializably; one that
/// misses the move-up double-sells the seat (the paper's core scenario):
///
/// ```
/// use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
/// use shard_apps::Person;
/// use shard_core::{Application, ExecutionBuilder};
///
/// let app = FlyByNight::new(1); // one seat
/// let mut b = ExecutionBuilder::new(&app);
/// let r1 = b.push_complete(AirlineTxn::Request(Person(1)))?;
/// let r2 = b.push_complete(AirlineTxn::Request(Person(2)))?;
/// b.push(AirlineTxn::MoveUp, vec![r1])?; // sees only P1's request
/// b.push(AirlineTxn::MoveUp, vec![r2])?; // sees only P2's request
/// let e = b.finish();
/// assert_eq!(app.cost(&e.final_state(&app), OVERBOOKING), 900);
/// # Ok::<(), shard_core::ExecutionError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlyByNight {
    capacity: u64,
    overbook_rate: Cost,
    underbook_rate: Cost,
}

impl Default for FlyByNight {
    /// The paper's instance: 100 seats, $900 per overbooked passenger,
    /// $300 per unnecessarily unseated waiter.
    fn default() -> Self {
        FlyByNight::new(100)
    }
}

impl FlyByNight {
    /// An instance with the paper's cost rates ($900 / $300) and the
    /// given seat capacity. Small capacities make exhaustive state-space
    /// checks feasible.
    pub fn new(capacity: u64) -> Self {
        FlyByNight {
            capacity,
            overbook_rate: 900,
            underbook_rate: 300,
        }
    }

    /// An instance with custom cost rates.
    pub fn with_rates(capacity: u64, overbook_rate: Cost, underbook_rate: Cost) -> Self {
        FlyByNight {
            capacity,
            overbook_rate,
            underbook_rate,
        }
    }

    /// The flight capacity (100 in the paper).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Dollar cost per overbooked passenger (900 in the paper).
    pub fn overbook_rate(&self) -> Cost {
        self.overbook_rate
    }

    /// Dollar cost per unnecessarily waitlisted passenger (300).
    pub fn underbook_rate(&self) -> Cost {
        self.underbook_rate
    }

    /// Whether transaction kind `t` **preserves the cost** of
    /// `constraint` — the static classification proved in §4.1: all four
    /// transactions preserve overbooking; MOVE-UP and MOVE-DOWN preserve
    /// underbooking; REQUEST and CANCEL do not preserve underbooking.
    /// (Checked dynamically by experiment E14.)
    pub fn preserves(&self, t: &AirlineTxn, constraint: usize) -> bool {
        match constraint {
            OVERBOOKING => true,
            UNDERBOOKING => matches!(t, AirlineTxn::MoveUp | AirlineTxn::MoveDown),
            _ => panic!("unknown constraint {constraint}"),
        }
    }

    /// Whether transaction kind `t` is **safe** for `constraint` per
    /// §4.1: only MOVE-UP is unsafe for overbooking; only MOVE-UP is
    /// safe for underbooking.
    pub fn is_statically_safe(&self, t: &AirlineTxn, constraint: usize) -> bool {
        match constraint {
            OVERBOOKING => !matches!(t, AirlineTxn::MoveUp),
            UNDERBOOKING => matches!(t, AirlineTxn::MoveUp),
            _ => panic!("unknown constraint {constraint}"),
        }
    }
}

impl Application for FlyByNight {
    type State = AirlineState;
    type Update = AirlineUpdate;
    type Decision = AirlineTxn;

    fn initial_state(&self) -> AirlineState {
        AirlineState::new()
    }

    fn is_well_formed(&self, state: &AirlineState) -> bool {
        state.lists_disjoint()
    }

    fn apply_in_place(&self, s: &mut AirlineState, update: &AirlineUpdate) {
        match update {
            AirlineUpdate::Request(p) => s.request(*p),
            AirlineUpdate::Cancel(p) => s.cancel(*p),
            AirlineUpdate::MoveUp(p) => s.move_up(*p),
            AirlineUpdate::MoveDown(p) => s.move_down(*p),
            AirlineUpdate::Noop => {}
        }
    }

    fn state_size_hint(&self, state: &AirlineState) -> usize {
        std::mem::size_of::<AirlineState>()
            + (state.assigned().len() + state.waiting().len()) * std::mem::size_of::<Person>()
    }

    fn decide(
        &self,
        decision: &AirlineTxn,
        observed: &AirlineState,
    ) -> DecisionOutcome<AirlineUpdate> {
        match decision {
            AirlineTxn::Request(p) => DecisionOutcome::update_only(AirlineUpdate::Request(*p)),
            AirlineTxn::Cancel(p) => DecisionOutcome::update_only(AirlineUpdate::Cancel(*p)),
            AirlineTxn::MoveUp => {
                if observed.al() < self.capacity {
                    if let Some(&p) = observed.waiting().first() {
                        return DecisionOutcome::with_action(
                            AirlineUpdate::MoveUp(p),
                            ExternalAction::new(ACTION_ASSIGN, p.to_string()),
                        );
                    }
                }
                DecisionOutcome::update_only(AirlineUpdate::Noop)
            }
            AirlineTxn::MoveDown => {
                if observed.al() > self.capacity {
                    if let Some(&p) = observed.assigned().last() {
                        return DecisionOutcome::with_action(
                            AirlineUpdate::MoveDown(p),
                            ExternalAction::new(ACTION_WAITLIST, p.to_string()),
                        );
                    }
                }
                DecisionOutcome::update_only(AirlineUpdate::Noop)
            }
        }
    }

    fn constraint_count(&self) -> usize {
        2
    }

    fn constraint_name(&self, i: usize) -> &str {
        match i {
            OVERBOOKING => "no-overbooking",
            UNDERBOOKING => "no-unnecessary-underbooking",
            _ => panic!("unknown constraint {i}"),
        }
    }

    fn cost(&self, state: &AirlineState, constraint: usize) -> Cost {
        match constraint {
            OVERBOOKING => self.overbook_rate * monus(state.al(), self.capacity),
            UNDERBOOKING => self.underbook_rate * monus(self.capacity, state.al()).min(state.wl()),
            _ => panic!("unknown constraint {constraint}"),
        }
    }
}

/// Object structure for partial replication (§6): the reservation
/// database is a *single* object — the assigned and wait lists are
/// totally ordered and every transaction (even `REQUEST`) reads the
/// shared seat count, so there is nothing to split. Placements over the
/// airline therefore either hold the whole flight or none of it, which
/// is exactly the degenerate case the cross-strategy equivalence suite
/// needs.
impl shard_core::ObjectModel for FlyByNight {
    fn objects(&self) -> Vec<shard_core::ObjectId> {
        vec![shard_core::ObjectId(0)]
    }

    fn update_objects(&self, _update: &AirlineUpdate) -> Vec<shard_core::ObjectId> {
        vec![shard_core::ObjectId(0)]
    }

    fn decision_objects(&self, _decision: &AirlineTxn) -> Vec<shard_core::ObjectId> {
        vec![shard_core::ObjectId(0)]
    }

    fn project(&self, state: &AirlineState, _o: shard_core::ObjectId) -> String {
        format!("{state:?}")
    }
}

impl PriorityModel for FlyByNight {
    type Entity = Person;

    fn known(&self, state: &AirlineState) -> Vec<Person> {
        // Assigned people first (they all precede waiters), then waiters.
        state
            .assigned()
            .iter()
            .chain(state.waiting().iter())
            .copied()
            .collect()
    }

    /// §4.2: `P < Q` iff `P` precedes `Q` on the wait list, or `P`
    /// precedes `Q` on the assigned list, or `P` is assigned and `Q` is
    /// waiting.
    fn precedes(&self, state: &AirlineState, p: &Person, q: &Person) -> bool {
        let pos = |list: &[Person], x: &Person| list.iter().position(|y| y == x);
        match (pos(state.assigned(), p), pos(state.assigned(), q)) {
            (Some(a), Some(b)) => return a < b,
            (Some(_), None) => return state.is_waiting(*q),
            (None, Some(_)) => return false,
            (None, None) => {}
        }
        match (pos(state.waiting(), p), pos(state.waiting(), q)) {
            (Some(a), Some(b)) => a < b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_core::ExecutionBuilder;

    fn p(n: u32) -> Person {
        Person(n)
    }

    #[test]
    fn paper_cost_rates() {
        let app = FlyByNight::default();
        assert_eq!(app.capacity(), 100);
        assert_eq!(app.overbook_rate(), 900);
        assert_eq!(app.underbook_rate(), 300);
        assert_eq!(app.constraint_count(), 2);
        assert_eq!(app.constraint_name(OVERBOOKING), "no-overbooking");
    }

    #[test]
    fn overbooking_cost_is_900_per_excess() {
        let app = FlyByNight::new(2);
        let s = AirlineState::from_lists(vec![p(1), p(2), p(3), p(4)], vec![]);
        assert_eq!(app.cost(&s, OVERBOOKING), 1800);
        assert_eq!(app.cost(&s, UNDERBOOKING), 0);
    }

    #[test]
    fn underbooking_cost_is_300_per_seatable_waiter() {
        let app = FlyByNight::new(3);
        // 1 assigned, 2 free seats, 5 waiting → min(2, 5) = 2 waiters.
        let s = AirlineState::from_lists(vec![p(1)], vec![p(2), p(3), p(4), p(5), p(6)]);
        assert_eq!(app.cost(&s, UNDERBOOKING), 600);
        assert_eq!(app.cost(&s, OVERBOOKING), 0);
        // Exactly full: no underbooking regardless of waiters.
        let s = AirlineState::from_lists(vec![p(1), p(2), p(3)], vec![p(4)]);
        assert_eq!(app.cost(&s, UNDERBOOKING), 0);
    }

    #[test]
    fn full_flight_with_no_waiters_costs_zero() {
        let app = FlyByNight::new(2);
        let s = AirlineState::from_lists(vec![p(1)], vec![]);
        assert_eq!(app.total_cost(&s), 0);
    }

    #[test]
    fn move_up_decision_selects_first_waiter_and_informs() {
        let app = FlyByNight::new(2);
        let s = AirlineState::from_lists(vec![p(1)], vec![p(2), p(3)]);
        let out = app.decide(&AirlineTxn::MoveUp, &s);
        assert_eq!(out.update, AirlineUpdate::MoveUp(p(2)));
        assert_eq!(
            out.external_actions,
            vec![ExternalAction::new(ACTION_ASSIGN, "P2")]
        );
    }

    #[test]
    fn move_up_is_noop_when_full_or_no_waiters() {
        let app = FlyByNight::new(1);
        let full = AirlineState::from_lists(vec![p(1)], vec![p(2)]);
        assert_eq!(
            app.decide(&AirlineTxn::MoveUp, &full).update,
            AirlineUpdate::Noop
        );
        let empty_wait = AirlineState::from_lists(vec![], vec![]);
        assert_eq!(
            app.decide(&AirlineTxn::MoveUp, &empty_wait).update,
            AirlineUpdate::Noop
        );
    }

    #[test]
    fn move_down_decision_selects_last_assigned() {
        let app = FlyByNight::new(1);
        let s = AirlineState::from_lists(vec![p(1), p(2)], vec![]);
        let out = app.decide(&AirlineTxn::MoveDown, &s);
        assert_eq!(out.update, AirlineUpdate::MoveDown(p(2)));
        assert_eq!(
            out.external_actions,
            vec![ExternalAction::new(ACTION_WAITLIST, "P2")]
        );
        // Not overbooked: noop, no external action.
        let ok = AirlineState::from_lists(vec![p(1)], vec![]);
        let out = app.decide(&AirlineTxn::MoveDown, &ok);
        assert_eq!(out.update, AirlineUpdate::Noop);
        assert!(out.external_actions.is_empty());
    }

    #[test]
    fn request_and_cancel_have_trivial_decisions() {
        // §3.2: REQUEST and CANCEL generate the same update no matter
        // what prefix they see.
        let app = FlyByNight::new(2);
        let s1 = AirlineState::new();
        let s2 = AirlineState::from_lists(vec![p(1), p(9)], vec![p(2)]);
        for txn in [AirlineTxn::Request(p(5)), AirlineTxn::Cancel(p(5))] {
            let o1 = app.decide(&txn, &s1);
            let o2 = app.decide(&txn, &s2);
            assert_eq!(o1.update, o2.update);
            assert!(o1.external_actions.is_empty());
        }
    }

    #[test]
    fn priority_order_matches_section_4_2() {
        let app = FlyByNight::default();
        let s = AirlineState::from_lists(vec![p(1), p(2)], vec![p(3), p(4)]);
        // Assigned order.
        assert!(app.precedes(&s, &p(1), &p(2)));
        assert!(!app.precedes(&s, &p(2), &p(1)));
        // Waiting order.
        assert!(app.precedes(&s, &p(3), &p(4)));
        // Assigned before waiting.
        assert!(app.precedes(&s, &p(2), &p(3)));
        assert!(!app.precedes(&s, &p(3), &p(2)));
        // Unknown people precede no one.
        assert!(!app.precedes(&s, &p(9), &p(1)));
        assert!(!app.precedes(&s, &p(1), &p(9)));
        // known() lists assigned people first.
        assert_eq!(app.known(&s), vec![p(1), p(2), p(3), p(4)]);
    }

    #[test]
    fn serial_booking_fills_plane_exactly() {
        let app = FlyByNight::new(3);
        let mut b = ExecutionBuilder::new(&app);
        for i in 1..=5 {
            b.push_complete(AirlineTxn::Request(p(i))).unwrap();
            b.push_complete(AirlineTxn::MoveUp).unwrap();
        }
        let e = b.finish();
        e.verify(&app).unwrap();
        let final_state = e.final_state(&app);
        assert_eq!(final_state.assigned(), &[p(1), p(2), p(3)]);
        assert_eq!(final_state.waiting(), &[p(4), p(5)]);
        assert_eq!(app.cost(&final_state, OVERBOOKING), 0);
        assert_eq!(app.cost(&final_state, UNDERBOOKING), 0);
    }

    #[test]
    fn blind_move_ups_overbook() {
        let app = FlyByNight::new(1);
        let mut b = ExecutionBuilder::new(&app);
        let r1 = b.push_complete(AirlineTxn::Request(p(1))).unwrap();
        let r2 = b.push_complete(AirlineTxn::Request(p(2))).unwrap();
        // Two MOVE-UPs each see only "their" request: both assign.
        b.push(AirlineTxn::MoveUp, vec![r1]).unwrap();
        b.push(AirlineTxn::MoveUp, vec![r2]).unwrap();
        let e = b.finish();
        e.verify(&app).unwrap();
        let s = e.final_state(&app);
        assert_eq!(s.al(), 2);
        assert_eq!(app.cost(&s, OVERBOOKING), 900);
    }

    #[test]
    fn updates_preserve_well_formedness_exhaustively() {
        let app = FlyByNight::new(2);
        let space = super::space::all_states(3);
        for txn in [
            AirlineTxn::Request(p(1)),
            AirlineTxn::Cancel(p(1)),
            AirlineTxn::MoveUp,
            AirlineTxn::MoveDown,
        ] {
            assert!(
                shard_core::costs::updates_preserve_well_formedness(&app, &txn, &space),
                "{txn:?} broke well-formedness"
            );
        }
    }

    #[test]
    fn update_person_accessor() {
        assert_eq!(AirlineUpdate::Request(p(3)).person(), Some(p(3)));
        assert_eq!(AirlineUpdate::Noop.person(), None);
    }

    #[test]
    fn static_classification_tables() {
        let app = FlyByNight::default();
        // §4.1: only MOVE-UP is unsafe for overbooking.
        assert!(app.is_statically_safe(&AirlineTxn::Request(p(1)), OVERBOOKING));
        assert!(app.is_statically_safe(&AirlineTxn::Cancel(p(1)), OVERBOOKING));
        assert!(!app.is_statically_safe(&AirlineTxn::MoveUp, OVERBOOKING));
        assert!(app.is_statically_safe(&AirlineTxn::MoveDown, OVERBOOKING));
        // Only MOVE-UP is safe for underbooking.
        assert!(app.is_statically_safe(&AirlineTxn::MoveUp, UNDERBOOKING));
        assert!(!app.is_statically_safe(&AirlineTxn::Request(p(1)), UNDERBOOKING));
        // All preserve overbooking; only the movers preserve underbooking.
        assert!(app.preserves(&AirlineTxn::MoveUp, OVERBOOKING));
        assert!(app.preserves(&AirlineTxn::Request(p(1)), OVERBOOKING));
        assert!(app.preserves(&AirlineTxn::MoveDown, UNDERBOOKING));
        assert!(!app.preserves(&AirlineTxn::Cancel(p(1)), UNDERBOOKING));
    }
}
