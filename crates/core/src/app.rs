//! The database model of §2: states, well-formedness, integrity-constraint
//! costs, and two-part (decision / update) transactions.
//!
//! A database has a set `S` of states with a distinguished well-formed
//! initial state. *Well-formedness* captures the fundamental consistency
//! conditions that every update must preserve (in the airline example:
//! the assigned list and the wait list are disjoint). *Integrity
//! constraints* are merely desirable: the system does not promise to
//! preserve them, so each constraint `i` carries a non-negative
//! **cost measure** `cost(s, i)` — zero exactly when the constraint holds,
//! and larger the further `s` is from satisfying it. The total cost of a
//! state is the sum over all constraints (§2.2).
//!
//! A transaction `T` consists of a *decision part* `D_T : S → U × P(E)`
//! mapping the state it observes to an update and a set of external
//! actions, and the *update part* — the chosen update itself, an arbitrary
//! well-formedness-preserving map `S → S`. The decision runs exactly once
//! (at the transaction's origin node); only the update is broadcast,
//! undone and redone (§2.3).

use std::fmt;

/// Non-negative cost of violating an integrity constraint, in integral
/// units (the paper's Lemma 1 and Lemma 12 assume integral costs; we use
/// unsigned integers — think "cents" — so iteration arguments terminate
/// exactly as in the paper).
pub type Cost = u64;

/// An external action triggered by the decision part of a transaction —
/// e.g. "inform P that P is now assigned a seat" (§2.3). External actions
/// happen exactly once, at the transaction's origin, and can never be
/// undone; this is the reason transactions are split into a decision part
/// and an update part in the first place (§1.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExternalAction {
    /// What kind of action this is, e.g. `"assign-seat"`: one of the
    /// application's fixed names, so recording an action copies no text.
    pub kind: &'static str,
    /// Who or what the action concerns, e.g. `"P101"`.
    pub subject: String,
}

impl ExternalAction {
    /// Creates an external action of kind `kind` concerning `subject`.
    pub fn new(kind: &'static str, subject: impl Into<String>) -> Self {
        ExternalAction {
            kind,
            subject: subject.into(),
        }
    }
}

impl fmt::Display for ExternalAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind, self.subject)
    }
}

/// The pair returned by a decision part: the update `A` to broadcast and
/// the external actions to perform immediately (the paper's
/// `D_T(s) ∈ 𝒜 × P(ℰ)`).
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionOutcome<U> {
    /// The update invoked by the transaction when run from the observed
    /// state. This is the only thing sent to other nodes.
    pub update: U,
    /// External actions triggered when the decision part ran. Performed
    /// once, never undone.
    pub external_actions: Vec<ExternalAction>,
}

impl<U> DecisionOutcome<U> {
    /// An outcome with no external actions.
    pub fn update_only(update: U) -> Self {
        DecisionOutcome {
            update,
            external_actions: Vec::new(),
        }
    }

    /// An outcome with exactly one external action.
    pub fn with_action(update: U, action: ExternalAction) -> Self {
        DecisionOutcome {
            update,
            external_actions: vec![action],
        }
    }
}

/// An *application* in the paper's sense (§4): a collection of database
/// states (with initial state and well-formedness), integrity constraints
/// with their cost measures, and a set of transactions.
///
/// `Decision` values name transaction *instances* as submitted by clients
/// (e.g. `REQUEST(P)` or `MOVE-UP`); [`Application::decide`] is the
/// decision part `D_T`, and [`Application::apply_in_place`] executes
/// update parts. An application states each update once, in place;
/// [`Application::apply`] derives the pure map from it.
///
/// # Contract
///
/// * [`Application::initial_state`] must be well-formed.
/// * Every update returned by [`Application::decide`] must preserve
///   well-formedness under [`Application::apply_in_place`] (the paper
///   *requires* this of updates; [`costs::updates_preserve_well_formedness`]
///   checks it over a slice of states).
/// * [`Application::cost`] must be `0` exactly when constraint `i` is
///   satisfied in `s`.
///
/// [`costs::updates_preserve_well_formedness`]: crate::costs::updates_preserve_well_formedness
pub trait Application {
    /// Database states (`S` in the paper).
    type State: Clone + fmt::Debug + PartialEq;
    /// Updates — pure state maps broadcast between nodes (`𝒜`).
    type Update: Clone + fmt::Debug + PartialEq;
    /// Transaction instances as submitted (the input to a decision part).
    type Decision: Clone + fmt::Debug;

    /// The distinguished initial state `s₀` (must be well-formed).
    fn initial_state(&self) -> Self::State;

    /// Whether `state` satisfies the fundamental consistency conditions.
    fn is_well_formed(&self, state: &Self::State) -> bool;

    /// Runs the update part **in place**: `*state` becomes `A(*state)`
    /// (the paper's `A(s)`).
    ///
    /// The replay engine, the execution folds and the simulator's merge
    /// log all advance a state they own through long update runs, so an
    /// update that touches a small part of the state costs O(delta) per
    /// step there.
    fn apply_in_place(&self, state: &mut Self::State, update: &Self::Update);

    /// The pure form of [`Application::apply_in_place`]: the state
    /// produced by applying `update` to a clone of `state`. For checkers
    /// that quantify over borrowed states.
    fn apply(&self, state: &Self::State, update: &Self::Update) -> Self::State {
        let mut s = state.clone();
        self.apply_in_place(&mut s, update);
        s
    }

    /// Approximate size of `state` in bytes — inline footprint plus
    /// owned heap data. A *hint*, in the spirit of a state-delta size:
    /// the clone-accounting counters (`state.clone_bytes`) use it to
    /// convert snapshot clones into comparable byte figures, so it
    /// should scale with whatever a deep clone of the state would copy.
    /// Structurally-shared states (e.g. [`crate::pmap::PMap`]-backed)
    /// may report the shared size; their clones cost O(1) regardless.
    fn state_size_hint(&self, _state: &Self::State) -> usize {
        std::mem::size_of::<Self::State>()
    }

    /// Runs the decision part `D_T(observed)`: reads the observed state,
    /// picks the update to invoke and any external actions to trigger.
    /// Must not (conceptually) modify the database.
    fn decide(
        &self,
        decision: &Self::Decision,
        observed: &Self::State,
    ) -> DecisionOutcome<Self::Update>;

    /// The number of integrity constraints (the index set `I`).
    fn constraint_count(&self) -> usize;

    /// Human-readable name of constraint `i`.
    ///
    /// # Panics
    ///
    /// May panic if `i >= self.constraint_count()`.
    fn constraint_name(&self, i: usize) -> &str;

    /// `cost(s, i)` — the cost of state `s` attributed to violating
    /// integrity constraint `i`; `0` iff the constraint is satisfied.
    ///
    /// # Panics
    ///
    /// May panic if `i >= self.constraint_count()`.
    fn cost(&self, state: &Self::State, constraint: usize) -> Cost;

    /// `cost(s) = Σᵢ cost(s, i)` — the total cost of a state (§2.2).
    fn total_cost(&self, state: &Self::State) -> Cost {
        (0..self.constraint_count())
            .map(|i| self.cost(state, i))
            .sum()
    }

    /// Convenience: the paper's `T(s, s')` — run the decision part from
    /// `observed`, then apply the chosen update to `acting` (which may be
    /// a different state). Returns the resulting state.
    fn run(
        &self,
        decision: &Self::Decision,
        observed: &Self::State,
        acting: &Self::State,
    ) -> Self::State {
        let outcome = self.decide(decision, observed);
        self.apply(acting, &outcome.update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Inc;

    struct Toy;
    impl Application for Toy {
        type State = u32;
        type Update = Inc;
        type Decision = Inc;
        fn initial_state(&self) -> u32 {
            0
        }
        fn is_well_formed(&self, _: &u32) -> bool {
            true
        }
        fn apply_in_place(&self, s: &mut u32, _: &Inc) {
            *s += 1;
        }
        fn decide(&self, _: &Inc, _: &u32) -> DecisionOutcome<Inc> {
            DecisionOutcome::update_only(Inc)
        }
        fn constraint_count(&self) -> usize {
            1
        }
        fn constraint_name(&self, _: usize) -> &str {
            "at-most-two"
        }
        fn cost(&self, s: &u32, _: usize) -> Cost {
            (*s as u64).saturating_sub(2)
        }
    }

    #[test]
    fn total_cost_sums_constraints() {
        let app = Toy;
        assert_eq!(app.total_cost(&1), 0);
        assert_eq!(app.total_cost(&5), 3);
    }

    #[test]
    fn run_separates_observed_and_acting_states() {
        let app = Toy;
        // Decision observes 0 but the update acts on 10.
        assert_eq!(app.run(&Inc, &0, &10), 11);
    }

    #[test]
    fn external_action_display() {
        let a = ExternalAction::new("assign-seat", "P1");
        assert_eq!(a.to_string(), "assign-seat(P1)");
    }

    #[test]
    fn decision_outcome_constructors() {
        let o = DecisionOutcome::update_only(Inc);
        assert!(o.external_actions.is_empty());
        let o = DecisionOutcome::with_action(Inc, ExternalAction::new("x", "y"));
        assert_eq!(o.external_actions.len(), 1);
    }

    #[test]
    fn derived_apply_leaves_its_input_alone() {
        let app = Toy;
        let s = 5u32;
        assert_eq!(app.apply(&s, &Inc), 6);
        assert_eq!(s, 5);
    }

    #[test]
    fn default_size_hint_is_inline_size() {
        assert_eq!(Toy.state_size_hint(&0), std::mem::size_of::<u32>());
    }
}
