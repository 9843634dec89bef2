//! Cost traces over the reachable states of an execution.
//!
//! The paper's invariant bounds quantify over "any state reachable in
//! e" — the actual states `s₀ … sₙ`. These helpers evaluate the cost
//! functions along that trajectory in one streaming pass each: no
//! `Vec<State>` of all reachable states is ever materialized.

use shard_core::{Application, Cost, Execution};

/// `cost(sᵢ, constraint)` for every reachable state (`s₀` first).
pub fn cost_trace<A: Application>(app: &A, exec: &Execution<A>, constraint: usize) -> Vec<Cost> {
    exec.fold_actual_states(app, Vec::with_capacity(exec.len() + 1), |mut out, _, s| {
        out.push(app.cost(s, constraint));
        out
    })
}

/// Maximum of [`cost_trace`] — the worst violation over the whole run.
pub fn max_cost<A: Application>(app: &A, exec: &Execution<A>, constraint: usize) -> Cost {
    exec.fold_actual_states(app, 0, |worst, _, s| worst.max(app.cost(s, constraint)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
    use shard_apps::Person;
    use shard_core::ExecutionBuilder;

    fn overbooked_exec(app: &FlyByNight) -> Execution<FlyByNight> {
        let mut b = ExecutionBuilder::new(app);
        let r1 = b.push_complete(AirlineTxn::Request(Person(1))).unwrap();
        let r2 = b.push_complete(AirlineTxn::Request(Person(2))).unwrap();
        b.push(AirlineTxn::MoveUp, vec![r1]).unwrap();
        b.push(AirlineTxn::MoveUp, vec![r2]).unwrap();
        b.finish()
    }

    #[test]
    fn traces_follow_the_story() {
        let app = FlyByNight::new(1);
        let e = overbooked_exec(&app);
        let over = cost_trace(&app, &e, OVERBOOKING);
        // s0, after R1, after R2, after first MoveUp, after second.
        assert_eq!(over, vec![0, 0, 0, 0, 900]);
        let under = cost_trace(&app, &e, UNDERBOOKING);
        assert_eq!(under, vec![0, 300, 300, 0, 0]);
        assert_eq!(max_cost(&app, &e, OVERBOOKING), 900);
        assert_eq!(max_cost(&app, &e, UNDERBOOKING), 300);
    }

    #[test]
    fn empty_execution_has_zero_max() {
        let app = FlyByNight::new(1);
        let e: Execution<FlyByNight> = Execution::new();
        assert_eq!(max_cost(&app, &e, OVERBOOKING), 0);
        assert_eq!(cost_trace(&app, &e, OVERBOOKING), vec![0]);
    }
}
