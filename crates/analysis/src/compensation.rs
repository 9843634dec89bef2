//! Atomic compensating suffixes (Corollary 2, Lemma 12, Corollary 13).
//!
//! Corollary 2: if `T` compensates for constraint `i`, any finite
//! execution can be extended by an *atomic* suffix of `T`s — each seeing
//! the same base subsequence plus the earlier suffix members — whose last
//! apparent state has cost 0. Lemma 12 adds: if the base subsequence
//! misses at most `k` of the execution's updates, the *actual* state
//! after the suffix has cost at most `f(k)`.

use shard_core::{Application, Execution, TxnIndex, TxnRecord};

/// The result of running a compensating suffix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuffixOutcome {
    /// How many compensating transactions were appended.
    pub appended: usize,
    /// Whether the apparent cost reached 0 within the step budget.
    pub converged: bool,
}

/// Extends `exec` with an atomic suffix of `decision` transactions for
/// `constraint`: the first sees exactly `base` (a strictly increasing
/// subsequence of the existing indices), each later one additionally
/// sees the previously appended suffix transactions. Stops when the
/// apparent state after the last appended transaction has cost 0 for
/// `constraint`, or after `max_steps` appends.
///
/// Returns what happened; `exec` is left extended either way.
///
/// # Panics
///
/// Panics if `base` is not strictly increasing within range.
pub fn run_atomic_suffix<A: Application>(
    app: &A,
    exec: &mut Execution<A>,
    base: &[TxnIndex],
    decision: &A::Decision,
    constraint: usize,
    max_steps: usize,
) -> SuffixOutcome {
    assert!(
        base.windows(2).all(|w| w[0] < w[1]) && base.iter().all(|&i| i < exec.len()),
        "base must be a strictly increasing subsequence of existing indices"
    );
    // Track the apparent state incrementally: base state, then each
    // appended update applied in turn (atomicity means nothing else
    // intervenes).
    let mut apparent = exec.subsequence_state(app, base);
    let suffix_start = exec.len();
    let mut appended = 0;
    while appended < max_steps {
        if app.cost(&apparent, constraint) == 0 {
            return SuffixOutcome {
                appended,
                converged: true,
            };
        }
        let outcome = app.decide(decision, &apparent);
        apparent = app.apply(&apparent, &outcome.update);
        // The base, then the suffix so far.
        let prefix = base.iter().copied().chain(suffix_start..exec.len());
        exec.push_record(TxnRecord {
            decision: decision.clone(),
            prefix: prefix.collect(),
            update: outcome.update,
            external_actions: outcome.external_actions,
        });
        appended += 1;
    }
    SuffixOutcome {
        appended,
        converged: app.cost(&apparent, constraint) == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
    use shard_apps::Person;
    use shard_core::{conditions, ExecutionBuilder};

    /// Build an overbooked execution on a 1-seat plane: three passengers
    /// all moved up by mutually blind MOVE-UPs.
    fn overbooked() -> (FlyByNight, Execution<FlyByNight>) {
        let app = FlyByNight::new(1);
        let mut b = ExecutionBuilder::new(&app);
        let mut ups = Vec::new();
        for i in 1..=3 {
            let r = b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
            ups.push(b.push(AirlineTxn::MoveUp, vec![r]).unwrap());
        }
        let e = b.finish();
        (app, e)
    }

    #[test]
    fn move_down_suffix_repairs_overbooking() {
        let (app, mut e) = overbooked();
        assert_eq!(app.cost(&e.final_state(&app), OVERBOOKING), 1800);
        let base: Vec<usize> = (0..e.len()).collect(); // complete info
        let out = run_atomic_suffix(&app, &mut e, &base, &AirlineTxn::MoveDown, OVERBOOKING, 10);
        assert!(out.converged);
        assert_eq!(out.appended, 2, "two bumps repair a 2-over plane");
        // With a complete base, apparent = actual: the real cost is 0.
        assert_eq!(app.cost(&e.final_state(&app), OVERBOOKING), 0);
        e.verify(&app).unwrap();
        // The suffix is atomic in the §3.1 sense.
        assert!(conditions::is_atomic(&e, 6..8));
    }

    #[test]
    fn lemma_12_bound_with_missing_information() {
        let (app, mut e) = overbooked();
        // The suffix agent misses the last MOVE-UP (k = 1): it believes
        // only 2 are assigned, so it moves down once and believes cost 0;
        // the actual cost is ≤ 900·k = 900.
        let base: Vec<usize> = (0..e.len() - 1).collect();
        let out = run_atomic_suffix(&app, &mut e, &base, &AirlineTxn::MoveDown, OVERBOOKING, 10);
        assert!(out.converged);
        let actual = app.cost(&e.final_state(&app), OVERBOOKING);
        assert!(actual <= 900, "Lemma 12: actual {actual} ≤ f(1) = 900");
        assert!(actual > 0, "missing info leaves residual cost here");
        e.verify(&app).unwrap();
    }

    #[test]
    fn already_clean_state_appends_nothing() {
        let app = FlyByNight::new(2);
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(AirlineTxn::Request(Person(1))).unwrap();
        let mut e = b.finish();
        let out = run_atomic_suffix(&app, &mut e, &[0], &AirlineTxn::MoveDown, OVERBOOKING, 5);
        assert_eq!(
            out,
            SuffixOutcome {
                appended: 0,
                converged: true
            }
        );
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn step_budget_limits_work() {
        let (app, mut e) = overbooked();
        let base: Vec<usize> = (0..e.len()).collect();
        let out = run_atomic_suffix(&app, &mut e, &base, &AirlineTxn::MoveDown, OVERBOOKING, 1);
        assert_eq!(out.appended, 1);
        assert!(!out.converged, "one bump is not enough for 2-over");
    }

    #[test]
    fn move_up_suffix_repairs_underbooking() {
        let app = FlyByNight::new(2);
        let mut b = ExecutionBuilder::new(&app);
        for i in 1..=2 {
            b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
        }
        let mut e = b.finish();
        assert_eq!(app.cost(&e.final_state(&app), UNDERBOOKING), 600);
        let base: Vec<usize> = (0..e.len()).collect();
        let out = run_atomic_suffix(&app, &mut e, &base, &AirlineTxn::MoveUp, UNDERBOOKING, 10);
        assert!(out.converged);
        assert_eq!(out.appended, 2);
        assert_eq!(app.cost(&e.final_state(&app), UNDERBOOKING), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bad_base_panics() {
        let (app, mut e) = overbooked();
        let _ = run_atomic_suffix(&app, &mut e, &[2, 1], &AirlineTxn::MoveDown, OVERBOOKING, 5);
    }
}
