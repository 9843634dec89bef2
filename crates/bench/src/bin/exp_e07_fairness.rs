//! E07 — Theorems 25/27 and Lemma 26: fairness under centralized movers.
//!
//! * Theorem 25: once the (centralized, transitive) moving "agent" has
//!   seen both requests, the two passengers' relative priority is fixed
//!   for the rest of the execution.
//! * Lemma 26 / Theorem 27: if `REQUEST(P)` ran at least `t` before
//!   `REQUEST(Q)` in an orderly execution with t-bounded delay, `P`
//!   keeps priority over `Q` in every reachable state.
//!
//! The experiment runs simulator executions with centralized movers and
//! transitivity from a gossip round at each execution, checks Theorem 25 on every eligible pair, and
//! sweeps the request-gap threshold for the Theorem 27 claim using the
//! execution's *measured* delay bound.

use shard_analysis::airline::{
    check_request_order_priority, check_theorem25, final_priority_inversions,
    single_uncancelled_request,
};
use shard_analysis::Table;
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_apps::Person;
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::conditions;
use shard_sim::{ClusterConfig, DelayModel, Gossip, Runner};

fn main() {
    let exp = shard_bench::Experiment::start("e07");
    let app = FlyByNight::new(15);
    let mut ok = true;
    println!("E07: fairness (Thm 25, Lemma 26, Thm 27), centralized movers\n");

    let mut t = Table::new(
        "E07a Theorem 25 across simulated runs (800 txns × 5 seeds)",
        &[
            "mean delay",
            "pairs checked",
            "violations",
            "final inversions",
            "messages",
            "entries shipped",
            "k max",
        ],
    );
    for mean_delay in [10u64, 60, 240] {
        let (mut messages, mut shipped, mut k) = (0, 0, 0);
        let mut pairs = 0usize;
        let mut violations = 0usize;
        let mut inversions = 0usize;
        for seed in TRIAL_SEEDS {
            let cluster = Runner::new(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay: DelayModel::Exponential { mean: mean_delay },
                    ..Default::default()
                },
                Gossip::new(0, 3),
            );
            let invs = airline_invocations(
                seed,
                800,
                4,
                7,
                AirlineMix {
                    cancel: 0.0,
                    ..AirlineMix::default()
                },
                Routing::CentralizedMovers,
            );
            let report = cluster.run(invs);
            messages += report.messages_sent;
            shipped += report.entries_shipped;
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            k = k.max(conditions::max_missed(&te.execution));
            assert!(
                conditions::is_transitive(&te.execution),
                "a round at each execution ⇒ transitive"
            );
            let states = te.execution.actual_states(&app);
            // Eligible people: single uncancelled request.
            let people: Vec<Person> = (1..=200u32)
                .map(Person)
                .filter(|p| single_uncancelled_request(&te.execution, *p))
                .collect();
            // Sample pairs (stride to keep runtime sane).
            for (a, &p) in people.iter().enumerate().step_by(3) {
                for &q in people[a + 1..].iter().step_by(7) {
                    if let Some(check) = check_theorem25(&app, &te.execution, &states, p, q) {
                        pairs += 1;
                        if !check.holds() {
                            violations += 1;
                            ok = false;
                        }
                    }
                }
            }
            inversions += final_priority_inversions(&app, &te.execution).len();
        }
        t.push_row(vec![
            mean_delay.to_string(),
            pairs.to_string(),
            violations.to_string(),
            inversions.to_string(),
            messages.to_string(),
            shipped.to_string(),
            k.to_string(),
        ]);
    }
    println!("{t}");
    println!("note: final inversions are *permitted* by Thm 25 (priority is fixed only from\nthe moment the agent learns both requests); Thm 27 below bounds them by request gap\n");

    // Theorem 27: sweep the request-gap threshold against the measured
    // delay bound of each execution.
    let mut t = Table::new(
        "E07b Lemma 26 / Theorem 27: request-gap fairness",
        &[
            "mean delay",
            "orderly",
            "measured t-bound",
            "pairs gap≥t̂",
            "violations",
        ],
    );
    for mean_delay in [5u64, 40] {
        let mut orderly_all = true;
        let mut tmax = 0u64;
        let mut pairs = 0usize;
        let mut violations = 0usize;
        for seed in TRIAL_SEEDS {
            let cluster = Runner::new(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay: DelayModel::Fixed(mean_delay),
                    ..Default::default()
                },
                Gossip::new(0, 3),
            );
            let invs = airline_invocations(
                seed,
                600,
                4,
                20,
                AirlineMix {
                    cancel: 0.0,
                    ..AirlineMix::default()
                },
                Routing::CentralizedMovers,
            );
            let report = cluster.run(invs);
            let te = report.timed_execution();
            let orderly = te.is_orderly();
            orderly_all &= orderly;
            let t_bound = te.min_delay_bound();
            tmax = tmax.max(t_bound);
            let states = te.execution.actual_states(&app);
            // Request times per person.
            let mut reqs: Vec<(u64, Person)> = Vec::new();
            for (i, r) in te.execution.iter() {
                if let AirlineTxn::Request(p) = r.decision {
                    if single_uncancelled_request(&te.execution, p) {
                        reqs.push((te.times[i], p));
                    }
                }
            }
            reqs.sort_unstable_by_key(|(t, p)| (*t, p.0));
            for (a, &(tp, p)) in reqs.iter().enumerate() {
                for &(tq, q) in &reqs[a + 1..] {
                    if tq < tp + t_bound {
                        continue; // gap below the measured bound
                    }
                    // Lemma 26's hypothesis is implied by the t-bound +
                    // orderliness; verify the conclusion.
                    if let Some(check) =
                        check_request_order_priority(&app, &te.execution, &states, p, q)
                    {
                        pairs += 1;
                        if !check.holds() {
                            violations += 1;
                            ok = false;
                        }
                    } else if orderly {
                        // Hypothesis failed although gap ≥ measured
                        // bound — that contradicts Theorem 27.
                        pairs += 1;
                        violations += 1;
                        ok = false;
                    }
                }
            }
        }
        t.push_row(vec![
            mean_delay.to_string(),
            orderly_all.to_string(),
            tmax.to_string(),
            pairs.to_string(),
            violations.to_string(),
        ]);
    }
    println!("{t}");

    exp.finish(ok);
}
