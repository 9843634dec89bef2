//! E04 — Lemma 1 / Corollary 2 / Lemma 12 / Corollary 13: compensating
//! transactions drive costs down, atomically, to within `f(k)` of zero.
//!
//! Starting from adversarially damaged executions (heavily overbooked or
//! underbooked via mutually blind transactions), the experiment runs an
//! atomic suffix of the appropriate compensator (MOVE-DOWN for
//! overbooking, MOVE-UP for underbooking) whose base subsequence misses
//! `k` of the execution's updates, and verifies Corollary 13: the actual
//! cost after the suffix is at most `900·k` (resp. `300·k`).

use shard_analysis::compensation::run_atomic_suffix;
use shard_analysis::{ClaimCheck, Table};
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard_apps::Person;
use shard_core::costs::compensation_steps;
use shard_core::{conditions, Execution, ExecutionBuilder};

/// Overbook a `cap`-seat plane by `extra` passengers using blind movers.
fn overbooked(app: &FlyByNight, cap: u32, extra: u32) -> Execution<FlyByNight> {
    let mut b = ExecutionBuilder::new(app);
    for i in 1..=cap {
        b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
        b.push_complete(AirlineTxn::MoveUp).unwrap();
    }
    let base: Vec<usize> = (0..2 * (cap as usize - 1)).collect();
    for i in 0..extra {
        let r = b
            .push_complete(AirlineTxn::Request(Person(cap + 1 + i)))
            .unwrap();
        let mut pre = base.clone();
        pre.push(r);
        b.push(AirlineTxn::MoveUp, pre).unwrap();
    }
    b.finish()
}

fn main() {
    let mut exp = shard_bench::Experiment::start("e04");
    let cap = 20u32;
    let app = FlyByNight::new(cap as u64);
    println!("E04: compensation convergence (Lemma 1, Cor 2, Lemma 12, Cor 13)\n");

    // Lemma 1: iterating MOVE-DOWN from an overbooked state reaches
    // cost 0 in exactly `excess` steps.
    let mut t = Table::new(
        "E04a Lemma 1: atomic MOVE-DOWN iteration from overbooked states",
        &["excess", "start cost $", "steps to 0", "expected steps"],
    );
    let mut lemma1 = ClaimCheck::new("Lemma 1: MOVE-DOWN reaches cost 0 in exactly `excess` steps");
    for extra in [1u32, 3, 7, 15] {
        let e = overbooked(&app, cap, extra);
        let start = e.final_state(&app);
        let cost0 = shard_core::Application::cost(&app, &start, OVERBOOKING);
        let steps = compensation_steps(&app, &AirlineTxn::MoveDown, OVERBOOKING, &start, 100)
            .expect("MOVE-DOWN compensates");
        lemma1.record((steps != extra as usize).then(|| format!("excess {extra}: {steps} steps")));
        t.push_row(vec![
            extra.to_string(),
            cost0.to_string(),
            steps.to_string(),
            extra.to_string(),
        ]);
    }
    println!("{t}");
    exp.claim(lemma1);

    // Every suffix below must be atomic in the §3.1 sense.
    let mut suffix_atomic = ClaimCheck::new("§3.1: each compensating suffix is atomic");

    // Corollary 13 part 1: atomic MOVE-DOWN suffix with a base missing k
    // updates leaves actual overbooking cost ≤ 900·k.
    let mut t = Table::new(
        "E04b Cor 13(1): MOVE-DOWN suffix with k missing updates",
        &[
            "k",
            "start cost $",
            "suffix len",
            "final cost $",
            "bound 900k $",
            "holds",
        ],
    );
    let mut cor13 = ClaimCheck::new("Cor 13(1): a MOVE-DOWN suffix leaves overbooking ≤ 900k");
    for k in [0usize, 1, 2, 4, 8] {
        let mut e = overbooked(&app, cap, 10);
        let start_cost = shard_core::Application::cost(&app, &e.final_state(&app), OVERBOOKING);
        // Base: everything except the last k updates (the agent missed
        // the most recent activity).
        let base: Vec<usize> = (0..e.len() - k).collect();
        let start = e.len();
        let out = run_atomic_suffix(&app, &mut e, &base, &AirlineTxn::MoveDown, OVERBOOKING, 100);
        suffix_atomic.record(
            (!conditions::is_atomic(&e, start..e.len())).then(|| format!("MOVE-DOWN, k={k}")),
        );
        let final_cost = shard_core::Application::cost(&app, &e.final_state(&app), OVERBOOKING);
        let bound = 900 * k as u64;
        let holds = out.converged && final_cost <= bound;
        cor13.record((!holds).then(|| format!("k={k}: final ${final_cost} > ${bound}")));
        e.verify(&app).expect("extended execution stays valid");
        t.push_row(vec![
            k.to_string(),
            start_cost.to_string(),
            out.appended.to_string(),
            final_cost.to_string(),
            bound.to_string(),
            holds.to_string(),
        ]);
    }
    println!("{t}");
    exp.claim(cor13);

    // Corollary 13 part 2: MOVE-UP suffix repairs underbooking to ≤ 300k.
    let mut t = Table::new(
        "E04c Cor 13(2): MOVE-UP suffix with k missing updates",
        &[
            "k",
            "start cost $",
            "suffix len",
            "final cost $",
            "bound 300k $",
            "holds",
        ],
    );
    let mut cor13 = ClaimCheck::new("Cor 13(2): a MOVE-UP suffix leaves underbooking ≤ 300k");
    for k in [0usize, 1, 2, 4, 8] {
        let mut b = ExecutionBuilder::new(&app);
        for i in 1..=15u32 {
            b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
        }
        let mut e = b.finish();
        let start_cost = shard_core::Application::cost(&app, &e.final_state(&app), UNDERBOOKING);
        let base: Vec<usize> = (0..e.len() - k).collect();
        let start = e.len();
        let out = run_atomic_suffix(&app, &mut e, &base, &AirlineTxn::MoveUp, UNDERBOOKING, 100);
        suffix_atomic.record(
            (!conditions::is_atomic(&e, start..e.len())).then(|| format!("MOVE-UP, k={k}")),
        );
        let final_cost = shard_core::Application::cost(&app, &e.final_state(&app), UNDERBOOKING);
        let bound = 300 * k as u64;
        let holds = out.converged && final_cost <= bound;
        cor13.record((!holds).then(|| format!("k={k}: final ${final_cost} > ${bound}")));
        t.push_row(vec![
            k.to_string(),
            start_cost.to_string(),
            out.appended.to_string(),
            final_cost.to_string(),
            bound.to_string(),
            holds.to_string(),
        ]);
    }
    println!("{t}");
    exp.claim(cor13);
    exp.claim(suffix_atomic);

    exp.finish();
}
