//! E03 — Theorem 9 / Corollary 10 / Corollary 11: the normal-state
//! underbooking bound `cost(s, 2) ≤ 300·k` and the combined total bound
//! `cost(s) ≤ 900·k`.
//!
//! The underbooking cost admits **no** unconditional invariant bound
//! (requests can pile up faster than MOVE-UPs run) — the experiment
//! first demonstrates that failure mode, then constructs executions with
//! groupings (MOVE-UPs after every request/cancel until the agent
//! believes the flight is repaired) and verifies the paper's bound at
//! the normal states across a k sweep.

use shard_analysis::claims::{check_grouped_bound, check_total_bound_at_normal_states};
use shard_analysis::{trace, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight, UNDERBOOKING};
use shard_apps::Person;
use shard_bench::workloads::airline_execution_grouped;
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_core::Application;
use shard_core::ExecutionBuilder;

fn is_mover(d: &AirlineTxn) -> bool {
    matches!(d, AirlineTxn::MoveUp | AirlineTxn::MoveDown)
}

fn main() {
    let exp = shard_bench::Experiment::start("e03");
    let app = FlyByNight::default();
    let f300 = BoundFn::linear(app.underbook_rate());
    let f900 = BoundFn::linear(app.overbook_rate());
    let mut ok = true;

    println!("E03: normal-state underbooking bound (Cor 10/11)\n");

    // Part 1: without compensation the cost is unbounded in k.
    {
        let mut b = ExecutionBuilder::new(&app);
        for i in 1..=50u32 {
            b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
        }
        let e = b.finish();
        let max = trace::max_cost(&app, &e, UNDERBOOKING);
        println!(
            "without MOVE-UPs: 50 serial (k=0!) requests reach underbooking cost ${max} — no \
             invariant bound exists; the grouping hypothesis is necessary\n"
        );
        ok &= max == 300 * 50;
    }

    // Part 2: grouped executions, k sweep.
    let mut t = Table::new(
        "E03 grouped executions (~120 groups each, 5 seeds)",
        &[
            "k target",
            "k measured",
            "max normal under-cost $",
            "bound 300k $",
            "Cor10",
            "Cor11",
        ],
    );
    for k in [0usize, 1, 2, 4, 8, 16] {
        let mut worst_cost = 0u64;
        let mut worst_k = 0usize;
        let mut c10 = true;
        let mut c11 = true;
        for seed in TRIAL_SEEDS {
            let e = airline_execution_grouped(&app, seed, 120, k, AirlineMix::default());
            let Some((mk, check)) = check_grouped_bound(&app, &e, UNDERBOOKING, &f300, is_mover)
            else {
                println!("  (seed {seed}, k {k}: no grouping — skipped)");
                continue;
            };
            c10 &= check.holds();
            ok &= check.holds();
            worst_k = worst_k.max(mk);
            // Record the worst cost over the normal states themselves.
            let grouping = shard_core::Grouping::discover(&app, &e, UNDERBOOKING, is_mover)
                .expect("grouping exists");
            let worst_here = grouping
                .normal_states(&app, &e)
                .iter()
                .map(|(_, s)| app.cost(s, UNDERBOOKING))
                .max()
                .unwrap_or(0);
            worst_cost = worst_cost.max(worst_here);
            // Corollary 11: total cost at normal states ≤ 900·k.
            if let Some((_, total)) =
                check_total_bound_at_normal_states(&app, &e, UNDERBOOKING, &f900, is_mover, |d| {
                    matches!(d, AirlineTxn::MoveUp)
                })
            {
                c11 &= total.holds();
                ok &= total.holds();
            }
        }
        t.push_row(vec![
            k.to_string(),
            worst_k.to_string(),
            worst_cost.to_string(),
            (300 * worst_k as u64).to_string(),
            c10.to_string(),
            c11.to_string(),
        ]);
    }
    println!("{t}");

    exp.finish(ok);
}
