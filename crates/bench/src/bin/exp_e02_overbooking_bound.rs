//! E02 — Theorem 5 / Corollary 6 / Corollary 8: the invariant
//! overbooking bound `cost(s, 1) ≤ 900·k`.
//!
//! Sweeps the information-loss parameter `k` over randomized airline
//! executions (controlled-k builder workloads) and over an adversarial
//! construction that meets the bound exactly, reporting the measured
//! maximum overbooking cost against the paper's bound. The *shape* the
//! paper predicts: the worst case grows linearly in `k`, is `0` at
//! `k = 0` (serializable), and never exceeds `900·k`.

use shard_analysis::claims::{check_invariant_bound, check_theorem5};
use shard_analysis::{trace, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
use shard_apps::Person;
use shard_bench::workloads::airline_execution_with_k;
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_core::ExecutionBuilder;

fn main() {
    let exp = shard_bench::Experiment::start("e02");
    // A 10-seat plane for the randomized sweep: small enough that
    // missing a handful of transactions actually overbooks.
    let app = FlyByNight::new(10);
    let f = BoundFn::linear(app.overbook_rate());
    let mut ok = true;

    println!("E02: invariant overbooking bound (Cor 8)\n");
    let mut t = Table::new(
        "E02 randomized executions (10-seat plane, 2000 txns each, 5 seeds)",
        &[
            "k target",
            "k measured (unsafe)",
            "max over-cost $",
            "bound 900k $",
            "holds",
        ],
    );
    for k in [0usize, 1, 2, 4, 8, 16, 32] {
        let mut worst_cost = 0;
        let mut worst_k = 0;
        let mut holds = true;
        for seed in TRIAL_SEEDS {
            let e = airline_execution_with_k(&app, seed, 2000, k, AirlineMix::default());
            let (mk, check) = check_invariant_bound(&app, &e, OVERBOOKING, &f, |d| {
                matches!(d, AirlineTxn::MoveUp)
            });
            holds &= check.holds();
            ok &= check.holds();
            // Theorem 5's per-step form must hold too.
            let step = check_theorem5(&app, &e, OVERBOOKING, &f, |_| true);
            ok &= step.holds();
            holds &= step.holds();
            worst_k = worst_k.max(mk);
            worst_cost = worst_cost.max(trace::max_cost(&app, &e, OVERBOOKING));
        }
        t.push_row(vec![
            k.to_string(),
            worst_k.to_string(),
            worst_cost.to_string(),
            (900 * worst_k as u64).to_string(),
            holds.to_string(),
        ]);
    }
    println!("{t}");

    // Adversarial linear growth: the §3.1 double-booking generalized to
    // `m` mutually blind MOVE-UPs, each missing one filled block — the
    // worst case grows as exactly 900·m, inside the 900·k envelope.
    let mut t = Table::new(
        "E02 adversarial worst case (§3.1 pattern, m blind movers)",
        &[
            "blind movers m",
            "max over-cost $",
            "900·m $",
            "k measured",
            "bound 900k $",
            "holds",
        ],
    );
    for m in [1usize, 2, 4, 8] {
        let app = FlyByNight::default();
        let mut b = ExecutionBuilder::new(&app);
        // Fill the plane with complete information (100 blocks).
        for i in 1..=100u32 {
            b.push_complete(AirlineTxn::Request(Person(i))).unwrap();
            b.push_complete(AirlineTxn::MoveUp).unwrap();
        }
        // m extra requests, then m MOVE-UPs each seeing 99 blocks plus
        // its own request — each believes a seat is free and seats one
        // extra passenger (exactly the worked example's mechanism).
        let mut reqs = Vec::new();
        for i in 0..m as u32 {
            reqs.push(
                b.push_complete(AirlineTxn::Request(Person(101 + i)))
                    .unwrap(),
            );
        }
        for &r in &reqs {
            let mut pre: Vec<usize> = (0..198).collect();
            pre.push(r);
            b.push(AirlineTxn::MoveUp, pre).unwrap();
        }
        let e = b.finish();
        e.verify(&app).unwrap();
        let (mk, check) = check_invariant_bound(&app, &e, OVERBOOKING, &f, |d| {
            matches!(d, AirlineTxn::MoveUp)
        });
        ok &= check.holds();
        let max = trace::max_cost(&app, &e, OVERBOOKING);
        assert_eq!(max, 900 * m as u64, "each blind MOVE-UP seats one extra");
        t.push_row(vec![
            m.to_string(),
            max.to_string(),
            (900 * m as u64).to_string(),
            mk.to_string(),
            (900 * mk as u64).to_string(),
            check.holds().to_string(),
        ]);
    }
    println!("{t}");

    exp.finish(ok);
}
