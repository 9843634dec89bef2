//! E06 — Theorems 22/23 and the §5.4 counterexample: centralization
//! eliminates overbooking entirely.
//!
//! Theorem 22: in a transitive execution with the MOVE-UP transactions
//! centralized *and* each person's transactions centralized, the
//! overbooking cost is zero in every reachable state. Theorem 23 swaps
//! the per-person discipline for "at most one REQUEST per person".
//! The §5.4 counterexample shows centralized MOVE-UPs + transitivity
//! alone are **not** enough: 101 blocks of
//! REQUEST/CANCEL/REQUEST/MOVE-UP overbook a 100-seat plane.

use shard_analysis::airline::check_zero_overbooking;
use shard_analysis::{trace, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
use shard_apps::Person;
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::{conditions, ExecutionBuilder};
use shard_sim::{ClusterConfig, DelayModel, Gossip, Runner};

fn main() {
    let exp = shard_bench::Experiment::start("e06");
    let app = FlyByNight::new(100);
    let mut ok = true;
    println!("E06: centralization ⇒ zero overbooking (Thm 22/23) + §5.4 counterexample\n");

    // Part 1: simulator runs with centralized movers + per-person
    // routing + transitivity from a gossip round at each execution
    // (Theorem 22's hypotheses) and
    // with single-request workloads (Theorem 23's hypotheses — the
    // default workload never re-requests, so both apply).
    let mut t = Table::new(
        "E06a simulated centralized runs (1500 txns × 5 seeds)",
        &[
            "mean delay",
            "transitive",
            "movers centralized",
            "max over-cost $",
            "Thm22/23",
            "messages",
            "entries shipped",
            "k max",
        ],
    );
    for mean_delay in [10u64, 50, 200] {
        let (mut messages, mut shipped, mut k) = (0, 0, 0);
        let mut max_cost = 0;
        let mut all_trans = true;
        let mut all_central = true;
        let mut zero = true;
        for seed in TRIAL_SEEDS {
            let cluster = Runner::new(
                &app,
                ClusterConfig {
                    nodes: 5,
                    seed,
                    delay: DelayModel::Exponential { mean: mean_delay },
                    ..Default::default()
                },
                Gossip::new(0, 4),
            );
            let invs = airline_invocations(
                seed,
                1500,
                5,
                6,
                AirlineMix::default(),
                Routing::CentralizedMoversAndPeople,
            );
            let report = cluster.run(invs);
            messages += report.messages_sent;
            shipped += report.entries_shipped;
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            k = k.max(conditions::max_missed(&te.execution));
            // Verify the hypotheses actually hold on the emitted run.
            all_trans &= conditions::is_transitive(&te.execution);
            let movers: Vec<usize> = (0..te.execution.len())
                .filter(|&i| {
                    matches!(
                        te.execution.record(i).decision,
                        AirlineTxn::MoveUp | AirlineTxn::MoveDown
                    )
                })
                .collect();
            all_central &= conditions::is_centralized(&te.execution, &movers);
            let check = check_zero_overbooking(&app, &te.execution);
            zero &= check.holds();
            ok &= check.holds();
            max_cost = max_cost.max(trace::max_cost(&app, &te.execution, OVERBOOKING));
        }
        ok &= all_trans && all_central;
        t.push_row(vec![
            mean_delay.to_string(),
            all_trans.to_string(),
            all_central.to_string(),
            max_cost.to_string(),
            zero.to_string(),
            messages.to_string(),
            shipped.to_string(),
            k.to_string(),
        ]);
    }
    println!("{t}");

    // Part 2: the §5.4 counterexample — centralized movers, transitive,
    // but per-person transactions NOT centralized (each MOVE-UP misses
    // the cancel and re-request of its own block).
    let mut b = ExecutionBuilder::new(&app);
    let mut mover_prefix: Vec<usize> = Vec::new(); // first requests + movers + (later) cancels
    let mut first_requests: Vec<usize> = Vec::new();
    let mut cancels: Vec<usize> = Vec::new();
    let mut movers: Vec<usize> = Vec::new();
    for i in 1..=101u32 {
        let r1 = b.push(AirlineTxn::Request(Person(i)), vec![]).unwrap();
        let c = b.push(AirlineTxn::Cancel(Person(i)), vec![]).unwrap();
        let _r2 = b.push(AirlineTxn::Request(Person(i)), vec![]).unwrap();
        first_requests.push(r1);
        cancels.push(c);
        if i <= 100 {
            // MOVE-UP #i sees the first request of each block so far and
            // all previous MOVE-UPs — but no cancels or re-requests.
            let mut pre = mover_prefix.clone();
            pre.push(r1);
            pre.sort_unstable();
            let m = b.push(AirlineTxn::MoveUp, pre).unwrap();
            movers.push(m);
            mover_prefix.push(r1);
            mover_prefix.push(m);
        } else {
            // The last MOVE-UP additionally sees all the cancels (§5.4:
            // "plus the cancels") except its own block's.
            let mut pre = mover_prefix.clone();
            pre.push(r1);
            pre.extend(cancels[..100].iter().copied());
            pre.sort_unstable();
            let m = b.push(AirlineTxn::MoveUp, pre).unwrap();
            movers.push(m);
        }
    }
    let e = b.finish();
    e.verify(&app).expect("counterexample is a valid execution");
    let transitive = conditions::is_transitive(&e);
    let central = conditions::is_centralized(&e, &movers);
    let final_cost = shard_core::Application::cost(&app, &e.final_state(&app), OVERBOOKING);
    println!("E06b §5.4 counterexample: transitive={transitive}, movers centralized={central}");
    println!(
        "  per-person centralization dropped ⇒ final overbooking cost ${final_cost} (paper: nonzero)"
    );
    ok &= transitive && central && final_cost == 900;

    // And the repaired version: give every MOVE-UP its block's cancel
    // and re-request too (per-person centralization restored) — cost 0.
    let mut b = ExecutionBuilder::new(&app);
    let mut mover_prefix: Vec<usize> = Vec::new();
    for i in 1..=101u32 {
        let r1 = b.push(AirlineTxn::Request(Person(i)), vec![]).unwrap();
        let c = b.push(AirlineTxn::Cancel(Person(i)), vec![]).unwrap();
        let r2 = b.push(AirlineTxn::Request(Person(i)), vec![]).unwrap();
        let mut pre = mover_prefix.clone();
        pre.extend([r1, c, r2]);
        pre.sort_unstable();
        let m = b.push(AirlineTxn::MoveUp, pre).unwrap();
        mover_prefix.extend([r1, c, r2, m]);
    }
    let repaired = b.finish();
    repaired.verify(&app).expect("repaired execution is valid");
    let check = check_zero_overbooking(&app, &repaired);
    println!("E06c repaired (per-person centralization restored): {check}");
    ok &= check.holds();

    exp.finish(ok);
}
