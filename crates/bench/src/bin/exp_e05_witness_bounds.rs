//! E05 — Theorems 20/21: the witness-refined cost bounds.
//!
//! §5.3 sharpens the blanket k-completeness bounds: what a MOVE-UP
//! really needs is an *assignment witness* (request + move-up pair) for
//! each actually-assigned person; the bound scales with the number of
//! witness misses `m`, not the raw number of missed transactions `k`.
//! Since `m ≤ k` — usually far smaller, because most missed updates
//! concern other people — the refined bound is much tighter.
//!
//! The experiment runs simulator executions across a delay sweep,
//! measures both parameters per MOVE-UP/MOVE-DOWN, checks Theorem 20,
//! and compares the two bounds.

use shard_analysis::airline::{
    assignment_witness_misses, check_theorem20, check_theorem21, negative_info_misses,
};
use shard_analysis::{completeness, Summary, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::conditions::missed_count;
use shard_sim::{ClusterConfig, DelayModel, Runner};

fn main() {
    let mut exp = shard_bench::Experiment::start("e05");
    let app = FlyByNight::new(25);
    println!("E05: witness-refined bounds (Thm 20/21), 25-seat plane, 5 nodes\n");

    let mut t = Table::new(
        "E05 raw k vs witness misses m per mover (1200 txns × 5 seeds)",
        &["mean delay", "k mean", "k max", "m mean", "m max", "Thm20"],
    );
    for mean_delay in [5u64, 20, 80, 320] {
        let mut ks: Vec<u64> = Vec::new();
        let mut ms: Vec<u64> = Vec::new();
        let mut thm20 = true;
        for seed in TRIAL_SEEDS {
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 5,
                    seed,
                    delay: DelayModel::Exponential { mean: mean_delay },
                    ..Default::default()
                },
            );
            let invs =
                airline_invocations(seed, 1200, 5, 8, AirlineMix::default(), Routing::Random);
            let report = cluster.run(invs);
            assert!(report.mutually_consistent());
            let te = report.timed_execution();
            te.execution
                .verify(&app)
                .expect("simulator output is a valid execution");
            thm20 &= exp.claim(check_theorem20(&app, &te.execution));
            for i in 0..te.execution.len() {
                match te.execution.record(i).decision {
                    AirlineTxn::MoveUp => {
                        ks.push(missed_count(&te.execution, i) as u64);
                        ms.push(assignment_witness_misses(&app, &te.execution, i) as u64);
                    }
                    AirlineTxn::MoveDown => {
                        ks.push(missed_count(&te.execution, i) as u64);
                        ms.push(negative_info_misses(&app, &te.execution, i) as u64);
                    }
                    _ => {}
                }
            }
        }
        let ks_sum = Summary::of(&ks);
        let ms_sum = Summary::of(&ms);
        t.push_row(vec![
            mean_delay.to_string(),
            format!("{:.1}", ks_sum.mean),
            ks_sum.max.to_string(),
            format!("{:.2}", ms_sum.mean),
            ms_sum.max.to_string(),
            thm20.to_string(),
        ]);
    }
    println!("{t}");
    println!("shape check: m ≪ k throughout — the refined bound 900·m is far tighter than 900·k\n");

    // Theorem 21: final-state witness bounds with compensating suffixes.
    // The repair agent works from a base subsequence missing the last
    // `drop` transactions; the actual cost after its atomic suffix stays
    // within 900·m₁ / 300·m₂ with m measured by witness misses.
    let mut t = Table::new(
        "E05b Theorem 21 final-state bounds (400-txn executions × 5 seeds)",
        &["dropped txns", "max m1", "max m2", "part1", "part2"],
    );
    for drop in [0usize, 5, 20, 80] {
        let mut m1 = 0;
        let mut m2 = 0;
        let mut p1 = true;
        let mut p2 = true;
        for seed in TRIAL_SEEDS {
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 5,
                    seed,
                    delay: DelayModel::Exponential { mean: 40 },
                    ..Default::default()
                },
            );
            let invs = airline_invocations(seed, 400, 5, 8, AirlineMix::default(), Routing::Random);
            let te = cluster.run(invs).timed_execution();
            let base: Vec<usize> = (0..te.execution.len().saturating_sub(drop)).collect();
            let out = check_theorem21(&app, &te.execution, &base);
            m1 = m1.max(out.assigned_misses);
            m2 = m2.max(out.waiting_misses);
            p1 &= exp.claim(out.part1);
            p2 &= exp.claim(out.part2);
        }
        t.push_row(vec![
            drop.to_string(),
            m1.to_string(),
            m2.to_string(),
            p1.to_string(),
            p2.to_string(),
        ]);
    }
    println!("{t}");

    // Also report the k distribution on one configuration for context.
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 5,
            seed: 42,
            delay: DelayModel::Exponential { mean: 80 },
            ..Default::default()
        },
    );
    let invs = airline_invocations(42, 1200, 5, 8, AirlineMix::default(), Routing::Random);
    let te = cluster.run(invs).timed_execution();
    println!(
        "k distribution at mean delay 80: {}",
        completeness::missed_summary(&te.execution)
    );

    exp.finish();
}
