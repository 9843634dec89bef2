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
use shard_analysis::exhaustive::{check_lemma_exhaustively, check_refuted};
use shard_analysis::{completeness, Summary, Table};
use shard_apps::airline::lemmas::{
    lemma15, lemma16, lemma16_literal, lemma17, lemma18, lemma19, lemma19_literal, states_of,
};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::AirlineUpdate::{Cancel, MoveUp, Request};
use shard_apps::airline::{AirlineTxn, AirlineUpdate, FlyByNight};
use shard_apps::Person;
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::{Experiment, TRIAL_SEEDS};
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
            // One forward fold per execution: a mover at `i` is measured
            // against `sᵢ₋₁`, the state the fold holds after `i` updates.
            let exec = &te.execution;
            let updates: Vec<AirlineUpdate> = exec.records().iter().map(|r| r.update).collect();
            exec.for_each_actual_state(&app, |i, before| {
                let Some(rec) = exec.records().get(i) else {
                    return;
                };
                let misses = match rec.decision {
                    AirlineTxn::MoveUp => assignment_witness_misses,
                    AirlineTxn::MoveDown => negative_info_misses,
                    _ => return,
                };
                ks.push(missed_count(exec, i) as u64);
                ms.push(misses(&updates[..i], &rec.prefix, before) as u64);
            });
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

    // §5.3's update-sequence lemmas, over every sequence of at most four
    // updates, every subsequence and both people.
    exp.claim(check_lemma_exhaustively("Lemma 15", lemma15));
    exp.claim(check_lemma_exhaustively("Lemma 16 (corrected)", lemma16));
    exp.claim(check_lemma_exhaustively("Lemma 17", lemma17));
    exp.claim(check_lemma_exhaustively("Lemma 18", lemma18));
    exp.claim(check_lemma_exhaustively("Lemma 19 (corrected)", lemma19));

    // The errata: the paper's printed readings of Lemmas 16 and 19 fail
    // in the same scope, and on the counterexamples lemmas.rs documents.
    println!();
    let p = Person(1);
    let cex16 = [Request(p), MoveUp(p), Cancel(p), Request(p)];
    refute(&mut exp, "Lemma 16", lemma16_literal, &cex16, &[0, 1, 3]);
    let cex19 = [Request(p), MoveUp(p), Request(p)];
    refute(&mut exp, "Lemma 19", lemma19_literal, &cex19, &[1, 2]);

    exp.finish();
}

/// Claims that `literal`, the printed reading of a §5.3 lemma, is
/// refuted, and prints the counterexample `seq` keeping `kept`.
fn refute(
    exp: &mut Experiment,
    name: &str,
    literal: fn(&FlyByNight, &[AirlineUpdate], &[usize], Person) -> Option<bool>,
    seq: &[AirlineUpdate],
    kept: &[usize],
) {
    let (s, t) = states_of(&FlyByNight::new(1), seq, kept);
    let subsequence: Vec<AirlineUpdate> = kept.iter().map(|&i| seq[i]).collect();
    println!(
        "{name} as printed fails on 𝒜 = {}, 𝒮 = {}: s has {s}, t has {t}",
        spell(seq),
        spell(&subsequence),
    );
    exp.claim(check_refuted(name, literal, seq, kept));
}

/// An update sequence in the paper's notation.
fn spell(seq: &[AirlineUpdate]) -> String {
    let names: Vec<String> = seq
        .iter()
        .map(|u| match u {
            Request(p) => format!("request({p})"),
            Cancel(p) => format!("cancel({p})"),
            MoveUp(p) => format!("move-up({p})"),
            other => format!("{other:?}"),
        })
        .collect();
    format!("[{}]", names.join(", "))
}
