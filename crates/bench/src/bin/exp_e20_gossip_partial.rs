//! E20 — composed extension: anti-entropy gossip over a partially
//! replicated bank (§6 × §1.2).
//!
//! E16 removed the full-replication assumption; E17 swapped flooding
//! for anti-entropy gossip. The kernel refactor makes the two degrees
//! of freedom *compose*: [`shard_sim::Gossip::over`] gossips at a
//! fixed cadence but hands a partner only the entries its placement
//! cares about. The experiment sweeps the replication factor
//! against the gossip interval and checks that the §3.1 correctness
//! conditions, per-object replica agreement and the overdraft cost
//! bounds all survive the composition — while entry volume tracks the
//! replication factor and round count tracks the interval.

use shard_analysis::claims::{check_invariant_bound, ClaimCheck};
use shard_analysis::Table;
use shard_apps::banking::{Bank, BankTxn};
use shard_bench::workloads::placed_bank_invocations;
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_core::{Application, ObjectModel};
use shard_sim::{ClusterConfig, DelayModel, Gossip, Placement, Runner};

fn main() {
    let mut exp = shard_bench::Experiment::start("e20");
    let accounts = 8u32;
    let max_debit = 100u32;
    let nodes = 8u16;
    let app = Bank::new(accounts, max_debit);
    let objects = app.objects();
    let f = BoundFn::linear(max_debit as u64);
    println!(
        "E20: gossip × partial replication (composed extension) — \
         8 accounts over 8 nodes\n"
    );

    let mut t = Table::new(
        "E20 replication-factor × gossip-interval grid (600 txns × 5 seeds, totals)",
        &[
            "replication",
            "gossip",
            "rounds",
            "entries shipped",
            "objects consistent",
            "bounds hold",
            "worst k",
        ],
    );
    for factor in [8u16, 4, 2] {
        let placement = Placement::round_robin(nodes, &objects, factor);
        for interval in [20u64, 80] {
            let mut rounds = 0u64;
            let mut shipped = 0u64;
            let mut worst_k = 0usize;
            let mut consistency = ClaimCheck::new(format!(
                "per-object replicas agree under gossip (r={factor}, interval={interval})"
            ));
            let mut bounds = ClaimCheck::new(format!(
                "overdraft ≤ f(k) under gossip × partial (r={factor}, interval={interval})"
            ));
            for seed in TRIAL_SEEDS {
                let invs = placed_bank_invocations(&app, &placement, seed, 600);
                let strategy = Gossip::new(interval, 2).over(placement.clone());
                let report = Runner::new(
                    &app,
                    ClusterConfig {
                        nodes,
                        seed,
                        delay: DelayModel::Exponential { mean: 30 },
                        ..Default::default()
                    },
                    strategy,
                )
                .run(invs);
                rounds += report.rounds;
                shipped += report.entries_shipped;
                consistency.record(if report.objects_consistent(&app, &placement) {
                    None
                } else {
                    Some(format!("seed {seed}: holders disagree on some object"))
                });
                let te = report.timed_execution();
                te.execution
                    .verify(&app)
                    .expect("§3.1 conditions hold under gossip × partial replication");
                for c in 0..app.constraint_count() {
                    let (k, check) = check_invariant_bound(&app, &te.execution, c, &f, |d| {
                        matches!(d, BankTxn::Withdraw(..) | BankTxn::Transfer(..))
                    });
                    worst_k = worst_k.max(k);
                    bounds.record(if check.holds() {
                        None
                    } else {
                        Some(format!("seed {seed}, constraint {c}: bound violated"))
                    });
                }
            }
            let agree = exp.claim(consistency);
            let bounded = exp.claim(bounds);
            t.push_row(vec![
                if factor == nodes {
                    format!("{factor}× (full)")
                } else {
                    format!("{factor}×")
                },
                format!("every {interval}"),
                rounds.to_string(),
                shipped.to_string(),
                agree.to_string(),
                bounded.to_string(),
                worst_k.to_string(),
            ]);
        }
    }
    println!("\n{t}");
    println!(
        "shape: the two §6 relaxations compose — entry volume falls with the\n\
         replication factor, staleness (worst k) grows with the gossip interval,\n\
         and every correctness condition and cost bound holds at every grid point"
    );

    exp.finish();
}
