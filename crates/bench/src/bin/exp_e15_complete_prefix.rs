//! E15 — extension: complete-prefix transactions via the §3.3 barrier
//! protocol.
//!
//! §3.2: "it might be desirable for audits to see the effects of all the
//! preceding deposit, withdrawal and transfer transactions", and §3.3
//! sketches the implementation: wait for every node to promise "I will
//! issue no more transactions with timestamp earlier than t". §3.3 also
//! warns: "this type of concurrency control might significantly reduce
//! system availability."
//!
//! The experiment runs a bank under partitions and compares AUDIT
//! transactions run ordinarily (instant, but reading stale replicas)
//! against audits run through the barrier (waiting out the partition,
//! but seeing the complete picture). Both sides of §3.3's trade-off are
//! measured: audit error and audit latency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_analysis::{Summary, Table};
use shard_apps::banking::{AccountId, Bank, BankTxn};
use shard_bench::TRIAL_SEEDS;
use shard_core::conditions;
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

fn workload(seed: u64, n: usize, nodes: u16) -> Vec<Invocation<BankTxn>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    let mut out = Vec::new();
    for i in 0..n {
        t += rng.random_range(2..=12);
        let a = AccountId(rng.random_range(1..=3));
        let txn = if rng.random_bool(0.7) {
            BankTxn::Deposit(a, rng.random_range(1..=100))
        } else {
            BankTxn::Withdraw(a, rng.random_range(1..=100))
        };
        out.push(Invocation::new(t, NodeId(rng.random_range(0..nodes)), txn));
        if i % 25 == 24 {
            t += 1;
            out.push(Invocation::new(t, NodeId(0), BankTxn::Audit));
        }
    }
    out
}

fn main() {
    let exp = shard_bench::Experiment::start("e15");
    let app = Bank::new(3, 1_000);
    let mut ok = true;
    println!("E15: complete-prefix audits via the §3.3 barrier (extension)\n");
    println!("4 nodes, 500 txns + audits every 25, node 1 partitioned t=500..2500\n");

    let mut t = Table::new(
        "E15 audit completeness & latency, with vs without barrier (5 seeds)",
        &[
            "mode",
            "audits",
            "max missed txns",
            "mean audit latency",
            "max audit latency",
        ],
    );
    for barrier in [false, true] {
        let mut audits = 0usize;
        let mut max_missed = 0usize;
        let mut latencies: Vec<u64> = Vec::new();
        for seed in TRIAL_SEEDS {
            let partitions =
                PartitionSchedule::new(vec![PartitionWindow::isolate(500, 2500, vec![NodeId(1)])]);
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay: DelayModel::Exponential { mean: 25 },
                    partitions,
                    ..Default::default()
                },
            );
            let invs = workload(seed, 500, 4);
            let report = if barrier {
                cluster.run_with_critical(invs, |d| matches!(d, BankTxn::Audit))
            } else {
                cluster.run(invs)
            };
            assert!(report.mutually_consistent());
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            for i in 0..te.execution.len() {
                if matches!(te.execution.record(i).decision, BankTxn::Audit) {
                    audits += 1;
                    max_missed = max_missed.max(conditions::missed_count(&te.execution, i));
                }
            }
            latencies.extend(report.barrier_latencies.iter().copied());
        }
        if barrier {
            // The barrier makes audits near-complete even across the
            // partition (residual misses are transactions submitted
            // concurrently, between probe and execution — inherent to
            // §3.3's promise-based sketch); plain audits miss far more.
            ok &= max_missed <= 20;
            ok &= !latencies.is_empty();
        } else {
            ok &= max_missed > 20;
        }
        let lat = Summary::of(&latencies);
        t.push_row(vec![
            if barrier {
                "barrier (§3.3)"
            } else {
                "plain SHARD"
            }
            .to_string(),
            audits.to_string(),
            max_missed.to_string(),
            if barrier {
                format!("{:.0}", lat.mean)
            } else {
                "0 (local)".into()
            },
            if barrier {
                lat.max.to_string()
            } else {
                "0".into()
            },
        ]);
    }
    println!("{t}");
    println!(
        "shape: §3.3's trade-off measured — the barrier buys audits a (near-)complete\n\
         prefix at the price of latencies that stretch to the partition length"
    );

    exp.finish(ok);
}
