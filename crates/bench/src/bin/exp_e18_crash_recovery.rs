//! E18 — extension: node failures (§1.2's "communication and node
//! failures can cause significant delays").
//!
//! A crashed node rejects local clients and receives nothing until it
//! recovers; recovery is pure log catch-up (SHARD keeps no other
//! inter-node state). The experiment sweeps the outage length and
//! measures: local availability loss (rejected submissions), catch-up
//! undo/redo work at the recovered node, convergence, and — the paper's
//! actual concern — that the cost bounds keep holding with `k` inflated
//! by the outage.

use shard_analysis::claims::check_invariant_bound;
use shard_analysis::{ClaimCheck, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_sim::{ClusterConfig, CrashSchedule, CrashWindow, DelayModel, NodeId, Runner};

fn main() {
    let mut exp = shard_bench::Experiment::start("e18");
    let app = FlyByNight::new(25);
    let f = BoundFn::linear(900);
    println!("E18: node crash/recovery (extension), 4 nodes, 1000 txns × 5 seeds\n");

    let mut t = Table::new(
        "E18 outage-length sweep (node 1 down from t=1000)",
        &[
            "outage",
            "rejected",
            "mutual consistency",
            "k measured",
            "Cor 8",
            "catch-up replays",
        ],
    );
    let mut converge = ClaimCheck::new("the replicas converge after every outage");
    for outage in [0u64, 500, 2000, 6000] {
        let mut rejected = 0usize;
        let mut consistent = true;
        let mut worst_k = 0usize;
        let mut holds = true;
        let mut replays = 0u64;
        for seed in TRIAL_SEEDS {
            let crashes = if outage == 0 {
                CrashSchedule::none()
            } else {
                CrashSchedule::new(vec![CrashWindow::new(NodeId(1), 1000, 1000 + outage)])
            };
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay: DelayModel::Exponential { mean: 15 },
                    crashes,
                    ..Default::default()
                },
            );
            let invs =
                airline_invocations(seed, 1000, 4, 6, AirlineMix::default(), Routing::Random);
            let report = cluster.run(invs);
            rejected += report.rejected.len();
            consistent &= report.mutually_consistent();
            replays += report.node_metrics[1].replayed;
            let te = report.timed_execution();
            te.execution
                .verify(&app)
                .expect("valid execution despite crashes");
            let (k, check) = check_invariant_bound(&app, &te.execution, OVERBOOKING, &f, |d| {
                matches!(d, AirlineTxn::MoveUp)
            });
            holds &= exp.claim(check);
            worst_k = worst_k.max(k);
        }
        converge.record((!consistent).then(|| format!("outage {outage}")));
        t.push_row(vec![
            outage.to_string(),
            rejected.to_string(),
            consistent.to_string(),
            worst_k.to_string(),
            holds.to_string(),
            replays.to_string(),
        ]);
    }
    println!("{t}");
    exp.claim(converge);
    println!(
        "shape: rejections scale with the outage (only the crashed node's clients are\n\
         affected — SHARD's availability is per-reachable-node); the recovered node\n\
         catches up by replay; every §3.1 condition and cost bound survives"
    );

    exp.finish();
}
