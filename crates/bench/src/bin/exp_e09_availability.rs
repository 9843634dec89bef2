//! E09 — the motivating trade-off (§1.1): availability and response time
//! versus integrity, SHARD against a serializable primary-copy system.
//!
//! Both systems run the same airline workload over the same partition
//! schedule and delay model. The paper's qualitative claim: the
//! serializable system preserves integrity but blocks behind partitions
//! (availability and latency degrade), while SHARD stays fully available
//! with local response times and pays a *bounded* integrity cost
//! (bounded by 900·k, Corollary 8 — checked here too).

use shard_analysis::claims::check_invariant_bound;
use shard_analysis::{trace, ClaimCheck, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{FlyByNight, OVERBOOKING};
use shard_baseline::{BaselineConfig, PrimaryCopy};
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_sim::events::SimTime;
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{ClusterConfig, DelayModel, NodeId, Runner};

/// A periodic partition schedule: every `period` ticks, nodes 3 and 4
/// are cut off for `duty × period` ticks.
fn periodic_partitions(horizon: SimTime, period: SimTime, duty: f64) -> PartitionSchedule {
    let mut windows = Vec::new();
    let len = (period as f64 * duty) as SimTime;
    if len == 0 {
        return PartitionSchedule::none();
    }
    let mut t = period / 2;
    while t < horizon {
        windows.push(PartitionWindow::isolate(
            t,
            t + len,
            vec![NodeId(3), NodeId(4)],
        ));
        t += period;
    }
    PartitionSchedule::new(windows)
}

fn main() {
    let mut exp = shard_bench::Experiment::start("e09");
    // JSONL trace of the heaviest-partition sweep point (duty 75%):
    // partition cut/heal announcements plus every delivery and merge.
    let trace_sink = exp.trace_sink();
    let app = FlyByNight::new(50);
    let f = BoundFn::linear(app.overbook_rate());
    println!("E09: availability vs integrity — SHARD vs serializable primary copy\n");
    println!("5 nodes, 1000 txns, mean gap 10, exp(20) delays, TTL 400; partitions cut");
    println!("nodes 3-4 off for duty×2000 ticks every 2000 ticks\n");

    let mut t = Table::new(
        "E09 partition duty sweep (worst over 5 seeds)",
        &[
            "duty %",
            "SHARD avail %",
            "base avail %",
            "SHARD p-lat",
            "base mean lat",
            "SHARD max over $",
            "base max over $",
            "900k bound $",
        ],
    );
    let mut integrity = ClaimCheck::new("the serializable baseline never overbooks");
    for duty in [0.0f64, 0.1, 0.25, 0.5, 0.75] {
        let mut base_avail = 1.0f64;
        let mut base_lat = 0.0f64;
        let mut shard_cost = 0u64;
        let mut base_cost = 0u64;
        let mut bound = 0u64;
        for seed in TRIAL_SEEDS {
            let horizon = 14_000;
            let partitions = periodic_partitions(horizon, 2000, duty);
            let invs =
                airline_invocations(seed, 1000, 5, 10, AirlineMix::default(), Routing::Random);

            // SHARD: always available (transactions run locally), zero
            // client latency; pays integrity costs.
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 5,
                    seed,
                    delay: DelayModel::Exponential { mean: 20 },
                    partitions: partitions.clone(),
                    sink: if duty >= 0.75 {
                        trace_sink.clone()
                    } else {
                        None
                    },
                    ..Default::default()
                },
            );
            let report = cluster.run(invs.clone());
            assert!(report.mutually_consistent(), "heals after the windows");
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            shard_cost = shard_cost.max(trace::max_cost(&app, &te.execution, OVERBOOKING));
            let (k, check) = check_invariant_bound(&app, &te.execution, OVERBOOKING, &f, |d| {
                !app.is_statically_safe(d, OVERBOOKING)
            });
            exp.claim(check);
            bound = bound.max(900 * k as u64);

            // Baseline: integrity preserved; availability suffers.
            let sys = PrimaryCopy::new(
                &app,
                BaselineConfig {
                    nodes: 5,
                    seed,
                    delay: DelayModel::Exponential { mean: 20 },
                    partitions,
                    request_ttl: 400,
                },
            );
            let breport = sys.run(invs);
            base_avail = base_avail.min(breport.availability());
            base_lat = base_lat.max(breport.mean_latency().unwrap_or(0.0));
            base_cost = base_cost.max(trace::max_cost(&app, &breport.execution, OVERBOOKING));
        }
        integrity.record((base_cost != 0).then(|| format!("duty {duty}: ${base_cost} over")));
        t.push_row(vec![
            format!("{:.0}", duty * 100.0),
            "100".to_string(),
            format!("{:.1}", base_avail * 100.0),
            "0 (local)".to_string(),
            format!("{base_lat:.1}"),
            shard_cost.to_string(),
            base_cost.to_string(),
            bound.to_string(),
        ]);
    }
    println!("{t}");
    exp.claim(integrity);
    println!(
        "shape: the serializable baseline's availability falls with partition duty and its\n\
         latency climbs; SHARD stays at 100% availability with local latency, paying an\n\
         integrity cost that never exceeds the 900·k envelope"
    );

    exp.finish();
}
