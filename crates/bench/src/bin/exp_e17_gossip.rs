//! E17 — extension: anti-entropy gossip vs per-update flooding as the
//! reliable broadcast (\[GLBKSS\], §1.2).
//!
//! The paper's broadcast only needs eventual delivery; the protocol is
//! an implementation degree of freedom. Flooding delivers each update
//! directly to every peer (n−1 messages per transaction, minimal
//! staleness); anti-entropy gossip hands a random partner, at a fixed
//! cadence, what it has not been offered yet (bounded message *count*,
//! each entry offered to each peer once by every node, higher
//! staleness). The experiment measures
//! both sides: the k-distribution (which instantiates every cost bound)
//! and the message/bandwidth cost, across a gossip-interval sweep —
//! all cost theorems must keep holding under either broadcast.

use shard_analysis::claims::check_invariant_bound;
use shard_analysis::{completeness, Summary, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_sim::{ClusterConfig, DelayModel, Gossip, Runner};

fn main() {
    let mut exp = shard_bench::Experiment::start("e17");
    let app = FlyByNight::new(25);
    let f = BoundFn::linear(900);
    println!("E17: gossip vs flooding broadcast (extension), 5 nodes, 1000 txns × 5 seeds\n");

    let mut t = Table::new(
        "E17 broadcast sweep",
        &[
            "broadcast",
            "k mean",
            "k p95",
            "k max",
            "rounds",
            "entries shipped",
            "Cor 8",
        ],
    );

    let config = |seed| ClusterConfig {
        nodes: 5,
        seed,
        delay: DelayModel::Exponential { mean: 10 },
        ..Default::default()
    };

    // Flooding reference.
    {
        let mut ks: Vec<u64> = Vec::new();
        let mut holds = true;
        let mut flood_msgs = 0u64;
        for seed in TRIAL_SEEDS {
            let invs =
                airline_invocations(seed, 1000, 5, 6, AirlineMix::default(), Routing::Random);
            let cluster = Runner::eager(&app, config(seed));
            let report = cluster.run(invs);
            flood_msgs += report.messages_sent;
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            ks.extend(
                completeness::missed_counts(&te.execution)
                    .iter()
                    .map(|c| *c as u64),
            );
            let (_, check) = check_invariant_bound(&app, &te.execution, OVERBOOKING, &f, |d| {
                matches!(d, AirlineTxn::MoveUp)
            });
            holds &= exp.claim(check);
        }
        let s = Summary::of(&ks);
        t.push_row(vec![
            "flood".to_string(),
            format!("{:.2}", s.mean),
            s.p95.to_string(),
            s.max.to_string(),
            "-".to_string(),
            flood_msgs.to_string(),
            holds.to_string(),
        ]);
    }

    for interval in [10u64, 50, 200, 800] {
        let mut ks: Vec<u64> = Vec::new();
        let mut rounds = 0;
        let mut shipped = 0;
        let mut holds = true;
        for seed in TRIAL_SEEDS {
            let invs =
                airline_invocations(seed, 1000, 5, 6, AirlineMix::default(), Routing::Random);
            let cluster = Runner::new(&app, config(seed), Gossip::new(interval, 1));
            let report = cluster.run(invs);
            assert!(report.mutually_consistent());
            rounds += report.rounds;
            shipped += report.entries_shipped;
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            ks.extend(
                completeness::missed_counts(&te.execution)
                    .iter()
                    .map(|c| *c as u64),
            );
            let (_, check) = check_invariant_bound(&app, &te.execution, OVERBOOKING, &f, |d| {
                matches!(d, AirlineTxn::MoveUp)
            });
            holds &= exp.claim(check);
        }
        let s = Summary::of(&ks);
        t.push_row(vec![
            format!("gossip/{interval}"),
            format!("{:.2}", s.mean),
            s.p95.to_string(),
            s.max.to_string(),
            rounds.to_string(),
            shipped.to_string(),
            holds.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "shape: staleness (k) grows with the gossip interval while round count falls;\n\
         the conditional cost bounds hold under either broadcast — the theorems never\n\
         depended on *how* updates travel, only on what prefixes transactions see"
    );

    exp.finish();
}
