//! Retired history is invisible in a run's outcome. Under eager
//! broadcast every replica retires what lies below its stability
//! frontier (`shard_sim::frontier`); whatever the network does to the
//! datagrams — drop, duplicate or reorder them, or hold them behind a
//! partition that heals — each replica must end in the state of the
//! updates it merged, replayed in timestamp order, and the run must
//! report missing exactly what no delivery brought.

use shard_apps::airline::{AirlineTxn, AirlineUpdate, FlyByNight};
use shard_apps::Person;
use shard_core::Application;
use shard_sim::nemesis::Nemesis;
use shard_sim::{
    ClusterConfig, DelayModel, Invocation, MessageDropper, MessageDuplicator, MessageReorderer,
    NemesisStack, NodeId, PartitionSchedule, PartitionWindow, RunReport, Runner, Timestamp,
};
use std::collections::{BTreeSet, HashMap};

const NODES: u16 = 4;
const TXNS: u64 = 800;

/// A seeded airline workload, one invocation every 5 ticks.
fn invocations(seed: u64) -> Vec<Invocation<AirlineTxn>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut below = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    (0..TXNS)
        .map(|i| {
            let person = Person(below(16) as u32);
            let decision = match below(4) {
                0 | 1 => AirlineTxn::Request(person),
                2 => AirlineTxn::Cancel(person),
                _ => AirlineTxn::MoveUp,
            };
            Invocation::new(5 * i, NodeId(below(u64::from(NODES)) as u16), decision)
        })
        .collect()
}

/// Node 0 cut off from tick 1 000 to 2 200, then healed.
fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        seed,
        delay: DelayModel::Exponential { mean: 30 },
        partitions: PartitionSchedule::new(vec![PartitionWindow::isolate(
            1_000,
            2_200,
            vec![NodeId(0)],
        )]),
        checkpoint_every: 4,
        ..ClusterConfig::default()
    }
}

/// The report against what its arrival record alone implies.
fn check(app: &FlyByNight, report: &RunReport<FlyByNight>, what: &str) {
    let update_of: HashMap<Timestamp, &AirlineUpdate> = report
        .transactions
        .iter()
        .map(|t| (t.ts, &t.update))
        .collect();
    let merged: Vec<BTreeSet<Timestamp>> = report
        .arrivals
        .iter()
        .map(|incarnations| {
            assert_eq!(incarnations.len(), 1, "{what}: no node restarts");
            let set: BTreeSet<Timestamp> = incarnations[0].iter().copied().collect();
            assert_eq!(set.len(), incarnations[0].len(), "{what}: merged twice");
            set
        })
        .collect();
    for (node, held) in merged.iter().enumerate() {
        let replay = held.iter().fold(app.initial_state(), |mut state, ts| {
            app.apply_in_place(&mut state, update_of[ts]);
            state
        });
        assert_eq!(
            report.final_states[node], replay,
            "{what}: node {node} is not the serial replay of what it merged"
        );
    }
    let all: BTreeSet<Timestamp> = merged.iter().flatten().copied().collect();
    let missing: Vec<(NodeId, Timestamp)> = merged
        .iter()
        .enumerate()
        .flat_map(|(node, held)| {
            all.difference(held)
                .map(move |ts| (NodeId(node as u16), *ts))
        })
        .collect();
    assert_eq!(report.missing(), &missing[..], "{what}: missing");
}

/// The sum, over runs so far, of each node's peak retained entries.
fn peaks() -> Vec<u64> {
    (0..NODES)
        .map(|n| {
            shard_obs::Registry::global()
                .histogram(&format!("merge.peak_retained_entries.n{n}"))
                .snapshot()
                .sum
        })
        .collect()
}

#[test]
fn retired_history_changes_no_final_state_and_hides_no_missing_update() {
    let app = FlyByNight::new(6);
    type Make = fn(u64) -> Box<dyn Nemesis>;
    let nemeses: [(&str, Make); 5] = [
        ("fault-free", |_| Box::new(NemesisStack::new())),
        ("drop", |s| Box::new(MessageDropper::new(0.01, s))),
        ("duplicate", |s| {
            Box::new(MessageDuplicator::new(0.2, 2, 80, s))
        }),
        ("reorder", |s| {
            Box::new(MessageReorderer::new(0.1, 20, 400, s))
        }),
        ("all three", |s| {
            Box::new(
                NemesisStack::new()
                    .with(Box::new(MessageDropper::new(0.005, s)))
                    .with(Box::new(MessageDuplicator::new(0.2, 2, 80, s + 1)))
                    .with(Box::new(MessageReorderer::new(0.1, 20, 400, s + 2))),
            )
        }),
    ];
    let mut lost = 0;
    for seed in 1..=4 {
        for (name, nemesis) in nemeses {
            let before = peaks();
            let report = Runner::eager(&app, config(seed))
                .with_nemesis(nemesis(seed))
                .run(invocations(seed));
            let what = format!("{name}, seed {seed}");
            check(&app, &report, &what);
            lost += report.missing().len();
            // Without drops the frontier keeps moving: no node keeps
            // most of what it merged. (A dropped message holds its
            // receiver's frontier below it for good.)
            if !matches!(name, "drop" | "all three") {
                for (node, (after, before)) in peaks().into_iter().zip(before).enumerate() {
                    let merged = report.arrivals[node][0].len() as u64;
                    assert!(
                        after - before < merged / 2,
                        "{what}: node {node} kept {} of {merged} entries",
                        after - before
                    );
                }
            }
        }
    }
    assert!(lost > 0, "dropped messages leave updates missing for good");
}
