//! Integration tests of the anti-entropy gossip broadcast.

use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_apps::Person;
use shard_core::conditions;
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{ClusterConfig, DelayModel, Gossip, Invocation, MessageDropper, NodeId, Runner};

fn booking(n: u32, nodes: u16, gap: u64) -> Vec<Invocation<AirlineTxn>> {
    let mut invs = Vec::new();
    let mut t = 0;
    for i in 1..=n {
        t += gap;
        invs.push(Invocation::new(
            t,
            NodeId((i % nodes as u32) as u16),
            AirlineTxn::Request(Person(i)),
        ));
        t += gap;
        invs.push(Invocation::new(
            t,
            NodeId(((i + 1) % nodes as u32) as u16),
            AirlineTxn::MoveUp,
        ));
    }
    invs
}

#[test]
fn gossip_converges_and_emits_valid_executions() {
    let app = FlyByNight::new(10);
    let cluster = Runner::new(
        &app,
        ClusterConfig {
            nodes: 4,
            seed: 1,
            delay: DelayModel::Fixed(5),
            ..Default::default()
        },
        Gossip::new(25, 1),
    );
    let report = cluster.run(booking(30, 4, 7));
    assert!(report.mutually_consistent());
    assert!(report.rounds > 0);
    assert!(report.entries_shipped > 0);
    let te = report.timed_execution();
    te.execution
        .verify(&app)
        .expect("gossip runs satisfy §3.1 too");
    assert_eq!(report.final_states[0], te.execution.final_state(&app));
}

#[test]
fn slower_gossip_means_larger_k() {
    let app = FlyByNight::new(10);
    let run = |interval| {
        let cluster = Runner::new(
            &app,
            ClusterConfig {
                nodes: 4,
                seed: 2,
                delay: DelayModel::Fixed(5),
                ..Default::default()
            },
            Gossip::new(interval, 1),
        );
        let te = cluster.run(booking(40, 4, 5)).timed_execution();
        let counts: usize = shard_analysis_free_missed(&te.execution);
        counts
    };
    // Helper: total missed predecessors across the execution.
    fn shard_analysis_free_missed(e: &shard_core::Execution<FlyByNight>) -> usize {
        (0..e.len()).map(|i| conditions::missed_count(e, i)).sum()
    }
    let fast = run(10);
    let slow = run(400);
    assert!(
        slow > fast,
        "slow gossip {slow} must miss more than fast {fast}"
    );
}

#[test]
fn gossip_rides_out_partitions() {
    let app = FlyByNight::new(10);
    let partitions =
        PartitionSchedule::new(vec![PartitionWindow::isolate(0, 800, vec![NodeId(0)])]);
    let cluster = Runner::new(
        &app,
        ClusterConfig {
            nodes: 3,
            seed: 3,
            delay: DelayModel::Fixed(5),
            partitions,
            ..Default::default()
        },
        Gossip::new(30, 1),
    );
    let report = cluster.run(booking(15, 3, 10));
    // Batches to and from the isolated node wait in the link; everything
    // converges after the heal.
    assert!(report.missing().is_empty());
    assert!(report.mutually_consistent());
    let te = report.timed_execution();
    te.execution.verify(&app).unwrap();
}

/// A partition is the link's business, not the round's: nodes 0 and 1
/// execute everything while node 2 is cut off, their rounds hand its
/// link each entry once all the same (a cursor per peer, moved only by
/// what was sent to that peer), and the heal delivers the lot. The
/// parent's delta gossip advanced its one cursor past the peer it had
/// skipped and never offered these entries to node 2 again.
#[test]
fn an_isolated_peer_is_offered_what_it_missed() {
    let app = FlyByNight::new(10);
    let partitions =
        PartitionSchedule::new(vec![PartitionWindow::isolate(0, 1_000, vec![NodeId(2)])]);
    let cluster = Runner::new(
        &app,
        ClusterConfig {
            nodes: 3,
            seed: 6,
            delay: DelayModel::Fixed(5),
            partitions,
            ..Default::default()
        },
        Gossip::new(20, 2),
    );
    // `booking(.., 2, ..)` submits at nodes 0 and 1 only, until t = 400.
    let report = cluster.run(booking(20, 2, 10));
    assert_eq!(report.transactions.len(), 40);
    assert_eq!(report.missing(), &[]);
    assert!(report.mutually_consistent());
    // Each node offers each entry to each peer once — never a log twice.
    assert!(
        report.entries_shipped <= 40 * 3 * 2,
        "{} entries shipped for 40 transactions",
        report.entries_shipped
    );
}

/// A dropped message is a permanent loss, outside the link's contract:
/// the sender's cursor moved when the batch was handed over. The run
/// still ends — nobody has anything left to offer — and the report
/// names who lacks what.
#[test]
fn a_permanent_loss_ends_the_run_and_is_named() {
    let app = FlyByNight::new(10);
    let cluster = Runner::new(
        &app,
        ClusterConfig {
            nodes: 4,
            seed: 7,
            delay: DelayModel::Fixed(5),
            ..Default::default()
        },
        Gossip::new(25, 3),
    )
    .with_nemesis(Box::new(MessageDropper::new(0.5, 7)));
    let report = cluster.run(booking(30, 4, 7));
    assert_eq!(report.transactions.len(), 60);
    let missing = report.missing();
    assert!(!missing.is_empty(), "half of all batches were dropped");
    for (node, ts) in missing {
        assert!(node.0 < 4);
        let txn = report.transactions.iter().find(|t| t.ts == *ts);
        let txn = txn.expect("a missing timestamp is an executed transaction's");
        assert_ne!(txn.node, *node, "an origin holds its own update");
    }
}

#[test]
fn single_node_gossips_nothing() {
    let app = FlyByNight::new(10);
    let cluster = Runner::new(
        &app,
        ClusterConfig {
            nodes: 1,
            seed: 4,
            ..Default::default()
        },
        Gossip::new(10, 1),
    );
    let report = cluster.run(booking(5, 1, 3));
    assert_eq!(report.rounds, 0);
    assert_eq!(report.entries_shipped, 0);
    assert_eq!(report.final_states.len(), 1);
}

#[test]
#[should_panic(expected = "at least one partner")]
fn a_round_without_partners_is_refused() {
    let _ = Gossip::new(10, 0);
}

/// Links sample their delays independently, yet a round's batch never
/// overtakes the one before it on its link: whoever learns an update
/// already holds what its origin knew (§3.2), at either fanout.
#[test]
fn batches_arrive_in_the_order_they_were_offered() {
    let app = FlyByNight::new(10);
    for (seed, fanout) in (0..8).flat_map(|seed| [(seed, 1), (seed, 3)]) {
        let cfg = ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Exponential { mean: 30 },
            ..Default::default()
        };
        let report = Runner::new(&app, cfg, Gossip::new(5, fanout)).run(booking(60, 4, 3));
        assert_eq!(report.missing(), &[]);
        let execution = report.timed_execution().execution;
        assert!(
            conditions::is_transitive(&execution),
            "seed {seed}, fanout {fanout}"
        );
    }
}

#[test]
fn gossip_emits_the_shared_merge_trace_vocabulary() {
    // Gossip runs ride the kernel's traced merge, so their sidecars
    // carry the same merge.append / merge.out_of_order / merge.duplicate
    // events as flooding runs — pinned against the report's own metrics.
    let app = FlyByNight::new(10);
    let sink = shard_obs::EventSink::in_memory();
    let cluster = Runner::new(
        &app,
        ClusterConfig {
            nodes: 4,
            seed: 5,
            delay: DelayModel::Fixed(5),
            sink: Some(std::sync::Arc::clone(&sink)),
            ..Default::default()
        },
        Gossip::new(25, 1),
    );
    let report = cluster.run(booking(30, 4, 7));
    let summary = shard_obs::summarize(&sink.drain_to_string());
    assert_eq!(summary.malformed, 0);
    assert_eq!(summary.event_counts["execute"], 60);
    assert_eq!(summary.event_counts["deliver"], report.messages_sent);
    // Every delivered entry lands in exactly one merge.* bucket.
    let merges: u64 = ["merge.append", "merge.out_of_order", "merge.duplicate"]
        .iter()
        .map(|k| summary.event_counts.get(*k).copied().unwrap_or(0))
        .sum();
    assert_eq!(merges, report.entries_shipped);
    assert!(
        summary
            .event_counts
            .get("merge.duplicate")
            .copied()
            .unwrap_or(0)
            > 0,
        "an entry is offered to a peer once by every node that learns it"
    );
    let ooo: u64 = report.node_metrics.iter().map(|m| m.out_of_order).sum();
    assert_eq!(
        summary
            .event_counts
            .get("merge.out_of_order")
            .copied()
            .unwrap_or(0),
        ooo
    );
    let traced_replayed: u64 = summary.node_replay.values().map(|r| r.replayed).sum();
    assert_eq!(traced_replayed, report.total_replayed());
    assert!(summary.spans.contains_key("sim.gossip.run"));
}

#[test]
fn deterministic_per_seed() {
    let app = FlyByNight::new(10);
    let run = |seed| {
        Runner::new(
            &app,
            ClusterConfig {
                nodes: 3,
                seed,
                delay: DelayModel::Fixed(7),
                ..Default::default()
            },
            Gossip::new(20, 1),
        )
        .run(booking(20, 3, 4))
        .final_states
    };
    assert_eq!(run(9), run(9));
}
