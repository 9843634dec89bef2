//! Property-based tests across the simulator's three broadcast/
//! replication modes: whatever the transport, the emitted executions
//! must satisfy the formal model and replicas must converge on what
//! they replicate.

use proptest::prelude::*;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_apps::dictionary::{DictTxn, Dictionary};
use shard_apps::Person;
use shard_core::{Application, ObjectModel, StreamRow};
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{
    ClusterConfig, CrashSchedule, CrashWindow, DelayModel, Gossip, Invocation, MonitorConfig,
    NodeId, Placement, RunReport, Runner,
};

/// The forward walk `timed_execution` built every prefix by before it
/// built them from misses — each known timestamp resolved to its serial
/// index, O(Σ|known|) — kept as the reference: the formal execution's
/// prefixes must be exactly these, and (given a monitored run's trace)
/// so must the complements of the rows the judge emitted.
fn assert_matches_forward_walk<A: Application>(report: &RunReport<A>, trace: Option<&str>) {
    let walk: Vec<Vec<usize>> = report
        .transactions
        .iter()
        .map(|t| {
            let mut at = 0;
            let index_of = |ts| {
                at += report.transactions[at..]
                    .iter()
                    .position(|x| x.ts == ts)
                    .expect("every known timestamp belongs to an executed transaction");
                at
            };
            let mut known = report.known(t).to_vec();
            known.sort_unstable();
            known.into_iter().map(index_of).collect()
        })
        .collect();
    let te = report.timed_execution();
    assert_eq!(te.execution.len(), walk.len());
    for (i, record) in te.execution.iter() {
        assert_eq!(record.prefix.iter().collect::<Vec<_>>(), walk[i], "txn {i}");
        assert_eq!(te.times[i], report.transactions[i].time);
    }
    let Some(trace) = trace else { return };
    let rows = trace
        .lines()
        .filter_map(|l| StreamRow::from_json_line(l).ok());
    let expect = walk
        .iter()
        .zip(&te.times)
        .enumerate()
        .map(|(i, (seen, &time))| StreamRow {
            index: i,
            time,
            missed: (0..i).filter(|j| seen.binary_search(j).is_err()).collect(),
        });
    assert_eq!(rows.collect::<Vec<_>>(), expect.collect::<Vec<_>>());
}

/// A judge that emits every row into `cfg`'s in-memory sink.
fn monitored(cfg: ClusterConfig) -> (ClusterConfig, std::sync::Arc<shard_obs::EventSink>) {
    let sink = shard_obs::EventSink::in_memory();
    let cfg = ClusterConfig {
        monitor: Some(MonitorConfig::default()),
        sink: Some(sink.clone()),
        ..cfg
    };
    (cfg, sink)
}

fn airline_invs() -> impl Strategy<Value = Vec<Invocation<AirlineTxn>>> {
    proptest::collection::vec(
        (
            prop_oneof![
                (1u32..12).prop_map(|p| AirlineTxn::Request(Person(p))),
                (1u32..12).prop_map(|p| AirlineTxn::Cancel(Person(p))),
                Just(AirlineTxn::MoveUp),
                Just(AirlineTxn::MoveDown),
            ],
            0u64..400,
            0u16..4,
        ),
        0..60,
    )
    .prop_map(|v| {
        let mut invs: Vec<_> = v
            .into_iter()
            .map(|(d, t, n)| Invocation::new(t, NodeId(n), d))
            .collect();
        invs.sort_by_key(|i| i.time);
        invs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gossip mode: valid executions, convergence, no lost transactions.
    #[test]
    fn gossip_mode_is_sound(
        invs in airline_invs(),
        seed in 0u64..500,
        interval in 5u64..200,
    ) {
        let app = FlyByNight::new(4);
        let cluster = Runner::new(
            &app,
            ClusterConfig {
                nodes: 4,
                seed,
                delay: DelayModel::Exponential { mean: 20 },
                ..Default::default()
            },
            Gossip::new(interval, 1),
        );
        let n = invs.len();
        let report = cluster.run(invs);
        prop_assert_eq!(report.transactions.len(), n);
        prop_assert!(report.mutually_consistent());
        let te = report.timed_execution();
        prop_assert!(te.execution.verify(&app).is_ok());
    }

    /// Crash mode: rejected + executed partitions the submissions; the
    /// execution stays valid and replicas converge.
    #[test]
    fn crash_mode_is_sound(
        invs in airline_invs(),
        seed in 0u64..500,
        start in 0u64..300,
        len in 1u64..300,
        victim in 0u16..4,
    ) {
        let app = FlyByNight::new(4);
        let crashes =
            CrashSchedule::new(vec![CrashWindow::new(NodeId(victim), start, start + len)]);
        let cluster = Runner::eager(
            &app,
            ClusterConfig {
                nodes: 4,
                seed,
                delay: DelayModel::Fixed(9),
                crashes,
                ..Default::default()
            },
        );
        let n = invs.len();
        let report = cluster.run(invs);
        prop_assert_eq!(report.transactions.len() + report.rejected.len(), n);
        let rejects_in_window = report
            .rejected
            .iter()
            .all(|(t, node)| *node == NodeId(victim) && *t >= start && *t < start + len);
        prop_assert!(rejects_in_window);
        prop_assert!(report.mutually_consistent());
        prop_assert!(report.timed_execution().execution.verify(&app).is_ok());
        assert_matches_forward_walk(&report, None);
    }

    /// Partial replication of the dictionary: per-bucket agreement and
    /// valid executions for arbitrary key workloads.
    #[test]
    fn partial_dictionary_is_sound(
        ops in proptest::collection::vec((0u8..3, 0u32..32, 0u64..300), 0..50),
        seed in 0u64..500,
        factor in 1u16..4,
    ) {
        let app = Dictionary;
        let objects = app.objects();
        let placement = Placement::round_robin(4, &objects, factor);
        let mut invs = Vec::new();
        for (kind, key, t) in ops {
            let txn = match kind {
                0 => DictTxn::Insert(key, u64::from(key) + 1),
                1 => DictTxn::Delete(key),
                _ => DictTxn::Lookup(key),
            };
            let Some(node) = placement.any_holder_of_all(&app.decision_objects(&txn)) else {
                continue;
            };
            invs.push(Invocation::new(t, node, txn));
        }
        invs.sort_by_key(|i| i.time);
        let cluster = Runner::new(
            &app,
            ClusterConfig {
                nodes: 4,
                seed,
                delay: DelayModel::Exponential { mean: 15 },
                ..Default::default()
            },
            placement.clone(),
        );
        let report = cluster.run(invs);
        prop_assert!(report.objects_consistent(&app, &placement));
        prop_assert!(report.timed_execution().execution.verify(&app).is_ok());
        assert_matches_forward_walk(&report, None);
    }

    /// The formal execution and the judge's rows are what the
    /// forward walk over the known sets says, under a partition (eager)
    /// and under anti-entropy (gossip) — the two ways knowledge gets
    /// holes that reach far back.
    #[test]
    fn prefixes_and_monitor_rows_match_the_forward_walk(
        invs in airline_invs(),
        seed in 0u64..500,
        (start, len, side) in (0u64..300, 1u64..300, 1u16..4),
        interval in 5u64..200,
    ) {
        let app = FlyByNight::new(4);
        let cfg = ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Exponential { mean: 20 },
            ..Default::default()
        };
        let isolated = (0..side).map(NodeId).collect();
        let (eager, sink) = monitored(ClusterConfig {
            partitions: PartitionSchedule::new(vec![PartitionWindow::isolate(
                start,
                start + len,
                isolated,
            )]),
            ..cfg.clone()
        });
        let report = Runner::eager(&app, eager).run(invs.clone());
        assert_matches_forward_walk(&report, Some(&sink.drain_to_string()));
        let (gossip, sink) = monitored(cfg);
        let report = Runner::new(&app, gossip, Gossip::new(interval, 1)).run(invs);
        assert_matches_forward_walk(&report, Some(&sink.drain_to_string()));
    }

    /// Flood and gossip agree on the *final* database (same invocations,
    /// same serial-order semantics — only staleness differs in flight).
    #[test]
    fn flood_and_gossip_agree_on_the_final_state(
        invs in airline_invs(),
        seed in 0u64..500,
    ) {
        let app = FlyByNight::new(4);
        let cfg = ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Fixed(11),
            ..Default::default()
        };
        // NOTE: decisions depend on what each node has *seen*, so the
        // two transports can pick different updates; what must agree is
        // each system with its own formal execution. Compare each
        // against its own model rather than against each other.
        let flood = Runner::eager(&app, cfg.clone()).run(invs.clone());
        let te = flood.timed_execution();
        prop_assert_eq!(&flood.final_states[0], &te.execution.final_state(&app));
        let gossip =
            Runner::new(&app, cfg, Gossip::new(40, 1)).run(invs);
        let te = gossip.timed_execution();
        prop_assert_eq!(&gossip.final_states[0], &te.execution.final_state(&app));
    }

    /// Partition schedules: `next_connected` always returns a time at
    /// which the pair is in fact connected, and `connected` is symmetric.
    #[test]
    fn partition_queries_are_coherent(
        windows in proptest::collection::vec((0u64..200, 1u64..200, 0u16..4), 0..4),
        t in 0u64..500,
        a in 0u16..4,
        b in 0u16..4,
    ) {
        let schedule = PartitionSchedule::new(
            windows
                .into_iter()
                .map(|(s, len, node)| PartitionWindow::isolate(s, s + len, vec![NodeId(node)]))
                .collect(),
        );
        let (a, b) = (NodeId(a), NodeId(b));
        prop_assert_eq!(schedule.connected(t, a, b), schedule.connected(t, b, a));
        let up = schedule.next_connected(t, a, b);
        prop_assert!(up >= t);
        prop_assert!(schedule.connected(up, a, b));
    }
}
