//! Live-monitor integration: the kernel's in-run [`LiveMonitor`] must
//! agree **bit-for-bit** with the offline pipeline it shadows.
//!
//! Three claims are pinned here. (1) A monitored run's
//! [`StreamReport`] — verdicts, certificates, every summary number —
//! equals `shard_core::stream::par_check` over the finished report's
//! timed execution, for eager and gossip propagation, under faults, at
//! several window sizes. (2) The monitor is a pure observer: with
//! `monitor: None` the kernel behaves byte-identically (same
//! transactions, same trace lines), and switching the monitor on only
//! *adds* its own `txn` / `monitor.window` / `monitor.final` lines
//! without disturbing anything else. (3) `abort_on_violation` stops a
//! doomed run early and still hands back the violation certificate.

use shard_apps::airline::workload::AirlineWorkload;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_core::conditions::{is_transitive, max_missed, transitivity_violation};
use shard_core::stream::par_check;
use shard_obs::EventSink;
use shard_pool::PoolConfig;
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{
    ClusterConfig, CrashSchedule, CrashWindow, DelayModel, EagerBroadcast, Gossip, Invocation,
    MonitorConfig, NodeId, RunReport, Runner,
};

const NODES: u16 = 5;

fn invocations(seed: u64, n: usize) -> Vec<Invocation<AirlineTxn>> {
    let mut wl = AirlineWorkload::with_seed(seed);
    wl.take_txns(n)
        .into_iter()
        .enumerate()
        .map(|(i, txn)| Invocation::new(1 + 9 * i as u64, NodeId(i as u16 % NODES), txn))
        .collect()
}

/// Faulted config: a partition and a crash so knowledge actually has
/// holes (otherwise every miss set is empty and the checkers are
/// vacuous).
fn faulted_config(seed: u64, monitor: Option<MonitorConfig>) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        seed,
        delay: DelayModel::Exponential { mean: 40 },
        partitions: PartitionSchedule::new(vec![PartitionWindow::isolate(
            200,
            900,
            vec![NodeId(0), NodeId(1)],
        )]),
        crashes: CrashSchedule::new(vec![CrashWindow::new(NodeId(3), 400, 700)]),
        monitor,
        ..ClusterConfig::default()
    }
}

fn run_eager(seed: u64, cfg: ClusterConfig) -> RunReport<FlyByNight> {
    let app = FlyByNight::new(25);
    Runner::new(&app, cfg, EagerBroadcast::default()).run(invocations(seed, 120))
}

fn run_gossip(seed: u64, cfg: ClusterConfig) -> RunReport<FlyByNight> {
    let app = FlyByNight::new(25);
    Runner::new(&app, cfg, Gossip::new(25, 2)).run(invocations(seed, 120))
}

/// Claim (1): the online report equals the offline `par_check` on the
/// same window — verdict vectors, certificates, summary numbers, all of
/// it — and both agree with the original whole-execution checkers.
#[test]
fn online_report_equals_offline_par_check() {
    let pool = PoolConfig::sequential();
    for strategy in ["eager", "gossip"] {
        for window in [1usize, 7, 64] {
            let monitor = Some(MonitorConfig {
                window,
                emit_rows: true,
                abort_on_violation: false,
            });
            let report = match strategy {
                "eager" => run_eager(11, faulted_config(11, monitor)),
                _ => run_gossip(11, faulted_config(11, monitor)),
            };
            let online = report
                .monitor
                .as_ref()
                .expect("monitored run reports a StreamReport");
            assert!(!report.aborted, "abort was not requested");
            assert_eq!(online.rows, report.transactions.len());

            let te = report.timed_execution();
            let offline = par_check(&pool, &te, window);
            assert_eq!(
                online, &offline,
                "{strategy}/window {window}: online and offline disagree"
            );
            // …and both match the original §3 checkers.
            assert_eq!(online.transitive, is_transitive(&te.execution));
            assert_eq!(online.max_missed, max_missed(&te.execution));
            assert_eq!(online.min_delay_bound, te.min_delay_bound());
            if !online.transitive {
                let (low, mid, top) =
                    transitivity_violation(&te.execution).expect("offline witness");
                assert_eq!(
                    online.violation(),
                    Some(&shard_core::stream::Certificate::Transitivity { low, mid, top })
                );
            }
        }
    }
}

/// Claim (2): the monitor is a pure observer. The monitored run's
/// transactions are identical to the unmonitored run's, and its trace
/// is the unmonitored trace plus the monitor's own lines (`span` lines
/// carry wall-clock nanoseconds and are excluded from both sides).
#[test]
fn monitor_off_is_byte_identical_and_on_only_adds_lines() {
    let strip = |trace: &str, monitor_lines: bool| -> Vec<String> {
        trace
            .lines()
            .filter(|l| !l.contains("\"event\":\"span\""))
            .filter(|l| {
                monitor_lines
                    || !(l.contains("\"event\":\"txn\"") || l.contains("\"event\":\"monitor."))
            })
            .map(str::to_owned)
            .collect()
    };

    let plain_sink = EventSink::in_memory();
    let plain = run_eager(
        5,
        ClusterConfig {
            sink: Some(plain_sink.clone()),
            ..faulted_config(5, None)
        },
    );
    let watched_sink = EventSink::in_memory();
    let watched = run_eager(
        5,
        ClusterConfig {
            sink: Some(watched_sink.clone()),
            ..faulted_config(5, Some(MonitorConfig::default()))
        },
    );

    // Same behaviour…
    assert_eq!(plain.transactions.len(), watched.transactions.len());
    for (a, b) in plain.transactions.iter().zip(&watched.transactions) {
        assert_eq!(
            (a.ts, a.time, a.node, &a.known),
            (b.ts, b.time, b.node, &b.known)
        );
    }
    assert_eq!(plain.messages_sent, watched.messages_sent);
    assert_eq!(plain.final_states, watched.final_states);

    // …same trace once the monitor's own vocabulary is removed…
    let plain_trace = strip(&plain_sink.drain_to_string(), true);
    let watched_trace = watched_sink.drain_to_string();
    assert_eq!(plain_trace, strip(&watched_trace, false));

    // …and the monitor did add its vocabulary: one `txn` row per
    // transaction and a final verdict.
    let rows = watched_trace
        .lines()
        .filter(|l| l.contains("\"event\":\"txn\""))
        .count();
    assert_eq!(rows, watched.transactions.len());
    assert_eq!(
        watched_trace.matches("\"event\":\"monitor.final\"").count(),
        1,
        "exactly one final verdict per monitored run"
    );
}

/// Claim (3): with `abort_on_violation`, a run that would violate
/// transitivity stops early — fewer transactions than the full run —
/// and the report still carries the violation certificate.
#[test]
fn abort_on_violation_truncates_the_run_and_keeps_the_certificate() {
    // Find a seed whose full run violates transitivity (eager flooding
    // without piggybacking under random delays loses the condition
    // easily; the partition makes it near-certain).
    let mut violating = None;
    for seed in 0..25 {
        let report = run_eager(seed, faulted_config(seed, None));
        if !is_transitive(&report.timed_execution().execution) {
            violating = Some((seed, report.transactions.len()));
            break;
        }
    }
    let (seed, full_len) = violating.expect("no transitivity violation in 25 seeds");

    let monitor = Some(MonitorConfig {
        window: 1,
        emit_rows: true,
        abort_on_violation: true,
    });
    let report = run_eager(seed, faulted_config(seed, monitor));
    assert!(report.aborted, "the monitor must stop the run");
    let online = report.monitor.as_ref().expect("monitored");
    assert!(!online.transitive);
    let cert = online.violation().expect("violation certificate survives");
    assert!(matches!(
        cert,
        shard_core::stream::Certificate::Transitivity { .. }
    ));
    // The abort saved work: the truncated run executed no more
    // transactions than the full schedule (and the monitor saw them all).
    assert!(report.transactions.len() <= full_len);
    assert_eq!(online.rows, report.transactions.len());
}
