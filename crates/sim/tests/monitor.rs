//! Judge integration: the §3 judge of a finished kernel run
//! ([`RunReport::judge`]) must agree **bit-for-bit** with the offline
//! pipeline it streams.
//!
//! Three claims are pinned here. (1) A monitored run's
//! [`StreamReport`] — verdicts, certificates, every summary number —
//! equals `shard_core::stream::par_check` over the finished report's
//! timed execution, for eager and gossip propagation, under faults, at
//! several window sizes. (2) The judge is a pure observer: with
//! `monitor: None` the kernel behaves byte-identically (same
//! transactions, same trace lines), and switching the judge on only
//! *adds* its own `txn` / `monitor.window` / `monitor.final` lines
//! without disturbing anything else. (3) `abort_on_violation` is inert:
//! a run that violates transitivity is judged whole, and its
//! certificate checks against its own trace.
//!
//! [`StreamReport`]: shard_core::stream::StreamReport

use shard_apps::airline::workload::AirlineWorkload;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_core::conditions::{is_transitive, max_missed};
use shard_core::stream::{par_check, Certificate};
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
    (0..n)
        .map(|i| Invocation::new(1 + 9 * i as u64, NodeId(i as u16 % NODES), wl.next_txn()))
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
/// it — and both agree with the whole-execution checkers of k and t.
#[test]
fn online_report_equals_offline_par_check() {
    let pool = PoolConfig::sequential();
    for strategy in ["eager", "gossip"] {
        for window in [1usize, 7, 64] {
            let monitor = Some(MonitorConfig {
                window,
                emit_rows: true,
                ..MonitorConfig::default()
            });
            let report = match strategy {
                "eager" => run_eager(11, faulted_config(11, monitor)),
                _ => run_gossip(11, faulted_config(11, monitor)),
            };
            let online = report
                .monitor
                .as_ref()
                .expect("monitored run reports a StreamReport");
            assert_eq!(online.rows, report.transactions.len());

            let te = report.timed_execution();
            let offline = par_check(&pool, &te, window);
            assert_eq!(
                online, &offline,
                "{strategy}/window {window}: online and offline disagree"
            );
            // …and both match the miss-set walks of §3's k and t.
            assert_eq!(online.max_missed, max_missed(&te.execution));
            assert_eq!(online.min_delay_bound, te.min_delay_bound());
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
            (a.ts, a.time, a.node, a.known, plain.known(a)),
            (b.ts, b.time, b.node, b.known, watched.known(b))
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

/// Claim (3): `abort_on_violation` is inert. On a seed whose run
/// violates transitivity, the report with the flag set is the report
/// without it; the judge covered every transaction; and its
/// transitivity certificate checks against that run's own trace.
#[test]
fn abort_on_violation_is_inert_and_the_whole_run_is_judged() {
    // Find a seed whose full run violates transitivity (eager flooding
    // without piggybacking under random delays loses the condition
    // easily; the partition makes it near-certain).
    let seed = (0..25)
        .find(|&seed| {
            let report = run_eager(seed, faulted_config(seed, None));
            !is_transitive(&report.timed_execution().execution)
        })
        .expect("no transitivity violation in 25 seeds");

    let judged = |abort_on_violation: bool| {
        let sink = EventSink::in_memory();
        let monitor = Some(MonitorConfig {
            window: 1,
            emit_rows: true,
            abort_on_violation,
        });
        let cfg = ClusterConfig {
            sink: Some(sink.clone()),
            ..faulted_config(seed, monitor)
        };
        (run_eager(seed, cfg), sink.drain_to_string())
    };
    let (report, trace) = judged(true);
    let (unflagged, _) = judged(false);
    assert_eq!(format!("{report:?}"), format!("{unflagged:?}"));

    let online = report.monitor.as_ref().expect("monitored");
    assert_eq!(online.rows, report.transactions.len());
    assert_eq!(
        report.transactions.len() + report.rejected.len(),
        120,
        "the whole schedule ran"
    );
    assert!(!online.transitive);
    let cert = online.violation().expect("violation certificate");
    assert!(matches!(cert, Certificate::Transitivity { .. }));
    let verdict = shard_obs::certify(&trace, &cert.to_json())
        .expect("the certificate validates against the run's trace");
    assert_eq!(verdict.property, "transitivity");
}
