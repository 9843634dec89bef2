//! Durable mirrors under the threaded runtime: a live cluster writes
//! its WALs on real node threads, "exits", and a second process-like
//! run reopens the same directories and recovers every replica's state.

use shard_apps::dictionary::{DictTxn, Dictionary};
use shard_runtime::{run_live_durable, RuntimeConfig, Submission};
use shard_sim::{DurabilityConfig, DurableFleet, Gossip, MonitorConfig, NodeId};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("shard-runtime-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn live_cluster_recovers_state_across_restart() {
    run_restart_restart("durable-restart", None);
}

/// The §3 monitor covers one process lifetime: recovered timestamps sit
/// in every known set but never execute — hence never seal — in the
/// restarted run, so the combination is refused up front, by name
/// (it used to die of `capacity overflow` in the monitor thread).
#[test]
#[should_panic(expected = "cannot start from recovered mirrors: 30 recovered entries")]
fn monitored_restart_is_refused() {
    run_restart_restart("durable-monitored", Some(MonitorConfig::default()));
}

/// Run, restart idle, restart with new submissions; the restarts run
/// under `restart_monitor` and are traced.
fn run_restart_restart(name: &str, restart_monitor: Option<MonitorConfig>) {
    let dir = tmp(name);
    let app = Dictionary;
    let cfg = RuntimeConfig {
        nodes: 3,
        seed: 7,
        ..Default::default()
    };
    let subs: Vec<Submission<DictTxn>> = (0..30u32)
        .map(|i| Submission {
            at_us: u64::from(i) * 200,
            node: NodeId((i % 3) as u16),
            decision: DictTxn::Insert(i % 11, u64::from(i) * 7),
        })
        .collect();
    let fleet: DurableFleet<Dictionary> =
        DurableFleet::new(3, &DurabilityConfig::disk(&dir, 0)).unwrap();
    let first = run_live_durable(
        &app,
        &cfg,
        Gossip::new(2_000, u16::MAX),
        subs,
        fleet.into_mirrors(),
    );
    assert_eq!(first.report.transactions.len(), 30);
    assert!(first.report.mutually_consistent(), "live run converged");
    let want = first.report.final_states[0].clone();

    // "Restart": a fresh fleet on the same directories. Every mirror
    // holds entries, so every node is rebuilt from its WAL before the
    // threads start; with no submissions the run just quiesces and
    // reports the recovered states.
    let fleet: DurableFleet<Dictionary> =
        DurableFleet::new(3, &DurabilityConfig::disk(&dir, 1)).unwrap();
    let cfg = RuntimeConfig {
        monitor: restart_monitor,
        sink: Some(shard_obs::EventSink::in_memory()),
        ..cfg
    };
    let second = run_live_durable(
        &app,
        &cfg,
        Gossip::new(2_000, u16::MAX),
        Vec::new(),
        fleet.into_mirrors(),
    );
    assert_eq!(
        second.report.final_states,
        vec![want.clone(), want.clone(), want],
        "all replicas recovered their pre-restart state from disk"
    );
    // The restart shows in the trace exactly as a kernel restart does:
    // one `store.recover` per recovered node, each with all 30 entries.
    let trace = cfg.sink.as_deref().expect("traced").drain_to_string();
    let recovers: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"event\":\"store.recover\""))
        .collect();
    assert_eq!(recovers.len(), 3, "{trace}");
    assert!(recovers.iter().all(|l| l.contains("\"entries\":30")));

    // And a restarted cluster keeps working: new submissions execute on
    // top of the recovered logs and re-converge.
    let fleet: DurableFleet<Dictionary> =
        DurableFleet::new(3, &DurabilityConfig::disk(&dir, 2)).unwrap();
    let subs: Vec<Submission<DictTxn>> = (0..9u32)
        .map(|i| Submission {
            at_us: u64::from(i) * 100,
            node: NodeId((i % 3) as u16),
            decision: DictTxn::Insert(100 + i, u64::from(i)),
        })
        .collect();
    let third = run_live_durable(
        &app,
        &cfg,
        Gossip::new(2_000, u16::MAX),
        subs,
        fleet.into_mirrors(),
    );
    assert_eq!(third.report.transactions.len(), 9);
    assert!(
        third.report.mutually_consistent(),
        "restarted run converged"
    );
    let state = &third.report.final_states[0];
    assert!(
        state.get(100).is_some() && state.get(5).is_some(),
        "recovered state and new writes coexist: {state:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
