//! `shard-runtime` — run a seeded banking workload live on OS threads,
//! replay the recorded delivery schedule through the deterministic
//! kernel, and verify record–replay fidelity.
//!
//! ```text
//! shard-runtime [--mode eager|gossip|partial] [--nodes N] [--txns N]
//!               [--seed S] [--accounts A] [--zipf S] [--gap-us G]
//!               [--interval-us G] [--monitor] [--trace FILE]
//!               [--out FILE] [--replay-out FILE]
//! ```
//!
//! Exits 0 and prints `fidelity: PASS` when the replayed report is
//! identical to the live one (all fields except the fault tally);
//! exits 1 with `fidelity: FAIL` otherwise. `--out`/`--replay-out`
//! write the two reports' comparable facts as JSON documents that
//! `shard-trace diff` can compare (the CI smoke gate does exactly
//! that).

use shard_apps::banking::{Bank, BankTxn};
use shard_core::ObjectModel;
use shard_runtime::{
    banking_submissions, replay, report_digest, report_json, run_live, LiveRun, Pacing,
    RuntimeConfig, Submission,
};
use shard_sim::{
    EagerBroadcast, Gossip, MonitorConfig, PartialPlacement, Placement, Propagation, RunReport,
};
use std::process::ExitCode;

/// Runs `subs` live under `strategy`, then replays the recorded
/// schedule through the kernel under a clone of the same value.
fn live_then_replay<P>(
    bank: &Bank,
    cfg: &RuntimeConfig,
    strategy: P,
    subs: &[Submission<BankTxn>],
) -> (LiveRun<Bank>, RunReport<Bank>)
where
    P: Propagation<Bank> + Clone + Send,
{
    let live = run_live(bank, cfg, strategy.clone(), subs.to_vec());
    // The live trace already holds every event: replay untraced.
    let untraced = RuntimeConfig {
        sink: None,
        ..cfg.clone()
    };
    let replayed = replay(bank, &untraced, strategy, subs, &live.schedule);
    (live, replayed)
}

struct Args {
    mode: String,
    nodes: u16,
    txns: usize,
    seed: u64,
    accounts: u32,
    zipf: f64,
    gap_us: Option<u64>,
    interval_us: u64,
    monitor: bool,
    trace: Option<String>,
    out: Option<String>,
    replay_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: "eager".into(),
        nodes: 3,
        txns: 2_000,
        seed: 1,
        accounts: 32,
        zipf: 1.0,
        gap_us: None,
        interval_us: 500,
        monitor: false,
        trace: None,
        out: None,
        replay_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--mode" => args.mode = val("--mode")?,
            "--nodes" => args.nodes = val("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--txns" => args.txns = val("--txns")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--accounts" => {
                args.accounts = val("--accounts")?.parse().map_err(|e| format!("{e}"))?
            }
            "--zipf" => args.zipf = val("--zipf")?.parse().map_err(|e| format!("{e}"))?,
            "--gap-us" => args.gap_us = Some(val("--gap-us")?.parse().map_err(|e| format!("{e}"))?),
            "--interval-us" => {
                args.interval_us = val("--interval-us")?.parse().map_err(|e| format!("{e}"))?
            }
            "--monitor" => args.monitor = true,
            "--trace" => args.trace = Some(val("--trace")?),
            "--out" => args.out = Some(val("--out")?),
            "--replay-out" => args.replay_out = Some(val("--replay-out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !matches!(args.mode.as_str(), "eager" | "gossip" | "partial") {
        return Err(format!("unknown mode {}", args.mode));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shard-runtime: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bank = Bank::new(args.accounts, 100);
    let pacing = match args.gap_us {
        Some(gap_us) => Pacing::Open { gap_us },
        None => Pacing::Closed,
    };
    let mut cfg = RuntimeConfig {
        nodes: args.nodes,
        seed: args.seed,
        checkpoint_every: 32,
        monitor: args.monitor.then(MonitorConfig::default),
        sink: None,
    };
    if let Some(path) = &args.trace {
        match shard_obs::EventSink::to_file(path) {
            Ok(sink) => cfg.sink = Some(sink),
            Err(e) => {
                eprintln!("shard-runtime: cannot open trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Partial replication routes by placement; the others draw origin
    // nodes uniformly.
    let placement = (args.mode == "partial")
        .then(|| Placement::round_robin(args.nodes, &bank.objects(), args.nodes.div_ceil(2)));
    let subs = banking_submissions(
        &bank,
        args.seed,
        args.txns,
        args.nodes,
        args.zipf,
        pacing,
        placement.as_ref(),
    );

    let (live, replayed) = match args.mode.as_str() {
        "eager" => live_then_replay(&bank, &cfg, EagerBroadcast::default(), &subs),
        // Full fanout (no partner sampling): what replay needs.
        "gossip" => live_then_replay(&bank, &cfg, Gossip::new(args.interval_us, u16::MAX), &subs),
        _ => {
            let placement = placement.expect("partial mode built a placement");
            live_then_replay(&bank, &cfg, PartialPlacement::new(placement), &subs)
        }
    };

    let live_digest = report_digest(&live.report);
    let replay_digest = report_digest(&replayed);
    let secs = live.wall_us as f64 / 1e6;
    println!(
        "mode={} nodes={} txns={} wall={:.3}s throughput={:.0} txn/s messages={} rounds={}",
        args.mode,
        args.nodes,
        live.report.transactions.len(),
        secs,
        live.report.transactions.len() as f64 / secs.max(1e-9),
        live.report.messages_sent,
        live.report.rounds,
    );
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report_json(&live.report, live.wall_us)) {
            eprintln!("shard-runtime: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.replay_out {
        if let Err(e) = std::fs::write(path, report_json(&replayed, 0)) {
            eprintln!("shard-runtime: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if live_digest == replay_digest {
        println!("fidelity: PASS ({live_digest:016x})");
        ExitCode::SUCCESS
    } else {
        println!("fidelity: FAIL (live {live_digest:016x} != replay {replay_digest:016x})");
        ExitCode::FAILURE
    }
}
