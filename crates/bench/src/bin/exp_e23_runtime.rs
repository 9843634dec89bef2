//! E23 — the threaded live deployment at scale: throughput, latency
//! and record–replay fidelity at 10⁵ transactions (extension).
//!
//! E01–E22 verify the paper's conditions inside the deterministic
//! simulator; the `shard-runtime` crate runs the same kernel node
//! objects on OS threads with per-node inboxes and wall-clock pacing.
//! This experiment drives a Zipf-skewed banking workload of 10⁵
//! transactions (override with `SHARD_E23_TXNS`) through all three
//! live modes and pins down:
//!
//! Claims:
//! * **record–replay fidelity at scale** — each live run's recorded
//!   delivery schedule, replayed through the deterministic kernel,
//!   reproduces the threaded run exactly (report digests equal) in all
//!   three modes;
//! * **the live path is linear** — every mode sustains ≥ 5,000 txn/s
//!   end to end on a single core (the O(n²) known-set materialization
//!   and whole-log gossip rounds that once made 10⁵-transaction runs
//!   infeasible are gone: known sets recorded as arrival counts, batched
//!   run-splice merging, and delta gossip are each O(log n) or
//!   amortized O(1) per transaction).
//!
//! Client-observed latency (submission → execution, in µs) comes from
//! the `runtime.<mode>.latency_us` histograms every live run records;
//! the quantiles and throughputs land in `BENCH_runtime.json` at the
//! repository root — from a 10⁵-transaction run only: any other size
//! leaves the file alone. `ci.sh` runs it at `SHARD_E23_TXNS=2000`
//! under `timeout 120`, so a live run that never reaches its quiet
//! point fails the gate instead of hanging it.

use shard_analysis::{ClaimCheck, Table};
use shard_apps::banking::{Bank, BankTxn};
use shard_core::ObjectModel;
use shard_obs::RuntimeMetrics;
use shard_runtime::{
    banking_submissions, replay, report_digest, run_live, LiveRun, Pacing, RuntimeConfig,
    Submission,
};
use shard_sim::partial::Placement;
use shard_sim::{EagerBroadcast, Gossip, Propagation, RunReport};

const NODES: u16 = 4;
const ACCOUNTS: u32 = 64;
const ZIPF_S: f64 = 1.1;
const GOSSIP_INTERVAL_US: u64 = 500;
const MIN_TXN_PER_S: f64 = 5_000.0;
/// The run size `BENCH_runtime.json` records.
const RECORDED_TXNS: usize = 100_000;

struct ModeResult {
    mode: &'static str,
    txns: usize,
    wall_us: u64,
    throughput: f64,
    fidelity: bool,
    latency: shard_obs::HistogramSnapshot,
}

/// Runs `subs` live under `strategy`, then replays the recorded
/// schedule through the kernel under a clone of the same value. Also
/// returns the strategy's label, which names its `runtime.<label>.*`
/// metrics.
fn live_then_replay<P>(
    bank: &Bank,
    cfg: &RuntimeConfig,
    strategy: P,
    subs: &[Submission<BankTxn>],
) -> (LiveRun<Bank>, RunReport<Bank>, &'static str)
where
    P: Propagation<Bank> + Clone + Send,
{
    let label = strategy.label();
    let live = run_live(bank, cfg, strategy.clone(), subs.to_vec());
    let replayed = replay(bank, cfg, strategy, subs, &live.schedule);
    (live, replayed, label)
}

fn run_mode(mode: &'static str, txns: usize, seed: u64) -> ModeResult {
    let bank = Bank::new(ACCOUNTS, 100);
    let cfg = RuntimeConfig {
        nodes: NODES,
        seed,
        checkpoint_every: 32,
        monitor: None,
        sink: None,
    };
    let placement = (mode == "partial")
        .then(|| Placement::round_robin(NODES, &bank.objects(), NODES.div_ceil(2)));
    let subs = banking_submissions(
        &bank,
        seed,
        txns,
        NODES,
        ZIPF_S,
        Pacing::Closed,
        placement.as_ref(),
    );
    let (live, replayed, label) = match mode {
        "eager" => live_then_replay(&bank, &cfg, EagerBroadcast::default(), &subs),
        "gossip" => live_then_replay(&bank, &cfg, Gossip::new(GOSSIP_INTERVAL_US, NODES), &subs),
        _ => {
            let placement = placement.expect("partial mode built a placement");
            live_then_replay(&bank, &cfg, placement, &subs)
        }
    };
    let executed = live.report.transactions.len();
    ModeResult {
        mode,
        txns: executed,
        wall_us: live.wall_us,
        throughput: executed as f64 / (live.wall_us as f64 / 1e6),
        fidelity: report_digest(&live.report) == report_digest(&replayed),
        latency: RuntimeMetrics::for_mode(label).latency(),
    }
}

fn main() {
    let mut exp = shard_bench::Experiment::start("e23");
    let txns: usize = std::env::var("SHARD_E23_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(RECORDED_TXNS);
    println!(
        "E23: threaded live deployment — {txns} Zipf({ZIPF_S})-skewed banking txns, \
         {NODES} node threads, closed pacing\n"
    );

    let results: Vec<ModeResult> = [("eager", 1u64), ("gossip", 2), ("partial", 3)]
        .into_iter()
        .map(|(mode, seed)| run_mode(mode, txns, seed))
        .collect();

    let mut t = Table::new(
        "E23 live modes",
        &[
            "mode",
            "txns",
            "wall_ms",
            "txn/s",
            "lat_p50_us",
            "lat_p90_us",
            "lat_p99_us",
            "fidelity",
        ],
    );
    for r in &results {
        t.push_row(vec![
            r.mode.to_string(),
            r.txns.to_string(),
            format!("{:.1}", r.wall_us as f64 / 1e3),
            format!("{:.0}", r.throughput),
            format!("{:.0}", r.latency.quantile(0.50)),
            format!("{:.0}", r.latency.quantile(0.90)),
            format!("{:.0}", r.latency.quantile(0.99)),
            if r.fidelity { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut fidelity = ClaimCheck::new(
        "every live mode's recorded schedule replays to an identical report digest",
    );
    for r in &results {
        fidelity
            .record((!r.fidelity).then(|| format!("{}: live and replay digests diverge", r.mode)));
    }
    exp.claim(fidelity);

    let mut linear = ClaimCheck::new(format!(
        "every live mode sustains >= 5000 txn/s at {txns} txns"
    ));
    for r in &results {
        linear.record(
            (r.throughput < MIN_TXN_PER_S)
                .then(|| format!("{}: {:.0} txn/s over {} txns", r.mode, r.throughput, r.txns)),
        );
    }
    exp.claim(linear);

    let mode_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\n    \"mode\": \"{}\",\n    \"txns\": {},\n    \"wall_us\": {},\n    \
                 \"txn_per_s\": {:.0},\n    \"latency_us\": {{\"p50\": {:.0}, \"p90\": {:.0}, \
                 \"p99\": {:.0}, \"max\": {}}},\n    \"fidelity\": {}\n  }}",
                r.mode,
                r.txns,
                r.wall_us,
                r.throughput,
                r.latency.quantile(0.50),
                r.latency.quantile(0.90),
                r.latency.quantile(0.99),
                r.latency.max,
                r.fidelity
            )
        })
        .collect();
    let json = format!(
        "{{\n \"bench\": \"runtime_live\",\n \"workload\": \"closed Zipf({ZIPF_S}) banking, \
         {txns} txns, {NODES} node threads, {ACCOUNTS} accounts\",\n \
         \"gossip_interval_us\": {GOSSIP_INTERVAL_US},\n \"modes\": [\n{}\n ],\n \
         \"note\": \"single-run wall times; latency is submission-to-execution from the \
         runtime.<mode>.latency_us histograms; fidelity compares the live report digest \
         with its kernel replay\"\n}}\n",
        mode_json.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    if txns != RECORDED_TXNS {
        println!("left {path} alone: it records a {RECORDED_TXNS}-txn run, this run's was {txns}");
    } else {
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    exp.finish();
}
