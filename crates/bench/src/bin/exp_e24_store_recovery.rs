//! E24 — durable storage and real crash-recovery (extension).
//!
//! E18 models crashes as *outages*: a down node misses traffic and
//! catches up by log replay, but its log itself is assumed immortal.
//! `shard-store` + `shard_sim::durable` drop that assumption: every
//! node mirrors its merge log into a WAL-backed store (own updates
//! fsynced *before* propagation), a kill truncates the store at an
//! arbitrary unsynced offset, and recovery rebuilds the node from
//! whatever survived on disk. This experiment pins down three claims:
//!
//! * **transparency** — with no kill windows, a durable run (Mem or
//!   Disk backend) produces a report digest identical to the plain
//!   run's, and clean opens truncate no torn WAL tails
//!   (`store.wal_torn_truncations` stays 0 until the kill sweep);
//! * **recovery soundness** — across ≥ 10 seeded kill points per
//!   strategy (anti-entropy gossip, one random partner per round; gossip
//!   to every peer at each execution), every disk-backed run passes the §3
//!   oracles: the recorded execution verifies, transitivity holds (Thm 2
//!   reasoning survives restarts), the Corollary 8 invariant bound
//!   holds with `k` measured across the kills, all replicas re-converge
//!   with nothing missing, the final state equals the canonical serial
//!   replay, and the in-kernel streaming monitor's certified verdicts
//!   equal the offline `par_check` fold (certificates included);
//! * **replay-from-disk perf** — reopening a `DiskStore` holding a
//!   10⁵-entry WAL (override with `SHARD_E24_REPLAY`) and replaying it
//!   into a fresh node completes within 3× of the same replay from a
//!   `MemStore`. Numbers land in `BENCH_store.json` at the repo root,
//!   and only from a run at the default 10⁵ entries the file records.

use shard_analysis::claims::check_invariant_bound;
use shard_analysis::{ClaimCheck, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{FlyByNight, OVERBOOKING};
use shard_apps::dictionary::{DictUpdate, Dictionary};
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_core::stream::par_check;
use shard_obs::Registry;
use shard_pool::PoolConfig;
use shard_runtime::report_digest;
use shard_sim::{
    ClusterConfig, CrashInjector, DelayModel, DurabilityConfig, DurableFleet, FaultStats, Gossip,
    MergeLog, MonitorConfig, NodeId, NodeMirror, Runner, Timestamp,
};
use std::sync::Arc;
use std::time::Instant;

const NODES: u16 = 4;
const TXNS: usize = 300;
const SWEEP_SEEDS: [u64; 6] = [3, 17, 88, 151, 909, 4242];
const KILLS_PER_RUN: usize = 2;
/// Gossip rounds by the clock to one random partner, and at each
/// execution to every peer.
const STRATEGIES: [&str; 2] = ["gossip", "gossip-per-exec"];
const MAX_DISK_OVER_MEM: f64 = 3.0;
/// Replay entries at the default scale — the one `BENCH_store.json`
/// records.
const REPLAY: usize = 100_000;

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("shard-e24-{tag}-{}", std::process::id()))
}

fn torn_truncations() -> u64 {
    Registry::global()
        .counter("store.wal_torn_truncations")
        .get()
}

fn base_cfg(seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        seed,
        delay: DelayModel::Exponential { mean: 12 },
        monitor: Some(MonitorConfig {
            window: 32,
            emit_rows: false,
            ..MonitorConfig::default()
        }),
        ..ClusterConfig::default()
    }
}

/// One disk-backed kill-sweep run; returns the kill points it injected.
#[allow(clippy::too_many_lines)]
fn sweep_run(
    app: &FlyByNight,
    strategy: &'static str,
    seed: u64,
    f: &BoundFn,
    t: &mut Table,
    claim: &mut ClaimCheck,
) -> usize {
    let dir = tmp(&format!("{strategy}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet: DurableFleet<FlyByNight> =
        DurableFleet::new(NODES, &DurabilityConfig::disk(&dir, seed ^ 0xD15C)).unwrap();
    let invs = airline_invocations(seed, TXNS, NODES, 7, AirlineMix::default(), Routing::Random);
    let gossip = match strategy {
        "gossip" => Gossip::new(20, 1),
        _ => Gossip::new(0, NODES - 1),
    };
    let report = Runner::new(app, base_cfg(seed), gossip)
        .with_durability(fleet)
        .with_nemesis(Box::new(CrashInjector::new(
            KILLS_PER_RUN as u32,
            40,
            160,
            seed,
        )))
        .run(invs);
    let kills = FaultStats::of(&report.faults).crashes_injected as usize;

    let te = report.timed_execution();
    let verified = te.execution.verify(app).is_ok();
    let transitive = shard_core::conditions::is_transitive(&te.execution);
    let (k, cor8) = check_invariant_bound(app, &te.execution, OVERBOOKING, f, |d| {
        !app.is_statically_safe(d, OVERBOOKING)
    });
    let consistent = report.mutually_consistent() && report.missing().is_empty();
    let serial_ok = report.final_states[0] == te.execution.final_state(app);
    let offline = par_check(&PoolConfig::with_threads(2), &te, 32);
    let monitor_ok = report.monitor.as_ref() == Some(&offline);

    let ok = kills == KILLS_PER_RUN
        && verified
        && transitive
        && cor8.holds()
        && consistent
        && serial_ok
        && monitor_ok;
    claim.record((!ok).then(|| {
        format!(
            "{strategy} seed {seed}: kills={kills} verify={verified} transitive={transitive} \
                 cor8={} consistent={consistent} serial={serial_ok} monitor={monitor_ok}",
            cor8.holds()
        )
    }));
    t.push_row(vec![
        strategy.to_string(),
        seed.to_string(),
        kills.to_string(),
        verified.to_string(),
        transitive.to_string(),
        k.to_string(),
        cor8.holds().to_string(),
        consistent.to_string(),
        serial_ok.to_string(),
        monitor_ok.to_string(),
        report.messages_sent.to_string(),
        report.entries_shipped.to_string(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    kills
}

/// Times recovery of an `n`-entry log from a mirror backend. For disk
/// the timer covers the true restart path: reopen (one validating
/// pass over the WAL) plus the streaming scan into a fresh node.
fn replay_perf(n: usize) -> (u64, u64) {
    let app = Dictionary;
    let mut log: MergeLog<Dictionary> = MergeLog::new(&app, 1024);
    for i in 0..n {
        let ts = Timestamp {
            lamport: i as u64 + 1,
            node: NodeId((i % 3) as u16),
        };
        let update = DictUpdate::Insert((i % 4096) as u32, i as u64);
        log.merge(&app, ts, Arc::new(update));
    }

    let mut mem: NodeMirror<Dictionary> = NodeMirror::mem();
    mem.persist(&log, false);
    let started = Instant::now();
    let (_, recovered) = mem.recover(&app, NodeId(0), 1024);
    let mem_us = started.elapsed().as_micros() as u64;
    assert_eq!(recovered, n, "mem replay saw every entry");

    let dir = tmp("replay-perf");
    let _ = std::fs::remove_dir_all(&dir);
    let (mut disk, _) = NodeMirror::<Dictionary>::disk(&dir).unwrap();
    disk.persist(&log, true);
    drop(disk);
    let started = Instant::now();
    let (mut disk, reopened) = NodeMirror::<Dictionary>::disk(&dir).unwrap();
    let (_, recovered) = disk.recover(&app, NodeId(0), 1024);
    let disk_us = started.elapsed().as_micros() as u64;
    assert_eq!(reopened, n, "disk reopen saw every entry");
    assert_eq!(recovered, n, "disk replay saw every entry");
    let _ = std::fs::remove_dir_all(&dir);
    (mem_us, disk_us)
}

fn main() {
    let mut exp = shard_bench::Experiment::start("e24");
    let app = FlyByNight::new(25);
    let f = BoundFn::linear(900);
    println!(
        "E24: durable store + crash recovery — {NODES} nodes, {TXNS} airline txns, \
         {} seeds × {KILLS_PER_RUN} kill points per strategy\n",
        SWEEP_SEEDS.len()
    );

    // Part 1 — transparency: durability attached, nothing killed.
    let mut transparent = ClaimCheck::new(
        "with no kill windows, Mem- and Disk-backed runs digest-match the plain run",
    );
    for seed in TRIAL_SEEDS {
        let invs =
            airline_invocations(seed, TXNS, NODES, 7, AirlineMix::default(), Routing::Random);
        let mk = || Runner::new(&app, base_cfg(seed), Gossip::new(20, 1));
        let plain = mk().run(invs.clone());
        let mem_fleet = DurableFleet::new(NODES, &DurabilityConfig::mem(seed)).unwrap();
        let durable = mk().with_durability(mem_fleet).run(invs.clone());
        transparent.record(
            (report_digest(&plain) != report_digest(&durable))
                .then(|| format!("seed {seed}: Mem-durable digest diverges from plain")),
        );
        if seed == TRIAL_SEEDS[0] {
            let dir = tmp("transparent");
            let _ = std::fs::remove_dir_all(&dir);
            let disk_fleet = DurableFleet::new(NODES, &DurabilityConfig::disk(&dir, seed)).unwrap();
            let on_disk = mk().with_durability(disk_fleet).run(invs);
            transparent.record(
                (report_digest(&plain) != report_digest(&on_disk))
                    .then(|| format!("seed {seed}: Disk-durable digest diverges from plain")),
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    exp.claim(transparent);

    let mut clean = ClaimCheck::new("clean runs truncate no torn WAL tails");
    let torn_before_kills = torn_truncations();
    clean.record(
        (torn_before_kills > 0)
            .then(|| format!("{torn_before_kills} torn-tail truncation(s) during clean opens")),
    );
    exp.claim(clean);
    // Mirror the clean-phase tally into its own counter: the kill sweep
    // below tears tails *on purpose*, so `store.wal_torn_truncations`
    // ends up non-zero by design — ci.sh budgets the clean slice only.
    Registry::global()
        .counter("store.wal_torn_truncations_clean")
        .add(torn_before_kills);

    // Part 2 — the kill sweep, §3 oracles per run.
    let mut t = Table::new(
        "E24 kill sweep (disk-backed, 2 kill/recover windows per run)",
        &[
            "strategy",
            "seed",
            "kills",
            "verify",
            "transitive",
            "k",
            "Cor 8",
            "consistent",
            "serial ==",
            "monitor ==",
            "messages",
            "entries shipped",
        ],
    );
    let mut oracles = ClaimCheck::new(
        "every kill-sweep run passes all §3 oracles (verify, transitivity, Cor 8, \
         convergence, serial replay, online == offline certified verdicts)",
    );
    let mut kill_points = [0usize; 2];
    for (i, strategy) in STRATEGIES.into_iter().enumerate() {
        for seed in SWEEP_SEEDS {
            kill_points[i] += sweep_run(&app, strategy, seed, &f, &mut t, &mut oracles);
        }
    }
    println!("{t}");
    exp.claim(oracles);

    let mut coverage = ClaimCheck::new("each strategy was killed at >= 10 distinct seeded points");
    for (i, strategy) in STRATEGIES.into_iter().enumerate() {
        coverage.record(
            (kill_points[i] < 10)
                .then(|| format!("{strategy}: only {} kill points", kill_points[i])),
        );
    }
    exp.claim(coverage);
    let torn_total = torn_truncations();
    println!(
        "\nkill points: gossip {} / gossip-per-exec {}; torn tails truncated on \
         post-kill reopens: {}",
        kill_points[0],
        kill_points[1],
        torn_total - torn_before_kills
    );

    // Part 3 — replay-from-disk perf.
    let n: usize = std::env::var("SHARD_E24_REPLAY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(REPLAY);
    let (mem_us, disk_us) = replay_perf(n);
    let ratio = disk_us as f64 / mem_us.max(1) as f64;
    println!(
        "\nreplay perf, n = {n}: MemStore {:.1} ms, DiskStore (reopen + replay) {:.1} ms \
         — {ratio:.2}x",
        mem_us as f64 / 1e3,
        disk_us as f64 / 1e3
    );
    let mut perf = ClaimCheck::new("DiskStore-backed replay completes within 3x of MemStore");
    perf.record((ratio > MAX_DISK_OVER_MEM).then(|| {
        format!("n={n}: disk {disk_us}us vs mem {mem_us}us = {ratio:.2}x > {MAX_DISK_OVER_MEM}x")
    }));
    exp.claim(perf);

    let json = format!(
        "{{\n \"bench\": \"store_recovery\",\n \"workload\": \"{TXNS} airline txns, {NODES} \
         nodes, exponential delay; kill sweep = {} seeds x {KILLS_PER_RUN} kill/recover \
         windows per strategy, DiskStore-backed\",\n \"kill_points\": {{\"gossip\": {}, \
         \"gossip_per_exec\": {}}},\n \"oracles\": \"verify + transitivity + Cor 8 + mutual \
         consistency, nothing missing + serial replay + online==offline certified verdicts, \
         all hold\",\n \
         \"torn_tail_truncations\": {{\"clean_phase\": {torn_before_kills}, \"after_kills\": \
         {}}},\n \"replay\": {{\"entries\": {n}, \"mem_us\": {mem_us}, \"disk_us\": {disk_us}, \
         \"disk_over_mem\": {ratio:.3}, \"bound\": {MAX_DISK_OVER_MEM}}},\n \"note\": \
         \"disk_us covers the full restart path: DiskStore reopen (one validating pass over \
         the WAL) plus the arrival-order scan into a fresh node\"\n}}\n",
        SWEEP_SEEDS.len(),
        kill_points[0],
        kill_points[1],
        torn_total - torn_before_kills,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    if n != REPLAY {
        println!("left {path} alone: it records a {REPLAY}-entry replay, this run's was {n}");
    } else {
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    exp.finish();
}
