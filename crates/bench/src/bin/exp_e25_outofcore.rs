//! E25 — out-of-core replay: store-backed checkpoint streaming to
//! 10⁷-transaction executions at bounded memory (extension).
//!
//! Every earlier experiment keeps the whole execution in RAM. E25
//! drops that assumption using the §1.2 t-bounded-delay argument: if
//! deliveries are displaced from timestamp order by at most `t`
//! positions, a `t+1`-slot reorder window emits the **final serial
//! order** one transaction at a time ([`StreamingMerge`]), so a run
//! needs one in-place application state, a bounded window, the online
//! checker's monitor state, and a two-tier checkpoint sequence whose
//! cold anchors spill through a [`DiskStore`] — while the full
//! execution streams into the store for byte-identical re-checking
//! off a cursor. Three claims:
//!
//! * **fidelity at 10⁵** (where everything still fits in RAM) — the
//!   streaming path reaches exactly the in-memory [`MergeLog`]'s
//!   state, both equal the canonical serial replay, the online §3
//!   report is byte-identical to a second pass off the store, every
//!   certificate re-validates through `shard-trace certify`'s
//!   validator, and the streaming wall clock stays within 3× of the
//!   in-memory merge;
//! * **bounded memory at 10⁶/10⁷** — the same oracles (minus the full
//!   certify trace, which would itself be out-of-core) hold at
//!   `SHARD_E25_TXNS` scale, with `state.peak_resident_bytes` — the
//!   high-watermark of what the merge holds: hot anchors, reorder
//!   window and online checker — at most 1/10 of the in-memory
//!   footprint extrapolated from the 10⁵ measurement;
//! * **throughput** — sealed txns/s for the streaming pass and the
//!   second-pass re-check rate, recorded per tier, beside what the
//!   store did for it (the `store.*` counters the tier moved) and what
//!   the process held: the checker's bytes after each pass, RSS after
//!   the ingest, and a lap of wall / user / system time and RSS per
//!   million rows.
//!
//! Numbers land in `BENCH_outofcore.json` at the repo root; `ci.sh`
//! runs the 10⁵ smoke tier and budgets the peak-resident gauge, the
//! WAL's write calls and the bytes its key scans read.

use shard_analysis::ClaimCheck;
use shard_apps::banking::{AccountId, Bank, BankState, BankUpdate};
use shard_bench::{process_figures, report_claim};
use shard_core::Application;
use shard_obs::Registry;
use shard_sim::{MergeLog, NodeId, StreamingMerge, Timestamp};
use shard_store::{DiskStore, StoreOptions};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Delivery displacement bound = reorder-window capacity. Matches the
/// simulator's bounded-delay regimes (delays ≪ 64 inter-arrival gaps).
const BLOCK: usize = 64;
const ACCOUNTS: u32 = 8;
const CHECKPOINT_EVERY: usize = 1024;
const HOT_POINTS: usize = 4;
const SPILL_SPACING: usize = 16;
const CHECKER_WINDOW: usize = 64;
const SEED: u64 = 0x5AD_E25;
const SMALL: usize = 100_000;
const MAX_STREAM_OVER_MEM: f64 = 3.0;
/// Peak resident state must undercut the extrapolated in-memory
/// footprint by at least this factor.
const BUDGET_DIVISOR: u64 = 10;

/// Streaming throughput (txn/s) per tier size at the parent of PR 22 —
/// rows indexed by a B+tree in a page file beside the WAL, a second
/// copy of every row — measured on the same host, minutes before the
/// run the committed `BENCH_outofcore.json` records, and written
/// beside each tier's own figure (this host's speed drifts between
/// sessions, so only figures from one session compare). Drop the table
/// when the file is re-recorded elsewhere.
const PARENT_TXNS_PER_SEC: [(usize, u64); 3] = [
    (100_000, 963_433),
    (1_000_000, 1_007_258),
    (10_000_000, 698_070),
];

/// The `store.*` counters recorded per tier.
const STORE_COUNTERS: [&str; 4] = ["wal_appends", "wal_writes", "wal_fsyncs", "wal_read_bytes"];

fn store_counters() -> [u64; 4] {
    let snapshot = Registry::global().snapshot();
    STORE_COUNTERS.map(|name| snapshot.counter(&format!("store.{name}")).unwrap_or(0))
}

/// `"store": {…}` — the `store.*` counters moved since `before`.
fn store_json(before: [u64; 4]) -> String {
    let counters: Vec<String> = STORE_COUNTERS
        .iter()
        .zip(before.iter().zip(store_counters()))
        .map(|(name, (b, a))| format!("\"{name}\": {}", a - b))
        .collect();
    format!("\"store\": {{{}}}", counters.join(", "))
}

/// `, "parent_txns_per_sec": N` for a tier size the parent was measured at.
fn parent_field(txns: usize) -> String {
    PARENT_TXNS_PER_SEC
        .iter()
        .find(|(n, _)| *n == txns)
        .map(|(_, rate)| format!(", \"parent_txns_per_sec\": {rate}"))
        .unwrap_or_default()
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("shard-e25-{tag}-{}", std::process::id()))
}

/// xorshift64* — deterministic, allocation-free workload randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_update(rng: &mut Rng) -> BankUpdate {
    let a = AccountId(1 + rng.below(u64::from(ACCOUNTS)) as u32);
    match rng.below(4) {
        0 | 1 => BankUpdate::Credit(a, 1 + rng.below(500) as u32),
        2 => BankUpdate::Debit(a, 1 + rng.below(400) as u32),
        _ => {
            let b = AccountId(1 + rng.below(u64::from(ACCOUNTS)) as u32);
            BankUpdate::Move(a, b, 1 + rng.below(200) as u32)
        }
    }
}

/// Generates `n` banking updates, applies them in **serial** order to
/// a reference state, and hands them to `deliver` in a block-shuffled
/// delivery order (Fisher–Yates within blocks of `BLOCK`, so
/// displacement from serial order is `< BLOCK`). `deliver` gets
/// `(ts, delivery_tick, update)`; only one block is ever materialized.
fn drive(
    app: &Bank,
    n: usize,
    mut deliver: impl FnMut(Timestamp, u64, BankUpdate) -> io::Result<()>,
) -> io::Result<BankState> {
    let mut rng = Rng::new(SEED);
    let mut reference = app.initial_state();
    let mut serial = 0usize;
    let mut tick = 0u64;
    let mut block: Vec<(Timestamp, BankUpdate)> = Vec::with_capacity(BLOCK);
    while serial < n {
        block.clear();
        for _ in 0..BLOCK.min(n - serial) {
            let u = gen_update(&mut rng);
            app.apply_in_place(&mut reference, &u);
            serial += 1;
            block.push((
                Timestamp {
                    lamport: serial as u64,
                    node: NodeId(0),
                },
                u,
            ));
        }
        for i in (1..block.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            block.swap(i, j);
        }
        for (ts, u) in block.drain(..) {
            deliver(ts, tick, u)?;
            tick += 1;
        }
    }
    Ok(reference)
}

/// What the in-memory path holds resident for an `n`-row run: the
/// merge log's entry vector (timestamp + Arc'd update) plus one
/// checkpoint state per interval. The budget claims extrapolate this
/// linearly from the measured 10⁵ tier.
fn in_memory_bytes(app: &Bank, state: &BankState, n: usize) -> u64 {
    let entry = std::mem::size_of::<(Timestamp, Arc<BankUpdate>)>()
        + std::mem::size_of::<BankUpdate>()
        + 16; // two Arc refcounts
    let points = n / CHECKPOINT_EVERY;
    (n * entry + points * app.state_size_hint(state)) as u64
}

fn gauge(name: &str) -> u64 {
    Registry::global().gauge(name).get().max(0) as u64
}

fn peak_resident() -> u64 {
    gauge("state.peak_resident_bytes")
}

/// What the §3 checker of the pass that just ended held when it ended.
fn checker_bytes() -> u64 {
    gauge("stream.checker_resident_bytes")
}

struct TierResult {
    txns: usize,
    wall_ms: f64,
    txns_per_sec: f64,
    second_pass_ms: f64,
    /// The online checker's `resident_bytes()` when the ingest ended,
    /// and the second pass's when it ended.
    checker_bytes: [u64; 2],
    /// Process RSS when the ingest ended, MiB.
    rss_mb: f64,
    /// Per million rows ingested: `[wall s, user s, system s, RSS MiB
    /// at its end]`.
    laps: Vec<[f64; 4]>,
    peak_resident_bytes: u64,
    budget_bytes: u64,
    spilled_anchors: usize,
    row_store_bytes: u64,
    /// [`store_json`]'s field.
    store: String,
}

/// One store-backed streaming run: drives `n` txns through a
/// [`StreamingMerge`] over two `DiskStore`s, checks the §3 oracles
/// (serial-replay state, online report == second pass off the cursor)
/// and the peak-resident budget, and returns the measured numbers.
fn streaming_tier(
    app: &Bank,
    n: usize,
    per_txn_budget: u64,
    ok: &mut bool,
) -> io::Result<TierResult> {
    let dir = tmp(&format!("tier-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store_before = store_counters();
    let (rows, _) = DiskStore::open(&dir.join("rows"), StoreOptions::default())?;
    let (anchors, _) = DiskStore::open(&dir.join("anchors"), StoreOptions::default())?;
    let mut m: StreamingMerge<Bank> = StreamingMerge::new(
        app,
        Box::new(rows),
        Box::new(anchors),
        BLOCK,
        CHECKPOINT_EVERY,
        HOT_POINTS,
        SPILL_SPACING,
        CHECKER_WINDOW,
    );

    let started = Instant::now();
    let mut laps = Vec::new();
    let mut lap = (Instant::now(), process_figures());
    let reference = drive(app, n, |ts, tick, u| {
        m.offer(app, ts, tick, u)?;
        if (tick + 1) % 1_000_000 == 0 {
            let now = (Instant::now(), process_figures());
            let wall = now.0.duration_since(lap.0).as_secs_f64();
            laps.push([wall, now.1[0] - lap.1[0], now.1[1] - lap.1[1], now.1[2]]);
            lap = now;
        }
        Ok(())
    })?;
    m.finish(app)?;
    let wall = started.elapsed();
    let checker_after_ingest = checker_bytes();
    let rss_mb = process_figures()[2];
    let report = m.report();
    let sealed = m.sealed();
    let spilled = m.spilled_anchors();
    let state_ok = m.state() == &reference;
    let (mut sink, _, _) = m.into_parts();

    let started = Instant::now();
    let second = sink.check_stream(CHECKER_WINDOW)?;
    let second_pass = started.elapsed();
    let report_ok = second == report;

    let peak = peak_resident();
    let budget = per_txn_budget * n as u64 / BUDGET_DIVISOR;
    let mut oracles = ClaimCheck::new(
        "streaming tier passes the §3 oracles (serial replay; online report, verdicts and \
         certificates byte-identical to the second pass off the store) at bounded memory",
    );
    oracles.record((sealed != n).then(|| format!("n={n}: sealed only {sealed}")));
    oracles.record((!state_ok).then(|| format!("n={n}: state != serial replay")));
    oracles.record((!report_ok).then(|| format!("n={n}: online report != store re-check")));
    oracles.record((peak > budget).then(|| {
        format!("n={n}: peak resident {peak} B over budget {budget} B (1/{BUDGET_DIVISOR} of in-memory)")
    }));
    *ok &= report_claim(&oracles);

    let row_bytes = sink.store_mut().len_bytes();
    drop(sink);
    let store = store_json(store_before);
    let result = TierResult {
        txns: n,
        wall_ms: wall.as_secs_f64() * 1e3,
        txns_per_sec: n as f64 / wall.as_secs_f64(),
        second_pass_ms: second_pass.as_secs_f64() * 1e3,
        checker_bytes: [checker_after_ingest, checker_bytes()],
        rss_mb,
        laps,
        peak_resident_bytes: peak,
        budget_bytes: budget,
        spilled_anchors: spilled,
        row_store_bytes: row_bytes,
        store,
    };
    println!(
        "  n = {n}: stream {:.0} ms ({:.0}k txn/s), re-check {:.0} ms, peak resident {} B \
         (budget {} B), checker {} B after ingest / {} B after re-check, RSS {:.0} MiB, \
         {} cold anchors spilled, {} row-store bytes",
        result.wall_ms,
        result.txns_per_sec / 1e3,
        result.second_pass_ms,
        peak,
        budget,
        result.checker_bytes[0],
        result.checker_bytes[1],
        result.rss_mb,
        spilled,
        row_bytes
    );
    for (million, [wall, user, system, rss]) in result.laps.iter().enumerate() {
        println!(
            "    million {:>2}: wall {wall:.1} s, user {user:.1} s, system {system:.1} s, \
             RSS {rss:.0} MiB",
            million + 1
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(result)
}

fn tier_json(t: &TierResult) -> String {
    let laps: Vec<String> = t
        .laps
        .iter()
        .map(|[wall, user, system, rss]| format!("[{wall:.1}, {user:.1}, {system:.1}, {rss:.0}]"))
        .collect();
    format!(
        "{{\"txns\": {}, \"wall_ms\": {:.1}, \"txns_per_sec\": {:.0}{}, \"second_pass_ms\": {:.1}, \
         \"checker_bytes_after_ingest\": {}, \"checker_bytes_after_second_pass\": {}, \
         \"rss_mb_after_ingest\": {:.0}, \"laps_wall_user_system_s_rss_mb\": [{}], \
         \"peak_resident_bytes\": {}, \"budget_bytes\": {}, \"spilled_anchors\": {}, \
         \"row_store_bytes\": {}, {}}}",
        t.txns,
        t.wall_ms,
        t.txns_per_sec,
        parent_field(t.txns),
        t.second_pass_ms,
        t.checker_bytes[0],
        t.checker_bytes[1],
        t.rss_mb,
        laps.join(", "),
        t.peak_resident_bytes,
        t.budget_bytes,
        t.spilled_anchors,
        t.row_store_bytes,
        t.store
    )
}

fn main() -> io::Result<()> {
    let exp = shard_bench::Experiment::start("e25");
    let app = Bank::new(ACCOUNTS, 1_000_000);
    let n: usize = std::env::var("SHARD_E25_TXNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000_000);
    let mut ok = true;
    println!(
        "E25: out-of-core replay — banking, displacement < {BLOCK}, checkpoints every \
         {CHECKPOINT_EVERY} ({HOT_POINTS} hot, spill spacing {SPILL_SPACING}), \
         target {n} txns\n"
    );

    // Part 1 — fidelity at 10⁵, where the in-memory path still fits.
    let small = n.min(SMALL);
    let mut log: MergeLog<Bank> = MergeLog::new(&app, CHECKPOINT_EVERY);
    let started = Instant::now();
    let reference = drive(&app, small, |ts, _, u| {
        log.merge(&app, ts, Arc::new(u));
        Ok(())
    })?;
    let mem_wall = started.elapsed();
    let per_txn_in_memory = in_memory_bytes(&app, log.state(), small) / small as u64;

    let dir = tmp("small");
    let _ = std::fs::remove_dir_all(&dir);
    let store_before = store_counters();
    let (rows, _) = DiskStore::open(&dir.join("rows"), StoreOptions::default())?;
    let (anchors, _) = DiskStore::open(&dir.join("anchors"), StoreOptions::default())?;
    let mut m: StreamingMerge<Bank> = StreamingMerge::new(
        &app,
        Box::new(rows),
        Box::new(anchors),
        BLOCK,
        CHECKPOINT_EVERY,
        HOT_POINTS,
        SPILL_SPACING,
        CHECKER_WINDOW,
    );
    let started = Instant::now();
    drive(&app, small, |ts, tick, u| m.offer(&app, ts, tick, u))?;
    m.finish(&app)?;
    let stream_wall = started.elapsed();
    let ratio = stream_wall.as_secs_f64() / mem_wall.as_secs_f64().max(1e-9);
    println!(
        "fidelity tier, n = {small}: in-memory merge {:.0} ms, streaming {:.0} ms — {ratio:.2}x",
        mem_wall.as_secs_f64() * 1e3,
        stream_wall.as_secs_f64() * 1e3
    );

    let mut fidelity = ClaimCheck::new(
        "at 10⁵ the streaming path equals the in-memory merge and the serial replay, \
         and every online certificate re-validates via certify",
    );
    fidelity.record((m.state() != log.state()).then(|| "state != MergeLog state".to_string()));
    fidelity.record((m.state() != &reference).then(|| "state != serial replay".to_string()));
    let report = m.report();
    let (mut sink, _, _) = m.into_parts();
    let second = sink.check_stream(CHECKER_WINDOW)?;
    fidelity.record((second != report).then(|| "online report != store re-check".to_string()));
    // The certify round-trip: rebuild the JSONL trace a monitored run
    // would have emitted from the rows now living in the store, then
    // push every certificate through the shared-nothing validator.
    let mut trace = String::new();
    sink.for_each_row(|rec| {
        trace.push_str(&rec.row.to_json_line());
        trace.push('\n');
    })?;
    for cert in &report.certificates {
        if let Err(e) = shard_obs::certify(&trace, &cert.to_json()) {
            fidelity.record(Some(format!(
                "certificate {} rejected: {e}",
                cert.to_json()
            )));
        }
    }
    fidelity.record(
        report
            .certificates
            .is_empty()
            .then(|| "checker emitted no certificates to validate".to_string()),
    );
    ok &= report_claim(&fidelity);

    let mut wall_claim = ClaimCheck::new("streaming wall clock stays within 3x of in-memory");
    wall_claim.record((ratio > MAX_STREAM_OVER_MEM).then(|| {
        format!(
            "n={small}: streaming {:.0} ms vs in-memory {:.0} ms = {ratio:.2}x > {MAX_STREAM_OVER_MEM}x",
            stream_wall.as_secs_f64() * 1e3,
            mem_wall.as_secs_f64() * 1e3
        )
    }));
    ok &= report_claim(&wall_claim);
    drop(sink);
    let fidelity_store = store_json(store_before);
    let _ = std::fs::remove_dir_all(&dir);
    drop(log);

    // Part 2 — the out-of-core tiers, largest = the 10⁷ headline (or
    // SHARD_E25_TXNS when overridden).
    println!("\nout-of-core tiers (DiskStore-backed rows + anchors):");
    let mut tiers: Vec<usize> = [1_000_000, 10_000_000, n]
        .into_iter()
        .filter(|&t| t > SMALL && t <= n)
        .collect();
    tiers.sort_unstable();
    tiers.dedup();
    let mut results: Vec<TierResult> = Vec::new();
    for &tier in &tiers {
        results.push(streaming_tier(&app, tier, per_txn_in_memory, &mut ok)?);
    }
    if tiers.is_empty() {
        // Smoke mode (ci.sh): the small run doubles as the budgeted
        // tier so the sidecar still carries a bounded peak gauge.
        println!("  (n <= {SMALL}: fidelity tier doubles as the budget tier)");
        let mut smoke = ClaimCheck::new("smoke tier stays within the peak-resident budget");
        let peak = peak_resident();
        let budget = per_txn_in_memory * small as u64 / BUDGET_DIVISOR;
        smoke.record(
            (peak > budget).then(|| format!("peak resident {peak} B over budget {budget} B")),
        );
        ok &= report_claim(&smoke);
    }

    let tiers_json: Vec<String> = results.iter().map(tier_json).collect();
    let json = format!(
        "{{\n \"bench\": \"outofcore\",\n \"workload\": \"banking ({ACCOUNTS} accounts), \
         block-shuffled delivery with displacement < {BLOCK}, reorder window {BLOCK}, \
         checkpoints every {CHECKPOINT_EVERY} ({HOT_POINTS} hot, spill spacing \
         {SPILL_SPACING}), checker window {CHECKER_WINDOW}\",\n \"fidelity\": {{\"txns\": \
         {small}, \"in_memory_ms\": {:.1}, \"streaming_ms\": {:.1}, \"stream_over_memory\": \
         {ratio:.3}, \"bound\": {MAX_STREAM_OVER_MEM}, \"certificates_validated\": {}, \
         \"txns_per_sec\": {:.0}{}, {fidelity_store}}},\n \
         \"in_memory_bytes_per_txn\": {per_txn_in_memory},\n \"budget\": \"peak resident state \
         <= in-memory footprint / {BUDGET_DIVISOR}, extrapolated from the fidelity tier\",\n \
         \"tiers\": [{}],\n \"oracles\": \"serial-replay state + online report, verdicts and \
         certificates byte-identical to a second pass off the store cursor, every tier\"\n}}\n",
        mem_wall.as_secs_f64() * 1e3,
        stream_wall.as_secs_f64() * 1e3,
        report.certificates.len(),
        small as f64 / stream_wall.as_secs_f64(),
        parent_field(small),
        tiers_json.join(", "),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_outofcore.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }

    exp.finish(ok);
    Ok(())
}
