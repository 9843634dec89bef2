//! The streaming checkers, measured: raw [`StreamChecker`] throughput
//! over 10⁶ synthetic rows at several window sizes, and what judging a
//! real kernel run costs (monitored vs. unmonitored wall time: the
//! post-run `RunReport::judge`), plus the two whole-execution shapes the repository
//! benchmark does not carry (n = 2 048: block-shuffled rows missing ~16
//! recent predecessors each, and two parities that never see each
//! other) through `is_transitive` and `check_rows`, and the sizes an
//! in-memory `Execution` reaches now that a prefix is stored as runs
//! (2¹¹ … 10⁶ block-shuffled rows: bytes per prefix, build, extraction
//! and check time, resident set). Results land in `BENCH_stream.json`
//! at the repository root.
//!
//! One pinned claim and one reported target:
//!
//! * the checker sustains ≥ 10⁶ rows through a full §3 verification
//!   (transitivity + k-completeness + delay bounds) in one bench run;
//! * judging a kernel run ([`RunReport::judge`], once the run ends)
//!   should cost ≤ 10% wall time — cheap enough to leave on during
//!   chaos sweeps. The
//!   figure is printed against the target and recorded beside it; over
//!   target is a `WARN` line, not a failure (this host has read
//!   +13…+17 % at every commit since the target was set, and an
//!   assertion nobody can pass is not a gate — ROADMAP item 8 owns
//!   getting under it).
//!
//! [`StreamChecker`]: shard_core::stream::StreamChecker
//! [`RunReport::judge`]: shard_sim::RunReport::judge

use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_apps::banking::{Bank, BankTxn, BankUpdate};
use shard_bench::workloads::{airline_invocations, Routing};
use shard_core::conditions::is_transitive;
use shard_core::stream::{check_rows, rows_from_execution, StreamChecker, StreamRow};
use shard_core::{Execution, Prefix, TimedExecution, TxnRecord};
use shard_pool::PoolConfig;
use shard_sim::{ClusterConfig, DelayModel, EagerBroadcast, MonitorConfig, Runner};
use std::hint::black_box;
use std::time::Instant;

/// The window sizes measured, each with the synthetic stream's rows
/// per second at the parent commit of the checker's near-map row form:
/// this bench run on a checkout of that parent on the same host, right
/// before the committed run, and written beside each window's own
/// figure. One process reads 12–25 M rows/s within the hour here, so a
/// pair of files settles nothing; DESIGN.md §12 has the interleaved
/// comparisons. Drop the figures when the file is re-recorded elsewhere.
const PARENT_ROWS_PER_S: [(usize, u64); 3] =
    [(64, 19_629_750), (1024, 19_541_593), (65536, 18_094_787)];

/// The benches' fixed pseudo-random stream (a 64-bit LCG's high bits).
fn lcg() -> impl FnMut() -> u32 {
    let mut state = 0x5EED_u64 | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    }
}

/// Synthetic rows: 10⁶ transactions where ~10% miss a short suffix of
/// their predecessors (`missed = {i-d, …, i-1}`). Contiguous-suffix
/// miss sets are transitive by construction (a seen row is older than
/// every missed row, so it saw none of them either — no witness), so
/// the transitivity scan runs at its honest full depth instead of
/// short-circuiting on an early violation.
fn synthetic_rows(n: usize) -> Vec<StreamRow> {
    let mut next = lcg();
    (0..n)
        .map(|i| {
            let d = if next().is_multiple_of(10) {
                (1 + next() % 8) as usize
            } else {
                0
            };
            let d = d.min(i);
            StreamRow {
                index: i,
                time: i as u64,
                missed: (i - d..i).collect(),
            }
        })
        .collect()
}

/// An execution whose row `i` sees exactly the `j < i` with `sees(j, i)`.
fn execution_where(n: usize, sees: impl Fn(usize, usize) -> bool) -> TimedExecution<Bank> {
    let mut exec = Execution::new();
    for i in 0..n {
        exec.push_record(TxnRecord {
            decision: BankTxn::Audit,
            prefix: (0..i).filter(|&j| sees(j, i)).collect(),
            update: BankUpdate::Noop,
            external_actions: Vec::new(),
        });
    }
    TimedExecution::new(exec, (0..n as u64).collect())
}

/// The repository benchmark's shape: delivery order is the serial order
/// Fisher–Yates-shuffled inside blocks of 64, and a row misses the
/// serially earlier rows delivered after it (~16 per row, all within
/// 64 positions). Transitive: a seen row was delivered before every
/// missed one. Built from the miss sets, O(n·k̄), so it reaches 10⁶ rows.
fn windowed_execution(n: usize) -> TimedExecution<Bank> {
    let mut next = lcg();
    let mut delivered_at: Vec<usize> = (0..n).collect();
    for block in delivered_at.chunks_mut(64) {
        for i in (1..block.len()).rev() {
            block.swap(i, next() as usize % (i + 1));
        }
    }
    let mut exec = Execution::new();
    let mut missed = Vec::new();
    for i in 0..n {
        missed.clear();
        missed.extend((i.saturating_sub(64)..i).filter(|&j| delivered_at[j] > delivered_at[i]));
        exec.push_record(TxnRecord {
            decision: BankTxn::Audit,
            prefix: Prefix::from_missed(i, &missed),
            update: BankUpdate::Noop,
            external_actions: Vec::new(),
        });
    }
    TimedExecution::new(exec, (0..n as u64).collect())
}

/// The dense worst case for a miss-set checker: two parities that never
/// see each other, so row `i` misses `i / 2` predecessors reaching all
/// the way back. Transitive.
fn parity_execution(n: usize) -> TimedExecution<Bank> {
    execution_where(n, |j, i| j % 2 == i % 2)
}

/// Median wall time of 5 calls, after one warm-up.
fn median5_ns(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = [0.0f64; 5];
    for s in &mut samples {
        let t0 = Instant::now();
        f();
        *s = t0.elapsed().as_nanos() as f64;
    }
    median(&mut samples)
}

fn check_once_ns(window: usize, rows: &[StreamRow]) -> (f64, bool) {
    let mut checker = StreamChecker::new(window);
    let t0 = Instant::now();
    for row in rows {
        black_box(checker.push(row));
    }
    let report = checker.report();
    (t0.elapsed().as_nanos() as f64, report.transitive)
}

fn kernel_run_ns(txns: usize, monitor: Option<MonitorConfig>) -> f64 {
    let app = FlyByNight::new(40);
    let invocations = airline_invocations(3, txns, 5, 7, AirlineMix::default(), Routing::Random);
    let cfg = ClusterConfig {
        nodes: 5,
        seed: 3,
        delay: DelayModel::Fixed(10),
        monitor,
        ..ClusterConfig::default()
    };
    let t0 = Instant::now();
    let report = Runner::new(&app, cfg, EagerBroadcast::default()).run(invocations);
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(report.transactions.len());
    ns
}

/// Median of a sample set (mean of the middle pair for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn main() {
    const N: usize = 1_000_000;
    println!("\nstream/checker (windowed §3 verification over synthetic rows)");
    let rows = synthetic_rows(N);
    let misses: usize = rows.iter().map(|r| r.missed.len()).sum();

    let mut window_json = Vec::new();
    for (window, parent) in PARENT_ROWS_PER_S {
        // Warmup, then median of 3.
        black_box(check_once_ns(window, &rows));
        let mut samples = [0.0f64; 3];
        let mut transitive = true;
        for s in &mut samples {
            let (ns, t) = check_once_ns(window, &rows);
            *s = ns;
            transitive &= t;
        }
        assert!(transitive, "the synthetic stream is transitive");
        let ns = median(&mut samples);
        let rows_per_s = N as f64 / (ns / 1e9);
        println!(
            "  window {window:>6}  {ns:>12.0} ns  {:>12.0} rows/s",
            rows_per_s
        );
        window_json.push(format!(
            "    {{ \"window\": {window}, \"ns\": {ns:.0}, \"rows_per_s\": {rows_per_s:.0}, \
             \"parent_rows_per_s\": {parent} }}"
        ));
    }

    println!("\nstream/shapes (whole-execution checks, n = 2048, one thread)");
    const SHAPE_ROWS: usize = 2_048;
    let mut shape_json = Vec::new();
    for (name, te) in [
        ("windowed16", windowed_execution(SHAPE_ROWS)),
        ("parity", parity_execution(SHAPE_ROWS)),
    ] {
        let rows = rows_from_execution(&PoolConfig::sequential(), &te);
        let misses_per_row =
            rows.iter().map(|r| r.missed.len()).sum::<usize>() as f64 / SHAPE_ROWS as f64;
        assert!(is_transitive(&te.execution) && check_rows(64, &rows).transitive);
        let offline_ns = median5_ns(|| {
            black_box(is_transitive(black_box(&te.execution)));
        });
        let online_ns = median5_ns(|| {
            black_box(check_rows(64, black_box(&rows)));
        });
        println!(
            "  {name:<10}  {misses_per_row:>6.1} misses/row  is_transitive {:>9.3} ms  \
             check_rows {:>9.3} ms",
            offline_ns / 1e6,
            online_ns / 1e6
        );
        shape_json.push(format!(
            "    {{ \"shape\": \"{name}\", \"rows\": {SHAPE_ROWS}, \
             \"misses_per_row\": {misses_per_row:.1}, \
             \"is_transitive_ns\": {offline_ns:.0}, \"check_rows_ns\": {online_ns:.0} }}"
        ));
    }

    println!("\nstream/monitor (post-run judge overhead on a kernel run)");
    const TXNS: usize = 3_000;
    let monitored_cfg = || {
        Some(MonitorConfig {
            window: 64,
            emit_rows: false,
            ..MonitorConfig::default()
        })
    };
    black_box(kernel_run_ns(TXNS, None));
    black_box(kernel_run_ns(TXNS, monitored_cfg()));
    let mut plain = [0.0f64; 5];
    let mut monitored = [0.0f64; 5];
    // Interleave the samples so drift (thermal, allocator growth) hits
    // both sides equally.
    for i in 0..5 {
        plain[i] = kernel_run_ns(TXNS, None);
        monitored[i] = kernel_run_ns(TXNS, monitored_cfg());
    }
    let plain_ns = median(&mut plain);
    let monitored_ns = median(&mut monitored);
    let overhead_pct = 100.0 * (monitored_ns - plain_ns) / plain_ns;
    println!(
        "  {TXNS} txns  plain {plain_ns:>12.0} ns  monitored {monitored_ns:>12.0} ns  \
         overhead {overhead_pct:+.1}% (target <= 10%)"
    );

    // Last, so the sections above run in the process state they always
    // ran in (built first, this one's freed heap made their 10⁶-row
    // stream read twice as fast). The price: the resident set of the
    // small sizes includes what those sections left behind — `idle_mib`.
    let idle_mib = shard_bench::process_figures()[2];
    println!(
        "\nstream/scale (in-memory Execution of block-shuffled rows, one thread; \
         {idle_mib:.1} MiB resident before)"
    );
    let mut scale_json = Vec::new();
    for n in [1usize << 11, 1 << 15, 1 << 17, 1_000_000] {
        let t0 = Instant::now();
        let te = windowed_execution(n);
        let build_ns = t0.elapsed().as_nanos();
        let records = te.execution.records();
        let run_bytes = records
            .iter()
            .map(|r| std::mem::size_of_val(r.prefix.runs()))
            .sum::<usize>();
        let prefix_bytes = run_bytes as f64 / n as f64 + std::mem::size_of::<Prefix>() as f64;
        let held_mib = shard_bench::process_figures()[2];
        let t0 = Instant::now();
        let rows = rows_from_execution(&PoolConfig::sequential(), &te);
        let rows_ns = t0.elapsed().as_nanos();
        let t0 = Instant::now();
        let report = check_rows(64, &rows);
        let check_ns = t0.elapsed().as_nanos();
        assert!(report.transitive && report.rows == n);
        let peak_mib = shard_bench::process_figures()[2];
        println!(
            "  {n:>8} rows  {prefix_bytes:>6.1} B/prefix  build {:>8.2} ms  rows_from_execution \
             {:>8.2} ms  check_rows {:>8.2} ms  resident {held_mib:>6.1} MiB, {peak_mib:>6.1} with rows",
            build_ns as f64 / 1e6,
            rows_ns as f64 / 1e6,
            check_ns as f64 / 1e6,
        );
        scale_json.push(format!(
            "    {{ \"rows\": {n}, \"prefix_bytes_per_row\": {prefix_bytes:.1}, \
             \"build_ns\": {build_ns}, \"rows_from_execution_ns\": {rows_ns}, \
             \"check_rows_ns\": {check_ns}, \"resident_mib\": {held_mib:.1}, \
             \"resident_with_rows_mib\": {peak_mib:.1} }}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"stream_checkers\",\n  \
         \"workload\": \"synthetic suffix-miss stream, n=1000000, ~10% rows miss 1-8 predecessors\",\n  \
         \"threads\": 1,\n  \
         \"rows\": {N},\n  \
         \"miss_entries\": {misses},\n  \
         \"windows\": [\n{}\n  ],\n  \
         \"shapes\": [\n{}\n  ],\n  \
         \"scale_idle_mib\": {idle_mib:.1},\n  \
         \"scale\": [\n{}\n  ],\n  \
         \"monitor\": {{\n    \
         \"kernel_txns\": {TXNS},\n    \
         \"plain_ns\": {plain_ns:.0},\n    \
         \"monitored_ns\": {monitored_ns:.0},\n    \
         \"overhead_pct\": {overhead_pct:.1},\n    \
         \"overhead_target_pct\": 10.0\n  }},\n  \
         \"note\": \"window timings are medians of 3 full 10^6-row checks; monitor overhead \
         compares medians of 5 interleaved eager-broadcast kernel runs (5 nodes, fixed delay) \
         with and without the post-run judge (window 64, no row emission); shape timings are \
         medians of 5 calls on one thread: windowed16 = Fisher-Yates inside delivery blocks of 64, \
         parity = two parities that never see each other (row i misses i/2 predecessors); \
         scale = the windowed16 shape with banking no-op records, built from its miss sets \
         (Prefix::from_missed), one pass each, after every other section: prefix_bytes_per_row \
         is the 32-byte Prefix plus 16 bytes a run, resident_mib the process VmRSS holding the \
         execution, then also its extracted rows, scale_idle_mib what it read before the first \
         size (the earlier sections' leftovers)\"\n}}\n",
        window_json.join(",\n"),
        shape_json.join(",\n"),
        scale_json.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }

    if overhead_pct > 10.0 {
        println!("  WARN post-run judge overhead {overhead_pct:+.1}% is over its 10% target");
    }
}
