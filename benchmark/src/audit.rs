//! `audit-inmem` and `audit-outofcore`: one seeded, block-shuffled
//! delivery stream (E25's: Fisher–Yates inside blocks of 64, so a
//! delivery is displaced from timestamp order by fewer than 64
//! positions) merged to a sealed serial order and then put through the
//! certified §3 check — once by the RAM tier, once by the streaming tier
//! over two `DiskStore`s whose row store is far larger than the 64-frame
//! (256 KiB) buffer pool.

use crate::layers::{self, Deltas};
use crate::report::Run;
use crate::speed::Yardstick;
use crate::stats::median;
use shard_apps::banking::{AccountId, Bank, BankState, BankTxn, BankUpdate};
use shard_core::conditions::is_transitive;
use shard_core::stream::{check_rows, par_check, rows_from_execution};
use shard_core::{Application, Execution, StreamReport, StreamRow, TimedExecution, TxnRecord};
use shard_pool::PoolConfig;
use shard_sim::{MergeLog, NodeId, StreamingMerge, Timestamp};
use shard_store::{Codec, DiskStore, StoreKey, StoreOptions};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const BLOCK: usize = 64;
const ACCOUNTS: u32 = 8;
const MAX_DEBIT: u32 = 1_000_000;
const CHECKER_WINDOW: usize = 64;
/// Rows per round of the RAM tier's ingest.
const INMEM_ROWS: usize = 20_000;
/// Rows of the sealed order the RAM tier checks. An `Execution` stores
/// every prefix explicitly and `is_transitive` is cubic over dense bit
/// sets, so the in-memory check is quoted at the size it can hold.
const INMEM_CHECK_ROWS: usize = 2_048;
const INMEM_CHECKPOINT_EVERY: usize = 1_024;
/// Rows per round of the streaming tier (≈ 107 B each in the row store:
/// ten times the buffer pool), a round of a third of a second.
const OUTOFCORE_ROWS: usize = 25_000;
const CHECKPOINT_EVERY: usize = 1_024;
const HOT_POINTS: usize = 4;
const SPILL_SPACING: usize = 16;

/// xorshift64* — E25's generator, seeded by the run.
struct Rng(u64);

impl Rng {
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

/// The generated input: updates in delivery order (the delivery tick is
/// the index) and the state a serial application reaches.
struct Stream {
    deliveries: Vec<(Timestamp, Arc<BankUpdate>)>,
    reference: BankState,
}

fn generate(app: &Bank, seed: u64, n: usize) -> Stream {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut reference = app.initial_state();
    let mut deliveries = Vec::with_capacity(n);
    let mut serial = 0u64;
    while deliveries.len() < n {
        let start = deliveries.len();
        for _ in 0..BLOCK.min(n - start) {
            let u = gen_update(&mut rng);
            app.apply_in_place(&mut reference, &u);
            serial += 1;
            let ts = Timestamp {
                lamport: serial,
                node: NodeId(0),
            };
            deliveries.push((ts, Arc::new(u)));
        }
        let block = &mut deliveries[start..];
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    Stream {
        deliveries,
        reference,
    }
}

/// The first `rows` transactions of the sealed order as stream rows,
/// worked out from delivery positions alone: a transaction missed
/// exactly the serially earlier ones delivered after it. Independent of
/// every checker, so it is what their reports are held against.
fn rows_by_delivery(stream: &Stream, rows: usize) -> Vec<StreamRow> {
    let mut delivered_at = vec![0u64; stream.deliveries.len()];
    for (tick, (ts, _)) in stream.deliveries.iter().enumerate() {
        delivered_at[ts.lamport as usize - 1] = tick as u64;
    }
    (0..rows)
        .map(|i| StreamRow {
            index: i,
            time: delivered_at[i],
            missed: (i.saturating_sub(BLOCK)..i)
                .filter(|&j| delivered_at[j] > delivered_at[i])
                .collect(),
        })
        .collect()
}

/// Every certificate of `report` must pass the shared-nothing validator
/// against the raw rows.
fn certify(run: &mut Run, report: &StreamReport, rows: &[StreamRow]) {
    let mut trace = String::new();
    for row in rows {
        trace.push_str(&row.to_json_line());
        trace.push('\n');
    }
    for cert in &report.certificates {
        let verdict = shard_obs::certify(&trace, &cert.to_json());
        run.check(verdict.is_ok(), || {
            format!("certificate {} rejected: {verdict:?}", cert.to_json())
        });
    }
    run.check(!report.certificates.is_empty(), || {
        "the checker emitted no certificate to validate".to_string()
    });
}

/// Per-round wall seconds of the two timed stages.
#[derive(Default)]
struct Stages {
    setup: Vec<f64>,
    ingest: Vec<f64>,
    check: Vec<f64>,
    cpu: Vec<f64>,
    /// `(ingest + check)` per row of traced rounds, for the overhead.
    traced_life: Vec<f64>,
}

/// Rounds until the budget is spent ([`Run::rounds`]). `round` returns
/// per-row seconds `(ingest, check)`.
fn rounds(
    run: &mut Run,
    mut round: impl FnMut(&mut Run, &mut Stages) -> std::io::Result<(f64, f64)>,
) -> std::io::Result<Stages> {
    let mut stages = Stages::default();
    run.rounds(1.0, false, |run, _, traced| {
        let cpu0 = crate::host::cpu_seconds();
        let (ingest, check) = round(run, &mut stages)?;
        if traced {
            stages.traced_life.push(ingest + check);
        } else {
            stages.ingest.push(ingest);
            stages.check.push(check);
            stages.cpu.push(crate::host::cpu_seconds() - cpu0);
        }
        Ok(())
    })?;
    Ok(stages)
}

/// Sets what both tiers report from their per-row stage times.
fn report_stages(run: &mut Run, stages: &Stages, cpu_rows: usize) {
    let (ingest, check) = (median(&stages.ingest), median(&stages.check));
    run.note("ingest_us_per_row", ingest * 1e6);
    run.note("check_us_per_row", check * 1e6);
    if run.args.trace {
        run.set("ingest_rows_s", 1.0 / ingest);
        run.set("check_rows_s", 1.0 / check);
        if !stages.traced_life.is_empty() {
            run.set(
                "bench.trace_overhead_pct",
                100.0 * (median(&stages.traced_life) - (ingest + check)) / (ingest + check),
            );
        }
    } else {
        run.note("raw_life_p50_us", (ingest + check) * 1e6);
        run.set(
            "setup_s",
            run.at_reference_speed(Yardstick::Cpu, &stages.setup),
        );
        let life_us: Vec<f64> = stages
            .ingest
            .iter()
            .zip(&stages.check)
            .map(|(i, c)| (i + c) * 1e6)
            .collect();
        run.set(
            "life_p50_us",
            run.at_reference_speed(Yardstick::Cpu, &life_us),
        );
        // Summed over rounds: /proc counts CPU in 10 ms ticks.
        let cpu_us = stages.cpu.iter().sum::<f64>() * 1e6 / (cpu_rows * stages.cpu.len()) as f64;
        run.set(
            "cpu_us_per_txn",
            run.cpu_at_reference_speed(Yardstick::Cpu, cpu_us),
        );
    }
}

fn decision_for(update: &BankUpdate) -> BankTxn {
    match update {
        BankUpdate::Credit(a, n) => BankTxn::Deposit(*a, *n),
        BankUpdate::Debit(a, n) => BankTxn::Withdraw(*a, *n),
        BankUpdate::Move(a, b, n) => BankTxn::Transfer(*a, *b, *n),
        BankUpdate::Sweep(a) => BankTxn::Reconcile(*a),
        BankUpdate::Noop => BankTxn::Audit,
    }
}

/// The head of a merged log as the in-memory tier's `TimedExecution`:
/// each transaction's prefix is every serially earlier one delivered
/// before it.
fn execution_of(log: &MergeLog<Bank>, expect: &[StreamRow]) -> TimedExecution<Bank> {
    let mut exec = Execution::new();
    for (i, (_, update)) in log.entries()[..expect.len()].iter().enumerate() {
        let mut missed = expect[i].missed.iter().copied().peekable();
        let prefix = (0..i).filter(|j| missed.next_if_eq(j).is_none()).collect();
        exec.push_record(TxnRecord {
            decision: decision_for(update),
            prefix,
            update: **update,
            external_actions: Vec::new(),
        });
    }
    TimedExecution::new(exec, expect.iter().map(|r| r.time).collect())
}

pub fn inmem(run: &mut Run) -> std::io::Result<()> {
    let app = Bank::new(ACCOUNTS, MAX_DEBIT);
    let seed = run.args.seed;
    let n = run.args.scaled(INMEM_ROWS, 2 * BLOCK);
    let checked = run.args.scaled(INMEM_CHECK_ROWS, BLOCK).min(n);
    let pool = PoolConfig::from_env();
    run.note("ingest_rows_per_round", n);
    run.note("check_rows_per_round", checked);
    run.note("pool_threads", pool.threads);

    let before = shard_obs::Registry::global().snapshot();
    let mut kept: Option<(Stream, TimedExecution<Bank>)> = None;
    let stages = rounds(run, |run, stages| {
        let t0 = Instant::now();
        let (stream, mut log) = run.tracer.span("bench.setup", |_| {
            (
                generate(&app, seed, n),
                MergeLog::new(&app, INMEM_CHECKPOINT_EVERY),
            )
        });
        stages.setup.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        for block in stream.deliveries.chunks(BLOCK) {
            run.tracer.span("sim.merge.merge_batch", |_| {
                log.merge_batch(&app, block.iter().cloned(), |_, _| {});
            });
        }
        let ingest = t0.elapsed().as_secs_f64() / n as f64;
        run.attempted += n as u64;
        run.failed += (n - log.len().min(n)) as u64;
        run.check(log.state() == &stream.reference, || {
            "merged state differs from the serial reference".to_string()
        });

        let expect = rows_by_delivery(&stream, checked);
        let te = execution_of(&log, &expect);
        let t0 = Instant::now();
        let rows = run.tracer.span("core.stream.rows_from_execution", |_| {
            rows_from_execution(&pool, &te)
        });
        let report = run.tracer.span("core.stream.par_check", |_| {
            par_check(&pool, &te, CHECKER_WINDOW)
        });
        let transitive = run.tracer.span("core.conditions.is_transitive", |_| {
            is_transitive(&te.execution)
        });
        let check = t0.elapsed().as_secs_f64() / checked as f64;
        run.check(rows == expect, || {
            "rows_from_execution differs from the rows worked out from delivery order".to_string()
        });
        run.check(report == check_rows(CHECKER_WINDOW, &expect), || {
            "par_check differs from a plain pass over the delivery-order rows".to_string()
        });
        run.check(report.transitive == transitive, || {
            "streaming and whole-execution transitivity verdicts differ".to_string()
        });
        if kept.is_none() {
            certify(run, &report, &expect);
        }
        kept = Some((stream, te));
        Ok((ingest, check))
    })?;
    let after = shard_obs::Registry::global().snapshot();
    report_stages(run, &stages, n);
    if !run.args.trace {
        return Ok(());
    }

    let (stream, te) = kept.expect("at least one round ran");
    let counters = Deltas::between(before, after);
    let merged = (stages.ingest.len() + stages.traced_life.len()) as f64 * n as f64;
    run.set(
        "core.replay.in_place_applies_per_row",
        counters.counter("replay.in_place_applies") / merged,
    );
    run.set(
        "core.replay.clone_bytes_per_row",
        counters.counter("state.clone_bytes") / merged,
    );
    layers::ckpt_hit_share(run, &counters);

    let updates: Vec<BankUpdate> = stream.deliveries.iter().map(|(_, u)| **u).collect();
    layers::apps(run, &app, &[], &updates);
    let order: Vec<layers::Arrival> = stream
        .deliveries
        .iter()
        .map(|(ts, u)| layers::Arrival {
            ts: *ts,
            update: Arc::clone(u),
            own: false,
        })
        .collect();
    let replay = layers::merge_replay(
        run,
        &app,
        INMEM_CHECKPOINT_EVERY,
        &[order],
        BLOCK,
        &stream.reference,
    );
    layers::merge_shares(run, &[replay.metrics], n);

    // core.stream / core.conditions / pool: each checker alone, and the
    // pool against one thread, interleaved.
    let per_row = |f: &mut dyn FnMut()| layers::time3(f) / checked as f64;
    let rows = rows_from_execution(&pool, &te);
    let pool_before = shard_obs::Registry::global().snapshot();
    let ns = per_row(&mut || {
        black_box(rows_from_execution(&pool, &te));
    });
    run.set("core.stream.rows_from_execution_ns_per_row", ns);
    let ns = per_row(&mut || {
        black_box(check_rows(CHECKER_WINDOW, &rows));
    });
    run.set("core.stream.check_rows_ns_per_row", ns);
    let one = PoolConfig::sequential();
    let par_check_ns = |pool: &PoolConfig| {
        let t0 = Instant::now();
        black_box(par_check(pool, &te, CHECKER_WINDOW));
        t0.elapsed().as_nanos() as f64
    };
    let (wide, narrow) = layers::interleaved(3, || par_check_ns(&pool), || par_check_ns(&one));
    run.set("core.stream.par_check_ns_per_row", wide / checked as f64);
    run.set("pool.par_check_speedup", narrow / wide);
    let ns = per_row(&mut || {
        black_box(is_transitive(&te.execution));
    });
    run.set("core.conditions.is_transitive_ns_per_row", ns);
    let pool_counters = Deltas::between(pool_before, shard_obs::Registry::global().snapshot());
    let jobs = pool_counters.counter("pool.jobs");
    if jobs > 0.0 {
        run.set(
            "pool.tasks_per_job",
            pool_counters.counter("pool.tasks") / jobs,
        );
    }
    Ok(())
}

pub fn outofcore(run: &mut Run) -> std::io::Result<()> {
    let app = Bank::new(ACCOUNTS, MAX_DEBIT);
    let seed = run.args.seed;
    let n = run.args.scaled(OUTOFCORE_ROWS, 4 * BLOCK);
    let scratch = crate::host::Scratch::new("outofcore")?;
    run.note("rows_per_round", n);
    run.note("pool_frames", StoreOptions::default().pool_frames);

    let before = shard_obs::Registry::global().snapshot();
    let mut store_bytes = 0u64;
    let mut spilled = 0usize;
    let mut fold_s = Vec::new();
    let mut first = true;
    let stages = rounds(run, |run, stages| {
        let t0 = Instant::now();
        let (stream, mut merge) = run.tracer.span("bench.setup", |_| {
            let stream = generate(&app, seed, n);
            let (rows, _) = DiskStore::open(&scratch.sub("rows"), StoreOptions::default())?;
            let (anchors, _) = DiskStore::open(&scratch.sub("anchors"), StoreOptions::default())?;
            let merge: StreamingMerge<Bank> = StreamingMerge::new(
                &app,
                Box::new(rows),
                Box::new(anchors),
                BLOCK,
                CHECKPOINT_EVERY,
                HOT_POINTS,
                SPILL_SPACING,
                CHECKER_WINDOW,
            );
            Ok::<_, std::io::Error>((stream, merge))
        })?;
        stages.setup.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut tick = 0u64;
        for block in stream.deliveries.chunks(BLOCK) {
            run.tracer.span("sim.streaming.offer", |_| {
                block.iter().try_for_each(|(ts, u)| {
                    tick += 1;
                    merge.offer(&app, *ts, tick - 1, **u)
                })
            })?;
        }
        run.tracer
            .span("sim.streaming.finish", |_| merge.finish(&app))?;
        let ingest = t0.elapsed().as_secs_f64() / n as f64;
        run.attempted += n as u64;
        run.failed += (n - merge.sealed().min(n)) as u64;
        run.check(merge.state() == &stream.reference, || {
            "streamed state differs from the serial reference".to_string()
        });
        let online = merge.report();
        spilled = merge.spilled_anchors();
        let (mut sink, _, mut anchors) = merge.into_parts();

        let t0 = Instant::now();
        let second = run.tracer.span("core.replay.check_stream", |_| {
            sink.check_stream(CHECKER_WINDOW)
        })?;
        let check = t0.elapsed().as_secs_f64() / n as f64;
        run.check(second == online, || {
            "online report differs from the second pass off the store".to_string()
        });
        let t0 = Instant::now();
        let folded = run
            .tracer
            .span("core.replay.final_state", |_| sink.final_state(&app))?;
        fold_s.push(t0.elapsed().as_secs_f64());
        run.check(folded == stream.reference, || {
            "final_state off the store cursor differs from the serial reference".to_string()
        });
        store_bytes = sink.store_mut().len_bytes() + anchors.store_mut().len_bytes();
        if first {
            first = false;
            let expect = rows_by_delivery(&stream, n);
            run.check(second == check_rows(CHECKER_WINDOW, &expect), || {
                "stored rows differ from the rows worked out from delivery order".to_string()
            });
            certify(run, &second, &expect);
        }
        Ok((ingest, check))
    })?;
    let after = shard_obs::Registry::global().snapshot();
    report_stages(run, &stages, n);
    run.note("store_bytes", store_bytes);
    if !run.args.trace {
        return Ok(());
    }

    run.set("store_bytes_per_txn", store_bytes as f64 / n as f64);
    let counters = Deltas::between(before, after);
    let rounds_run = stages.ingest.len() + stages.traced_life.len();
    let rows_total = rounds_run * n;
    layers::store_counters(run, &counters, rows_total);
    run.set(
        "core.replay.spills",
        counters.counter("replay.spills") / rounds_run as f64,
    );
    run.set(
        "core.replay.spill_loads",
        counters.counter("replay.spill_loads") / rounds_run as f64,
    );
    run.set(
        "core.replay.in_place_applies_per_row",
        counters.counter("replay.in_place_applies") / rows_total as f64,
    );
    run.set(
        "core.replay.clone_bytes_per_row",
        counters.counter("state.clone_bytes") / rows_total as f64,
    );
    run.set("sim.streaming.spilled_anchors", spilled as f64);
    run.set(
        "sim.streaming.peak_resident_bytes",
        shard_obs::Registry::global()
            .gauge("state.peak_resident_bytes")
            .get()
            .max(0) as f64,
    );
    run.set("sim.streaming.offer_ns", median(&stages.ingest) * 1e9);
    run.set(
        "core.replay.check_stream_ns_per_row",
        median(&stages.check) * 1e9,
    );
    run.set(
        "core.replay.fold_ns_per_row",
        median(&fold_s) * 1e9 / n as f64,
    );

    // The last round's stores are still on disk: reopen and scan the row
    // store, and append the same payloads straight into a fresh one.
    layers::btree(run, &scratch.path().join("rows"))?;
    let stream = generate(&app, seed, n);
    let updates: Vec<BankUpdate> = stream.deliveries.iter().map(|(_, u)| **u).collect();
    layers::apps(run, &app, &[], &updates);
    let records: Vec<(StoreKey, Vec<u8>)> = updates
        .iter()
        .take(run.args.scaled(20_000, 600))
        .enumerate()
        .map(|(i, u)| (StoreKey::new(i as u64 + 1, 0), u.to_vec()))
        .collect();
    layers::wal(run, &scratch.sub("wal"), &records)?;
    let payload: usize = updates.iter().map(|u| u.to_vec().len()).sum();
    run.set(
        "store.wal.write_amp",
        store_bytes as f64 / payload.max(1) as f64,
    );
    Ok(())
}
