//! Isolation re-drives shared by the workloads' traced passes: each
//! layer's share of the work, repeated on the *recorded* inputs of the
//! workload (its decisions, its updates, each node's arrival order, its
//! encoded payloads) through the layer's public functions only.

use crate::report::Run;
use shard_apps::banking::{Bank, BankTxn, BankUpdate};
use shard_core::Application;
use shard_sim::{MergeLog, MergeMetrics, Timestamp};
use shard_store::{Codec, DiskStore, KeyCursor, Store, StoreKey, StoreOptions};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One entry of a node's recorded arrival order.
#[derive(Clone)]
pub struct Arrival {
    pub ts: Timestamp,
    pub update: Arc<BankUpdate>,
    /// Whether the node executed it itself (fsynced before propagation)
    /// or received it.
    pub own: bool,
}

/// Median of three timed passes of `f`, in nanoseconds.
pub fn time3(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Medians of `reps` interleaved pairs of measurements, so drift hits
/// both sides alike.
pub fn interleaved(
    reps: usize,
    mut base: impl FnMut() -> f64,
    mut variant: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        a.push(base());
        b.push(variant());
    }
    (crate::stats::median(&a), crate::stats::median(&b))
}

/// [`apps`] over the decisions and updates of a run's transactions (in
/// the report's serial order).
pub fn apps_of(run: &mut Run, app: &Bank, transactions: &[shard_sim::ExecutedTxn<Bank>]) {
    let decisions: Vec<BankTxn> = transactions.iter().map(|t| t.decision).collect();
    let updates: Vec<BankUpdate> = transactions.iter().map(|t| t.update).collect();
    apps(run, app, &decisions, &updates);
}

/// `apps`: Bank `decide` / `apply_in_place` over the workload's own
/// decisions (serial order, serial state) and the `Codec` over its
/// updates. `decisions` is empty for workloads that generate updates
/// directly.
pub fn apps(run: &mut Run, app: &Bank, decisions: &[BankTxn], updates: &[BankUpdate]) {
    let n = updates.len().max(1) as f64;
    let apply_ns = run.tracer.span("apps.apply_in_place", |_| {
        time3(|| {
            let mut state = app.initial_state();
            for u in updates {
                app.apply_in_place(&mut state, u);
            }
            black_box(&state);
        })
    });
    run.set("apps.apply_ns", apply_ns / n);
    if !decisions.is_empty() {
        // Decide needs the serial state, so time decide + apply and take
        // the apply pass off.
        let both_ns = run.tracer.span("apps.decide", |_| {
            time3(|| {
                let mut state = app.initial_state();
                for d in decisions {
                    let outcome = app.decide(black_box(d), &state);
                    app.apply_in_place(&mut state, &outcome.update);
                    black_box(&outcome.external_actions);
                }
                black_box(&state);
            })
        });
        run.set(
            "apps.decide_ns",
            ((both_ns - apply_ns) / decisions.len() as f64).max(0.0),
        );
    }
    let mut buf = Vec::new();
    let encode_ns = run.tracer.span("apps.encode", |_| {
        time3(|| {
            buf.clear();
            for u in updates {
                u.encode(&mut buf);
            }
            black_box(&buf);
        })
    });
    run.set("apps.encode_ns", encode_ns / n);
    run.set("apps.encoded_bytes_per_update", buf.len() as f64 / n);
    let decode_ns = run.tracer.span("apps.decode", |_| {
        time3(|| {
            let mut r = shard_store::ByteReader::new(&buf);
            while !r.is_done() {
                black_box(BankUpdate::decode(&mut r).expect("own encoding decodes"));
            }
        })
    });
    run.set("apps.decode_ns", decode_ns / n);
}

/// What an isolated merge replay of recorded arrival orders measured.
pub struct MergeReplay {
    /// Nanoseconds per entry, one `merge` call per entry.
    pub single_ns: f64,
    /// Total time of the single-entry replays, in seconds.
    pub single_total_s: f64,
    /// Summed merge metrics of the single-entry replays.
    pub metrics: MergeMetrics,
}

/// `sim.merge`: a fresh [`MergeLog`] per node fed that node's recorded
/// arrival order — once entry by entry (`merge_ns`), once in
/// `block`-sized batches (`batch_ns_per_entry`). Every replayed log must
/// end in the state the workload itself reached.
pub fn merge_replay(
    run: &mut Run,
    app: &Bank,
    checkpoint_every: usize,
    per_node: &[Vec<Arrival>],
    block: usize,
    expect: &<Bank as Application>::State,
) -> MergeReplay {
    let entries: usize = per_node.iter().map(Vec::len).sum();
    let mut metrics = MergeMetrics::default();
    let mut states = Vec::new();
    let t0 = Instant::now();
    run.tracer.span("sim.merge.merge", |_| {
        for arrivals in per_node {
            let mut log = MergeLog::new(app, checkpoint_every);
            for a in arrivals {
                log.merge(app, a.ts, Arc::clone(&a.update));
            }
            let m = log.metrics();
            metrics.appends += m.appends;
            metrics.out_of_order += m.out_of_order;
            metrics.replayed += m.replayed;
            metrics.duplicates += m.duplicates;
            states.push(log.into_state());
        }
    });
    let single = t0.elapsed();
    let t0 = Instant::now();
    run.tracer.span("sim.merge.merge_batch", |_| {
        for arrivals in per_node {
            let mut log = MergeLog::new(app, checkpoint_every);
            for chunk in arrivals.chunks(block) {
                log.merge_batch(
                    app,
                    chunk.iter().map(|a| (a.ts, Arc::clone(&a.update))),
                    |_, _| {},
                );
            }
            black_box(log.state());
        }
    });
    let batch = t0.elapsed();
    run.check(states.iter().all(|s| s == expect), || {
        "an isolated merge replay of a recorded arrival order reaches another state".to_string()
    });
    let per = entries.max(1) as f64;
    let single_ns = single.as_nanos() as f64 / per;
    run.set("sim.merge.merge_ns", single_ns);
    run.set(
        "sim.merge.batch_ns_per_entry",
        batch.as_nanos() as f64 / per,
    );
    MergeReplay {
        single_ns,
        single_total_s: single.as_secs_f64(),
        metrics,
    }
}

/// Sets the `sim.merge.*` work shares from summed [`MergeMetrics`].
pub fn merge_shares(run: &mut Run, metrics: &[MergeMetrics], txns: usize) {
    let sum = |f: fn(&MergeMetrics) -> u64| metrics.iter().map(f).sum::<u64>() as f64;
    let deliveries =
        (sum(|m| m.appends) + sum(|m| m.out_of_order) + sum(|m| m.duplicates)).max(1.0);
    run.set(
        "sim.merge.replayed_per_txn",
        sum(|m| m.replayed) / txns.max(1) as f64,
    );
    run.set(
        "sim.merge.out_of_order_share",
        sum(|m| m.out_of_order) / deliveries,
    );
    run.set(
        "sim.merge.duplicate_share",
        sum(|m| m.duplicates) / deliveries,
    );
}

/// Counter deltas of the global obs registry between two snapshots.
pub struct Deltas {
    before: shard_obs::Snapshot,
    after: shard_obs::Snapshot,
}

impl Deltas {
    pub fn between(before: shard_obs::Snapshot, after: shard_obs::Snapshot) -> Self {
        Deltas { before, after }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &shard_obs::Snapshot| s.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }
}

/// `sim.merge.ckpt_hit_share` from the registry's checkpoint counters.
pub fn ckpt_hit_share(run: &mut Run, d: &Deltas) {
    let (hits, misses) = (
        d.counter("replay.ckpt_hits"),
        d.counter("replay.ckpt_misses"),
    );
    if hits + misses > 0.0 {
        run.set("sim.merge.ckpt_hit_share", hits / (hits + misses));
    }
}

/// `store.pool.*` and the per-transaction WAL counts from the registry.
pub fn store_counters(run: &mut Run, d: &Deltas, txns: usize) {
    let per_txn = txns.max(1) as f64;
    let pins = d.counter("store.pins");
    if pins > 0.0 {
        run.set(
            "store.pool.hit_share",
            1.0 - d.counter("store.page_reads") / pins,
        );
    }
    let per_krow = per_txn / 1000.0;
    run.set(
        "store.pool.evictions_per_krow",
        d.counter("store.evictions") / per_krow,
    );
    run.set(
        "store.pool.page_writes_per_krow",
        d.counter("store.page_writes") / per_krow,
    );
    run.set(
        "store.pool.readaheads_per_krow",
        d.counter("store.readaheads") / per_krow,
    );
    run.set(
        "store.wal.fsyncs_per_txn",
        d.counter("store.wal_fsyncs") / per_txn,
    );
    run.set(
        "store.wal.appends_per_txn",
        d.counter("store.wal_appends") / per_txn,
    );
}

/// `store.wal`: direct [`DiskStore`] appends of the workload's encoded
/// records into a fresh store, then single-record fsyncs.
pub fn wal(run: &mut Run, dir: &Path, records: &[(StoreKey, Vec<u8>)]) -> std::io::Result<()> {
    const FSYNCS: usize = 400;
    let (mut store, _) = DiskStore::open(dir, StoreOptions::default())?;
    let bulk = records.len().saturating_sub(FSYNCS);
    let t0 = Instant::now();
    run.tracer.span("store.wal.append", |_| {
        records[..bulk]
            .iter()
            .try_for_each(|(k, v)| store.append(*k, v))
    })?;
    if bulk > 0 {
        run.set(
            "store.wal.append_ns",
            t0.elapsed().as_nanos() as f64 / bulk as f64,
        );
    }
    store.sync()?;
    let mut fsync_ns = Vec::with_capacity(FSYNCS);
    run.tracer.span("store.wal.sync", |_| {
        records[bulk..].iter().try_for_each(|(k, v)| {
            store.append(*k, v)?;
            let t0 = Instant::now();
            store.sync()?;
            fsync_ns.push(t0.elapsed().as_nanos() as f64);
            Ok::<(), std::io::Error>(())
        })
    })?;
    if !fsync_ns.is_empty() {
        run.set("store.wal.fsync_us", crate::stats::median(&fsync_ns) / 1e3);
    }
    Ok(())
}

/// `store.btree`: reopen the store at `dir` (WAL replay + index
/// rebuild), read its shape, and scan it end to end off a key cursor.
pub fn btree(run: &mut Run, dir: &Path) -> std::io::Result<()> {
    let t0 = Instant::now();
    let (mut store, entries) = run.tracer.span("store.btree.open", |_| {
        DiskStore::open(dir, StoreOptions::default())
    })?;
    run.set("store.btree.open_ms", t0.elapsed().as_secs_f64() * 1e3);
    let stats = store.index_stats()?;
    run.set("store.btree.depth", stats.depth as f64);
    run.set("store.btree.pages", stats.total_pages as f64);
    let t0 = Instant::now();
    let scanned = run.tracer.span("store.btree.scan", |_| {
        let mut cursor = KeyCursor::new(1024);
        let mut n = 0usize;
        while let Some(rec) = cursor.next(&mut store)? {
            black_box(&rec);
            n += 1;
        }
        Ok::<usize, std::io::Error>(n)
    })?;
    run.check(scanned == entries, || {
        format!("key cursor saw {scanned} of {entries} records")
    });
    run.set(
        "store.btree.scan_ns_per_row",
        t0.elapsed().as_nanos() as f64 / scanned.max(1) as f64,
    );
    Ok(())
}

/// The floors the latencies and scan rates are read against, measured on
/// this host in this run: how late a thread wakes from the primitive the
/// runtime's node threads sleep on, and how fast memory copies.
pub fn floors(run: &mut Run) {
    const NAP: std::time::Duration = std::time::Duration::from_micros(50);
    let (_tx, rx) = std::sync::mpsc::channel::<()>();
    let late_us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let _ = rx.recv_timeout(NAP);
            t0.elapsed().saturating_sub(NAP).as_nanos() as f64 / 1e3
        })
        .collect();
    run.set("bench.wakeup_floor_us", crate::stats::median(&late_us));

    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; src.len()];
    let ns = time3(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    });
    run.set("bench.mem_gb_s", src.len() as f64 / ns);
}
