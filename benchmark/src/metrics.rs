//! The registry of every metric the benchmark reports: name, unit,
//! direction, regression bound, the workloads that exercise it and —
//! for a layer metric — the figure it should move. `BENCHMARK.json`
//! lists the same names (a test holds the two together); README.md
//! holds the prose.

/// The five workloads, by their fixed names.
pub const LIVE_EAGER: &str = "live-eager";
pub const LIVE_DURABLE: &str = "live-durable";
pub const SIM_PARTITION: &str = "sim-partition";
pub const AUDIT_INMEM: &str = "audit-inmem";
pub const AUDIT_OUTOFCORE: &str = "audit-outofcore";

pub const WORKLOADS: [&str; 5] = [
    LIVE_EAGER,
    LIVE_DURABLE,
    SIM_PARTITION,
    AUDIT_INMEM,
    AUDIT_OUTOFCORE,
];

const LIVE: &[&str] = &[LIVE_EAGER, LIVE_DURABLE];
const DURABLE: &[&str] = &[LIVE_DURABLE];
const SIM: &[&str] = &[SIM_PARTITION];
const AUDIT: &[&str] = &[AUDIT_INMEM, AUDIT_OUTOFCORE];
const INMEM: &[&str] = &[AUDIT_INMEM];
const OUTOFCORE: &[&str] = &[AUDIT_OUTOFCORE];
const STORE: &[&str] = &[LIVE_DURABLE, AUDIT_OUTOFCORE];
const MERGE: &[&str] = &[LIVE_EAGER, LIVE_DURABLE, SIM_PARTITION, AUDIT_INMEM];
const ALL: &[&str] = &WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`, and every subcommand's default: 114
/// runs of this length, their set-up, oracles and two builds fit the
/// driver's 3 420 s with a third to spare.
pub const RUN_SECONDS: u64 = 15;

/// Which pass reports a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: benchmark tracing off.
    EndToEnd,
    /// `--trace 1`: the traced pass.
    PerLayer,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub pass: Pass,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` calls it a regression; `None` = reported only.
    pub bound: Option<f64>,
    /// Workloads that exercise the metric (elsewhere it reads 0).
    pub workloads: &'static [&'static str],
    /// The gated figure this metric should move, if it is a layer's.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        pass: Pass::EndToEnd,
        bound: Some(bound),
        workloads: ALL,
        moves: "",
    }
}

/// A stage figure of the traced pass that `compare` gates.
const fn stage(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        pass: Pass::PerLayer,
        bound: Some(bound),
        workloads,
        moves: "life_p50_us",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        pass: Pass::PerLayer,
        bound: None,
        workloads,
        moves,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricDef] = &[
    // End to end: reported by every workload, gated by the driver.
    e2e("setup_s", "s", 0.25),
    e2e("life_p50_us", "us", 0.25),
    e2e("cpu_us_per_txn", "us", 0.25),
    e2e("peak_rss_mb", "MiB", 0.25),
    // Stages of a transaction's life, per workload family.
    stage("admit_p50_us", "us", Lower, 0.15, LIVE),
    stage("admit_p90_us", "us", Lower, 0.20, LIVE),
    stage("replicate_p50_us", "us", Lower, 0.15, LIVE),
    stage("replicate_p90_us", "us", Lower, 0.20, LIVE),
    stage("recover_s", "s", Lower, 0.20, DURABLE),
    stage("sim_txn_s", "txn/s", Higher, 0.05, SIM),
    stage("ingest_rows_s", "rows/s", Higher, 0.10, AUDIT),
    stage("check_rows_s", "rows/s", Higher, 0.10, AUDIT),
    stage("store_bytes_per_txn", "B", Lower, 0.02, STORE),
    // runtime.load
    layer("runtime.load.gen_ns_per_txn", "ns", Lower, LIVE, "setup_s"),
    // runtime.live
    layer(
        "runtime.live.transit_p50_us",
        "us",
        Lower,
        LIVE,
        "replicate_p50_us",
    ),
    layer(
        "runtime.live.transit_p90_us",
        "us",
        Lower,
        LIVE,
        "replicate_p90_us",
    ),
    layer("runtime.live.admit_p99_us", "us", Lower, LIVE, ""),
    layer("runtime.live.replicate_p99_us", "us", Lower, LIVE, ""),
    layer("runtime.live.replicate_max_us", "us", Lower, LIVE, ""),
    layer(
        "runtime.live.missed_p99",
        "count",
        Lower,
        LIVE,
        "replicate_p90_us",
    ),
    layer(
        "runtime.live.missed_max",
        "count",
        Lower,
        LIVE,
        "replicate_p90_us",
    ),
    layer(
        "runtime.live.queue_depth_p90",
        "count",
        Lower,
        LIVE,
        "replicate_p90_us",
    ),
    layer(
        "runtime.live.msgs_per_txn",
        "count",
        Lower,
        LIVE,
        "replicate_p50_us",
    ),
    layer(
        "runtime.live.entries_per_msg",
        "count",
        Higher,
        LIVE,
        "replicate_p50_us",
    ),
    layer(
        "runtime.live.residual_p50_us",
        "us",
        Lower,
        LIVE,
        "replicate_p50_us",
    ),
    layer("runtime.live.replay_fidelity", "ratio", Higher, LIVE, ""),
    layer("runtime.live.closed_txn_s", "txn/s", Higher, LIVE, ""),
    // apps
    layer(
        "apps.decide_ns",
        "ns",
        Lower,
        &[LIVE_EAGER, LIVE_DURABLE, SIM_PARTITION],
        "sim_txn_s",
    ),
    layer("apps.apply_ns", "ns", Lower, ALL, "sim_txn_s"),
    layer("apps.encode_ns", "ns", Lower, ALL, "replicate_p50_us"),
    layer("apps.decode_ns", "ns", Lower, ALL, "check_rows_s"),
    layer(
        "apps.encoded_bytes_per_update",
        "B",
        Lower,
        ALL,
        "store_bytes_per_txn",
    ),
    // sim.kernel
    layer(
        "sim.kernel.events_per_txn",
        "count",
        Lower,
        SIM,
        "sim_txn_s",
    ),
    layer("sim.kernel.msgs_per_txn", "count", Lower, SIM, "sim_txn_s"),
    layer("sim.kernel.self_ns_per_txn", "ns", Lower, SIM, "sim_txn_s"),
    // sim.merge
    layer("sim.merge.merge_ns", "ns", Lower, MERGE, "sim_txn_s"),
    layer(
        "sim.merge.batch_ns_per_entry",
        "ns",
        Lower,
        MERGE,
        "ingest_rows_s",
    ),
    layer(
        "sim.merge.replayed_per_txn",
        "count",
        Lower,
        MERGE,
        "sim_txn_s",
    ),
    layer(
        "sim.merge.out_of_order_share",
        "ratio",
        Lower,
        MERGE,
        "sim_txn_s",
    ),
    layer(
        "sim.merge.duplicate_share",
        "ratio",
        Lower,
        MERGE,
        "sim_txn_s",
    ),
    layer(
        "sim.merge.ckpt_hit_share",
        "ratio",
        Higher,
        MERGE,
        "sim_txn_s",
    ),
    // sim.monitor
    layer("sim.monitor.overhead_pct", "%", Lower, SIM, "sim_txn_s"),
    layer("sim.monitor.max_missed", "count", Lower, SIM, ""),
    // sim.durable
    layer(
        "sim.durable.persist_own_us",
        "us",
        Lower,
        DURABLE,
        "replicate_p50_us",
    ),
    layer(
        "sim.durable.persist_recv_us",
        "us",
        Lower,
        DURABLE,
        "replicate_p50_us",
    ),
    layer(
        "sim.durable.recover_us_per_entry",
        "us",
        Lower,
        DURABLE,
        "recover_s",
    ),
    // sim.streaming
    layer(
        "sim.streaming.offer_ns",
        "ns",
        Lower,
        OUTOFCORE,
        "ingest_rows_s",
    ),
    layer(
        "sim.streaming.spilled_anchors",
        "count",
        Lower,
        OUTOFCORE,
        "ingest_rows_s",
    ),
    layer(
        "sim.streaming.peak_resident_bytes",
        "B",
        Lower,
        OUTOFCORE,
        "peak_rss_mb",
    ),
    // store.wal
    layer(
        "store.wal.append_ns",
        "ns",
        Lower,
        STORE,
        "replicate_p50_us",
    ),
    layer("store.wal.fsync_us", "us", Lower, STORE, "replicate_p50_us"),
    layer(
        "store.wal.fsyncs_per_txn",
        "count",
        Lower,
        STORE,
        "replicate_p50_us",
    ),
    layer(
        "store.wal.appends_per_txn",
        "count",
        Lower,
        STORE,
        "store_bytes_per_txn",
    ),
    layer(
        "store.wal.write_amp",
        "ratio",
        Lower,
        STORE,
        "store_bytes_per_txn",
    ),
    // store.pool
    layer(
        "store.pool.hit_share",
        "ratio",
        Higher,
        STORE,
        "check_rows_s",
    ),
    layer(
        "store.pool.evictions_per_krow",
        "count",
        Lower,
        STORE,
        "ingest_rows_s",
    ),
    layer(
        "store.pool.page_writes_per_krow",
        "count",
        Lower,
        STORE,
        "ingest_rows_s",
    ),
    layer(
        "store.pool.readaheads_per_krow",
        "count",
        Higher,
        STORE,
        "check_rows_s",
    ),
    // store.btree
    layer("store.btree.depth", "count", Lower, STORE, "check_rows_s"),
    layer(
        "store.btree.pages",
        "count",
        Lower,
        STORE,
        "store_bytes_per_txn",
    ),
    layer(
        "store.btree.scan_ns_per_row",
        "ns",
        Lower,
        STORE,
        "check_rows_s",
    ),
    layer("store.btree.open_ms", "ms", Lower, STORE, "recover_s"),
    // core.replay
    layer(
        "core.replay.check_stream_ns_per_row",
        "ns",
        Lower,
        OUTOFCORE,
        "check_rows_s",
    ),
    layer(
        "core.replay.fold_ns_per_row",
        "ns",
        Lower,
        OUTOFCORE,
        "check_rows_s",
    ),
    layer(
        "core.replay.spills",
        "count",
        Lower,
        OUTOFCORE,
        "ingest_rows_s",
    ),
    layer(
        "core.replay.spill_loads",
        "count",
        Lower,
        OUTOFCORE,
        "ingest_rows_s",
    ),
    layer(
        "core.replay.in_place_applies_per_row",
        "count",
        Lower,
        AUDIT,
        "ingest_rows_s",
    ),
    layer(
        "core.replay.clone_bytes_per_row",
        "B",
        Lower,
        AUDIT,
        "ingest_rows_s",
    ),
    // core.stream, core.conditions
    layer(
        "core.stream.rows_from_execution_ns_per_row",
        "ns",
        Lower,
        INMEM,
        "check_rows_s",
    ),
    layer(
        "core.stream.check_rows_ns_per_row",
        "ns",
        Lower,
        INMEM,
        "check_rows_s",
    ),
    layer(
        "core.stream.par_check_ns_per_row",
        "ns",
        Lower,
        INMEM,
        "check_rows_s",
    ),
    layer(
        "core.conditions.is_transitive_ns_per_row",
        "ns",
        Lower,
        INMEM,
        "check_rows_s",
    ),
    // pool
    layer(
        "pool.par_check_speedup",
        "ratio",
        Higher,
        INMEM,
        "check_rows_s",
    ),
    layer("pool.tasks_per_job", "count", Lower, INMEM, "check_rows_s"),
    // obs
    layer("obs.overhead_pct", "%", Lower, SIM, "sim_txn_s"),
    layer("obs.latency_hist_p50_us", "us", Lower, LIVE, ""),
    // bench
    layer("bench.trace_overhead_pct", "%", Lower, ALL, ""),
    layer("bench.spans", "count", Lower, ALL, ""),
    layer("bench.wakeup_floor_us", "us", Lower, ALL, ""),
    layer("bench.mem_gb_s", "GB/s", Higher, ALL, ""),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

pub fn of_pass(pass: Pass) -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(move |m| m.pass == pass)
}

/// One line per workload: why it exists.
pub fn why(workload: &str) -> &'static str {
    match workload {
        LIVE_EAGER => {
            "2 node threads, open loop 40000 txn/s, no store: queue, decide, send, channel, \
             merge; the bypass workload for every store change"
        }
        LIVE_DURABLE => {
            "live-eager plus write-ahead mirrors: timed on MemStore at the same rate (this host's \
             flush drifts), then DiskStore + fsync at 5000 txn/s, 5 restarts and a crash check"
        }
        SIM_PARTITION => {
            "seeded single-threaded kernel, 5 nodes, node 0 repeatedly isolated: undo/redo, \
             checkpoints and apply dominate; one seed always does the same work"
        }
        AUDIT_INMEM => {
            "block-shuffled delivery stream into the RAM tier: merge_batch run-splice, then the \
             certified check over an in-memory Execution; no store"
        }
        AUDIT_OUTOFCORE => {
            "the same stream into StreamingMerge over two DiskStores with a 256 KiB pool: bulk \
             ingest, then range scans over a store larger than the cache"
        }
        _ => panic!("unknown workload {workload}"),
    }
}

/// `BENCHMARK.json` as the registry defines it. The command builds and
/// runs this package from the root of a checkout; the driver appends
/// `--workload --seed --seconds --trace`.
pub fn manifest_json(run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                shard_obs::json::string(w),
                shard_obs::json::string(why(w))
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = of_pass(Pass::EndToEnd)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("every end-to-end metric is gated")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = of_pass(Pass::PerLayer)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, extra: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(name_ok(m.name, "_.-", 64), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name_ok(m.unit, "_/%.-", 16), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
            assert!(
                m.moves.is_empty() || lookup(m.moves).is_some_and(|t| t.bound.is_some()),
                "{} moves an ungated or unknown metric",
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(name_ok(w, "_.-", 64) && why(w).len() <= 200 && !why(w).contains('\n'));
        }
        assert!((1..=16).contains(&of_pass(Pass::EndToEnd).count()));
        assert!((1..=128).contains(&of_pass(Pass::PerLayer).count()));
        let setup = lookup("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` at the root of the repository is exactly what
    /// the registry generates (`shard-benchmark manifest` rewrites it).
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let parsed = shard_obs::json::parse(&on_disk).expect("BENCHMARK.json parses");
        let run_seconds = parsed
            .get("run_seconds")
            .and_then(shard_obs::Json::as_u64)
            .expect("run_seconds is a whole number");
        assert!((1..=60).contains(&run_seconds));
        assert_eq!(on_disk, manifest_json(run_seconds));
        assert!(on_disk.len() <= 64 * 1024);
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
