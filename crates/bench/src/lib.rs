//! Shared infrastructure for the experiment binaries (`src/bin/exp_*`).
//!
//! Every binary regenerates one of the paper's claims; see DESIGN.md §4
//! for the experiment index and EXPERIMENTS.md for recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod workloads;

use shard_analysis::ClaimCheck;
use shard_obs::{EventSink, ObjWriter, Registry, SPAN_PREFIX};
use std::sync::Arc;
use std::time::Instant;

/// Prints a claim check and returns whether it held (experiment binaries
/// exit non-zero on violated claims so CI catches regressions). Also
/// feeds the global `claims.*` counters, so every experiment's sidecar
/// reports how many claims (and instances) it checked without any
/// per-call-site changes.
pub fn report_claim(check: &ClaimCheck) -> bool {
    println!("  {check}");
    let ok = check.holds();
    if shard_obs::enabled() {
        let r = Registry::global();
        r.counter("claims.checked").inc();
        r.counter("claims.instances").add(check.instances as u64);
        r.counter("claims.violations")
            .add(check.violations.len() as u64);
        if !ok {
            r.counter("claims.failed").inc();
        }
    }
    ok
}

/// Exits with an error if any claim failed.
pub fn finish(all_hold: bool) {
    if all_hold {
        println!("\nALL CLAIMS HOLD");
    } else {
        println!("\nCLAIM VIOLATIONS FOUND");
        std::process::exit(1);
    }
}

/// `[user CPU s, system CPU s, resident MiB]` of this process, from
/// `/proc/self` (zeros where there is none).
pub fn process_figures() -> [f64; 3] {
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    // utime and stime are fields 14 and 15 of `stat`, 12 and 13 after
    // the parenthesised command name, in ticks of 1/100 s.
    let stat = read("/proc/self/stat");
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut ticks = after.split_whitespace().skip(11);
    let mut seconds = || {
        let tick = ticks.next().and_then(|f| f.parse::<f64>().ok());
        tick.unwrap_or(0.0) / 100.0
    };
    let (user, system) = (seconds(), seconds());
    let rss_kb = read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    [user, system, rss_kb.unwrap_or(0.0) / 1024.0]
}

/// The directory experiment sidecars are written to: `EXP_METRICS_DIR`
/// if set, else `target/exp_metrics` at the workspace root.
pub fn metrics_dir() -> std::path::PathBuf {
    std::env::var_os("EXP_METRICS_DIR").map_or_else(
        || concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/exp_metrics").into(),
        Into::into,
    )
}

/// The directory experiment JSONL traces are written to:
/// `EXP_TRACES_DIR` if set, else `target/exp_traces` at the workspace
/// root.
pub fn traces_dir() -> std::path::PathBuf {
    std::env::var_os("EXP_TRACES_DIR").map_or_else(
        || concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/exp_traces").into(),
        Into::into,
    )
}

/// Per-experiment metrics harness: wraps an experiment binary's run and
/// writes a JSON *sidecar* (`target/exp_metrics/<name>.json`) carrying
/// everything the run recorded — claims checked, every global counter,
/// gauge and histogram, and a digest of every span timer. The sidecars
/// are machine-validated by `ci.sh` and aggregated by
/// `run_experiments.sh` into `EXPERIMENTS_METRICS.json`.
pub struct Experiment {
    name: String,
    started: Instant,
}

impl Experiment {
    /// Starts the harness; call first thing in `main`.
    pub fn start(name: impl Into<String>) -> Self {
        Experiment {
            name: name.into(),
            started: Instant::now(),
        }
    }

    /// A JSONL trace sink at `target/exp_traces/<name>.jsonl` for this
    /// experiment's simulator runs (`shard-trace summarize` digests it).
    /// Returns `None` (with a warning) if the file cannot be created.
    pub fn trace_sink(&self) -> Option<Arc<EventSink>> {
        let path = traces_dir().join(format!("{}.jsonl", self.name));
        match EventSink::to_file(&path) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("warning: cannot open trace {}: {e}", path.display());
                None
            }
        }
    }

    /// The sidecar document for the current global registry state.
    fn sidecar_json(&self, all_hold: bool) -> String {
        let snap = Registry::global().snapshot();
        let mut counters = String::from("{");
        let mut first = true;
        for (name, v) in &snap.counters {
            if !std::mem::take(&mut first) {
                counters.push(',');
            }
            counters.push_str(&format!("{}:{v}", shard_obs::json::string(name)));
        }
        counters.push('}');
        let mut gauges = String::from("{");
        first = true;
        for (name, v) in &snap.gauges {
            if !std::mem::take(&mut first) {
                gauges.push(',');
            }
            gauges.push_str(&format!("{}:{v}", shard_obs::json::string(name)));
        }
        gauges.push('}');
        let mut histograms = String::from("{");
        let mut spans = String::from("{");
        let (mut first_h, mut first_s) = (true, true);
        for (name, h) in &snap.histograms {
            if let Some(span) = name.strip_prefix(SPAN_PREFIX) {
                if !std::mem::take(&mut first_s) {
                    spans.push(',');
                }
                let digest = ObjWriter::new()
                    .u64("count", h.count)
                    .u64("total_ns", h.sum)
                    .f64("mean_ns", h.mean())
                    .u64("max_ns", h.max)
                    .finish();
                spans.push_str(&format!("{}:{digest}", shard_obs::json::string(span)));
            } else {
                if !std::mem::take(&mut first_h) {
                    histograms.push(',');
                }
                histograms.push_str(&format!(
                    "{}:{}",
                    shard_obs::json::string(name),
                    h.to_json()
                ));
            }
        }
        histograms.push('}');
        spans.push('}');
        let claims = ObjWriter::new()
            .u64("checked", snap.counter("claims.checked").unwrap_or(0))
            .u64("failed", snap.counter("claims.failed").unwrap_or(0))
            .u64("instances", snap.counter("claims.instances").unwrap_or(0))
            .u64("violations", snap.counter("claims.violations").unwrap_or(0))
            .finish();
        ObjWriter::new()
            .str("experiment", &self.name)
            .bool("ok", all_hold)
            .f64(
                "wall_time_ms",
                self.started.elapsed().as_secs_f64() * 1_000.0,
            )
            .raw("claims", &claims)
            .raw("counters", &counters)
            .raw("gauges", &gauges)
            .raw("histograms", &histograms)
            .raw("spans", &spans)
            .finish()
    }

    /// Writes the sidecar (pass or fail), then defers to [`finish`]:
    /// prints the verdict and exits non-zero if any claim failed.
    pub fn finish(self, all_hold: bool) {
        let dir = metrics_dir();
        let path = dir.join(format!("{}.json", self.name));
        let doc = self.sidecar_json(all_hold);
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        {
            eprintln!("warning: failed to write sidecar {}: {e}", path.display());
        } else {
            println!("\nmetrics sidecar: {}", path.display());
        }
        finish(all_hold);
    }
}

/// Standard seeds for multi-trial experiments.
pub const TRIAL_SEEDS: [u64; 5] = [11, 42, 1986, 3640, 77];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_claim_passes_through_holds() {
        let mut c = ClaimCheck::new("x");
        c.record(None);
        assert!(report_claim(&c));
        c.record(Some("bad".into()));
        assert!(!report_claim(&c));
    }

    #[test]
    fn sidecar_json_is_well_formed_with_required_keys() {
        shard_obs::set_enabled(true);
        let exp = Experiment::start("unit-test");
        Registry::global().counter("unit.counter").add(7);
        Registry::global().gauge("unit.gauge").set(-3);
        Registry::global().histogram("unit.hist").record(12);
        drop(shard_obs::span!("unit.span"));
        let doc = exp.sidecar_json(true);
        let v = shard_obs::check_sidecar(
            &doc,
            &[
                "experiment",
                "ok",
                "wall_time_ms",
                "claims",
                "counters",
                "gauges",
                "histograms",
                "spans",
            ],
        )
        .expect("sidecar must be valid JSON with all required keys");
        use shard_obs::Json;
        assert_eq!(
            v.get("experiment").and_then(Json::as_str),
            Some("unit-test")
        );
        let counters = v.get("counters").and_then(Json::as_obj).expect("object");
        assert_eq!(counters.get("unit.counter").and_then(Json::as_u64), Some(7));
        let spans = v.get("spans").and_then(Json::as_obj).expect("object");
        assert!(spans.contains_key("unit.span"), "span digest present");
        let hists = v.get("histograms").and_then(Json::as_obj).expect("object");
        assert!(hists.contains_key("unit.hist"));
        assert!(
            !hists.contains_key("span.unit.span"),
            "spans not duplicated"
        );
    }
}
