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

/// Per-experiment harness: wraps an experiment binary's run, records
/// the claims it checks, and writes a JSON *sidecar*
/// (`target/exp_metrics/<name>.json`) carrying everything the run
/// recorded — every claim by name, every global counter, gauge and
/// histogram, and a digest of every span timer. The sidecars are
/// machine-validated by `ci.sh` and aggregated by `run_experiments.sh`
/// into `EXPERIMENTS_METRICS.json`.
///
/// The verdict is computed from the claims alone: a run passes when it
/// named at least one claim and every claim held.
pub struct Experiment {
    name: String,
    started: Instant,
    claims: Vec<ClaimCheck>,
}

impl Experiment {
    /// Starts the harness; call first thing in `main`.
    pub fn start(name: impl Into<String>) -> Self {
        Experiment {
            name: name.into(),
            started: Instant::now(),
            claims: Vec::new(),
        }
    }

    /// Records a claim check and returns whether it held. Checks that
    /// share a name are one claim: their instances add up, and so do
    /// their violations.
    pub fn claim(&mut self, check: ClaimCheck) -> bool {
        let holds = check.holds();
        match self.claims.iter_mut().find(|c| c.name == check.name) {
            Some(c) => {
                c.instances += check.instances;
                c.violations.extend(check.violations);
            }
            None => self.claims.push(check),
        }
        holds
    }

    /// The run's verdict: at least one claim was named and all held.
    fn verdict(&self) -> bool {
        !self.claims.is_empty() && self.claims.iter().all(ClaimCheck::holds)
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

    /// The sidecar document: this run's claims plus the current global
    /// registry state.
    fn sidecar_json(&self) -> String {
        let snap = Registry::global().snapshot();
        let (mut counters, mut gauges) = (ObjWriter::new(), ObjWriter::new());
        for (k, v) in &snap.counters {
            counters = counters.u64(k, *v);
        }
        for (k, v) in &snap.gauges {
            gauges = gauges.i64(k, *v);
        }
        let (mut histograms, mut spans) = (ObjWriter::new(), ObjWriter::new());
        for (name, h) in &snap.histograms {
            match name.strip_prefix(SPAN_PREFIX) {
                Some(span) => {
                    let digest = ObjWriter::new()
                        .u64("count", h.count)
                        .u64("total_ns", h.sum)
                        .f64("mean_ns", h.mean())
                        .u64("max_ns", h.max)
                        .finish();
                    spans = spans.raw(span, &digest);
                }
                None => histograms = histograms.raw(name, &h.to_json()),
            }
        }
        let list: Vec<String> = self
            .claims
            .iter()
            .map(|c| {
                ObjWriter::new()
                    .str("name", &c.name)
                    .u64("instances", c.instances as u64)
                    .u64("violations", c.violations.len() as u64)
                    .finish()
            })
            .collect();
        let sum = |f: fn(&ClaimCheck) -> usize| self.claims.iter().map(f).sum::<usize>() as u64;
        let claims = ObjWriter::new()
            .u64("checked", self.claims.len() as u64)
            .u64("failed", sum(|c| usize::from(!c.holds())))
            .u64("instances", sum(|c| c.instances))
            .u64("violations", sum(|c| c.violations.len()))
            .raw("list", &format!("[{}]", list.join(",")))
            .finish();
        ObjWriter::new()
            .str("experiment", &self.name)
            .bool("ok", self.verdict())
            .f64(
                "wall_time_ms",
                self.started.elapsed().as_secs_f64() * 1_000.0,
            )
            .raw("claims", &claims)
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &histograms.finish())
            .raw("spans", &spans.finish())
            .finish()
    }

    /// Prints every claim once, writes the sidecar (pass or fail) and
    /// prints the verdict; exits non-zero if any claim failed or none
    /// was named.
    pub fn finish(self) {
        println!();
        for check in &self.claims {
            println!("  {check}");
        }
        let dir = metrics_dir();
        let path = dir.join(format!("{}.json", self.name));
        let doc = self.sidecar_json();
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{doc}\n")))
        {
            eprintln!("warning: failed to write sidecar {}: {e}", path.display());
        } else {
            println!("\nmetrics sidecar: {}", path.display());
        }
        if self.verdict() {
            println!("\nALL CLAIMS HOLD");
        } else {
            if self.claims.is_empty() {
                println!("\nNO CLAIM NAMED");
            } else {
                println!("\nCLAIM VIOLATIONS FOUND");
            }
            std::process::exit(1);
        }
    }
}

/// Standard seeds for multi-trial experiments.
pub const TRIAL_SEEDS: [u64; 5] = [11, 42, 1986, 3640, 77];

#[cfg(test)]
mod tests {
    use super::*;
    use shard_obs::Json;

    fn check(name: &str, passes: usize, violations: usize) -> ClaimCheck {
        let mut c = ClaimCheck::new(name);
        for _ in 0..passes {
            c.record(None);
        }
        for i in 0..violations {
            c.record(Some(format!("violation {i}")));
        }
        c
    }

    fn claims_of(exp: &Experiment) -> Json {
        let v = shard_obs::json::parse(&exp.sidecar_json()).expect("sidecar is JSON");
        v.get("claims").expect("claims section").clone()
    }

    #[test]
    fn checks_sharing_a_name_merge_into_one_claim() {
        let mut exp = Experiment::start("unit-merge");
        assert!(exp.claim(check("a", 3, 0)));
        assert!(exp.claim(check("b", 1, 0)));
        assert!(
            !exp.claim(check("a", 2, 1)),
            "returns the check's own verdict"
        );
        assert!(exp.claim(check("a", 4, 0)), "not the merged claim's");
        assert_eq!(exp.claims.len(), 2);
        assert_eq!(exp.claims[0].name, "a");
        assert_eq!(exp.claims[0].instances, 10);
        assert_eq!(exp.claims[0].violations.len(), 1);
        assert!(!exp.verdict());
    }

    #[test]
    fn a_run_that_names_no_claim_fails() {
        let mut exp = Experiment::start("unit-verdict");
        assert!(!exp.verdict(), "no claim named");
        exp.claim(check("held", 1, 0));
        assert!(exp.verdict());
        exp.claim(check("broke", 1, 1));
        assert!(!exp.verdict());
    }

    #[test]
    fn sidecar_lists_every_claim_by_name() {
        let mut exp = Experiment::start("unit-list");
        exp.claim(check("first", 2, 0));
        exp.claim(check("second", 1, 2));
        exp.claim(check("first", 1, 0));
        let claims = claims_of(&exp);
        let field = |k| claims.get(k).and_then(Json::as_u64);
        assert_eq!(field("checked"), Some(2));
        assert_eq!(field("failed"), Some(1));
        assert_eq!(field("instances"), Some(6));
        assert_eq!(field("violations"), Some(2));
        let list = shard_obs::json::parse(
            r#"[{"name":"first","instances":3,"violations":0},
                {"name":"second","instances":3,"violations":2}]"#,
        );
        assert_eq!(claims.get("list"), list.ok().as_ref());
    }

    #[test]
    fn claims_come_from_the_run_not_the_registry() {
        // Whether recording is on or off, the registry carries no
        // `claims.*` counter: the section is computed from the run's
        // own list, so a run with metrics off still names its claims.
        let mut exp = Experiment::start("unit-no-registry");
        exp.claim(check("named", 5, 0));
        let snap = Registry::global().snapshot();
        assert!(!snap.counters.iter().any(|(k, _)| k.starts_with("claims.")));
        let claims = claims_of(&exp);
        assert_eq!(claims.get("checked").and_then(Json::as_u64), Some(1));
        assert_eq!(claims.get("instances").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn one_claims_violation_count_turns_the_sidecar_diff_red() {
        let sidecar = |violations| {
            let mut exp = Experiment::start("unit-diff");
            exp.claim(check("steady", 4, 0));
            exp.claim(check("moving", 4, violations));
            exp.sidecar_json()
        };
        let (one, two) = (sidecar(1), sidecar(2));
        shard_obs::diff_sidecars(&one, &one).expect("a sidecar diffs clean against itself");
        let err = shard_obs::diff_sidecars(&one, &two).expect_err("violation counts differ");
        assert!(err.contains("$.claims"), "{err}");
    }

    #[test]
    fn sidecar_json_is_well_formed_with_required_keys() {
        shard_obs::set_enabled(true);
        let exp = Experiment::start("unit-test");
        Registry::global().counter("unit.counter").add(7);
        Registry::global().gauge("unit.gauge").set(-3);
        Registry::global().histogram("unit.hist").record(12);
        drop(shard_obs::span!("unit.span"));
        let doc = exp.sidecar_json();
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
