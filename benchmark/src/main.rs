//! `shard-benchmark` — the repository's benchmark.
//!
//! ```text
//! shard-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! shard-benchmark suite [--seed <n>] [--seconds <s>] [--scale <f>] [--out <file>]
//! shard-benchmark compare <a.json> <b.json> [--agree]
//! shard-benchmark manifest [--seconds <s>]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one pass, one process — so peak RSS and the global obs registry are
//! per workload — ending in one JSON line. README.md has the rest.

mod audit;
mod compare;
mod host;
mod layers;
mod life;
mod live;
mod metrics;
mod report;
mod sim;
mod span;
mod speed;
mod stats;
mod suite;

use report::{Run, RunArgs};
use std::process::ExitCode;

/// `--key value` pairs after the subcommand; a flag without a value
/// reads as `"1"`.
pub struct Flags(Vec<(String, String)>, Vec<String>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let (mut named, mut free) = (Vec::new(), Vec::new());
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = it
                        .next_if(|v| !v.starts_with("--"))
                        .cloned()
                        .unwrap_or_else(|| "1".to_string());
                    named.push((key.to_string(), value));
                }
                None => free.push(a.clone()),
            }
        }
        Flags(named, free)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} {v}: not a number")),
        }
    }

    pub fn free(&self) -> &[String] {
        &self.1
    }
}

/// Runs one workload in this process and returns its filled [`Run`].
pub fn run_workload(workload: &str, args: RunArgs) -> Result<Run, String> {
    // glibc serves a large allocation from fresh `mmap` pages or from the
    // heap depending on a threshold it adapts to the first large block
    // freed. Which side a run's multi-megabyte input vectors fell on made
    // `setup_s` bimodal (0.5 or 0.75 ms) from one process to the next;
    // freeing one 24 MiB block up front settles it on the heap side.
    drop(std::hint::black_box(vec![0u8; 24 << 20]));
    let mut run = Run::new(args);
    let body = match workload {
        metrics::LIVE_EAGER => live::eager,
        metrics::LIVE_DURABLE => live::durable,
        metrics::SIM_PARTITION => sim::partition,
        metrics::AUDIT_INMEM => audit::inmem,
        metrics::AUDIT_OUTOFCORE => audit::outofcore,
        other => return Err(format!("unknown workload {other}")),
    };
    body(&mut run).map_err(|e| format!("{workload}: {e}"))?;
    if args.trace {
        run.set("bench.spans", run.tracer.spans().len() as f64);
        layers::floors(&mut run);
    } else {
        run.set("peak_rss_mb", host::peak_rss_mb());
    }
    Ok(run)
}

fn one(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.get("workload").ok_or("--workload is required")?;
    let args = RunArgs {
        seed: flags.number("seed", 1u64)?,
        seconds: flags.number("seconds", metrics::RUN_SECONDS as f64)?,
        scale: flags.number("scale", 1.0f64)?,
        trace: flags.number("trace", 0u8)? != 0,
    };
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_string());
    }
    // Figures taken in the storm that follows a build mean nothing, so
    // the gated pass waits for the host to settle, for at most 30 s.
    let settled = (!args.trace).then(|| speed::settle(std::time::Duration::from_secs(30)));
    let stolen = host::steal_seconds();
    let mut run = run_workload(workload, args)?;
    if let Some(s) = settled {
        run.note("settle_wait_s", format!("{:.2}", s.waited_s));
        run.note("settle_handoff_us", format!("{:.1}", s.handoff_us));
    }
    run.note("host_steal_s", host::steal_seconds() - stolen);
    for (k, v) in &run.notes {
        println!("# {k} = {v}");
    }
    for why in &run.broken {
        println!("# ORACLE FAILED: {why}");
    }
    if args.trace {
        let out = host::benchmark_dir().join("out");
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let path = out.join(format!("trace-{workload}.jsonl"));
        run.tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
        println!("# trace = {}", path.display());
        for (name, ns) in self_time_by_name(run.tracer.spans()) {
            println!("# self_ms {name} = {:.3}", ns as f64 / 1e6);
        }
    }
    println!("{}", run.result_json());
    Ok(ExitCode::SUCCESS)
}

/// Self time (span minus children) summed per span name.
fn self_time_by_name(spans: &[span::Span]) -> std::collections::BTreeMap<&'static str, u64> {
    let mut by_name = std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(span::self_times(spans)) {
        *by_name.entry(s.name).or_default() += own;
    }
    by_name
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let flags = Flags::parse(rest);
    let outcome = match command {
        "run" => one(&flags),
        "suite" => suite::suite(&flags),
        "compare" => compare::compare(&flags),
        "manifest" => flags.number("seconds", metrics::RUN_SECONDS).map(|s| {
            print!("{}", metrics::manifest_json(s));
            ExitCode::SUCCESS
        }),
        other => Err(format!("unknown subcommand {other}")),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("shard-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Pass;
    use shard_obs::Json;

    const TINY: RunArgs = RunArgs {
        seed: 7,
        seconds: 0.2,
        scale: 0.01,
        trace: false,
    };

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root = shard_obs::json::parse(&text).expect("BENCHMARK.json parses");
        root.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    fn metric(result: &Json, name: &str) -> f64 {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{name} missing from the result"))
    }

    /// One test, because the workloads share the process-wide obs
    /// registry and its on/off switch: every workload passes its oracles
    /// at smoke scale in both passes, the emitted line parses with the
    /// repository's own parser and carries exactly the metrics
    /// `BENCHMARK.json` lists, and `sim-partition` repeats its exact
    /// counts.
    #[test]
    fn every_workload_reports_every_listed_metric_and_passes_its_oracles() {
        let mut sim_traced = Vec::new();
        for workload in metrics::WORKLOADS {
            for (pass, section) in [
                (Pass::EndToEnd, "end_to_end"),
                (Pass::PerLayer, "per_layer"),
            ] {
                let args = RunArgs {
                    trace: pass == Pass::PerLayer,
                    ..TINY
                };
                let run = run_workload(workload, args).expect("the workload runs");
                assert!(run.correct(), "{workload}: {:?}", run.broken);
                assert!(run.attempted > 0 && run.failed_ops() == 0);
                let result = shard_obs::json::parse(&run.result_json()).expect("result parses");
                let keys: Vec<&String> = result.as_obj().expect("an object").keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                let mut listed = names_in_benchmark_json(section);
                let mut emitted: Vec<String> = result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics object")
                    .keys()
                    .cloned()
                    .collect();
                listed.sort();
                emitted.sort();
                assert_eq!(emitted, listed, "{workload} {section}");
                for def in metrics::of_pass(Pass::EndToEnd).filter(|_| pass == Pass::EndToEnd) {
                    // `/proc` counts CPU in 10 ms ticks, and a smoke-scale
                    // pass can end before the first.
                    let floor = if def.name == "cpu_us_per_txn" {
                        -1.0
                    } else {
                        0.0
                    };
                    assert!(metric(&result, def.name) > floor, "{workload} {}", def.name);
                }
                if workload == metrics::SIM_PARTITION && pass == Pass::PerLayer {
                    sim_traced.push(result);
                }
            }
        }
        let again = run_workload(
            metrics::SIM_PARTITION,
            RunArgs {
                trace: true,
                ..TINY
            },
        )
        .expect("the workload runs");
        sim_traced.push(shard_obs::json::parse(&again.result_json()).expect("result parses"));
        for exact in [
            "sim.kernel.events_per_txn",
            "sim.kernel.msgs_per_txn",
            "sim.merge.replayed_per_txn",
            "sim.merge.out_of_order_share",
            "sim.merge.duplicate_share",
            "sim.monitor.max_missed",
        ] {
            assert_eq!(
                metric(&sim_traced[0], exact),
                metric(&sim_traced[1], exact),
                "{exact} differs between two runs of one seed"
            );
        }
    }

    #[test]
    fn flags_take_values_and_bare_switches() {
        let args: Vec<String> = ["a.json", "--seed", "3", "--agree", "b.json", "--trace", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = Flags::parse(&args);
        assert_eq!(flags.number("seed", 1u64), Ok(3));
        assert_eq!(flags.number("seconds", 10.0f64), Ok(10.0));
        assert_eq!(flags.get("trace"), Some("0"));
        assert!(
            flags.number::<u64>("agree", 0).is_err(),
            "b.json is not a number"
        );
        assert_eq!(flags.free(), ["a.json"]);
    }
}
