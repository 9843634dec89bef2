//! `suite`: every workload, both passes, each in its own child process;
//! prints every metric by name with its unit and writes one results
//! file with the host facts.

use crate::metrics::{self, Pass, WORKLOADS};
use crate::Flags;
use shard_obs::{Json, ObjWriter};
use std::process::{Command, ExitCode};

/// Runs one workload pass in a child; returns its result object and its
/// `# key = value` notes (parameters, round times) as a JSON object.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    for line in stdout.lines().filter(|l| l.starts_with("# ORACLE FAILED")) {
        eprintln!("{workload}: {line}");
    }
    let mut notes = ObjWriter::new();
    for (key, value) in stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# ")?.split_once(" = "))
    {
        notes = notes.str(key, value);
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = shard_obs::json::parse(last)
        .map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    Ok((result, notes.finish()))
}

fn print_pass(workload: &str, pass: Pass, result: &Json) {
    let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
    let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
    let title = match pass {
        Pass::EndToEnd => "end to end (tracing off)",
        Pass::PerLayer => "per layer (traced pass)",
    };
    println!(
        "\n{workload} — {title}: ops_attempted {attempted}, ops_failed {failed}, \
         failed_share {}",
        failed as f64 / attempted.max(1) as f64
    );
    for def in metrics::of_pass(pass) {
        if !def.workloads.contains(&workload) {
            continue;
        }
        let value = result
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        let moves = if def.moves.is_empty() {
            String::new()
        } else {
            format!("  -> {}", def.moves)
        };
        match value {
            Some(v) => println!("  {:<44} {:>16.4} {:<7}{moves}", def.name, v, def.unit),
            None => println!(
                "  {:<44} {:>16} {:<7}{moves}",
                def.name, "missing", def.unit
            ),
        }
    }
}

pub fn suite(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.number("seed", 1u64)?;
    let seconds = flags.number("seconds", metrics::RUN_SECONDS as f64)?;
    let scale = flags.number("scale", 1.0f64)?;
    let repeat = flags.number("repeat", 1usize)?.max(1);
    let dir = crate::host::benchmark_dir();
    let out = flags
        .get("out")
        .map_or_else(|| dir.join("out").join("results.json"), Into::into);

    let mut runs = Vec::new();
    let mut all_correct = true;
    for _ in 0..repeat {
        for workload in WORKLOADS {
            for pass in [Pass::EndToEnd, Pass::PerLayer] {
                let (result, notes) =
                    child(workload, seed, seconds, scale, pass == Pass::PerLayer)?;
                print_pass(workload, pass, &result);
                all_correct &= result.get("correct") == Some(&Json::Bool(true));
                runs.push(
                    ObjWriter::new()
                        .str("workload", workload)
                        .u64("trace", u64::from(pass == Pass::PerLayer))
                        .raw("notes", &notes)
                        .raw("result", &render(&result))
                        .finish(),
                );
            }
        }
    }

    let mut host = ObjWriter::new();
    for (k, v) in crate::host::facts(seed, &dir) {
        host = host.str(k, &v);
    }
    let file = ObjWriter::new()
        .str("schema", "shard-benchmark/v1")
        .raw("claim", "null")
        .raw("host", &host.finish())
        .f64("seconds", seconds)
        .f64("scale", scale)
        .raw("runs", &format!("[\n  {}\n]", runs.join(",\n  ")))
        .finish();
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, file + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("shard-benchmark: an oracle failed or an operation was not executed");
        Ok(ExitCode::FAILURE)
    }
}

/// Re-serializes a parsed value (object keys in sorted order).
pub fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => crate::report::number(*n),
        Json::Str(s) => shard_obs::json::string(s),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(map) => format!(
            "{{{}}}",
            map.iter()
                .map(|(k, v)| format!("{}: {}", shard_obs::json::string(k), render(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}
