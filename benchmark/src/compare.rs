//! `compare a.json b.json`: applies each gated metric's bound, one row
//! per workload, to two results files written by `suite`.
//!
//! `worse`: b's median is worse than a's by more than the bound.
//! `unresolved`: the runs of one side spread wider than the bound, and
//! it is not the case that every run of b reads better than every run
//! of a — so the files cannot tell. `--agree` asks the stricter
//! question whether two runs of the *same* code agree: a difference
//! beyond the bound in either direction fails. It judges the end-to-end
//! metrics; stage figures that disagree are printed, not counted.

use crate::metrics::{self, Better, MetricDef, Pass};
use crate::stats::{median, spread};
use crate::Flags;
use shard_obs::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Values per `(workload, metric)`, one per repetition in the file, plus
/// the failed operations per workload.
pub struct Results {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, u64>,
    host: Vec<(String, String)>,
}

pub fn parse_results(text: &str) -> Result<Results, String> {
    let root = shard_obs::json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let runs = root
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("no \"runs\" array")?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failed: BTreeMap<String, u64> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run lacks \"workload\"")?;
        let result = run.get("result").ok_or("a run lacks \"result\"")?;
        *failed.entry(workload.to_string()).or_default() +=
            result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    let host = root
        .get("host")
        .and_then(Json::as_obj)
        .map(|h| {
            h.iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect()
        })
        .unwrap_or_default();
    Ok(Results {
        values,
        failed,
        host,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// By how much of a's median b's median is worse (negative = better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64], agree: bool) -> Verdict {
    let bound = def.bound.expect("only gated metrics are judged");
    let delta = worse_by(def, median(a), median(b));
    let noisy = [a, b]
        .iter()
        .any(|side| side.len() >= 3 && spread(side) > bound);
    if noisy {
        let b_beats_a = b
            .iter()
            .all(|&y| a.iter().all(|&x| worse_by(def, x, y) < 0.0));
        let a_beats_b = a
            .iter()
            .all(|&x| b.iter().all(|&y| worse_by(def, x, y) > 0.0));
        return match (b_beats_a, a_beats_b, agree) {
            (true, _, false) => Verdict::Ok,
            (_, true, _) if delta > bound => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if delta > bound || (agree && delta < -bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn compare(flags: &Flags) -> Result<ExitCode, String> {
    let [a_path, b_path] = flags.free() else {
        return Err("usage: compare <a.json> <b.json> [--agree]".to_string());
    };
    let agree = flags.get("agree").is_some();
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| parse_results(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (k, va) in &a.host {
        let vb = b
            .host
            .iter()
            .find(|(kb, _)| kb == k)
            .map(|(_, v)| v.as_str());
        if vb != Some(va.as_str()) {
            println!("host differs: {k}: {va:?} vs {:?}", vb.unwrap_or("absent"));
        }
    }

    let (mut worse, mut unresolved, mut uncounted) = (0, 0, 0);
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "bound"
    );
    for def in metrics::METRICS.iter().filter(|m| m.bound.is_some()) {
        for workload in def.workloads {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                println!("{workload:<16} {:<22} missing from one file", def.name);
                unresolved += 1;
                continue;
            };
            let verdict = judge(def, va, vb, agree);
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{workload:<16} {:<22} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.0}%  {}",
                def.name,
                100.0 * (mb - ma) / ma.abs(),
                100.0 * def.bound.expect("gated"),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse if agree => "disagree",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if agree && def.pass == Pass::PerLayer {
                uncounted += usize::from(verdict != Verdict::Ok);
            } else {
                worse += usize::from(verdict == Verdict::Worse);
                unresolved += usize::from(verdict == Verdict::Unresolved);
            }
        }
    }
    // failed_share has an absolute bound of zero.
    for (workload, failed) in &b.failed {
        if *failed > 0 {
            println!(
                "{workload:<16} {:<22} {failed} operations failed  worse",
                "failed_share"
            );
            worse += 1;
        }
    }
    println!("\n{worse} worse, {unresolved} unresolved");
    if uncounted > 0 {
        println!("{uncounted} stage figures differ by more than their bound (not counted)");
    }
    Ok(if worse == 0 && !(agree && unresolved > 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::lookup(name).expect("registered")
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let life = def("admit_p50_us"); // lower is better, bound 15 %
        assert_eq!(judge(life, &[100.0], &[114.0], false), Verdict::Ok);
        assert_eq!(judge(life, &[100.0], &[116.0], false), Verdict::Worse);
        assert_eq!(judge(life, &[100.0], &[50.0], false), Verdict::Ok);
        let rate = def("sim_txn_s"); // higher is better, bound 5 %
        assert_eq!(judge(rate, &[100.0], &[96.0], false), Verdict::Ok);
        assert_eq!(judge(rate, &[100.0], &[94.0], false), Verdict::Worse);
        assert_eq!(judge(rate, &[100.0], &[200.0], false), Verdict::Ok);
    }

    #[test]
    fn agree_fails_in_both_directions() {
        let life = def("admit_p50_us");
        assert_eq!(judge(life, &[100.0], &[50.0], true), Verdict::Worse);
        assert_eq!(judge(life, &[100.0], &[110.0], true), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_wins_every_run() {
        let life = def("admit_p50_us");
        let noisy = [100.0, 140.0, 180.0, 220.0];
        assert_eq!(
            judge(life, &noisy, &[150.0, 160.0, 170.0], false),
            Verdict::Unresolved
        );
        assert_eq!(judge(life, &noisy, &[50.0, 60.0, 70.0], false), Verdict::Ok);
        assert_eq!(
            judge(life, &noisy, &[300.0, 310.0, 320.0], false),
            Verdict::Worse
        );
    }

    #[test]
    fn results_files_round_trip_through_the_obs_parser() {
        let text = r#"{"schema": "shard-benchmark/v1", "host": {"nproc": "2"}, "runs": [
            {"workload": "sim-partition", "trace": 0, "result": {"correct": true,
             "attempted": 10, "failed": 0,
             "metrics": {"life_p50_us": {"value": 3.5, "unit": "us"}}}},
            {"workload": "sim-partition", "trace": 0, "result": {"correct": true,
             "attempted": 10, "failed": 1,
             "metrics": {"life_p50_us": {"value": 4.5, "unit": "us"}}}}]}"#;
        let r = parse_results(text).expect("parses");
        let key = ("sim-partition".to_string(), "life_p50_us".to_string());
        assert_eq!(r.values[&key], vec![3.5, 4.5]);
        assert_eq!(r.failed["sim-partition"], 1);
        assert_eq!(r.host, vec![("nproc".to_string(), "2".to_string())]);
    }
}
