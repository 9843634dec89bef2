//! Offline analysis of JSONL traces and experiment sidecars.
//!
//! Everything here works on strings so it is unit-testable without
//! touching the filesystem; the `shard-trace` binary is a thin CLI
//! over these functions. Three operations:
//!
//! * [`summarize`] — digest a JSONL trace into event counts, the
//!   per-node undo/redo (out-of-order merge) distribution, an
//!   injected-fault tally (`nemesis.*` events), and a span-time
//!   table; [`TraceSummary::render`] prints it.
//! * [`check_sidecar`] — validate that an experiment sidecar is
//!   well-formed JSON carrying a set of required top-level keys.
//! * [`aggregate`] — combine validated sidecars into one
//!   `EXPERIMENTS_METRICS.json` document, embedding each file's raw
//!   bytes so no numeric value is re-serialized (and thus perturbed).

use crate::json::{parse, Json};
use crate::metrics::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag stamped into aggregated metrics documents.
pub const AGGREGATE_SCHEMA: &str = "shard-exp-metrics/v1";

/// Aggregated timings for one span name seen in a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanAgg {
    /// Occurrences of the span.
    pub count: u64,
    /// Total nanoseconds across occurrences.
    pub total_ns: u64,
    /// Longest single occurrence in nanoseconds.
    pub max_ns: u64,
}

/// Totals of the `nemesis.*` fault events a trace carries — the
/// injected-fault footprint of a chaos run (all zero on a clean run).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultTally {
    /// Messages the nemesis dropped (`nemesis.drop`).
    pub dropped: u64,
    /// Extra copies the nemesis scheduled (`nemesis.duplicate`,
    /// summing each event's `extra` field).
    pub duplicated: u64,
    /// Messages delivered later than the network chose
    /// (`nemesis.delay`).
    pub delayed: u64,
    /// Largest single added delay in sim-time ticks.
    pub max_delay: u64,
}

impl FaultTally {
    /// Total fault events tallied.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed
    }
}

/// Per-node undo/redo repair totals from `merge.out_of_order` events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeReplay {
    /// Out-of-order merges the node performed.
    pub out_of_order: u64,
    /// Entries undone-and-redone across those merges.
    pub replayed: u64,
    /// Deepest single undo/redo.
    pub max_depth: u64,
}

/// `p50 / p90 / p99 / max` of a snapshot as one aligned table cell.
fn quantile_cell(h: &HistogramSnapshot) -> String {
    format!(
        "p50 {:>8.0}  p90 {:>8.0}  p99 {:>8.0}  max {:>8}",
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.max
    )
}

/// Digest of one JSONL trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// Total lines seen (excluding blank lines).
    pub lines: usize,
    /// Lines that failed to parse or lacked an `"event"` string.
    pub malformed: usize,
    /// Occurrences of each event name.
    pub event_counts: BTreeMap<String, u64>,
    /// Undo/redo distribution keyed by node id.
    pub node_replay: BTreeMap<u64, NodeReplay>,
    /// Distribution of undo/redo depths across all nodes.
    pub replay_depth: HistogramSnapshot,
    /// Injected-fault totals from `nemesis.*` events.
    pub faults: FaultTally,
    /// Span-time table keyed by span name.
    pub spans: BTreeMap<String, SpanAgg>,
}

/// Digests a JSONL trace. Malformed lines are counted, not fatal — a
/// truncated trace from a crashed run should still summarize.
pub fn summarize(jsonl: &str) -> TraceSummary {
    let mut s = TraceSummary::default();
    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        s.lines += 1;
        let Ok(v) = parse(line) else {
            s.malformed += 1;
            continue;
        };
        let Some(name) = v.get("event").and_then(Json::as_str) else {
            s.malformed += 1;
            continue;
        };
        *s.event_counts.entry(name.to_string()).or_insert(0) += 1;
        match name {
            "merge.out_of_order" => {
                let node = v.get("node").and_then(Json::as_u64).unwrap_or(0);
                let depth = v.get("replayed").and_then(Json::as_u64).unwrap_or(0);
                let e = s.node_replay.entry(node).or_default();
                e.out_of_order += 1;
                e.replayed += depth;
                e.max_depth = e.max_depth.max(depth);
                s.replay_depth.record(depth);
            }
            "nemesis.drop" => s.faults.dropped += 1,
            "nemesis.duplicate" => {
                s.faults.duplicated += v.get("extra").and_then(Json::as_u64).unwrap_or(1);
            }
            "nemesis.delay" => {
                let by = v.get("by").and_then(Json::as_u64).unwrap_or(0);
                s.faults.delayed += 1;
                s.faults.max_delay = s.faults.max_delay.max(by);
            }
            "span" => {
                if let (Some(span), Some(ns)) = (
                    v.get("name").and_then(Json::as_str),
                    v.get("ns").and_then(Json::as_u64),
                ) {
                    let e = s.spans.entry(span.to_string()).or_default();
                    e.count += 1;
                    e.total_ns += ns;
                    e.max_ns = e.max_ns.max(ns);
                }
            }
            _ => {}
        }
    }
    s
}

impl TraceSummary {
    /// Renders the summary as a human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} lines, {} malformed",
            self.lines, self.malformed
        );
        let _ = writeln!(out, "\nevent counts:");
        if self.event_counts.is_empty() {
            let _ = writeln!(out, "  (none)");
        }
        for (name, n) in &self.event_counts {
            let _ = writeln!(out, "  {name:<24} {n:>8}");
        }
        if !self.node_replay.is_empty() {
            let _ = writeln!(out, "\nper-node undo/redo (out-of-order merges):");
            let _ = writeln!(
                out,
                "  {:>4}  {:>10}  {:>10}  {:>9}",
                "node", "merges", "replayed", "max depth"
            );
            for (node, r) in &self.node_replay {
                let _ = writeln!(
                    out,
                    "  {:>4}  {:>10}  {:>10}  {:>9}",
                    node, r.out_of_order, r.replayed, r.max_depth
                );
            }
            let _ = writeln!(
                out,
                "  depth quantiles (log2-bucket estimates): {}",
                quantile_cell(&self.replay_depth)
            );
        }
        if self.faults.total() > 0 {
            let _ = writeln!(out, "\ninjected faults (nemesis):");
            let _ = writeln!(
                out,
                "  dropped {:>6}   duplicated {:>6}   delayed {:>6}   max delay {:>6}",
                self.faults.dropped,
                self.faults.duplicated,
                self.faults.delayed,
                self.faults.max_delay
            );
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "\nspan times:");
            let _ = writeln!(
                out,
                "  {:<28} {:>7}  {:>12}  {:>12}  {:>12}",
                "span", "count", "total ns", "mean ns", "max ns"
            );
            for (name, a) in &self.spans {
                let mean = a.total_ns.checked_div(a.count).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {:<28} {:>7}  {:>12}  {:>12}  {:>12}",
                    name, a.count, a.total_ns, mean, a.max_ns
                );
            }
        }
        out
    }
}

/// Renders a `count / mean / p50 / p90 / p99 / max` table for every
/// histogram embedded in an experiment sidecar (the `histograms`
/// object), so replay-depth and LCP distributions are readable without
/// opening the JSON. Empty string when the sidecar records none.
pub fn render_sidecar_histograms(doc: &Json) -> String {
    let Some(histograms) = doc.get("histograms").and_then(Json::as_obj) else {
        return String::new();
    };
    let mut out = String::new();
    for (name, v) in histograms {
        let Some(snap) = HistogramSnapshot::from_json(v) else {
            continue;
        };
        let _ = writeln!(
            out,
            "  {:<28} count {:>8}  mean {:>10.1}  {}",
            name,
            snap.count,
            snap.mean(),
            quantile_cell(&snap)
        );
    }
    if out.is_empty() {
        return out;
    }
    format!("histogram quantiles (log2-bucket estimates):\n{out}")
}

/// Validates that `text` is one well-formed JSON object carrying every
/// key in `required`. Returns the parsed object for further inspection.
pub fn check_sidecar(text: &str, required: &[&str]) -> Result<Json, String> {
    let v = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let obj = v
        .as_obj()
        .ok_or_else(|| "top level is not a JSON object".to_string())?;
    let missing: Vec<&str> = required
        .iter()
        .filter(|k| !obj.contains_key(**k))
        .copied()
        .collect();
    if missing.is_empty() {
        Ok(v)
    } else {
        Err(format!("missing required keys: {}", missing.join(", ")))
    }
}

/// Combines named sidecar documents into one aggregate JSON document.
///
/// Each `(name, content)` pair is validated as a JSON object and its
/// raw text embedded verbatim under `experiments.<name>`, so the
/// aggregate never re-serializes (and thus never perturbs) a number.
/// Entries are emitted in sorted name order for byte-stable output.
pub fn aggregate(sidecars: &[(String, String)]) -> Result<String, String> {
    let mut sorted: Vec<&(String, String)> = sidecars.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut experiments = String::from("{");
    for (i, (name, content)) in sorted.iter().enumerate() {
        let v = parse(content).map_err(|e| format!("{name}: not valid JSON: {e}"))?;
        if v.as_obj().is_none() {
            return Err(format!("{name}: top level is not a JSON object"));
        }
        if i > 0 {
            experiments.push(',');
        }
        experiments.push_str(&crate::json::string(name));
        experiments.push(':');
        experiments.push_str(content.trim());
    }
    experiments.push('}');
    Ok(crate::json::ObjWriter::new()
        .str("schema", AGGREGATE_SCHEMA)
        .u64("experiments_count", sorted.len() as u64)
        .raw("experiments", &experiments)
        .finish())
}

/// Removes the fields of a sidecar document that legitimately vary
/// between byte-identical runs: `wall_time_ms` and the `spans` section
/// (wall-clock timing) plus every `pool.*` metric (which worker ran
/// what, and how many there were — a throughput fact, not an outcome).
/// What remains — claims, verdict counters, gauges, histograms — must
/// match exactly between runs that differ only in thread count.
fn strip_volatile(v: &mut Json) {
    match v {
        Json::Obj(map) => {
            map.remove("wall_time_ms");
            map.remove("spans");
            map.retain(|k, _| !k.starts_with("pool."));
            for child in map.values_mut() {
                strip_volatile(child);
            }
            // A metric section holding only pool.* entries strips to an
            // empty object, while a run that never recorded any has no
            // section at all — the two must still compare equal.
            for section in ["counters", "gauges", "histograms"] {
                if map
                    .get(section)
                    .and_then(Json::as_obj)
                    .is_some_and(BTreeMap::is_empty)
                {
                    map.remove(section);
                }
            }
        }
        Json::Arr(items) => {
            for child in items.iter_mut() {
                strip_volatile(child);
            }
        }
        _ => {}
    }
}

/// Locates the first difference between two JSON values, depth-first in
/// deterministic key order; returns its path and a short description.
fn first_difference(path: &str, a: &Json, b: &Json) -> Option<String> {
    match (a, b) {
        (Json::Obj(ma), Json::Obj(mb)) => {
            for k in ma.keys().chain(mb.keys()) {
                match (ma.get(k), mb.get(k)) {
                    (Some(va), Some(vb)) => {
                        if let Some(d) = first_difference(&format!("{path}.{k}"), va, vb) {
                            return Some(d);
                        }
                    }
                    (Some(_), None) => return Some(format!("{path}.{k}: only in first")),
                    (None, Some(_)) => return Some(format!("{path}.{k}: only in second")),
                    (None, None) => unreachable!("key came from one of the maps"),
                }
            }
            None
        }
        (Json::Arr(xs), Json::Arr(ys)) => {
            if xs.len() != ys.len() {
                return Some(format!(
                    "{path}: array lengths {} vs {}",
                    xs.len(),
                    ys.len()
                ));
            }
            xs.iter()
                .zip(ys)
                .enumerate()
                .find_map(|(i, (x, y))| first_difference(&format!("{path}[{i}]"), x, y))
        }
        _ => (a != b).then(|| format!("{path}: {a:?} vs {b:?}")),
    }
}

/// Compares two sidecar documents for **outcome equality**: parses
/// both, drops the volatile fields (`wall_time_ms`, `spans`, `pool.*`
/// metrics, plus any metric section emptied by the stripping) and
/// requires everything else to match exactly.
///
/// This is the byte-identity check behind the CI thread-count diff: a
/// sweep run at `SHARD_POOL_THREADS=1` and one at `=4` must agree on
/// every claim, counter and gauge.
///
/// # Errors
///
/// Returns the path of the first difference, or a parse error.
pub fn diff_sidecars(a: &str, b: &str) -> Result<(), String> {
    let mut ja = parse(a).map_err(|e| format!("first document: not valid JSON: {e}"))?;
    let mut jb = parse(b).map_err(|e| format!("second document: not valid JSON: {e}"))?;
    strip_volatile(&mut ja);
    strip_volatile(&mut jb);
    match first_difference("$", &ja, &jb) {
        None => Ok(()),
        Some(d) => Err(format!("documents differ at {d}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"event\":\"deliver\",\"t\":1,\"node\":0}\n",
        "{\"event\":\"merge.append\",\"t\":1,\"node\":0}\n",
        "{\"event\":\"merge.out_of_order\",\"t\":2,\"node\":1,\"replayed\":3}\n",
        "{\"event\":\"merge.out_of_order\",\"t\":4,\"node\":1,\"replayed\":5}\n",
        "{\"event\":\"merge.out_of_order\",\"t\":4,\"node\":2,\"replayed\":1}\n",
        "\n",
        "not json at all\n",
        "{\"event\":\"span\",\"name\":\"sim.run\",\"ns\":1500}\n",
        "{\"event\":\"span\",\"name\":\"sim.run\",\"ns\":500}\n",
        "{\"event\":\"nemesis.drop\",\"t\":3,\"msg\":7,\"from\":0,\"node\":1}\n",
        "{\"event\":\"nemesis.drop\",\"t\":5,\"msg\":9,\"from\":2,\"node\":0}\n",
        "{\"event\":\"nemesis.duplicate\",\"t\":6,\"msg\":11,\"extra\":2}\n",
        "{\"event\":\"nemesis.delay\",\"t\":8,\"msg\":12,\"by\":40}\n",
        "{\"event\":\"nemesis.delay\",\"t\":9,\"msg\":13,\"by\":15}\n",
    );

    #[test]
    fn summarize_counts_events_nodes_and_spans() {
        let s = summarize(TRACE);
        assert_eq!(s.lines, 13, "blank line skipped");
        assert_eq!(s.malformed, 1);
        assert_eq!(s.event_counts["deliver"], 1);
        assert_eq!(s.event_counts["merge.out_of_order"], 3);
        assert_eq!(
            s.node_replay[&1],
            NodeReplay {
                out_of_order: 2,
                replayed: 8,
                max_depth: 5
            }
        );
        assert_eq!(s.node_replay[&2].replayed, 1);
        let run = &s.spans["sim.run"];
        assert_eq!((run.count, run.total_ns, run.max_ns), (2, 2000, 1500));
        assert_eq!(s.replay_depth.count, 3);
        // Byte for byte what `shard-trace summarize` printed for this
        // trace before `replay_depth` became a recorded snapshot.
        assert_eq!(s.render(), RENDERED);
    }

    const RENDERED: &str = "\
trace: 13 lines, 1 malformed

event counts:
  deliver                         1
  merge.append                    1
  merge.out_of_order              3
  nemesis.delay                   2
  nemesis.drop                    2
  nemesis.duplicate               1
  span                            2

per-node undo/redo (out-of-order merges):
  node      merges    replayed  max depth
     1           2           8          5
     2           1           1          1
  depth quantiles (log2-bucket estimates): p50        3  p90        5  p99        5  max        5

injected faults (nemesis):
  dropped      2   duplicated      2   delayed      2   max delay     40

span times:
  span                           count      total ns       mean ns        max ns
  sim.run                            2          2000          1000          1500
";

    #[test]
    fn summarize_tallies_nemesis_faults() {
        let s = summarize(TRACE);
        assert_eq!(
            s.faults,
            FaultTally {
                dropped: 2,
                duplicated: 2,
                delayed: 2,
                max_delay: 40
            }
        );
        assert_eq!(s.faults.total(), 6);
        // A clean trace renders no fault section at all.
        let clean = summarize("{\"event\":\"deliver\",\"t\":1,\"node\":0}\n");
        assert_eq!(clean.faults, FaultTally::default());
        assert!(!clean.render().contains("nemesis"));
    }

    #[test]
    fn check_sidecar_accepts_and_rejects() {
        let good = r#"{"experiment":"e01","ok":true,"wall_time_ms":3}"#;
        assert!(check_sidecar(good, &["experiment", "ok"]).is_ok());
        let err = check_sidecar(good, &["experiment", "claims"]).unwrap_err();
        assert!(err.contains("claims"), "names the missing key: {err}");
        assert!(check_sidecar("[1,2]", &[]).is_err(), "array rejected");
        assert!(check_sidecar("{broken", &[]).is_err());
    }

    #[test]
    fn aggregate_embeds_raw_and_sorts() {
        let sidecars = vec![
            (
                "e02".to_string(),
                r#"{"ok":true,"pi":3.141592653589793}"#.to_string(),
            ),
            ("e01".to_string(), r#"{"ok":false}"#.to_string()),
        ];
        let doc = aggregate(&sidecars).expect("aggregates");
        let v = parse(&doc).expect("aggregate is valid JSON");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some(AGGREGATE_SCHEMA)
        );
        assert_eq!(v.get("experiments_count").and_then(Json::as_u64), Some(2));
        let exps = v.get("experiments").and_then(Json::as_obj).expect("object");
        assert_eq!(exps.len(), 2);
        // Raw embedding: the float survives byte-for-byte.
        assert!(doc.contains("3.141592653589793"));
        // Sorted: e01 precedes e02 in the output text.
        assert!(doc.find("\"e01\"").unwrap() < doc.find("\"e02\"").unwrap());
    }

    #[test]
    fn aggregate_rejects_bad_sidecar() {
        let bad = vec![("e01".to_string(), "nope".to_string())];
        let err = aggregate(&bad).unwrap_err();
        assert!(err.starts_with("e01:"), "names the offender: {err}");
    }

    #[test]
    fn diff_ignores_timing_and_pool_metrics() {
        let a = r#"{"experiment":"chaos","ok":true,"wall_time_ms":17,
            "counters":{"chaos.runs":25,"pool.tasks":25,"pool.handoffs":3},
            "histograms":{"pool.busy_ns":{"count":4}},
            "spans":{"span.chaos.sweep":{"ns":12345}}}"#;
        let b = r#"{"experiment":"chaos","ok":true,"wall_time_ms":99,
            "counters":{"chaos.runs":25,"pool.tasks":25,"pool.workers_spawned":4},
            "spans":{"span.chaos.sweep":{"ns":54321}}}"#;
        diff_sidecars(a, b).expect("same outcome modulo volatile fields");
    }

    #[test]
    fn diff_catches_outcome_divergence() {
        let a = r#"{"ok":true,"counters":{"chaos.runs":25}}"#;
        let b = r#"{"ok":true,"counters":{"chaos.runs":26}}"#;
        let err = diff_sidecars(a, b).unwrap_err();
        assert!(err.contains("chaos.runs"), "names the path: {err}");
        let c = r#"{"ok":false,"counters":{"chaos.runs":25}}"#;
        assert!(diff_sidecars(a, c).is_err());
        let missing = r#"{"ok":true}"#;
        let err = diff_sidecars(a, missing).unwrap_err();
        assert!(err.contains("only in first"), "{err}");
    }
}
