//! Independent certificate validation — `shard-trace certify`.
//!
//! A *certificate* is a compact witness for a monitor verdict: the two
//! or three trace rows that prove a §3 property violated (or that a
//! measured bound is tight). This module re-validates such a
//! certificate **against the raw trace alone**, on purpose sharing no
//! code or types with the checkers that emitted it — `shard-obs`
//! depends on nothing, so a bug in `shard_core::stream` cannot
//! silently agree with itself here. Validation work is O(|certificate|)
//! plus one linear scan of the trace to fetch the handful of named
//! `txn` rows; no state is replayed and no other rows are retained.
//!
//! The certificate vocabulary (schema [`CERT_SCHEMA`]):
//!
//! ```json
//! {"schema":"shard-cert/v1","property":"transitivity","low":L,"mid":M,"top":T}
//! {"schema":"shard-cert/v1","property":"k_completeness","index":I,"missed":N}
//! {"schema":"shard-cert/v1","property":"delay_bound","seer":S,"missed":X,"bound":B}
//! ```
//!
//! against traces whose transactions appear as
//! `{"event":"txn","i":…,"t":…,"missed":[…]}` lines (the streaming
//! vocabulary; miss sets are prefix complements, so `j ∈ 𝒫ᵢ ⟺
//! j ∉ missed(i)`).

use crate::json::{parse, Json};
use std::collections::BTreeMap;

/// Schema tag a certificate must carry. (Deliberately re-stated here
/// rather than imported — the equivalence suite pins it to the
/// emitter's constant.)
pub const CERT_SCHEMA: &str = "shard-cert/v1";

/// A validated certificate: which property it witnesses and a
/// human-readable restatement of the evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertVerdict {
    /// The witnessed property (`transitivity`, `k_completeness` or
    /// `delay_bound`).
    pub property: String,
    /// What the named rows proved.
    pub detail: String,
}

/// One fetched trace row: initiation time and miss set.
struct Row {
    time: u64,
    missed: Vec<u64>,
}

fn want_u64(v: &Json, k: &str, what: &str) -> Result<u64, String> {
    v.get(k)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what} lacks integer field {k:?}"))
}

/// Scans the trace once and returns the named `txn` rows, keyed by
/// index. Rejects traces that name a needed row twice (ambiguous
/// evidence) or whose needed rows are malformed.
fn fetch_rows(trace: &str, needed: &[u64]) -> Result<BTreeMap<u64, Row>, String> {
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    for (lineno, line) in trace.lines().enumerate() {
        // Cheap membership test before parsing: txn lines carry the
        // compact `"event":"txn"` form the trace writer emits.
        if !line.contains("\"event\":\"txn\"") {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: bad JSON: {e}", lineno + 1))?;
        if v.get("event").and_then(Json::as_str) != Some("txn") {
            continue;
        }
        let i = want_u64(&v, "i", "txn row")?;
        if !needed.contains(&i) {
            continue;
        }
        let time = want_u64(&v, "t", "txn row")?;
        let missed = v
            .get("missed")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("txn row {i} lacks \"missed\" array"))?
            .iter()
            .map(|m| Json::as_u64(m).ok_or_else(|| format!("txn row {i}: non-integer miss")))
            .collect::<Result<Vec<u64>, String>>()?;
        if rows.insert(i, Row { time, missed }).is_some() {
            return Err(format!("trace names row {i} twice — ambiguous evidence"));
        }
    }
    for &i in needed {
        if !rows.contains_key(&i) {
            return Err(format!("trace has no txn row {i} named by the certificate"));
        }
    }
    Ok(rows)
}

/// Validates `cert` (one JSON object) against `trace` (JSONL).
///
/// Returns the restated evidence on acceptance.
///
/// # Errors
///
/// Rejects — with the first broken obligation — certificates with a
/// wrong schema or property, rows the trace does not contain, or
/// evidence the named rows contradict.
pub fn certify(trace: &str, cert: &str) -> Result<CertVerdict, String> {
    let cert = parse(cert.trim()).map_err(|e| format!("certificate is not valid JSON: {e}"))?;
    match cert.get("schema").and_then(Json::as_str) {
        Some(CERT_SCHEMA) => {}
        Some(other) => return Err(format!("unknown certificate schema {other:?}")),
        None => return Err("certificate lacks a \"schema\" field".to_string()),
    }
    let property = cert
        .get("property")
        .and_then(Json::as_str)
        .ok_or("certificate lacks a \"property\" field")?;
    match property {
        "transitivity" => {
            let low = want_u64(&cert, "low", "transitivity certificate")?;
            let mid = want_u64(&cert, "mid", "transitivity certificate")?;
            let top = want_u64(&cert, "top", "transitivity certificate")?;
            if !(low < mid && mid < top) {
                return Err(format!(
                    "rows must be serially ordered low < mid < top, got {low}, {mid}, {top}"
                ));
            }
            let rows = fetch_rows(trace, &[mid, top])?;
            let (m, t) = (&rows[&mid], &rows[&top]);
            if m.missed.contains(&low) {
                return Err(format!("row {mid} missed {low}: {low} ∉ 𝒫({mid})"));
            }
            if t.missed.contains(&mid) {
                return Err(format!("row {top} missed {mid}: {mid} ∉ 𝒫({top})"));
            }
            if !t.missed.contains(&low) {
                return Err(format!(
                    "row {top} saw {low}: no violation, transitivity asks no more"
                ));
            }
            Ok(CertVerdict {
                property: property.to_string(),
                detail: format!(
                    "{top} saw {mid}, {mid} saw {low}, yet {top} missed {low} — \
                     transitivity violated"
                ),
            })
        }
        "k_completeness" => {
            let index = want_u64(&cert, "index", "k-completeness certificate")?;
            let missed = want_u64(&cert, "missed", "k-completeness certificate")?;
            let rows = fetch_rows(trace, &[index])?;
            let got = rows[&index].missed.len() as u64;
            if got != missed {
                return Err(format!(
                    "row {index} missed {got} transactions, certificate claims {missed}"
                ));
            }
            Ok(CertVerdict {
                property: property.to_string(),
                detail: format!(
                    "row {index} missed {missed} transactions — the execution is not \
                     {}-complete",
                    missed.saturating_sub(1)
                ),
            })
        }
        "delay_bound" => {
            let seer = want_u64(&cert, "seer", "delay-bound certificate")?;
            let missed = want_u64(&cert, "missed", "delay-bound certificate")?;
            let bound = want_u64(&cert, "bound", "delay-bound certificate")?;
            if missed >= seer {
                return Err(format!(
                    "missed row {missed} must precede seer {seer} in the serial order"
                ));
            }
            let rows = fetch_rows(trace, &[seer, missed])?;
            let (s, x) = (&rows[&seer], &rows[&missed]);
            if !s.missed.contains(&missed) {
                return Err(format!("row {seer} saw {missed}: no delay witness"));
            }
            // Saturating, like the emitter's `min_delay_bound`: two rows
            // 2⁶⁴ − 1 ticks apart witness `u64::MAX`, not a wrapped 0.
            let implied = s.time.saturating_sub(x.time).saturating_add(1);
            if implied != bound {
                return Err(format!(
                    "rows {seer} and {missed} witness a delay bound of {implied}, \
                     certificate claims {bound}"
                ));
            }
            Ok(CertVerdict {
                property: property.to_string(),
                detail: format!(
                    "row {seer} (t={}) missed row {missed} (t={}) — no t < {bound} \
                     bounds this execution's delay",
                    s.time, x.time
                ),
            })
        }
        other => Err(format!("unknown certificate property {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"event\":\"deliver\",\"to\":\"n1\"}\n",
        "{\"event\":\"txn\",\"i\":0,\"t\":0,\"missed\":[]}\n",
        "{\"event\":\"txn\",\"i\":1,\"t\":10,\"missed\":[]}\n",
        "{\"event\":\"txn\",\"i\":2,\"t\":20,\"missed\":[0]}\n",
        "{\"event\":\"merge.out_of_order\",\"node\":1,\"replayed\":2}\n",
    );

    #[test]
    fn accepts_a_true_transitivity_violation() {
        // 2 saw 1 (1 ∉ missed(2)), 1 saw 0, 2 missed 0.
        let cert = "{\"schema\":\"shard-cert/v1\",\"property\":\"transitivity\",\
                    \"low\":0,\"mid\":1,\"top\":2}";
        let verdict = certify(TRACE, cert).expect("valid certificate");
        assert_eq!(verdict.property, "transitivity");
    }

    #[test]
    fn rejects_mutated_certificates() {
        // Swap mid/top order.
        let bad = "{\"schema\":\"shard-cert/v1\",\"property\":\"transitivity\",\
                   \"low\":0,\"mid\":2,\"top\":1}";
        assert!(certify(TRACE, bad)
            .unwrap_err()
            .contains("serially ordered"));
        // Claim a row the trace lacks.
        let bad = "{\"schema\":\"shard-cert/v1\",\"property\":\"transitivity\",\
                   \"low\":0,\"mid\":1,\"top\":7}";
        assert!(certify(TRACE, bad).unwrap_err().contains("no txn row 7"));
        // Top actually saw low: not a violation.
        let bad = "{\"schema\":\"shard-cert/v1\",\"property\":\"transitivity\",\
                   \"low\":0,\"mid\":1,\"top\":1}";
        assert!(certify(TRACE, bad).is_err());
        // Wrong schema.
        let bad = "{\"schema\":\"shard-cert/v2\",\"property\":\"transitivity\",\
                   \"low\":0,\"mid\":1,\"top\":2}";
        assert!(certify(TRACE, bad).unwrap_err().contains("schema"));
    }

    #[test]
    fn k_completeness_counts_the_miss_set() {
        let good = "{\"schema\":\"shard-cert/v1\",\"property\":\"k_completeness\",\
                    \"index\":2,\"missed\":1}";
        assert!(certify(TRACE, good).is_ok());
        let bad = "{\"schema\":\"shard-cert/v1\",\"property\":\"k_completeness\",\
                   \"index\":2,\"missed\":2}";
        assert!(certify(TRACE, bad).unwrap_err().contains("claims 2"));
    }

    #[test]
    fn delay_bound_checks_the_time_gap() {
        let good = "{\"schema\":\"shard-cert/v1\",\"property\":\"delay_bound\",\
                    \"seer\":2,\"missed\":0,\"bound\":21}";
        let verdict = certify(TRACE, good).expect("t=20 vs t=0 witnesses bound 21");
        assert!(verdict.detail.contains("21"));
        let bad = "{\"schema\":\"shard-cert/v1\",\"property\":\"delay_bound\",\
                   \"seer\":2,\"missed\":0,\"bound\":20}";
        assert!(certify(TRACE, bad).unwrap_err().contains("claims 20"));
        let bad = "{\"schema\":\"shard-cert/v1\",\"property\":\"delay_bound\",\
                   \"seer\":1,\"missed\":0,\"bound\":11}";
        assert!(certify(TRACE, bad).unwrap_err().contains("saw 0"));
        // Rows 2⁶⁴ − 1 ticks apart: the bound saturates, and a wrapped
        // `"bound":0` is no witness.
        let trace = format!(
            "{TRACE}{{\"event\":\"txn\",\"i\":3,\"t\":{},\"missed\":[0]}}",
            u64::MAX
        );
        let cert = |b: u64| {
            good.replace("\"seer\":2", "\"seer\":3")
                .replace("21", &b.to_string())
        };
        assert!(certify(&trace, &cert(0)).unwrap_err().contains("claims 0"));
        assert!(certify(&trace, &cert(u64::MAX)).is_ok());
    }

    #[test]
    fn duplicate_rows_are_ambiguous() {
        let trace = format!("{TRACE}{{\"event\":\"txn\",\"i\":2,\"t\":9,\"missed\":[]}}\n");
        let cert = "{\"schema\":\"shard-cert/v1\",\"property\":\"k_completeness\",\
                    \"index\":2,\"missed\":1}";
        assert!(certify(&trace, cert).unwrap_err().contains("twice"));
    }
}
