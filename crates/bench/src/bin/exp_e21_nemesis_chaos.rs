//! E21 — nemesis chaos search: regenerating the §3.1 counterexamples
//! mechanically (extension).
//!
//! The paper defends its weak baseline condition by exhibiting message
//! patterns that defeat each stronger refinement: transitivity dies
//! when an update is forwarded around a lost message, k-completeness
//! dies when a node stays isolated long enough. E01 replays those
//! hand-built scenarios literally; this experiment *searches* for them.
//! A seeded fault stack (drop / duplicate / adversarial reorder /
//! jittered partition / crash-with-recovery) is injected into the
//! kernel transport across a 120-seed sweep of the Fly-by-Night
//! airline; every run is judged by the §3 condition checkers and the
//! Corollary 8 cost bound; and the first fault schedule defeating each
//! refinement is delta-debugged down to a minimal event list — a
//! machine-found counterexample in the paper's sense.
//!
//! Claims:
//! * the prefix-subsequence condition (§3.1 (1)–(4)) holds on **every**
//!   faulted run — the kernel guarantees it by construction, faults or
//!   not;
//! * the Corollary 8 overbooking bound holds on **every** faulted run —
//!   it is a theorem about arbitrary executions;
//! * every fault-free baseline satisfies both refinements (so each
//!   violation is nemesis-caused);
//! * the sweep finds at least one execution defeating transitivity and
//!   at least one defeating k-completeness;
//! * each violating schedule shrinks to ≤ 12 fault events.

use shard_analysis::{ClaimCheck, Table};
use shard_bench::chaos::{sweep, ChaosConfig, Oracle};
use shard_bench::report_claim;

fn main() {
    let exp = shard_bench::Experiment::start("e21");
    let cfg = ChaosConfig {
        seeds: 120,
        ..ChaosConfig::default()
    };
    let mut ok = true;
    println!(
        "E21: nemesis chaos search — {} seeds × {} txns over {} nodes\n\
         fault stack: drop {:.0}% / duplicate {:.0}% / reorder {:.0}% / \
         {} partition + {} crash window(s) per run\n",
        cfg.seeds,
        cfg.txns,
        cfg.nodes,
        100.0 * cfg.drop_prob,
        100.0 * cfg.dup_prob,
        100.0 * cfg.reorder_prob,
        cfg.partition_windows,
        cfg.crash_windows,
    );

    let outcome = sweep(&cfg);

    // Per-seed verdicts to the JSONL trace: the sidecar records the
    // aggregate, the trace records which seed broke what.
    let sink = exp.trace_sink();
    if let Some(sink) = sink.as_deref() {
        for v in &outcome.verdicts {
            sink.event("chaos.verdict")
                .u64("seed", v.seed)
                .u64("faults", v.fault_events as u64)
                .bool("verify_ok", v.verify_ok)
                .bool("cost_ok", v.cost_ok)
                .bool("transitivity_broken", v.transitivity_broken())
                .bool("k_broken", v.k_broken(cfg.k_limit))
                .u64("max_missed", v.faulted_max_missed as u64)
                .u64("delay_bound", v.faulted_delay_bound)
                .emit();
        }
    }

    let mut theorems =
        ClaimCheck::new("prefix-subsequence (§3.1) and Corollary 8 hold on every faulted run");
    for v in &outcome.verdicts {
        theorems.record(
            (!v.verify_ok)
                .then(|| format!("seed {}: prefix-subsequence condition violated", v.seed)),
        );
        theorems.record(
            (!v.cost_ok)
                .then(|| format!("seed {}: Corollary 8 overbooking bound violated", v.seed)),
        );
    }
    ok &= report_claim(&theorems);

    let mut baselines = ClaimCheck::new(format!(
        "every fault-free baseline is transitive and ≤{}-incomplete",
        cfg.k_limit
    ));
    for v in &outcome.verdicts {
        baselines.record(
            (!v.base_transitive)
                .then(|| format!("seed {}: fault-free baseline not transitive", v.seed)),
        );
        baselines.record((v.base_max_missed > cfg.k_limit).then(|| {
            format!(
                "seed {}: fault-free baseline max_missed = {}",
                v.seed, v.base_max_missed
            )
        }));
    }
    ok &= report_claim(&baselines);

    let t_broken = outcome.transitivity_violations();
    let k_broken = outcome.k_violations(cfg.k_limit);
    let mut found = ClaimCheck::new("the sweep defeats both §3.2 refinements somewhere");
    found.record((t_broken == 0).then(|| "no transitivity violation found".into()));
    found.record((k_broken == 0).then(|| "no k-completeness violation found".into()));
    ok &= report_claim(&found);

    let mut t = Table::new(
        format!(
            "E21a refinement violations over {} seeds (k limit = {})",
            cfg.seeds, cfg.k_limit
        ),
        &[
            "oracle",
            "violating seeds",
            "first seed",
            "recorded faults",
            "shrunk to",
            "shrink re-runs",
        ],
    );
    let mut shrunk = ClaimCheck::new("each counterexample shrinks to ≤ 12 fault events");
    for (oracle, broken) in [
        (Oracle::Transitivity, t_broken),
        (Oracle::KCompleteness, k_broken),
    ] {
        match outcome.counterexample(oracle) {
            Some(ce) => {
                t.row(&[
                    oracle.to_string(),
                    format!("{broken}/{}", cfg.seeds),
                    ce.seed.to_string(),
                    ce.recorded.to_string(),
                    ce.events.len().to_string(),
                    ce.shrink_runs.to_string(),
                ]);
                shrunk.record((ce.events.len() > 12).then(|| {
                    format!(
                        "{oracle} counterexample still has {} events",
                        ce.events.len()
                    )
                }));
            }
            None => {
                t.row(&[
                    oracle.to_string(),
                    format!("{broken}/{}", cfg.seeds),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                ]);
                shrunk.record(Some(format!("no {oracle} counterexample to shrink")));
            }
        }
    }
    println!("\n{t}");
    ok &= report_claim(&shrunk);

    for ce in &outcome.counterexamples {
        println!(
            "\nminimal {} counterexample (seed {}, {} → {} events):",
            ce.oracle,
            ce.seed,
            ce.recorded,
            ce.events.len()
        );
        for e in &ce.events {
            println!("  {e}");
        }
        if let Some(sink) = sink.as_deref() {
            let schedule: Vec<String> = ce.events.iter().map(ToString::to_string).collect();
            sink.event("chaos.counterexample")
                .str("oracle", &ce.oracle.to_string())
                .u64("seed", ce.seed)
                .u64("recorded", ce.recorded as u64)
                .u64("events", ce.events.len() as u64)
                .str("schedule", &schedule.join("; "))
                .emit();
        }
    }
    if let Some(sink) = sink.as_deref() {
        sink.flush();
    }

    exp.finish(ok);
}
