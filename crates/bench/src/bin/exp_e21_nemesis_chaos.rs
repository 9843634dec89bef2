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

use shard_analysis::ClaimCheck;
use shard_bench::chaos::{report_sweep, sweep, ChaosConfig, Oracle};

fn main() {
    let mut exp = shard_bench::Experiment::start("e21");
    let cfg = ChaosConfig {
        seeds: 120,
        ..ChaosConfig::default()
    };
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
    // Per-seed verdicts go to the JSONL trace: the sidecar records the
    // aggregate, the trace records which seed broke what.
    let sink = exp.trace_sink();
    report_sweep(&mut exp, &cfg, &outcome, sink.as_deref());

    let mut found = ClaimCheck::new("the sweep defeats both §3.2 refinements somewhere");
    found.record(
        (outcome.transitivity_violations() == 0).then(|| "no transitivity violation found".into()),
    );
    found.record(
        (outcome.k_violations(cfg.k_limit) == 0)
            .then(|| "no k-completeness violation found".into()),
    );
    exp.claim(found);

    let mut shrunk = ClaimCheck::new("each counterexample shrinks to ≤ 12 fault events");
    for oracle in [Oracle::Transitivity, Oracle::KCompleteness] {
        shrunk.record(match outcome.counterexample(oracle) {
            Some(ce) => (ce.events.len() > 12).then(|| {
                format!(
                    "{oracle} counterexample still has {} events",
                    ce.events.len()
                )
            }),
            None => Some(format!("no {oracle} counterexample to shrink")),
        });
    }
    exp.claim(shrunk);

    exp.finish();
}
