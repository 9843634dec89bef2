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
//!
//! The pool only sets the pace: `ci.sh` runs this sweep at
//! `SHARD_POOL_THREADS=1` and `4` and requires `shard-trace diff` to
//! find the two sidecars equal (`chaos.outcome_hash` included).

use shard_analysis::ClaimCheck;
use shard_bench::chaos::{
    report_sweep, sweep, ChaosConfig, Oracle, CRASH_WINDOWS, DROP_PROB, DUP_PROB, NODES,
    PARTITION_WINDOWS, REORDER_PROB, TXNS,
};

fn main() {
    let mut exp = shard_bench::Experiment::start("e21");
    let cfg = ChaosConfig::new(120);
    println!(
        "E21: nemesis chaos search — {} seeds × {TXNS} txns over {NODES} nodes\n\
         fault stack: drop {:.0}% / duplicate {:.0}% / reorder {:.0}% / \
         {PARTITION_WINDOWS} partition + {CRASH_WINDOWS} crash window(s) per run\n",
        cfg.seeds,
        100.0 * DROP_PROB,
        100.0 * DUP_PROB,
        100.0 * REORDER_PROB,
    );

    let outcome = sweep(&cfg);
    // Per-seed verdicts go to the JSONL trace: the sidecar records the
    // aggregate, the trace records which seed broke what.
    let sink = exp.trace_sink();
    report_sweep(&mut exp, &outcome, sink.as_deref());

    let mut found = ClaimCheck::new("the sweep defeats both §3.2 refinements somewhere");
    found.record(
        (outcome.transitivity_violations() == 0).then(|| "no transitivity violation found".into()),
    );
    found.record((outcome.k_violations() == 0).then(|| "no k-completeness violation found".into()));
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
