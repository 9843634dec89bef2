//! Seed-sweeping counterexample search over the nemesis layer.
//!
//! The §3.1 counterexamples are hand-built message patterns: lose one
//! message and transitivity fails, isolate one node and k-completeness
//! fails. This module regenerates them *mechanically*, Jepsen-style:
//! sweep seeds, run the Fly-by-Night airline under a recorded
//! [`shard_sim::nemesis`] fault stack, evaluate the §3 condition
//! checkers plus the app-level cost bounds as oracles on every run, and
//! [`shrink`] the first violating fault schedule per oracle down to a
//! minimal event list.
//!
//! Two kinds of oracle, deliberately opposed:
//!
//! * **Theorems** — the prefix-subsequence condition
//!   (`Execution::verify`) and the Corollary 8 cost bound hold *by
//!   construction / by proof* on every execution the kernel emits, so
//!   they must survive arbitrary faults. A violation here is a kernel
//!   bug, not a finding.
//! * **Refinements** — transitivity, k-completeness and t-bounded delay
//!   are *extra* conditions a deployment buys with specific mechanisms
//!   (piggybacking, bounded delays). Faults are expected to defeat
//!   them; the search reports which fault pattern does, minimally.
//!
//! A violation only counts when it is *nemesis-caused*: the same seed's
//! fault-free baseline must satisfy the refinement the faulted run
//! breaks. The sweep runs eager broadcast without piggybacking under a
//! fixed delay, so baselines are transitive and low-k by construction
//! (uniform delays deliver in send order), and every break is
//! attributable to the recorded schedule — which is also what makes
//! shrinking sound (see `shard_sim::nemesis` on replay determinism).

use crate::workloads::{airline_invocations, Routing};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
use shard_core::conditions::{is_transitive, max_missed};
use shard_core::costs::BoundFn;
use shard_core::stream::Certificate;
use shard_core::Execution;
use shard_pool::PoolConfig;
use shard_sim::events::SimTime;
use shard_sim::nemesis::{
    shrink, CrashInjector, FaultEvent, MessageDropper, MessageDuplicator, MessageReorderer,
    Nemesis, NemesisStack, PartitionJitter, ScheduledNemesis,
};
use shard_sim::{
    ClusterConfig, DelayModel, EagerBroadcast, FaultStats, MonitorConfig, RunReport, Runner,
};
use std::fmt;

/// Configuration of one chaos sweep.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Thread pool for the per-seed fan-out and the per-oracle shrinks.
    /// Purely a throughput knob: verdicts, counterexample selection and
    /// the shrunk schedules are identical at every pool size (a proptest
    /// suite in `crates/bench/tests` pins this down byte-for-byte).
    pub pool: PoolConfig,
    /// Number of consecutive seeds to sweep.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Runner size.
    pub nodes: u16,
    /// Transactions per run.
    pub txns: usize,
    /// Flight capacity (Fly-by-Night).
    pub capacity: u64,
    /// Fixed message delay. A *fixed* delay delivers in send order, so
    /// fault-free runs are transitive and low-k — every refinement
    /// violation is then attributable to the nemesis.
    pub fixed_delay: SimTime,
    /// Mean gap between invocations.
    pub mean_gap: SimTime,
    /// k-completeness threshold: a run breaks the oracle when some
    /// transaction misses more than this many predecessors.
    pub k_limit: usize,
    /// Per-message drop probability.
    pub drop_prob: f64,
    /// Per-message duplication probability.
    pub dup_prob: f64,
    /// Per-message adversarial-reorder probability.
    pub reorder_prob: f64,
    /// Jittered partition windows injected per run.
    pub partition_windows: u32,
    /// Crash-with-recovery windows injected per run.
    pub crash_windows: u32,
    /// Whether to shrink the first violating schedule per oracle.
    pub shrink: bool,
}

impl Default for ChaosConfig {
    /// The E21 configuration: 5 nodes, 40 transactions, moderate fault
    /// rates — violations are common but not universal, so the sweep
    /// exercises both verdicts.
    fn default() -> Self {
        ChaosConfig {
            pool: PoolConfig::from_env(),
            seeds: 100,
            start_seed: 1,
            nodes: 5,
            txns: 40,
            capacity: 20,
            fixed_delay: 10,
            mean_gap: 15,
            k_limit: 4,
            drop_prob: 0.12,
            dup_prob: 0.10,
            reorder_prob: 0.12,
            partition_windows: 1,
            crash_windows: 1,
            shrink: true,
        }
    }
}

/// Which refinement oracle a counterexample defeats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// §3.2 transitivity (`is_transitive`).
    Transitivity,
    /// §3.2 k-completeness (`max_missed > k_limit`).
    KCompleteness,
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Oracle::Transitivity => write!(f, "transitivity"),
            Oracle::KCompleteness => write!(f, "k-completeness"),
        }
    }
}

/// Oracle verdicts for one seed: the faulted run against its fault-free
/// baseline.
#[derive(Clone, Debug)]
pub struct SeedVerdict {
    /// The swept seed.
    pub seed: u64,
    /// Size of the faulted run's fault ledger (`RunReport::faults`).
    pub fault_events: usize,
    /// Prefix-subsequence condition held on the faulted run (must
    /// always be true — the kernel guarantees it by construction).
    pub verify_ok: bool,
    /// Corollary 8 overbooking bound held on the faulted run (must
    /// always be true — it is a theorem about *any* execution).
    pub cost_ok: bool,
    /// The fault-free baseline was transitive.
    pub base_transitive: bool,
    /// The faulted run was transitive.
    pub faulted_transitive: bool,
    /// Worst `missed_count` on the baseline.
    pub base_max_missed: usize,
    /// Worst `missed_count` on the faulted run.
    pub faulted_max_missed: usize,
    /// Smallest t for which the faulted run has t-bounded delay.
    pub faulted_delay_bound: u64,
}

impl SeedVerdict {
    /// The nemesis defeated transitivity: the baseline had it, the
    /// faulted run lost it.
    pub fn transitivity_broken(&self) -> bool {
        self.base_transitive && !self.faulted_transitive
    }

    /// The nemesis defeated k-completeness at `k_limit`.
    pub fn k_broken(&self, k_limit: usize) -> bool {
        self.base_max_missed <= k_limit && self.faulted_max_missed > k_limit
    }
}

/// A minimized violating fault schedule — the mechanical analogue of a
/// §3.1 counterexample.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The refinement the schedule defeats.
    pub oracle: Oracle,
    /// The seed it was found at.
    pub seed: u64,
    /// Events recorded before shrinking.
    pub recorded: usize,
    /// The shrunk, locally minimal schedule.
    pub events: Vec<FaultEvent>,
    /// Simulator re-runs the shrinker spent.
    pub shrink_runs: usize,
}

/// Everything a sweep produced.
#[derive(Clone, Debug, Default)]
pub struct ChaosOutcome {
    /// One verdict per swept seed.
    pub verdicts: Vec<SeedVerdict>,
    /// At most one shrunk counterexample per oracle (the first found).
    pub counterexamples: Vec<Counterexample>,
}

impl ChaosOutcome {
    /// Seeds on which the nemesis defeated transitivity.
    pub fn transitivity_violations(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.transitivity_broken())
            .count()
    }

    /// Seeds on which the nemesis defeated k-completeness at `k_limit`.
    pub fn k_violations(&self, k_limit: usize) -> usize {
        self.verdicts.iter().filter(|v| v.k_broken(k_limit)).count()
    }

    /// The shrunk counterexample for `oracle`, if one was found.
    pub fn counterexample(&self, oracle: Oracle) -> Option<&Counterexample> {
        self.counterexamples.iter().find(|c| c.oracle == oracle)
    }

    /// A canonical JSON rendering of everything the sweep decided:
    /// every verdict field in seed order, every counterexample with its
    /// full shrunk schedule. Contains no timing, thread-count or other
    /// environment-dependent data, so two sweeps agree on this string
    /// exactly when they agree on the outcome — the byte-identity
    /// artifact the determinism suite and the CI thread-count diff
    /// compare.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"verdicts\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(
                &shard_obs::ObjWriter::new()
                    .u64("seed", v.seed)
                    .u64("fault_events", v.fault_events as u64)
                    .bool("verify_ok", v.verify_ok)
                    .bool("cost_ok", v.cost_ok)
                    .bool("base_transitive", v.base_transitive)
                    .bool("faulted_transitive", v.faulted_transitive)
                    .u64("base_max_missed", v.base_max_missed as u64)
                    .u64("faulted_max_missed", v.faulted_max_missed as u64)
                    .u64("faulted_delay_bound", v.faulted_delay_bound)
                    .finish(),
            );
        }
        out.push_str("],\"counterexamples\":[");
        for (i, ce) in self.counterexamples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let events = ce
                .events
                .iter()
                .map(|e| shard_obs::json::string(&format!("{e:?}")))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(
                &shard_obs::ObjWriter::new()
                    .str("oracle", &ce.oracle.to_string())
                    .u64("seed", ce.seed)
                    .u64("recorded", ce.recorded as u64)
                    .u64("shrink_runs", ce.shrink_runs as u64)
                    .raw("events", &format!("[{events}]"))
                    .finish(),
            );
        }
        out.push_str("]}");
        out
    }

    /// FNV-1a hash of [`ChaosOutcome::to_json_string`] — a compact
    /// outcome fingerprint. The sweep publishes it as the
    /// `chaos.outcome_hash` gauge, so sidecars from runs at different
    /// thread counts can be diffed for semantic equality without
    /// shipping the full outcome.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Seeds per scheduling chunk in [`monitored_sweep`]. Fixed (never
/// derived from the pool), so which seeds run before the sweep stops is
/// a function of the outcome alone and the early abort is byte-identical
/// at every thread count.
const MONITOR_CHUNK: usize = 8;

/// One seed's verdict from the live in-run monitor.
#[derive(Clone, Debug)]
pub struct MonitoredVerdict {
    /// The swept seed.
    pub seed: u64,
    /// Transactions the monitor checked (all of them, or the prefix up
    /// to the abort).
    pub rows: usize,
    /// The monitor stopped this run at a confirmed violation.
    pub aborted: bool,
    /// Transitivity verdict over the checked rows.
    pub transitive: bool,
    /// `max_missed` over the checked rows.
    pub max_missed: usize,
    /// `min_delay_bound` over the checked rows.
    pub delay_bound: u64,
}

/// The confirmed violation that stopped a monitored sweep.
#[derive(Clone, Debug)]
pub struct MonitoredHit {
    /// The violating seed.
    pub seed: u64,
    /// The §3 witness triple the monitor certified.
    pub certificate: Certificate,
    /// Rows executed before the kernel aborted — what the early abort
    /// saved is `cfg.txns - rows_at_abort` per remaining doomed run.
    pub rows_at_abort: usize,
    /// The same seed's fault-free baseline was transitive, attributing
    /// the violation to the fault schedule (always re-checked before a
    /// hit stops the sweep).
    pub baseline_transitive: bool,
}

/// Everything a monitored sweep produced.
#[derive(Clone, Debug, Default)]
pub struct MonitoredOutcome {
    /// Per-seed verdicts, in seed order, up to and including the hit.
    pub verdicts: Vec<MonitoredVerdict>,
    /// The confirmed violation that stopped the sweep, if any.
    pub hit: Option<MonitoredHit>,
    /// Seeds never run because the sweep stopped early.
    pub seeds_skipped: u64,
}

impl MonitoredOutcome {
    /// Canonical JSON of the outcome — no timing or thread-count data,
    /// so pool sizes agreeing on this string agree on the sweep.
    pub fn to_json_string(&self) -> String {
        let mut out = String::from("{\"verdicts\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(
                &shard_obs::ObjWriter::new()
                    .u64("seed", v.seed)
                    .u64("rows", v.rows as u64)
                    .bool("aborted", v.aborted)
                    .bool("transitive", v.transitive)
                    .u64("max_missed", v.max_missed as u64)
                    .u64("delay_bound", v.delay_bound)
                    .finish(),
            );
        }
        out.push_str("],\"hit\":");
        match &self.hit {
            None => out.push_str("null"),
            Some(h) => out.push_str(
                &shard_obs::ObjWriter::new()
                    .u64("seed", h.seed)
                    .raw("certificate", &h.certificate.to_json())
                    .u64("rows_at_abort", h.rows_at_abort as u64)
                    .bool("baseline_transitive", h.baseline_transitive)
                    .finish(),
            ),
        }
        out.push_str(&format!(",\"seeds_skipped\":{}}}", self.seeds_skipped));
        out
    }
}

/// One seeded run of the sweep's cluster: the airline workload of
/// `seed` over eager broadcast without piggybacking under the fixed
/// delay, optionally faulted, monitored and traced.
fn run(
    cfg: &ChaosConfig,
    seed: u64,
    nemesis: Option<Box<dyn Nemesis>>,
    monitor: Option<MonitorConfig>,
    sink: Option<std::sync::Arc<shard_obs::EventSink>>,
) -> RunReport<FlyByNight> {
    let app = FlyByNight::new(cfg.capacity);
    let invocations = airline_invocations(
        seed,
        cfg.txns,
        cfg.nodes,
        cfg.mean_gap,
        AirlineMix::default(),
        Routing::Random,
    );
    let cluster = ClusterConfig {
        nodes: cfg.nodes,
        seed,
        delay: DelayModel::Fixed(cfg.fixed_delay),
        sink,
        monitor,
        ..ClusterConfig::default()
    };
    let mut runner = Runner::new(&app, cluster, EagerBroadcast::default());
    if let Some(n) = nemesis {
        runner = runner.with_nemesis(n);
    }
    runner.run(invocations)
}

/// The monitor of a monitored run: abort at the first confirmed
/// transitivity violation.
fn aborting_monitor(window: usize, emit_rows: bool) -> Option<MonitorConfig> {
    Some(MonitorConfig {
        window,
        emit_rows,
        abort_on_violation: true,
    })
}

/// Replays one monitored seed with row emission on, teeing the full
/// streaming vocabulary (`txn` rows, `monitor.window` verdicts,
/// `monitor.final`) into `sink` — the artifact producer behind
/// `shard-chaos --trace-out` / `--cert-out`. Deterministic: the same
/// `(cfg, seed, window)` aborts at the same row the sweep did.
pub fn replay_monitored(
    cfg: &ChaosConfig,
    seed: u64,
    window: usize,
    sink: std::sync::Arc<shard_obs::EventSink>,
) -> RunReport<FlyByNight> {
    let stack = Box::new(stack_for(cfg, seed));
    run(
        cfg,
        seed,
        Some(stack),
        aborting_monitor(window, true),
        Some(sink),
    )
}

/// The monitored sweep: every seed runs under the same fault stack as
/// [`sweep`], but with the live monitor riding the kernel loop —
/// verdicts arrive *during* each run, a violating run is cut off at its
/// first confirmed violation, and the sweep itself stops at the first
/// violating seed (after re-checking the seed's fault-free baseline, so
/// the hit is attributable to the nemesis, not the topology).
///
/// Parallelism: seeds fan out across `cfg.pool` in fixed
/// `MONITOR_CHUNK`-sized (8) chunks; chunk results are scanned in seed
/// order and everything after the hit is discarded. Chunking never
/// consults the pool, so the verdict list, the hit and the skip count
/// are byte-identical at every thread count (a proptest in
/// `crates/bench/tests` pins this).
pub fn monitored_sweep(cfg: &ChaosConfig, window: usize) -> MonitoredOutcome {
    let _span = shard_obs::span!("chaos.monitored_sweep");
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed + cfg.seeds).collect();
    let mut outcome = MonitoredOutcome::default();
    for chunk in seeds.chunks(MONITOR_CHUNK) {
        let runs = shard_pool::par_map(&cfg.pool, chunk, |_, &seed| {
            let stack = Box::new(stack_for(cfg, seed));
            let report = run(
                cfg,
                seed,
                Some(stack),
                aborting_monitor(window, false),
                None,
            );
            let m = report
                .monitor
                .expect("monitored run always carries a StreamReport");
            (seed, report.aborted, m)
        });
        for (seed, aborted, m) in runs {
            if shard_obs::enabled() {
                shard_obs::Registry::global()
                    .counter("chaos.monitor.runs")
                    .inc();
            }
            outcome.verdicts.push(MonitoredVerdict {
                seed,
                rows: m.rows,
                aborted,
                transitive: m.transitive,
                max_missed: m.max_missed,
                delay_bound: m.min_delay_bound,
            });
            if aborted {
                if shard_obs::enabled() {
                    shard_obs::Registry::global()
                        .counter("chaos.monitor.aborts")
                        .inc();
                }
                // Confirm attribution before stopping: the same seed's
                // fault-free baseline must have had transitivity for
                // the nemesis to be the culprit. (Under the fixed-delay
                // sweep it always does; a non-attributable abort is
                // recorded and the sweep keeps going.)
                let baseline = run(cfg, seed, None, None, None);
                if !is_transitive(&baseline.timed_execution().execution) {
                    continue;
                }
                outcome.hit = Some(MonitoredHit {
                    seed,
                    certificate: *m
                        .violation()
                        .expect("an aborted run certifies its violation"),
                    rows_at_abort: m.rows,
                    baseline_transitive: true,
                });
                outcome.seeds_skipped = cfg.seeds - outcome.verdicts.len() as u64;
                if shard_obs::enabled() {
                    shard_obs::Registry::global()
                        .gauge("chaos.monitor.rows_at_abort")
                        .set(m.rows as i64);
                }
                return outcome;
            }
        }
    }
    outcome
}

/// The fault stack one swept seed runs under. Sub-seeds are derived per
/// injector so each fault class has an independent stream.
fn stack_for(cfg: &ChaosConfig, seed: u64) -> NemesisStack {
    let mut stack = NemesisStack::new();
    if cfg.drop_prob > 0.0 {
        stack = stack.with(Box::new(MessageDropper::new(cfg.drop_prob, seed ^ 0xD509)));
    }
    if cfg.dup_prob > 0.0 {
        stack = stack.with(Box::new(MessageDuplicator::new(
            cfg.dup_prob,
            2,
            3 * cfg.fixed_delay,
            seed ^ 0xD0B1,
        )));
    }
    if cfg.reorder_prob > 0.0 {
        stack = stack.with(Box::new(MessageReorderer::new(
            cfg.reorder_prob,
            3 * cfg.fixed_delay,
            12 * cfg.fixed_delay,
            seed ^ 0x8E0D,
        )));
    }
    if cfg.partition_windows > 0 {
        stack = stack.with(Box::new(PartitionJitter::new(
            cfg.partition_windows,
            6 * cfg.fixed_delay,
            15 * cfg.fixed_delay,
            seed ^ 0xBA51,
        )));
    }
    if cfg.crash_windows > 0 {
        stack = stack.with(Box::new(CrashInjector::new(
            cfg.crash_windows,
            6 * cfg.fixed_delay,
            15 * cfg.fixed_delay,
            seed ^ 0xC8A5,
        )));
    }
    stack
}

fn oracle_holds_broken(cfg: &ChaosConfig, oracle: Oracle, exec: &Execution<FlyByNight>) -> bool {
    match oracle {
        Oracle::Transitivity => !is_transitive(exec),
        Oracle::KCompleteness => max_missed(exec) > cfg.k_limit,
    }
}

/// Runs the sweep: per seed, a fault-free baseline and a recorded
/// faulted run, oracle evaluation, and (for the first violating seed
/// per refinement oracle) schedule shrinking. Feeds `chaos.*` and
/// `nemesis.*` counters into the global metrics registry when
/// observability is enabled.
///
/// Parallelism: each seed's pair of runs plus oracle evaluation is a
/// pure function of `(cfg, seed)`, so phase 1 fans seeds out across
/// `cfg.pool` and collects verdicts back in seed order. Phase 2 then
/// selects counterexample targets by scanning verdicts sequentially in
/// exactly the order the sequential loop did — first violating seed per
/// oracle, oracles in `[Transitivity, KCompleteness]` order — and
/// phase 3 shrinks the (at most two) targets in parallel, each shrink
/// being deterministic given its seed and recorded schedule. Metric
/// totals are order-independent atomic adds, so the whole outcome —
/// verdicts, counterexamples, counters — is identical at every pool
/// size.
pub fn sweep(cfg: &ChaosConfig) -> ChaosOutcome {
    let _span = shard_obs::span!("chaos.sweep");
    let app = FlyByNight::new(cfg.capacity);
    let bound = BoundFn::linear(900);
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed + cfg.seeds).collect();
    struct SeedRun {
        verdict: SeedVerdict,
        events: Vec<FaultEvent>,
    }
    let runs: Vec<SeedRun> = shard_pool::par_map(&cfg.pool, &seeds, |_, &seed| {
        let baseline = run(cfg, seed, None, None, None);
        let base_exec = baseline.timed_execution().execution;
        let faulted = run(cfg, seed, Some(Box::new(stack_for(cfg, seed))), None, None);
        let te = faulted.timed_execution();
        let verify_ok = te.execution.verify(&app).is_ok();
        let (_, cost_check) = shard_analysis::claims::check_invariant_bound(
            &app,
            &te.execution,
            OVERBOOKING,
            &bound,
            |d| matches!(d, AirlineTxn::MoveUp),
        );
        let verdict = SeedVerdict {
            seed,
            fault_events: faulted.faults.len(),
            verify_ok,
            cost_ok: cost_check.holds(),
            base_transitive: is_transitive(&base_exec),
            faulted_transitive: is_transitive(&te.execution),
            base_max_missed: max_missed(&base_exec),
            faulted_max_missed: max_missed(&te.execution),
            faulted_delay_bound: te.min_delay_bound(),
        };
        if shard_obs::enabled() {
            let r = shard_obs::Registry::global();
            r.counter("chaos.runs").inc();
            let faults = FaultStats::of(&faulted.faults);
            r.counter("nemesis.dropped").add(faults.dropped);
            r.counter("nemesis.duplicated").add(faults.duplicated);
            r.counter("nemesis.delayed").add(faults.delayed);
            r.counter("nemesis.partitions")
                .add(faults.partitions_injected);
            r.counter("nemesis.crashes").add(faults.crashes_injected);
            if verdict.transitivity_broken() {
                r.counter("chaos.violations.transitivity").inc();
            }
            if verdict.k_broken(cfg.k_limit) {
                r.counter("chaos.violations.k_completeness").inc();
            }
        }
        SeedRun {
            verdict,
            events: faulted.faults,
        }
    });
    let mut targets: Vec<(Oracle, u64, &[FaultEvent])> = Vec::new();
    for run in &runs {
        for oracle in [Oracle::Transitivity, Oracle::KCompleteness] {
            let broken = match oracle {
                Oracle::Transitivity => run.verdict.transitivity_broken(),
                Oracle::KCompleteness => run.verdict.k_broken(cfg.k_limit),
            };
            if broken && cfg.shrink && !targets.iter().any(|&(o, _, _)| o == oracle) {
                targets.push((oracle, run.verdict.seed, &run.events));
            }
        }
    }
    let counterexamples = shard_pool::par_map(&cfg.pool, &targets, |_, &(oracle, seed, events)| {
        shrink_counterexample(cfg, oracle, seed, events)
    });
    let outcome = ChaosOutcome {
        verdicts: runs.into_iter().map(|r| r.verdict).collect(),
        counterexamples,
    };
    if shard_obs::enabled() {
        shard_obs::Registry::global()
            .gauge("chaos.outcome_hash")
            .set(outcome.digest() as i64);
    }
    outcome
}

/// Shrinks `events` to a locally minimal schedule still defeating
/// `oracle` at `seed`, re-running the simulator per candidate through
/// [`ScheduledNemesis`] (exact replay: eager broadcast's send sequence
/// is fate-independent).
pub fn shrink_counterexample(
    cfg: &ChaosConfig,
    oracle: Oracle,
    seed: u64,
    events: &[FaultEvent],
) -> Counterexample {
    let _span = shard_obs::span!("chaos.shrink");
    let mut runs = 0usize;
    let shrunk = shrink(events, |candidate| {
        runs += 1;
        let schedule = Box::new(ScheduledNemesis::new(candidate));
        let report = run(cfg, seed, Some(schedule), None, None);
        oracle_holds_broken(cfg, oracle, &report.timed_execution().execution)
    });
    if shard_obs::enabled() {
        let r = shard_obs::Registry::global();
        r.counter("chaos.shrink.runs").add(runs as u64);
        r.gauge(match oracle {
            Oracle::Transitivity => "chaos.ce.transitivity.events",
            Oracle::KCompleteness => "chaos.ce.k_completeness.events",
        })
        .set(shrunk.len() as i64);
    }
    Counterexample {
        oracle,
        seed,
        recorded: events.len(),
        events: shrunk,
        shrink_runs: runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig {
            seeds: 6,
            txns: 25,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn baselines_satisfy_the_refinements() {
        // Fixed delay ⇒ send-order delivery ⇒ fault-free runs are
        // transitive and low-k: the precondition for attributing any
        // violation to the nemesis.
        let cfg = tiny();
        for v in sweep(&ChaosConfig {
            shrink: false,
            ..cfg
        })
        .verdicts
        {
            assert!(v.base_transitive, "seed {}", v.seed);
            assert!(v.base_max_missed <= cfg.k_limit, "seed {}", v.seed);
        }
    }

    #[test]
    fn theorems_survive_faults_and_refinements_break() {
        let cfg = ChaosConfig {
            seeds: 12,
            ..tiny()
        };
        let outcome = sweep(&cfg);
        for v in &outcome.verdicts {
            assert!(v.verify_ok, "prefix-subsequence must survive faults");
            assert!(v.cost_ok, "Corollary 8 must survive faults");
        }
        assert!(
            outcome.transitivity_violations() > 0,
            "12 seeds at these fault rates defeat transitivity somewhere"
        );
    }

    #[test]
    fn sweep_is_deterministic_per_seed_range() {
        let cfg = ChaosConfig {
            shrink: false,
            ..tiny()
        };
        let a = sweep(&cfg);
        let b = sweep(&cfg);
        for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(x.fault_events, y.fault_events);
            assert_eq!(x.faulted_transitive, y.faulted_transitive);
            assert_eq!(x.faulted_max_missed, y.faulted_max_missed);
        }
    }

    #[test]
    fn monitored_sweep_stops_at_a_confirmed_violation_with_a_live_certificate() {
        let cfg = tiny();
        let outcome = monitored_sweep(&cfg, 1);
        let hit = outcome
            .hit
            .as_ref()
            .expect("6 seeds at these fault rates defeat transitivity somewhere");
        assert!(hit.baseline_transitive);
        let last = outcome.verdicts.last().expect("hit implies a verdict");
        assert_eq!(last.seed, hit.seed);
        assert!(last.aborted && !last.transitive);
        // The abort cut the run short: the prefix the monitor checked is
        // what the hit cost, and everything after the hit was skipped.
        assert!(hit.rows_at_abort <= cfg.txns);
        assert_eq!(
            outcome.seeds_skipped,
            cfg.seeds - outcome.verdicts.len() as u64
        );

        // The certificate is independently checkable: replay the hit
        // seed with row emission on and hand the raw trace plus the
        // certificate to `shard_obs::certify` — no checker re-run.
        let sink = shard_obs::EventSink::in_memory();
        let report = replay_monitored(&cfg, hit.seed, 1, sink.clone());
        assert!(report.aborted, "replaying the hit seed aborts again");
        let trace = sink.drain_to_string();
        let verdict = shard_obs::certify(&trace, &hit.certificate.to_json())
            .expect("the live certificate validates against the raw trace");
        assert_eq!(verdict.property, "transitivity");
    }

    #[test]
    fn shrunk_counterexample_still_reproduces_and_is_minimal_enough() {
        let cfg = tiny();
        let outcome = sweep(&cfg);
        let Some(ce) = outcome.counterexample(Oracle::Transitivity) else {
            panic!("expected a transitivity counterexample in 6 seeds");
        };
        assert!(ce.events.len() <= ce.recorded);
        assert!(
            !ce.events.is_empty(),
            "empty schedule = baseline, which is transitive"
        );
        // Replaying the shrunk schedule still defeats the oracle.
        let schedule = Box::new(ScheduledNemesis::new(&ce.events));
        let report = run(&cfg, ce.seed, Some(schedule), None, None);
        assert!(!is_transitive(&report.timed_execution().execution));
        // And it is 1-minimal: removing any single event repairs it.
        for i in 0..ce.events.len() {
            let mut without: Vec<FaultEvent> = ce.events.clone();
            without.remove(i);
            let schedule = Box::new(ScheduledNemesis::new(&without));
            let report = run(&cfg, ce.seed, Some(schedule), None, None);
            assert!(
                is_transitive(&report.timed_execution().execution),
                "event {i} is redundant in the shrunk schedule"
            );
        }
    }
}
