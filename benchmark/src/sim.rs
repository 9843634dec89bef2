//! `sim-partition`: the deterministic kernel under a repeating
//! partition. Single-threaded and seeded, so every round does identical
//! work; undo/redo, checkpoints and `apply_in_place` dominate, `runtime`
//! and `store` do nothing in the timed phase.

use crate::layers::{self, Arrival, Deltas};
use crate::report::Run;
use crate::speed::Yardstick;
use crate::stats::median;
use shard_apps::banking::{Bank, BankTxn, BankUpdate};
use shard_runtime::{banking_submissions, Pacing};
use shard_sim::nemesis::{Fate, MsgCtx, Nemesis};
use shard_sim::{
    ClusterConfig, DelayModel, Invocation, MonitorConfig, NodeId, PartitionSchedule,
    PartitionWindow, RunReport, Runner, Timestamp,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NODES: u16 = 5;
const ACCOUNTS: u32 = 64;
const MAX_DEBIT: u32 = 100;
const ZIPF_S: f64 = 1.1;
const CHECKPOINT_EVERY: usize = 32;
/// Invocations per round, one every `GAP` ticks: a round of a quarter of
/// a second, so that forty of them, each between two slices of the
/// host-speed reference, fit one run.
const INVOCATIONS: usize = 10_000;
const GAP: u64 = 5;
const MEAN_DELAY: u64 = 40;
/// Share of a round's invocations the monitor/obs comparisons rerun.
const COMPARISON_SHARE: f64 = 0.3;
/// `(total_replayed, messages_sent)` of one round at seed 1, scale 1 —
/// the kernel is deterministic, so any other value is a wrong answer.
const RECORDED_SEED_1: (u64, u64) = (897_468, 40_000);

fn invocations(bank: &Bank, seed: u64, n: usize) -> Vec<Invocation<BankTxn>> {
    banking_submissions(
        bank,
        seed,
        n,
        NODES,
        ZIPF_S,
        Pacing::Open { gap_us: GAP },
        None,
    )
    .into_iter()
    .map(|s| Invocation::new(s.at_us, s.node, s.decision))
    .collect()
}

/// Node 0 cut off for a fortieth of the horizon, five times.
fn config(seed: u64, n: usize, monitor: Option<MonitorConfig>) -> ClusterConfig {
    let horizon = n as u64 * GAP;
    let windows = (0..5)
        .map(|k| {
            let start = k * horizon / 5 + horizon / 10;
            PartitionWindow::isolate(start, start + horizon / 40, vec![NodeId(0)])
        })
        .collect();
    ClusterConfig {
        nodes: NODES,
        seed,
        delay: DelayModel::Exponential { mean: MEAN_DELAY },
        partitions: PartitionSchedule::new(windows),
        checkpoint_every: CHECKPOINT_EVERY,
        piggyback: false,
        monitor,
        ..ClusterConfig::default()
    }
}

/// One timed `Runner::run`; returns the report and its wall seconds.
fn timed_run(
    bank: &Bank,
    cfg: ClusterConfig,
    invs: Vec<Invocation<BankTxn>>,
) -> (RunReport<Bank>, f64) {
    let runner = Runner::eager(bank, cfg);
    let t0 = Instant::now();
    let report = runner.run(invs);
    (report, t0.elapsed().as_secs_f64())
}

/// A fault-free nemesis: it only writes down when each message was sent
/// and when it will be delivered, which the report does not say.
struct Observer(Arc<Mutex<Vec<MsgCtx>>>);

impl Nemesis for Observer {
    fn label(&self) -> &'static str {
        "bench.observer"
    }

    fn on_message(&mut self, ctx: &MsgCtx, _fate: &mut Fate) {
        self.0
            .lock()
            .expect("observer log is only locked here and after the run")
            .push(*ctx);
    }
}

/// Each node's arrival order: own executions at their tick, deliveries
/// at theirs; the kernel breaks ties by scheduling order, which puts an
/// invocation before any delivery and deliveries in send order.
fn arrival_orders(report: &RunReport<Bank>, sends: &[MsgCtx]) -> Vec<Vec<Arrival>> {
    let by_origin: HashMap<(u64, u16), (Timestamp, Arc<BankUpdate>)> = report
        .transactions
        .iter()
        .map(|t| ((t.time, t.node.0), (t.ts, Arc::new(t.update))))
        .collect();
    let mut per_node: Vec<Vec<((u64, u64), Arrival)>> = vec![Vec::new(); NODES as usize];
    for ((time, node), (ts, update)) in &by_origin {
        per_node[*node as usize].push((
            (*time, 0),
            Arrival {
                ts: *ts,
                update: Arc::clone(update),
                own: true,
            },
        ));
    }
    for m in sends {
        if let Some((ts, update)) = by_origin.get(&(m.now, m.from.0)) {
            per_node[m.to.0 as usize].push((
                (m.at, m.seq),
                Arrival {
                    ts: *ts,
                    update: Arc::clone(update),
                    own: false,
                },
            ));
        }
    }
    per_node
        .into_iter()
        .map(|mut v| {
            v.sort_by_key(|(at, _)| *at);
            v.into_iter().map(|(_, a)| a).collect()
        })
        .collect()
}

fn layer_figures(run: &mut Run, bank: &Bank, n: usize, round_s: f64) {
    let seed = run.args.seed;
    // One more round with the observer attached, to learn every node's
    // arrival order.
    let sends = Arc::new(Mutex::new(Vec::new()));
    let report = run.tracer.span("sim.kernel.run_observed", |_| {
        Runner::eager(bank, config(seed, n, None))
            .with_nemesis(Box::new(Observer(Arc::clone(&sends))))
            .run(invocations(bank, seed, n))
    });
    let sends = std::mem::take(&mut *sends.lock().expect("run finished"));
    run.set(
        "sim.kernel.events_per_txn",
        (n as u64 + report.messages_sent) as f64 / n as f64,
    );
    run.set(
        "sim.kernel.msgs_per_txn",
        report.messages_sent as f64 / n as f64,
    );

    layers::apps_of(run, bank, &report.transactions);
    let orders = arrival_orders(&report, &sends);
    let expect = report.final_states.first().expect("five nodes");
    let replay = layers::merge_replay(run, bank, CHECKPOINT_EVERY, &orders, 64, expect);
    layers::merge_shares(run, &report.node_metrics, n);
    let decide_s = run.get("apps.decide_ns").unwrap_or(0.0) * n as f64 / 1e9;
    run.set(
        "sim.kernel.self_ns_per_txn",
        (round_s - replay.single_total_s - decide_s) * 1e9 / n as f64,
    );

    // The monitor's and the obs layer's price, on shorter runs.
    let m = ((n as f64 * COMPARISON_SHARE) as usize).max(200);
    let plain = || timed_run(bank, config(seed, m, None), invocations(bank, seed, m)).1;
    let mut max_missed = 0usize;
    let monitored = || {
        let cfg = config(
            seed,
            m,
            Some(MonitorConfig {
                window: 64,
                emit_rows: false,
                abort_on_violation: false,
            }),
        );
        let (report, secs) = timed_run(bank, cfg, invocations(bank, seed, m));
        max_missed = report.monitor.map_or(0, |r| r.max_missed);
        secs
    };
    let (plain_s, monitored_s) = run.tracer.span("sim.monitor.compare", |_| {
        layers::interleaved(3, plain, monitored)
    });
    run.set(
        "sim.monitor.overhead_pct",
        100.0 * (monitored_s - plain_s) / plain_s,
    );
    run.set("sim.monitor.max_missed", max_missed as f64);

    let quiet = || {
        shard_obs::set_enabled(false);
        let secs = plain();
        shard_obs::set_enabled(true);
        secs
    };
    let was_on = shard_obs::enabled();
    let (on_s, off_s) = run
        .tracer
        .span("obs.compare", |_| layers::interleaved(3, plain, quiet));
    shard_obs::set_enabled(was_on);
    run.set("obs.overhead_pct", 100.0 * (on_s - off_s) / off_s);
}

/// Round `r` draws its inputs from its own seed, so one run averages
/// over many partition/delay interleavings and no single lucky or
/// unlucky one decides the figure. Round 0 uses the run's seed itself.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_add((round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn partition(run: &mut Run) -> std::io::Result<()> {
    let bank = Bank::new(ACCOUNTS, MAX_DEBIT);
    let seed = run.args.seed;
    let n = run.args.scaled(INVOCATIONS, 200);
    run.note("nodes", NODES);
    run.note("invocations_per_round", n);

    let (mut setups, mut plain_s, mut traced_s, mut cpu_s) = (vec![], vec![], vec![], vec![]);
    let mut first_counts = None;
    let before = shard_obs::Registry::global().snapshot();
    run.rounds(1.0, false, |run, round, traced| {
        // A traced round repeats the inputs of the untraced one before it.
        let inputs = round_seed(seed, if run.args.trace { round / 2 } else { round });
        let t0 = Instant::now();
        let (invs, cfg) = run.tracer.span("bench.setup", |_| {
            (invocations(&bank, inputs, n), config(inputs, n, None))
        });
        setups.push(t0.elapsed().as_secs_f64());
        let cpu0 = crate::host::cpu_seconds();
        let (report, secs) = run
            .tracer
            .span("sim.kernel.run", |_| timed_run(&bank, cfg, invs));
        cpu_s.push(crate::host::cpu_seconds() - cpu0);
        if traced { &mut traced_s } else { &mut plain_s }.push(secs);

        run.attempted += n as u64;
        run.failed += (n - report.transactions.len().min(n)) as u64 + report.rejected.len() as u64;
        run.check(report.mutually_consistent(), || {
            format!("round {round}: replicas disagree after the network drained")
        });
        first_counts.get_or_insert((report.total_replayed(), report.messages_sent));
        black_box(report);
        Ok(())
    })?;
    let after = shard_obs::Registry::global().snapshot();

    // The kernel is deterministic: round 0's inputs, run again, must do
    // exactly the work they did the first time — and at seed 1 the work
    // recorded in this file.
    let counts = first_counts.expect("at least one round ran");
    let (again, _) = timed_run(&bank, config(seed, n, None), invocations(&bank, seed, n));
    let repeat = (again.total_replayed(), again.messages_sent);
    run.check(repeat == counts, || {
        format!("the same inputs replayed/sent {counts:?}, then {repeat:?}")
    });
    if seed == 1 && n == INVOCATIONS {
        run.check(counts == RECORDED_SEED_1, || {
            format!("seed 1 replayed/sent {counts:?}, recorded {RECORDED_SEED_1:?}")
        });
    }
    run.note(
        "round_ms",
        plain_s
            .iter()
            .map(|s| format!("{:.0}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    );
    run.note("total_replayed", counts.0);
    run.note("messages_sent", counts.1);

    let round_s = median(&plain_s);
    if run.args.trace {
        run.set("sim_txn_s", n as f64 / round_s);
        // Pair each traced round with the untraced round on its inputs.
        let overheads: Vec<f64> = traced_s
            .iter()
            .zip(&plain_s)
            .map(|(t, p)| 100.0 * (t - p) / p)
            .collect();
        if !overheads.is_empty() {
            run.set("bench.trace_overhead_pct", median(&overheads));
        }
        layers::ckpt_hit_share(run, &Deltas::between(before, after));
        let first_round_s = plain_s[0];
        layer_figures(run, &bank, n, first_round_s);
    } else {
        run.note("raw_life_p50_us", round_s * 1e6 / n as f64);
        run.set("setup_s", run.at_reference_speed(Yardstick::Cpu, &setups));
        let per_txn_us: Vec<f64> = plain_s.iter().map(|s| s * 1e6 / n as f64).collect();
        run.set(
            "life_p50_us",
            run.at_reference_speed(Yardstick::Cpu, &per_txn_us),
        );
        // Summed over rounds: /proc counts CPU in 10 ms ticks.
        let cpu_us = cpu_s.iter().sum::<f64>() * 1e6 / (n * cpu_s.len()) as f64;
        run.set(
            "cpu_us_per_txn",
            run.cpu_at_reference_speed(Yardstick::Cpu, cpu_us),
        );
    }
    Ok(())
}
