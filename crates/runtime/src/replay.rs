//! Replaying a recorded live run through the deterministic kernel —
//! and proving the two runs identical.
//!
//! The translation from a [`RecordedSchedule`] to a kernel run:
//!
//! * **Executions** become [`Invocation`]s at their recorded ticks.
//!   The kernel executes an invocation the moment its event pops, and
//!   live ticks are unique, so the k-th execution a node performed live
//!   pairs with the k-th submission it was given (nodes work their
//!   queue in FIFO order) — decisions are recovered positionally.
//! * **Gossip rounds** become a scripted tick list
//!   ([`Runner::with_ticks`]): one `Tick` event per recorded round, no
//!   rescheduling — the script is the stopping rule.
//! * **Messages** are the crux. The kernel numbers sends 1, 2, 3, … in
//!   send order; live, sends happen inside execution/round events
//!   (whose ticks totally order them) and go to peers in increasing
//!   node id within one event. The recorded messages, which the live
//!   run keeps in `(sent_at, to)` order, therefore follow the kernel's
//!   send sequence exactly, and a [`ScheduledNemesis`] delays send
//!   number `i` by `merged_at − sent_at` ticks: with a zero-delay [`DelayModel`] the
//!   fault-free arrival is the send tick, so each message lands at
//!   **precisely** its recorded merge tick.
//!
//! Equality is checked over every report field except `faults` (replay
//! books each rescheduled delivery as an injected delay; the live run
//! injected none — the tally describes the *mechanism*, not the run).

use crate::live::{RecordedSchedule, RuntimeConfig};
use shard_core::Application;
use shard_sim::partition::PartitionSchedule;
use shard_sim::{
    ClusterConfig, CrashSchedule, DelayModel, EagerBroadcast, FaultEvent, Invocation, Propagation,
    RunReport, Runner, ScheduledNemesis,
};

/// Rebuilds the kernel invocation list from the recorded executions,
/// pairing each node's k-th recorded execution with its k-th
/// submission.
fn invocations<D: Clone>(
    nodes: u16,
    schedule: &RecordedSchedule,
    submissions: &[crate::live::Submission<D>],
) -> Vec<Invocation<D>> {
    let mut per_node: Vec<std::collections::VecDeque<&D>> = (0..nodes)
        .map(|_| std::collections::VecDeque::new())
        .collect();
    for s in submissions {
        per_node[s.node.0 as usize].push_back(&s.decision);
    }
    schedule
        .execs
        .iter()
        .map(|&(tick, node)| {
            let d = per_node[node.0 as usize]
                .pop_front()
                .expect("one recorded execution per submission");
            Invocation::new(tick, node, d.clone())
        })
        .collect()
}

/// The recorded delivery schedule as kernel fault events: message `i`
/// (1-based send order) delayed to its recorded merge tick.
///
/// # Panics
///
/// Panics if `schedule.msgs` is not in its documented `(sent_at, to)`
/// order, the kernel's send order.
fn delivery_faults(schedule: &RecordedSchedule) -> Vec<FaultEvent> {
    assert!(
        schedule.msgs.is_sorted_by_key(|m| (m.sent_at, m.to.0)),
        "RecordedSchedule::msgs is not in (sent_at, to) order"
    );
    schedule
        .msgs
        .iter()
        .enumerate()
        .map(|(i, m)| FaultEvent::Delay {
            msg: i as u64 + 1,
            by: m.merged_at - m.sent_at,
        })
        .collect()
}

/// Replays a recorded live run through the deterministic kernel under
/// `strategy` — a clone of the value the live run was given — and
/// returns the kernel's report. Rounds of a tick-driven strategy are
/// scripted from the schedule, so its interval is irrelevant here.
/// `cfg.sink` traces the replay in the live run's own vocabulary — hand
/// it a different sink than the live run's (or none) to keep the two
/// traces apart.
pub fn replay<A, P>(
    app: &A,
    cfg: &RuntimeConfig,
    strategy: P,
    submissions: &[crate::live::Submission<A::Decision>],
    schedule: &RecordedSchedule,
) -> RunReport<A>
where
    A: Application,
    P: Propagation<A>,
{
    let scripted = strategy.tick_interval().is_some();
    let kernel_cfg = ClusterConfig {
        nodes: cfg.nodes,
        seed: cfg.seed,
        delay: DelayModel::Fixed(0),
        partitions: PartitionSchedule::none(),
        checkpoint_every: cfg.checkpoint_every,
        crashes: CrashSchedule::none(),
        sink: cfg.sink.clone(),
        monitor: cfg.monitor.clone(),
        ..ClusterConfig::default()
    };
    let invs = invocations(cfg.nodes, schedule, submissions);
    let mut runner = Runner::new(app, kernel_cfg, strategy)
        .with_nemesis(Box::new(ScheduledNemesis::new(&delivery_faults(schedule))));
    if scripted {
        runner = runner.with_ticks(schedule.ticks.clone());
    }
    runner.run(invs)
}

/// [`replay()`] under [`EagerBroadcast`] — the one named wrapper, kept
/// because the frozen benchmark calls it; to be removed at the next
/// benchmark re-baseline. `piggyback` must be `false`: the replay
/// panics at start otherwise.
#[doc(hidden)]
pub fn replay_eager<A: Application>(
    app: &A,
    cfg: &RuntimeConfig,
    piggyback: bool,
    submissions: &[crate::live::Submission<A::Decision>],
    schedule: &RecordedSchedule,
) -> RunReport<A> {
    let strategy = EagerBroadcast { piggyback };
    replay(app, cfg, strategy, submissions, schedule)
}

/// FNV-1a over a string.
fn fnv(h: &mut u64, s: &str) {
    for b in s.as_bytes() {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// A digest of every replay-comparable field of a [`RunReport`] —
/// everything except `faults` (see the module docs). Two reports with
/// equal digests executed the same transactions in the same serial
/// order, performed the same external actions, ended in the same states
/// (short of the same entries), shipped the same traffic and drew the
/// same monitor verdicts.
pub fn report_digest<A: Application>(r: &RunReport<A>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for t in &r.transactions {
        // `known.len()` rather than the full set: formatting every
        // known set is O(n²) across a run, and the content is already
        // pinned — a known set is exactly the timestamps merged at the
        // origin before this execution, and every merge is covered by
        // the per-transaction fields and traffic counters hashed here.
        // (The record-replay property tests compare full known sets.)
        fnv(
            &mut h,
            &format!(
                "{:?}|{}|{:?}|{:?}|{:?}|{:?}|{};",
                t.ts,
                t.time,
                t.node,
                t.decision,
                t.update,
                t.external_actions,
                t.known.len()
            ),
        );
    }
    fnv(&mut h, &format!("{:?}", r.node_metrics));
    fnv(&mut h, &format!("{:?}", r.external_actions));
    fnv(&mut h, &format!("{:?}", r.final_states));
    fnv(&mut h, &format!("{:?}", r.barrier_latencies));
    fnv(&mut h, &format!("{:?}", r.rejected));
    fnv(
        &mut h,
        &format!("{}|{}|{}", r.messages_sent, r.entries_shipped, r.rounds),
    );
    fnv(&mut h, &format!("{:?}", r.monitor));
    fnv(&mut h, &format!("{:?}", r.missing()));
    h
}
