//! Nemesis regression tests: faults the merge layer must absorb.
//!
//! The paper's model (§2) assumes a network that may delay and reorder,
//! but the implementation must also shrug off *duplicated* deliveries —
//! [`MergeLog`](shard_sim::MergeLog) ignores an update it already
//! holds. These tests pin that down at both layers: fed the same update
//! set duplicated and adversarially reordered, a merge log converges to
//! a state **bit-identical** to the in-order run; and end-to-end
//! through the kernel, a transport that duplicates messages (but drops
//! and delays nothing, so decision-time knowledge is untouched) leaves
//! every node's final state bit-identical to the fault-free run, with
//! every extra copy accounted for by the duplicate counters and the
//! `merge.duplicate` / `nemesis.*` trace vocabulary.

use proptest::prelude::*;
use shard_apps::airline::workload::AirlineWorkload;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_obs::EventSink;
use shard_sim::{
    ClusterConfig, CrashInjector, DelayModel, EagerBroadcast, FaultEvent, FaultStats, Invocation,
    MergeLog, MessageDropper, MessageDuplicator, MessageReorderer, Nemesis, NemesisStack, NodeId,
    PartitionJitter, RunReport, Runner, ScheduledNemesis,
};

const NODES: u16 = 5;

fn invocations(seed: u64, n: usize) -> Vec<Invocation<AirlineTxn>> {
    let mut wl = AirlineWorkload::with_seed(seed);
    wl.take_txns(n)
        .into_iter()
        .enumerate()
        .map(|(i, txn)| Invocation::new(1 + 13 * i as u64, NodeId(i as u16 % NODES), txn))
        .collect()
}

fn run(
    seed: u64,
    nemesis: Option<NemesisStack>,
    sink: Option<std::sync::Arc<EventSink>>,
) -> RunReport<FlyByNight> {
    let app = FlyByNight::new(20);
    let cfg = ClusterConfig {
        nodes: NODES,
        seed,
        delay: DelayModel::Fixed(10),
        sink,
        ..ClusterConfig::default()
    };
    let mut runner = Runner::new(&app, cfg, EagerBroadcast::default());
    if let Some(n) = nemesis {
        runner = runner.with_nemesis(Box::new(n));
    }
    runner.run(invocations(seed, 60))
}

/// Duplication only: extra copies arrive strictly later, originals are
/// untouched, so decision-time knowledge — and hence every chosen
/// update — matches the fault-free run exactly.
fn dup_only_stack(seed: u64) -> NemesisStack {
    NemesisStack::new().with(Box::new(MessageDuplicator::new(0.6, 3, 40, seed ^ 0xD0B1)))
}

/// Duplication plus adversarial reordering — lossless, but delays may
/// change what nodes know at decision time (and thus the updates they
/// pick), so only counter bookkeeping is pinned under this stack.
fn dup_reorder_stack(seed: u64) -> NemesisStack {
    NemesisStack::new()
        .with(Box::new(MessageDuplicator::new(0.5, 3, 40, seed ^ 0xD0B1)))
        .with(Box::new(MessageReorderer::new(0.4, 5, 90, seed ^ 0x8E0D)))
}

/// The same update set, delivered in timestamp order to one merge log
/// and duplicated + reversed to another, must produce bit-identical
/// states — merging is commutative and idempotent over deliveries.
#[test]
fn merge_log_absorbs_duplicated_and_reordered_deliveries() {
    let app = FlyByNight::new(20);
    let clean = run(7, None, None);
    let updates: Vec<_> = clean
        .transactions
        .iter()
        .map(|t| (t.ts, t.update))
        .collect();
    assert!(updates.len() >= 40, "workload too small to mean anything");

    let mut reference = MergeLog::new(&app, 8);
    for (ts, u) in &updates {
        assert!(reference.merge(&app, *ts, *u), "fresh update ignored");
    }

    // Adversarial schedule: newest-first (every merge after the first
    // is an out-of-order insertion), then the whole set again in order
    // (every merge a duplicate), with a third copy of every other entry.
    let mut chaotic = MergeLog::new(&app, 8);
    for (ts, u) in updates.iter().rev() {
        chaotic.merge(&app, *ts, *u);
    }
    let mut expected_dups = 0u64;
    for (i, (ts, u)) in updates.iter().enumerate() {
        assert!(!chaotic.merge(&app, *ts, *u), "duplicate accepted");
        expected_dups += 1;
        if i % 2 == 0 {
            chaotic.merge(&app, *ts, *u);
            expected_dups += 1;
        }
    }

    assert_eq!(chaotic.state(), reference.state(), "states diverged");
    assert_eq!(chaotic.entries(), reference.entries(), "logs diverged");
    let m = chaotic.metrics();
    assert_eq!(m.duplicates, expected_dups, "duplicate counter off");
    assert_eq!(m.merged(), updates.len() as u64);
    assert!(m.out_of_order > 0, "reversal exercised the undo/redo path");
    assert_eq!(reference.metrics().duplicates, 0);
}

/// End-to-end: a duplicating transport changes nothing observable but
/// the duplicate counters.
#[test]
fn duplicated_deliveries_are_idempotent_end_to_end() {
    for seed in [3, 17, 1986] {
        let clean = run(seed, None, None);
        let faulted = run(seed, Some(dup_only_stack(seed)), None);
        let faults = FaultStats::of(&faulted.faults);

        assert!(faults.duplicated > 0, "seed {seed}: stack was inert");
        assert_eq!(faults.dropped, 0, "nothing may be lost");
        assert_eq!(faults.delayed, 0, "originals must be on time");

        assert!(faulted.mutually_consistent(), "seed {seed}: nodes disagree");
        assert_eq!(
            faulted.final_states, clean.final_states,
            "seed {seed}: duplication changed the merged state"
        );

        // Every extra copy the nemesis scheduled surfaces as exactly one
        // ignored duplicate in some node's merge log (eager broadcast
        // without piggyback ships one update per message, and no other
        // mechanism re-sends here).
        let ignored: u64 = faulted.node_metrics.iter().map(|m| m.duplicates).sum();
        assert_eq!(
            ignored, faults.duplicated,
            "seed {seed}: duplicate deliveries not fully accounted for"
        );
        let clean_ignored: u64 = clean.node_metrics.iter().map(|m| m.duplicates).sum();
        assert_eq!(
            clean_ignored, 0,
            "seed {seed}: fault-free run saw duplicates"
        );
    }
}

/// A kernel run's ledger opens with the windows its nemesis injected —
/// partitions, then crashes, as drawn — and replaying it re-injects
/// those windows and re-applies those message faults: same ledger.
#[test]
fn report_faults_capture_injected_windows_and_replay() {
    let stack = || {
        dup_reorder_stack(5)
            .with(Box::new(MessageDropper::new(0.1, 5)))
            .with(Box::new(PartitionJitter::new(2, 10, 20, 9)))
            .with(Box::new(CrashInjector::new(1, 5, 9, 10)))
    };
    let recorded = run(5, Some(stack()), None).faults;
    let horizon = invocations(5, 60).last().map_or(0, |i| i.time);
    let injected = stack().inject(NODES, horizon);
    let windows = (injected.partitions.into_iter())
        .map(|window| FaultEvent::Partition { window })
        .chain((injected.crashes.into_iter()).map(|window| FaultEvent::Crash { window }));
    assert_eq!(recorded[..3], windows.collect::<Vec<_>>()[..]);
    let stats = FaultStats::of(&recorded);
    assert!(
        stats.dropped > 0 && stats.duplicated > 0 && stats.delayed > 0,
        "stack was inert: {stats:?}"
    );
    assert_eq!(stats.partitions_injected + stats.crashes_injected, 3);
    let replay = NemesisStack::new().with(Box::new(ScheduledNemesis::new(&recorded)));
    assert_eq!(run(5, Some(replay), None).faults, recorded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One observer: the tallies `shard_obs::summarize` makes from a
    /// run's `nemesis.*` lines are the counts of the same run's ledger
    /// whatever the stack did, and every extra copy it lists surfaces as
    /// exactly one `merge.duplicate` (one update per message here).
    #[test]
    fn trace_tallies_equal_the_ledger_counts(
        seed in 0u64..10_000,
        drop in 0u32..40,
        dup in 0u32..70,
        reorder in 0u32..70,
    ) {
        let p = |percent: u32| f64::from(percent) / 100.0;
        let stack = NemesisStack::new()
            .with(Box::new(MessageDropper::new(p(drop), seed ^ 1)))
            .with(Box::new(MessageDuplicator::new(p(dup), 3, 40, seed ^ 2)))
            .with(Box::new(MessageReorderer::new(p(reorder), 5, 90, seed ^ 3)));
        let sink = EventSink::in_memory();
        let faulted = run(seed, Some(stack), Some(sink.clone()));
        sink.flush();
        let summary = shard_obs::summarize(&sink.drain_to_string());
        let (tally, ledger) = (&summary.faults, FaultStats::of(&faulted.faults));
        prop_assert_eq!(
            (tally.dropped, tally.duplicated, tally.delayed),
            (ledger.dropped, ledger.duplicated, ledger.delayed)
        );
        let delays = faulted.faults.iter().filter_map(|e| match e {
            FaultEvent::Delay { by, .. } => Some(*by),
            _ => None,
        });
        prop_assert_eq!(tally.max_delay, delays.max().unwrap_or(0));
        let ignored = summary.event_counts.get("merge.duplicate").copied();
        prop_assert_eq!(ignored.unwrap_or(0), ledger.duplicated);
    }
}
