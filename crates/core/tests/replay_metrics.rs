//! The global `replay.*` metrics must agree with what the replay cache
//! actually did — which is dictated by [`Checkpoints`] floor/record
//! semantics. This lives in its own integration-test binary (own
//! process) so the global registry sees only this file's activity; the
//! single `#[test]` keeps the deltas race-free.

use shard_core::replay::{Checkpoints, Replayer};
use shard_core::{Application, DecisionOutcome};
use shard_obs::Registry;

struct Trace;

#[derive(Clone, Debug, PartialEq)]
struct Tag(u64);

impl Application for Trace {
    type State = Vec<u64>;
    type Update = Tag;
    type Decision = Tag;
    fn initial_state(&self) -> Vec<u64> {
        Vec::new()
    }
    fn is_well_formed(&self, _: &Vec<u64>) -> bool {
        true
    }
    fn apply_in_place(&self, s: &mut Vec<u64>, u: &Tag) {
        s.push(u.0);
    }
    fn decide(&self, d: &Tag, _: &Vec<u64>) -> DecisionOutcome<Tag> {
        DecisionOutcome::update_only(d.clone())
    }
    fn constraint_count(&self) -> usize {
        0
    }
    fn constraint_name(&self, _: usize) -> &str {
        unreachable!()
    }
    fn cost(&self, _: &Vec<u64>, _: usize) -> u64 {
        0
    }
}

fn deltas(name: &str, before: &shard_obs::Snapshot) -> u64 {
    Registry::global().snapshot().counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

#[test]
fn global_counters_match_checkpoint_behavior() {
    shard_obs::set_enabled(true);
    const EVERY: usize = 4;
    let app = Trace;
    let updates: Vec<Tag> = (0..20).map(Tag).collect();
    let mut r = Replayer::from_updates_with_interval(&app, &updates, EVERY);

    // An oracle Checkpoints sequence recorded exactly as the cache
    // records along its path: one record() per applied update.
    let mut oracle: Checkpoints<usize> = Checkpoints::new(EVERY);

    let before = Registry::global().snapshot();

    // Query 1: cold cache — must resume from the initial state (miss).
    let full: Vec<usize> = (0..20).collect();
    r.state_after_prefix(&full);
    for len in 1..=20usize {
        oracle.record(len, &len);
    }
    assert_eq!(
        deltas("replay.ckpt_misses", &before),
        1,
        "cold start misses"
    );
    assert_eq!(deltas("replay.applied", &before), 20);

    // Query 2: identical prefix — the cached tip covers it (hit), and
    // nothing is applied.
    r.state_after_prefix(&full);
    assert_eq!(deltas("replay.ckpt_hits", &before), 1, "tip reuse is a hit");
    assert_eq!(deltas("replay.applied", &before), 20, "no new applications");

    // Query 3: drop index 17 → shared prefix has length 17. The oracle
    // has a checkpoint at floor(17) = 16, so the cache must resume from
    // it: a hit, applying only the suffix past depth 16.
    assert_eq!(oracle.floor(17).map(|(l, _)| l), Some(16), "oracle floor");
    let drop_late: Vec<usize> = (0..20).filter(|&j| j != 17).collect();
    r.state_after_prefix(&drop_late);
    assert_eq!(
        deltas("replay.ckpt_hits", &before),
        2,
        "checkpoint resume is a hit"
    );
    assert_eq!(
        deltas("replay.applied", &before),
        20 + (19 - 16),
        "only the suffix past the depth-16 checkpoint is replayed"
    );

    // Query 4: drop index 1 → the path is now `drop_late`, and the
    // shared prefix with it is just [0], length 1. Undoing past depth 16
    // invalidated nothing at or below 1 either way: the oracle says no
    // checkpoint exists at or below depth 1 (first one is at EVERY = 4),
    // so the cache must restart from the initial state — a miss.
    oracle.truncate(16);
    assert_eq!(oracle.floor(1), None, "oracle: no checkpoint at depth <= 1");
    let drop_early: Vec<usize> = (0..20).filter(|&j| j != 1).collect();
    r.state_after_prefix(&drop_early);
    assert_eq!(
        deltas("replay.ckpt_misses", &before),
        2,
        "below first checkpoint"
    );
    assert_eq!(deltas("replay.applied", &before), 20 + 3 + 19);
    assert_eq!(deltas("replay.queries", &before), 4);

    // The global counters mirror the per-replayer stats exactly (this
    // process ran no other replays).
    let stats = r.stats();
    assert_eq!(deltas("replay.applied", &before), stats.applied);
    assert_eq!(deltas("replay.reused", &before), stats.reused);
    assert_eq!(deltas("replay.queries", &before), stats.queries);

    // The LCP histogram saw one sample per prefix query with the
    // lengths computed above: 0 (cold), 20 (identical), 17 (drop late),
    // 1 (drop early) → sum 38.
    let snap = Registry::global().snapshot();
    let lcp = snap.histogram("replay.lcp").expect("lcp histogram exists");
    assert_eq!(lcp.count, 4);
    assert_eq!(lcp.sum, 38);
    assert_eq!(lcp.max, 20);

    // A sweep of the shapes checkers ask — sliding gaps, a scattered
    // subsequence, a disjoint one — against the shared head counted
    // member by member over the lists: the histogram must take exactly
    // those samples, whatever the cache stores its path as.
    let mut expect = lcp.clone();
    let mut path = drop_early;
    let sweep = (0..20usize)
        .map(|i| (0..i).filter(|j| !(j + 4 > i && j % 2 == 0)).collect())
        .chain([vec![5, 7, 11], (0..20).step_by(3).collect(), full]);
    for query in sweep {
        let query: Vec<usize> = query;
        let shared = query.iter().zip(&path).take_while(|(a, b)| a == b).count();
        expect.record(shared as u64);
        r.state_after_prefix(&query);
        path = query;
    }
    let snap = Registry::global().snapshot();
    assert_eq!(snap.histogram("replay.lcp"), Some(&expect));
}
