//! A power cut between a burst's appends and its fsync loses only what
//! nobody saw.
//!
//! Node 0 is given every submission, all due at 0, so it works them in
//! bursts of the live loop's batch (64): two bursts are appended and
//! synced, and the node dies deciding the 31st transaction of the third
//! — after appending 30 own updates the barrier has not covered yet.
//! The cut keeps node 0's log up to its `synced_bytes()`, and the test
//! holds the outcome to the write-ahead rule:
//!
//! * every update lost is an own update that no peer was sent — by the
//!   strategy's record of its sends and by the peer's own log;
//! * none of them had its external actions released — a transaction's
//!   external actions are released with its sends, after the barrier;
//! * the restarted cluster never reuses a timestamp a peer holds.
//!
//! It reads the process-wide `store.wal_fsyncs` counter, so it has a
//! file of its own.

use shard_apps::banking::{Bank, BankTxn};
use shard_core::{Application, Cost, DecisionOutcome};
use shard_runtime::{banking_submissions, run_live_durable, Pacing, RuntimeConfig, Submission};
use shard_sim::events::SimTime;
use shard_sim::kernel::Node;
use shard_sim::{
    DurabilityConfig, DurableFleet, EagerBroadcast, NodeId, NodeMirror, Propagation, Timestamp,
    Transport,
};
use shard_store::{MemStore, Store};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The live loop's burst size (`EXEC_BATCH` in `live.rs`).
const BURST: usize = 64;
/// The decision node 0 dies in: the 31st of its third burst.
const CUT_AT: usize = 2 * BURST + 30;

/// Banking whose `cut_at`-th decision is a power cut, and which notes
/// which decisions produced external actions.
struct CutAt {
    bank: Bank,
    cut_at: usize,
    decided: AtomicUsize,
    with_actions: Mutex<Vec<bool>>,
}

impl Application for CutAt {
    type State = <Bank as Application>::State;
    type Update = <Bank as Application>::Update;
    type Decision = BankTxn;

    fn initial_state(&self) -> Self::State {
        self.bank.initial_state()
    }

    fn is_well_formed(&self, state: &Self::State) -> bool {
        self.bank.is_well_formed(state)
    }

    fn apply_in_place(&self, state: &mut Self::State, update: &Self::Update) {
        self.bank.apply_in_place(state, update);
    }

    fn decide(&self, decision: &BankTxn, observed: &Self::State) -> DecisionOutcome<Self::Update> {
        let k = self.decided.fetch_add(1, Ordering::SeqCst);
        assert!(k != self.cut_at, "power cut at decision {k}");
        let outcome = self.bank.decide(decision, observed);
        let mut noted = self.with_actions.lock().unwrap();
        noted.push(!outcome.external_actions.is_empty());
        outcome
    }

    fn constraint_count(&self) -> usize {
        self.bank.constraint_count()
    }

    fn constraint_name(&self, i: usize) -> &str {
        self.bank.constraint_name(i)
    }

    fn cost(&self, state: &Self::State, constraint: usize) -> Cost {
        self.bank.cost(state, constraint)
    }
}

/// Eager broadcast that records each release: the timestamp and the
/// fsyncs taken by then.
#[derive(Clone)]
struct Watch {
    eager: EagerBroadcast,
    released: Arc<Mutex<Vec<(Timestamp, u64)>>>,
}

impl Propagation<CutAt> for Watch {
    fn label(&self) -> &'static str {
        "cluster"
    }

    fn on_execute(
        &mut self,
        app: &CutAt,
        net: &mut dyn Transport<CutAt>,
        node: &Node<CutAt>,
        now: SimTime,
        ts: Timestamp,
        update: &Arc<<CutAt as Application>::Update>,
    ) {
        self.released.lock().unwrap().push((ts, fsyncs()));
        self.eager.on_execute(app, net, node, now, ts, update);
    }
}

fn fsyncs() -> u64 {
    shard_obs::Registry::global()
        .counter("store.wal_fsyncs")
        .get()
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("shard-runtime-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every `(timestamp, value)` in arrival order.
fn log_of(mirror: &mut NodeMirror<CutAt>) -> Vec<(Timestamp, Vec<u8>)> {
    let mut out = Vec::new();
    mirror
        .store_mut()
        .scan_arrival(&mut |k, v| {
            let ts = Timestamp {
                lamport: k.primary,
                node: NodeId(k.secondary),
            };
            out.push((ts, v.to_vec()));
        })
        .unwrap();
    out
}

fn node0_subs(bank: &Bank, n: usize, seed: u64) -> Vec<Submission<BankTxn>> {
    let mut subs = banking_submissions(bank, seed, n, 2, 1.1, Pacing::Open { gap_us: 0 }, None);
    for s in &mut subs {
        s.at_us = 0;
        s.node = NodeId(0);
    }
    subs
}

#[test]
fn a_cut_before_the_burst_barrier_loses_only_what_no_peer_saw() {
    let dir = tmp("group-commit-kill");
    let bank = Bank::new(16, 200);
    let app = CutAt {
        bank: bank.clone(),
        cut_at: CUT_AT,
        decided: AtomicUsize::new(0),
        with_actions: Mutex::new(Vec::new()),
    };
    let cfg = RuntimeConfig {
        nodes: 2,
        seed: 9,
        ..Default::default()
    };
    let watch = Watch {
        eager: EagerBroadcast::default(),
        released: Arc::new(Mutex::new(Vec::new())),
    };
    let fleet = DurableFleet::<CutAt>::new(2, &DurabilityConfig::disk(&dir, 0)).unwrap();
    let before = fsyncs();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_live_durable(
            &app,
            &cfg,
            watch.clone(),
            node0_subs(&bank, 4 * BURST, 21),
            fleet.into_mirrors(),
        )
    }));
    assert!(crashed.is_err(), "node 0 died mid-burst");
    assert_eq!(
        fsyncs() - before,
        2,
        "two bursts were synced, the third was not"
    );

    // The threads are gone; their logs hold every append (a store
    // writes its buffer out when it is dropped). Cut node 0's at the
    // two barriers: the byte end of its first two bursts.
    let (mut node0, appended) = NodeMirror::<CutAt>::disk(&dir.join("node-0")).unwrap();
    assert_eq!(
        appended, CUT_AT,
        "the third burst's appends reached the log"
    );
    let before_cut = log_of(&mut node0);
    let mut model = MemStore::new();
    for (ts, value) in &before_cut[..2 * BURST] {
        let key = shard_store::StoreKey::new(ts.lamport, ts.node.0);
        model.append(key, value).unwrap();
    }
    let cut = node0.crash_at(model.len_bytes());
    assert_eq!((cut.kept_entries, cut.torn), (2 * BURST, false));
    let lost: Vec<Timestamp> = before_cut[2 * BURST..].iter().map(|(ts, _)| *ts).collect();
    assert_eq!(lost.len(), 30);

    // Lost updates are node 0's own, and no peer was sent one: not by
    // the strategy's record, and not in node 1's log.
    let released = watch.released.lock().unwrap().clone();
    let sent: BTreeSet<Timestamp> = released.iter().map(|(ts, _)| *ts).collect();
    let (mut node1, _) = NodeMirror::<CutAt>::disk(&dir.join("node-1")).unwrap();
    let held: BTreeSet<Timestamp> = log_of(&mut node1).iter().map(|(ts, _)| *ts).collect();
    assert_eq!(held, sent, "node 1 holds exactly what was sent to it");
    for ts in &lost {
        assert_eq!(ts.node, NodeId(0), "{ts:?} is an own update");
        assert!(
            !sent.contains(ts),
            "{ts:?} was lost after a peer was sent it"
        );
    }
    // Each release came after the barrier covering its burst.
    for (i, (ts, synced)) in released.iter().enumerate() {
        assert_eq!(*ts, before_cut[i].0, "released in execution order");
        assert!(
            *synced > (i / BURST) as u64,
            "{ts:?} (burst {}) released after only {synced} fsyncs",
            i / BURST
        );
    }

    // External actions are released with the sends: none of a lost
    // update's was — and some lost updates had some to release.
    let with_actions = app.with_actions.lock().unwrap().clone();
    assert_eq!(with_actions.len(), CUT_AT);
    assert!(
        with_actions[2 * BURST..].iter().any(|&a| a),
        "the cut burst decided external actions"
    );
    assert_eq!(
        released.len(),
        2 * BURST,
        "nothing of the cut burst was released"
    );
    drop((node0, node1));

    // Restart from the cut logs: node 0 recovers its synced prefix, and
    // its new timestamps are above every one a peer holds.
    let fleet = DurableFleet::<CutAt>::new(2, &DurabilityConfig::disk(&dir, 1)).unwrap();
    let restart = CutAt {
        cut_at: usize::MAX,
        ..app
    };
    let watch = Watch {
        eager: EagerBroadcast::default(),
        released: Arc::new(Mutex::new(Vec::new())),
    };
    let again = run_live_durable(
        &restart,
        &cfg,
        watch,
        node0_subs(&bank, 40, 22),
        fleet.into_mirrors(),
    );
    assert!(
        again.report.mutually_consistent(),
        "the restarted cluster converged"
    );
    let top = held.iter().filter(|ts| ts.node == NodeId(0)).max().copied();
    for t in &again.report.transactions {
        assert!(!held.contains(&t.ts), "{:?} reused", t.ts);
        assert!(Some(t.ts) > top, "{:?} is not above {top:?}", t.ts);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
