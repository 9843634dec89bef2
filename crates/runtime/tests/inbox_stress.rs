//! The node inboxes under churn: many short 3-node live runs, eager and
//! gossip at interval 0, with every submission due at once (nodes drain
//! full inboxes between bursts) or paced a few microseconds apart
//! (nodes park and are woken around every submission). A lost wake-up
//! leaves a node parked for good and its run never ends, so the runs go
//! on a worker thread and a watchdog fails the test after a fixed
//! deadline instead of letting it hang. Every run that ends must replay
//! to its own report.

use shard_apps::banking::{Bank, BankTxn};
use shard_runtime::{
    banking_submissions, replay, report_digest, run_live, Pacing, RuntimeConfig, Submission,
};
use shard_sim::{EagerBroadcast, Gossip, Propagation};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const NODES: u16 = 3;
const TXNS: usize = 300;
/// Far above what the whole sweep takes (well under ten seconds on two
/// cores), so only a hung run reaches it.
const DEADLINE: Duration = Duration::from_secs(120);

/// One live run of `strategy` that must end and replay to its report.
fn run_once<P: Propagation<Bank> + Clone + Send>(
    bank: &Bank,
    strategy: P,
    subs: Vec<Submission<BankTxn>>,
    seed: u64,
) {
    let cfg = RuntimeConfig {
        nodes: NODES,
        seed,
        ..Default::default()
    };
    let live = run_live(bank, &cfg, strategy.clone(), subs.clone());
    assert_eq!(live.report.transactions.len(), subs.len(), "every txn ran");
    let replayed = replay(bank, &cfg, strategy, &subs, &live.schedule);
    assert_eq!(
        report_digest(&live.report),
        report_digest(&replayed),
        "seed {seed}: the recorded schedule replays to the live report"
    );
}

/// Every pacing × strategy pair over a few seeds; returns the run count.
fn sweep() -> usize {
    let bank = Bank::new(16, 500);
    let mut runs = 0;
    for seed in 0..20u64 {
        for gap_us in [0, 2, 5] {
            let pacing = match gap_us {
                0 => Pacing::Closed,
                gap_us => Pacing::Open { gap_us },
            };
            let subs = banking_submissions(&bank, seed, TXNS, NODES, 1.1, pacing, None);
            run_once(&bank, EagerBroadcast::default(), subs.clone(), seed);
            run_once(&bank, Gossip::new(0, u16::MAX), subs, seed);
            runs += 2;
        }
    }
    runs
}

#[test]
fn short_runs_all_end_and_replay() {
    let (done_tx, done_rx) = mpsc::channel();
    // A panicking sweep drops `done_tx`, which ends the wait at once.
    let worker = thread::spawn(move || done_tx.send(sweep()).unwrap());
    match done_rx.recv_timeout(DEADLINE) {
        Ok(runs) => assert_eq!(runs, 120),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let why = worker.join().expect_err("the sweep ended without a count");
            std::panic::resume_unwind(why)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("a live run did not end within {DEADLINE:?}: a node missed its wake-up")
        }
    }
}
