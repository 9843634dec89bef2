//! Crash-recovery properties of the durable mirror layer
//! ([`shard_sim::durable`]): a kill at an arbitrary WAL offset followed
//! by recovery yields a **prefix** of the pre-crash arrival order (and
//! hence a prefix subsequence of the serial order, §3/Cor 8), the
//! recovered state equals replaying exactly that prefix, and whole
//! kernel runs under [`CrashInjector`] still satisfy the §3
//! checkers and converge to the canonical serial replay.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_apps::airline::{AirlineTxn, AirlineUpdate, FlyByNight};
use shard_apps::banking::{AccountId, Bank, BankTxn, BankUpdate};
use shard_apps::dictionary::{DictTxn, DictUpdate, Dictionary};
use shard_apps::inventory::{InvUpdate, ItemId, Order, OrderId, Warehouse};
use shard_apps::nameserver::{GroupId, Name, NameServer, NsUpdate};
use shard_apps::Person;
use shard_core::stream::par_check;
use shard_core::Application;
use shard_obs::EventSink;
use shard_pool::PoolConfig;
use shard_sim::{
    ClusterConfig, CrashInjector, CrashSchedule, CrashWindow, DelayModel, DurabilityConfig,
    DurableFleet, EagerBroadcast, FaultStats, Gossip, Invocation, LamportClock, MergeLog, NodeId,
    NodeMirror, PartitionSchedule, PartitionWindow, Propagation, RunReport, Runner, Timestamp,
};
use shard_store::{Codec, StoreKey};
use std::sync::Arc;

/// Drives one durable node (id 0) through a mixed own/foreign workload,
/// kills its store at a fleet-chosen WAL offset, recovers, and checks
/// the §3-shaped invariants that make recovery sound:
///
/// 1. the recovered arrival order is a *prefix* of the pre-crash one;
/// 2. the recovered state equals replaying exactly that prefix;
/// 3. every own update survived (they were fsynced before propagation),
///    so the recovered clock dominates every timestamp the node issued.
fn kill_recover_prefix<A: Application>(
    app: &A,
    mut gen_update: impl FnMut(&mut StdRng) -> A::Update,
    workload_seed: u64,
    kill_seed: u64,
    n: usize,
) where
    A::Update: Codec,
{
    let origin_count = 3u16;
    let me = NodeId(0);
    let mut rng = StdRng::seed_from_u64(workload_seed);
    let mut fleet: DurableFleet<A> =
        DurableFleet::new(origin_count, &DurabilityConfig::mem(kill_seed)).unwrap();
    let mut clocks: Vec<LamportClock> = (0..origin_count)
        .map(|i| LamportClock::new(NodeId(i)))
        .collect();
    let mut log: MergeLog<A> = MergeLog::new(app, 8);
    let mut in_flight: Vec<(Timestamp, A::Update)> = Vec::new();
    let mut own_max = 0u64;
    for _ in 0..n {
        let origin = rng.random_range(0..origin_count);
        let ts = clocks[origin as usize].tick();
        let update = gen_update(&mut rng);
        if origin == me.0 {
            // Own execution: merge, then append + fsync before any peer
            // could see it (the kernel's write-ahead discipline).
            own_max = own_max.max(ts.lamport);
            log.merge(app, ts, Arc::new(update));
            fleet.mirror_mut(me).persist(&log, true);
        } else {
            in_flight.push((ts, update));
        }
        // Sometimes a delivery burst arrives: shuffle the in-flight
        // foreign updates (out-of-order merges exercise undo/redo),
        // merge them, and mirror without a barrier.
        if !in_flight.is_empty() && rng.random_range(0u32..4) == 0 {
            for i in (1..in_flight.len()).rev() {
                in_flight.swap(i, rng.random_range(0..i + 1));
            }
            for (ts, update) in in_flight.drain(..) {
                clocks[me.0 as usize].observe(ts);
                log.merge(app, ts, Arc::new(update));
            }
            fleet.mirror_mut(me).persist(&log, false);
        }
    }
    for (ts, update) in in_flight.drain(..) {
        log.merge(app, ts, Arc::new(update));
    }
    fleet.mirror_mut(me).persist(&log, false);

    // What the mirror wrote, record by record: the store scanned in
    // arrival order is `(ts, encode(update))` of the arrival log.
    let mut stored = Vec::new();
    let store = fleet.mirror_mut(me).store_mut();
    let mut push = |k: StoreKey, v: &[u8]| stored.push((k.primary, k.secondary, v.to_vec()));
    store.scan_arrival(&mut push).unwrap();
    let written = log.arrivals().iter().map(|(ts, u)| {
        let mut bytes = Vec::new();
        u.encode(&mut bytes);
        (ts.lamport, ts.node.0, bytes)
    });
    assert_eq!(stored, written.collect::<Vec<_>>(), "WAL = arrival log");

    let pre_crash = log.arrivals().to_vec();
    let report = fleet.kill(me);
    let (recovered, entries) = fleet.mirror_mut(me).recover(app, me, 8);

    // (1) Prefix of the arrival order.
    assert_eq!(entries, report.kept_entries, "recovery reads what survived");
    assert!(entries <= pre_crash.len(), "nothing invented");
    assert_eq!(
        recovered.log.arrivals(),
        &pre_crash[..entries],
        "recovered log is a prefix of the pre-crash arrival order"
    );

    // (2) State equals replaying exactly that prefix.
    let mut reference: MergeLog<A> = MergeLog::new(app, 8);
    for (ts, update) in &pre_crash[..entries] {
        reference.merge(app, *ts, Arc::clone(update));
    }
    assert_eq!(
        recovered.log.state(),
        reference.state(),
        "recovered state is the prefix replay"
    );

    // (3) Own updates all survived; the clock never reuses a timestamp.
    let own_recovered = recovered
        .log
        .entries()
        .iter()
        .filter(|(ts, _)| ts.node == me)
        .count() as u64;
    let own_pre = pre_crash.iter().filter(|(ts, _)| ts.node == me).count() as u64;
    assert_eq!(own_recovered, own_pre, "fsynced own updates survive kills");
    assert_eq!(recovered.own_sent, own_pre, "§3.3 promise count recovered");
    let mut clock = recovered.clock;
    assert!(
        clock.tick().lamport > own_max,
        "recovered clock dominates every own-issued timestamp"
    );
}

fn airline_update(rng: &mut StdRng) -> AirlineUpdate {
    match rng.random_range(0u32..4) {
        0 => AirlineUpdate::Request(Person(rng.random_range(1u32..10))),
        1 => AirlineUpdate::Cancel(Person(rng.random_range(1u32..10))),
        2 => AirlineUpdate::MoveUp(Person(rng.random_range(1u32..10))),
        _ => AirlineUpdate::MoveDown(Person(rng.random_range(1u32..10))),
    }
}

fn bank_update(rng: &mut StdRng) -> BankUpdate {
    match rng.random_range(0u32..3) {
        0 => BankUpdate::Credit(
            AccountId(rng.random_range(0u32..4)),
            rng.random_range(1u32..100),
        ),
        1 => BankUpdate::Debit(
            AccountId(rng.random_range(0u32..4)),
            rng.random_range(1u32..100),
        ),
        _ => BankUpdate::Move(
            AccountId(rng.random_range(0u32..4)),
            AccountId(rng.random_range(0u32..4)),
            rng.random_range(1u32..50),
        ),
    }
}

fn dict_update(rng: &mut StdRng) -> DictUpdate {
    match rng.random_range(0u32..2) {
        0 => DictUpdate::Insert(rng.random_range(0u32..8), rng.random_range(0u64..1000)),
        _ => DictUpdate::Delete(rng.random_range(0u32..8)),
    }
}

fn inv_update(rng: &mut StdRng) -> InvUpdate {
    let item = ItemId(rng.random_range(0u32..3));
    match rng.random_range(0u32..4) {
        0 => InvUpdate::Commit(
            item,
            Order {
                id: OrderId(rng.random_range(0u32..50)),
                qty: rng.random_range(1u64..5),
            },
        ),
        1 => InvUpdate::Backlog(
            item,
            Order {
                id: OrderId(rng.random_range(0u32..50)),
                qty: rng.random_range(1u64..5),
            },
        ),
        2 => InvUpdate::AddStock(item, rng.random_range(1u64..10)),
        _ => InvUpdate::SubStock(item, rng.random_range(1u64..10)),
    }
}

fn ns_update(rng: &mut StdRng) -> NsUpdate {
    match rng.random_range(0u32..4) {
        0 => NsUpdate::SetAddress(Name(rng.random_range(0u32..6)), rng.random_range(0u64..100)),
        1 => NsUpdate::RemoveName(Name(rng.random_range(0u32..6))),
        2 => NsUpdate::AddMember(
            GroupId(rng.random_range(0u32..3)),
            Name(rng.random_range(0u32..6)),
        ),
        _ => NsUpdate::RemoveMember(
            GroupId(rng.random_range(0u32..3)),
            Name(rng.random_range(0u32..6)),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill at an arbitrary WAL offset + reopen yields a log that is a
    /// prefix (subsequence) of the uncrashed run — for all five apps.
    #[test]
    fn kill_at_arbitrary_offset_recovers_a_prefix(
        workload_seed in 0u64..10_000,
        kill_seed in 0u64..10_000,
        n in 10usize..120,
    ) {
        kill_recover_prefix(&FlyByNight::new(3), airline_update, workload_seed, kill_seed, n);
        kill_recover_prefix(&Bank::new(4, 100), bank_update, workload_seed, kill_seed, n);
        kill_recover_prefix(&Dictionary, dict_update, workload_seed, kill_seed, n);
        kill_recover_prefix(
            &Warehouse::new(3, 20, 1, 1),
            inv_update,
            workload_seed,
            kill_seed,
            n,
        );
        kill_recover_prefix(&NameServer::new(3, 1), ns_update, workload_seed, kill_seed, n);
    }
}

fn airline_invocations(n: u32, nodes: u16) -> Vec<Invocation<AirlineTxn>> {
    (0..n)
        .map(|i| {
            let txn = match i % 4 {
                0 => AirlineTxn::Request(Person(i % 7 + 1)),
                1 => AirlineTxn::Cancel(Person(i % 5 + 1)),
                2 => AirlineTxn::Request(Person(i % 11 + 1)),
                _ => AirlineTxn::Request(Person(i % 3 + 1)),
            };
            Invocation::new(
                u64::from(i) * 17 + 3,
                NodeId((i % u32::from(nodes)) as u16),
                txn,
            )
        })
        .collect()
}

/// Without crash windows the durable mirror is a pure observer: the
/// run's transactions and final states are identical with and without
/// it attached.
#[test]
fn durability_never_perturbs_fault_free_runs() {
    let app = FlyByNight::new(4);
    let cfg = ClusterConfig {
        nodes: 4,
        seed: 9,
        delay: DelayModel::Exponential { mean: 15 },
        ..Default::default()
    };
    let invs = airline_invocations(24, 4);
    let plain = Runner::new(&app, cfg.clone(), Gossip::new(25, 1)).run(invs.clone());
    let fleet = DurableFleet::new(4, &DurabilityConfig::mem(1)).unwrap();
    let durable = Runner::new(&app, cfg, Gossip::new(25, 1))
        .with_durability(fleet)
        .run(invs);
    let ts = |r: &shard_sim::RunReport<FlyByNight>| {
        r.transactions.iter().map(|t| t.ts).collect::<Vec<_>>()
    };
    assert_eq!(ts(&plain), ts(&durable), "same serial order");
    assert_eq!(plain.final_states, durable.final_states, "same states");
}

/// A full kernel run under [`CrashInjector`]: nodes lose their
/// unsynced tails mid-run and are rebuilt from their WALs, yet the §3
/// oracles hold — the execution verifies, gossip re-converges every
/// replica, and the final state equals the canonical serial replay of
/// the executed updates.
#[test]
fn gossip_crash_recovery_holds_section3_oracles() {
    let app = FlyByNight::new(4);
    for seed in [3u64, 5, 17, 88] {
        let cfg = ClusterConfig {
            nodes: 4,
            seed,
            delay: DelayModel::Exponential { mean: 12 },
            monitor: Some(shard_sim::MonitorConfig::default()),
            ..Default::default()
        };
        let fleet = DurableFleet::new(4, &DurabilityConfig::mem(seed + 1)).unwrap();
        let report = Runner::new(&app, cfg, Gossip::new(20, 1))
            .with_durability(fleet)
            .with_nemesis(Box::new(CrashInjector::new(2, 40, 160, seed)))
            .run(airline_invocations(30, 4));
        assert_eq!(report.faults.len(), 2, "the ledger is the two windows");
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
        assert!(
            shard_core::conditions::is_transitive(&te.execution),
            "gossip rounds travel ordered links: prefixes stay transitively \
             closed across kill/recover (seed {seed})"
        );
        // The judge reads the finished serial order, restarts and all: a
        // node that comes back with an older clock may execute below
        // timestamps already executed elsewhere, and the verdicts are
        // still the offline fold's.
        let online = report.monitor.as_ref().expect("monitored");
        assert_eq!(online.rows, report.transactions.len());
        assert!(online.transitive, "seed {seed}");
        let window = shard_sim::MonitorConfig::default().window;
        let offline = par_check(&PoolConfig::sequential(), &te, window);
        assert_eq!(online, &offline, "seed {seed}");
        assert_eq!(
            report.missing(),
            &[],
            "every lost tail re-offered (seed {seed})"
        );
        assert!(report.mutually_consistent(), "re-converged (seed {seed})");
        // Canonical serial replay of exactly the executed updates.
        let mut state = app.initial_state();
        for t in &report.transactions {
            state = app.apply(&state, &t.update);
        }
        assert_eq!(
            report.final_states[0], state,
            "states are the serial replay"
        );
    }
}

/// Gossip at each execution under kill/recover: ordered links keep
/// recovered prefixes transitively closed, so the §3 transitivity
/// checker must still pass.
#[test]
fn per_execution_gossip_crash_recovery_stays_transitive() {
    let app = FlyByNight::new(4);
    for seed in [5u64, 23] {
        let cfg = ClusterConfig {
            nodes: 3,
            seed,
            delay: DelayModel::Fixed(8),
            ..Default::default()
        };
        let fleet = DurableFleet::new(3, &DurabilityConfig::mem(seed)).unwrap();
        let report = Runner::new(&app, cfg, Gossip::new(0, 2))
            .with_durability(fleet)
            .with_nemesis(Box::new(CrashInjector::new(2, 30, 120, seed)))
            .run(airline_invocations(24, 3));
        let te = report.timed_execution();
        te.execution.verify(&app).unwrap();
        assert!(
            shard_core::conditions::is_transitive(&te.execution),
            "ordered links keep recovered prefixes transitive (seed {seed})"
        );
    }
}

/// Disk-backed restart: a cluster runs, the process "exits" (fleet
/// dropped), a fresh fleet reopens the same directories, and the
/// restarted run begins from the recovered logs — state persists across
/// real process boundaries.
#[test]
fn disk_backed_cluster_survives_a_restart() {
    let (first, second) = run_then_restart("restart", None);
    assert!(first.mutually_consistent());
    let want = first.final_states[0].clone();
    assert_eq!(
        second.final_states,
        vec![want.clone(), want.clone(), want],
        "all replicas recovered their pre-restart state from disk"
    );
}

/// Nine inserts on a fresh three-node disk fleet, then a "restart":
/// the same directories reopened in a new fleet. Every mirror holds
/// entries, so the runner rebuilds all three nodes at run start; an
/// empty schedule then just reports their states.
fn run_then_restart(
    name: &str,
    restart_monitor: Option<shard_sim::MonitorConfig>,
) -> (
    shard_sim::RunReport<Dictionary>,
    shard_sim::RunReport<Dictionary>,
) {
    let dir = std::env::temp_dir().join(format!("shard-sim-durable-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Dictionary;
    let cfg = ClusterConfig {
        nodes: 3,
        seed: 4,
        delay: DelayModel::Fixed(5),
        ..Default::default()
    };
    let phase1: Vec<Invocation<DictTxn>> = (0..9u32)
        .map(|i| {
            Invocation::new(
                u64::from(i) * 10,
                NodeId((i % 3) as u16),
                DictTxn::Insert(i, u64::from(i) * 100),
            )
        })
        .collect();
    let fleet = |kill_seed| DurableFleet::new(3, &DurabilityConfig::disk(&dir, kill_seed)).unwrap();
    let first = Runner::new(&app, cfg.clone(), Gossip::new(10, 1))
        .with_durability(fleet(0))
        .run(phase1);
    let restart_cfg = ClusterConfig {
        monitor: restart_monitor,
        ..cfg
    };
    let second = Runner::new(&app, restart_cfg, Gossip::new(10, 1))
        .with_durability(fleet(1))
        .run(Vec::new());
    let _ = std::fs::remove_dir_all(&dir);
    (first, second)
}

/// The kernel refuses a monitored restart exactly as the live runtime
/// does (it is the same start-of-run recovery): the §3 monitor never
/// saw the recovered transactions execute.
#[test]
#[should_panic(expected = "cannot start from recovered mirrors: 9 recovered entries")]
fn monitored_restart_is_refused() {
    run_then_restart(
        "monitored-restart",
        Some(shard_sim::MonitorConfig::default()),
    );
}

/// Three durable nodes, 3-tick links, a deposit every five ticks while
/// `i < 39` — the last, at 190 on node 2, reaches node 1 at 193 — and
/// `late` more after a 300-tick pause (under gossip, pending invocations
/// keep the rounds ticking). Node 1 is down from `crash_at` to 290; a
/// deposit due there meanwhile is rejected.
fn deposits_over_a_crash<P: Propagation<Bank>>(
    crash_at: u64,
    late: u32,
    strategy: P,
    sink: Option<Arc<EventSink>>,
) -> RunReport<Bank> {
    let cfg = ClusterConfig {
        nodes: 3,
        delay: DelayModel::Fixed(3),
        crashes: CrashSchedule::new(vec![CrashWindow::new(NodeId(1), crash_at, 290)]),
        sink,
        ..Default::default()
    };
    let deposit = |i: u32| {
        let at = u64::from(if i < 39 { 5 * i } else { 5 * i + 300 });
        let txn = BankTxn::Deposit(AccountId(i % 4), 1 + i);
        Invocation::new(at, NodeId((i % 3) as u16), txn)
    };
    let app = Bank::new(4, 100);
    Runner::new(&app, cfg, strategy)
        .with_durability(DurableFleet::new(3, &DurabilityConfig::mem(0)).unwrap())
        .run((0..39 + late).map(deposit).collect())
}

/// [`deposits_over_a_crash`] under full-fanout gossip, rounds every 10
/// ticks: node 1 offers its arrival of 193 on at 200, so by either
/// crash time below the lost entry sits below every cursor node 1 held.
/// It recovers 38 entries: that last arrival sat in its WAL unsynced.
fn delta_gossip_over_a_crash(crash_at: u64, sink: Option<Arc<EventSink>>) {
    let report = deposits_over_a_crash(crash_at, 6, Gossip::new(10, 2), sink);
    assert_eq!(report.transactions.len(), 45, "nothing rejected");
    assert_eq!(report.missing(), &[], "nothing lost for good");
    assert!(report.mutually_consistent());
}

/// The schedule that made the parent's delta gossip tick forever (its
/// test carried a hand-made late duplicate to dodge that): node 1
/// crashes at 230 holding 39 arrivals, all offered on, and recovers 38;
/// nothing is in flight. Its own cursors are pulled back to 38, and its
/// peers' cursors *for* it start over — they re-offer their logs, the
/// lost update among them — so the run converges, and ends.
#[test]
fn delta_gossip_cursor_survives_a_shorter_recovered_log() {
    delta_gossip_over_a_crash(230, None);
}

/// Both halves of the per-peer rule in one trace: node 1 crashes at
/// 202, right after offering the update it is about to lose, while node
/// 0's own offer of it is in flight — to a peer that restarts before it
/// can land, so the link never delivers it (the old epoch's batch).
/// Nodes 0 and 2 then re-offer node 1 their whole logs (a new link
/// epoch), and node 1 offers on what it has re-learned (position 38 of
/// its arrival order again, above its clamped cursors).
#[test]
fn delta_gossip_reships_what_it_relearns_after_recovery() {
    let sink = EventSink::in_memory();
    delta_gossip_over_a_crash(202, Some(sink.clone()));
    sink.flush();
    let trace = sink.drain_to_string();
    let recovery = r#""event":"store.recover","t":290,"node":1,"entries":38"#;
    assert!(trace.contains(recovery), "one entry short");
    assert!(
        !trace.contains(r#""event":"deliver","t":290,"node":1"#),
        "a batch of the epoch before the restart was delivered"
    );
    // The first round after recovery is at 290 and lands at 293; node 1
    // offers what it brought on in its next, at 300.
    for peer in [0, 2] {
        let again = format!(r#""event":"deliver","t":293,"node":1,"from":{peer},"entries":39"#);
        assert!(trace.contains(&again), "node {peer} did not start over");
        let on = format!(r#""event":"deliver","t":303,"node":{peer},"from":1,"entries":1"#);
        assert!(trace.contains(&on), "not offered on to node {peer}");
    }
}

/// The same crash under eager broadcast, which sends each update once
/// and repairs nothing: node 1 never hears of the lost deposit again.
/// The run used to end silently divergent; the report now names the
/// node and the timestamp.
#[test]
fn eager_broadcast_reports_the_tail_it_cannot_repair() {
    let report = deposits_over_a_crash(230, 6, EagerBroadcast::default(), None);
    assert_eq!(report.transactions.len(), 45, "nothing rejected");
    let lost = report.transactions.iter().find(|t| t.time == 190).unwrap();
    assert_eq!(report.missing(), &[(NodeId(1), lost.ts)]);
    assert!(!report.mutually_consistent());
}

/// The restart contract of gossip at each execution: node 1 goes down
/// at 180 (its deposit due at 185 is rejected) and restarts at 290.
/// What it lacks then — the arrival of 175, which its WAL lost, and the
/// deposits of 180 and 190, whose batches were handed to its links in
/// the epoch before the restart and so are never delivered — comes back
/// only with a later execution elsewhere, whose round re-offers the log
/// from a cursor started over. With no such execution the run ends
/// short, and `missing()` names every entry. (Whole-log datagrams, held
/// through the outage and released at the restart, used to repair it
/// with no later execution.)
#[test]
fn per_execution_gossip_repairs_a_restart_at_the_next_execution() {
    let short = deposits_over_a_crash(180, 0, Gossip::new(0, 2), None);
    assert_eq!(short.rejected, vec![(185, NodeId(1))]);
    let at = |time| {
        short
            .transactions
            .iter()
            .find(|t| t.time == time)
            .unwrap()
            .ts
    };
    let lacks = [175, 180, 190].map(|time| (NodeId(1), at(time)));
    assert_eq!(short.missing(), &lacks);
    // One deposit at node 0 after the restart repairs all three.
    let repaired = deposits_over_a_crash(180, 1, Gossip::new(0, 2), None);
    assert_eq!(repaired.transactions.last().unwrap().node, NodeId(0));
    assert_eq!(repaired.missing(), &[]);
    assert!(repaired.mutually_consistent());
}

/// 60 deposits, one every 7 ticks round-robin over 3 durable nodes
/// (cluster seed 11), gossiped every 15 ticks to one partner, under
/// `crashes`: the report and its trace.
fn traced_crash_run(
    durability: &DurabilityConfig,
    crashes: CrashInjector,
) -> (RunReport<Bank>, String) {
    let app = Bank::new(4, 100);
    let invs: Vec<Invocation<BankTxn>> = (0..60u32)
        .map(|i| {
            let txn = BankTxn::Deposit(AccountId(i % 4), 1 + i);
            Invocation::new(u64::from(i) * 7, NodeId((i % 3) as u16), txn)
        })
        .collect();
    let sink = EventSink::in_memory();
    let cfg = ClusterConfig {
        nodes: 3,
        seed: 11,
        delay: DelayModel::Exponential { mean: 10 },
        sink: Some(sink.clone()),
        ..Default::default()
    };
    let report = Runner::new(&app, cfg, Gossip::new(15, 1))
        .with_durability(DurableFleet::new(3, durability).unwrap())
        .with_nemesis(Box::new(crashes))
        .run(invs);
    sink.flush();
    (report, sink.drain_to_string())
}

/// Each node's `store.kill` / `store.recover` lines in trace order, as
/// `(kill?, t)`.
fn store_cycles(trace: &str, nodes: usize) -> Vec<Vec<(bool, u64)>> {
    let mut cycles = vec![Vec::new(); nodes];
    for line in trace.lines() {
        let event = shard_obs::json::parse(line).unwrap();
        let kill = match event.get("event").and_then(shard_obs::Json::as_str) {
            Some("store.kill") => true,
            Some("store.recover") => false,
            _ => continue,
        };
        let field = |name| event.get(name).and_then(shard_obs::Json::as_u64).unwrap();
        cycles[field("node") as usize].push((kill, field("t")));
    }
    cycles
}

/// Nested injected windows are one outage. At injector seed 5, node 0
/// draws `[218, 280)` and `[253, 278)`: its store is killed once, at
/// 218, and the node rebuilt once, at 280 — not killed again while down
/// and rebuilt at 278 inside the first window — and the ledger counts
/// three outages for the four windows drawn.
#[test]
fn nested_crash_windows_kill_and_recover_once() {
    let (report, trace) =
        traced_crash_run(&DurabilityConfig::mem(1), CrashInjector::new(4, 20, 80, 5));
    let cycles = store_cycles(&trace, 3);
    assert_eq!(cycles[0], [(true, 218), (false, 280)]);
    assert_eq!(FaultStats::of(&report.faults).crashes_injected, 3);
    assert_eq!(cycles.iter().flatten().filter(|(kill, _)| *kill).count(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// However the injector's windows fall — nested, overlapping,
    /// touching — every node's store lines alternate kill, recover, …,
    /// recover, and the ledger counts one outage per kill.
    #[test]
    fn store_kills_and_recoveries_alternate(
        count in 1u32..8,
        min_len in 1u64..40,
        extra in 0u64..120,
        seed in 0u64..1_000,
    ) {
        let crashes = CrashInjector::new(count, min_len, min_len + extra, seed);
        let (report, trace) = traced_crash_run(&DurabilityConfig::mem(seed), crashes);
        let mut kills = 0;
        for (node, cycle) in store_cycles(&trace, 3).iter().enumerate() {
            prop_assert_eq!(cycle.len() % 2, 0, "node {} ends up", node);
            for (i, &(kill, _)) in cycle.iter().enumerate() {
                prop_assert_eq!(kill, i % 2 == 0, "node {}: {:?}", node, cycle);
            }
            kills += cycle.len() / 2;
        }
        prop_assert_eq!(FaultStats::of(&report.faults).crashes_injected, kills as u64);
    }
}

/// The `store.kill` line is the one crash report, and it reads the same
/// off either backend: a traced gossip run under a [`CrashInjector`],
/// once on `MemStore` mirrors and once on `DiskStore` mirrors, cuts the
/// same bytes at every kill. And what a line calls lost is what the
/// store held before the cut less what it kept, as the trace itself
/// accounts for it: every deposit encodes to the same number of bytes,
/// a node's store gains one record per `execute` and per fresh merge at
/// it, and a restarted node holds what its `store.recover` line read.
#[test]
fn store_kill_lines_agree_across_backends_and_count_what_was_lost() {
    let dir = std::env::temp_dir().join(format!(
        "shard-sim-durable-kill-lines-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let traced = |durability| traced_crash_run(&durability, CrashInjector::new(4, 20, 80, 1)).1;
    let mem = traced(DurabilityConfig::mem(1));
    let disk = traced(DurabilityConfig::disk(&dir, 1));
    let _ = std::fs::remove_dir_all(&dir);
    let kill_lines = |trace: &str| -> Vec<String> {
        let kill = r#""event":"store.kill""#;
        trace
            .lines()
            .filter(|l| l.contains(kill))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        kill_lines(&mem),
        kill_lines(&disk),
        "the backends cut alike"
    );

    let mut credit = Vec::new();
    BankUpdate::Credit(AccountId(0), 1).encode(&mut credit);
    let record = 8 + 10 + credit.len() as u64;
    let mut held = [0u64; 3];
    let (mut kills, mut lost) = (0, 0);
    for line in mem.lines() {
        let event = shard_obs::json::parse(line).unwrap();
        let field = |name| event.get(name).and_then(shard_obs::Json::as_u64);
        let Some(node) = field("node") else { continue };
        let held = &mut held[node as usize];
        match event.get("event").and_then(shard_obs::Json::as_str) {
            Some("execute" | "merge.append" | "merge.out_of_order") => *held += 1,
            Some("store.recover") => *held = field("entries").unwrap(),
            Some("store.kill") => {
                let kept = field("kept_entries").unwrap();
                let kept_bytes = field("kept_bytes").unwrap();
                assert_eq!(kept_bytes, kept * record, "{line}");
                assert_eq!(
                    field("lost_bytes").unwrap(),
                    *held * record - kept_bytes,
                    "{line}"
                );
                kills += 1;
                lost += field("lost_bytes").unwrap();
                *held = kept;
            }
            _ => {}
        }
    }
    assert_eq!(kills, 4, "every injected window kills once");
    assert!(lost > 0, "some cut lost an unsynced tail");
    assert!(mem.contains(r#""torn":true"#), "and tore a record");
}

const FLEET: u16 = 4;

/// Deposits commute and are decided without reading the state, so two
/// runs of the same invocations end in the same states exactly when
/// both delivered everything everywhere (rejections depend on the crash
/// schedule alone). One closing deposit per node, after every window
/// has ended, gives gossip at each execution the later round its repair
/// of a restart rides on; gossip by the clock needs no such help.
fn deposit_run<P: Propagation<Bank>>(
    strategy: P,
    cfg: &ClusterConfig,
    deposits: &[(u64, u16, u32)],
) -> RunReport<Bank> {
    let app = Bank::new(4, 100);
    let closing = (0..FLEET).map(|n| (2_000 + u64::from(n), n, 1));
    let mut invs: Vec<Invocation<BankTxn>> = deposits
        .iter()
        .copied()
        .chain(closing)
        .map(|(at, node, amount)| {
            let txn = BankTxn::Deposit(AccountId(1 + u32::from(node)), amount);
            Invocation::new(at, NodeId(node), txn)
        })
        .collect();
    invs.sort_by_key(|i| i.time);
    Runner::new(&app, cfg.clone(), strategy)
        .with_durability(DurableFleet::new(FLEET, &DurabilityConfig::mem(cfg.seed)).unwrap())
        .run(invs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random partitions × random kill/recover windows, any number on
    /// one node, on a durable fleet: gossip by the clock — one random partner per round, or all
    /// of them — ends exactly where gossip at each execution ends, with
    /// nothing missing and prefixes transitively closed all the way.
    #[test]
    fn gossip_ends_where_per_execution_gossip_does(
        deposits in proptest::collection::vec((0u64..700, 0..FLEET, 1u32..50), 1..40),
        cuts in proptest::collection::vec((0u64..500, 1u64..250, 1u16..15), 0..3),
        kills in proptest::collection::vec((0..FLEET, 0u64..500, 1u64..250), 0..5),
        seed in 0u64..1_000,
    ) {
        let isolate = |&(start, len, mask): &(u64, u64, u16)| {
            let side = (0..FLEET).filter(|n| mask & (1 << n) != 0).map(NodeId).collect();
            PartitionWindow::isolate(start, start + len, side)
        };
        // Each window's node is drawn, so one node's windows may nest,
        // overlap or touch: the schedule merges them into one outage.
        let kill = |&(node, start, len): &(u16, u64, u64)| {
            CrashWindow::new(NodeId(node), start, start + len)
        };
        let cfg = ClusterConfig {
            nodes: FLEET,
            seed,
            delay: DelayModel::Exponential { mean: 10 },
            partitions: PartitionSchedule::new(cuts.iter().map(isolate).collect()),
            crashes: CrashSchedule::new(kills.iter().map(kill).collect()),
            ..Default::default()
        };
        let flood = deposit_run(Gossip::new(0, FLEET - 1), &cfg, &deposits);
        prop_assert_eq!(flood.missing(), &[]);
        let execution = flood.timed_execution().execution;
        prop_assert!(shard_core::conditions::is_transitive(&execution));
        for fanout in [1, FLEET - 1] {
            let gossip = deposit_run(Gossip::new(15, fanout), &cfg, &deposits);
            prop_assert_eq!(gossip.missing(), &[], "fanout {}", fanout);
            prop_assert_eq!(&gossip.rejected, &flood.rejected);
            prop_assert_eq!(&gossip.final_states, &flood.final_states, "fanout {}", fanout);
            let execution = gossip.timed_execution().execution;
            prop_assert!(shard_core::conditions::is_transitive(&execution), "fanout {}", fanout);
        }
    }
}

/// A WAL key is the one place bytes become a timestamp, and every
/// counter a key can hold recovers: a record whose counter is 2⁴⁸
/// merges like any other, the clock moves past it, and the recovered
/// node's next execution counts it among what it knew.
#[test]
fn recovery_takes_a_counter_at_two_to_the_48() {
    let app = Dictionary;
    let mut mirror: NodeMirror<Dictionary> = NodeMirror::mem();
    let mut bytes = Vec::new();
    DictUpdate::Insert(1, 2).encode(&mut bytes);
    let store = mirror.store_mut();
    for primary in [(1 << 48) - 1, 1 << 48] {
        let key = StoreKey {
            primary,
            secondary: 1,
        };
        store.append(key, &bytes).unwrap();
    }
    store.sync().unwrap();
    let (mut node, recovered) = mirror.recover(&app, NodeId(0), 8);
    assert_eq!(recovered, 2);
    let (txn, _) = node.execute_step(&app, DictTxn::Lookup(1), 0, None, None);
    assert_eq!(txn.known.len(), 2);
    assert_eq!(txn.ts.lamport, (1 << 48) + 1);
    let report = RunReport::collect(&app, &EagerBroadcast::default(), vec![node], vec![txn]);
    let top = Timestamp {
        lamport: 1 << 48,
        node: NodeId(1),
    };
    assert_eq!(report.known(&report.transactions[0]).last(), Some(&top));
}
