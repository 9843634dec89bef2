//! Record–replay fidelity as a property: a threaded live run and the
//! deterministic kernel replay of its recorded schedule must agree on
//! **everything observable** — every transaction's timestamp, wall
//! tick, origin, update, and full decision-time known set; every
//! node's final state; and the cross-field report digest. Exercised
//! over all five paper applications (airline, banking, warehouse
//! inventory, dictionary, name server) and all three propagation modes
//! (eager broadcast, delta gossip — by the clock and at each execution —
//! partial replication).
//!
//! Live runs are genuinely concurrent — OS threads, parking inboxes,
//! wall-clock pacing — so each case explores whatever interleaving the
//! scheduler happens to produce; the property is that the recorded
//! schedule pins that interleaving exactly.

use proptest::prelude::*;
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_apps::banking::{AccountId, Bank, BankTxn};
use shard_apps::dictionary::{DictTxn, Dictionary};
use shard_apps::inventory::{InvTxn, ItemId, Order, OrderId, Warehouse};
use shard_apps::nameserver::{GroupId, Name, NameServer, NsTxn};
use shard_apps::Person;
use shard_core::Application;
use shard_runtime::{replay, report_digest, run_live, LiveRun, RuntimeConfig, Submission};
use shard_sim::partial::Placement;
use shard_sim::{EagerBroadcast, Gossip, NodeId, Propagation, RunReport, Timestamp};

const NODES: u16 = 3;

/// Everything a transaction exposes: serial position, wall tick,
/// origin, chosen update, and the *full* known set (not a length or a
/// hash — the point of the property), materialised from the report's
/// arrival record and sorted: a live run and its replay may merge a
/// batch's entries in different orders.
type Fingerprint<A> = (
    Timestamp,
    u64,
    NodeId,
    <A as Application>::Update,
    Vec<Timestamp>,
);

fn fingerprints<A: Application>(report: &RunReport<A>) -> Vec<Fingerprint<A>> {
    report
        .transactions
        .iter()
        .map(|t| {
            let mut known = report.known(t).to_vec();
            known.sort_unstable();
            (t.ts, t.time, t.node, t.update.clone(), known)
        })
        .collect()
}

fn assert_replay_matches<A>(live: &LiveRun<A>, replayed: &RunReport<A>)
where
    A: Application,
    A::State: PartialEq + std::fmt::Debug,
{
    assert_eq!(
        fingerprints(&live.report),
        fingerprints(replayed),
        "per-transaction record–replay divergence"
    );
    assert_eq!(
        live.report.final_states, replayed.final_states,
        "final-state record–replay divergence"
    );
    assert_eq!(
        report_digest(&live.report),
        report_digest(replayed),
        "digest divergence despite field equality"
    );
    // The transaction record is the one account of what ran: the
    // report's external actions and the schedule's executions are its
    // transactions', in tick order.
    let mut by_tick: Vec<_> = live.report.transactions.iter().collect();
    by_tick.sort_unstable_by_key(|t| t.time);
    let actions: Vec<_> = by_tick
        .iter()
        .flat_map(|t| t.external_actions.iter().map(|a| (t.time, t.node, a)))
        .collect();
    assert_eq!(
        live.report.external_actions(),
        actions,
        "external actions differ from the transactions' own"
    );
    let execs: Vec<_> = by_tick.iter().map(|t| (t.time, t.node)).collect();
    assert_eq!(
        live.schedule.execs, execs,
        "recorded executions differ from the transactions'"
    );
}

fn config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        nodes: NODES,
        seed,
        checkpoint_every: 8,
        monitor: None,
        sink: None,
    }
}

/// Builds submissions from `(decision, gap_us, node)` triples: each
/// transaction is due `gap_us` after the previous one (gap 0 makes
/// bursts), at node `node % NODES`.
fn submissions<D>(raw: Vec<(D, u64, u16)>) -> Vec<Submission<D>> {
    let mut at = 0u64;
    raw.into_iter()
        .map(|(decision, gap, node)| {
            at += gap;
            Submission {
                at_us: at,
                node: NodeId(node % NODES),
                decision,
            }
        })
        .collect()
}

/// Runs `subs` live under `strategy`, replays the recording through
/// the kernel under a clone of the same value, and checks the replay
/// reproduces the recording exactly. Returns the live run.
fn roundtrip<A, P>(app: &A, seed: u64, strategy: P, subs: &[Submission<A::Decision>]) -> LiveRun<A>
where
    A: Application + Sync,
    A::State: Send + PartialEq + std::fmt::Debug,
    A::Update: Send + Sync,
    A::Decision: Send,
    P: Propagation<A> + Clone + Send,
{
    let cfg = config(seed);
    let live = run_live(app, &cfg, strategy.clone(), subs.to_vec());
    let replayed = replay(app, &cfg, strategy, subs, &live.schedule);
    assert_replay_matches(&live, &replayed);
    live
}

/// Routes each submission to a node that reads everything its decision
/// needs (the admission rule a `Placement` validates), dropping
/// the few (e.g. audits) no single node can admit.
fn route_to_holders(
    app: &Bank,
    placement: &Placement,
    subs: Vec<Submission<BankTxn>>,
) -> Vec<Submission<BankTxn>> {
    use shard_core::ObjectModel;
    subs.into_iter()
        .filter_map(|mut s| {
            s.node = placement.any_holder_of_all(&app.decision_objects(&s.decision))?;
            Some(s)
        })
        .collect()
}

/// Drains a traced, monitored run's sink: checks it holds exactly one
/// `monitor.final`, and returns the replica step's lines — `execute`,
/// `deliver`, `merge.*` — sorted (live node threads interleave their
/// writes to the sink), then the monitor's `txn` and `monitor.window`
/// lines, sorted too.
fn step_lines(cfg: &RuntimeConfig) -> (Vec<String>, Vec<String>) {
    let trace = cfg.sink.as_deref().expect("traced").drain_to_string();
    let is = |l: &str, event: &str| l.contains(&format!("\"event\":\"{event}"));
    assert_eq!(
        trace.lines().filter(|l| is(l, "monitor.final")).count(),
        1,
        "one monitor.final per monitored run"
    );
    let mut lines: Vec<String> = trace
        .lines()
        .filter(|l| ["execute", "deliver", "merge."].iter().any(|e| is(l, e)))
        .map(str::to_owned)
        .collect();
    lines.sort_unstable();
    let mut verdicts: Vec<String> = trace
        .lines()
        .filter(|l| is(l, "txn") || is(l, "monitor.window"))
        .map(str::to_owned)
        .collect();
    verdicts.sort_unstable();
    (lines, verdicts)
}

/// A live run and its replay go through one replica step, so tracing
/// both (into separate sinks) yields the same step lines: every
/// execution, delivery and merge outcome at the same tick on the same
/// node.
#[test]
fn live_and_replay_traces_agree_line_for_line() {
    fn check<P: Propagation<Bank> + Clone + Send>(strategy: P) {
        let app = Bank::new(3, 50);
        let subs: Vec<Submission<BankTxn>> = (0..60u32)
            .map(|i| Submission {
                at_us: u64::from(i / 4) * 150,
                node: NodeId((i % 3) as u16),
                decision: BankTxn::Deposit(AccountId(1 + i % 3), 1 + i),
            })
            .collect();
        let traced = || RuntimeConfig {
            monitor: Some(shard_sim::MonitorConfig::default()),
            sink: Some(shard_obs::EventSink::in_memory()),
            ..config(5)
        };
        let (live_cfg, replay_cfg) = (traced(), traced());
        let live = run_live(&app, &live_cfg, strategy.clone(), subs.clone());
        let replayed = replay(&app, &replay_cfg, strategy, &subs, &live.schedule);
        assert_replay_matches(&live, &replayed);
        let (live_lines, live_verdicts) = step_lines(&live_cfg);
        let (replay_lines, replay_verdicts) = step_lines(&replay_cfg);
        assert!(live_lines.len() > subs.len(), "deliveries traced too");
        assert_eq!(
            live_lines, replay_lines,
            "live and replayed step traces diverge"
        );
        let rows = live_verdicts
            .iter()
            .filter(|l| l.contains("\"event\":\"txn\""))
            .count();
        assert_eq!(rows, subs.len(), "one txn row per transaction");
        assert_eq!(
            live_verdicts, replay_verdicts,
            "live and replayed monitor lines diverge"
        );
    }
    check(EagerBroadcast::default());
    check(Gossip::new(300, u16::MAX));
    check(Gossip::new(0, u16::MAX));
}

/// Gossip over partial placement reaches the quiet point through an
/// *empty* round: a node's `has_unsent` mark outlives its last merge
/// until a round that sends nothing moves the cursor past entries its
/// peer does not hold. The run must still return, converged, and replay.
#[test]
fn gossip_over_placement_ends_through_an_empty_round() {
    use shard_core::ObjectModel;
    let app = Bank::new(3, 50);
    let placement = Placement::round_robin(NODES, &app.objects(), 2);
    // Account `a` is held by two of the three nodes; deposit at one.
    let subs: Vec<Submission<BankTxn>> = (0..45u32)
        .map(|i| {
            let decision = BankTxn::Deposit(AccountId(1 + i % 3), 1 + i);
            let holder = placement.any_holder_of_all(&app.decision_objects(&decision));
            Submission {
                at_us: u64::from(i / 3) * 100,
                node: holder.expect("every account has a holder"),
                decision,
            }
        })
        .collect();
    let live = roundtrip(&app, 11, Gossip::new(200, NODES).over(placement), &subs);
    assert_eq!(live.report.transactions.len(), subs.len());
    assert_eq!(live.report.missing(), vec![], "a holder lacks an entry");
}

/// A live run refuses a schedule its strategy refuses, before any node
/// executes on state it does not hold (whose replay would panic the
/// same way): account 1, the first object, is on nodes 0 and 1 only.
#[test]
#[should_panic(expected = "lacks objects")]
fn live_partial_run_refuses_a_misrouted_submission() {
    use shard_core::ObjectModel;
    let app = Bank::new(3, 50);
    let placement = Placement::round_robin(NODES, &app.objects(), 2);
    let subs = vec![Submission {
        at_us: 0,
        node: NodeId(2),
        decision: BankTxn::Deposit(AccountId(1), 5),
    }];
    run_live(&app, &config(1), placement, subs);
}

/// A placement must cover the cluster: a 3-node one on a 4-node live
/// run is refused on the calling thread before any node thread starts
/// (node 3 would otherwise index past it inside one).
#[test]
#[should_panic(expected = "a placement of 3 nodes on a cluster of 4")]
fn live_run_refuses_a_placement_smaller_than_the_cluster() {
    use shard_core::ObjectModel;
    let app = Bank::new(3, 50);
    let placement = Placement::round_robin(NODES, &app.objects(), NODES);
    let cfg = RuntimeConfig {
        nodes: NODES + 1,
        ..config(1)
    };
    let subs = vec![Submission {
        at_us: 0,
        node: NodeId(0),
        decision: BankTxn::Deposit(AccountId(1), 5),
    }];
    run_live(&app, &cfg, placement, subs);
}

/// Two hundred short runs per mode, back to back: each must return (a
/// node that missed its `Quit` would block the join) and replay — and a
/// send after `Quit` would fail the run's check, after the join, that
/// every inbox is empty.
#[test]
fn short_runs_end_cleanly_in_every_mode() {
    use shard_core::ObjectModel;
    let app = Bank::new(3, 50);
    let placement = Placement::round_robin(NODES, &app.objects(), 2);
    for run in 0..200u32 {
        // Up to 32 submissions, the first half due at once.
        let (n, gap_us) = (run % 33, u64::from(run % 7) * 20);
        let subs: Vec<Submission<BankTxn>> = (0..n)
            .map(|i| Submission {
                at_us: u64::from(i.saturating_sub(n / 2)) * gap_us,
                node: NodeId(((i + run) % 3) as u16),
                decision: BankTxn::Deposit(AccountId(1 + (i + run) % 3), 1 + i),
            })
            .collect();
        let seed = u64::from(run);
        roundtrip(&app, seed, EagerBroadcast::default(), &subs);
        roundtrip(&app, seed, Gossip::new(150, u16::MAX), &subs);
        roundtrip(&app, seed, Gossip::new(0, u16::MAX), &subs);
        let routed = route_to_holders(&app, &placement, subs);
        roundtrip(&app, seed, placement.clone(), &routed);
    }
}

/// [`roundtrip`] in all-peer eager mode and in full-fanout gossip, by
/// the clock and at each execution.
fn roundtrip_eager_and_gossip<A>(app: &A, seed: u64, subs: Vec<Submission<A::Decision>>)
where
    A: Application + Sync,
    A::State: Send + PartialEq + std::fmt::Debug,
    A::Update: Send + Sync,
    A::Decision: Send,
{
    roundtrip(app, seed, EagerBroadcast::default(), &subs);
    roundtrip(app, seed, Gossip::new(300, u16::MAX), &subs);
    roundtrip(app, seed, Gossip::new(0, u16::MAX), &subs);
}

fn airline_txn() -> impl Strategy<Value = AirlineTxn> {
    prop_oneof![
        (1u32..8).prop_map(|p| AirlineTxn::Request(Person(p))),
        (1u32..8).prop_map(|p| AirlineTxn::Cancel(Person(p))),
        Just(AirlineTxn::MoveUp),
        Just(AirlineTxn::MoveDown),
    ]
}

fn bank_txn() -> impl Strategy<Value = BankTxn> {
    prop_oneof![
        (1u32..=3, 1u32..40).prop_map(|(a, x)| BankTxn::Deposit(AccountId(a), x)),
        (1u32..=3, 1u32..40).prop_map(|(a, x)| BankTxn::Withdraw(AccountId(a), x)),
        (1u32..=3, 1u32..=3, 1u32..40).prop_map(|(a, b, x)| BankTxn::Transfer(
            AccountId(a),
            AccountId(b),
            x
        )),
        (1u32..=3).prop_map(|a| BankTxn::Reconcile(AccountId(a))),
        Just(BankTxn::Audit),
    ]
}

fn inventory_txn() -> impl Strategy<Value = InvTxn> {
    prop_oneof![
        (0u32..3, 0u32..12, 1u64..8).prop_map(|(i, id, qty)| InvTxn::PlaceOrder {
            item: ItemId(i),
            order: Order {
                id: OrderId(id),
                qty,
            },
        }),
        (0u32..3, 0u32..12).prop_map(|(i, id)| InvTxn::CancelOrder {
            item: ItemId(i),
            id: OrderId(id),
        }),
        (0u32..3).prop_map(|i| InvTxn::Promote { item: ItemId(i) }),
        (0u32..3, 1u64..10).prop_map(|(i, qty)| InvTxn::Restock {
            item: ItemId(i),
            qty
        }),
    ]
}

fn dict_txn() -> impl Strategy<Value = DictTxn> {
    prop_oneof![
        (0u32..6, 0u64..100).prop_map(|(k, v)| DictTxn::Insert(k, v)),
        (0u32..6).prop_map(DictTxn::Delete),
        (0u32..6).prop_map(DictTxn::Lookup),
    ]
}

fn ns_txn() -> impl Strategy<Value = NsTxn> {
    prop_oneof![
        (0u32..5, 1u64..50).prop_map(|(n, a)| NsTxn::Register(Name(n), a)),
        (0u32..5).prop_map(|n| NsTxn::Deregister(Name(n))),
        (0u32..2, 0u32..5).prop_map(|(g, n)| NsTxn::AddMember(GroupId(g), Name(n))),
        (0u32..2, 0u32..5).prop_map(|(g, n)| NsTxn::RemoveMember(GroupId(g), Name(n))),
        (0u32..2).prop_map(|g| NsTxn::Scavenge(GroupId(g))),
        (0u32..5).prop_map(|n| NsTxn::Lookup(Name(n))),
    ]
}

/// `(decision, gap_us, node)` triples; zero gaps force same-instant
/// bursts, the interleaving-heavy case.
fn workload<D: std::fmt::Debug>(
    txn: impl Strategy<Value = D>,
) -> impl Strategy<Value = Vec<(D, u64, u16)>> {
    proptest::collection::vec((txn, 0u64..400, 0u16..NODES), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Airline seat assignment, eager + gossip.
    #[test]
    fn airline_record_replay(raw in workload(airline_txn()), seed in 0u64..1000) {
        let app = FlyByNight::new(4);
        roundtrip_eager_and_gossip(&app, seed, submissions(raw));
    }

    /// Banking, eager + gossip — `Audit` covers empty write sets.
    #[test]
    fn banking_record_replay(raw in workload(bank_txn()), seed in 0u64..1000) {
        let app = Bank::new(3, 50);
        roundtrip_eager_and_gossip(&app, seed, submissions(raw));
    }

    /// Warehouse inventory, eager + gossip.
    #[test]
    fn inventory_record_replay(mut raw in workload(inventory_txn()), seed in 0u64..1000) {
        let app = Warehouse::new(3, 40, 2, 1);
        // Order ids are globally unique by client discipline.
        for (k, (txn, _, _)) in raw.iter_mut().enumerate() {
            if let InvTxn::PlaceOrder { order, .. } = txn {
                order.id = OrderId(k as u32 + 100);
            }
        }
        roundtrip_eager_and_gossip(&app, seed, submissions(raw));
    }

    /// Last-writer-wins dictionary, eager + gossip.
    #[test]
    fn dictionary_record_replay(raw in workload(dict_txn()), seed in 0u64..1000) {
        roundtrip_eager_and_gossip(&Dictionary, seed, submissions(raw));
    }

    /// Grapevine-style name server, eager + gossip.
    #[test]
    fn nameserver_record_replay(raw in workload(ns_txn()), seed in 0u64..1000) {
        let app = NameServer::new(2, 1);
        roundtrip_eager_and_gossip(&app, seed, submissions(raw));
    }

    /// Partial replication over the object-model banking app: updates
    /// route only to holders, and the replay must still agree in full.
    #[test]
    fn banking_partial_record_replay(raw in workload(bank_txn()), seed in 0u64..1000) {
        use shard_core::ObjectModel;
        let app = Bank::new(3, 50);
        let placement = Placement::round_robin(NODES, &app.objects(), 2);
        let subs = route_to_holders(&app, &placement, submissions(raw));
        roundtrip(&app, seed, placement, &subs);
    }
}
