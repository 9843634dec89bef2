//! Equivalence suite for the incremental replay engine: on random
//! update sequences from all four applications, every query a
//! [`Replayer`] answers must be byte-identical to a from-scratch fold
//! of the same updates (the naive oracle kept inline below). Random
//! checkpoint intervals and repeated and nested queries exercise the
//! longest-shared-prefix reuse, checkpoint flooring and tip paths of the
//! cache; out-of-order `state_after_first` calls, which are plain folds
//! outside the cache, must neither answer differently nor disturb it.
//!
//! The cache's *work* is held to a model as well: [`ListCache`] replays
//! the cache's resume policy over plain index lists — the shared head
//! found by comparing members — and every query's [`ReplayStats`] must
//! equal the model's. How long two index sequences agree does not depend
//! on how they are stored, so storing the path as runs may not move a
//! counter (`crates/core/tests/replay_metrics.rs` holds the `replay.lcp`
//! histogram to the same member-by-member count).

use proptest::prelude::*;
use shard::apps::airline::{AirlineTxn, AirlineUpdate, FlyByNight};
use shard::apps::banking::{AccountId, Bank, BankUpdate};
use shard::apps::inventory::{InvUpdate, ItemId, Order, OrderId, Warehouse};
use shard::apps::nameserver::{GroupId, Name, NameServer, NsUpdate};
use shard::apps::Person;
use shard::core::{
    Application, Checkpoints, Execution, ExecutionBuilder, ReplayStats, Replayer, TxnIndex,
};

/// The naive oracle: fold the selected updates over the initial state,
/// exactly as every checker did before the replay engine existed.
fn naive_state<A: Application>(app: &A, updates: &[A::Update], prefix: &[usize]) -> A::State {
    prefix
        .iter()
        .fold(app.initial_state(), |s, &j| app.apply(&s, &updates[j]))
}

/// The replay cache's resume policy over index lists, states left out:
/// where a query resumes depends only on which depths hold a checkpoint
/// or a tip, so the counters follow from [`Checkpoints`]' record / floor
/// rules and a member-by-member shared-head count.
struct ListCache {
    path: Vec<TxnIndex>,
    path_ckpts: Checkpoints<()>,
    has_path_tip: bool,
    stats: ReplayStats,
}

impl ListCache {
    fn new(every: usize) -> Self {
        ListCache {
            path: Vec::new(),
            path_ckpts: Checkpoints::new(every),
            has_path_tip: false,
            stats: ReplayStats::default(),
        }
    }

    fn state_after_prefix(&mut self, prefix: &[TxnIndex]) {
        let shared = prefix
            .iter()
            .zip(&self.path)
            .take_while(|(a, b)| a == b)
            .count();
        let depth = if shared == self.path.len() && self.has_path_tip {
            shared
        } else {
            self.path_ckpts.floor(shared).map_or(0, |(depth, ())| depth)
        };
        self.path_ckpts.truncate(depth);
        for applied in depth + 1..=prefix.len() {
            self.path_ckpts.record(applied, &());
        }
        self.path = prefix.to_vec();
        self.has_path_tip = true;
        self.stats.queries += 1;
        self.stats.reused += depth as u64;
        self.stats.applied += (prefix.len() - depth) as u64;
    }
}

/// Runs one replayer over `updates` with the given checkpoint interval
/// and checks every query surface against the oracle. `sel` picks an
/// in-order subsequence (the paper's prefix-subsequence shape).
fn assert_replayer_matches_oracle<A: Application>(
    app: &A,
    updates: &[A::Update],
    interval: usize,
    sel: &[bool],
) {
    let mut r = Replayer::from_updates_with_interval(app, updates.iter(), interval);
    let mut model = ListCache::new(interval);
    assert_eq!(r.len(), updates.len());
    let subsequence =
        |r: &mut Replayer<A>, model: &mut ListCache, prefix: &[TxnIndex], what: &str| {
            assert_eq!(
                r.state_after_prefix(prefix),
                naive_state(app, updates, prefix),
                "{what}"
            );
            model.state_after_prefix(prefix);
            assert_eq!(r.stats(), model.stats, "work done by the {what}");
        };

    // Subsequence queries, repeated (second answer comes from the warm
    // path cache) and nested (shares the cached longest prefix).
    let prefix: Vec<TxnIndex> = (0..updates.len())
        .filter(|&i| sel[i % sel.len().max(1)])
        .collect();
    subsequence(&mut r, &mut model, &prefix, "cold subsequence query");
    subsequence(&mut r, &mut model, &prefix, "warm subsequence query");
    subsequence(
        &mut r,
        &mut model,
        &prefix[..prefix.len() / 2],
        "nested subsequence query",
    );

    // Full-order queries in a deliberately non-monotone order. Each is
    // a fold outside the cache: it leaves the work counters alone.
    let n = updates.len();
    let all: Vec<usize> = (0..n).collect();
    for m in [n, n / 3, n / 2, 0, n] {
        assert_eq!(
            r.state_after_first(m),
            naive_state(app, updates, &all[..m]),
            "state_after_first({m}) of {n}"
        );
        assert_eq!(
            r.stats(),
            model.stats,
            "work done by state_after_first({m})"
        );
    }
    assert_eq!(
        r.final_state(),
        naive_state(app, updates, &all),
        "final state"
    );

    // A long serial run after the folds is an ordinary path query; then
    // the path is asked for again.
    let late_gap: Vec<usize> = (0..n).filter(|&j| j + 3 != n).collect();
    subsequence(&mut r, &mut model, &late_gap, "serial run after the folds");
    subsequence(
        &mut r,
        &mut model,
        &prefix,
        "subsequence query after the serial run",
    );
    subsequence(&mut r, &mut model, &all, "complete query");
}

fn airline_update() -> impl Strategy<Value = AirlineUpdate> {
    prop_oneof![
        (1u32..6).prop_map(|p| AirlineUpdate::Request(Person(p))),
        (1u32..6).prop_map(|p| AirlineUpdate::Cancel(Person(p))),
        (1u32..6).prop_map(|p| AirlineUpdate::MoveUp(Person(p))),
        (1u32..6).prop_map(|p| AirlineUpdate::MoveDown(Person(p))),
        Just(AirlineUpdate::Noop),
    ]
}

fn bank_update() -> impl Strategy<Value = BankUpdate> {
    prop_oneof![
        ((1u32..4), (1u32..200)).prop_map(|(a, x)| BankUpdate::Credit(AccountId(a), x)),
        ((1u32..4), (1u32..200)).prop_map(|(a, x)| BankUpdate::Debit(AccountId(a), x)),
        ((1u32..4), (1u32..4), (1u32..100)).prop_map(|(a, b, x)| BankUpdate::Move(
            AccountId(a),
            AccountId(b),
            x
        )),
        (1u32..4).prop_map(|a| BankUpdate::Sweep(AccountId(a))),
        Just(BankUpdate::Noop),
    ]
}

fn inventory_update() -> impl Strategy<Value = InvUpdate> {
    let item = 0u32..3;
    let id = 1u32..12;
    prop_oneof![
        (item.clone(), id.clone(), 1u64..5).prop_map(|(i, o, q)| {
            InvUpdate::Commit(
                ItemId(i),
                Order {
                    id: OrderId(o),
                    qty: q,
                },
            )
        }),
        (item.clone(), id.clone(), 1u64..5).prop_map(|(i, o, q)| {
            InvUpdate::Backlog(
                ItemId(i),
                Order {
                    id: OrderId(o),
                    qty: q,
                },
            )
        }),
        (item.clone(), id.clone()).prop_map(|(i, o)| InvUpdate::Remove(ItemId(i), OrderId(o))),
        (item.clone(), id.clone()).prop_map(|(i, o)| InvUpdate::Promote(ItemId(i), OrderId(o))),
        (item.clone(), id).prop_map(|(i, o)| InvUpdate::Demote(ItemId(i), OrderId(o))),
        (item.clone(), 1u64..10).prop_map(|(i, q)| InvUpdate::AddStock(ItemId(i), q)),
        (item, 1u64..10).prop_map(|(i, q)| InvUpdate::SubStock(ItemId(i), q)),
        Just(InvUpdate::Noop),
    ]
}

fn nameserver_update() -> impl Strategy<Value = NsUpdate> {
    let name = 1u32..8;
    prop_oneof![
        (name.clone(), 1u64..100).prop_map(|(n, a)| NsUpdate::SetAddress(Name(n), a)),
        name.clone().prop_map(|n| NsUpdate::RemoveName(Name(n))),
        ((0u32..3), name.clone()).prop_map(|(g, n)| NsUpdate::AddMember(GroupId(g), Name(n))),
        ((0u32..3), name).prop_map(|(g, n)| NsUpdate::RemoveMember(GroupId(g), Name(n))),
        Just(NsUpdate::Noop),
    ]
}

/// A selection mask plus a checkpoint interval — shared by every app's
/// property so intervals 1 (checkpoint everything) through 40 (sparser
/// than most generated sequences) all get exercised.
fn mask_and_interval() -> impl Strategy<Value = (Vec<bool>, usize)> {
    (proptest::collection::vec(any::<bool>(), 8..64), 1usize..=40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Airline: replayer queries equal from-scratch folds.
    #[test]
    fn airline_replayer_matches_naive(
        updates in proptest::collection::vec(airline_update(), 0..120),
        (sel, every) in mask_and_interval(),
    ) {
        let app = FlyByNight::new(2);
        assert_replayer_matches_oracle(&app, &updates, every, &sel);
    }

    /// Banking: replayer queries equal from-scratch folds.
    #[test]
    fn bank_replayer_matches_naive(
        updates in proptest::collection::vec(bank_update(), 0..120),
        (sel, every) in mask_and_interval(),
    ) {
        let app = Bank::new(3, 200);
        assert_replayer_matches_oracle(&app, &updates, every, &sel);
    }

    /// Inventory: replayer queries equal from-scratch folds.
    #[test]
    fn inventory_replayer_matches_naive(
        updates in proptest::collection::vec(inventory_update(), 0..120),
        (sel, every) in mask_and_interval(),
    ) {
        let app = Warehouse::new(3, 10, 7, 3);
        assert_replayer_matches_oracle(&app, &updates, every, &sel);
    }

    /// Name server: replayer queries equal from-scratch folds.
    #[test]
    fn nameserver_replayer_matches_naive(
        updates in proptest::collection::vec(nameserver_update(), 0..120),
        (sel, every) in mask_and_interval(),
    ) {
        let app = NameServer::new(3, 5);
        assert_replayer_matches_oracle(&app, &updates, every, &sel);
    }

    /// The `Execution`-level queries (the replay cache behind
    /// `apparent_state_before`, the fold behind `actual_state_after`)
    /// agree with naive replay of the recorded prefixes, on random
    /// executions with random missing sets.
    #[test]
    fn execution_cache_matches_naive(
        txns in proptest::collection::vec(
            (prop_oneof![
                (1u32..6).prop_map(|p| AirlineTxn::Request(Person(p))),
                (1u32..6).prop_map(|p| AirlineTxn::Cancel(Person(p))),
                Just(AirlineTxn::MoveUp),
                Just(AirlineTxn::MoveDown),
            ], any::<u64>()),
            1..60,
        ),
    ) {
        let app = FlyByNight::new(2);
        let mut b = ExecutionBuilder::new(&app);
        for (txn, miss_bits) in txns {
            let i = b.len();
            // Up to 8 missing predecessors from the recent window.
            let missing: Vec<TxnIndex> = (0..8)
                .filter(|bit| miss_bits >> bit & 1 == 1)
                .map(|bit| i.saturating_sub(bit + 1))
                .filter(|&j| j < i)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            b.push_missing(txn, &missing).expect("valid prefix");
        }
        let e: Execution<FlyByNight> = b.finish();
        let updates: Vec<AirlineUpdate> =
            e.records().iter().map(|r| r.update).collect();
        let all: Vec<usize> = (0..e.len()).collect();
        for i in 0..e.len() {
            let seen: Vec<TxnIndex> = e.record(i).prefix.iter().collect();
            let apparent = naive_state(&app, &updates, &seen);
            // Twice: the second answer must come from the warm cache.
            prop_assert_eq!(e.apparent_state_before(&app, i), apparent.clone());
            prop_assert_eq!(e.apparent_state_before(&app, i), apparent);
            prop_assert_eq!(
                e.actual_state_after(&app, i),
                naive_state(&app, &updates, &all[..=i])
            );
        }
        prop_assert_eq!(e.final_state(&app), naive_state(&app, &updates, &all));
    }
}
