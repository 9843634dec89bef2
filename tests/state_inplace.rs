//! Property tests for the O(delta) state layer: the timestamp-ordered
//! airline's in-place update must agree with its former pure one, every
//! application's size hint must cover a state's shallow size, the persistent
//! [`PMap`] and the bank's flat state must behave exactly like a
//! `BTreeMap` oracle (including across clones taken mid-sequence),
//! [`Checkpoints`] must record, truncate and floor like a naive list of
//! depths and resume replays to byte-identical states — with or without
//! a cold store, whatever a crash of that store destroys — and the
//! execution-level cache, warmed along the full serial order, must
//! answer like the naive fold.

use proptest::prelude::*;
use shard::apps::airline::{AirlineTxn, AirlineUpdate, FlyByNight};
use shard::apps::airline_ts::{StampedPerson, TsAirlineState, TsFlyByNight, TsUpdate};
use shard::apps::banking::{AccountId, Bank, BankState, BankUpdate};
use shard::apps::dictionary::{DictUpdate, Dictionary};
use shard::apps::inventory::{InvUpdate, ItemId, Order, OrderId, Warehouse};
use shard::apps::nameserver::{GroupId, Name, NameServer, NsUpdate};
use shard::apps::Person;
use shard::core::{Application, Checkpoints, ExecutionBuilder, PMap, TxnIndex};
use shard::store::{Codec, MemStore};
use std::collections::BTreeMap;

/// Folds `updates` in place and pins the `state_size_hint` contract
/// after every step: at least the shallow size.
fn assert_size_hint_covers_shallow_size<A: Application>(app: &A, updates: &[A::Update]) {
    let mut state = app.initial_state();
    for u in updates {
        app.apply_in_place(&mut state, u);
        assert!(
            app.state_size_hint(&state) >= std::mem::size_of::<A::State>(),
            "size hint below shallow size after {u:?}"
        );
    }
}

/// The timestamp-ordered airline's update as a pure map, the way the
/// application wrote it before it stated its update in place — over the
/// two lists, since a state's fields are private.
fn ts_oracle_apply(
    (assigned, waiting): &(Vec<StampedPerson>, Vec<StampedPerson>),
    update: &TsUpdate,
) -> (Vec<StampedPerson>, Vec<StampedPerson>) {
    let insert_sorted = |list: &mut Vec<StampedPerson>, sp: StampedPerson| {
        let pos = list
            .iter()
            .position(|x| (x.stamp, x.person) > (sp.stamp, sp.person))
            .unwrap_or(list.len());
        list.insert(pos, sp);
    };
    let (mut assigned, mut waiting) = (assigned.clone(), waiting.clone());
    match update {
        TsUpdate::Request(sp) => {
            if !assigned
                .iter()
                .chain(&waiting)
                .any(|x| x.person == sp.person)
            {
                insert_sorted(&mut waiting, *sp);
            }
        }
        TsUpdate::Cancel(p) => {
            assigned.retain(|x| x.person != *p);
            waiting.retain(|x| x.person != *p);
        }
        TsUpdate::MoveUp(p) => {
            if let Some(pos) = waiting.iter().position(|x| x.person == *p) {
                let sp = waiting.remove(pos);
                insert_sorted(&mut assigned, sp);
            }
        }
        TsUpdate::MoveDown(p) => {
            if let Some(pos) = assigned.iter().position(|x| x.person == *p) {
                let sp = assigned.remove(pos);
                insert_sorted(&mut waiting, sp);
            }
        }
        TsUpdate::Noop => {}
    }
    (assigned, waiting)
}

fn ts_lists(s: &TsAirlineState) -> (Vec<StampedPerson>, Vec<StampedPerson>) {
    (s.assigned().to_vec(), s.waiting().to_vec())
}

/// A person's stamp is drawn from few values, so ties between people
/// exercise the tie break by person id.
fn ts_update() -> impl Strategy<Value = TsUpdate> {
    prop_oneof![
        (1u32..6, 0u64..4).prop_map(|(p, stamp)| TsUpdate::Request(StampedPerson {
            person: Person(p),
            stamp,
        })),
        (1u32..6).prop_map(|p| TsUpdate::Cancel(Person(p))),
        (1u32..6).prop_map(|p| TsUpdate::MoveUp(Person(p))),
        (1u32..6).prop_map(|p| TsUpdate::MoveDown(Person(p))),
        Just(TsUpdate::Noop),
    ]
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

/// Mostly `Bank::new(3, ..)`'s tracked `A1..=A3`, but also `A0` and
/// accounts no bank of three tracks: a few past `A3`, sparse ones whose
/// index `a − 1` lies far past any bank's end, and `u32::MAX − 1` and
/// `u32::MAX`, where it is near the top of `usize` — every lookup that
/// misses the bank's index probe and must fall back to its search.
fn bank_account() -> impl Strategy<Value = AccountId> {
    prop_oneof![
        0u32..6,
        1u32..4,
        (1u32..=4).prop_map(|k| 100 * k),
        Just(u32::MAX - 1),
        Just(u32::MAX),
    ]
    .prop_map(AccountId)
}

/// Every account [`bank_account`] draws from, and a few near them.
fn bank_lookups() -> impl Iterator<Item = AccountId> {
    (0..8)
        .chain((1..=4).map(|k| 100 * k))
        .chain([99, 101, u32::MAX - 1, u32::MAX])
        .map(AccountId)
}

fn bank_update() -> impl Strategy<Value = BankUpdate> {
    prop_oneof![
        (bank_account(), (1u32..200)).prop_map(|(a, x)| BankUpdate::Credit(a, x)),
        (bank_account(), (1u32..200)).prop_map(|(a, x)| BankUpdate::Debit(a, x)),
        (bank_account(), bank_account(), (1u32..100))
            .prop_map(|(a, b, x)| BankUpdate::Move(a, b, x)),
        bank_account().prop_map(BankUpdate::Sweep),
        Just(BankUpdate::Noop),
    ]
}

/// The bank oracle's `apply`: every account an update credits or
/// debits is touched — present from then on, even at zero.
fn bank_oracle_apply(oracle: &mut BTreeMap<AccountId, i64>, update: &BankUpdate) {
    let mut credit = |a: AccountId, x: i64| *oracle.entry(a).or_insert(0) += x;
    match *update {
        BankUpdate::Credit(a, x) => credit(a, x.into()),
        BankUpdate::Debit(a, x) => credit(a, -i64::from(x)),
        BankUpdate::Move(from, to, x) => {
            credit(from, -i64::from(x));
            credit(to, x.into());
        }
        BankUpdate::Sweep(a) => {
            let b = oracle.get(&a).copied().unwrap_or(0);
            if b < 0 {
                oracle.insert(a, 0);
            }
        }
        BankUpdate::Noop => {}
    }
}

/// A bank state's encoding of `pairs`, in whatever order they come,
/// written out field by field: the count, then each account and its
/// balance's bits.
fn bank_bytes(pairs: &[(AccountId, i64)]) -> Vec<u8> {
    let mut out = Vec::new();
    (pairs.len() as u32).encode(&mut out);
    for &(a, b) in pairs {
        a.0.encode(&mut out);
        (b as u64).encode(&mut out);
    }
    out
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

fn dictionary_update() -> impl Strategy<Value = DictUpdate> {
    prop_oneof![
        ((0u32..10), (1u64..50)).prop_map(|(k, v)| DictUpdate::Insert(k, v)),
        (0u32..10).prop_map(DictUpdate::Delete),
        Just(DictUpdate::Noop),
    ]
}

/// `Checkpoints` against a naive model — the depths a "record when
/// `every` past the deepest point" rule keeps — through a record run and
/// then one undo/redo cycle per cut: `truncate` to the cut, and
/// re-record every depth past it, which copies into the states the
/// truncate dropped. After every record run and every undo, `len`,
/// `last_len`, every `floor` and what `restore_last` copies over a
/// smaller and a larger state agree with the model, and resuming a
/// replay from any floor reproduces the target state byte for byte.
fn assert_checkpoints_match_model<A: Application>(
    app: &A,
    updates: &[A::Update],
    every: usize,
    cuts: &[usize],
) {
    let mut states = Vec::with_capacity(updates.len() + 1);
    states.push(app.initial_state());
    for u in updates {
        states.push(app.apply(states.last().unwrap(), u));
    }
    let mut ckpts: Checkpoints<A::State> = Checkpoints::new(every);
    let mut model: Vec<usize> = Vec::new();
    let check = |ckpts: &mut Checkpoints<A::State>, model: &[usize]| {
        assert_eq!(ckpts.len(), model.len());
        assert_eq!(ckpts.last_len(), model.last().copied().unwrap_or(0));
        for over in [&states[0], &states[updates.len()]] {
            let mut restored = over.clone();
            let depth = ckpts.restore_last(&mut restored);
            assert_eq!(depth, model.last().copied(), "restored depth");
            assert_eq!(
                &restored,
                depth.map_or(over, |l| &states[l]),
                "restored state"
            );
        }
        for depth in 0..=updates.len() {
            let expect = model.iter().rev().find(|&&l| l <= depth).copied();
            let floor = ckpts.floor(depth);
            assert_eq!(
                floor.as_ref().map(|(l, _)| *l),
                expect,
                "floor of depth {depth}"
            );
            if let Some((l, mut resumed)) = floor {
                assert_eq!(&resumed, &states[l], "floor state is the prefix state");
                for u in &updates[l..depth] {
                    app.apply_in_place(&mut resumed, u);
                }
                assert_eq!(&resumed, &states[depth], "resume from the floor at {depth}");
            }
        }
    };
    let mut from = 1;
    for phase in 0..=cuts.len() {
        for (len, state) in states.iter().enumerate().skip(from) {
            let due = len >= model.last().copied().unwrap_or(0) + every;
            if due {
                model.push(len);
            }
            let stored = ckpts.record(len, state, |s| app.state_size_hint(s));
            assert_eq!(stored, due, "record decision diverged at {len}");
        }
        check(&mut ckpts, &model);
        if let Some(&cut) = cuts.get(phase) {
            let keep = cut % (updates.len() + 1);
            ckpts.truncate(keep);
            model.retain(|&l| l <= keep);
            check(&mut ckpts, &model);
            from = keep + 1;
        }
    }
}

/// More keys than two levels of the map's tree hold (fanout² = 256),
/// so a long enough walk splits inner nodes too.
const PMAP_KEYS: u32 = 600;

#[derive(Clone, Debug)]
enum PmapOp {
    Insert(u32, u64),
    Remove(u32),
    Nth(usize),
}

/// Two inserts in four operations to one remove: the map settles near
/// two thirds of the keys.
fn pmap_op() -> impl Strategy<Value = PmapOp> {
    (0u32..4, 0..PMAP_KEYS, 1u64..100).prop_map(|(kind, k, v)| match kind {
        0 | 1 => PmapOp::Insert(k, v),
        2 => PmapOp::Remove(k),
        _ => PmapOp::Nth(k as usize),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every application's `state_size_hint` is at least the shallow
    /// size of the states its updates reach.
    #[test]
    fn size_hints_cover_the_shallow_size(
        airline in proptest::collection::vec(airline_update(), 0..120),
        bank in proptest::collection::vec(bank_update(), 0..120),
        inventory in proptest::collection::vec(inventory_update(), 0..120),
        nameserver in proptest::collection::vec(nameserver_update(), 0..120),
        dictionary in proptest::collection::vec(dictionary_update(), 0..120),
        ts in proptest::collection::vec(ts_update(), 0..120),
    ) {
        assert_size_hint_covers_shallow_size(&FlyByNight::new(2), &airline);
        assert_size_hint_covers_shallow_size(&Bank::new(3, 200), &bank);
        assert_size_hint_covers_shallow_size(&Warehouse::new(3, 10, 7, 3), &inventory);
        assert_size_hint_covers_shallow_size(&NameServer::new(3, 5), &nameserver);
        assert_size_hint_covers_shallow_size(&Dictionary, &dictionary);
        assert_size_hint_covers_shallow_size(&TsFlyByNight::new(2), &ts);
    }

    /// The timestamp-ordered airline's in-place update is its former
    /// pure one, step by step, and every state it reaches is
    /// well-formed: no person twice, both lists in timestamp order.
    #[test]
    fn ts_airline_in_place_matches_pure_oracle(
        updates in proptest::collection::vec(ts_update(), 0..120),
    ) {
        let app = TsFlyByNight::new(2);
        let mut state = app.initial_state();
        let mut oracle = ts_lists(&state);
        for u in &updates {
            app.apply_in_place(&mut state, u);
            oracle = ts_oracle_apply(&oracle, u);
            prop_assert_eq!(ts_lists(&state), oracle.clone(), "diverged on {:?}", u);
            prop_assert!(app.is_well_formed(&state), "ill-formed after {:?}", u);
        }
    }

    /// The persistent map agrees with a `BTreeMap` oracle after every
    /// operation, through a walk long enough to build a third tree
    /// level and a drain back down to empty — and clones taken along
    /// the way are immutable: each snapshot still equals the oracle
    /// state it was taken at, no matter what happened to the map
    /// afterwards (structural sharing must never leak writes into old
    /// versions).
    #[test]
    fn pmap_matches_btreemap_oracle(
        ops in proptest::collection::vec(pmap_op(), 0..2000),
    ) {
        let mut map: PMap<u32, u64> = PMap::new();
        let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
        let mut snapshots: Vec<(PMap<u32, u64>, BTreeMap<u32, u64>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                PmapOp::Insert(k, v) => {
                    prop_assert_eq!(map.insert(*k, *v), oracle.insert(*k, *v));
                }
                PmapOp::Remove(k) => {
                    prop_assert_eq!(map.remove(k), oracle.remove(k));
                }
                PmapOp::Nth(i) => {
                    prop_assert_eq!(map.nth(*i), oracle.iter().nth(*i));
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
            if let PmapOp::Insert(k, _) | PmapOp::Remove(k) = op {
                prop_assert_eq!(map.get(k), oracle.get(k));
                prop_assert_eq!(map.contains_key(k), oracle.contains_key(k));
            }
            if i % 7 == 0 {
                snapshots.push((map.clone(), oracle.clone()));
            }
        }
        // Iteration order and content match the sorted oracle exactly.
        prop_assert!(map.iter().eq(oracle.iter()));
        prop_assert!(map.keys().eq(oracle.keys()));
        // Rebuilding from the oracle yields an equal map: equality is
        // by content, whatever order (and so whatever tree) built it.
        let rebuilt: PMap<u32, u64> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(&rebuilt, &map);
        // Drain to empty, from both ends inwards.
        let keys: Vec<u32> = oracle.keys().copied().collect();
        for i in 0..keys.len() {
            let k = if i % 2 == 0 { keys[i / 2] } else { keys[keys.len() - 1 - i / 2] };
            prop_assert_eq!(map.remove(&k), oracle.remove(&k));
            prop_assert_eq!(map.len(), oracle.len());
            if i % 16 == 0 {
                prop_assert!(map.iter().eq(oracle.iter()));
            }
        }
        prop_assert!(map.is_empty());
        prop_assert_eq!(&map, &PMap::new());
        // Old versions are untouched by later writes.
        for (snap_map, snap_oracle) in &snapshots {
            prop_assert_eq!(snap_map.len(), snap_oracle.len());
            prop_assert!(snap_map.iter().eq(snap_oracle.iter()));
        }
    }

    /// The bank's state agrees with a `BTreeMap` oracle after every
    /// update, over tracked accounts, `A0` and untracked ones: the
    /// touched accounts and their balances in account order, equality
    /// with the state built from those pairs in reverse, the encoding
    /// byte for byte, decoding of unsorted and repeated pairs (the last
    /// wins) — and clones taken along the way never see a later write.
    #[test]
    fn bank_state_matches_btreemap_oracle(
        updates in proptest::collection::vec(bank_update(), 0..200),
    ) {
        let app = Bank::new(3, 200);
        let mut state = app.initial_state();
        let mut oracle: BTreeMap<AccountId, i64> = BTreeMap::new();
        let mut snapshots = Vec::new();
        for (i, u) in updates.iter().enumerate() {
            app.apply_in_place(&mut state, u);
            bank_oracle_apply(&mut oracle, u);
            let pairs: Vec<(AccountId, i64)> = oracle.iter().map(|(a, b)| (*a, *b)).collect();
            prop_assert_eq!(state.balances().collect::<Vec<_>>(), pairs.clone());
            for a in bank_lookups() {
                prop_assert_eq!(state.balance(a), oracle.get(&a).copied().unwrap_or(0));
            }
            let reversed: Vec<_> = pairs.iter().rev().copied().collect();
            prop_assert_eq!(&BankState::with_balances(&reversed), &state);
            prop_assert_eq!(state.to_vec(), bank_bytes(&pairs));
            // Every account once with a stale balance, then the real
            // ones in reverse order.
            let mut repeated: Vec<_> = pairs.iter().map(|&(a, b)| (a, b ^ 1)).collect();
            repeated.extend(reversed);
            prop_assert_eq!(BankState::from_slice(&bank_bytes(&repeated)), Some(state.clone()));
            if i % 7 == 0 {
                snapshots.push((state.clone(), pairs));
            }
        }
        // Crediting an account back to zero keeps it: touched, it is
        // encoded and makes the state differ from one that never was.
        let fresh = AccountId(1_000);
        let mut zeroed = app.apply(&state, &BankUpdate::Credit(fresh, 5));
        app.apply_in_place(&mut zeroed, &BankUpdate::Debit(fresh, 5));
        oracle.insert(fresh, 0);
        let pairs: Vec<(AccountId, i64)> = oracle.iter().map(|(a, b)| (*a, *b)).collect();
        prop_assert_eq!(zeroed.balances().collect::<Vec<_>>(), pairs.clone());
        prop_assert_eq!(zeroed.to_vec(), bank_bytes(&pairs));
        prop_assert_ne!(&zeroed, &state);
        for (snap, pairs) in &snapshots {
            prop_assert_eq!(snap.balances().collect::<Vec<_>>(), pairs.clone());
        }
        // `clone_from` between banks of different sizes — an older
        // snapshot, the final bank, an empty one and one of forty
        // accounts, each way round — copies exactly what `clone` does.
        let forty: Vec<(AccountId, i64)> = (0..40).map(|a| (AccountId(a), -i64::from(a))).collect();
        let mut banks = vec![state.clone(), zeroed, BankState::default(), BankState::with_balances(&forty)];
        banks.extend(snapshots.into_iter().map(|(snap, _)| snap));
        for source in &banks {
            for target in &banks {
                let mut copy = target.clone();
                copy.clone_from(source);
                prop_assert_eq!(&copy, source);
                prop_assert_eq!(copy.to_vec(), source.to_vec());
            }
        }
    }

    /// `Checkpoints` against a naive model, through undo/redo cycles,
    /// on the airline's tree-backed states (see
    /// [`assert_checkpoints_match_model`]).
    #[test]
    fn delta_chain_checkpoints_match_snapshot(
        updates in proptest::collection::vec(airline_update(), 0..120),
        every in 1usize..=16,
        cuts in proptest::collection::vec(0usize..=120, 1..5),
    ) {
        assert_checkpoints_match_model(&FlyByNight::new(2), &updates, every, &cuts);
    }

    /// The same cycles on banks, whose restores and re-records copy
    /// into the allocations of states the undo dropped — banks that
    /// hold fewer or more accounts than the one copied in, as the
    /// accounts touched grow along the sequence.
    #[test]
    fn bank_checkpoints_match_snapshot_through_cycles(
        updates in proptest::collection::vec(bank_update(), 0..120),
        every in 1usize..=8,
        cuts in proptest::collection::vec(0usize..=120, 1..5),
    ) {
        assert_checkpoints_match_model(&Bank::new(3, 200), &updates, every, &cuts);
    }

    /// Random `record` / `truncate` / `floor` / `restore_last` /
    /// undo-then-redo / cold-store `crash(keep)` sequences against a
    /// naive `Vec<(depth, state)>`
    /// model, in three configurations of the one type: no cold store,
    /// a cold store spilling every evicted point, and one spilling
    /// every `spacing`-th. A returned checkpoint is always a pair the
    /// model holds, never deeper than the limit. Where no point can
    /// have been lost — no cold store, or spacing 1 and no crash yet —
    /// record decisions, `len`, `last_len` and every answer equal the
    /// model's exactly; elsewhere an answer may only be shallower.
    #[test]
    fn checkpoint_ops_match_model_in_every_configuration(
        ops in proptest::collection::vec((0u8..7, 0usize..200), 1..120),
        every in 1usize..=5,
        hot in 1usize..=4,
        spacing in 2usize..=4,
    ) {
        for cold in [None, Some(1), Some(spacing)] {
            let mut ckpts: Checkpoints<u64> = Checkpoints::new(every);
            if let Some(spacing) = cold {
                ckpts = ckpts.with_cold_store(Box::new(MemStore::new()), hot, spacing);
            }
            // Lossless: every stored point is still retrievable.
            let mut lossless = cold.is_none_or(|spacing| spacing == 1);
            let mut model: Vec<(usize, u64)> = Vec::new();
            let (mut depth, mut next_state) = (0usize, 0u64);
            let floor_of = |model: &[(usize, u64)], limit: usize| {
                model.iter().rev().find(|&&(l, _)| l <= limit).copied()
            };
            for &(op, x) in &ops {
                match op {
                    0 | 1 => {
                        // Advance and offer a never-seen-before state, so
                        // a stale anchor for a re-recorded depth shows.
                        depth += x % 4;
                        next_state += 1;
                        let stored = ckpts.record(depth, &next_state, |_| 8);
                        let due = depth >= model.last().map_or(0, |&(l, _)| l) + every;
                        if cold != Some(spacing) {
                            prop_assert_eq!(stored, due, "record decision at {}", depth);
                        }
                        if stored {
                            model.push((depth, next_state));
                        }
                    }
                    2 => {
                        let keep = x % (depth + 1);
                        ckpts.truncate(keep);
                        model.retain(|&(l, _)| l <= keep);
                        depth = keep;
                    }
                    6 => {
                        // A repair: undo a little and redo every depth
                        // back to where it was, with new states — the
                        // re-records reuse what the undo dropped.
                        let keep = depth.saturating_sub(x % (3 * every + 1));
                        ckpts.truncate(keep);
                        model.retain(|&(l, _)| l <= keep);
                        for len in keep + 1..=depth {
                            next_state += 1;
                            let stored = ckpts.record(len, &next_state, |_| 8);
                            let due = len >= model.last().map_or(0, |&(l, _)| l) + every;
                            if cold != Some(spacing) {
                                prop_assert_eq!(stored, due, "re-record decision at {}", len);
                            }
                            if stored {
                                model.push((len, next_state));
                            }
                        }
                    }
                    3 | 4 => {
                        let limit = if op == 3 { x % (depth + 2) } else { usize::MAX };
                        let got = if op == 3 {
                            ckpts.floor(limit)
                        } else {
                            // Over a state no point holds, which must
                            // survive a restore that finds nothing.
                            let mut state = u64::MAX;
                            let depth = ckpts.restore_last(&mut state);
                            prop_assert!(depth.is_some() || state == u64::MAX);
                            depth.map(|l| (l, state))
                        };
                        if lossless {
                            prop_assert_eq!(got, floor_of(&model, limit), "limit {}", limit);
                        } else if let Some((l, s)) = got {
                            prop_assert!(l <= limit, "floor {} above limit {}", l, limit);
                            prop_assert!(model.contains(&(l, s)), "({}, {}) was never stored", l, s);
                        }
                    }
                    _ => {
                        if cold.is_some() {
                            let store = ckpts.store_mut();
                            let keep = store.len_bytes() * (x as u64 % 101) / 100;
                            lossless &= keep == store.len_bytes();
                            store.crash(keep).expect("mem store crash is infallible");
                        }
                    }
                }
                if cold != Some(spacing) {
                    prop_assert_eq!(ckpts.len(), model.len());
                    prop_assert_eq!(ckpts.last_len(), model.last().map_or(0, |&(l, _)| l));
                }
            }
        }
    }

    /// The execution-level replay cache, warmed along the full serial
    /// order by `final_state`, answers like the naive fold: prefix
    /// queries that resume from the full-order chain and actual-state
    /// queries served from its checkpoints both match.
    #[test]
    fn warmed_execution_cache_matches_naive_fold(
        txns in proptest::collection::vec(
            (prop_oneof![
                (1u32..6).prop_map(|p| AirlineTxn::Request(Person(p))),
                (1u32..6).prop_map(|p| AirlineTxn::Cancel(Person(p))),
                Just(AirlineTxn::MoveUp),
                Just(AirlineTxn::MoveDown),
            ], any::<u64>()),
            1..48,
        ),
    ) {
        let app = FlyByNight::new(2);
        let mut b = ExecutionBuilder::new(&app);
        for (txn, miss_bits) in txns {
            let i = b.len();
            let missing: Vec<TxnIndex> = (0..8)
                .filter(|bit| miss_bits >> bit & 1 == 1)
                .map(|bit| i.saturating_sub(bit + 1))
                .filter(|&j| j < i)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            b.push_missing(txn, &missing).expect("valid prefix");
        }
        let e = b.finish();
        let updates: Vec<AirlineUpdate> = e.records().iter().map(|r| r.update).collect();
        let naive = |prefix: &[TxnIndex]| {
            prefix.iter().fold(app.initial_state(), |s, &j| app.apply(&s, &updates[j]))
        };
        // A clone's cache is cold; `final_state` warms its full chain.
        let warmed = e.clone();
        prop_assert_eq!(warmed.final_state(&app), naive(&(0..e.len()).collect::<Vec<_>>()));
        for i in 0..warmed.len() {
            prop_assert_eq!(
                warmed.apparent_state_before(&app, i),
                naive(&warmed.record(i).prefix.iter().collect::<Vec<_>>()),
                "apparent state at {}", i
            );
            prop_assert_eq!(
                warmed.actual_state_after(&app, i),
                naive(&(0..=i).collect::<Vec<_>>()),
                "actual state at {}", i
            );
        }
    }
}
