//! Online ≡ offline equivalence for the streaming §3 checkers: on
//! random executions from all five applications, the windowed
//! [`StreamChecker`] fold (through `par_check`, at several window
//! sizes) must reach exactly the verdicts of the whole-execution
//! checkers — `max_missed` and `min_delay_bound`, which walk the miss
//! sets on their own, and `transitivity_violation`, the same fold cut
//! at its first violation — and every certificate the checker emits
//! must re-validate through the shared-nothing `shard-trace certify`
//! validator against a JSONL trace synthesized from the same rows. Window sizes {1, 7, 64} cross verdict boundaries at every
//! alignment. `par_check` is a single-threaded fold that ignores its
//! pool, so each case runs once, on the sequential pool.
//!
//! The same executions then take the out-of-core path: rows are
//! serialized into a [`StreamingExecution`] and folded back off the
//! store cursor, and `check_stream` off the store must produce *the same
//! [`StreamReport`]* — verdicts, certificates and all — as `par_check`
//! over the in-memory execution.
//!
//! [`StreamChecker`]: shard::core::StreamChecker
//! [`StreamingExecution`]: shard::core::StreamingExecution
//! [`StreamReport`]: shard::core::StreamReport

use proptest::prelude::*;
use shard::apps::airline::{AirlineTxn, FlyByNight};
use shard::apps::banking::{AccountId, Bank, BankTxn};
use shard::apps::dictionary::{DictTxn, Dictionary};
use shard::apps::inventory::{InvTxn, ItemId, Order, OrderId, Warehouse};
use shard::apps::nameserver::{GroupId, Name, NameServer, NsTxn};
use shard::apps::Person;
use shard::core::conditions::{max_missed, transitivity_violation};
use shard::core::stream::{par_check, rows_from_execution, CERT_SCHEMA};
use shard::core::{
    Application, Certificate, ExecutionBuilder, StreamingExecution, TimedExecution, TxnIndex,
};
use shard::store::{Codec, MemStore};
use shard_pool::PoolConfig;

const WINDOWS: [usize; 3] = [1, 7, 64];

/// One generated transaction: a decision, a miss mask over the eight
/// most recent predecessors, and the time gap since the previous
/// transaction.
type Gen<D> = (D, u64, u64);

/// Builds the timed execution a kernel run would have produced: each
/// transaction sees all predecessors except the masked recent ones,
/// initiation times are the prefix sums of the gaps.
fn timed<A: Application>(app: &A, txns: Vec<Gen<A::Decision>>) -> TimedExecution<A> {
    let mut b = ExecutionBuilder::new(app);
    let mut times = Vec::with_capacity(txns.len());
    let mut now = 0u64;
    for (decision, miss_bits, gap) in txns {
        let i = b.len();
        let missing: Vec<TxnIndex> = (0..8)
            .filter(|bit| miss_bits >> bit & 1 == 1)
            .map(|bit| i.saturating_sub(bit + 1))
            .filter(|&j| j < i)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        b.push_missing(decision, &missing).expect("valid prefix");
        now += gap;
        times.push(now);
    }
    TimedExecution::new(b.finish(), times)
}

/// The property: every window size of the streaming pipeline agrees with the whole-execution fold, every emitted
/// certificate independently re-validates against the row trace, and
/// the store-backed out-of-core path reproduces the in-memory fold and
/// reports exactly.
fn assert_online_matches_offline<A>(app: &A, txns: Vec<Gen<A::Decision>>)
where
    A: Application,
    A::Update: Codec,
{
    let te = timed(app, txns);
    assert_streaming_matches_in_memory(app, &te);
    let offline_max_missed = max_missed(&te.execution);
    let offline_bound = te.min_delay_bound();
    let offline_witness = transitivity_violation(&te.execution)
        .map(|(low, mid, top)| Certificate::Transitivity { low, mid, top });

    // The synthesized trace: exactly the `txn` lines a monitored kernel
    // run (or `shard-trace watch`) would carry.
    let rows = rows_from_execution(&PoolConfig::sequential(), &te);
    let trace: String = rows.iter().map(|r| r.to_json_line() + "\n").collect();

    for window in WINDOWS {
        let report = par_check(&PoolConfig::sequential(), &te, window);
        assert_eq!(report.transitive, offline_witness.is_none());
        assert_eq!(
            report.max_missed, offline_max_missed,
            "window {window}: max_missed"
        );
        assert_eq!(
            report.min_delay_bound, offline_bound,
            "window {window}: delay bound"
        );
        // The first violation, in the one (row, missed, smallest
        // witness) order; `certify` below re-validates it.
        assert_eq!(
            report.violation(),
            offline_witness.as_ref(),
            "window {window}: witness"
        );
        for cert in &report.certificates {
            let v = shard_obs::certify(&trace, &cert.to_json())
                .unwrap_or_else(|e| panic!("certificate {} rejected: {e}", cert.to_json()));
            assert_eq!(v.property, cert.property(), "validated property");
        }
    }
}

/// The out-of-core leg: serialize the execution's rows through a
/// store, then demand the store-backed traversals are *identical* to
/// the in-memory ones — the same actual state at every prefix length
/// and the same `StreamReport` (verdicts *and* certificates; the report is
/// `Eq`) as `par_check` at every window size.
fn assert_streaming_matches_in_memory<A>(app: &A, te: &TimedExecution<A>)
where
    A: Application,
    A::Update: Codec,
{
    // Ground truth: the in-memory actual state at every prefix length
    // 0..=n, exactly as `Execution::fold_actual_states` visits them.
    let mut expected: Vec<A::State> = Vec::with_capacity(te.execution.len() + 1);
    te.execution
        .for_each_actual_state(app, |_, s| expected.push(s.clone()));

    let mut se = StreamingExecution::<A>::new(Box::new(MemStore::new()));
    let rows = rows_from_execution(&PoolConfig::sequential(), te);
    for (rec, row) in te.execution.records().iter().zip(&rows) {
        se.push(row, &rec.update)
            .expect("memory-backed store never fails");
    }

    // Fold equality, state by state: applying the updates the rows
    // hand back off the store cursor, in the order they come, visits
    // exactly the in-memory states — and `final_state` ends on the last.
    let mut state = app.initial_state();
    let mut folded = vec![state.clone()];
    se.for_each_row(|rec| {
        assert_eq!(
            rec.row.index + 1,
            folded.len(),
            "rows come back in serial order"
        );
        app.apply_in_place(&mut state, &rec.update);
        folded.push(state.clone());
    })
    .expect("memory-backed store never fails");
    assert_eq!(folded, expected, "streaming fold ≠ in-memory fold");
    assert_eq!(
        se.final_state(app)
            .expect("memory-backed store never fails"),
        state,
        "final_state off the cursor"
    );

    // Checker equivalence: the single-pass report off the store equals
    // the in-memory check at every window size.
    for window in WINDOWS {
        let streamed = se
            .check_stream(window)
            .expect("memory-backed store never fails");
        let in_memory = par_check(&PoolConfig::sequential(), te, window);
        assert_eq!(
            streamed, in_memory,
            "window {window}: store-backed report diverged"
        );
    }
}

/// The emitter and the independent validator must agree on the schema
/// tag, or every certificate round-trip would fail on shape alone.
#[test]
fn certificate_schema_constants_agree() {
    assert_eq!(CERT_SCHEMA, shard_obs::CERT_SCHEMA);
}

fn airline_txn() -> impl Strategy<Value = AirlineTxn> {
    prop_oneof![
        (1u32..6).prop_map(|p| AirlineTxn::Request(Person(p))),
        (1u32..6).prop_map(|p| AirlineTxn::Cancel(Person(p))),
        Just(AirlineTxn::MoveUp),
        Just(AirlineTxn::MoveDown),
    ]
}

fn bank_txn() -> impl Strategy<Value = BankTxn> {
    prop_oneof![
        ((1u32..4), (1u32..200)).prop_map(|(a, x)| BankTxn::Deposit(AccountId(a), x)),
        ((1u32..4), (1u32..200)).prop_map(|(a, x)| BankTxn::Withdraw(AccountId(a), x)),
        ((1u32..4), (1u32..4), (1u32..100)).prop_map(|(a, b, x)| BankTxn::Transfer(
            AccountId(a),
            AccountId(b),
            x
        )),
        (1u32..4).prop_map(|a| BankTxn::Reconcile(AccountId(a))),
        Just(BankTxn::Audit),
    ]
}

fn dict_txn() -> impl Strategy<Value = DictTxn> {
    prop_oneof![
        ((1u32..8), (1u64..100)).prop_map(|(k, v)| DictTxn::Insert(k, v)),
        (1u32..8).prop_map(DictTxn::Delete),
        (1u32..8).prop_map(DictTxn::Lookup),
    ]
}

fn inventory_txn() -> impl Strategy<Value = InvTxn> {
    let item = 0u32..3;
    let id = 1u32..12;
    prop_oneof![
        (item.clone(), id.clone(), 1u64..5).prop_map(|(i, o, q)| InvTxn::PlaceOrder {
            item: ItemId(i),
            order: Order {
                id: OrderId(o),
                qty: q,
            },
        }),
        (item.clone(), id).prop_map(|(i, o)| InvTxn::CancelOrder {
            item: ItemId(i),
            id: OrderId(o),
        }),
        item.clone()
            .prop_map(|i| InvTxn::Promote { item: ItemId(i) }),
        item.clone()
            .prop_map(|i| InvTxn::Unship { item: ItemId(i) }),
        (item, 1u64..10).prop_map(|(i, q)| InvTxn::Restock {
            item: ItemId(i),
            qty: q,
        }),
    ]
}

fn nameserver_txn() -> impl Strategy<Value = NsTxn> {
    let name = 1u32..8;
    prop_oneof![
        (name.clone(), 1u64..100).prop_map(|(n, a)| NsTxn::Register(Name(n), a)),
        name.clone().prop_map(|n| NsTxn::Deregister(Name(n))),
        ((0u32..3), name.clone()).prop_map(|(g, n)| NsTxn::AddMember(GroupId(g), Name(n))),
        ((0u32..3), name.clone()).prop_map(|(g, n)| NsTxn::RemoveMember(GroupId(g), Name(n))),
        (0u32..3).prop_map(|g| NsTxn::Scavenge(GroupId(g))),
        name.prop_map(|n| NsTxn::Lookup(Name(n))),
    ]
}

/// `(decision, miss mask, time gap)` triples; gaps up to 20 keep the
/// delay-bound witness nontrivial.
fn txns<D: std::fmt::Debug>(
    d: impl Strategy<Value = D>,
) -> impl Strategy<Value = Vec<(D, u64, u64)>> {
    proptest::collection::vec((d, any::<u64>(), 0u64..20), 1..70)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Airline: windowed verdicts equal the whole-execution fold.
    #[test]
    fn airline_stream_matches_offline(t in txns(airline_txn())) {
        assert_online_matches_offline(&FlyByNight::new(2), t);
    }

    /// Banking: windowed verdicts equal the whole-execution fold.
    #[test]
    fn bank_stream_matches_offline(t in txns(bank_txn())) {
        assert_online_matches_offline(&Bank::new(3, 200), t);
    }

    /// Dictionary: windowed verdicts equal the whole-execution fold.
    #[test]
    fn dictionary_stream_matches_offline(t in txns(dict_txn())) {
        assert_online_matches_offline(&Dictionary, t);
    }

    /// Inventory: windowed verdicts equal the whole-execution fold.
    #[test]
    fn inventory_stream_matches_offline(t in txns(inventory_txn())) {
        assert_online_matches_offline(&Warehouse::new(3, 10, 7, 3), t);
    }

    /// Name server: windowed verdicts equal the whole-execution fold.
    #[test]
    fn nameserver_stream_matches_offline(t in txns(nameserver_txn())) {
        assert_online_matches_offline(&NameServer::new(3, 5), t);
    }
}
