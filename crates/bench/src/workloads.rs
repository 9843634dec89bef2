//! Workload builders shared by the experiments: airline, banking and
//! inventory invocation schedules for the simulator, and builder-based
//! executions with controlled k-incompleteness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_apps::airline::workload::{AirlineMix, AirlineWorkload};
use shard_apps::airline::{AirlineTxn, FlyByNight};
use shard_core::{Application, Execution, ExecutionBuilder, TxnIndex};
use shard_sim::events::SimTime;
use shard_sim::{Invocation, NodeId, Placement};

/// How transactions are routed to nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// Uniformly random node per transaction.
    Random,
    /// MOVE-UP / MOVE-DOWN always at node 0 (the "agent"), everything
    /// else random — the centralization discipline of §5.4/§5.5.
    CentralizedMovers,
    /// Like `CentralizedMovers`, and additionally all transactions for a
    /// given person run at a node determined by the person (Theorem 22's
    /// per-person centralization).
    CentralizedMoversAndPeople,
}

/// Builds a simulator invocation schedule from the standard airline
/// workload: `n` transactions with exponential-ish spacing of mean
/// `mean_gap`, routed per `routing` over `nodes` nodes.
pub fn airline_invocations(
    seed: u64,
    n: usize,
    nodes: u16,
    mean_gap: SimTime,
    mix: AirlineMix,
    routing: Routing,
) -> Vec<Invocation<AirlineTxn>> {
    let mut wl = AirlineWorkload::new(seed, mix);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut t: SimTime = 0;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let gap = if mean_gap == 0 {
            0
        } else {
            // Geometric-ish integer gaps with the requested mean.
            1 + (-(1.0 - rng.random::<f64>().min(0.999_999)).ln() * mean_gap as f64) as SimTime
        };
        t += gap;
        let txn = wl.next_txn();
        let node = match routing {
            Routing::Random => NodeId(rng.random_range(0..nodes)),
            Routing::CentralizedMovers => match txn {
                AirlineTxn::MoveUp | AirlineTxn::MoveDown => NodeId(0),
                _ => NodeId(rng.random_range(0..nodes)),
            },
            Routing::CentralizedMoversAndPeople => match txn {
                AirlineTxn::MoveUp | AirlineTxn::MoveDown => NodeId(0),
                AirlineTxn::Request(p) | AirlineTxn::Cancel(p) => {
                    NodeId((p.0 % nodes as u32) as u16)
                }
            },
        };
        out.push(Invocation::new(t, node, txn));
    }
    out
}

/// Builds an execution directly (no simulator) in which every
/// transaction misses up to `k` uniformly chosen *recent* predecessors —
/// the controlled-k workload of experiments E02/E03. The recency window
/// models the reality that old updates have long since propagated.
pub fn airline_execution_with_k(
    app: &FlyByNight,
    seed: u64,
    n: usize,
    k: usize,
    mix: AirlineMix,
) -> Execution<FlyByNight> {
    let mut wl = AirlineWorkload::new(seed, mix);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut b = ExecutionBuilder::new(app);
    const WINDOW: usize = 32;
    for i in 0..n {
        let txn = wl.next_txn();
        let missing = if k == 0 || i == 0 {
            Vec::new()
        } else {
            let miss_count = rng.random_range(0..=k.min(i));
            let lo = i.saturating_sub(WINDOW);
            let mut m: Vec<TxnIndex> = Vec::new();
            let mut guard = 0;
            while m.len() < miss_count && guard < 10 * k {
                let cand = rng.random_range(lo..i);
                if !m.contains(&cand) {
                    m.push(cand);
                }
                guard += 1;
            }
            m
        };
        b.push_missing(txn, &missing).expect("valid prefix");
    }
    b.finish()
}

/// Appends MOVE-UPs after each REQUEST/CANCEL so the execution admits a
/// grouping for the underbooking constraint (Theorem 9's hypothesis):
/// after every non-mover, movers run with the same controlled-k noise
/// until the *apparent* underbooking cost is zero.
pub fn airline_execution_grouped(
    app: &FlyByNight,
    seed: u64,
    n_base: usize,
    k: usize,
    mix: AirlineMix,
) -> Execution<FlyByNight> {
    let mut wl = AirlineWorkload::new(seed, mix);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mut b = ExecutionBuilder::new(app);
    const WINDOW: usize = 32;
    let draw_missing = |i: usize, rng: &mut StdRng| -> Vec<TxnIndex> {
        if k == 0 || i == 0 {
            return Vec::new();
        }
        let miss_count = rng.random_range(0..=k.min(i));
        let lo = i.saturating_sub(WINDOW);
        let mut m: Vec<TxnIndex> = Vec::new();
        let mut guard = 0;
        while m.len() < miss_count && guard < 10 * k {
            let cand = rng.random_range(lo..i);
            if !m.contains(&cand) {
                m.push(cand);
            }
            guard += 1;
        }
        m
    };
    for _ in 0..n_base {
        // One base transaction (skip generated movers; we add our own).
        let txn = loop {
            match wl.next_txn() {
                AirlineTxn::MoveUp | AirlineTxn::MoveDown => continue,
                t => break t,
            }
        };
        let i = b.len();
        let missing = draw_missing(i, &mut rng);
        let idx = b.push_missing(txn, &missing).expect("valid prefix");
        // Close the group: movers until the apparent cost after is 0.
        let mut last = idx;
        for _ in 0..1000 {
            let after = b.execution().apparent_state_after(app, last);
            if app.cost(&after, shard_apps::airline::UNDERBOOKING) == 0 {
                break;
            }
            let i = b.len();
            let missing = draw_missing(i, &mut rng);
            last = b
                .push_missing(AirlineTxn::MoveUp, &missing)
                .expect("valid prefix");
        }
    }
    b.finish()
}

/// A randomized banking workload: deposits, guarded withdrawals,
/// transfers, reconciliations and audits over `accounts` accounts,
/// routed uniformly over `nodes` nodes.
pub fn bank_invocations(
    seed: u64,
    n: usize,
    nodes: u16,
    accounts: u32,
    max_debit: u32,
) -> Vec<Invocation<shard_apps::banking::BankTxn>> {
    use shard_apps::banking::{AccountId, BankTxn};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.random_range(1..=10u64);
        let a = AccountId(rng.random_range(1..=accounts));
        let txn = match rng.random_range(0..100) {
            0..35 => BankTxn::Deposit(a, rng.random_range(1..=max_debit)),
            35..75 => BankTxn::Withdraw(a, rng.random_range(1..=max_debit)),
            75..90 => {
                let b = AccountId(rng.random_range(1..=accounts));
                BankTxn::Transfer(a, b, rng.random_range(1..=max_debit))
            }
            90..98 => BankTxn::Reconcile(a),
            _ => BankTxn::Audit,
        };
        out.push(Invocation::new(t, NodeId(rng.random_range(0..nodes)), txn));
    }
    out
}

/// A randomized banking workload over a partially replicated bank
/// (E16, E20): `n` deposits (60 %) and withdrawals over every account
/// of `app`, 1–8 ticks apart, each sent to a uniformly random node that
/// `placement` has hold what its decision reads.
pub fn placed_bank_invocations(
    app: &shard_apps::banking::Bank,
    placement: &Placement,
    seed: u64,
    n: usize,
) -> Vec<Invocation<shard_apps::banking::BankTxn>> {
    use shard_apps::banking::{AccountId, BankTxn};
    use shard_core::ObjectModel;
    let (accounts, max_debit) = (app.accounts().count() as u32, app.max_debit());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.random_range(1..=8);
        let a = AccountId(rng.random_range(1..=accounts));
        let txn = if rng.random_bool(0.6) {
            BankTxn::Deposit(a, rng.random_range(1..=max_debit))
        } else {
            BankTxn::Withdraw(a, rng.random_range(1..=max_debit))
        };
        let reads = app.decision_objects(&txn);
        let holders: Vec<_> = (0..placement.nodes())
            .map(NodeId)
            .filter(|n| placement.holds_all(*n, &reads))
            .collect();
        let node = holders[rng.random_range(0..holders.len())];
        out.push(Invocation::new(t, node, txn));
    }
    out
}

/// A randomized inventory workload: orders with fresh ids, restocks,
/// cancellations, and the PROMOTE/UNSHIP compensators.
pub fn inventory_invocations(
    seed: u64,
    n: usize,
    nodes: u16,
    items: u32,
    max_qty: u64,
) -> Vec<Invocation<shard_apps::inventory::InvTxn>> {
    use shard_apps::inventory::{InvTxn, ItemId, Order, OrderId};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    let mut next_order = 1u32;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.random_range(1..=8u64);
        let item = ItemId(rng.random_range(0..items));
        let txn = match rng.random_range(0..100) {
            0..40 => {
                let order = Order {
                    id: OrderId(next_order),
                    qty: rng.random_range(1..=max_qty),
                };
                next_order += 1;
                InvTxn::PlaceOrder { item, order }
            }
            40..55 => InvTxn::Restock {
                item,
                qty: rng.random_range(1..=3 * max_qty),
            },
            55..60 => InvTxn::CancelOrder {
                item,
                id: OrderId(rng.random_range(1..next_order.max(2))),
            },
            60..80 => InvTxn::Promote { item },
            80..95 => InvTxn::Unship { item },
            _ => InvTxn::Shrink {
                item,
                qty: rng.random_range(1..=max_qty),
            },
        };
        out.push(Invocation::new(t, NodeId(rng.random_range(0..nodes)), txn));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_core::conditions;

    #[test]
    fn bank_workload_is_deterministic_and_routed() {
        let a = bank_invocations(7, 300, 4, 3, 100);
        let b = bank_invocations(7, 300, 4, 3, 100);
        assert_eq!(a.len(), 300);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.node, y.node);
            assert!(x.node.0 < 4);
        }
        assert!(a.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn inventory_workload_uses_fresh_order_ids() {
        use shard_apps::inventory::InvTxn;
        let invs = inventory_invocations(9, 400, 3, 2, 5);
        let mut ids = Vec::new();
        for inv in &invs {
            if let InvTxn::PlaceOrder { order, .. } = inv.decision {
                assert!(!ids.contains(&order.id), "order id reused");
                ids.push(order.id);
                assert!(order.qty >= 1 && order.qty <= 5);
            }
        }
        assert!(!ids.is_empty());
    }

    #[test]
    fn invocations_are_time_ordered_and_routed() {
        let invs = airline_invocations(
            1,
            200,
            4,
            10,
            AirlineMix::default(),
            Routing::CentralizedMovers,
        );
        assert_eq!(invs.len(), 200);
        assert!(invs.windows(2).all(|w| w[0].time <= w[1].time));
        for inv in &invs {
            if matches!(inv.decision, AirlineTxn::MoveUp | AirlineTxn::MoveDown) {
                assert_eq!(inv.node, NodeId(0));
            }
            assert!(inv.node.0 < 4);
        }
    }

    #[test]
    fn person_routing_is_consistent() {
        let invs = airline_invocations(
            2,
            300,
            3,
            5,
            AirlineMix::default(),
            Routing::CentralizedMoversAndPeople,
        );
        for inv in &invs {
            if let AirlineTxn::Request(p) | AirlineTxn::Cancel(p) = inv.decision {
                assert_eq!(inv.node, NodeId((p.0 % 3) as u16));
            }
        }
    }

    #[test]
    fn controlled_k_execution_respects_k() {
        let app = FlyByNight::new(5);
        let e = airline_execution_with_k(&app, 3, 150, 4, AirlineMix::default());
        e.verify(&app).unwrap();
        assert!(conditions::max_missed(&e) <= 4);
        // k=0 means serial.
        let e0 = airline_execution_with_k(&app, 3, 50, 0, AirlineMix::default());
        assert_eq!(conditions::max_missed(&e0), 0);
    }

    #[test]
    fn grouped_execution_admits_a_grouping() {
        let app = FlyByNight::new(3);
        let e = airline_execution_grouped(&app, 5, 40, 2, AirlineMix::default());
        e.verify(&app).unwrap();
        let underbooking = shard_apps::airline::UNDERBOOKING;
        let g = shard_core::Grouping::discover(&app, &e, underbooking, |d| {
            app.preserves(d, underbooking)
        });
        assert!(g.is_some(), "constructed to admit a grouping");
    }
}
