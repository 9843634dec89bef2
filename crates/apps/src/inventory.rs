//! Inventory control — the second resource-allocation application the
//! paper's introduction motivates (§1.1) and §2.3 claims the airline
//! prototype generalizes to.
//!
//! A warehouse stocks items; customers place quantity orders. Like the
//! airline, every transaction is split into a decision part (which may
//! confirm or apologize to the customer — external actions) and an
//! unconditional update:
//!
//! * `PLACE-ORDER` — commits the order if the decision sees enough free
//!   stock *and* no queue (confirmation is sent!), else backorders it;
//! * `CANCEL-ORDER` — removes an order wherever it is;
//! * `PROMOTE` — the MOVE-UP analogue: if the first backordered order for
//!   an item fits the observed free stock, confirm and commit it;
//! * `UNSHIP` — the MOVE-DOWN analogue: if an item's committed units
//!   exceed its stock, apologize to the most recent committed order and
//!   demote it to the *front* of the backlog;
//! * `RESTOCK` / `SHRINK` — add stock, or remove it after a guarded
//!   decision (damage write-off).
//!
//! Constraints come in pairs per item, mirroring the airline's:
//! **no oversell** (committed units ≤ stock; cost `over_rate` per excess
//! unit) and **no unnecessary backlog** (cost `under_rate` per unit in
//! the maximal FIFO prefix of the backlog that would fit the free
//! stock). The FIFO-prefix form keeps the §4.1 taxonomy exact under
//! quantities: `PROMOTE` compensates for it and `UNSHIP` preserves it.

use shard_core::{monus, Application, Cost, DecisionOutcome, ExternalAction, PriorityModel};
use std::fmt;

/// An item (SKU) identifier; constraints are indexed per item.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// An order identifier (unique per execution).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderId(pub u32);

impl fmt::Display for OrderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// A quantity order for one item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Order {
    /// Unique order id.
    pub id: OrderId,
    /// Units requested.
    pub qty: u64,
}

/// Per-item state: stock on hand plus the committed and backordered
/// order queues (both FIFO; `UNSHIP` demotes to the backlog *front*,
/// like the airline's move-down).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ItemState {
    /// Units on hand.
    pub stock: u64,
    /// Committed (confirmed) orders, oldest first.
    pub committed: Vec<Order>,
    /// Backordered orders, first in line first.
    pub backlog: Vec<Order>,
}

impl ItemState {
    /// Total committed units.
    pub fn committed_units(&self) -> u64 {
        self.committed.iter().map(|o| o.qty).sum()
    }

    /// Free units: `stock ∸ committed`.
    pub fn available(&self) -> u64 {
        monus(self.stock, self.committed_units())
    }

    /// Units in the maximal FIFO prefix of the backlog that fits the
    /// free stock cumulatively — the "unnecessarily backordered" units.
    pub fn fittable_backlog_units(&self) -> u64 {
        let mut avail = self.available();
        let mut units = 0;
        for o in &self.backlog {
            if o.qty <= avail {
                avail -= o.qty;
                units += o.qty;
            } else {
                break;
            }
        }
        units
    }

    fn find(&self, id: OrderId) -> bool {
        self.committed
            .iter()
            .chain(self.backlog.iter())
            .any(|o| o.id == id)
    }
}

/// Inventory database state: one [`ItemState`] per tracked item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InventoryState {
    items: Vec<ItemState>,
}

impl InventoryState {
    /// State with `n` empty items.
    pub fn empty(n: usize) -> Self {
        InventoryState {
            items: vec![ItemState::default(); n],
        }
    }

    /// The per-item state (items are `I0..In`).
    pub fn item(&self, i: ItemId) -> &ItemState {
        &self.items[i.0 as usize]
    }

    /// All per-item states, in item order.
    pub fn items(&self) -> &[ItemState] {
        &self.items
    }

    /// Builds a state directly from per-item states.
    pub fn from_items(items: Vec<ItemState>) -> Self {
        InventoryState { items }
    }

    fn item_mut(&mut self, i: ItemId) -> &mut ItemState {
        &mut self.items[i.0 as usize]
    }

    /// All order ids currently known, for well-formedness/duplication
    /// checks.
    pub fn all_order_ids(&self) -> Vec<OrderId> {
        self.items
            .iter()
            .flat_map(|it| it.committed.iter().chain(it.backlog.iter()))
            .map(|o| o.id)
            .collect()
    }
}

/// Inventory transactions (decision parts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvTxn {
    /// Place an order for `qty` units of `item`.
    PlaceOrder {
        /// The item ordered.
        item: ItemId,
        /// The order (id + quantity).
        order: Order,
    },
    /// Cancel an order wherever it is.
    CancelOrder {
        /// The item the order was for.
        item: ItemId,
        /// The order to cancel.
        id: OrderId,
    },
    /// Commit the first fitting backordered order (MOVE-UP analogue).
    Promote {
        /// The item whose backlog to promote from.
        item: ItemId,
    },
    /// Demote the most recent committed order if oversold (MOVE-DOWN
    /// analogue).
    Unship {
        /// The item to relieve.
        item: ItemId,
    },
    /// Add stock.
    Restock {
        /// The item restocked.
        item: ItemId,
        /// Units added.
        qty: u64,
    },
    /// Remove stock after checking availability (damage write-off).
    Shrink {
        /// The item written off.
        item: ItemId,
        /// Units removed.
        qty: u64,
    },
}

/// Inventory updates (broadcast, re-runnable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvUpdate {
    /// Append to the committed queue (if the id is unknown).
    Commit(ItemId, Order),
    /// Append to the backlog (if the id is unknown).
    Backlog(ItemId, Order),
    /// Remove the order from both queues.
    Remove(ItemId, OrderId),
    /// Move an order from the backlog to the committed queue.
    Promote(ItemId, OrderId),
    /// Move an order from the committed queue to the backlog front.
    Demote(ItemId, OrderId),
    /// Add stock.
    AddStock(ItemId, u64),
    /// Remove stock (floors at zero).
    SubStock(ItemId, u64),
    /// Identity.
    Noop,
}

/// The inventory-control application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Warehouse {
    items: u32,
    max_qty: u64,
    over_rate: Cost,
    under_rate: Cost,
    constraint_names: Vec<String>,
}

impl Warehouse {
    /// A warehouse tracking `items` SKUs, refusing orders above
    /// `max_qty` units, with the given violation rates per unit.
    pub fn new(items: u32, max_qty: u64, over_rate: Cost, under_rate: Cost) -> Self {
        let mut constraint_names = Vec::new();
        for i in 0..items {
            constraint_names.push(format!("no-oversell-I{i}"));
            constraint_names.push(format!("no-unnecessary-backlog-I{i}"));
        }
        Warehouse {
            items,
            max_qty,
            over_rate,
            under_rate,
            constraint_names,
        }
    }

    /// The per-order quantity cap (bounds `f(k)`).
    pub fn max_qty(&self) -> u64 {
        self.max_qty
    }

    /// Index of item `i`'s oversell constraint.
    pub fn oversell_constraint(&self, i: ItemId) -> usize {
        (i.0 as usize) * 2
    }

    /// Index of item `i`'s unnecessary-backlog constraint.
    pub fn backlog_constraint(&self, i: ItemId) -> usize {
        (i.0 as usize) * 2 + 1
    }

    /// Violation rate per oversold unit.
    pub fn over_rate(&self) -> Cost {
        self.over_rate
    }

    /// Violation rate per unnecessarily backordered unit.
    pub fn under_rate(&self) -> Cost {
        self.under_rate
    }
}

impl Default for Warehouse {
    /// Two items, orders capped at 10 units, $40/$15 rates.
    fn default() -> Self {
        Warehouse::new(2, 10, 40, 15)
    }
}

impl Application for Warehouse {
    type State = InventoryState;
    type Update = InvUpdate;
    type Decision = InvTxn;

    fn initial_state(&self) -> InventoryState {
        InventoryState::empty(self.items as usize)
    }

    fn is_well_formed(&self, state: &InventoryState) -> bool {
        let mut ids = state.all_order_ids();
        ids.sort_unstable();
        ids.windows(2).all(|w| w[0] != w[1])
    }

    fn apply_in_place(&self, s: &mut InventoryState, update: &InvUpdate) {
        match update {
            InvUpdate::Commit(i, o) => {
                if !s.item(*i).find(o.id) {
                    s.item_mut(*i).committed.push(*o);
                }
            }
            InvUpdate::Backlog(i, o) => {
                if !s.item(*i).find(o.id) {
                    s.item_mut(*i).backlog.push(*o);
                }
            }
            InvUpdate::Remove(i, id) => {
                let it = s.item_mut(*i);
                it.committed.retain(|o| o.id != *id);
                it.backlog.retain(|o| o.id != *id);
            }
            InvUpdate::Promote(i, id) => {
                let it = s.item_mut(*i);
                if let Some(pos) = it.backlog.iter().position(|o| o.id == *id) {
                    let o = it.backlog.remove(pos);
                    it.committed.push(o);
                }
            }
            InvUpdate::Demote(i, id) => {
                let it = s.item_mut(*i);
                if let Some(pos) = it.committed.iter().position(|o| o.id == *id) {
                    let o = it.committed.remove(pos);
                    it.backlog.insert(0, o);
                }
            }
            InvUpdate::AddStock(i, q) => s.item_mut(*i).stock += q,
            InvUpdate::SubStock(i, q) => {
                let it = s.item_mut(*i);
                it.stock = monus(it.stock, *q);
            }
            InvUpdate::Noop => {}
        }
    }

    fn state_size_hint(&self, state: &InventoryState) -> usize {
        std::mem::size_of::<InventoryState>()
            + state
                .items
                .iter()
                .map(|it| {
                    std::mem::size_of::<ItemState>()
                        + (it.committed.len() + it.backlog.len()) * std::mem::size_of::<Order>()
                })
                .sum::<usize>()
    }

    fn decide(&self, decision: &InvTxn, observed: &InventoryState) -> DecisionOutcome<InvUpdate> {
        match decision {
            InvTxn::PlaceOrder { item, order } => {
                if order.qty > self.max_qty {
                    return DecisionOutcome::with_action(
                        InvUpdate::Noop,
                        ExternalAction::new("decline-too-large", order.id.to_string()),
                    );
                }
                let it = observed.item(*item);
                if it.backlog.is_empty() && it.available() >= order.qty {
                    DecisionOutcome::with_action(
                        InvUpdate::Commit(*item, *order),
                        ExternalAction::new("confirm", order.id.to_string()),
                    )
                } else {
                    DecisionOutcome::with_action(
                        InvUpdate::Backlog(*item, *order),
                        ExternalAction::new("backorder-notice", order.id.to_string()),
                    )
                }
            }
            InvTxn::CancelOrder { item, id } => {
                DecisionOutcome::update_only(InvUpdate::Remove(*item, *id))
            }
            InvTxn::Promote { item } => {
                let it = observed.item(*item);
                match it.backlog.first() {
                    Some(o) if o.qty <= it.available() => DecisionOutcome::with_action(
                        InvUpdate::Promote(*item, o.id),
                        ExternalAction::new("confirm", o.id.to_string()),
                    ),
                    _ => DecisionOutcome::update_only(InvUpdate::Noop),
                }
            }
            InvTxn::Unship { item } => {
                let it = observed.item(*item);
                if it.committed_units() > it.stock {
                    if let Some(o) = it.committed.last() {
                        return DecisionOutcome::with_action(
                            InvUpdate::Demote(*item, o.id),
                            ExternalAction::new("apologize", o.id.to_string()),
                        );
                    }
                }
                DecisionOutcome::update_only(InvUpdate::Noop)
            }
            InvTxn::Restock { item, qty } => {
                DecisionOutcome::update_only(InvUpdate::AddStock(*item, *qty))
            }
            InvTxn::Shrink { item, qty } => {
                let it = observed.item(*item);
                if it.available() >= *qty {
                    DecisionOutcome::update_only(InvUpdate::SubStock(*item, *qty))
                } else {
                    DecisionOutcome::update_only(InvUpdate::Noop)
                }
            }
        }
    }

    fn constraint_count(&self) -> usize {
        self.items as usize * 2
    }

    fn constraint_name(&self, i: usize) -> &str {
        &self.constraint_names[i]
    }

    fn cost(&self, state: &InventoryState, constraint: usize) -> Cost {
        let item = state.item(ItemId((constraint / 2) as u32));
        if constraint.is_multiple_of(2) {
            self.over_rate * monus(item.committed_units(), item.stock)
        } else {
            self.under_rate * item.fittable_backlog_units()
        }
    }
}

/// Object structure for partial replication (§6): one object per SKU.
/// Every transaction touches exactly one item, so warehouses shard
/// naturally; only `Noop` updates (refused orders, failed promotes)
/// write nothing.
impl shard_core::ObjectModel for Warehouse {
    fn objects(&self) -> Vec<shard_core::ObjectId> {
        (0..self.items).map(shard_core::ObjectId).collect()
    }

    fn update_objects(&self, update: &InvUpdate) -> Vec<shard_core::ObjectId> {
        match update {
            InvUpdate::Commit(i, _)
            | InvUpdate::Backlog(i, _)
            | InvUpdate::Remove(i, _)
            | InvUpdate::Promote(i, _)
            | InvUpdate::Demote(i, _)
            | InvUpdate::AddStock(i, _)
            | InvUpdate::SubStock(i, _) => vec![shard_core::ObjectId(i.0)],
            InvUpdate::Noop => Vec::new(),
        }
    }

    fn decision_objects(&self, decision: &InvTxn) -> Vec<shard_core::ObjectId> {
        match decision {
            InvTxn::PlaceOrder { item, .. }
            | InvTxn::CancelOrder { item, .. }
            | InvTxn::Promote { item }
            | InvTxn::Unship { item }
            | InvTxn::Restock { item, .. }
            | InvTxn::Shrink { item, .. } => vec![shard_core::ObjectId(item.0)],
        }
    }

    fn project(&self, state: &InventoryState, o: shard_core::ObjectId) -> String {
        format!("{:?}", state.item(ItemId(o.0)))
    }
}

impl PriorityModel for Warehouse {
    type Entity = OrderId;

    fn known(&self, state: &InventoryState) -> Vec<OrderId> {
        state.all_order_ids()
    }

    /// Within an item: committed orders precede backordered ones, each
    /// queue in FIFO order. Orders of different items are incomparable.
    fn precedes(&self, state: &InventoryState, p: &OrderId, q: &OrderId) -> bool {
        for it in &state.items {
            let pos = |list: &[Order], x: &OrderId| list.iter().position(|o| o.id == *x);
            let (pc, qc) = (pos(&it.committed, p), pos(&it.committed, q));
            let (pb, qb) = (pos(&it.backlog, p), pos(&it.backlog, q));
            let p_here = pc.is_some() || pb.is_some();
            let q_here = qc.is_some() || qb.is_some();
            if !p_here || !q_here {
                continue;
            }
            return match ((pc, pb), (qc, qb)) {
                ((Some(a), _), (Some(b), _)) => a < b,
                ((Some(_), _), (_, Some(_))) => true,
                ((_, Some(_)), (Some(_), _)) => false,
                ((_, Some(a)), (_, Some(b))) => a < b,
                _ => false,
            };
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_core::costs::{compensates_for, is_safe_for, preserves_cost};
    use shard_core::ExecutionBuilder;

    fn o(id: u32, qty: u64) -> Order {
        Order {
            id: OrderId(id),
            qty,
        }
    }

    const I0: ItemId = ItemId(0);

    fn wh() -> Warehouse {
        Warehouse::new(1, 10, 40, 15)
    }

    /// A structured space over one item: stock 0..=6, up to two orders in
    /// each queue with quantities 1..=3.
    fn space() -> Vec<InventoryState> {
        let mut states = Vec::new();
        let order_sets: Vec<Vec<Order>> = vec![
            vec![],
            vec![o(1, 1)],
            vec![o(1, 3)],
            vec![o(1, 2), o(2, 2)],
            vec![o(1, 3), o(2, 1)],
        ];
        for stock in [0u64, 1, 3, 6] {
            for committed in &order_sets {
                for backlog in &order_sets {
                    // Shift backlog ids to keep ids unique.
                    let backlog: Vec<Order> = backlog
                        .iter()
                        .map(|x| Order {
                            id: OrderId(x.id.0 + 10),
                            qty: x.qty,
                        })
                        .collect();
                    let mut s = InventoryState::empty(1);
                    s.items[0] = ItemState {
                        stock,
                        committed: committed.clone(),
                        backlog,
                    };
                    states.push(s);
                }
            }
        }
        states
    }

    #[test]
    fn order_lifecycle_with_full_information() {
        let app = wh();
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(InvTxn::Restock { item: I0, qty: 5 })
            .unwrap();
        b.push_complete(InvTxn::PlaceOrder {
            item: I0,
            order: o(1, 3),
        })
        .unwrap();
        b.push_complete(InvTxn::PlaceOrder {
            item: I0,
            order: o(2, 3),
        })
        .unwrap();
        let e = b.finish();
        e.verify(&app).unwrap();
        let s = e.final_state(&app);
        // First order confirmed, second backordered (only 2 units left).
        assert_eq!(s.item(I0).committed, vec![o(1, 3)]);
        assert_eq!(s.item(I0).backlog, vec![o(2, 3)]);
        assert_eq!(e.record(1).external_actions[0].kind, "confirm");
        assert_eq!(e.record(2).external_actions[0].kind, "backorder-notice");
        assert_eq!(app.total_cost(&s), 0);
    }

    #[test]
    fn stale_replicas_oversell() {
        let app = wh();
        let mut b = ExecutionBuilder::new(&app);
        let r = b
            .push_complete(InvTxn::Restock { item: I0, qty: 4 })
            .unwrap();
        // Two orders each see only the restock.
        b.push(
            InvTxn::PlaceOrder {
                item: I0,
                order: o(1, 4),
            },
            vec![r],
        )
        .unwrap();
        b.push(
            InvTxn::PlaceOrder {
                item: I0,
                order: o(2, 4),
            },
            vec![r],
        )
        .unwrap();
        let e = b.finish();
        let s = e.final_state(&app);
        assert_eq!(s.item(I0).committed_units(), 8);
        assert_eq!(app.cost(&s, app.oversell_constraint(I0)), 40 * 4);
    }

    #[test]
    fn unship_relieves_oversell_and_apologizes() {
        let app = wh();
        let mut s = InventoryState::empty(1);
        s.items[0] = ItemState {
            stock: 4,
            committed: vec![o(1, 4), o(2, 4)],
            backlog: vec![],
        };
        let out = app.decide(&InvTxn::Unship { item: I0 }, &s);
        assert_eq!(out.update, InvUpdate::Demote(I0, OrderId(2)));
        assert_eq!(out.external_actions[0].kind, "apologize");
        let s2 = app.apply(&s, &out.update);
        assert_eq!(s2.item(I0).committed, vec![o(1, 4)]);
        assert_eq!(s2.item(I0).backlog, vec![o(2, 4)]); // front
        assert_eq!(app.cost(&s2, app.oversell_constraint(I0)), 0);
        // The demoted order does not fit (4 > 0 available) so the
        // backlog constraint is also satisfied — UNSHIP preserved it.
        assert_eq!(app.cost(&s2, app.backlog_constraint(I0)), 0);
    }

    #[test]
    fn promote_commits_first_fitting_backorder() {
        let app = wh();
        let mut s = InventoryState::empty(1);
        s.items[0] = ItemState {
            stock: 5,
            committed: vec![],
            backlog: vec![o(1, 3), o(2, 3)],
        };
        let out = app.decide(&InvTxn::Promote { item: I0 }, &s);
        assert_eq!(out.update, InvUpdate::Promote(I0, OrderId(1)));
        let s2 = app.apply(&s, &out.update);
        assert_eq!(s2.item(I0).committed, vec![o(1, 3)]);
        // Second order (3 units) no longer fits in the remaining 2.
        assert_eq!(app.cost(&s2, app.backlog_constraint(I0)), 0);
        // Promote is a noop when the head does not fit.
        let out = app.decide(&InvTxn::Promote { item: I0 }, &s2);
        assert_eq!(out.update, InvUpdate::Noop);
    }

    #[test]
    fn fittable_backlog_is_fifo_prefix() {
        let it = ItemState {
            stock: 5,
            committed: vec![],
            backlog: vec![o(1, 2), o(2, 2), o(3, 2)],
        };
        // 2 + 2 fit, the third does not (cumulative 6 > 5).
        assert_eq!(it.fittable_backlog_units(), 4);
        // A large head blocks the whole queue (strict FIFO).
        let it = ItemState {
            stock: 5,
            committed: vec![],
            backlog: vec![o(1, 9), o(2, 1)],
        };
        assert_eq!(it.fittable_backlog_units(), 0);
    }

    #[test]
    fn classification_matches_airline_taxonomy() {
        let app = wh();
        let sp = space();
        let over = app.oversell_constraint(I0);
        let under = app.backlog_constraint(I0);
        let place = InvTxn::PlaceOrder {
            item: I0,
            order: o(99, 2),
        };
        let cancel = InvTxn::CancelOrder {
            item: I0,
            id: OrderId(1),
        };
        let promote = InvTxn::Promote { item: I0 };
        let unship = InvTxn::Unship { item: I0 };
        let restock = InvTxn::Restock { item: I0, qty: 2 };
        let shrink = InvTxn::Shrink { item: I0, qty: 2 };

        // Oversell: only PROMOTE is unsafe (it alone can raise committed
        // above stock — PLACE-ORDER's guard fires only on empty backlog,
        // but the update is a Commit, which *is* increasing, so place is
        // unsafe too); everyone preserves it.
        assert!(!is_safe_for(&app, &promote, over, &sp));
        assert!(!is_safe_for(&app, &place, over, &sp));
        assert!(is_safe_for(&app, &cancel, over, &sp));
        assert!(is_safe_for(&app, &unship, over, &sp));
        assert!(is_safe_for(&app, &restock, over, &sp));
        for t in [place, cancel, promote, unship, restock, shrink] {
            assert!(
                preserves_cost(&app, &t, over, &sp),
                "{t:?} preserves oversell"
            );
        }
        // Backlog constraint: PROMOTE and UNSHIP preserve it; PROMOTE
        // compensates; UNSHIP compensates for oversell.
        assert!(preserves_cost(&app, &promote, under, &sp));
        assert!(preserves_cost(&app, &unship, under, &sp));
        assert!(compensates_for(&app, &promote, under, &sp));
        assert!(compensates_for(&app, &unship, over, &sp));
        // PLACE-ORDER and RESTOCK do not preserve the backlog constraint
        // (same as REQUEST/CANCEL for underbooking).
        assert!(!preserves_cost(&app, &place, under, &sp));
        assert!(!preserves_cost(&app, &restock, under, &sp));
    }

    #[test]
    fn oversized_orders_are_declined() {
        let app = wh();
        let s = app.initial_state();
        let out = app.decide(
            &InvTxn::PlaceOrder {
                item: I0,
                order: o(1, 99),
            },
            &s,
        );
        assert_eq!(out.update, InvUpdate::Noop);
        assert_eq!(out.external_actions[0].kind, "decline-too-large");
    }

    #[test]
    fn shrink_is_guarded() {
        let app = wh();
        let mut s = InventoryState::empty(1);
        s.items[0] = ItemState {
            stock: 5,
            committed: vec![o(1, 4)],
            backlog: vec![],
        };
        // Available = 1: shrink of 2 declined, shrink of 1 allowed.
        let out = app.decide(&InvTxn::Shrink { item: I0, qty: 2 }, &s);
        assert_eq!(out.update, InvUpdate::Noop);
        let out = app.decide(&InvTxn::Shrink { item: I0, qty: 1 }, &s);
        assert_eq!(out.update, InvUpdate::SubStock(I0, 1));
    }

    #[test]
    fn duplicate_order_ids_are_ill_formed_and_ignored_by_updates() {
        let app = wh();
        let mut s = InventoryState::empty(1);
        s.items[0].committed.push(o(1, 2));
        // Re-committing the same id is a no-op (the §5.1 duplicate
        // policy, transplanted).
        let s2 = app.apply(&s, &InvUpdate::Commit(I0, o(1, 2)));
        assert_eq!(s, s2);
        let s3 = app.apply(&s, &InvUpdate::Backlog(I0, o(1, 2)));
        assert_eq!(s, s3);
        // A hand-built duplicate is rejected by well-formedness.
        let mut bad = s.clone();
        bad.items[0].backlog.push(o(1, 2));
        assert!(!app.is_well_formed(&bad));
    }

    #[test]
    fn priority_within_item() {
        let app = wh();
        let mut s = InventoryState::empty(1);
        s.items[0] = ItemState {
            stock: 0,
            committed: vec![o(1, 1), o(2, 1)],
            backlog: vec![o(3, 1)],
        };
        assert!(app.precedes(&s, &OrderId(1), &OrderId(2)));
        assert!(app.precedes(&s, &OrderId(2), &OrderId(3)));
        assert!(!app.precedes(&s, &OrderId(3), &OrderId(1)));
        assert_eq!(app.known(&s).len(), 3);
    }

    #[test]
    fn constraint_indexing() {
        let app = Warehouse::new(2, 10, 40, 15);
        assert_eq!(app.constraint_count(), 4);
        assert_eq!(app.oversell_constraint(ItemId(1)), 2);
        assert_eq!(app.backlog_constraint(ItemId(1)), 3);
        assert_eq!(app.constraint_name(2), "no-oversell-I1");
        assert_eq!(app.constraint_name(3), "no-unnecessary-backlog-I1");
    }
}
