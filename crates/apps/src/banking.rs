//! A highly available bank (§1.1's motivating application).
//!
//! Accounts hold integer cent balances. `WITHDRAW` is a guarded
//! transaction in exactly the airline's mould: its decision part checks
//! the *observed* balance and dispenses cash (an external action that can
//! never be undone); the update it broadcasts debits the account
//! unconditionally. Running against stale replicas can therefore
//! overdraw an account.
//!
//! The integrity constraints follow the paper's model of a *finite
//! collection indexed by I* (§2.2): one "no overdraft" constraint per
//! tracked account, with cost equal to the magnitude of that account's
//! negative balance. With this indexing the §4.1 taxonomy lands exactly
//! as in the airline example: every transaction **preserves** every
//! constraint (a guarded debit believes its own account's post-state is
//! solvent, and cannot touch other accounts' costs), `WITHDRAW`/
//! `TRANSFER` are **unsafe** for their source account's constraint, and
//! `RECONCILE(a)` **compensates** for account `a`'s constraint by
//! sweeping its balance to zero and sending a collection notice. `AUDIT`
//! reads the total and reports it — the transaction §3.2 suggests running
//! with a complete prefix.

use shard_core::{Application, Cost, DecisionOutcome, ExternalAction};
use std::fmt;

/// An account identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountId(pub u32);

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Bank database state: balances in cents (absent account = 0).
///
/// Balances are one array sorted by account, every account touched so
/// far present once (a balance credited back to zero stays). A bank is
/// flat because its hottest clone is the merge log's undo/redo repair:
/// it replays ~30 updates from a copy of a checkpoint, which rewrites most
/// of a 64-account bank, so a tree shared with the checkpoint is copied
/// piecemeal anyway. One 1 KiB copy is cheaper: `sim-partition`
/// `life_p50_us` 10.5 → 5.7 and `apps.apply_ns` 45 → 16 against a
/// `PMap` of balances. The price is memory once banks grow past what
/// any caller uses (DESIGN.md §11: +8 % peak RSS at 512 accounts, +26 %
/// at 4 096, still faster).
///
/// A lookup probes index `a − 1` before it binary-searches: [`Bank`]
/// tracks `A1..=An`, and once every account below `a` is touched, `a`
/// sits exactly there, so the probe hits on every apply of a warmed-up
/// bank. A miss — an untouched lower account, `A0`, an id no bank
/// tracks — falls through to the search.
#[derive(Default, PartialEq, Eq)]
pub struct BankState {
    /// Boxed, not a `Vec`: no spare capacity to clone, and the 16-byte
    /// shallow size `state.clone_bytes` has always counted for a bank.
    balances: Box<[(AccountId, i64)]>,
}

impl Clone for BankState {
    fn clone(&self) -> Self {
        BankState {
            balances: self.balances.clone(),
        }
    }

    /// Copies into the box `self` holds when the two banks hold the same
    /// number of accounts — the undo/redo repair's restore and checkpoint
    /// records, which would otherwise allocate and free 1 KiB each.
    fn clone_from(&mut self, source: &Self) {
        self.balances.clone_from(&source.balances);
    }
}

impl BankState {
    /// Balance of `a` in cents (0 if the account was never touched).
    pub fn balance(&self, a: AccountId) -> i64 {
        self.slot(a).map_or(0, |i| self.balances[i].1)
    }

    /// Total balance over all accounts.
    pub fn total(&self) -> i64 {
        self.balances.iter().map(|&(_, b)| b).sum()
    }

    /// Overdraft magnitude of one account.
    pub fn overdraft(&self, a: AccountId) -> u64 {
        self.balance(a).min(0).unsigned_abs()
    }

    /// Test/helper constructor from `(account, balance)` pairs in any
    /// order; of repeated accounts the last pair wins.
    pub fn with_balances(pairs: &[(AccountId, i64)]) -> Self {
        let mut balances = pairs.to_vec();
        // Stable, so repeats stay in input order; each run of them keeps
        // its first slot and takes its last value.
        balances.sort_by_key(|&(a, _)| a);
        balances.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                kept.1 = later.1;
            }
            repeat
        });
        BankState {
            balances: balances.into(),
        }
    }

    /// Where `a` sits in the array, or would be inserted. Index `a − 1`
    /// first: a bank whose `A1..=An` are all touched keeps `An` there.
    /// Any other id misses the probe and is binary-searched.
    fn slot(&self, a: AccountId) -> Result<usize, usize> {
        let guess = a.0.wrapping_sub(1) as usize;
        match self.balances.get(guess) {
            Some(&(k, _)) if k == a => Ok(guess),
            _ => self.balances.binary_search_by_key(&a, |&(k, _)| k),
        }
    }

    fn credit(&mut self, a: AccountId, amount: i64) {
        match self.slot(a) {
            Ok(i) => self.balances[i].1 += amount,
            Err(i) => {
                let (below, above) = self.balances.split_at(i);
                self.balances = [below, &[(a, amount)], above].concat().into();
            }
        }
    }
}

impl fmt::Debug for BankState {
    /// As a map, `BankState { balances: {AccountId(1): 5} }` — the form
    /// `shard-runtime`'s report digest hashes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs = self.balances.iter().map(|(a, b)| (a, b));
        let map = fmt::from_fn(|f| f.debug_map().entries(pairs.clone()).finish());
        f.debug_struct("BankState").field("balances", &map).finish()
    }
}

/// Bank transactions (decision parts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankTxn {
    /// Deposit cash into an account (always succeeds).
    Deposit(AccountId, u32),
    /// Withdraw cash: dispenses (external action) only if the observed
    /// balance covers the amount; otherwise declines.
    Withdraw(AccountId, u32),
    /// Transfer between accounts if the observed source balance covers it.
    Transfer(AccountId, AccountId, u32),
    /// Compensator for one account's overdraft constraint: if the
    /// observed balance is negative, sweep it to zero and send a
    /// collection notice.
    Reconcile(AccountId),
    /// Read-only audit: reports the observed total balance.
    Audit,
}

/// Bank updates (broadcast, re-runnable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankUpdate {
    /// Credit an account.
    Credit(AccountId, u32),
    /// Debit an account (unconditionally — the guard ran at decision
    /// time).
    Debit(AccountId, u32),
    /// Move money between accounts.
    Move(AccountId, AccountId, u32),
    /// Raise a negative balance to zero.
    Sweep(AccountId),
    /// Identity.
    Noop,
}

/// The bank application: a fixed set of tracked accounts `A1..=An`, each
/// with its own no-overdraft constraint, and a teller debit cap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bank {
    accounts: u32,
    max_debit: u32,
    constraint_names: Vec<String>,
}

impl Bank {
    /// A bank tracking accounts `A1..=An` whose tellers refuse debits
    /// above `max_debit` cents.
    pub fn new(accounts: u32, max_debit: u32) -> Self {
        let constraint_names = (1..=accounts)
            .map(|i| format!("no-overdraft-A{i}"))
            .collect();
        Bank {
            accounts,
            max_debit,
            constraint_names,
        }
    }

    /// The debit cap in cents. This is what makes `f(k) = max_debit · k`
    /// a cost-increase bound for each overdraft constraint (§4.1).
    pub fn max_debit(&self) -> u32 {
        self.max_debit
    }

    /// The tracked accounts.
    pub fn accounts(&self) -> impl Iterator<Item = AccountId> {
        (1..=self.accounts).map(AccountId)
    }

    /// The account whose overdraft constraint has index `i`.
    pub fn constraint_account(&self, i: usize) -> AccountId {
        assert!(i < self.accounts as usize, "unknown constraint {i}");
        AccountId(i as u32 + 1)
    }

    /// The constraint index of account `a` (if tracked).
    pub fn account_constraint(&self, a: AccountId) -> Option<usize> {
        (a.0 >= 1 && a.0 <= self.accounts).then(|| (a.0 - 1) as usize)
    }
}

impl Default for Bank {
    /// Four tracked accounts, $500.00 debit cap.
    fn default() -> Self {
        Bank::new(4, 50_000)
    }
}

impl Application for Bank {
    type State = BankState;
    type Update = BankUpdate;
    type Decision = BankTxn;

    fn initial_state(&self) -> BankState {
        BankState::default()
    }

    fn is_well_formed(&self, _state: &BankState) -> bool {
        true // negative balances are costly but representable
    }

    fn apply_in_place(&self, s: &mut BankState, update: &BankUpdate) {
        match update {
            BankUpdate::Credit(a, amt) => s.credit(*a, *amt as i64),
            BankUpdate::Debit(a, amt) => s.credit(*a, -(*amt as i64)),
            BankUpdate::Move(from, to, amt) => {
                s.credit(*from, -(*amt as i64));
                s.credit(*to, *amt as i64);
            }
            BankUpdate::Sweep(a) => {
                let b = s.balance(*a);
                if b < 0 {
                    s.credit(*a, -b);
                }
            }
            BankUpdate::Noop => {}
        }
    }

    fn state_size_hint(&self, state: &BankState) -> usize {
        std::mem::size_of::<BankState>()
            + state.balances.len() * std::mem::size_of::<(AccountId, i64)>()
    }

    fn decide(&self, decision: &BankTxn, observed: &BankState) -> DecisionOutcome<BankUpdate> {
        match decision {
            BankTxn::Deposit(a, amt) => DecisionOutcome::update_only(BankUpdate::Credit(*a, *amt)),
            BankTxn::Withdraw(a, amt) => {
                if *amt <= self.max_debit && observed.balance(*a) >= *amt as i64 {
                    DecisionOutcome::with_action(
                        BankUpdate::Debit(*a, *amt),
                        ExternalAction::new("dispense-cash", a.to_string()),
                    )
                } else {
                    DecisionOutcome::with_action(
                        BankUpdate::Noop,
                        ExternalAction::new("decline", a.to_string()),
                    )
                }
            }
            BankTxn::Transfer(from, to, amt) => {
                if *amt <= self.max_debit && observed.balance(*from) >= *amt as i64 {
                    DecisionOutcome::update_only(BankUpdate::Move(*from, *to, *amt))
                } else {
                    DecisionOutcome::with_action(
                        BankUpdate::Noop,
                        ExternalAction::new("decline", from.to_string()),
                    )
                }
            }
            BankTxn::Reconcile(a) => {
                if observed.balance(*a) < 0 {
                    DecisionOutcome::with_action(
                        BankUpdate::Sweep(*a),
                        ExternalAction::new("collection-notice", a.to_string()),
                    )
                } else {
                    DecisionOutcome::update_only(BankUpdate::Noop)
                }
            }
            BankTxn::Audit => DecisionOutcome::with_action(
                BankUpdate::Noop,
                ExternalAction::new("audit-report", observed.total().to_string()),
            ),
        }
    }

    fn constraint_count(&self) -> usize {
        self.accounts as usize
    }

    fn constraint_name(&self, i: usize) -> &str {
        &self.constraint_names[i]
    }

    fn cost(&self, state: &BankState, constraint: usize) -> Cost {
        state.overdraft(self.constraint_account(constraint))
    }
}

/// Object structure for partial replication (§6): one object per
/// tracked account. `AUDIT` reads every account, so it must run at a
/// node holding all of them.
impl shard_core::ObjectModel for Bank {
    fn objects(&self) -> Vec<shard_core::ObjectId> {
        self.accounts().map(|a| shard_core::ObjectId(a.0)).collect()
    }

    fn update_objects(&self, update: &BankUpdate) -> Vec<shard_core::ObjectId> {
        match update {
            BankUpdate::Credit(a, _) | BankUpdate::Debit(a, _) | BankUpdate::Sweep(a) => {
                vec![shard_core::ObjectId(a.0)]
            }
            BankUpdate::Move(from, to, _) => {
                vec![shard_core::ObjectId(from.0), shard_core::ObjectId(to.0)]
            }
            BankUpdate::Noop => Vec::new(),
        }
    }

    fn decision_objects(&self, decision: &BankTxn) -> Vec<shard_core::ObjectId> {
        match decision {
            BankTxn::Deposit(a, _) | BankTxn::Withdraw(a, _) | BankTxn::Reconcile(a) => {
                vec![shard_core::ObjectId(a.0)]
            }
            BankTxn::Transfer(from, to, _) => {
                vec![shard_core::ObjectId(from.0), shard_core::ObjectId(to.0)]
            }
            BankTxn::Audit => self.objects(),
        }
    }

    fn project(&self, state: &BankState, o: shard_core::ObjectId) -> String {
        state.balance(AccountId(o.0)).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_core::costs::{compensates_for, is_safe_for, preserves_cost};
    use shard_core::ExecutionBuilder;

    fn a(n: u32) -> AccountId {
        AccountId(n)
    }

    fn space() -> Vec<BankState> {
        let mut states = Vec::new();
        for b1 in [-300i64, -1, 0, 1, 250] {
            for b2 in [-50i64, 0, 400] {
                states.push(BankState::with_balances(&[(a(1), b1), (a(2), b2)]));
            }
        }
        states
    }

    #[test]
    fn deposit_then_withdraw_roundtrip() {
        let app = Bank::default();
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(BankTxn::Deposit(a(1), 1000)).unwrap();
        b.push_complete(BankTxn::Withdraw(a(1), 400)).unwrap();
        let e = b.finish();
        e.verify(&app).unwrap();
        assert_eq!(e.final_state(&app).balance(a(1)), 600);
        assert_eq!(e.record(1).external_actions[0].kind, "dispense-cash");
    }

    #[test]
    fn withdraw_declines_without_funds_or_over_cap() {
        let app = Bank::new(2, 100);
        let s = BankState::with_balances(&[(a(1), 50)]);
        let out = app.decide(&BankTxn::Withdraw(a(1), 80), &s);
        assert_eq!(out.update, BankUpdate::Noop);
        assert_eq!(out.external_actions[0].kind, "decline");
        let s = BankState::with_balances(&[(a(1), 5000)]);
        let out = app.decide(&BankTxn::Withdraw(a(1), 500), &s);
        assert_eq!(out.update, BankUpdate::Noop, "over the teller cap");
    }

    #[test]
    fn stale_replica_overdraws() {
        let app = Bank::default();
        let mut b = ExecutionBuilder::new(&app);
        let d = b.push_complete(BankTxn::Deposit(a(1), 100)).unwrap();
        // Two withdrawals each see only the deposit, not each other.
        b.push(BankTxn::Withdraw(a(1), 100), vec![d]).unwrap();
        b.push(BankTxn::Withdraw(a(1), 100), vec![d]).unwrap();
        let e = b.finish();
        e.verify(&app).unwrap();
        let s = e.final_state(&app);
        assert_eq!(s.balance(a(1)), -100);
        assert_eq!(app.cost(&s, 0), 100);
        assert_eq!(app.total_cost(&s), 100);
    }

    #[test]
    fn transfer_moves_money_conserving_total() {
        let app = Bank::default();
        let s = BankState::with_balances(&[(a(1), 500)]);
        let out = app.decide(&BankTxn::Transfer(a(1), a(2), 200), &s);
        let s2 = app.apply(&s, &out.update);
        assert_eq!(s2.balance(a(1)), 300);
        assert_eq!(s2.balance(a(2)), 200);
        assert_eq!(s2.total(), s.total());
    }

    #[test]
    fn reconcile_sweeps_only_when_overdrawn() {
        let app = Bank::default();
        let s = BankState::with_balances(&[(a(1), -50), (a(2), -300)]);
        let out = app.decide(&BankTxn::Reconcile(a(2)), &s);
        assert_eq!(out.update, BankUpdate::Sweep(a(2)));
        let s2 = app.apply(&s, &out.update);
        assert_eq!(s2.balance(a(2)), 0);
        assert_eq!(app.cost(&s2, app.account_constraint(a(2)).unwrap()), 0);
        assert_eq!(app.cost(&s2, app.account_constraint(a(1)).unwrap()), 50);
        // No-op on a solvent account (A2 was just swept to zero).
        let out = app.decide(&BankTxn::Reconcile(a(2)), &s2);
        assert_eq!(out.update, BankUpdate::Noop);
    }

    #[test]
    fn audit_reports_total() {
        let app = Bank::default();
        let s = BankState::with_balances(&[(a(1), 70), (a(2), -20)]);
        let out = app.decide(&BankTxn::Audit, &s);
        assert_eq!(out.update, BankUpdate::Noop);
        assert_eq!(
            out.external_actions[0],
            ExternalAction::new("audit-report", "50")
        );
    }

    #[test]
    fn classification_matches_the_paper_taxonomy() {
        let app = Bank::new(2, 100);
        let sp = space();
        let c1 = app.account_constraint(a(1)).unwrap();
        let c2 = app.account_constraint(a(2)).unwrap();
        // Deposits and audits are safe everywhere.
        assert!(is_safe_for(&app, &BankTxn::Deposit(a(1), 10), c1, &sp));
        assert!(is_safe_for(&app, &BankTxn::Audit, c1, &sp));
        // Withdraw(a1) is unsafe for a1's constraint, safe for a2's.
        assert!(!is_safe_for(&app, &BankTxn::Withdraw(a(1), 10), c1, &sp));
        assert!(is_safe_for(&app, &BankTxn::Withdraw(a(1), 10), c2, &sp));
        // Everything preserves every constraint (guarded decisions).
        for t in [
            BankTxn::Deposit(a(1), 10),
            BankTxn::Withdraw(a(1), 10),
            BankTxn::Transfer(a(1), a(2), 10),
            BankTxn::Reconcile(a(1)),
            BankTxn::Audit,
        ] {
            assert!(preserves_cost(&app, &t, c1, &sp), "{t:?} must preserve c1");
            assert!(preserves_cost(&app, &t, c2, &sp), "{t:?} must preserve c2");
        }
        // Reconcile(a) compensates exactly its own constraint.
        assert!(compensates_for(&app, &BankTxn::Reconcile(a(1)), c1, &sp));
        assert!(!compensates_for(&app, &BankTxn::Reconcile(a(2)), c1, &sp));
    }

    #[test]
    fn constraint_indexing_roundtrips() {
        let app = Bank::new(3, 100);
        assert_eq!(app.constraint_count(), 3);
        for i in 0..3 {
            let acct = app.constraint_account(i);
            assert_eq!(app.account_constraint(acct), Some(i));
        }
        assert_eq!(app.account_constraint(a(9)), None);
        assert_eq!(app.constraint_name(0), "no-overdraft-A1");
        assert_eq!(app.accounts().count(), 3);
    }

    #[test]
    fn balances_of_untouched_accounts_are_zero() {
        let s = BankState::default();
        assert_eq!(s.balance(a(9)), 0);
        assert_eq!(s.total(), 0);
    }

    /// The most overdrawn balance representable costs 2⁶³, not 0 (and
    /// does not overflow on the way there).
    #[test]
    fn minimum_balance_is_the_largest_overdraft() {
        let s = BankState::with_balances(&[(a(1), i64::MIN), (a(2), 7)]);
        assert_eq!(s.overdraft(a(1)), 1 << 63);
        assert_eq!(Bank::default().cost(&s, 0), 1 << 63);
    }

    /// `shard-runtime`'s report digest hashes this text.
    #[test]
    fn debug_prints_the_balances_as_a_map() {
        let s = BankState::with_balances(&[(a(3), -2), (a(1), 5)]);
        assert_eq!(
            format!("{s:?}"),
            "BankState { balances: {AccountId(1): 5, AccountId(3): -2} }"
        );
    }

    #[test]
    fn sweep_is_noop_on_positive_balance() {
        let app = Bank::default();
        let s = BankState::with_balances(&[(a(1), 70)]);
        assert_eq!(app.apply(&s, &BankUpdate::Sweep(a(1))), s);
    }
}
