//! A Grapevine-style replicated name server — §6: "it has been claimed
//! that name servers such as Grapevine \[B\] have interesting but
//! nonserializable behavior; it seems likely that they can be described
//! within our framework." Here is that description.
//!
//! The database maps individual *names* to addresses and maintains
//! *distribution groups* (ordered member lists). Registrations and group
//! edits happen at whichever replica the administrator reaches, so a
//! member can be added to a group concurrently with the member's
//! deregistration — leaving a **dangling member**, Grapevine's classic
//! anomaly. In the paper's vocabulary:
//!
//! * one **referential-integrity constraint per group** (§2.2's finite
//!   indexed collection): cost = `rate ×` the number of members of that
//!   group without a registration;
//! * `ADD-MEMBER` is guarded (the decision only adds members it can see
//!   registered) — *unsafe* for its group's constraint but
//!   *cost-preserving*, exactly like MOVE-UP;
//! * `DEREGISTER` is unconditional — unsafe *and* non-preserving for
//!   every group's constraint, like REQUEST/CANCEL for underbooking;
//! * `SCAVENGE(g)` **compensates** for group `g`'s constraint: it
//!   removes one dangling member the decision can see;
//! * `LOOKUP` reports the observed binding (stale reads become visible
//!   external actions).
//!
//! Each missed update changes a group's dangling count by at most one,
//! so `f(k) = rate·k` bounds the cost increase — Corollary 8 transplants
//! yet again (experiment E19).

use shard_core::{Application, Cost, DecisionOutcome, ExternalAction, PMap};
use std::fmt;

/// A registered (or registrable) name. Individuals and groups share the
/// namespace; `N1..=Nn` are individuals, `G0..` name groups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(pub u32);

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Index of a distribution group (`0..groups`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Name-server state: registrations and group member lists.
///
/// Registrations are a [`PMap`] (clones share structure); the member
/// lists stay `Vec`s because group order *is* the data — §4.2 priority
/// is list position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NsState {
    registrations: PMap<Name, u64>, // name → address
    groups: Vec<Vec<Name>>,         // member lists, duplicate-free
}

impl NsState {
    /// State with `groups` empty groups and no registrations.
    pub fn empty(groups: usize) -> Self {
        NsState {
            registrations: PMap::new(),
            groups: vec![Vec::new(); groups],
        }
    }

    /// The registered address of `n`, if any.
    pub fn address(&self, n: Name) -> Option<u64> {
        self.registrations.get(&n).copied()
    }

    /// Whether `n` is registered.
    pub fn is_registered(&self, n: Name) -> bool {
        self.registrations.contains_key(&n)
    }

    /// Members of group `g`.
    pub fn members(&self, g: GroupId) -> &[Name] {
        &self.groups[g.0 as usize]
    }

    /// The members of `g` lacking a registration — the dangling set.
    pub fn dangling(&self, g: GroupId) -> Vec<Name> {
        self.members(g)
            .iter()
            .copied()
            .filter(|m| !self.is_registered(*m))
            .collect()
    }
}

/// Name-server transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NsTxn {
    /// Bind `name` to `address`.
    Register(Name, u64),
    /// Remove the binding unconditionally (the anomaly source).
    Deregister(Name),
    /// Add `member` to `group` — only if the decision sees it registered.
    AddMember(GroupId, Name),
    /// Remove `member` from `group`.
    RemoveMember(GroupId, Name),
    /// Compensator: remove one dangling member the decision can see.
    Scavenge(GroupId),
    /// Report the observed binding of `name`.
    Lookup(Name),
}

/// Name-server updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NsUpdate {
    /// Bind.
    SetAddress(Name, u64),
    /// Unbind.
    RemoveName(Name),
    /// Append to the group (if absent).
    AddMember(GroupId, Name),
    /// Remove from the group.
    RemoveMember(GroupId, Name),
    /// Identity.
    Noop,
}

/// The replicated name server: a fixed set of groups and the dangling
/// cost rate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NameServer {
    groups: u32,
    rate: Cost,
    constraint_names: Vec<String>,
}

impl NameServer {
    /// A server with `groups` distribution groups and the given cost per
    /// dangling member.
    pub fn new(groups: u32, rate: Cost) -> Self {
        let constraint_names = (0..groups)
            .map(|g| format!("no-dangling-members-G{g}"))
            .collect();
        NameServer {
            groups,
            rate,
            constraint_names,
        }
    }
}

impl Default for NameServer {
    /// Four groups, $25 per dangling member (a mis-routed message).
    fn default() -> Self {
        NameServer::new(4, 25)
    }
}

impl Application for NameServer {
    type State = NsState;
    type Update = NsUpdate;
    type Decision = NsTxn;

    fn initial_state(&self) -> NsState {
        NsState::empty(self.groups as usize)
    }

    fn is_well_formed(&self, state: &NsState) -> bool {
        state.groups.len() == self.groups as usize
            && state.groups.iter().all(|g| {
                let mut v = g.clone();
                v.sort_unstable();
                v.windows(2).all(|w| w[0] != w[1])
            })
    }

    fn apply_in_place(&self, s: &mut NsState, update: &NsUpdate) {
        match update {
            NsUpdate::SetAddress(n, a) => {
                s.registrations.insert(*n, *a);
            }
            NsUpdate::RemoveName(n) => {
                s.registrations.remove(n);
            }
            NsUpdate::AddMember(g, m) => {
                let list = &mut s.groups[g.0 as usize];
                if !list.contains(m) {
                    list.push(*m);
                }
            }
            NsUpdate::RemoveMember(g, m) => {
                s.groups[g.0 as usize].retain(|x| x != m);
            }
            NsUpdate::Noop => {}
        }
    }

    fn state_size_hint(&self, state: &NsState) -> usize {
        std::mem::size_of::<NsState>()
            + state.registrations.len() * std::mem::size_of::<(Name, u64)>()
            + state
                .groups
                .iter()
                .map(|g| g.len() * std::mem::size_of::<Name>())
                .sum::<usize>()
    }

    fn decide(&self, decision: &NsTxn, observed: &NsState) -> DecisionOutcome<NsUpdate> {
        match decision {
            NsTxn::Register(n, a) => DecisionOutcome::update_only(NsUpdate::SetAddress(*n, *a)),
            NsTxn::Deregister(n) => DecisionOutcome::update_only(NsUpdate::RemoveName(*n)),
            NsTxn::AddMember(g, m) => {
                // Guarded twice, so the transaction *preserves* its
                // group's cost in the §4.1 sense (the paper's guideline
                // for application designers): the member must look
                // registered, and the group must look clean — a grow
                // operation never believes it leaves a dangling member
                // behind.
                if observed.is_registered(*m) && observed.dangling(*g).is_empty() {
                    DecisionOutcome::update_only(NsUpdate::AddMember(*g, *m))
                } else {
                    DecisionOutcome::with_action(
                        NsUpdate::Noop,
                        ExternalAction::new("reject-add", format!("{g}:{m}")),
                    )
                }
            }
            NsTxn::RemoveMember(g, m) => {
                DecisionOutcome::update_only(NsUpdate::RemoveMember(*g, *m))
            }
            NsTxn::Scavenge(g) => match observed.dangling(*g).first() {
                Some(m) => DecisionOutcome::with_action(
                    NsUpdate::RemoveMember(*g, *m),
                    ExternalAction::new("scavenged", format!("{g}:{m}")),
                ),
                None => DecisionOutcome::update_only(NsUpdate::Noop),
            },
            NsTxn::Lookup(n) => DecisionOutcome::with_action(
                NsUpdate::Noop,
                ExternalAction::new(
                    "lookup-result",
                    match observed.address(*n) {
                        Some(a) => format!("{n}@{a}"),
                        None => format!("{n}@∅"),
                    },
                ),
            ),
        }
    }

    fn constraint_count(&self) -> usize {
        self.groups as usize
    }

    fn constraint_name(&self, i: usize) -> &str {
        &self.constraint_names[i]
    }

    fn cost(&self, state: &NsState, constraint: usize) -> Cost {
        self.rate * state.dangling(GroupId(constraint as u32)).len() as Cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_core::costs::{compensates_for, is_safe_for, preserves_cost};
    use shard_core::ExecutionBuilder;

    fn n(i: u32) -> Name {
        Name(i)
    }

    fn with(registrations: &[(Name, u64)], groups: Vec<Vec<Name>>) -> NsState {
        let registrations = registrations.iter().copied().collect();
        NsState {
            registrations,
            groups,
        }
    }
    const G0: GroupId = GroupId(0);
    const G1: GroupId = GroupId(1);

    fn ns() -> NameServer {
        NameServer::new(2, 25)
    }

    /// Structured state space over two names and two groups.
    fn space() -> Vec<NsState> {
        let mut out = Vec::new();
        let reg_options: Vec<Vec<(Name, u64)>> = vec![
            vec![],
            vec![(n(1), 10)],
            vec![(n(2), 20)],
            vec![(n(1), 10), (n(2), 20)],
        ];
        let member_options: Vec<Vec<Name>> = vec![vec![], vec![n(1)], vec![n(2)], vec![n(1), n(2)]];
        for regs in &reg_options {
            for g0 in &member_options {
                for g1 in &member_options {
                    out.push(with(regs, vec![g0.clone(), g1.clone()]));
                }
            }
        }
        out
    }

    #[test]
    fn registration_lifecycle() {
        let app = ns();
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(NsTxn::Register(n(1), 42)).unwrap();
        b.push_complete(NsTxn::AddMember(G0, n(1))).unwrap();
        let look = b.push_complete(NsTxn::Lookup(n(1))).unwrap();
        let e = b.finish();
        e.verify(&app).unwrap();
        let s = e.final_state(&app);
        assert_eq!(s.address(n(1)), Some(42));
        assert_eq!(s.members(G0), &[n(1)]);
        assert_eq!(e.record(look).external_actions[0].subject, "N1@42");
        assert_eq!(app.total_cost(&s), 0);
    }

    #[test]
    fn guarded_add_member_rejects_unknown_names() {
        let app = ns();
        let s = app.initial_state();
        let out = app.decide(&NsTxn::AddMember(G0, n(9)), &s);
        assert_eq!(out.update, NsUpdate::Noop);
        assert_eq!(out.external_actions[0].kind, "reject-add");
        // A dirty group also refuses to grow (the preserving guard).
        let dirty = with(&[(n(1), 10)], vec![vec![n(2)], vec![]]);
        let out = app.decide(&NsTxn::AddMember(G0, n(1)), &dirty);
        assert_eq!(out.update, NsUpdate::Noop);
    }

    #[test]
    fn concurrent_deregister_leaves_dangling_member() {
        // The Grapevine anomaly: the add sees the registration; the
        // deregistration races it.
        let app = ns();
        let mut b = ExecutionBuilder::new(&app);
        let reg = b.push_complete(NsTxn::Register(n(1), 42)).unwrap();
        // The admin adds N1 to G0, seeing only the registration…
        b.push(NsTxn::AddMember(G0, n(1)), vec![reg]).unwrap();
        // …while another replica processes the deregistration without
        // seeing the add.
        let mut e = b.finish();
        use shard_core::TxnRecord;
        e.push_record(TxnRecord {
            decision: NsTxn::Deregister(n(1)),
            prefix: [reg].into_iter().collect(),
            update: NsUpdate::RemoveName(n(1)),
            external_actions: vec![],
        });
        e.verify(&app).unwrap();
        let s = e.final_state(&app);
        assert_eq!(s.dangling(G0), vec![n(1)]);
        assert_eq!(app.cost(&s, 0), 25);
        assert_eq!(app.cost(&s, 1), 0);
    }

    #[test]
    fn scavenge_repairs_one_dangling_member() {
        let app = ns();
        let s = with(&[], vec![vec![n(1), n(2)], vec![]]);
        let out = app.decide(&NsTxn::Scavenge(G0), &s);
        assert_eq!(out.update, NsUpdate::RemoveMember(G0, n(1)));
        assert_eq!(out.external_actions[0].kind, "scavenged");
        let s2 = app.apply(&s, &out.update);
        assert_eq!(app.cost(&s2, 0), 25);
        // A clean group scavenges nothing.
        let out = app.decide(&NsTxn::Scavenge(G1), &s2);
        assert_eq!(out.update, NsUpdate::Noop);
    }

    #[test]
    fn taxonomy_matches_the_airline_pattern() {
        let app = ns();
        let sp = space();
        let c0 = 0; // G0's constraint
                    // Register and Lookup are safe.
        assert!(is_safe_for(&app, &NsTxn::Register(n(1), 10), c0, &sp));
        assert!(is_safe_for(&app, &NsTxn::Lookup(n(1)), c0, &sp));
        // AddMember is unsafe for its group but preserves (guarded).
        assert!(!is_safe_for(&app, &NsTxn::AddMember(G0, n(1)), c0, &sp));
        assert!(preserves_cost(&app, &NsTxn::AddMember(G0, n(1)), c0, &sp));
        // …and is safe for the *other* group's constraint.
        assert!(is_safe_for(&app, &NsTxn::AddMember(G1, n(1)), c0, &sp));
        // Deregister is unsafe and non-preserving (like REQUEST for
        // underbooking).
        assert!(!is_safe_for(&app, &NsTxn::Deregister(n(1)), c0, &sp));
        assert!(!preserves_cost(&app, &NsTxn::Deregister(n(1)), c0, &sp));
        // Scavenge compensates its own group only.
        assert!(compensates_for(&app, &NsTxn::Scavenge(G0), c0, &sp));
        assert!(!compensates_for(&app, &NsTxn::Scavenge(G1), c0, &sp));
        // Register also compensates: re-registering heals dangling
        // members? No — it registers a *specific* name; from a state
        // dangling on the other name it does nothing.
        assert!(!compensates_for(&app, &NsTxn::Register(n(1), 10), c0, &sp));
    }

    #[test]
    fn stale_lookup_reports_old_binding() {
        let app = ns();
        let mut b = ExecutionBuilder::new(&app);
        let reg = b.push_complete(NsTxn::Register(n(1), 42)).unwrap();
        b.push_complete(NsTxn::Deregister(n(1))).unwrap();
        let look = b.push(NsTxn::Lookup(n(1)), vec![reg]).unwrap();
        let e = b.finish();
        assert_eq!(e.record(look).external_actions[0].subject, "N1@42");
        assert_eq!(e.final_state(&app).address(n(1)), None);
    }

    #[test]
    fn well_formedness_rejects_duplicate_members() {
        let app = ns();
        let bad = with(&[], vec![vec![n(1), n(1)], vec![]]);
        assert!(!app.is_well_formed(&bad));
        let wrong_groups = NsState::empty(5);
        assert!(!app.is_well_formed(&wrong_groups));
    }

    #[test]
    fn constraint_indexing() {
        let app = NameServer::new(3, 10);
        assert_eq!(app.constraint_count(), 3);
        assert_eq!(app.constraint_name(2), "no-dangling-members-G2");
        assert_eq!(app.rate, 10);
    }
}
