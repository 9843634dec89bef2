//! A highly available replicated dictionary, after Fischer & Michael —
//! the non-resource-allocation example the paper's conclusion points at
//! (§6, \[FM\] "Sacrificing Serializability to Attain High Availability of
//! Data in an Unreliable Network").
//!
//! The dictionary maps integer keys to values. `INSERT` and `DELETE` are
//! ordinary two-part transactions; `LOOKUP` is read-only and reports the
//! observed value as an external action (so stale reads are visible in
//! the execution record, like a booking confirmation that later turns
//! out wrong). There are no integrity constraints — the interesting
//! property here is the prefix-subsequence semantics itself: two nodes
//! that have seen the same set of updates agree exactly (mutual
//! consistency), which the simulator experiments exercise.

use shard_core::{Application, Cost, DecisionOutcome, ExternalAction, PMap};

/// Dictionary keys.
pub type Key = u32;
/// Dictionary values.
pub type Value = u64;

/// Dictionary state: a sorted map backed by the persistent [`PMap`], so
/// clones are O(1) and each insert/delete shares all untouched entries
/// with the previous state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DictState {
    entries: PMap<Key, Value>,
}

impl DictState {
    /// Current binding of `k`.
    pub fn get(&self, k: Key) -> Option<Value> {
        self.entries.get(&k).copied()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every binding, in key order.
    pub fn entries(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }

    /// Builds a state directly from bindings (later pairs win).
    pub fn with_entries(pairs: &[(Key, Value)]) -> Self {
        DictState {
            entries: pairs.iter().copied().collect(),
        }
    }
}

/// Dictionary transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DictTxn {
    /// Bind `key` to `value`.
    Insert(Key, Value),
    /// Remove the binding of `key`.
    Delete(Key),
    /// Report the observed binding of `key` (external action only).
    Lookup(Key),
}

/// Dictionary updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DictUpdate {
    /// Bind `key` to `value` (last-writer-wins under the serial order).
    Insert(Key, Value),
    /// Remove the binding.
    Delete(Key),
    /// Identity (lookups write nothing).
    Noop,
}

/// The replicated dictionary application.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dictionary;

impl Application for Dictionary {
    type State = DictState;
    type Update = DictUpdate;
    type Decision = DictTxn;

    fn initial_state(&self) -> DictState {
        DictState::default()
    }

    fn is_well_formed(&self, _: &DictState) -> bool {
        true
    }

    fn apply_in_place(&self, s: &mut DictState, update: &DictUpdate) {
        match update {
            DictUpdate::Insert(k, v) => {
                s.entries.insert(*k, *v);
            }
            DictUpdate::Delete(k) => {
                s.entries.remove(k);
            }
            DictUpdate::Noop => {}
        }
    }

    fn state_size_hint(&self, state: &DictState) -> usize {
        std::mem::size_of::<DictState>() + state.entries.len() * std::mem::size_of::<(Key, Value)>()
    }

    fn decide(&self, decision: &DictTxn, observed: &DictState) -> DecisionOutcome<DictUpdate> {
        match decision {
            DictTxn::Insert(k, v) => DecisionOutcome::update_only(DictUpdate::Insert(*k, *v)),
            DictTxn::Delete(k) => DecisionOutcome::update_only(DictUpdate::Delete(*k)),
            DictTxn::Lookup(k) => DecisionOutcome::with_action(
                DictUpdate::Noop,
                ExternalAction::new(
                    "lookup-result",
                    match observed.get(*k) {
                        Some(v) => format!("{k}={v}"),
                        None => format!("{k}=∅"),
                    },
                ),
            ),
        }
    }

    fn constraint_count(&self) -> usize {
        0
    }

    fn constraint_name(&self, _: usize) -> &str {
        unreachable!("the dictionary has no integrity constraints")
    }

    fn cost(&self, _: &DictState, _: usize) -> Cost {
        0
    }
}

/// Number of key buckets the dictionary is divided into for partial
/// replication (§6): object `b` holds every key with `key % BUCKETS == b`.
pub const BUCKETS: u32 = 8;

/// Bucket of a key.
pub fn bucket_of(k: Key) -> shard_core::ObjectId {
    shard_core::ObjectId(k % BUCKETS)
}

impl shard_core::ObjectModel for Dictionary {
    fn objects(&self) -> Vec<shard_core::ObjectId> {
        (0..BUCKETS).map(shard_core::ObjectId).collect()
    }

    fn update_objects(&self, update: &DictUpdate) -> Vec<shard_core::ObjectId> {
        match update {
            DictUpdate::Insert(k, _) | DictUpdate::Delete(k) => vec![bucket_of(*k)],
            DictUpdate::Noop => Vec::new(),
        }
    }

    fn decision_objects(&self, decision: &DictTxn) -> Vec<shard_core::ObjectId> {
        match decision {
            DictTxn::Insert(k, _) | DictTxn::Delete(k) | DictTxn::Lookup(k) => {
                vec![bucket_of(*k)]
            }
        }
    }

    fn project(&self, state: &DictState, o: shard_core::ObjectId) -> String {
        let mut out = String::new();
        for (k, v) in &state.entries {
            if bucket_of(*k) == o {
                out.push_str(&format!("{k}={v};"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_core::ExecutionBuilder;

    #[test]
    fn insert_delete_lookup_roundtrip() {
        let app = Dictionary;
        let mut b = ExecutionBuilder::new(&app);
        b.push_complete(DictTxn::Insert(1, 10)).unwrap();
        b.push_complete(DictTxn::Insert(2, 20)).unwrap();
        b.push_complete(DictTxn::Delete(1)).unwrap();
        let look = b.push_complete(DictTxn::Lookup(2)).unwrap();
        let e = b.finish();
        e.verify(&app).unwrap();
        let s = e.final_state(&app);
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(2), Some(20));
        assert_eq!(s.len(), 1);
        assert_eq!(e.record(look).external_actions[0].subject, "2=20");
    }

    #[test]
    fn stale_lookup_reports_old_value() {
        let app = Dictionary;
        let mut b = ExecutionBuilder::new(&app);
        let i = b.push_complete(DictTxn::Insert(1, 10)).unwrap();
        b.push_complete(DictTxn::Insert(1, 11)).unwrap();
        // The lookup misses the overwrite: reports the stale 10.
        let look = b.push(DictTxn::Lookup(1), vec![i]).unwrap();
        let e = b.finish();
        e.verify(&app).unwrap();
        assert_eq!(e.record(look).external_actions[0].subject, "1=10");
        assert_eq!(e.final_state(&app).get(1), Some(11));
    }

    #[test]
    fn last_writer_in_serial_order_wins() {
        let app = Dictionary;
        let s0 = app.initial_state();
        let s1 = app.apply(&s0, &DictUpdate::Insert(5, 1));
        let s2 = app.apply(&s1, &DictUpdate::Insert(5, 2));
        assert_eq!(s2.get(5), Some(2));
        let s3 = app.apply(&s2, &DictUpdate::Delete(5));
        assert!(s3.is_empty());
    }

    #[test]
    fn lookup_of_missing_key_reports_empty() {
        let app = Dictionary;
        let out = app.decide(&DictTxn::Lookup(9), &DictState::default());
        assert_eq!(out.external_actions[0].subject, "9=∅");
        assert_eq!(out.update, DictUpdate::Noop);
    }
}
