//! A zero-dependency persistent ordered map with O(1) clones.
//!
//! [`PMap`] is the structural-sharing backbone of the O(delta) state
//! layer: application states built on it clone by bumping an `Arc`
//! reference count, so the replay engine's checkpoint chains
//! ([`crate::replay::Checkpoints`]) cost memory proportional to the
//! *changes between* checkpoints rather than to the whole state.
//!
//! The implementation is a copy-on-write B-tree: leaves are sorted
//! arrays of up to `FANOUT` = 16 entries, inner nodes arrays of up to
//! `FANOUT` `(separator, subtree size, child)` triples, every leaf at
//! one depth. Nodes are held behind [`Arc`]; a mutation copies only the
//! nodes on the root-to-leaf path that a snapshot shares — two or three
//! for the maps in this repository: the known set's base, which every
//! executed transaction snapshots and which takes its keys 16 at a time
//! through [`PMap::push_leaf`] (one path copy down the right spine per
//! leaf) and only 5 % of them one by one (docs/perf/known-set-leaf.md),
//! and the airline's membership index and the dictionary's and name
//! server's states, which checkpoints snapshot —
//! and [`Arc::make_mut`] turns
//! even that copy into an in-place write when the map is unshared, the
//! case [`Application::apply_in_place`](crate::Application::apply_in_place)
//! puts the hot replay loops in. Removal frees a node when it empties
//! and never borrows or merges, which would copy siblings the caller
//! did not touch (Sen & Tarjan, "Deletion without rebalancing in
//! multiway search trees": height stays logarithmic in the insertions).
//!
//! Invariants (checked against a `BTreeMap` oracle by the unit tests
//! here and the property suite in `tests/state_inplace.rs`):
//!
//! * a node holds 1 to `FANOUT` items in an allocation of no more,
//!   a leaf's in strictly ascending key order;
//! * every key below child `i` of an inner node is `>=` that child's
//!   separator and `<` that of child `i + 1`; a child's size counts
//!   the entries below it, and the root's sizes sum to `len`;
//! * equality ignores sharing and shape: two maps are equal iff their
//!   `(key, value)` sequences are (with an `Arc::ptr_eq` fast path).
//!
//! Like `shard-pool` and `shard-obs`, this module is std-only: the
//! crate registry being offline is a design constraint (DESIGN.md §8).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Most items a node holds, and the most its array is allocated for. On
/// `sim-partition`, whose only map is the known set's base, fed a leaf at
/// a time: 8 (flushing 8) is ≈ 4 % slower for +4 % peak RSS, 32 ≈ 2 %
/// slower for +2 % (30 rotating harness rounds,
/// docs/perf/known-set-leaf.md).
const FANOUT: usize = 16;

#[derive(Clone)]
enum Node<K, V> {
    Leaf(Vec<(K, V)>),
    Inner(Vec<Child<K, V>>),
}

#[derive(Clone)]
struct Child<K, V> {
    /// A lower bound on every key below `node` that is also above
    /// every key below the child before it.
    sep: K,
    /// Entries below `node` — the order statistic that makes
    /// [`PMap::nth`] O(log n).
    size: usize,
    node: Arc<Node<K, V>>,
}

impl<K: Clone, V> Child<K, V> {
    /// A parent's record of `node`.
    fn of(node: Arc<Node<K, V>>) -> Self {
        let (sep, size) = match &*node {
            Node::Leaf(entries) => (&entries[0].0, entries.len()),
            Node::Inner(children) => (&children[0].sep, children.iter().map(|c| c.size).sum()),
        };
        let sep = sep.clone();
        Child { sep, size, node }
    }
}

/// A persistent (copy-on-write) ordered map: `clone` is two pointer
/// copies, mutation path-copies O(log n) shared nodes and writes in
/// place when unshared.
///
/// ```
/// use shard_core::pmap::PMap;
/// let mut a: PMap<u32, &str> = PMap::new();
/// a.insert(2, "two");
/// a.insert(1, "one");
/// let b = a.clone(); // O(1): shares the whole tree
/// a.insert(3, "three");
/// assert_eq!(a.len(), 3);
/// assert_eq!(b.len(), 2); // b is unaffected
/// assert_eq!(a.get(&3), Some(&"three"));
/// assert_eq!(b.get(&3), None);
/// ```
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter {
            leaf: [].iter(),
            inner: Vec::new(),
        };
        if let Some(root) = &self.root {
            iter.enter(root);
        }
        iter
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// The `i`-th entry in ascending key order (0-based), or `None`
    /// past the end. O(log n) by subtree-size descent — random access
    /// into a snapshot without materializing it.
    pub fn nth(&self, mut i: usize) -> Option<(&K, &V)> {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Leaf(entries) => return entries.get(i).map(|(k, v)| (k, v)),
                Node::Inner(children) => {
                    let mut children = children.iter();
                    node = loop {
                        let child = children.next()?;
                        if i < child.size {
                            break &child.node;
                        }
                        i -= child.size;
                    };
                }
            }
        }
    }
}

/// Where `key` sits in a leaf, or would be inserted.
fn search<K: Ord, V>(entries: &[(K, V)], key: &K) -> Result<usize, usize> {
    entries.binary_search_by(|(k, _)| k.cmp(key))
}

/// The child whose key range holds `key`, or `None` if `key` sorts
/// below the first separator.
fn route<K: Ord, V>(children: &[Child<K, V>], key: &K) -> Option<usize> {
    children.partition_point(|c| c.sep <= *key).checked_sub(1)
}

fn lookup<'a, K: Ord, V>(mut node: &'a Node<K, V>, key: &K) -> Option<&'a V> {
    loop {
        match node {
            Node::Leaf(entries) => return search(entries, key).ok().map(|i| &entries[i].1),
            Node::Inner(children) => node = &children[route(children, key)?].node,
        }
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// The value stored for `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        lookup(self.root.as_deref()?, key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Inserts `key → value`, returning the previous value if the key
    /// was present. Path-copies shared nodes; in-place when unshared.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let empty = || Arc::new(Node::Leaf(Vec::new()));
        let root = self.root.get_or_insert_with(empty);
        let (old, split) = insert_below(root, key, value);
        if let Some(right) = split {
            raise(root, Arc::new(right));
        }
        self.len += usize::from(old.is_none());
        old
    }

    /// Appends `entries` as a new rightmost leaf: one path copy down
    /// the right spine for all of them, where [`PMap::insert`] pays a
    /// descent per key. The leaf is allocated for exactly its entries.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` holds 1 to 16 entries (a node's
    /// capacity) in strictly ascending key order, every key above every
    /// key already in the map.
    pub fn push_leaf(&mut self, mut entries: Vec<(K, V)>) {
        assert!(
            (1..=FANOUT).contains(&entries.len()),
            "push_leaf takes 1 to {FANOUT} entries, not {}",
            entries.len()
        );
        let above = self.root.as_deref().map(last_key);
        assert!(
            above
                .into_iter()
                .chain(entries.iter().map(|(k, _)| k))
                .is_sorted_by(|a, b| a < b),
            "push_leaf takes ascending keys above the map's"
        );
        entries.shrink_to_fit();
        self.len += entries.len();
        let leaf = Arc::new(Node::Leaf(entries));
        let Some(root) = &mut self.root else {
            self.root = Some(leaf);
            return;
        };
        let split = match **root {
            // A lone leaf: the new one is its sibling under a new root.
            Node::Leaf(_) => Some(leaf),
            Node::Inner(_) => push_below(root, Child::of(leaf)).map(Arc::new),
        };
        if let Some(right) = split {
            raise(root, right);
        }
    }

    /// Removes `key`, returning its value if present. Absent keys cost
    /// a read-only lookup — no path is copied.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.get(key)?;
        let root = self.root.as_mut()?;
        let old = remove_below(root, key);
        self.len -= 1;
        // A root left with one child: one level down. With none: gone.
        while let Node::Inner(children) = &**root {
            let [only] = &children[..] else { break };
            *root = Arc::clone(&only.node);
        }
        if self.len == 0 {
            self.root = None;
        }
        Some(old)
    }
}

/// Inserts `item` at `at`. A full node splits first and the upper part
/// is returned: half of it — or, when `item` goes past its last item,
/// `item` alone, so that ascending inserts and pushed leaves (the known
/// set's timestamps) leave full nodes behind them, not half-empty ones.
fn insert_or_split<T>(items: &mut Vec<T>, at: usize, item: T) -> Option<Vec<T>> {
    let mid = if at == FANOUT { FANOUT } else { FANOUT / 2 };
    let mut upper = (items.len() == FANOUT).then(|| items.split_off(mid));
    let (into, at) = match &mut upper {
        Some(upper) if at >= mid => (upper, at - mid),
        _ => (items, at),
    };
    if into.len() == into.capacity() {
        // Double, but never past a full node.
        into.reserve_exact(into.len().clamp(1, FANOUT - into.len()));
    }
    into.insert(at, item);
    upper
}

/// Inserts below `node`, returning the displaced value and, if `node`
/// split, its new right sibling.
fn insert_below<K: Ord + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    key: K,
    value: V,
) -> (Option<V>, Option<Node<K, V>>) {
    match Arc::make_mut(node) {
        Node::Leaf(entries) => match search(entries, &key) {
            Ok(i) => (Some(std::mem::replace(&mut entries[i].1, value)), None),
            Err(i) => (
                None,
                insert_or_split(entries, i, (key, value)).map(Node::Leaf),
            ),
        },
        Node::Inner(children) => {
            let i = route(children, &key).unwrap_or_else(|| {
                children[0].sep = key.clone();
                0
            });
            let (old, split) = insert_below(&mut children[i].node, key, value);
            children[i].size += usize::from(old.is_none());
            let split = split.and_then(|right| {
                let right = Child::of(Arc::new(right));
                children[i].size -= right.size;
                insert_or_split(children, i + 1, right).map(Node::Inner)
            });
            (old, split)
        }
    }
}

/// The root split and `right` is its new sibling: one level up.
fn raise<K: Clone, V>(root: &mut Arc<Node<K, V>>, right: Arc<Node<K, V>>) {
    let halves = [Arc::clone(root), right].map(Child::of);
    *root = Arc::new(Node::Inner(halves.into()));
}

/// The largest key below `node`.
fn last_key<K, V>(mut node: &Node<K, V>) -> &K {
    loop {
        match node {
            Node::Leaf(entries) => return &entries[entries.len() - 1].0,
            Node::Inner(children) => node = &children[children.len() - 1].node,
        }
    }
}

/// Appends `leaf` after the last leaf below `node`, an inner node,
/// returning `node`'s new right sibling if it split.
fn push_below<K: Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    leaf: Child<K, V>,
) -> Option<Node<K, V>> {
    let Node::Inner(children) = Arc::make_mut(node) else {
        unreachable!("a leaf is pushed beside a leaf, not into one");
    };
    let i = children.len() - 1;
    let child = match *children[i].node {
        Node::Leaf(_) => leaf,
        Node::Inner(_) => {
            children[i].size += leaf.size;
            let right = Child::of(Arc::new(push_below(&mut children[i].node, leaf)?));
            children[i].size -= right.size;
            right
        }
    };
    insert_or_split(children, i + 1, child).map(Node::Inner)
}

/// Removes `key`, which the caller found present, from below `node`.
/// A child that empties is dropped from its parent.
fn remove_below<K: Ord + Clone, V: Clone>(node: &mut Arc<Node<K, V>>, key: &K) -> V {
    match Arc::make_mut(node) {
        Node::Leaf(entries) => {
            let i = search(entries, key).expect("the caller found the key");
            entries.remove(i).1
        }
        Node::Inner(children) => {
            let i = route(children, key).expect("the caller found the key");
            let old = remove_below(&mut children[i].node, key);
            children[i].size -= 1;
            if children[i].size == 0 {
                children.remove(i);
            }
            old
        }
    }
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): shares the whole tree by reference count.
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        // Shared trees are equal without traversal — the common case
        // after an O(1) clone.
        let shared = match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.len == other.len && (shared || self.iter().eq(other.iter()))
    }
}

impl<K: Eq, V: Eq> Eq for PMap<K, V> {}

impl<K: Hash, V: Hash> Hash for PMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for (k, v) in self.iter() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = PMap::new();
        map.extend(iter);
        map
    }
}

impl<K: Ord + Clone, V: Clone> Extend<(K, V)> for PMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<'a, K, V> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;
    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

/// In-order borrowing iterator over a [`PMap`].
pub struct Iter<'a, K, V> {
    /// What is left of the current leaf.
    leaf: std::slice::Iter<'a, (K, V)>,
    /// What is left of each inner node above it, root first.
    inner: Vec<std::slice::Iter<'a, Child<K, V>>>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn enter(&mut self, node: &'a Node<K, V>) {
        match node {
            Node::Leaf(entries) => self.leaf = entries.iter(),
            Node::Inner(children) => self.inner.push(children.iter()),
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);
    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            match self.inner.last_mut()?.next() {
                Some(child) => self.enter(&child.node),
                None => {
                    self.inner.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A tiny deterministic LCG so the oracle tests need no external
    /// randomness source.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Checks the module's invariants and returns the tree's depth
    /// (0 for an empty map, 1 for a lone leaf).
    fn check_invariants<K: Ord, V>(map: &PMap<K, V>) -> usize {
        /// Checks the subtree, whose keys must lie in `[lo, hi)`;
        /// returns its entry count and depth.
        fn go<K: Ord, V>(node: &Node<K, V>, lo: Option<&K>, hi: Option<&K>) -> (usize, usize) {
            match node {
                Node::Leaf(entries) => {
                    assert!((1..=FANOUT).contains(&entries.len()), "leaf occupancy");
                    assert!(entries.capacity() <= FANOUT, "no slack past a full node");
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted leaf");
                    assert!(lo.is_none_or(|lo| *lo <= entries[0].0), "lower bound");
                    let last = &entries[entries.len() - 1].0;
                    assert!(hi.is_none_or(|hi| last < hi), "upper bound");
                    (entries.len(), 1)
                }
                Node::Inner(children) => {
                    assert!((1..=FANOUT).contains(&children.len()), "inner occupancy");
                    assert!(children.capacity() <= FANOUT, "no slack past a full node");
                    assert!(lo.is_none_or(|lo| *lo <= children[0].sep), "lower bound");
                    let mut total = 0;
                    let mut depths = Vec::new();
                    for (i, c) in children.iter().enumerate() {
                        let next = children.get(i + 1).map(|n| &n.sep).or(hi);
                        assert!(next.is_none_or(|n| c.sep < *n), "ascending separators");
                        let (size, depth) = go(&c.node, Some(&c.sep), next);
                        assert_eq!(c.size, size, "size matches subtree");
                        total += size;
                        depths.push(depth);
                    }
                    assert!(
                        depths.windows(2).all(|w| w[0] == w[1]),
                        "leaves at one depth"
                    );
                    (total, depths[0] + 1)
                }
            }
        }
        let (count, depth) = map.root.as_deref().map_or((0, 0), |r| go(r, None, None));
        assert_eq!(count, map.len(), "len matches reachable entries");
        depth
    }

    fn pairs(map: &PMap<u32, u64>) -> Vec<(u32, u64)> {
        map.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Fill past three levels, churn, then drain to empty — inserts,
    /// removes, lookups and `nth` against the oracle at every step,
    /// with snapshots taken along the way that must never change.
    #[test]
    fn matches_btreemap_oracle_under_random_ops() {
        const KEYS: u64 = 3 * (FANOUT * FANOUT) as u64;
        let mut rng = Lcg(0xB0B0_CAFE);
        let mut map: PMap<u32, u64> = PMap::new();
        let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
        let mut snapshots = Vec::new();
        let mut deepest = 0;
        let mut step = 0usize;
        // (steps, removes per hundred operations); the last phase ends
        // when the map is empty.
        for (steps, remove_pct) in [(4000, 5), (4000, 45), (usize::MAX, 90)] {
            let until = step.saturating_add(steps);
            while step < until && !(steps == usize::MAX && oracle.is_empty()) {
                step += 1;
                let key = (rng.next() % KEYS) as u32;
                match rng.next() % 100 {
                    r if r < remove_pct => {
                        assert_eq!(map.remove(&key), oracle.remove(&key), "step {step}");
                    }
                    // A lookup only (checked below): the drain phase
                    // must insert nothing, or it never empties.
                    r if r < remove_pct + 10 => {}
                    _ => {
                        let val = rng.next();
                        assert_eq!(map.insert(key, val), oracle.insert(key, val), "step {step}");
                    }
                }
                assert_eq!(map.len(), oracle.len());
                assert_eq!(map.get(&key), oracle.get(&key));
                if step.is_multiple_of(5) {
                    let i = rng.next() as usize % (oracle.len() + 1);
                    assert_eq!(map.nth(i), oracle.iter().nth(i), "step {step}");
                }
                if step.is_multiple_of(61) {
                    deepest = deepest.max(check_invariants(&map));
                    snapshots.push((map.clone(), oracle.clone()));
                }
            }
        }
        assert!(map.is_empty() && map.root.is_none());
        assert!(deepest >= 3, "the walk built a third level");
        for (snap, snap_oracle) in &snapshots {
            check_invariants(snap);
            assert!(snap.iter().eq(snap_oracle.iter()), "a snapshot changed");
        }
    }

    #[test]
    fn nth_matches_in_order_iteration() {
        let mut rng = Lcg(0xDEAD_BEEF);
        let mut map: PMap<u32, u64> = PMap::new();
        for _ in 0..500 {
            map.insert((rng.next() % 1024) as u32, rng.next());
        }
        let snapshot = map.clone();
        for _ in 0..100 {
            map.remove(&((rng.next() % 1024) as u32));
        }
        for m in [&map, &snapshot] {
            let in_order = pairs(m);
            for (i, entry) in in_order.iter().enumerate() {
                assert_eq!(m.nth(i).map(|(k, v)| (*k, *v)), Some(*entry));
            }
            assert_eq!(m.nth(m.len()), None);
        }
    }

    /// The known set's pattern: ascending keys leave every node but the
    /// last of each level full, whatever snapshots are taken meanwhile.
    #[test]
    fn ascending_inserts_fill_nodes_completely() {
        fn leaves<K, V>(node: &Node<K, V>) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Inner(children) => children.iter().map(|c| leaves(&c.node)).sum(),
            }
        }
        let n = 2 * FANOUT * FANOUT + 3;
        let mut map: PMap<u32, ()> = PMap::new();
        let mut snapshot = map.clone();
        for k in 0..n as u32 {
            map.insert(k, ());
            if k % 7 == 0 {
                snapshot = map.clone();
            }
        }
        assert_eq!(check_invariants(&map), 3);
        assert_eq!(leaves(map.root.as_deref().unwrap()), n.div_ceil(FANOUT));
        check_invariants(&snapshot);
    }

    /// `push_leaf` of 1 to `FANOUT` entries above the top, mixed with
    /// inserts and removes below it — invariants and the oracle at every
    /// step, `nth` spot checks, and snapshots that must never change.
    #[test]
    fn push_leaf_matches_btreemap_oracle() {
        let mut rng = Lcg(0x1EAF_F00D);
        let mut map: PMap<u32, u64> = PMap::new();
        let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
        let mut snapshots = Vec::new();
        let mut deepest = 0;
        // Pushed keys step by 1 to 3, so inserts below find gaps.
        let mut top = 0u32;
        for step in 0..1500 {
            let key = (rng.next() % (u64::from(top) + 1)) as u32;
            match rng.next() % 8 {
                0..=2 => {
                    let n = 1 + rng.next() as usize % FANOUT;
                    let entries: Vec<(u32, u64)> = (0..n)
                        .map(|_| {
                            top += 1 + (rng.next() % 3) as u32;
                            (top, rng.next())
                        })
                        .collect();
                    oracle.extend(entries.iter().copied());
                    map.push_leaf(entries);
                }
                3..=5 => {
                    let val = rng.next();
                    assert_eq!(map.insert(key, val), oracle.insert(key, val), "step {step}");
                }
                _ => assert_eq!(map.remove(&key), oracle.remove(&key), "step {step}"),
            }
            deepest = deepest.max(check_invariants(&map));
            assert!(map.iter().eq(oracle.iter()), "step {step}");
            let i = rng.next() as usize % (oracle.len() + 1);
            assert_eq!(map.nth(i), oracle.iter().nth(i), "step {step}");
            if step % 37 == 0 {
                snapshots.push((map.clone(), oracle.clone()));
            }
        }
        assert!(deepest >= 3, "the walk built a third level");
        for (snap, snap_oracle) in &snapshots {
            check_invariants(snap);
            assert!(snap.iter().eq(snap_oracle.iter()), "a snapshot changed");
        }
    }

    /// The nodes reachable from `map` that `snapshot` does not share.
    fn fresh_nodes(map: &PMap<u32, u64>, snapshot: &PMap<u32, u64>) -> usize {
        fn walk<'a>(node: &'a Arc<Node<u32, u64>>, out: &mut Vec<&'a Arc<Node<u32, u64>>>) {
            out.push(node);
            if let Node::Inner(children) = &**node {
                children.iter().for_each(|c| walk(&c.node, out));
            }
        }
        let (mut new, mut old) = (Vec::new(), Vec::new());
        map.root.iter().for_each(|r| walk(r, &mut new));
        snapshot.root.iter().for_each(|r| walk(r, &mut old));
        new.iter()
            .filter(|n| !old.iter().any(|o| Arc::ptr_eq(n, o)))
            .count()
    }

    /// The edges of the right spine: a push into an empty map and onto a
    /// lone-leaf root, a push that copies the spine and nothing else,
    /// and one that splits every level of it.
    #[test]
    fn push_leaf_copies_the_right_spine_and_splits_it_when_full() {
        let leaf = |from: u32, n: u32| -> Vec<(u32, u64)> {
            (from..from + n).map(|k| (k, u64::from(k))).collect()
        };
        let mut map: PMap<u32, u64> = PMap::new();
        map.push_leaf(leaf(0, 3));
        assert_eq!(
            check_invariants(&map),
            1,
            "an empty map takes the leaf as its root"
        );
        let snapshot = map.clone();
        map.push_leaf(leaf(3, 1));
        assert_eq!(
            check_invariants(&map),
            2,
            "a lone-leaf root gains a sibling"
        );
        assert_eq!(fresh_nodes(&map, &snapshot), 2, "a new root and the leaf");
        assert!(map.keys().copied().eq(0..4));

        // FANOUT² full leaves fill every node of a depth-3 tree; the last
        // of them copies the two spine nodes above it and nothing else.
        let full = FANOUT as u32;
        let mut map: PMap<u32, u64> = PMap::new();
        for k in 0..full * full - 1 {
            map.push_leaf(leaf(k * full, full));
        }
        let snapshot = map.clone();
        map.push_leaf(leaf((full * full - 1) * full, full));
        assert_eq!(check_invariants(&map), 3);
        assert_eq!(
            fresh_nodes(&map, &snapshot),
            3,
            "two spine copies and the leaf"
        );

        // One more leaf splits every level of the full spine, the root
        // too: three copies, the leaf, a new right sibling at each of
        // the two inner levels and a new root.
        let snapshot = map.clone();
        let top = full.pow(3);
        map.push_leaf(leaf(top, 1));
        assert_eq!(check_invariants(&map), 4);
        assert_eq!(fresh_nodes(&map, &snapshot), 6);
        assert!(map.keys().copied().eq(0..=top));
        assert_eq!(map.nth(top as usize), Some((&top, &u64::from(top))));
        let Some(Node::Inner(halves)) = map.root.as_deref() else {
            panic!("an inner root")
        };
        let sizes: Vec<usize> = halves.iter().map(|c| c.size).collect();
        assert_eq!(sizes, [top as usize, 1], "the full tree, then the new leaf");
        assert_eq!(check_invariants(&snapshot), 3);
    }

    #[test]
    #[should_panic(expected = "ascending keys above the map's")]
    fn push_leaf_refuses_a_key_below_the_top() {
        let mut map: PMap<u32, u64> = (0..40).map(|k| (k, 0)).collect();
        map.push_leaf(vec![(39, 0), (41, 0)]);
    }

    #[test]
    fn clone_shares_and_mutation_unshares() {
        let mut a: PMap<u32, u64> = (0..100).map(|k| (k, k as u64)).collect();
        let b = a.clone();
        assert!(Arc::ptr_eq(
            a.root.as_ref().unwrap(),
            b.root.as_ref().unwrap()
        ));
        assert_eq!(a, b); // ptr_eq fast path
        a.insert(50, 999);
        assert_eq!(b.get(&50), Some(&50), "persistent: b unchanged");
        assert_eq!(a.get(&50), Some(&999));
        assert_ne!(a, b);
        check_invariants(&a);
        check_invariants(&b);
    }

    /// After a clone, one write copies one root-to-leaf path: at every
    /// level exactly one child differs from the snapshot's, every other
    /// subtree is the same allocation.
    #[test]
    fn one_write_copies_one_path() {
        let keys = (4 * FANOUT * FANOUT) as u32;
        let mut rng = Lcg(7);
        // Random order leaves room in the leaves: the insert below
        // does not split.
        let mut map: PMap<u32, u64> = PMap::new();
        while map.len() < keys as usize / 2 {
            map.insert(2 * (rng.next() as u32 % keys), 0);
        }
        let depth = check_invariants(&map);
        assert!(depth >= 3);
        /// The key at `len / div`, so each write lands on its own path.
        fn key_at(m: &PMap<u32, u64>, div: usize) -> u32 {
            *m.nth(m.len() / div).expect("non-empty").0
        }
        type Write = fn(&mut PMap<u32, u64>);
        let writes: [Write; 2] = [
            |m| assert_eq!(m.insert(key_at(m, 2), 1), Some(0)),
            |m| assert_eq!(m.remove(&key_at(m, 4)), Some(0)),
        ];
        for write in writes {
            let snapshot = map.clone();
            write(&mut map);
            let (mut x, mut y) = (map.root.as_ref().unwrap(), snapshot.root.as_ref().unwrap());
            let mut copied = 0;
            loop {
                assert!(!Arc::ptr_eq(x, y));
                copied += 1;
                let (Node::Inner(cx), Node::Inner(cy)) = (&**x, &**y) else {
                    break;
                };
                assert_eq!(cx.len(), cy.len());
                let mut differing = cx
                    .iter()
                    .zip(cy)
                    .filter(|(p, q)| !Arc::ptr_eq(&p.node, &q.node));
                let (p, q) = differing.next().expect("the written path");
                assert!(differing.next().is_none(), "one child copied per level");
                (x, y) = (&p.node, &q.node);
            }
            assert_eq!(copied, depth);
            check_invariants(&snapshot);
        }
    }

    /// Removing an absent key — below, between or above the keys —
    /// copies nothing.
    #[test]
    fn removal_of_absent_key_copies_nothing() {
        let mut a: PMap<u32, u64> = (1..600).map(|k| (2 * k, 0)).collect();
        let b = a.clone();
        for absent in [0, 99, 2001] {
            assert_eq!(a.remove(&absent), None);
        }
        assert!(
            Arc::ptr_eq(a.root.as_ref().unwrap(), b.root.as_ref().unwrap()),
            "an absent key must not path-copy"
        );
    }

    #[test]
    fn empty_and_iterator_edges() {
        let map: PMap<u32, u64> = PMap::new();
        assert!(map.is_empty());
        assert_eq!(map.iter().count(), 0);
        assert_eq!(map.get(&0), None);
        assert_eq!(map, PMap::default());
        let one: PMap<u32, u64> = std::iter::once((7, 7)).collect();
        assert_eq!(one.keys().copied().collect::<Vec<_>>(), vec![7]);
        assert_eq!(one.values().copied().collect::<Vec<_>>(), vec![7]);
        assert_eq!(format!("{one:?}"), "{7: 7}");
    }

    #[test]
    fn equality_and_hash_ignore_sharing() {
        use std::collections::hash_map::DefaultHasher;
        let a: PMap<u32, u64> = (0..300).map(|k| (k, k as u64)).collect();
        // Same contents built independently: no shared nodes, and a
        // different shape (descending inserts split in halves).
        let b: PMap<u32, u64> = (0..300).rev().map(|k| (k, k as u64)).collect();
        assert_eq!(a, b);
        let hash = |m: &PMap<u32, u64>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
