//! A slotted-page B+tree keyed by [`StoreKey`], built on the buffer
//! pool — the engine's timestamp-order index.
//!
//! # Page layouts (4 KiB pages, little-endian integers)
//!
//! Leaf (`kind = 0`):
//!
//! ```text
//! 0     1        3          11           13                cells_start        4096
//! +-----+--------+----------+------------+------- ... ------+---- ... ----------+
//! |kind | count  | next_leaf| cells_start| slot dir (u16 ×  |   cells (grow     |
//! | u8  | u16    | u64      | u16        |  count, sorted)  |   downwards)      |
//! +-----+--------+----------+------------+------- ... ------+-------------------+
//! cell := key:10  vlen:u16  value
//! ```
//!
//! Internal (`kind = 1`):
//!
//! ```text
//! 0     1        3         11
//! +-----+--------+---------+--[ key:10  child:u64 ] × count --+
//! |kind | count  | child0  |   separators, sorted             |
//! +-----+--------+---------+----------------------------------+
//! ```
//!
//! Separator `i` is the smallest key reachable under child `i + 1`.
//!
//! # Appends at the right edge
//!
//! The store's traffic is ascending keys (a sealed serial order, a
//! node's own timestamps), so [`BTree`] remembers its last leaf and its
//! largest key. A key above the maximum pins that one leaf and appends
//! a cell — no descent, no search, no slot shift — and when the last
//! leaf is full and the newcomer belongs past its last cell, the leaf
//! keeps its cells and the newcomer starts the next leaf alone
//! (separator = the new key). Ascending keys therefore leave *full*
//! leaves behind; every other full leaf still splits in half, as do
//! internal pages. The page bytes are the same either way.
//!
//! The tree is **insert-only** (the WAL never retracts a record;
//! crashes rebuild the whole index), duplicate keys are ignored
//! (first-writer-wins — WAL replay never produces them), and the tree's
//! shape lives only in memory: the root page id is held by [`BTree`],
//! which is always reconstructed from the WAL on open. See
//! `docs/storage.md` for the byte-layout rationale.

use crate::codec::{StoreKey, KEY_BYTES};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pool::BufferPool;
use std::io;

const LEAF: u8 = 0;
const INTERNAL: u8 = 1;
const LEAF_HDR: usize = 13;
const INT_HDR: usize = 11;
const INT_ENTRY: usize = KEY_BYTES + 8;
const NO_LEAF: u64 = u64::MAX;

/// Largest value the tree stores inline (application updates are tens
/// of bytes; larger payloads go through `append_chunked`).
pub const MAX_VALUE: usize = 1024;

/// Separators an internal page holds at most.
const INT_MAX_KEYS: usize = (PAGE_SIZE - INT_HDR) / INT_ENTRY;

fn init_leaf(p: &mut Page) {
    p.bytes_mut()[0] = LEAF;
    p.put_u16(1, 0);
    p.put_u64(3, NO_LEAF);
    p.put_u16(11, PAGE_SIZE as u16);
}

fn init_internal(p: &mut Page, child0: PageId) {
    p.bytes_mut()[0] = INTERNAL;
    p.put_u16(1, 0);
    p.put_u64(3, child0);
}

fn count(p: &Page) -> usize {
    p.u16_at(1) as usize
}

fn leaf_cells_start(p: &Page) -> usize {
    // An empty leaf's `cells_start` is PAGE_SIZE, which wraps to 0 in
    // the u16 field only if PAGE_SIZE were 65536 — at 4096 it fits.
    p.u16_at(11) as usize
}

fn leaf_key(p: &Page, i: usize) -> StoreKey {
    let off = p.u16_at(LEAF_HDR + 2 * i) as usize;
    let mut k = [0u8; KEY_BYTES];
    k.copy_from_slice(p.slice(off, KEY_BYTES));
    StoreKey::from_bytes(&k)
}

fn leaf_value(p: &Page, i: usize) -> &[u8] {
    let off = p.u16_at(LEAF_HDR + 2 * i) as usize;
    let vlen = p.u16_at(off + KEY_BYTES) as usize;
    p.slice(off + KEY_BYTES + 2, vlen)
}

fn leaf_search(p: &Page, key: StoreKey) -> Result<usize, usize> {
    let mut lo = 0usize;
    let mut hi = count(p);
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_key(p, mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

fn leaf_free(p: &Page) -> usize {
    leaf_cells_start(p) - (LEAF_HDR + 2 * count(p))
}

fn leaf_insert_at(p: &mut Page, i: usize, key: StoreKey, value: &[u8]) {
    let n = count(p);
    debug_assert!(i <= n);
    let cell = KEY_BYTES + 2 + value.len();
    let start = leaf_cells_start(p) - cell;
    p.write(start, &key.to_bytes());
    p.put_u16(start + KEY_BYTES, value.len() as u16);
    p.write(start + KEY_BYTES + 2, value);
    // Shift slots [i, n) one to the right.
    for j in (i..n).rev() {
        let v = p.u16_at(LEAF_HDR + 2 * j);
        p.put_u16(LEAF_HDR + 2 * (j + 1), v);
    }
    p.put_u16(LEAF_HDR + 2 * i, start as u16);
    p.put_u16(1, (n + 1) as u16);
    p.put_u16(11, start as u16);
}

fn int_child0(p: &Page) -> PageId {
    p.u64_at(3)
}

fn int_key(p: &Page, i: usize) -> StoreKey {
    let off = INT_HDR + INT_ENTRY * i;
    let mut k = [0u8; KEY_BYTES];
    k.copy_from_slice(p.slice(off, KEY_BYTES));
    StoreKey::from_bytes(&k)
}

fn int_child(p: &Page, i: usize) -> PageId {
    p.u64_at(INT_HDR + INT_ENTRY * i + KEY_BYTES)
}

/// The child index `key` routes to: the number of separators `<= key`.
fn int_route(p: &Page, key: StoreKey) -> usize {
    let mut lo = 0usize;
    let mut hi = count(p);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if int_key(p, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn int_child_at(p: &Page, route: usize) -> PageId {
    if route == 0 {
        int_child0(p)
    } else {
        int_child(p, route - 1)
    }
}

fn int_insert_at(p: &mut Page, i: usize, key: StoreKey, child: PageId) {
    let n = count(p);
    debug_assert!(n < INT_MAX_KEYS && i <= n);
    let src = INT_HDR + INT_ENTRY * i;
    let tail = INT_ENTRY * (n - i);
    let mut moved = vec![0u8; tail];
    moved.copy_from_slice(p.slice(src, tail));
    p.write(src + INT_ENTRY, &moved);
    p.write(src, &key.to_bytes());
    p.put_u64(src + KEY_BYTES, child);
    p.put_u16(1, (n + 1) as u16);
}

enum Inserted {
    Done,
    Duplicate,
    Split(StoreKey, PageId),
}

/// The B+tree. Owns its buffer pool; every page access is a
/// pin/use/unpin round through it.
pub struct BTree {
    pool: BufferPool,
    root: PageId,
    entries: usize,
    /// The end of the leaf chain — where a key above `max_key` goes.
    last_leaf: PageId,
    /// The largest key stored; `None` while the tree is empty.
    max_key: Option<StoreKey>,
}

impl BTree {
    /// A fresh, empty tree over `pool` (its file starts truncated —
    /// the tree is derived state, rebuilt from the WAL by its owner).
    pub fn create(mut pool: BufferPool) -> io::Result<Self> {
        let root = pool.allocate();
        let f = pool.pin(root)?;
        init_leaf(pool.page_mut(f));
        pool.unpin(f);
        pool.set_sticky(root, true);
        Ok(BTree {
            pool,
            root,
            entries: 0,
            last_leaf: root,
            max_key: None,
        })
    }

    /// Key/value pairs stored.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Inserts `key -> value`; a duplicate key is ignored (first write
    /// wins) and reported as `false`.
    ///
    /// # Errors
    ///
    /// Pool I/O errors, and `InvalidInput` if `value` exceeds
    /// [`MAX_VALUE`].
    pub fn insert(&mut self, key: StoreKey, value: &[u8]) -> io::Result<bool> {
        if value.len() > MAX_VALUE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{key:?}: {} value bytes do not fit a leaf cell ({MAX_VALUE})",
                    value.len()
                ),
            ));
        }
        let past_max = self.max_key.is_some_and(|max| key > max);
        if !(past_max && self.append_to_last_leaf(key, value)?) {
            match self.insert_rec(self.root, key, value)? {
                Inserted::Duplicate => return Ok(false),
                Inserted::Done => {}
                Inserted::Split(sep, right) => {
                    let new_root = self.pool.allocate();
                    let f = self.pool.pin(new_root)?;
                    let p = self.pool.page_mut(f);
                    init_internal(p, self.root);
                    int_insert_at(p, 0, sep, right);
                    self.pool.unpin(f);
                    // The sticky (scan-resistant) mark follows the root:
                    // every descent starts there, so it is the one page a
                    // full-order scan must never displace.
                    self.pool.set_sticky(self.root, false);
                    self.pool.set_sticky(new_root, true);
                    self.root = new_root;
                }
            }
        }
        self.entries += 1;
        self.max_key = self.max_key.max(Some(key));
        Ok(true)
    }

    /// The right-edge append: puts `key` (above every key stored) in a
    /// new last cell of the last leaf — one pin, no descent, no search,
    /// no slot shift. `false`, with nothing changed, if the leaf has no
    /// room for it.
    fn append_to_last_leaf(&mut self, key: StoreKey, value: &[u8]) -> io::Result<bool> {
        let f = self.pool.pin(self.last_leaf)?;
        let fits = leaf_free(self.pool.page(f)) >= KEY_BYTES + 4 + value.len();
        if fits {
            let p = self.pool.page_mut(f);
            leaf_insert_at(p, count(p), key, value);
        }
        self.pool.unpin(f);
        Ok(fits)
    }

    fn insert_rec(&mut self, page: PageId, key: StoreKey, value: &[u8]) -> io::Result<Inserted> {
        let f = self.pool.pin(page)?;
        if self.pool.page(f).bytes()[0] == LEAF {
            let p = self.pool.page(f);
            let slot = match leaf_search(p, key) {
                Ok(_) => {
                    self.pool.unpin(f);
                    return Ok(Inserted::Duplicate);
                }
                Err(i) => i,
            };
            if leaf_free(p) >= KEY_BYTES + 4 + value.len() {
                leaf_insert_at(self.pool.page_mut(f), slot, key, value);
                self.pool.unpin(f);
                return Ok(Inserted::Done);
            }
            let past_last_cell = slot == count(p);
            let right_id = self.pool.allocate();
            if page == self.last_leaf {
                self.last_leaf = right_id;
                if past_last_cell {
                    // Right-edge split: the full leaf keeps its cells
                    // and the newcomer starts the next leaf alone.
                    self.pool.page_mut(f).put_u64(3, right_id);
                    self.pool.unpin(f);
                    let rf = self.pool.pin(right_id)?;
                    let rp = self.pool.page_mut(rf);
                    init_leaf(rp);
                    leaf_insert_at(rp, 0, key, value);
                    self.pool.unpin(rf);
                    return Ok(Inserted::Split(key, right_id));
                }
            }
            // Split: gather every cell (plus the newcomer), rewrite the
            // two halves from scratch — compaction for free.
            let p = self.pool.page(f);
            let mut cells: Vec<(StoreKey, Vec<u8>)> = (0..count(p))
                .map(|i| (leaf_key(p, i), leaf_value(p, i).to_vec()))
                .collect();
            cells.insert(slot, (key, value.to_vec()));
            let next = p.u64_at(3);
            let mid = cells.len() / 2;
            let sep = cells[mid].0;
            let rf = self.pool.pin(right_id)?;
            let rp = self.pool.page_mut(rf);
            init_leaf(rp);
            rp.put_u64(3, next);
            for (j, (k, v)) in cells[mid..].iter().enumerate() {
                leaf_insert_at(rp, j, *k, v);
            }
            self.pool.unpin(rf);
            let lp = self.pool.page_mut(f);
            init_leaf(lp);
            lp.put_u64(3, right_id);
            for (j, (k, v)) in cells[..mid].iter().enumerate() {
                leaf_insert_at(lp, j, *k, v);
            }
            self.pool.unpin(f);
            return Ok(Inserted::Split(sep, right_id));
        }
        // Internal node: route, release the pin across the recursion
        // (the pool may evict us), re-pin if the child split.
        let p = self.pool.page(f);
        let route = int_route(p, key);
        let child = int_child_at(p, route);
        self.pool.unpin(f);
        let (sep, right) = match self.insert_rec(child, key, value)? {
            Inserted::Split(sep, right) => (sep, right),
            other => return Ok(other),
        };
        let f = self.pool.pin(page)?;
        if count(self.pool.page(f)) < INT_MAX_KEYS {
            int_insert_at(self.pool.page_mut(f), route, sep, right);
            self.pool.unpin(f);
            return Ok(Inserted::Done);
        }
        // Split the internal node; the middle separator moves up.
        let p = self.pool.page(f);
        let child0 = int_child0(p);
        let mut entries: Vec<(StoreKey, PageId)> = (0..count(p))
            .map(|i| (int_key(p, i), int_child(p, i)))
            .collect();
        entries.insert(route, (sep, right));
        let mid = entries.len() / 2;
        let promoted = entries[mid].0;
        let right_id = self.pool.allocate();
        let rf = self.pool.pin(right_id)?;
        let rp = self.pool.page_mut(rf);
        init_internal(rp, entries[mid].1);
        for (j, (k, c)) in entries[mid + 1..].iter().enumerate() {
            int_insert_at(rp, j, *k, *c);
        }
        self.pool.unpin(rf);
        let lp = self.pool.page_mut(f);
        init_internal(lp, child0);
        for (j, (k, c)) in entries[..mid].iter().enumerate() {
            int_insert_at(lp, j, *k, *c);
        }
        self.pool.unpin(f);
        Ok(Inserted::Split(promoted, right_id))
    }

    /// Streams pairs with `key >= from` in key order, stopping early
    /// the first time `f` returns `false` — the range-scan primitive
    /// the store cursor and chunked-record reads are built on.
    pub fn scan_from(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
    ) -> io::Result<()> {
        // Descend along `from` (not leftmost): the routed leaf is the
        // only one that can hold the first qualifying key.
        let mut page = self.root;
        loop {
            let fr = self.pool.pin(page)?;
            let p = self.pool.page(fr);
            if p.bytes()[0] == LEAF {
                self.pool.unpin(fr);
                break;
            }
            let next = int_child_at(p, int_route(p, from));
            self.pool.unpin(fr);
            page = next;
        }
        let mut leaf = page;
        let mut first = true;
        loop {
            let fr = self.pool.pin(leaf)?;
            let p = self.pool.page(fr);
            let begin = if first {
                first = false;
                match leaf_search(p, from) {
                    Ok(i) | Err(i) => i,
                }
            } else {
                0
            };
            for i in begin..count(p) {
                if !f(leaf_key(p, i), leaf_value(p, i)) {
                    self.pool.unpin(fr);
                    return Ok(());
                }
            }
            let next = p.u64_at(3);
            self.pool.unpin(fr);
            if next == NO_LEAF {
                return Ok(());
            }
            leaf = next;
        }
    }

    /// Shape and occupancy statistics — `shard-trace store --stats`
    /// uses these for postmortem inspection of spilled runs.
    pub fn stats(&mut self) -> io::Result<BTreeStats> {
        // Depth via the leftmost descent.
        let mut depth = 1u32;
        let mut page = self.root;
        loop {
            let fr = self.pool.pin(page)?;
            let p = self.pool.page(fr);
            if p.bytes()[0] == LEAF {
                self.pool.unpin(fr);
                break;
            }
            let next = int_child0(p);
            self.pool.unpin(fr);
            page = next;
            depth += 1;
        }
        // Occupancy via the leaf chain; every allocated page is a tree
        // node, so internal pages are the remainder.
        let mut leaf = page;
        let mut leaf_pages = 0u64;
        let mut used = 0u64;
        loop {
            let fr = self.pool.pin(leaf)?;
            let p = self.pool.page(fr);
            leaf_pages += 1;
            used += (PAGE_SIZE - leaf_free(p)) as u64;
            let next = p.u64_at(3);
            self.pool.unpin(fr);
            if next == NO_LEAF {
                break;
            }
            leaf = next;
        }
        let total_pages = self.pool.page_count();
        Ok(BTreeStats {
            entries: self.entries,
            depth,
            total_pages,
            leaf_pages,
            internal_pages: total_pages - leaf_pages,
            leaf_fill_permille: (used * 1000 / (leaf_pages * PAGE_SIZE as u64)) as u32,
        })
    }
}

/// What [`BTree::stats`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTreeStats {
    /// Key/value pairs stored.
    pub entries: usize,
    /// Root-to-leaf page count along a descent (1 for a lone leaf) —
    /// the pins a point lookup or scan start costs.
    pub depth: u32,
    /// Pages allocated in total.
    pub total_pages: u64,
    /// Leaf pages in the chain.
    pub leaf_pages: u64,
    /// Internal (router) pages.
    pub internal_pages: u64,
    /// Mean leaf occupancy, in permille of the page size.
    pub leaf_fill_permille: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "shard-store-btree-{name}-{}.db",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn tree(name: &str, frames: usize) -> (BTree, PathBuf) {
        let path = tmp(name);
        let pool = BufferPool::create(&path, frames).unwrap();
        (BTree::create(pool).unwrap(), path)
    }

    /// Point lookup, by a range scan that stops at its first pair.
    fn get(t: &mut BTree, key: StoreKey) -> Option<Vec<u8>> {
        let mut found = None;
        t.scan_from(key, &mut |k, v| {
            found = (k == key).then(|| v.to_vec());
            false
        })
        .unwrap();
        found
    }

    /// Every pair, in key order.
    fn scan(t: &mut BTree, f: &mut dyn FnMut(StoreKey, &[u8])) {
        t.scan_from(StoreKey::new(0, 0), &mut |k, v| {
            f(k, v);
            true
        })
        .unwrap();
    }

    /// Deterministic pseudo-random stream (xorshift) — no RNG dep here.
    fn xs(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn matches_btreemap_oracle_under_random_inserts() {
        let (mut t, path) = tree("oracle", 16);
        let mut oracle = BTreeMap::new();
        let mut seed = 0x5eed_cafe_f00d_0001u64;
        for _ in 0..5000 {
            let k = StoreKey::new(xs(&mut seed) % 4096, (xs(&mut seed) % 7) as u16);
            let v = xs(&mut seed).to_be_bytes().to_vec();
            let fresh = t.insert(k, &v).unwrap();
            let oracle_fresh = !oracle.contains_key(&k);
            assert_eq!(fresh, oracle_fresh, "duplicate handling diverged at {k:?}");
            oracle.entry(k).or_insert(v);
        }
        assert_eq!(t.len(), oracle.len());
        let mut scanned = Vec::new();
        scan(&mut t, &mut |k, v| scanned.push((k, v.to_vec())));
        let expect: Vec<_> = oracle.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(scanned, expect, "key-order scan matches the oracle");
        for (k, v) in oracle.iter().take(200) {
            assert_eq!(get(&mut t, *k).as_deref(), Some(v.as_slice()));
        }
        assert_eq!(get(&mut t, StoreKey::new(u64::MAX, 9)), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequential_inserts_chain_leaves() {
        // Ascending timestamps are the common case (a node's own log):
        // the scan must see all keys in order across the leaf chain.
        let (mut t, path) = tree("seq", 16);
        let n = 20_000u64;
        for i in 0..n {
            assert!(t.insert(StoreKey::new(i, 3), &i.to_be_bytes()).unwrap());
        }
        assert!(t.pool.page_count() > 64, "must span many pages");
        let mut prev = None;
        let mut seen = 0u64;
        scan(&mut t, &mut |k, v| {
            assert!(prev.is_none_or(|p| p < k), "strictly increasing");
            assert_eq!(u64::from_be_bytes(v.try_into().unwrap()), k.primary);
            prev = Some(k);
            seen += 1;
        });
        assert_eq!(seen, n);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_from_matches_oracle_ranges() {
        let (mut t, path) = tree("scan-from", 16);
        let mut oracle = BTreeMap::new();
        let mut seed = 0x5eed_0bad_cafe_0002u64;
        for _ in 0..4000 {
            let k = StoreKey::new(xs(&mut seed) % 2048, (xs(&mut seed) % 5) as u16);
            let v = xs(&mut seed).to_be_bytes().to_vec();
            t.insert(k, &v).unwrap();
            oracle.entry(k).or_insert(v);
        }
        for start in [
            StoreKey::new(0, 0),
            StoreKey::new(1, 3),
            StoreKey::new(997, 0),
            StoreKey::new(2047, 4),
            StoreKey::new(5000, 0), // past every key
        ] {
            let mut got = Vec::new();
            t.scan_from(start, &mut |k, v| {
                got.push((k, v.to_vec()));
                true
            })
            .unwrap();
            let expect: Vec<_> = oracle
                .range(start..)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            assert_eq!(got, expect, "range from {start:?}");
        }
        // Early stop: the callback sees exactly as many pairs as it
        // asked for.
        let mut seen = 0usize;
        t.scan_from(StoreKey::new(0, 0), &mut |_, _| {
            seen += 1;
            seen < 17
        })
        .unwrap();
        assert_eq!(seen, 17);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_reflect_tree_shape() {
        let (mut t, path) = tree("stats", 16);
        let s = t.stats().unwrap();
        assert_eq!((s.depth, s.leaf_pages, s.internal_pages), (1, 1, 0));
        for i in 0..20_000u64 {
            t.insert(StoreKey::new(i, 0), &i.to_be_bytes()).unwrap();
        }
        let s = t.stats().unwrap();
        assert_eq!(s.entries, 20_000);
        assert!(s.depth >= 2, "split at least once: {s:?}");
        assert_eq!(s.total_pages, s.leaf_pages + s.internal_pages);
        assert_eq!(s.total_pages, t.pool.page_count());
        assert!(
            (300..=1000).contains(&s.leaf_fill_permille),
            "fill factor plausible: {s:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Inserts `order` (values ~90 B, the size of a streamed row) into a
    /// tree over the smallest legal pool, holds the full scan to a
    /// `BTreeMap`, and returns the shape.
    fn shape_after(name: &str, order: &[u64]) -> BTreeStats {
        let (mut t, path) = tree(name, BufferPool::MIN_FRAMES);
        let mut oracle = BTreeMap::new();
        for &i in order {
            let k = StoreKey::new(i / 2, (i % 2) as u16);
            let v = vec![(i % 251) as u8; 86 + (i % 9) as usize];
            assert!(t.insert(k, &v).unwrap(), "{k:?} is new");
            oracle.insert(k, v);
        }
        let mut scanned = Vec::new();
        scan(&mut t, &mut |k, v| scanned.push((k, v.to_vec())));
        assert!(scanned.into_iter().eq(oracle), "{name}: scan == oracle");
        let s = t.stats().unwrap();
        assert_eq!(s.entries, order.len());
        std::fs::remove_file(&path).unwrap();
        s
    }

    #[test]
    fn leaf_fill_follows_the_arrival_order() {
        // 20 000 rows are ~520 full leaves: enough for leaf splits, the
        // root's split into internal pages and a non-root internal
        // split, all under a pool of MIN_FRAMES.
        let n = 20_000u64;
        let ascending: Vec<u64> = (0..n).collect();
        let full = shape_after("fill-ascending", &ascending);
        assert!(full.leaf_fill_permille >= 950, "full leaves: {full:?}");
        assert!(full.depth == 3 && full.internal_pages > 2, "{full:?}");

        let mut shuffled = ascending.clone();
        let mut seed = 0x5eed_f111_0000_0003u64;
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (xs(&mut seed) % (i as u64 + 1)) as usize);
        }
        let random = shape_after("fill-shuffled", &shuffled);
        assert!(random.depth <= 3, "{random:?}");
        assert!(
            (600..800).contains(&random.leaf_fill_permille),
            "every split halves: {random:?}"
        );

        // A node mirror's arrival order: ascending, with every 7th key
        // held back — by 50 positions it lands in a leaf already left
        // full (which then splits in half), by 3 it lands in the last
        // leaf, sometimes as the insert that finds it full.
        for delay in [50u64, 3] {
            let mut stragglers = Vec::with_capacity(ascending.len());
            for i in 0..n + delay {
                if i < n && i % 7 != 6 {
                    stragglers.push(i);
                }
                if i >= delay && (i - delay) % 7 == 6 {
                    stragglers.push(i - delay);
                }
            }
            let mixed = shape_after("fill-stragglers", &stragglers);
            assert!(mixed.depth <= 3, "{mixed:?}");
            assert!(
                (500..full.leaf_fill_permille).contains(&mixed.leaf_fill_permille),
                "delay {delay}: never under half full: {mixed:?}"
            );
        }
    }

    #[test]
    fn duplicates_of_the_maximum_key_stay_first_writer_wins() {
        let (mut t, path) = tree("dup-max", 16);
        for i in 0..500u64 {
            assert!(t.insert(StoreKey::new(i, 0), &i.to_be_bytes()).unwrap());
            // The key just appended is the maximum: a second write of
            // it must not take the right-edge path.
            assert!(!t.insert(StoreKey::new(i, 0), b"second").unwrap());
        }
        assert_eq!(t.len(), 500);
        let mut seen = 0u64;
        scan(&mut t, &mut |k, v| {
            assert_eq!(v, k.primary.to_be_bytes());
            seen += 1;
        });
        assert_eq!(seen, 500);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversize_value_is_an_error_not_a_panic() {
        let (mut t, path) = tree("oversize", 16);
        t.insert(StoreKey::new(1, 0), &[1u8; MAX_VALUE]).unwrap();
        let e = t.insert(StoreKey::new(2, 0), &[2u8; MAX_VALUE + 1]);
        assert_eq!(e.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(t.len(), 1);
        assert!(t.insert(StoreKey::new(2, 0), b"fits").unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pool_pressure_does_not_corrupt() {
        // A pool far smaller than the tree: every descent faults pages.
        let (mut t, path) = tree("pressure", 8);
        for i in (0..8000u64).rev() {
            t.insert(StoreKey::new(i, 0), &(i * 3).to_be_bytes())
                .unwrap();
        }
        for i in [0u64, 1, 999, 4096, 7999] {
            let got = get(&mut t, StoreKey::new(i, 0)).unwrap();
            assert_eq!(u64::from_be_bytes(got.try_into().unwrap()), i * 3);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
