//! The [`Store`] trait — what the simulator's durable layer programs
//! against — and its two implementations.
//!
//! A store is an **ordered log of `(key, value)` records with a
//! durability barrier and an explicit crash model**:
//!
//! * [`Store::append`] adds a record (buffered, *not* durable);
//! * [`Store::sync`] is the fsync barrier — everything appended before
//!   it survives any later crash;
//! * [`Store::crash`] models the power cut: the log is truncated at an
//!   arbitrary byte offset (honest hardware keeps at least
//!   [`Store::synced_bytes`]), reopened, and torn records are dropped;
//! * [`Store::scan_arrival`] streams records in append order — the
//!   recovery path; [`Store::scan_key_range`] streams in key
//!   (timestamp) order.
//!
//! [`MemStore`] keeps the same byte accounting as the disk format, so
//! crash offsets mean the same thing in both — the deterministic
//! kernel's proptests run against `MemStore` and transfer to
//! [`DiskStore`] by construction (and E24 checks they agree).
//!
//! [`DiskStore`]: crate::DiskStore

use crate::codec::StoreKey;
use crate::wal::{record_bytes, KeyOrder};
use std::io;

/// What a power cut did to a store: the outcome of a [`Store::crash`]
/// and the reopen after it — and of a node's kill, which is one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashReport {
    /// Records that survived (a prefix of the arrival order).
    pub kept_entries: usize,
    /// Bytes of intact log after torn-tail truncation (record-aligned,
    /// `<=` the requested keep).
    pub kept_bytes: u64,
    /// Bytes that were appended but lost to the cut: the length before
    /// it less `kept_bytes`.
    pub lost_bytes: u64,
    /// Whether the keep offset cut a record in half (the torn record
    /// was dropped on reopen, as after a real crash).
    pub torn: bool,
}

/// Tuning for a [`DiskStore`](crate::DiskStore) (and the byte model of [`MemStore`]).
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Rotate to a fresh WAL segment once the active one reaches this
    /// many bytes. Small values exercise rotation; production-ish
    /// values amortise file-table overhead.
    pub segment_bytes: u64,
    // Vestige: nothing reads it and there is no pool. Kept because the
    // frozen benchmark prints it as a note (`benchmark/src/audit.rs:392`);
    // goes with ROADMAP item 1.
    #[doc(hidden)]
    pub pool_frames: usize,
}

impl Default for StoreOptions {
    /// 1 MiB segments.
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 1 << 20,
            pool_frames: 0,
        }
    }
}

/// An ordered, crash-truncatable record log. See the module docs for
/// the contract; `docs/storage.md` for the recovery invariants built
/// on top of it.
pub trait Store {
    /// Appends one record. Buffered until the next [`Store::sync`].
    /// A value of any length a record can frame — a
    /// [`DiskStore`](crate::DiskStore) refuses, with `InvalidInput` and
    /// before anything is written, one whose record would not fit the
    /// WAL's `u32` length field.
    fn append(&mut self, key: StoreKey, value: &[u8]) -> io::Result<()>;

    /// Durability barrier: everything appended so far survives crashes.
    fn sync(&mut self) -> io::Result<()>;

    /// Logical end offset of the log in bytes.
    fn len_bytes(&self) -> u64;

    /// Offset up to which the log is known durable.
    fn synced_bytes(&self) -> u64;

    /// Records in the log.
    fn entries(&self) -> usize;

    /// Streams records in append (arrival) order.
    fn scan_arrival(&mut self, f: &mut dyn FnMut(StoreKey, &[u8])) -> io::Result<()>;

    /// Streams records with `key >= from` in key order — of records
    /// appended under one key, only the first — stopping early the
    /// first time `f` returns `false`: the cursor primitive the
    /// out-of-core replay path folds over.
    fn scan_key_range(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
    ) -> io::Result<()>;

    /// Simulates a crash preserving exactly the first `keep` bytes,
    /// then recovers: reopen, truncate the torn tail, rebuild derived
    /// state. Honest hardware passes `keep >= synced_bytes()`.
    fn crash(&mut self, keep: u64) -> io::Result<CrashReport>;
}

/// The in-memory store: the write-ahead log's byte model in one buffer,
/// with the same crash semantics as a [`DiskStore`](crate::DiskStore).
/// Every value sits back to back in one `Vec<u8>` and each record is
/// one `(key, value end, byte end)` entry, so an append copies its
/// value once and allocates only when a buffer grows. Key scans take
/// the disk store's two paths: a log whose keys never decreased is
/// searched in place, any other is sorted on the call. The default
/// backend — durability without the I/O, for deterministic tests and
/// fast chaos sweeps — and the reference a `DiskStore`'s reads are held
/// to.
pub struct MemStore {
    /// Every value, back to back in arrival order.
    values: Vec<u8>,
    /// `(key, end of the value in values, end of the record in the
    /// log)` in arrival order.
    records: Vec<(StoreKey, usize, u64)>,
    /// Whether the keys never decreased, and the largest; decides how
    /// `scan_key_range` reads.
    keys: KeyOrder,
    synced: u64,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            values: Vec::new(),
            records: Vec::new(),
            keys: KeyOrder::EMPTY,
            synced: 0,
        }
    }
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Record `i`'s key and value.
    fn record(&self, i: usize) -> (StoreKey, &[u8]) {
        let start = i.checked_sub(1).map_or(0, |j| self.records[j].1);
        let (key, end, _) = self.records[i];
        (key, &self.values[start..end])
    }
}

impl Store for MemStore {
    fn append(&mut self, key: StoreKey, value: &[u8]) -> io::Result<()> {
        let end = self.len_bytes() + record_bytes(value.len());
        self.values.extend_from_slice(value);
        self.records.push((key, self.values.len(), end));
        self.keys.push(key);
        shard_obs::counter!("store.wal_appends", crate::family).inc();
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let len = self.len_bytes();
        if self.synced < len {
            self.synced = len;
            shard_obs::counter!("store.wal_fsyncs", crate::family).inc();
        }
        Ok(())
    }

    fn len_bytes(&self) -> u64 {
        self.records.last().map_or(0, |&(_, _, end)| end)
    }

    fn synced_bytes(&self) -> u64 {
        self.synced
    }

    fn entries(&self) -> usize {
        self.records.len()
    }

    fn scan_arrival(&mut self, f: &mut dyn FnMut(StoreKey, &[u8])) -> io::Result<()> {
        for i in 0..self.records.len() {
            let (key, value) = self.record(i);
            f(key, value);
        }
        Ok(())
    }

    fn scan_key_range(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
    ) -> io::Result<()> {
        if self.keys.max.is_none_or(|max| max < from) {
            return Ok(());
        }
        if self.keys.ascending {
            // The log is the sorted run: of a key's records, the first.
            let start = self.records.partition_point(|&(k, ..)| k < from);
            let mut last = None;
            for i in start..self.records.len() {
                let (key, value) = self.record(i);
                if last == Some(key) {
                    continue;
                }
                last = Some(key);
                if !f(key, value) {
                    break;
                }
            }
        } else {
            // A stable sort keeps the first writer of a key first.
            let mut order: Vec<usize> = (0..self.records.len())
                .filter(|&i| self.records[i].0 >= from)
                .collect();
            order.sort_by_key(|&i| self.records[i].0);
            order.dedup_by_key(|i| self.records[*i].0);
            for i in order {
                let (key, value) = self.record(i);
                if !f(key, value) {
                    break;
                }
            }
        }
        Ok(())
    }

    fn crash(&mut self, keep: u64) -> io::Result<CrashReport> {
        let len = self.len_bytes();
        let kept = self.records.partition_point(|&(_, _, end)| end <= keep);
        self.records.truncate(kept);
        self.values
            .truncate(self.records.last().map_or(0, |&(_, end, _)| end));
        self.keys = KeyOrder::EMPTY;
        for &(key, ..) in &self.records {
            self.keys.push(key);
        }
        let kept_bytes = self.len_bytes();
        let torn = kept_bytes < keep.min(len);
        self.synced = kept_bytes;
        if torn {
            shard_obs::counter!("store.wal_torn_truncations", crate::family).inc();
        }
        shard_obs::counter!("store.recovered_entries", crate::family).add(kept as u64);
        Ok(CrashReport {
            kept_entries: kept,
            kept_bytes,
            lost_bytes: len - kept_bytes,
            torn,
        })
    }
}

/// A pull-style cursor over a store's key order: batches of records are
/// fetched through [`Store::scan_key_range`] and handed out one at a
/// time, so a caller can interleave cursor reads with other store
/// access (the callback API borrows the store for the whole scan; the
/// cursor only borrows it per refill).
#[derive(Debug)]
pub struct KeyCursor {
    /// Resume key for the next refill; `None` once the scan is done.
    next_from: Option<StoreKey>,
    batch: std::collections::VecDeque<(StoreKey, Vec<u8>)>,
    batch_size: usize,
}

impl KeyCursor {
    /// A cursor over the whole key range, fetching `batch_size` records
    /// per refill.
    pub fn new(batch_size: usize) -> Self {
        KeyCursor::starting_at(StoreKey::new(0, 0), batch_size)
    }

    /// A cursor over `[from, ..)`.
    pub fn starting_at(from: StoreKey, batch_size: usize) -> Self {
        KeyCursor {
            next_from: Some(from),
            batch: std::collections::VecDeque::new(),
            batch_size: batch_size.max(1),
        }
    }

    /// The next record in key order, or `None` at the end.
    pub fn next(&mut self, store: &mut dyn Store) -> io::Result<Option<(StoreKey, Vec<u8>)>> {
        if self.batch.is_empty() {
            let Some(from) = self.next_from else {
                return Ok(None);
            };
            let batch = &mut self.batch;
            let cap = self.batch_size;
            store.scan_key_range(from, &mut |k, v| {
                batch.push_back((k, v.to_vec()));
                batch.len() < cap
            })?;
            self.next_from = if self.batch.len() < cap {
                None // the store had no more records
            } else {
                self.batch.back().and_then(|(k, _)| key_successor(*k))
            };
        }
        Ok(self.batch.pop_front())
    }
}

/// The smallest key strictly greater than `k`, or `None` at the top of
/// the key space.
fn key_successor(k: StoreKey) -> Option<StoreKey> {
    if k.secondary < u16::MAX {
        Some(StoreKey::new(k.primary, k.secondary + 1))
    } else if k.primary < u64::MAX {
        Some(StoreKey::new(k.primary + 1, 0))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskStore;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shard-store-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fill(store: &mut dyn Store, n: u64, sync_every: u64) {
        for i in 0..n {
            store
                .append(StoreKey::new(i / 3, (i % 3) as u16), &i.to_be_bytes())
                .unwrap();
            if (i + 1) % sync_every == 0 {
                store.sync().unwrap();
            }
        }
    }

    fn key_order(store: &mut dyn Store) -> Vec<(StoreKey, Vec<u8>)> {
        let mut out = Vec::new();
        store
            .scan_key_range(StoreKey::new(0, 0), &mut |k, v| {
                out.push((k, v.to_vec()));
                true
            })
            .unwrap();
        out
    }

    fn arrival(store: &mut dyn Store) -> Vec<(StoreKey, Vec<u8>)> {
        let mut out = Vec::new();
        store
            .scan_arrival(&mut |k, v| out.push((k, v.to_vec())))
            .unwrap();
        out
    }

    #[test]
    fn mem_and_disk_agree_byte_for_byte() {
        let dir = tmp("agree");
        let mut mem = MemStore::new();
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        fill(&mut mem, 200, 7);
        fill(&mut disk, 200, 7);
        assert_eq!(mem.len_bytes(), disk.len_bytes());
        assert_eq!(mem.synced_bytes(), disk.synced_bytes());
        assert_eq!(mem.entries(), disk.entries());
        assert_eq!(arrival(&mut mem), arrival(&mut disk));
        assert_eq!(key_order(&mut mem), key_order(&mut disk));
        // Crash both at the same mid-record offset: identical outcomes.
        let keep = mem.len_bytes() - 13;
        let mr = mem.crash(keep).unwrap();
        let dr = disk.crash(keep).unwrap();
        assert_eq!(mr, dr);
        assert_eq!(arrival(&mut mem), arrival(&mut disk));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_keeps_synced_prefix() {
        let dir = tmp("synced");
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        fill(&mut disk, 100, 10);
        let synced = disk.synced_bytes();
        let len = disk.len_bytes();
        assert_eq!(synced, len, "100 divides by 10: all synced");
        fill(&mut disk, 5, u64::MAX); // 5 unsynced appends
        assert!(disk.synced_bytes() < disk.len_bytes());
        let r = disk.crash(disk.synced_bytes()).unwrap();
        assert_eq!(r.kept_entries, 100);
        assert!(!r.torn, "cut exactly at a barrier is clean");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_range_scans_agree_and_stop_early() {
        let dir = tmp("range");
        let mut mem = MemStore::new();
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        fill(&mut mem, 300, 11);
        fill(&mut disk, 300, 11);
        for from in [
            StoreKey::new(0, 0),
            StoreKey::new(17, 1),
            StoreKey::new(50, 2),
            StoreKey::new(99, 2),
            StoreKey::new(101, 0),
        ] {
            let range = |s: &mut dyn Store| {
                let mut out = Vec::new();
                s.scan_key_range(from, &mut |k, v| {
                    out.push((k, v.to_vec()));
                    out.len() < 20
                })
                .unwrap();
                out
            };
            let m = range(&mut mem);
            let d = range(&mut disk);
            assert_eq!(m, d, "from {from:?}");
            assert!(m.len() <= 20, "early stop honoured");
            assert!(m.windows(2).all(|w| w[0].0 < w[1].0), "key order");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cursor_matches_full_scan() {
        let dir = tmp("cursor");
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        fill(&mut disk, 257, 50); // not a multiple of the batch size
        let expect = key_order(&mut disk);
        for batch_size in [1, 7, 64, 1000] {
            let mut cur = KeyCursor::new(batch_size);
            let mut got = Vec::new();
            while let Some(rec) = cur.next(&mut disk).unwrap() {
                got.push(rec);
            }
            assert_eq!(got, expect, "batch size {batch_size}");
        }
        // Interleaving appends with an open cursor: records past the
        // resume point become visible, matching the range contract.
        let mut cur = KeyCursor::starting_at(StoreKey::new(80, 0), 10);
        let first = cur.next(&mut disk).unwrap().unwrap();
        assert_eq!(first.0, StoreKey::new(80, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = tmp("reopen");
        {
            let (mut disk, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
            assert_eq!(recovered, 0);
            fill(&mut disk, 50, 1);
        }
        let (mut disk, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered, 50);
        assert_eq!(disk.entries(), 50);
        assert!(key_order(&mut disk)
            .iter()
            .any(|(k, _)| *k == StoreKey::new(0, 1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_three_mebibyte_value_round_trips_across_a_rotation() {
        // Far over the write buffer, the read block and a segment: one
        // record all the same, on both stores, before and after reopen.
        let dir = tmp("big-value");
        let big: Vec<u8> = (0..3usize << 20).map(|i| (i % 251) as u8).collect();
        let mut mem = MemStore::new();
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        for store in [&mut mem as &mut dyn Store, &mut disk] {
            fill(store, 30, 7);
            store.append(StoreKey::new(10, 0), &big).unwrap();
            // The segment is over its size now: the next append rotates.
            store.append(StoreKey::new(11, 0), b"after").unwrap();
            store.append(StoreKey::new(12, 0), &big[..70_000]).unwrap();
            store.sync().unwrap();
        }
        assert_eq!(mem.len_bytes(), disk.len_bytes());
        let expect = key_order(&mut mem);
        assert_eq!(expect[30], (StoreKey::new(10, 0), big.clone()));
        assert_eq!(key_order(&mut disk), expect);
        assert_eq!(arrival(&mut disk), arrival(&mut mem));
        drop(disk);
        assert!(dir.join("wal-00000001.seg").exists(), "it did rotate");
        let (mut disk, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered, 33);
        assert_eq!(key_order(&mut disk), expect);
        let mut cursor = KeyCursor::starting_at(StoreKey::new(10, 0), 2);
        let first = cursor.next(&mut disk).unwrap().unwrap();
        assert_eq!(first, (StoreKey::new(10, 0), big));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[derive(Clone, Debug)]
    enum Op {
        Append(StoreKey, usize),
        Sync,
        ScanArrival,
        ScanKeys(StoreKey),
        /// Cut at `synced + (len - synced) * permille / 1000`.
        Crash(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Appends dominate (252 in 256) so that write buffers fill
        // between the operations that flush them.
        let key = (0u64..48, 0u16..3);
        (0u32..256, key, 0usize..=1024, 0u64..=1000).prop_map(
            |(pick, (primary, secondary), len, permille)| {
                let key = StoreKey::new(primary, secondary);
                match pick {
                    0 => Op::Sync,
                    1 => Op::ScanArrival,
                    2 => Op::ScanKeys(key),
                    3 => Op::Crash(permille),
                    _ => Op::Append(key, len),
                }
            },
        )
    }

    /// What the streaming tier does to a store: appends in key order
    /// (a key may repeat), and cursors that come back for more.
    #[derive(Clone, Debug)]
    enum SortedOp {
        /// Append under the last key plus this step — 0 repeats it.
        Append(u64, usize),
        Sync,
        /// Cut at `synced + (len - synced) * permille / 1000`.
        Crash(u64),
        /// Point a cursor at `max key * permille / 1000` with a batch.
        Seek(usize, u64, usize),
        /// Pull this many records off a cursor.
        Pull(usize, usize),
    }

    fn sorted_op() -> impl Strategy<Value = SortedOp> {
        let batch = prop_oneof![Just(1usize), Just(7), Just(1024)];
        let cursor = (0usize..2, batch, 1usize..60);
        (0u32..100, (0u64..4, 0usize..200), 0u64..=1000, cursor).prop_map(
            |(pick, (step, len), permille, (which, batch, pulls))| match pick {
                0..=59 => SortedOp::Append(step, len),
                60..=61 => SortedOp::Sync,
                62..=63 => SortedOp::Crash(permille),
                64..=71 => SortedOp::Seek(which, permille, batch),
                _ => SortedOp::Pull(which, pulls),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The backends are interchangeable at every step of any
        /// interleaving — sizes, both scan orders and every crash
        /// outcome — whether rotations fall mid-buffer (small segments)
        /// or the buffer fills on its own (default segments). The one
        /// thing `MemStore` does not model is that a rotation fsyncs
        /// the segment it closes: the disk's barrier may run ahead of
        /// the memory model's, never behind, and is equal to it as long
        /// as nothing rotates.
        #[test]
        fn disk_and_mem_agree_under_random_interleavings(
            ops in proptest::collection::vec(op(), 1..1200),
            segment_bytes in prop_oneof![2_000u64..40_000, Just(1u64 << 20)],
        ) {
            let dir = tmp("interleave");
            let rotates = segment_bytes < 1 << 20;
            let opts = StoreOptions { segment_bytes, ..StoreOptions::default() };
            let mut mem = MemStore::new();
            let (mut disk, _) = DiskStore::open(&dir, opts).unwrap();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Append(key, len) => {
                        let value = vec![step as u8; *len];
                        mem.append(*key, &value).unwrap();
                        disk.append(*key, &value).unwrap();
                    }
                    Op::Sync => {
                        mem.sync().unwrap();
                        disk.sync().unwrap();
                    }
                    Op::ScanArrival => {
                        prop_assert_eq!(arrival(&mut mem), arrival(&mut disk), "step {}", step);
                    }
                    Op::ScanKeys(from) => {
                        let range = |s: &mut dyn Store| {
                            let mut out = Vec::new();
                            s.scan_key_range(*from, &mut |k, v| {
                                out.push((k, v.to_vec()));
                                out.len() < 40
                            })
                            .unwrap();
                            out
                        };
                        prop_assert_eq!(range(&mut mem), range(&mut disk), "step {}", step);
                    }
                    Op::Crash(permille) => {
                        let (synced, len) = (disk.synced_bytes(), disk.len_bytes());
                        let keep = synced + (len - synced) * permille / 1000;
                        let report = mem.crash(keep).unwrap();
                        prop_assert_eq!(report, disk.crash(keep).unwrap(), "step {}", step);
                    }
                }
                prop_assert_eq!(
                    (mem.len_bytes(), mem.entries()),
                    (disk.len_bytes(), disk.entries()),
                    "step {} ({:?})", step, op
                );
                let (m, d) = (mem.synced_bytes(), disk.synced_bytes());
                prop_assert!(
                    if rotates { m <= d } else { m == d },
                    "step {} ({:?}): synced {} in memory, {} on disk", step, op, m, d
                );
            }
            prop_assert_eq!(arrival(&mut mem), arrival(&mut disk));
            prop_assert_eq!(key_order(&mut mem), key_order(&mut disk));
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// On a log in key order the disk store seeks — over fences, or
        /// from where its last scan stopped — and none of that may show:
        /// two cursors taking turns on one store, at any batch size,
        /// from any key, across syncs, rotations and crashes, read what
        /// `MemStore`'s read.
        #[test]
        fn cursors_over_a_sorted_log_read_what_the_memory_store_reads(
            ops in proptest::collection::vec(sorted_op(), 1..900),
            segment_bytes in prop_oneof![1_500u64..20_000, Just(1u64 << 20)],
        ) {
            let dir = tmp("sorted-cursors");
            let opts = StoreOptions { segment_bytes, ..StoreOptions::default() };
            let mut mem = MemStore::new();
            let (mut disk, _) = DiskStore::open(&dir, opts).unwrap();
            let key = |n: u64| StoreKey::new(n / 3, (n % 3) as u16);
            let mut last = 0u64;
            let mut cursors = [
                (KeyCursor::new(7), KeyCursor::new(7)),
                (KeyCursor::new(1), KeyCursor::new(1)),
            ];
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    SortedOp::Append(ahead, len) => {
                        last += ahead;
                        let value = vec![step as u8; len];
                        mem.append(key(last), &value).unwrap();
                        disk.append(key(last), &value).unwrap();
                    }
                    SortedOp::Sync => {
                        mem.sync().unwrap();
                        disk.sync().unwrap();
                    }
                    SortedOp::Crash(permille) => {
                        let (synced, len) = (disk.synced_bytes(), disk.len_bytes());
                        let keep = synced + (len - synced) * permille / 1000;
                        let report = mem.crash(keep).unwrap();
                        prop_assert_eq!(report, disk.crash(keep).unwrap(), "step {}", step);
                    }
                    SortedOp::Seek(which, permille, batch) => {
                        let from = key(last * permille / 1000);
                        cursors[which] = (
                            KeyCursor::starting_at(from, batch),
                            KeyCursor::starting_at(from, batch),
                        );
                    }
                    SortedOp::Pull(which, pulls) => {
                        let (on_mem, on_disk) = &mut cursors[which];
                        for _ in 0..pulls {
                            let expect = on_mem.next(&mut mem).unwrap();
                            let got = on_disk.next(&mut disk).unwrap();
                            prop_assert_eq!(&got, &expect, "step {} ({:?})", step, op);
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(key_order(&mut mem), key_order(&mut disk));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
