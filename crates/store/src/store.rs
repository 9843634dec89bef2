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
//!   (timestamp) order through the B+tree index.
//!
//! [`MemStore`] keeps the same byte accounting as the disk format, so
//! crash offsets mean the same thing in both — the deterministic
//! kernel's proptests run against `MemStore` and transfer to
//! [`DiskStore`] by construction (and E24 checks they agree).

use crate::btree::BTree;
use crate::codec::{StoreKey, KEY_BYTES};
use crate::pool::BufferPool;
use crate::wal::{Wal, WalOptions, RECORD_HEADER};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Outcome of a [`Store::crash`] + reopen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashReport {
    /// Records that survived.
    pub kept_entries: usize,
    /// Bytes that survived (record-aligned, `<=` the requested keep).
    pub kept_bytes: u64,
    /// Whether the keep offset cut a record in half (the torn record
    /// was dropped).
    pub torn: bool,
}

/// Tuning for a [`DiskStore`] (and the byte model of [`MemStore`]).
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// WAL segment rotation threshold.
    pub segment_bytes: u64,
    /// Buffer-pool frames for the B+tree index.
    pub pool_frames: usize,
}

impl Default for StoreOptions {
    /// 1 MiB segments, 64 frames (256 KiB of page cache).
    fn default() -> Self {
        StoreOptions {
            segment_bytes: WalOptions::default().segment_bytes,
            pool_frames: 64,
        }
    }
}

/// An ordered, crash-truncatable record log. See the module docs for
/// the contract; `docs/storage.md` for the recovery invariants built
/// on top of it.
pub trait Store {
    /// Appends one record. Buffered until the next [`Store::sync`].
    /// A value longer than [`CHUNK_BYTES`] is refused with
    /// `InvalidInput` before anything is written (split it with
    /// [`append_chunked`]).
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

    /// Streams records with `key >= from` in key order, stopping early
    /// the first time `f` returns `false` — the cursor primitive the
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

/// Per-record byte cost shared by both stores (`header + key + value`).
fn record_bytes(value_len: usize) -> u64 {
    RECORD_HEADER + (KEY_BYTES + value_len) as u64
}

/// Errors (as `kind`, naming the key) on a value that does not fit a
/// B+tree leaf cell — checked before a record is written, and again on
/// every record an open reads back.
fn check_value(key: StoreKey, value: &[u8], kind: io::ErrorKind) -> io::Result<()> {
    if value.len() <= CHUNK_BYTES {
        return Ok(());
    }
    Err(io::Error::new(
        kind,
        format!(
            "record {key:?}: {} value bytes, over the {CHUNK_BYTES}-byte limit",
            value.len()
        ),
    ))
}

/// The in-memory store: a `Vec` of records with disk-faithful byte
/// accounting and the same crash semantics as [`DiskStore`]. The
/// default backend — durability without the I/O, for deterministic
/// tests and fast chaos sweeps.
#[derive(Default)]
pub struct MemStore {
    /// `(key, value, end_offset)` in arrival order.
    records: Vec<(StoreKey, Vec<u8>, u64)>,
    /// Key-order index (the `DiskStore`'s B+tree, flattened).
    index: BTreeMap<StoreKey, usize>,
    len: u64,
    synced: u64,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl Store for MemStore {
    fn append(&mut self, key: StoreKey, value: &[u8]) -> io::Result<()> {
        check_value(key, value, io::ErrorKind::InvalidInput)?;
        self.len += record_bytes(value.len());
        self.index.entry(key).or_insert(self.records.len());
        self.records.push((key, value.to_vec(), self.len));
        shard_obs::counter!("store.wal_appends", crate::family).inc();
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.synced < self.len {
            self.synced = self.len;
            shard_obs::counter!("store.wal_fsyncs", crate::family).inc();
        }
        Ok(())
    }

    fn len_bytes(&self) -> u64 {
        self.len
    }

    fn synced_bytes(&self) -> u64 {
        self.synced
    }

    fn entries(&self) -> usize {
        self.records.len()
    }

    fn scan_arrival(&mut self, f: &mut dyn FnMut(StoreKey, &[u8])) -> io::Result<()> {
        for (k, v, _) in &self.records {
            f(*k, v);
        }
        Ok(())
    }

    fn scan_key_range(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
    ) -> io::Result<()> {
        for (k, &i) in self.index.range(from..) {
            if !f(*k, &self.records[i].1) {
                break;
            }
        }
        Ok(())
    }

    fn crash(&mut self, keep: u64) -> io::Result<CrashReport> {
        let kept = self
            .records
            .iter()
            .take_while(|(_, _, end)| *end <= keep)
            .count();
        let kept_bytes = if kept == 0 {
            0
        } else {
            self.records[kept - 1].2
        };
        let torn = kept_bytes < keep.min(self.len);
        self.records.truncate(kept);
        // Rebuild the index first-writer-wins, matching the B+tree.
        self.index.clear();
        for (i, (k, _, _)) in self.records.iter().enumerate() {
            self.index.entry(*k).or_insert(i);
        }
        self.len = kept_bytes;
        self.synced = kept_bytes;
        if torn {
            shard_obs::counter!("store.wal_torn_truncations", crate::family).inc();
        }
        shard_obs::counter!("store.recovered_entries", crate::family).add(kept as u64);
        Ok(CrashReport {
            kept_entries: kept,
            kept_bytes,
            torn,
        })
    }
}

/// The disk store: a [`Wal`] (authoritative, arrival order) plus a
/// [`BTree`] index (derived, key order) rebuilt from the WAL on every
/// open. Opt in by passing an explicit directory.
pub struct DiskStore {
    dir: PathBuf,
    opts: StoreOptions,
    wal: Wal,
    index: BTree,
}

impl DiskStore {
    /// Opens (creating if needed) the store in `dir`: validates the
    /// WAL, truncates any torn tail, and rebuilds the B+tree index by
    /// streaming the log. Returns the store and the records recovered.
    ///
    /// # Errors
    ///
    /// I/O errors, and `InvalidData` naming the key of a WAL record
    /// whose value is longer than [`CHUNK_BYTES`] — a log this store
    /// did not write.
    pub fn open(dir: &Path, opts: StoreOptions) -> io::Result<(Self, usize)> {
        let wal_opts = WalOptions {
            segment_bytes: opts.segment_bytes,
        };
        let (mut wal, report) = Wal::open(dir, wal_opts)?;
        let pool = BufferPool::create(&dir.join("pages.db"), opts.pool_frames)?;
        let mut index = BTree::create(pool)?;
        // The scan callback is infallible by design; stash the first
        // index-build error and surface it after the walk.
        let mut failed = None;
        wal.for_each(|k, v| {
            if failed.is_none() {
                failed = check_value(k, v, io::ErrorKind::InvalidData)
                    .and_then(|()| index.insert(k, v))
                    .err();
            }
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
        shard_obs::counter!("store.recovered_entries", crate::family).add(report.entries as u64);
        Ok((
            DiskStore {
                dir: dir.to_path_buf(),
                opts,
                wal,
                index,
            },
            report.entries,
        ))
    }

    /// Shape/occupancy statistics of the B+tree index
    /// (`shard-trace store --stats`).
    pub fn index_stats(&mut self) -> io::Result<crate::btree::BTreeStats> {
        self.index.stats()
    }
}

impl Store for DiskStore {
    fn append(&mut self, key: StoreKey, value: &[u8]) -> io::Result<()> {
        check_value(key, value, io::ErrorKind::InvalidInput)?;
        self.wal.append(key, value)?;
        self.index.insert(key, value)?;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    fn len_bytes(&self) -> u64 {
        self.wal.len()
    }

    fn synced_bytes(&self) -> u64 {
        self.wal.synced()
    }

    fn entries(&self) -> usize {
        self.wal.entries()
    }

    fn scan_arrival(&mut self, f: &mut dyn FnMut(StoreKey, &[u8])) -> io::Result<()> {
        self.wal.for_each(f)
    }

    fn scan_key_range(
        &mut self,
        from: StoreKey,
        f: &mut dyn FnMut(StoreKey, &[u8]) -> bool,
    ) -> io::Result<()> {
        self.index.scan_from(from, f)
    }

    fn crash(&mut self, keep: u64) -> io::Result<CrashReport> {
        // Swap in a throwaway WAL so we can consume the real one (crash
        // takes self by value to close file handles before truncating).
        let tmp_dir = self.dir.join(".crash-tmp");
        let (placeholder, _) = Wal::open(
            &tmp_dir,
            WalOptions {
                segment_bytes: self.opts.segment_bytes,
            },
        )?;
        let wal = std::mem::replace(&mut self.wal, placeholder);
        let requested_end = wal.len().min(keep);
        let dir = wal.crash(keep)?;
        std::fs::remove_dir_all(&tmp_dir)?;
        let (reopened, entries) = DiskStore::open(&dir, self.opts.clone())?;
        let kept_bytes = reopened.wal.len();
        *self = reopened;
        Ok(CrashReport {
            kept_entries: entries,
            kept_bytes,
            torn: kept_bytes < requested_end,
        })
    }
}

/// Chunk size for records larger than one B+tree leaf cell — exactly
/// the tree's inline cap, so a chunk is always insertable.
pub const CHUNK_BYTES: usize = crate::btree::MAX_VALUE;

/// Writes one logical record group under `primary`: the payload `fill`
/// appends is length-framed in `scratch` ([`crate::codec::write_frame`]
/// — a buffer the caller reuses from group to group) and split into
/// [`CHUNK_BYTES`]-sized chunks keyed `(primary, chunk_index)`, so a
/// key-order scan from `(primary, 0)` streams the group back
/// contiguously. Returns the chunk count. See `docs/storage.md` for
/// the byte layout.
///
/// # Panics
///
/// Panics if the framed payload needs more than `u16::MAX + 1` chunks
/// (64 MiB — far above any checkpoint state this system spills).
pub fn append_chunked(
    store: &mut dyn Store,
    primary: u64,
    scratch: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) -> io::Result<u32> {
    crate::codec::write_frame(scratch, fill);
    let chunks = scratch.len().div_ceil(CHUNK_BYTES);
    assert!(
        chunks <= u16::MAX as usize + 1,
        "payload too large to chunk"
    );
    for (i, chunk) in scratch.chunks(CHUNK_BYTES).enumerate() {
        store.append(StoreKey::new(primary, i as u16), chunk)?;
    }
    Ok(chunks as u32)
}

/// Reads the chunk group under `primary` back. `None` when the group is
/// absent or malformed (e.g. truncated by a crash) — callers treat both
/// as "this record is not available" and fall back.
pub fn read_chunked(store: &mut dyn Store, primary: u64) -> io::Result<Option<Vec<u8>>> {
    // Small batches: one group is a handful of chunks, not a scan.
    let mut groups = GroupCursor::starting_at(primary, 4);
    Ok(match groups.next(store)? {
        Some((p, Ok(payload))) if p == primary => Some(payload.to_vec()),
        _ => None,
    })
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

/// A chunk group as [`GroupCursor`] yields it: the primary key, and the
/// payload or what is wrong with the group's chunks.
pub type ChunkGroup<'a> = (u64, Result<&'a [u8], &'static str>);

/// The one reader of the chunk-group layout [`append_chunked`] writes:
/// walks a store's key order from `(primary, 0)` and yields each group
/// as `(primary, payload)`. A group whose chunk indices are not exactly
/// `0, 1, 2, …`, or whose bytes are not exactly one length frame, comes
/// back as `Err(what is wrong)` instead of a payload — whether that is
/// a hole to skip (a cache) or corrupt data (an authoritative copy) is
/// the caller's call — and the cursor moves on to the next group.
#[derive(Debug)]
pub struct GroupCursor {
    records: KeyCursor,
    /// The first record of the next group, read while closing the last.
    ahead: Option<(StoreKey, Vec<u8>)>,
    /// The current group's chunks, concatenated.
    framed: Vec<u8>,
}

impl GroupCursor {
    /// A cursor over the groups at or above `primary`, fetching
    /// `batch_size` store records per refill.
    pub fn starting_at(primary: u64, batch_size: usize) -> Self {
        GroupCursor {
            records: KeyCursor::starting_at(StoreKey::new(primary, 0), batch_size),
            ahead: None,
            framed: Vec::new(),
        }
    }

    /// The next group in key order, or `None` at the end of the store.
    pub fn next(&mut self, store: &mut dyn Store) -> io::Result<Option<ChunkGroup<'_>>> {
        let mut record = match self.ahead.take() {
            Some(first) => Some(first),
            None => self.records.next(store)?,
        };
        let Some(primary) = record.as_ref().map(|(k, _)| k.primary) else {
            return Ok(None);
        };
        self.framed.clear();
        let mut contiguous = true;
        let mut expect = 0u32;
        while let Some((key, chunk)) = record.take_if(|(k, _)| k.primary == primary) {
            contiguous &= u32::from(key.secondary) == expect;
            expect += 1;
            self.framed.extend_from_slice(&chunk);
            record = self.records.next(store)?;
        }
        self.ahead = record;
        let group = if contiguous {
            crate::codec::read_frame(&self.framed)
        } else {
            Err("chunk indices are not 0, 1, 2, …")
        };
        Ok(Some((primary, group)))
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
    use proptest::prelude::*;

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

    /// One chunk group holding `payload`; returns the chunk count.
    fn append_group(store: &mut dyn Store, primary: u64, payload: &[u8]) -> u32 {
        append_chunked(store, primary, &mut Vec::new(), |out| {
            out.extend_from_slice(payload)
        })
        .unwrap()
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
    fn chunked_records_round_trip_on_both_stores() {
        let dir = tmp("chunked");
        let mut mem = MemStore::new();
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        // Sizes straddling the chunk boundary, plus a multi-chunk blob.
        let payloads: Vec<Vec<u8>> = [0usize, 1, CHUNK_BYTES - 4, CHUNK_BYTES, 3 * CHUNK_BYTES + 7]
            .iter()
            .map(|&n| (0..n).map(|i| (i % 251) as u8).collect())
            .collect();
        for store in [&mut mem as &mut dyn Store, &mut disk] {
            for (g, p) in payloads.iter().enumerate() {
                let chunks = append_group(store, g as u64, p);
                assert_eq!(chunks as usize, (p.len() + 4).div_ceil(CHUNK_BYTES));
            }
            for (g, p) in payloads.iter().enumerate() {
                assert_eq!(
                    read_chunked(store, g as u64).unwrap().as_ref(),
                    Some(p),
                    "group {g}"
                );
            }
            assert_eq!(read_chunked(store, 999).unwrap(), None, "absent group");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_chunk_group_reads_as_absent() {
        let mut mem = MemStore::new();
        let blob = vec![7u8; 3 * CHUNK_BYTES];
        append_group(&mut mem, 5, &blob);
        // Crash off the tail chunk: the group must read as None, not
        // as a short payload.
        let keep = mem.len_bytes() - 1;
        mem.crash(keep).unwrap();
        assert_eq!(read_chunked(&mut mem, 5).unwrap(), None);
    }

    #[test]
    fn group_cursor_names_malformed_groups_and_moves_on() {
        let mut mem = MemStore::new();
        let blob = |g: u8| vec![g; 2 * CHUNK_BYTES + 10]; // three chunks
        append_group(&mut mem, 0, &blob(0));
        // Group 1 lost its chunk 0, group 2 its middle chunk, group 3
        // gained a chunk past its frame; 4 is whole, 6 is cut short.
        for g in 1..=4u64 {
            let mut framed = Vec::new();
            crate::codec::write_frame(&mut framed, |out| out.extend_from_slice(&blob(g as u8)));
            for (i, chunk) in framed.chunks(CHUNK_BYTES).enumerate() {
                if (g, i) != (1, 0) && (g, i) != (2, 1) {
                    mem.append(StoreKey::new(g, i as u16), chunk).unwrap();
                }
            }
        }
        mem.append(StoreKey::new(3, 3), b"extra").unwrap();
        mem.append(StoreKey::new(6, 0), &[0, 0, 1]).unwrap();
        for batch_size in [1, 2, 1024] {
            let mut groups = GroupCursor::starting_at(0, batch_size);
            let mut seen = Vec::new();
            while let Some((primary, group)) = groups.next(&mut mem).unwrap() {
                seen.push((primary, group.map(<[u8]>::to_vec)));
            }
            assert_eq!(
                seen,
                vec![
                    (0, Ok(blob(0))),
                    (1, Err("chunk indices are not 0, 1, 2, …")),
                    (2, Err("chunk indices are not 0, 1, 2, …")),
                    (3, Err("bytes left over after the length frame")),
                    (4, Ok(blob(4))),
                    (6, Err("length frame cut short")),
                ],
                "batch size {batch_size}"
            );
        }
        // The single-group read folds "absent" and "malformed" together.
        for (g, whole) in [(0, true), (1, false), (3, false), (4, true), (5, false)] {
            assert_eq!(read_chunked(&mut mem, g).unwrap().is_some(), whole, "{g}");
        }
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
    fn oversize_value_is_refused_before_anything_is_written() {
        let dir = tmp("oversize");
        let mut mem = MemStore::new();
        let (mut disk, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        for store in [&mut mem as &mut dyn Store, &mut disk] {
            fill(store, 10, 4);
            let before = (store.len_bytes(), store.synced_bytes(), store.entries());
            let e = store
                .append(StoreKey::new(99, 0), &[0u8; CHUNK_BYTES + 1])
                .unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(
                before,
                (store.len_bytes(), store.synced_bytes(), store.entries())
            );
            // Still usable, and the largest legal value goes through.
            store
                .append(StoreKey::new(99, 0), &[0u8; CHUNK_BYTES])
                .unwrap();
            store.sync().unwrap();
            assert_eq!(arrival(store).len(), 11);
            assert_eq!(key_order(store).len(), 11);
        }
        drop(disk);
        let (_, recovered) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered, 11, "the refusal left nothing behind in the WAL");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_holding_an_oversize_record_opens_as_an_error() {
        // A log some other writer produced: valid framing, but a value
        // no leaf cell can hold.
        let dir = tmp("foreign-wal");
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        wal.append(StoreKey::new(1, 0), b"fine").unwrap();
        wal.append(StoreKey::new(2, 7), &[5u8; CHUNK_BYTES + 1])
            .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let Err(e) = DiskStore::open(&dir, StoreOptions::default()) else {
            panic!("open accepted an oversize record");
        };
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let text = e.to_string();
        assert!(
            text.contains("primary: 2") && text.contains("secondary: 7"),
            "the error names the key: {text}"
        );
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
        (0u32..256, key, 0usize..=CHUNK_BYTES, 0u64..=1000).prop_map(
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
    }
}
