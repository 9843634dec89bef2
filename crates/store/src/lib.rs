//! `shard-store` — the durable storage engine under the SHARD merge log.
//!
//! Every node's [`MergeLog`] historically lived entirely in RAM: a
//! crashed replica simply lost its log, so the paper's §3
//! prefix-subsequence condition had never been exercised *across a
//! restart*. This crate supplies the missing layer, with zero external
//! dependencies (std plus the in-workspace `shard-obs` counters):
//!
//! * [`wal`] — an append-only **write-ahead segment log**: fixed-header
//!   records (`len`, CRC-32, payload) appended to rotating segment
//!   files, with torn-tail detection and truncation on open. The WAL is
//!   the *authoritative* copy of a node's merge log, in arrival order.
//! * [`pool`] — a **buffer pool** of fixed-size page frames over one
//!   backing file: pin counts, second-chance (clock) eviction, dirty
//!   write-back.
//! * [`btree`] — a **slotted-page B+tree** keyed by [`StoreKey`]
//!   (timestamp order), built through the buffer pool. The tree is a
//!   *derived index* over the WAL — rebuilt on open, never trusted
//!   after a crash — which keeps the recovery story one-sided: replay
//!   the WAL, re-derive everything else.
//! * [`store`] — the [`Store`] trait tying it together, with two
//!   implementations: [`MemStore`] (default; byte-accounting faithful
//!   to the disk format, for fast deterministic tests) and
//!   [`DiskStore`] (opt-in by opening an explicit directory).
//! * [`codec`] — the minimal [`Codec`] trait application updates
//!   implement so the simulator can persist them, plus [`StoreKey`],
//!   the order-preserving 10-byte timestamp encoding.
//!
//! The crash model is explicit rather than accidental: `Store::crash`
//! truncates the log at an arbitrary byte offset (at or beyond the last
//! fsync barrier), then recovery re-opens and replays — exactly what
//! the `CrashRecoverInjector` nemesis in `shard-sim` and experiment E24
//! drive. The recovery invariants that make §3 survive a restart are
//! spelled out in `docs/storage.md`.
//!
//! [`MergeLog`]: ../shard_sim/merge/struct.MergeLog.html
//! [`Store`]: store::Store
//! [`MemStore`]: store::MemStore
//! [`DiskStore`]: store::DiskStore
//! [`Codec`]: codec::Codec
//! [`StoreKey`]: codec::StoreKey

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod btree;
pub mod codec;
pub mod page;
pub mod pool;
pub mod store;
pub mod wal;

pub use btree::{BTree, BTreeStats};
pub use codec::{write_frame, ByteReader, Codec, FrameReader, StoreKey};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pool::BufferPool;
pub use store::{
    append_chunked, read_chunked, CrashReport, DiskStore, KeyCursor, MemStore, Store, StoreOptions,
    CHUNK_BYTES,
};
pub use wal::{Wal, WalInspection, WalOptions};

use std::sync::{Arc, OnceLock};

/// The `store.*` counters every layer of the engine feeds. Follows the
/// registry idiom of `shard_core::replay`: one lazily initialised
/// handle bundle, no-ops while the obs layer is disabled.
pub(crate) struct StoreMetrics {
    /// `store.pins` — buffer-pool page pins.
    pub pins: Arc<shard_obs::Counter>,
    /// `store.evictions` — frames evicted to make room.
    pub evictions: Arc<shard_obs::Counter>,
    /// `store.page_reads` — pages read from the backing file.
    pub page_reads: Arc<shard_obs::Counter>,
    /// `store.page_writes` — dirty pages written back.
    pub page_writes: Arc<shard_obs::Counter>,
    /// `store.readaheads` — pages prefetched by sequential readahead.
    pub readaheads: Arc<shard_obs::Counter>,
    /// `store.wal_appends` — records appended to the WAL.
    pub wal_appends: Arc<shard_obs::Counter>,
    /// `store.wal_fsyncs` — fsync barriers taken.
    pub wal_fsyncs: Arc<shard_obs::Counter>,
    /// `store.wal_torn_truncations` — torn tails dropped on open.
    pub wal_torn_truncations: Arc<shard_obs::Counter>,
    /// `store.recovered_entries` — entries replayed out of a store
    /// during recovery.
    pub recovered_entries: Arc<shard_obs::Counter>,
}

pub(crate) fn metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = shard_obs::Registry::global();
        StoreMetrics {
            pins: r.counter("store.pins"),
            evictions: r.counter("store.evictions"),
            page_reads: r.counter("store.page_reads"),
            page_writes: r.counter("store.page_writes"),
            readaheads: r.counter("store.readaheads"),
            wal_appends: r.counter("store.wal_appends"),
            wal_fsyncs: r.counter("store.wal_fsyncs"),
            wal_torn_truncations: r.counter("store.wal_torn_truncations"),
            recovered_entries: r.counter("store.recovered_entries"),
        }
    })
}
