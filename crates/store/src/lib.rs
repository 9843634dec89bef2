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
//!   the *authoritative* copy of a node's merge log, in arrival order —
//!   and the only copy: every log the system reads by key (sealed
//!   rows) is appended in key order, so a key scan is a
//!   binary search over one **fence** per segment (the key of its first
//!   record) and a sequential, CRC-checked read from there. There is no
//!   second structure to rebuild on open or distrust after a crash.
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
//! the `CrashInjector` nemesis in `shard-sim` drives on a durable run
//! (`Runner::with_durability`), as experiment E24 does. The recovery
//! invariants that make §3 survive a restart are spelled out in
//! `docs/storage.md`.
//!
//! [`MergeLog`]: ../shard_sim/merge/struct.MergeLog.html
//! [`Store`]: store::Store
//! [`MemStore`]: store::MemStore
//! [`DiskStore`]: store::DiskStore
//! [`Codec`]: codec::Codec
//! [`StoreKey`]: codec::StoreKey

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod store;
pub mod wal;

pub use codec::{ByteReader, Codec, StoreKey};
pub use store::{CrashReport, DiskStore, KeyCursor, MemStore, Store, StoreOptions};
pub use wal::{Wal, WalInspection, WalOptions};

/// Registers the `store.*` metrics every layer of the engine feeds,
/// together (see `shard_obs::counter!`):
///
/// * `store.wal_appends` / `store.wal_fsyncs` — records appended to the
///   WAL and fsync barriers taken;
/// * `store.wal_writes` — write calls that moved buffered records to a
///   segment file (`wal_appends / wal_writes` = records per syscall);
/// * `store.wal_fsync_us` (histogram) — the time each `sync_data` a
///   [`Wal`] issued took: [`Wal::sync`] barriers and the one a rotation
///   takes on the segment it closes (a `MemStore` counts its barriers
///   in `store.wal_fsyncs` but has no time to record);
/// * `store.wal_read_bytes` — bytes key scans asked the segment files
///   for (over the bytes of the records they handed out: the read
///   amplification);
/// * `store.wal_torn_truncations` — torn tails dropped on open;
/// * `store.recovered_entries` — entries replayed out of a store during
///   recovery.
pub(crate) fn family() {
    let registry = shard_obs::Registry::global();
    for name in [
        "store.wal_appends",
        "store.wal_writes",
        "store.wal_fsyncs",
        "store.wal_read_bytes",
        "store.wal_torn_truncations",
        "store.recovered_entries",
    ] {
        registry.counter(name);
    }
    registry.histogram("store.wal_fsync_us");
}
