//! Durable node mirrors: a [`shard_store::Store`] WAL per replica, and
//! the crash/recovery machinery that makes §3's conditions survivable
//! across real process restarts.
//!
//! # What is persisted
//!
//! A node's durable truth is its merge log's **arrival order** — the
//! sequence of `(timestamp, update)` pairs in the order they were
//! merged locally. States, checkpoints and known sets are all derived
//! by replay, so the WAL records nothing else. Each arrival appends one
//! store record keyed by its timestamp (big-endian `(lamport, node)`,
//! so key order *is* serial order) with the [`shard_store::Codec`]
//! encoding of the update as the value.
//!
//! # The write-ahead discipline
//!
//! * **Own updates are fsynced before propagation.** When a node
//!   executes a client transaction, the kernel appends the update to
//!   the mirror and calls [`shard_store::Store::sync`] *before* the
//!   propagation strategy ships it to any peer. A crash can therefore
//!   lose an own update only if no other node ever saw it — after
//!   recovery the system state is as if the client request had been
//!   rejected, which §1's availability model already allows.
//! * **Received updates are appended without an fsync barrier.** They
//!   survive on the origin (by the rule above) and re-arrive via
//!   anti-entropy ([`crate::Gossip`] offers a restarted peer the log
//!   again at each sender's next round — under interval 0, its next
//!   execution), so batching their durability is safe and keeps the
//!   fsync count proportional to *own* transactions. Under eager
//!   broadcast, or gossip at interval 0 with no later execution, a lost
//!   tail stays lost; [`crate::RunReport::missing`] reports it.
//!
//! Together these give the recovery invariants checked by
//! `tests/durable_recovery.rs`: the recovered log is a **prefix of the
//! pre-crash arrival order** (and hence, under gossip's ordered links,
//! still transitively closed), and the recovered Lamport clock has
//! observed every timestamp the node ever issued — so no timestamp is
//! ever reused, and prefix subsequence (§3, Cor 8) holds across the
//! restart.

use crate::clock::{LamportClock, NodeId, Timestamp};
use crate::kernel::Node;
use crate::merge::MergeLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_core::Application;
use shard_store::{Codec, DiskStore, MemStore, Store, StoreKey, StoreOptions};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Which [`Store`] implementation backs each node's mirror.
#[derive(Clone, Debug)]
pub enum StoreBackend {
    /// In-memory store with disk-faithful byte/fsync accounting — the
    /// default: deterministic, no filesystem, same crash semantics.
    Mem,
    /// One [`DiskStore`] per node under `dir/node-<id>/`, surviving
    /// real process restarts.
    Disk {
        /// Root directory; each node gets a `node-<id>` subdirectory.
        dir: PathBuf,
    },
}

/// Configuration of the durability layer a [`crate::Runner`] attaches
/// via [`crate::Runner::with_durability`].
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Store backend for every node's mirror.
    pub backend: StoreBackend,
    /// Seed of the kill-point RNG (separate from the kernel RNG, so
    /// attaching durability never perturbs delay sampling or gossip
    /// partner choice: fault-free runs stay byte-identical).
    pub kill_seed: u64,
}

impl DurabilityConfig {
    /// Memory-backed durability (the deterministic default).
    pub fn mem(kill_seed: u64) -> Self {
        DurabilityConfig {
            backend: StoreBackend::Mem,
            kill_seed,
        }
    }

    /// Disk-backed durability rooted at `dir`.
    pub fn disk(dir: impl Into<PathBuf>, kill_seed: u64) -> Self {
        DurabilityConfig {
            backend: StoreBackend::Disk { dir: dir.into() },
            kill_seed,
        }
    }
}

/// What [`DurableFleet::kill`] did to a node's store — the simulated
/// power cut, reported for tracing and assertions.
#[derive(Clone, Copy, Debug)]
pub struct KillReport {
    /// Entries that survived the cut (a prefix of the arrival order).
    pub kept_entries: usize,
    /// Bytes of intact log after torn-tail truncation.
    pub kept_bytes: u64,
    /// Bytes that were appended but lost to the cut.
    pub lost_bytes: u64,
    /// Whether the cut tore a record in half (the torn tail is
    /// truncated on reopen, exactly as [`shard_store::Wal::open`]
    /// would after a real crash).
    pub torn: bool,
}

/// One node's durable mirror: its store, a cursor into the merge log's
/// arrival order marking what has been appended so far, and the codec
/// hooks.
///
/// Holding the codec as plain function pointers (coerced from the
/// [`Codec`] impl in the constructors, the only place the
/// `A::Update: Codec` bound is needed) keeps the kernel's run loop and
/// the threaded runtime free of serialization bounds. The store is
/// `Send`, so a mirror can move into a `shard-runtime` node thread.
pub struct NodeMirror<A: Application> {
    store: Box<dyn Store + Send>,
    /// `log.arrivals()[..cursor]` is already in the store.
    cursor: usize,
    encode: fn(&A::Update, &mut Vec<u8>),
    decode: fn(&[u8]) -> Option<A::Update>,
    scratch: Vec<u8>,
}

/// The per-node durable mirrors of a cluster, plus the kill-point RNG.
pub struct DurableFleet<A: Application> {
    pub(crate) mirrors: Vec<NodeMirror<A>>,
    rng: StdRng,
}

fn key_of(ts: Timestamp) -> StoreKey {
    StoreKey {
        primary: ts.lamport,
        secondary: ts.node.0,
    }
}

fn ts_of(key: StoreKey) -> Timestamp {
    Timestamp {
        lamport: key.primary,
        node: NodeId(key.secondary),
    }
}

impl<A: Application> NodeMirror<A>
where
    A::Update: Codec,
{
    /// A memory-backed mirror (disk-faithful byte/fsync accounting, no
    /// filesystem).
    pub fn mem() -> Self {
        Self::from_store(Box::new(MemStore::new()), 0)
    }

    /// Opens (or creates) a disk-backed mirror at `dir`, returning it
    /// with the number of entries recovered from an existing WAL (0 for
    /// a fresh directory). Existing entries are *not* cleared —
    /// [`NodeMirror::recover`] rebuilds the node from them, which is
    /// how a replica restarts from a previous process's store.
    pub fn disk(dir: &std::path::Path) -> io::Result<(Self, usize)> {
        let (store, recovered) = DiskStore::open(dir, StoreOptions::default())?;
        Ok((Self::from_store(Box::new(store), recovered), recovered))
    }

    fn from_store(store: Box<dyn Store + Send>, cursor: usize) -> Self {
        NodeMirror {
            store,
            cursor,
            encode: |u, out| u.encode(out),
            decode: A::Update::from_slice,
            scratch: Vec::new(),
        }
    }
}

impl<A: Application> NodeMirror<A> {
    /// Entries currently in the store.
    pub fn entries(&self) -> usize {
        self.store.entries()
    }

    /// Direct access to the store (tests and experiments inspect byte
    /// counts and scan orders through this).
    pub fn store_mut(&mut self) -> &mut dyn Store {
        &mut *self.store
    }

    /// Appends every arrival of `log` past the mirror's cursor, then —
    /// when `barrier` is set — fsyncs. The shared replica step calls
    /// this with a barrier after each own execution (*before*
    /// propagation, [`Node::execute_step`]) and without one after each
    /// delivery ([`Node::deliver_step`]).
    ///
    /// # Panics
    ///
    /// Panics on store I/O errors: a replica that cannot persist its
    /// own update must not propagate it, and the deterministic kernel
    /// has no error path to thread one through.
    pub fn persist(&mut self, log: &MergeLog<A>, barrier: bool) {
        let arrivals = log.arrivals();
        for (ts, update) in &arrivals[self.cursor..] {
            self.scratch.clear();
            (self.encode)(update, &mut self.scratch);
            self.store
                .append(key_of(*ts), &self.scratch)
                .expect("durable mirror append");
        }
        self.cursor = arrivals.len();
        if barrier {
            self.store.sync().expect("durable mirror fsync");
        }
    }

    /// Simulates a power cut at byte offset `keep` (everything past it
    /// is lost, possibly tearing a record; the store truncates the torn
    /// tail on reopen). The cursor rewinds to the surviving prefix.
    /// [`DurableFleet::kill`] picks the offset; tests may pin it.
    pub fn crash_at(&mut self, keep: u64) -> KillReport {
        let len = self.store.len_bytes();
        let report = self.store.crash(keep).expect("durable mirror crash");
        self.cursor = report.kept_entries;
        KillReport {
            kept_entries: report.kept_entries,
            kept_bytes: report.kept_bytes,
            lost_bytes: len - report.kept_bytes,
            torn: report.torn,
        }
    }

    /// Rebuilds node `id` from the store: streams the surviving WAL in
    /// arrival order through a fresh merge log (checkpoint chain and
    /// known set rebuild as replay side effects), advances a fresh
    /// Lamport clock past every recovered timestamp, and recounts the
    /// node's own transactions for the §3.3 barrier protocol. Because
    /// own updates were fsynced before propagation, the recovered clock
    /// dominates every timestamp the node ever issued — recovery can
    /// never reuse a timestamp.
    ///
    /// Returns the rebuilt node and the number of recovered entries.
    pub fn recover(&mut self, app: &A, id: NodeId, checkpoint_every: usize) -> (Node<A>, usize) {
        let mut log = MergeLog::new(app, checkpoint_every);
        let mut clock = LamportClock::new(id);
        let mut own_sent = 0u64;
        let decode = self.decode;
        // Stream in bounded chunks: the store scan reads a block at a
        // time and the merge log absorbs each chunk as one batch, so peak
        // memory is O(chunk), not O(log).
        const CHUNK: usize = 1024;
        let mut batch: Vec<(Timestamp, Arc<A::Update>)> = Vec::with_capacity(CHUNK);
        let mut recovered = 0usize;
        {
            let mut flush = |batch: &mut Vec<(Timestamp, Arc<A::Update>)>| {
                log.merge_batch(app, batch.drain(..), |_, _| {});
            };
            self.store
                .scan_arrival(&mut |key, value| {
                    let ts = ts_of(key);
                    let update = decode(value).expect("recovered WAL payload decodes");
                    clock.observe(ts);
                    if ts.node == id {
                        own_sent += 1;
                    }
                    recovered += 1;
                    batch.push((ts, Arc::new(update)));
                    if batch.len() >= CHUNK {
                        flush(&mut batch);
                    }
                })
                .expect("durable mirror scan");
            flush(&mut batch);
        }
        self.cursor = recovered;
        (
            Node {
                id,
                clock,
                log,
                own_sent,
            },
            recovered,
        )
    }
}

impl<A: Application> DurableFleet<A>
where
    A::Update: Codec,
{
    /// Opens (or creates) one mirror per node. Disk-backed mirrors that
    /// already hold entries are *not* cleared —
    /// [`crate::kernel::recover_at_start`] rebuilds their nodes, which
    /// is how a cluster restarts from a previous process's stores.
    pub fn new(nodes: u16, config: &DurabilityConfig) -> io::Result<Self> {
        let mut mirrors = Vec::with_capacity(nodes as usize);
        for i in 0..nodes {
            mirrors.push(match &config.backend {
                StoreBackend::Mem => NodeMirror::mem(),
                StoreBackend::Disk { dir } => NodeMirror::disk(&dir.join(format!("node-{i}")))?.0,
            });
        }
        Ok(DurableFleet {
            mirrors,
            rng: StdRng::seed_from_u64(config.kill_seed),
        })
    }
}

impl<A: Application> DurableFleet<A> {
    /// `node`'s mirror — what the shared replica step persists to and
    /// recovers from ([`Node::execute_step`] and friends).
    pub fn mirror_mut(&mut self, node: NodeId) -> &mut NodeMirror<A> {
        &mut self.mirrors[node.0 as usize]
    }

    /// Simulates a power cut at `node`: picks a kill offset uniformly in
    /// `[synced_bytes, len_bytes]` — everything fsynced survives,
    /// anything after the last barrier may be lost, and the cut may
    /// land mid-record (a torn tail, truncated on reopen).
    pub fn kill(&mut self, node: NodeId) -> KillReport {
        let mirror = &mut self.mirrors[node.0 as usize];
        let lo = mirror.store.synced_bytes();
        let hi = mirror.store.len_bytes();
        let keep = if hi > lo {
            self.rng.random_range(lo..=hi)
        } else {
            hi
        };
        mirror.crash_at(keep)
    }

    /// Splits the fleet into its per-node mirrors — the threaded
    /// runtime moves one into each node thread
    /// (`shard_runtime::live::run_live_durable`).
    pub fn into_mirrors(self) -> Vec<NodeMirror<A>> {
        self.mirrors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_preserve_timestamp_order() {
        let a = Timestamp {
            lamport: 3,
            node: NodeId(2),
        };
        let b = Timestamp {
            lamport: 3,
            node: NodeId(3),
        };
        let c = Timestamp {
            lamport: 4,
            node: NodeId(0),
        };
        assert!(key_of(a) < key_of(b) && key_of(b) < key_of(c), "order maps");
        assert_eq!(ts_of(key_of(a)), a, "round trip");
    }
}
