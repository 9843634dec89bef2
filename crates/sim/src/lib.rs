//! # shard-sim — a SHARD-style replicated database simulator
//!
//! A deterministic discrete-event simulation of the system sketched in
//! §1.2 and §3.3 of Lynch/Blaustein/Siegel 1986: a network of nodes,
//! **each holding a copy of the complete database** (full replication),
//! processing transactions locally and broadcasting only the *update
//! parts* to every other node.
//!
//! * [`clock`] — globally unique timestamps from Lamport clocks with
//!   node-id tiebreaks; the total transaction order every node agrees on.
//! * [`events`] — the discrete-event queue all simulations share.
//! * [`delay`] — message delay models (fixed / uniform / exponential).
//! * [`partition`] — partition schedules: time windows during which the
//!   nodes are split into disconnected groups.
//! * [`broadcast`] — reliable broadcast via per-link retry: messages
//!   blocked by a partition are retried until the network heals, so
//!   barring permanent failure every node eventually receives every
//!   update (the \[GLBKSS\] guarantee, which is all the paper relies on).
//! * [`merge`] — the undo/redo merge engine: each node keeps its copy
//!   equal to the effect of running all updates it knows in timestamp
//!   order, rolling back to a checkpoint and replaying when an update
//!   arrives out of order (\[BK\]/\[SKS\]); exposes undo/redo metrics.
//! * [`kernel`] — **the one event loop**: a [`Runner`] drives
//!   Invoke/Deliver/Tick events over shared [`kernel::Node`] replicas
//!   with partition, crash and delay gating applied uniformly, emits a
//!   formal [`shard_core::TimedExecution`] (the simulator's behaviour is
//!   checked against the paper's model, not trusted), and implements the
//!   §3.3 *barrier protocol* giving designated critical transactions
//!   (near-)complete prefixes ([`Runner::run_with_critical`]). How
//!   updates travel is a pluggable [`Propagation`] strategy.
//! * [`transport`] — the delivery seam: the [`Transport`] trait
//!   ([`QueueTransport`] over the event queue here; real
//!   `std::sync::mpsc` channels in `shard-runtime`), plus the
//!   [`WallClock`] whose globally unique microsecond ticks time live
//!   runs. Everything on the replica's side of that seam — including
//!   the traced, durable execute/deliver/recover step on
//!   [`kernel::Node`] — is shared by both deployments.
//! * [`cluster`] — the [`EagerBroadcast`] strategy (per-update flooding,
//!   one datagram per peer), entered via [`Runner::eager`].
//! * [`gossip`] — the [`Gossip`] anti-entropy strategy: rounds, periodic
//!   or (interval 0) at each execution, to all peers or to `fanout`
//!   random ones, each partner handed what it has not been offered yet
//!   (a cursor per peer, reset when the peer restarts) over ordered
//!   links, optionally narrowed to the partner's [`Placement`]
//!   ([`Gossip::over`] — gossip × partial replication). At interval 0
//!   and full fanout it is the repo's one mechanism for §3.3's
//!   transitive executions.
//! * [`partial`] — the §6 generalization: partial replication with
//!   per-object [`Placement`]s ([`PartialPlacement`] strategy, entered
//!   via [`Runner::partial`]), preserving all correctness conditions
//!   while reducing message volume.
//! * [`monitor`] — live §3 verification inside the kernel loop: a
//!   [`LiveMonitor`] seals executed transactions behind a Lamport
//!   watermark and streams them to a [`shard_core::StreamChecker`], so
//!   verdicts (and an optional early abort) arrive while the run is
//!   still going, bit-identical to the offline checkers.
//! * [`nemesis`] — seeded, composable fault injection plugged into the
//!   kernel transport ([`Runner::with_nemesis`]): message drop,
//!   duplication and adversarial reordering, jittered partition and
//!   crash windows; plus recording, exact replay and delta-debugging
//!   shrinking of violating fault schedules.
//!
//! The structural guarantee: because receiving a message advances the
//! Lamport clock past the sender's timestamp, a node can never know an
//! update with a larger timestamp than the one it will assign next — so
//! every transaction's known set is a subsequence of its *prefix*, i.e.
//! the prefix subsequence condition (§3.1) holds by construction —
//! under *every* propagation strategy, because they all ride the same
//! kernel.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod broadcast;
pub mod clock;
pub mod cluster;
pub mod crash;
pub mod delay;
pub mod durable;
pub mod events;
pub mod gossip;
pub mod kernel;
pub mod known;
pub mod merge;
pub mod monitor;
pub mod nemesis;
pub mod partial;
pub mod partition;
pub mod streaming;
pub mod transport;

pub use clock::{LamportClock, NodeId, Timestamp};
pub use cluster::{ClusterConfig, EagerBroadcast, ExecutedTxn, Invocation};
pub use crash::{CrashSchedule, CrashWindow};
pub use delay::DelayModel;
pub use durable::{DurabilityConfig, DurableFleet, KillReport, NodeMirror, StoreBackend};
pub use gossip::Gossip;
pub use kernel::{FaultStats, Propagation, QueueTransport, RunReport, Runner};
pub use known::KnownSet;
pub use merge::{MergeLog, MergeMetrics, MergeOutcome};
pub use monitor::{LiveMonitor, MonitorConfig};
pub use nemesis::{
    CrashInjector, Fate, FaultEvent, MessageDropper, MessageDuplicator, MessageReorderer, MsgCtx,
    Nemesis, NemesisStack, PartitionJitter, ScheduledNemesis,
};
pub use partial::{PartialPlacement, Placement};
pub use partition::{PartitionSchedule, PartitionWindow};
pub use streaming::StreamingMerge;
pub use transport::{Transport, WallClock};
