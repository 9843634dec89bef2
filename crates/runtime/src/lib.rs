//! `shard-runtime` — a threaded **live deployment** of the SHARD kernel
//! with record–replay fidelity against the deterministic simulator.
//!
//! The `shard-sim` kernel separates *what a replica does* ([`Node`]:
//! Lamport clock + undo/redo merge log, and the traced, durable
//! execute/deliver/recover step over them) and *how updates propagate*
//! ([`Propagation`]: eager flooding, gossip, partial replication) from
//! *how messages travel* ([`Transport`]). This crate supplies the live
//! half of that split:
//!
//! * **[`live`]** — one OS thread per [`Node`], `std::sync::mpsc`
//!   channels as the transport, and the shared [`WallClock`] issuing
//!   globally unique microsecond ticks as event times. The *same*
//!   replica step and `Propagation` code runs here as in the simulator;
//!   only the event loop around them changes.
//! * **[`load`]** — a seeded Zipf client load generator producing open
//!   (paced arrival) or closed (max pressure) workloads.
//! * **[`mod@replay`]** — every live run records its delivery schedule
//!   ([`live::RecordedSchedule`]); replaying that schedule through the
//!   deterministic kernel (scripted delivery via
//!   [`shard_sim::ScheduledNemesis`], scripted gossip rounds via
//!   [`shard_sim::Runner::with_ticks`]) reproduces the live run's
//!   [`RunReport`] **exactly** — same serial order, same merge
//!   metrics, same monitor verdicts. A thread-schedule heisenbug seen
//!   once in production becomes a deterministic unit test.
//!
//! The API is one pair, generic over the [`Propagation`] strategy:
//! [`run_live`] (or [`run_live_durable`], with one write-ahead mirror
//! per node) records, [`replay()`] replays. Build **one** strategy
//! value — [`shard_sim::EagerBroadcast`], [`shard_sim::Gossip`] at
//! full fanout, [`shard_sim::PartialPlacement`] — and hand a clone to
//! each side, so the two cannot be configured apart.
//!
//! Why fidelity holds: every live tick comes from one process-wide
//! atomic counter, so the interleaving of executions, deliveries and
//! gossip rounds is *totally ordered* and recorded. The kernel replays
//! that exact total order; since the replica step
//! (`Node::execute_step`/`Node::deliver_step`) is the single shared code
//! path, equal orders give equal reports — and equal traces.
//!
//! [`Node`]: shard_sim::kernel::Node
//! [`Propagation`]: shard_sim::Propagation
//! [`Transport`]: shard_sim::Transport
//! [`WallClock`]: shard_sim::WallClock
//! [`RunReport`]: shard_sim::RunReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod load;
pub mod replay;

pub use live::{
    run_live, run_live_durable, LiveRun, MsgRecord, RecordedSchedule, RuntimeConfig, Submission,
};
pub use load::{banking_submissions, Pacing, Zipf};
pub use replay::{replay, replay_eager, report_digest};
