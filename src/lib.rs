//! # shard — correctness conditions for highly available replicated databases
//!
//! A full reproduction of Lynch, Blaustein & Siegel, *Correctness
//! Conditions for Highly Available Replicated Databases*
//! (MIT/LCS/TR-364, PODC 1986): the formal SHARD model, a simulated
//! SHARD cluster, the paper's applications, a serializable baseline, and
//! the analysis toolkit that checks every theorem of the paper on
//! concrete executions.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`core`] — states, decision/update transactions, executions, the
//!   prefix subsequence condition and its refinements, cost and fairness
//!   properties (§2–§4 of the paper);
//! * [`sim`] — the discrete-event SHARD cluster: timestamps, reliable
//!   broadcast under partitions, undo/redo merging (§1.2, §3.3);
//! * [`apps`] — the Fly-by-Night airline reservation system (§2, §5),
//!   its timestamp-ordered redesign (§5.5), banking, inventory control
//!   and a replicated dictionary (§6);
//! * [`baseline`] — the serializable primary-copy comparator (§1.1's
//!   trade-off);
//! * [`analysis`] — cost traces, measured k-completeness, witness
//!   accounting, fairness audits, and the theorem checkers behind
//!   EXPERIMENTS.md;
//! * [`store`] — the durable storage engine (a checksummed WAL that
//!   answers key scans itself) behind crash recovery and the
//!   out-of-core replay tier.
//!
//! ## Quickstart
//!
//! Run the airline on a five-node cluster and check the paper's
//! headline bound (Corollary 8: overbooking cost ≤ 900·k):
//!
//! ```
//! use shard::apps::airline::{AirlineTxn, FlyByNight, OVERBOOKING};
//! use shard::apps::Person;
//! use shard::core::costs::BoundFn;
//! use shard::sim::{Runner, ClusterConfig, Invocation, NodeId};
//! use shard::analysis::claims::check_invariant_bound;
//!
//! let app = FlyByNight::new(3);
//! let cluster = Runner::eager(&app, ClusterConfig::default());
//! let mut invs = Vec::new();
//! for i in 1..=6u32 {
//!     invs.push(Invocation::new(u64::from(i) * 10, NodeId((i % 5) as u16),
//!                               AirlineTxn::Request(Person(i))));
//!     invs.push(Invocation::new(u64::from(i) * 10 + 5, NodeId(((i + 1) % 5) as u16),
//!                               AirlineTxn::MoveUp));
//! }
//! let report = cluster.run(invs);
//! assert!(report.mutually_consistent());
//!
//! let te = report.timed_execution();
//! te.execution.verify(&app).expect("simulator obeys the formal model");
//! let (k, check) = check_invariant_bound(
//!     &app, &te.execution, OVERBOOKING, &BoundFn::linear(900),
//!     |d| matches!(d, AirlineTxn::MoveUp));
//! assert!(check.holds(), "overbooking ≤ 900·{k}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shard_analysis as analysis;
pub use shard_apps as apps;
pub use shard_baseline as baseline;
pub use shard_core as core;
pub use shard_sim as sim;
pub use shard_store as store;
