//! # shard-core — the formal model of a highly available replicated database
//!
//! This crate is a faithful mechanization of the database model of
//! Lynch, Blaustein & Siegel, *Correctness Conditions for Highly Available
//! Replicated Databases* (MIT/LCS/TR-364, PODC 1986).
//!
//! The paper studies systems — such as CCA's SHARD — that keep processing
//! transactions during communication failures (including network
//! partitions) and therefore **cannot** guarantee serializability or
//! preservation of integrity constraints. Instead of the usual
//! all-or-nothing correctness, the paper proves *parametrized* claims of
//! the form "if each transaction sees all but at most *k* of the preceding
//! transactions, the cost of integrity violations stays below *c(k)*".
//!
//! The crate mirrors the paper section by section:
//!
//! * [`app`] — §2: database states, well-formedness, integrity constraints
//!   with **cost functions**, and transactions split into a *decision
//!   part* (runs once; may trigger external actions) and an *update part*
//!   (a pure state map, re-runnable under undo/redo).
//! * [`execution`] — §3.1: *executions* and the **prefix subsequence
//!   condition** — every transaction observes the result of some
//!   subsequence of the transactions that precede it in one global serial
//!   order, stored per transaction as a [`Prefix`]: runs of seen indices,
//!   whose gaps are what it missed.
//! * [`conditions`] — §3.2: refinements guaranteed by the system —
//!   transitivity, k-completeness, centralization, atomicity, and
//!   t-bounded-delay timed executions.
//! * [`costs`] — §4.1: properties guaranteed by the transactions —
//!   increasing / non-increasing updates, safe / unsafe transactions,
//!   cost-preserving and compensating transactions, and cost-increase
//!   bound functions `f(k)` together with the information order `s ≤ₖ t`.
//! * [`grouping`] — §5.2: groupings of an execution for a constraint and
//!   the induced *normal states* (Theorem 9).
//! * [`fairness`] — §4.2: competing entities, priority partial orders, and
//!   (strong) priority preservation.
//! * [`replay`] — the incremental replay engine: checkpointed,
//!   memoizing state computation shared by executions, the checkers and
//!   the simulator's undo/redo merge log.
//! * [`pmap`] — a zero-dependency persistent ordered map (`Arc`-shared
//!   copy-on-write B-tree) applications build their states on, so state
//!   clones are O(1) and checkpoint chains cost O(delta) memory.
//! * [`stream`] — online (streaming) versions of the §3 checkers:
//!   windowed, append-only monitors over the serial order that emit
//!   incremental verdicts plus compact, independently checkable
//!   certificates.
//!
//! ## Quick example
//!
//! Applications implement the [`Application`] trait; executions are built
//! with [`ExecutionBuilder`] and checked with the condition predicates:
//!
//! ```
//! use shard_core::{Application, DecisionOutcome, ExecutionBuilder};
//!
//! /// A toy counter database: one integer, one transaction kind.
//! struct Counter;
//!
//! #[derive(Clone, Debug, PartialEq)]
//! struct Add(i64);
//!
//! impl Application for Counter {
//!     type State = i64;
//!     type Update = Add;
//!     type Decision = Add;
//!     fn initial_state(&self) -> i64 { 0 }
//!     fn is_well_formed(&self, _: &i64) -> bool { true }
//!     fn apply_in_place(&self, s: &mut i64, u: &Add) { *s += u.0 }
//!     fn decide(&self, d: &Add, _seen: &i64) -> DecisionOutcome<Add> {
//!         DecisionOutcome::update_only(d.clone())
//!     }
//!     fn constraint_count(&self) -> usize { 0 }
//!     fn constraint_name(&self, _: usize) -> &str { unreachable!() }
//!     fn cost(&self, _: &i64, _: usize) -> u64 { 0 }
//! }
//!
//! let app = Counter;
//! let mut b = ExecutionBuilder::new(&app);
//! let t0 = b.push_complete(Add(5)).unwrap();
//! // The second transaction misses t0: it sees the empty prefix.
//! let _t1 = b.push(Add(7), vec![]).unwrap();
//! let exec = b.finish();
//! assert_eq!(exec.actual_state_after(&app, 1), 12); // updates still merge
//! assert_eq!(shard_core::conditions::missed_count(&exec, 1), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod app;
pub mod conditions;
pub mod costs;
pub mod execution;
pub mod fairness;
pub mod grouping;
pub mod objects;
pub mod pmap;
pub mod replay;
pub mod stream;

pub use app::{Application, Cost, DecisionOutcome, ExternalAction};
pub use conditions::TimedExecution;
pub use costs::{monus, BoundFn};
pub use execution::{Execution, ExecutionBuilder, ExecutionError, Prefix, TxnIndex, TxnRecord};
pub use fairness::PriorityModel;
pub use grouping::Grouping;
pub use objects::{ObjectId, ObjectModel};
pub use pmap::PMap;
pub use replay::{Checkpoints, ReplayStats, Replayer, DEFAULT_CHECKPOINT_INTERVAL};
pub use stream::{
    Certificate, RowError, StreamChecker, StreamReport, StreamRow, StreamedRecord,
    StreamingExecution, WindowVerdict,
};
