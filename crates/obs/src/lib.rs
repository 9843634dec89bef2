//! # shard-obs — zero-dependency observability for the SHARD reproduction
//!
//! The experiments in this repository make quantitative claims — replay
//! depths, checkpoint reuse, partition repair cost — and until now the
//! numbers proving them lived in ad-hoc `println!`s. This crate gives
//! every layer one shared, dependency-free vocabulary for emitting them:
//!
//! * [`metrics`] — a [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   log₂-bucketed [`Histogram`]s. Updates are a few relaxed atomics, so
//!   hot paths (the replay engine, the merge loop) can be instrumented
//!   without distorting what they measure; a process-wide kill-switch
//!   ([`set_enabled`]) lets benchmarks quantify the residual overhead.
//! * [`mod@span`] — scoped wall-time timers: `let _s = obs::span!("x");`
//!   records elapsed nanoseconds into histogram `span.x` on drop.
//! * [`event`] — an [`EventSink`] writing structured JSONL: simulators
//!   log update deliveries, merge appends and out-of-order undo/redo
//!   repairs, partition cuts/heals, and crash/recovery as one JSON
//!   object per line.
//! * [`trace`] — offline digestion: [`summarize`] turns a JSONL trace
//!   into event counts, per-node undo/redo distributions and span-time
//!   tables; [`check_sidecar`] validates experiment sidecars;
//!   [`aggregate`] merges them into `EXPERIMENTS_METRICS.json`.
//! * [`cert`] — independent O(|certificate|) re-validation of monitor
//!   certificates against raw traces ([`certify`]), sharing no code
//!   with the checkers that emitted them.
//! * [`json`] — the hand-rolled JSON writer/parser underneath it all
//!   (the crate depends on nothing, not even the vendored shims, so it
//!   is importable from `shard-core` without changing its footprint).
//!
//! The `shard-trace` binary (the `shard-cli` crate, which may depend
//! on `shard-core`) exposes the [`trace`] and [`cert`] operations on
//! the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod event;
pub mod json;
pub mod metrics;
pub mod runtime;
pub mod span;
pub mod trace;

pub use cert::{certify, CertVerdict, CERT_SCHEMA};
pub use event::{EventBuilder, EventSink};
pub use json::{Json, ObjWriter, ParseError};
pub use metrics::{
    bucket_index, bucket_lo, enabled, set_enabled, Counter, Gauge, Histogram, HistogramSnapshot,
    Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use runtime::RuntimeMetrics;
pub use span::{SpanGuard, SPAN_PREFIX};
pub use trace::{
    aggregate, check_sidecar, diff_sidecars, render_sidecar_histograms, summarize, FaultTally,
    NodeReplay, SpanAgg, TraceSummary,
};
