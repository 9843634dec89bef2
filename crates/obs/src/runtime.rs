//! Metrics for the threaded live deployment (`shard-runtime`).
//!
//! The simulator measures in virtual ticks; a live run measures in real
//! microseconds. This module names the two live signals every deployment
//! mode records so benches and the CLI agree on where to find them:
//!
//! * `runtime.<mode>.latency_us` — client-observed latency of each
//!   transaction: the gap between its scheduled submission time and the
//!   moment its node executed it, read off the tick that execution drew.
//!   Under an open workload this is true queueing latency; under a closed
//!   workload (all submissions due at t = 0) it degenerates to completion
//!   time.
//! * `runtime.<mode>.queue_depth` — in-flight update messages (sent but
//!   not yet merged at the receiver), sampled periodically by the run
//!   coordinator. The live analogue of the simulator's event queue
//!   length.
//!
//! Handles come from the global [`Registry`], so a process that runs
//! several modes back to back (the E23 bench does) keeps their
//! distributions separate by name.

use crate::metrics::{Histogram, HistogramSnapshot, Registry};
use std::sync::Arc;

/// Histogram handles for one deployment mode's live run.
#[derive(Clone)]
pub struct RuntimeMetrics {
    /// Submission-to-execution latency in microseconds.
    pub latency_us: Arc<Histogram>,
    /// Sampled count of in-flight (sent, unmerged) messages.
    pub queue_depth: Arc<Histogram>,
}

impl RuntimeMetrics {
    /// Handles for `mode` (e.g. `"cluster"`, `"gossip"`, `"partial"`)
    /// in the global registry. Repeated calls return the same
    /// histograms, so samples accumulate across runs of the same mode.
    pub fn for_mode(mode: &str) -> Self {
        let reg = Registry::global();
        RuntimeMetrics {
            latency_us: reg.histogram(&format!("runtime.{mode}.latency_us")),
            queue_depth: reg.histogram(&format!("runtime.{mode}.queue_depth")),
        }
    }

    /// Point-in-time latency distribution.
    pub fn latency(&self) -> HistogramSnapshot {
        self.latency_us.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_keep_separate_distributions() {
        let a = RuntimeMetrics::for_mode("test_mode_a");
        let b = RuntimeMetrics::for_mode("test_mode_b");
        a.latency_us.record(10);
        a.latency_us.record(1000);
        b.latency_us.record(7);
        assert_eq!(a.latency().count, 2);
        assert_eq!(RuntimeMetrics::for_mode("test_mode_b").latency().count, 1);
    }

    #[test]
    fn json_carries_quantiles() {
        let m = RuntimeMetrics::for_mode("test_mode_json");
        for v in [1u64, 2, 4, 8, 1024] {
            m.latency_us.record(v);
        }
        m.queue_depth.record(3);
        let doc = crate::json::parse(&m.latency().to_json()).expect("valid json");
        let lat = HistogramSnapshot::from_json(&doc).expect("histogram object");
        assert_eq!(lat.count, 5);
        let (p50, p99) = (lat.quantile(0.50), lat.quantile(0.99));
        assert!(p50 <= p99, "quantiles are monotone: {p50} {p99}");
    }
}
