//! Scoped wall-time spans recorded into histograms.
//!
//! `obs::span!("replay.rebuild")` returns a guard; when the guard drops,
//! the elapsed nanoseconds are recorded into the global histogram
//! `span.replay.rebuild`. Log₂ buckets make the usual latency questions
//! ("is this microseconds or milliseconds?") answerable without
//! configuring bucket bounds, and `count`/`sum` give exact totals for
//! the span-time tables in experiment sidecars.

use crate::metrics::{enabled, Histogram, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Prefix under which span histograms are registered.
pub const SPAN_PREFIX: &str = "span.";

/// An in-flight span; records its elapsed time on drop.
///
/// Inert (records nothing) when recording was disabled at creation.
#[derive(Debug)]
#[must_use = "a span records on drop; binding to _ ends it immediately"]
pub struct SpanGuard {
    hist: Option<Arc<Histogram>>,
    start: Instant,
}

impl SpanGuard {
    /// Elapsed time so far, in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(h) = &self.hist {
            h.record(self.elapsed_ns());
        }
    }
}

impl Registry {
    /// Starts a span named `name`, recording into histogram
    /// `span.<name>` of this registry when dropped.
    pub fn span(&self, name: &str) -> SpanGuard {
        let hist = enabled().then(|| self.histogram(&format!("{SPAN_PREFIX}{name}")));
        SpanGuard {
            hist,
            start: Instant::now(),
        }
    }
}

/// Starts a scoped wall-time span on the global registry:
/// `let _s = obs::span!("conditions.verify");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Registry::global().span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_prefixed_histogram() {
        let _guard = crate::metrics::test_flag_lock();
        crate::metrics::set_enabled(true);
        let r = Registry::new();
        {
            let g = r.span("unit.test");
            std::thread::sleep(std::time::Duration::from_millis(1));
            assert!(g.elapsed_ns() > 0);
        }
        let h = r.histogram("span.unit.test").snapshot();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 1_000_000, "at least the 1ms sleep: {}", h.sum);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::metrics::test_flag_lock();
        let r = Registry::new();
        crate::metrics::set_enabled(false);
        drop(r.span("quiet"));
        crate::metrics::set_enabled(true);
        assert!(r.snapshot().histograms.is_empty());
    }

    #[test]
    fn global_span_macro_lands_in_global_registry() {
        let _guard = crate::metrics::test_flag_lock();
        crate::metrics::set_enabled(true);
        drop(crate::span!("obs.test.span"));
        let snap = Registry::global().snapshot();
        assert!(snap
            .histograms
            .iter()
            .any(|(n, _)| n == "span.obs.test.span"));
    }
}
