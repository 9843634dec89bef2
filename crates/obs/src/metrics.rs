//! Named counters, gauges and log-scale histograms behind a [`Registry`].
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cheap.** Handles are `Arc`s resolved once per
//!    instrumentation site ([`counter!`](crate::counter) /
//!    [`histogram!`](crate::histogram)); every update is a handful of
//!    relaxed atomic operations, no locking, no allocation.
//! 2. **Deterministic snapshots.** Metrics live in `BTreeMap`s, so a
//!    [`Snapshot`] always lists names in sorted order and two snapshots of
//!    the same state are identical — required for byte-stable experiment
//!    sidecars.
//! 3. **Globally reachable.** [`Registry::global`] is the process-wide
//!    registry the `span!` macro and the instrumented crates use; local
//!    registries exist for tests.
//!
//! Histograms bucket by `floor(log2(v)) + 1` (value 0 gets bucket 0), so
//! 65 buckets cover the whole `u64` range — the "log-scale histogram"
//! that makes replay depths and span latencies legible without
//! configuration.

use crate::json::ObjWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: value 0, then one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Global kill-switch for the instrumentation hot paths.
///
/// Defaults to enabled; the `SHARD_OBS=0` environment variable (read
/// once) or [`set_enabled`] turns recording off. Instrumentation sites
/// should check [`enabled`] before doing per-event work so a disabled
/// build measures the true cost of the layer (the overhead bench in
/// `shard-bench` flips this at runtime).
static ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn enabled_cell() -> &'static AtomicBool {
    ENABLED.get_or_init(|| AtomicBool::new(std::env::var("SHARD_OBS").map_or(true, |v| v != "0")))
}

/// Whether metric recording is currently on.
#[inline]
pub fn enabled() -> bool {
    enabled_cell().load(Ordering::Relaxed)
}

/// Turns metric recording on or off process-wide.
pub fn set_enabled(on: bool) {
    enabled_cell().store(on, Ordering::Relaxed);
}

/// A monotonically increasing `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed metric (queue depths, cache sizes, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is currently lower (high-watermark).
    #[inline]
    pub fn max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram over `u64` samples.
///
/// Bucket `0` counts exact zeros; bucket `b ≥ 1` counts values `v` with
/// `2^(b−1) ≤ v < 2^b`. `u64::MAX` lands in bucket 64. Count, sum
/// (saturating), min and max are tracked exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value falls into.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The smallest value belonging to bucket `b`.
pub fn bucket_lo(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate the running sum instead of wrapping: a pegged sum is
        // obviously saturated, a wrapped one silently lies.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An immutable copy of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(b, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then_some((bucket_lo(b), c))
                })
                .collect(),
        }
    }
}

/// Point-in-time contents of a [`Histogram`] — or, built up with
/// [`HistogramSnapshot::record`], the plain single-threaded histogram
/// the offline trace tooling accumulates into.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(lowest value in bucket, sample count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Records one sample, exactly as [`Histogram::record`] followed by
    /// [`Histogram::snapshot`] would show it.
    pub fn record(&mut self, v: u64) {
        let lo = bucket_lo(bucket_index(v));
        match self.buckets.binary_search_by_key(&lo, |&(lo, _)| lo) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (lo, 1)),
        }
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the log₂
    /// buckets: the bucket holding the target rank is located by a
    /// cumulative walk, then the value is linearly interpolated across
    /// the bucket's *effective* value range by rank position. The
    /// effective range tightens `[lo, 2·lo − 1]` by the recorded
    /// extremes — samples in the lowest occupied bucket cannot lie
    /// below `min`, samples in the highest cannot lie above `max`.
    /// Interpolating across the tightened range (rather than clamping
    /// the raw estimate to `max` afterwards) keeps distinct upper
    /// quantiles distinct when one wide bucket holds the tail: the old
    /// clamp collapsed every rank in the top occupied bucket past the
    /// real `max` onto `max` itself, reporting p90 == p99 == max for
    /// single-run latency histograms. Exact for the one-value buckets
    /// (0 and 1); within a factor of 2 otherwise — the same resolution
    /// the buckets themselves offer.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut before = 0u64;
        for &(lo, c) in &self.buckets {
            if before + c >= target {
                // Largest value the bucket can hold; buckets 0 and 1
                // hold exactly one value each.
                let hi = lo.saturating_mul(2).saturating_sub(1).max(lo);
                // `min` lies inside the lowest occupied bucket and
                // `max` inside the highest, so the tightened range is
                // never empty.
                let lo_eff = lo.max(self.min);
                let hi_eff = hi.min(self.max);
                let fraction = (target - before) as f64 / c as f64;
                return lo_eff as f64 + fraction * (hi_eff.saturating_sub(lo_eff)) as f64;
            }
            before += c;
        }
        self.max as f64
    }

    /// Renders as a JSON object.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .map(|(lo, c)| format!("[{lo},{c}]"))
            .collect();
        ObjWriter::new()
            .u64("count", self.count)
            .u64("sum", self.sum)
            .u64("min", self.min)
            .u64("max", self.max)
            .raw("buckets", &format!("[{}]", buckets.join(",")))
            .finish()
    }

    /// Reconstructs a snapshot from its [`HistogramSnapshot::to_json`]
    /// form — the shape experiment sidecars embed — so the trace
    /// tooling can report quantiles without re-recording samples.
    /// Returns `None` if `v` is not such an object.
    pub fn from_json(v: &crate::json::Json) -> Option<HistogramSnapshot> {
        use crate::json::Json;
        let field = |k: &str| v.get(k).and_then(Json::as_u64);
        let buckets = v
            .get("buckets")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                match pair {
                    [lo, c] => Some((lo.as_u64()?, c.as_u64()?)),
                    _ => None,
                }
            })
            .collect::<Option<Vec<(u64, u64)>>>()?;
        Some(HistogramSnapshot {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            max: field("max")?,
            buckets,
        })
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A namespace of metrics. Handle lookup locks a mutex; the handles
/// themselves are lock-free, so look up once and cache.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// A fresh, empty registry (tests; the instrumented crates use
    /// [`Registry::global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("metrics registry mutex poisoned: a metrics operation panicked")
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut g = self.lock();
        if let Some(c) = g.counters.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        g.counters.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut g = self.lock();
        if let Some(c) = g.gauges.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Gauge::default());
        g.gauges.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut g = self.lock();
        if let Some(c) = g.histograms.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Histogram::default());
        g.histograms.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// A deterministic (name-sorted) copy of every metric's value.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        Snapshot {
            counters: g
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The global [`Counter`] `name` as a `&'static` handle, resolved once
/// per call site: after the first evaluation a use costs an
/// initialised-check on the site's static plus the update itself. An
/// instrumentation site reads
/// `if shard_obs::enabled() { shard_obs::counter!("merge.appends").inc(); }`.
///
/// `counter!(name, siblings)` calls `siblings()` before the first
/// resolution. A module passes the function that registers its whole
/// metric family, so a snapshot lists every member (at zero) from the
/// first time any of them fires — sidecar diffs compare name sets.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, || ())
    };
    ($name:expr, $siblings:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| {
            $siblings();
            $crate::Registry::global().counter($name)
        })
    }};
}

/// [`counter!`] for the global [`Histogram`] `name`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        $crate::histogram!($name, || ())
    };
    ($name:expr, $siblings:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| {
            $siblings();
            $crate::Registry::global().histogram($name)
        })
    }};
}

/// A deterministic point-in-time copy of a [`Registry`]'s contents,
/// name-sorted in every section.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, contents)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Serializes tests that read or toggle the global [`enabled`] flag —
/// cargo runs tests in parallel threads of one process.
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b").get(), 5, "same name, same metric");
        let g = r.gauge("depth");
        g.set(3);
        g.max(10);
        g.max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn site_macros_resolve_global_handles_and_register_siblings_first() {
        fn siblings() {
            Registry::global().counter("obs.test.macro.sibling");
        }
        for _ in 0..3 {
            crate::counter!("obs.test.macro.hits", siblings).inc();
            crate::histogram!("obs.test.macro.sizes").record(5);
        }
        let snap = Registry::global().snapshot();
        assert_eq!(snap.counter("obs.test.macro.hits"), Some(3));
        assert_eq!(snap.counter("obs.test.macro.sibling"), Some(0));
        let sizes = Registry::global().histogram("obs.test.macro.sizes");
        assert_eq!(sizes.snapshot().sum, 15);
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lo(0), 0);
        assert_eq!(bucket_lo(1), 1);
        assert_eq!(bucket_lo(64), 1u64 << 63);
    }

    #[test]
    fn histogram_extremes_zero_and_max() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.buckets, vec![(0, 1), (1u64 << 63, 2)]);
        // The snapshot renders to valid JSON.
        let parsed = crate::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("count").and_then(crate::json::Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn recorded_snapshot_equals_the_atomic_histograms() {
        let mut plain = HistogramSnapshot::default();
        let atomic = Histogram::default();
        assert_eq!(plain, atomic.snapshot(), "empty");
        let samples = [7, 0, u64::MAX, 1, 1000, 6, u64::MAX, 0, 1 << 40, 3];
        for v in samples {
            plain.record(v);
            atomic.record(v);
            assert_eq!(plain, atomic.snapshot(), "after {v}");
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_benign() {
        let s = Histogram::default().snapshot();
        assert_eq!((s.count, s.min, s.max, s.sum), (0, 0, 0, 0));
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let r = Registry::new();
        // Insertion order deliberately unsorted.
        r.counter("z.last").inc();
        r.counter("a.first").add(2);
        r.histogram("m.h").record(5);
        r.gauge("g").set(-4);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2, "same state, identical snapshots");
        let names: Vec<&str> = s1.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"], "sorted by name");
        assert_eq!(s1.counter("a.first"), Some(2));
        assert_eq!(s1.counter("missing"), None);
        let (name, h) = &s1.histograms[0];
        assert_eq!((name.as_str(), h.count), ("m.h", 1));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global().counter("obs.test.global");
        Registry::global().counter("obs.test.global").add(3);
        assert!(a.get() >= 3);
    }

    #[test]
    fn quantiles_estimate_within_bucket_resolution() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile(0.5), 0.0, "empty histogram");
        // 100 samples of value 1: every quantile is exactly 1.
        for _ in 0..100 {
            h.record(1);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.5), 1.0);
        assert_eq!(s.quantile(1.0), 1.0);
        // 90 zeros and 10 large samples: p50 = 0, p99 lands in the
        // large bucket (within its factor-of-2 resolution).
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(0);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        let p99 = s.quantile(0.99);
        assert!((512.0..=1000.0).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000.0, "clamped to max");
        // Round-trips through the sidecar JSON form.
        let parsed = crate::json::parse(&s.to_json()).expect("valid JSON");
        assert_eq!(HistogramSnapshot::from_json(&parsed), Some(s));
        assert_eq!(HistogramSnapshot::from_json(&crate::json::Json::Null), None);
    }

    #[test]
    fn upper_quantiles_stay_distinct_within_one_bucket() {
        // The single-run latency shape: most samples pile into one wide
        // top bucket whose real max sits well below the bucket's upper
        // edge. Interpolation across the tightened range must keep
        // p50 < p90 < p99 < max instead of clamping them all onto max.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(1_100_000); // bucket [2^20, 2^21): lo 1048576
        }
        h.record(1_786_554); // the true max, far below the bucket edge
        let s = h.snapshot();
        let (p50, p90, p99) = (s.quantile(0.5), s.quantile(0.9), s.quantile(0.99));
        assert!(p50 < p90 && p90 < p99, "p50={p50} p90={p90} p99={p99}");
        assert!(p99 < s.max as f64, "p99={p99} must sit below max {}", s.max);
        assert!(p50 >= s.min as f64, "interpolation stays in [min, max]");
        assert_eq!(s.quantile(1.0), s.max as f64);
    }

    #[test]
    fn enable_switch_round_trips() {
        let _guard = test_flag_lock();
        let was = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }
}
