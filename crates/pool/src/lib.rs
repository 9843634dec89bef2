//! `shard-pool` — a deterministic, zero-dependency scoped thread pool.
//!
//! The chaos search (`shard-chaos`, E21, E22) fans independent seeds
//! out across workers; that sweep is the pool's one workload. This
//! crate provides its one primitive, [`par_map`], with two hard
//! guarantees:
//!
//! 1. **Determinism** — results are collected in *input order*, so the
//!    output of [`par_map`] is bit-for-bit identical at every thread
//!    count, including 1. Thread count is a throughput knob, never a
//!    semantics knob.
//! 2. **Sequential fidelity** — at one thread (or when already inside a
//!    pool worker) [`par_map`] takes a no-spawn fast path that *is*
//!    the plain sequential loop: same iteration order, same stack.
//!
//! Work distribution is dynamic (workers share one atomic task cursor,
//! so a slow task does not stall a whole static stripe), which is why
//! only result *collection* — not execution order — is deterministic.
//! Panics in tasks are propagated to the caller after all workers have
//! been joined; the first panic in worker order wins.
//!
//! The pool is configured by [`PoolConfig`]; the `SHARD_POOL_THREADS`
//! environment variable overrides the default size process-wide
//! (`1` reproduces today's sequential behaviour everywhere). The
//! environment path caps the size at the host's available parallelism —
//! oversubscribing CPU-bound work only adds preemption.
//!
//! The registry being offline, this crate is std-only — consistent with
//! the vendored rand/proptest shims (see DESIGN.md §8).
//!
//! Observability: when the `shard-obs` metrics layer is enabled, the
//! pool feeds a `pool.*` counter family — jobs, tasks, handoffs (tasks
//! a worker claimed off its static stripe: the work-sharing events),
//! workers spawned, and a per-worker busy-time histogram — which
//! `shard-trace summarize` reports as utilization. `pool.*` metrics
//! depend on the thread count and timing; they are excluded from the
//! deterministic sidecar comparison (`shard-trace diff`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How many OS threads a parallel call may use.
///
/// `threads == 1` means *sequential*: the primitives run the plain
/// in-order loop on the calling thread without spawning anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum worker threads per parallel call (at least 1; calls over
    /// fewer items use fewer).
    pub threads: usize,
}

impl PoolConfig {
    /// A sequential pool: the no-spawn fast path, bit-for-bit the plain
    /// loop.
    pub fn sequential() -> Self {
        PoolConfig { threads: 1 }
    }

    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        PoolConfig {
            threads: threads.max(1),
        }
    }

    /// The process default: `SHARD_POOL_THREADS` if set and positive,
    /// otherwise the machine's available parallelism — in both cases
    /// capped at the available parallelism. Requesting more workers
    /// than cores never helps a CPU-bound checker: the extra threads
    /// just preempt each other (BENCH_parallel.json once recorded a
    /// 0.63× "speedup" at 4 threads on a 1-core host exactly this way).
    /// [`PoolConfig::with_threads`] stays uncapped for tests and
    /// benchmarks that deliberately exercise real contention.
    pub fn from_env() -> Self {
        let threads = std::env::var("SHARD_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(usize::MAX);
        PoolConfig { threads }.capped_to_host()
    }

    /// This configuration with `threads` capped at the machine's
    /// available parallelism — what [`PoolConfig::from_env`] applies to
    /// the environment override, exposed for callers that build sizes
    /// programmatically but still want the oversubscription guard.
    pub fn capped_to_host(self) -> Self {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        PoolConfig {
            threads: self.threads.min(hw).max(1),
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::from_env()
    }
}

thread_local! {
    /// Set while the current thread is a pool worker. Nested parallel
    /// calls detect it and degrade to the sequential fast path instead
    /// of oversubscribing (or deadlocking a bounded pool).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is executing inside a pool worker.
///
/// Nested [`par_map`] calls from a worker run
/// sequentially on that worker; this predicate lets callers pick
/// cheaper sequential algorithms up front.
pub fn is_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Registers the `pool.*` metrics together (see `shard_obs::counter!`).
/// All are lock-free adds; the cost when the obs layer is disabled is a
/// single relaxed load.
fn family() {
    let r = shard_obs::Registry::global();
    for name in [
        "pool.jobs",
        "pool.jobs_sequential",
        "pool.tasks",
        "pool.handoffs",
        "pool.workers_spawned",
    ] {
        r.counter(name);
    }
    r.histogram("pool.busy_ns");
}

/// Accounts one parallel call over `tasks` items that spawns `workers`
/// threads (0 = it ran on the calling thread).
fn note_job(tasks: usize, workers: usize) {
    if shard_obs::enabled() {
        shard_obs::counter!("pool.tasks", family).add(tasks as u64);
        if workers == 0 {
            shard_obs::counter!("pool.jobs_sequential", family).inc();
        } else {
            shard_obs::counter!("pool.jobs", family).inc();
            shard_obs::counter!("pool.workers_spawned", family).add(workers as u64);
        }
    }
}

/// Applies `f` to every element of `items` and returns the results in
/// **input order**, using up to `cfg.threads` scoped worker threads.
///
/// Work distribution is dynamic (one shared atomic cursor), results are
/// written back by index — so the returned vector is identical at any
/// thread count. With one thread, no items, or when called from inside
/// a pool worker, this is the plain sequential loop on the calling
/// thread (no threads spawned).
///
/// # Panics
///
/// If `f` panics for any element, the panic is re-raised on the calling
/// thread after all workers finish (first panic in worker order).
pub fn par_map<T, R, F>(cfg: &PoolConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = cfg.threads.max(1).min(n);
    if workers <= 1 || is_worker() {
        note_job(n, 0);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    note_job(n, workers);
    // Workers claim short *runs* of tasks per cursor bump rather than
    // one task at a time, so a long list of short tasks (a chaos batch
    // of quick seeds) doesn't serialize on the shared atomic. The claim
    // size is a function of the input size and worker count alone;
    // results are written back by index, so the output is unchanged.
    let claim = (n / (workers * 8)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let f = &f;
                s.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    let started = Instant::now();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut handoffs = 0u64;
                    loop {
                        let start = cursor.fetch_add(claim, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        // A run off this worker's static stripe is a
                        // work-sharing handoff: dynamic scheduling
                        // moved it here from the round-robin owner.
                        let end = (start + claim).min(n);
                        if (start / claim) % workers != w {
                            handoffs += (end - start) as u64;
                        }
                        for (off, item) in items[start..end].iter().enumerate() {
                            let i = start + off;
                            out.push((i, f(i, item)));
                        }
                    }
                    if shard_obs::enabled() {
                        shard_obs::counter!("pool.handoffs", family).add(handoffs);
                        shard_obs::histogram!("pool.busy_ns", family)
                            .record(started.elapsed().as_nanos() as u64);
                    }
                    out
                })
            })
            .collect();
        let mut merged: Vec<(usize, R)> = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(part) => merged.extend(part),
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        debug_assert_eq!(merged.len(), n, "every task produced one result");
        merged.sort_unstable_by_key(|&(i, _)| i);
        merged.into_iter().map(|(_, r)| r).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map_at_every_size() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 7, 16] {
            let cfg = PoolConfig::with_threads(threads);
            let got = par_map(&cfg, &items, |_, &x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn config_env_parsing_defaults() {
        // Not touching the real env (tests run concurrently): just the
        // constructors.
        assert_eq!(PoolConfig::sequential().threads, 1);
        assert_eq!(PoolConfig::with_threads(0).threads, 1);
        assert_eq!(PoolConfig::with_threads(9).threads, 9);
        assert!(PoolConfig::from_env().threads >= 1);
    }

    #[test]
    fn host_cap_bounds_threads_without_zeroing_them() {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(
            PoolConfig::with_threads(10_000).capped_to_host().threads,
            hw
        );
        assert_eq!(PoolConfig::sequential().capped_to_host().threads, 1);
        // from_env never exceeds the host even if the env asks for more.
        assert!(PoolConfig::from_env().threads <= hw);
    }
}
