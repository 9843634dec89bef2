//! Behavioural contract of the pool primitives: deterministic
//! input-ordered collection, panic propagation, the thread-count-1
//! no-spawn fast path, nested-call degradation, and empty input.

use shard_pool::{is_worker, par_map, PoolConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

#[test]
fn results_are_input_ordered_at_every_thread_count() {
    let items: Vec<usize> = (0..257).collect();
    let expect: Vec<String> = items.iter().map(|i| format!("#{i}")).collect();
    for threads in [1, 2, 4, 7, 32] {
        let cfg = PoolConfig::with_threads(threads);
        assert_eq!(
            par_map(&cfg, &items, |_, i| format!("#{i}")),
            expect,
            "threads = {threads}"
        );
    }
}

#[test]
fn empty_input_yields_empty_output_without_spawning() {
    let items: Vec<u32> = Vec::new();
    let caller = std::thread::current().id();
    let out: Vec<ThreadId> = par_map(&PoolConfig::with_threads(8), &items, |_, _| {
        std::thread::current().id()
    });
    assert!(out.is_empty());
    // With one item and eight threads only one worker is needed; with
    // zero the fast path keeps everything on the caller (nothing to
    // observe, but the call must not hang or panic).
    let one = [5u32];
    let out = par_map(&PoolConfig::with_threads(8), &one, |_, _| {
        std::thread::current().id()
    });
    assert_eq!(out, vec![caller], "a single item never leaves the caller");
}

#[test]
fn one_thread_takes_the_no_spawn_fast_path() {
    let caller = std::thread::current().id();
    let items: Vec<u32> = (0..64).collect();
    let ids = par_map(&PoolConfig::sequential(), &items, |_, _| {
        std::thread::current().id()
    });
    assert!(
        ids.iter().all(|&id| id == caller),
        "sequential pool must not spawn"
    );
    // And the caller is not marked as a pool worker afterwards.
    assert!(!is_worker());
}

#[test]
fn multi_thread_runs_off_the_caller() {
    let caller = std::thread::current().id();
    let items: Vec<u32> = (0..64).collect();
    let ids = par_map(&PoolConfig::with_threads(4), &items, |_, _| {
        std::thread::current().id()
    });
    assert!(
        ids.iter().all(|&id| id != caller),
        "parallel pool runs tasks on scoped workers"
    );
}

#[test]
fn panic_in_task_propagates_with_payload() {
    let items: Vec<u32> = (0..100).collect();
    for threads in [1, 4] {
        let cfg = PoolConfig::with_threads(threads);
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&cfg, &items, |i, _| {
                if i == 37 {
                    panic!("task 37 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("task 37 exploded"),
            "payload preserved, got {msg:?} (threads = {threads})"
        );
    }
}

#[test]
fn panic_joins_all_workers_before_propagating() {
    // Every worker still drains the queue / finishes its chunk; the
    // scope must not leak threads. Count completed tasks to show the
    // job kept running around the panic.
    let done = AtomicUsize::new(0);
    let items: Vec<u32> = (0..200).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        par_map(&PoolConfig::with_threads(4), &items, |i, _| {
            if i == 0 {
                panic!("early panic");
            }
            done.fetch_add(1, Ordering::Relaxed);
        })
    }));
    assert!(result.is_err());
    assert!(
        done.load(Ordering::Relaxed) >= 150,
        "other workers kept draining: {}",
        done.load(Ordering::Relaxed)
    );
}

#[test]
fn nested_calls_degrade_to_sequential_on_the_worker() {
    let cfg = PoolConfig::with_threads(4);
    let outer: Vec<u32> = (0..8).collect();
    let reports = par_map(&cfg, &outer, |_, _| {
        let worker = std::thread::current().id();
        assert!(is_worker(), "outer task runs on a marked worker");
        // The nested call must stay on this worker thread and preserve
        // order — the sequential fast path.
        let inner: Vec<u32> = (0..16).collect();
        let inner_ids = par_map(&cfg, &inner, |_, &x| (std::thread::current().id(), x));
        inner_ids.iter().all(|&(id, _)| id == worker) && inner_ids.iter().map(|&(_, x)| x).eq(0..16)
    });
    assert!(reports.into_iter().all(|ok| ok));
}
