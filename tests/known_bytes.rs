//! What a run keeps of what each transaction knew, in bytes. A
//! transaction records how far its node's arrival log reached — an
//! incarnation and a count, held inline in `ExecutedTxn` — and the
//! report keeps each node incarnation's arrival timestamps once. On a
//! seeded 2-node eager kernel run of 4 000 banking transactions both
//! together must stay within 48 bytes a transaction (a known-set
//! snapshot per transaction held ≈ 340). The kernel is deterministic,
//! so the figure is exact: this binary counts every byte its heap
//! holds, with its own global allocator.

use shard::apps::banking::Bank;
use shard::sim::known::Known;
use shard::sim::{ClusterConfig, DelayModel, Invocation, Runner};
use shard_runtime::{banking_submissions, Pacing};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes currently requested.
struct Counting;

static HELD: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HELD.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HELD.fetch_add(new_size, Ordering::Relaxed);
        HELD.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TXNS: usize = 4_000;

#[test]
fn visibility_costs_at_most_48_bytes_a_transaction() {
    let bank = Bank::new(64, 100);
    let invocations: Vec<_> =
        banking_submissions(&bank, 1, TXNS, 2, 1.1, Pacing::Open { gap_us: 25 }, None)
            .into_iter()
            .map(|s| Invocation::new(s.at_us, s.node, s.decision))
            .collect();
    let cfg = ClusterConfig {
        nodes: 2,
        seed: 1,
        delay: DelayModel::Exponential { mean: 40 },
        ..ClusterConfig::default()
    };
    let mut report = Runner::eager(&bank, cfg).run(invocations);
    assert_eq!(report.transactions.len(), TXNS);
    assert!(report.missing().is_empty());
    // The records sit inline in `transactions`, owning no heap: their
    // bytes are their size. The arrival logs are what dropping frees.
    let records = std::mem::size_of::<Known>() * TXNS;
    let arrivals = std::mem::take(&mut report.arrivals);
    let before = HELD.load(Ordering::Relaxed);
    drop(arrivals);
    let logs = before - HELD.load(Ordering::Relaxed);
    let per_txn = (records + logs) as f64 / TXNS as f64;
    println!("visibility: {records} B of records + {logs} B of arrival logs = {per_txn:.1} B a transaction");
    assert!(per_txn <= 48.0, "{per_txn:.1} B a transaction");
    // Each node merged every update once, at 16 bytes an arrival.
    assert!(logs >= 2 * TXNS * std::mem::size_of::<shard::sim::Timestamp>());
}
