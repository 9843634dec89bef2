//! What a key-order pass over the streaming tier's row store costs in
//! bytes read, pinned by count.
//!
//! The row store is a WAL appended in key order; a [`KeyCursor`] pass
//! over it is a sequence of refills, each a fresh `scan_key_range` from
//! the key after the last one handed out. The store remembers where the
//! previous scan stopped, so a refill reads on from there: the pass asks
//! the segment files for the rows once, plus the tail of the last block
//! of each refill. Without the remembered position every refill seeks
//! through the fences to the start of its segment and reads half a
//! segment to get back to where it was — five to six times the bytes.
//!
//! This file holds one test on purpose: `store.wal_read_bytes` is a
//! process-wide counter, and a test binary of its own is a process of
//! its own.

use shard_apps::banking::{AccountId, Bank, BankUpdate};
use shard_sim::{NodeId, StreamingMerge, Timestamp};
use shard_store::{DiskStore, KeyCursor, MemStore, StoreOptions};

/// E25's rows at its smoke scale: banking updates delivered in blocks
/// of 64, each block shuffled, so a row misses up to 63 others.
const ROWS: usize = 100_000;
const BLOCK: usize = 64;

#[test]
fn a_cursor_pass_over_the_row_store_reads_the_rows_about_once() {
    let dir = std::env::temp_dir().join(format!("shard-sim-read-amp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Bank::new(8, 1_000_000);
    let (rows, _) = DiskStore::open(&dir, StoreOptions::default()).unwrap();
    let anchors = Box::new(MemStore::new());
    let mut merge: StreamingMerge<Bank> =
        StreamingMerge::new(&app, Box::new(rows), anchors, BLOCK, 1024, 4, 16, 64);
    let mut seed = 0x5AD_E25u64;
    let mut next = |below: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % below
    };
    let mut tick = 0u64;
    for block in 0..ROWS / BLOCK + 1 {
        let mut order: Vec<usize> = (block * BLOCK..((block + 1) * BLOCK).min(ROWS)).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, next(i as u64 + 1) as usize);
        }
        for serial in order {
            let ts = Timestamp {
                lamport: serial as u64 + 1,
                node: NodeId(0),
            };
            let update = BankUpdate::Credit(AccountId(1 + next(8) as u32), 1 + next(500) as u32);
            merge.offer(&app, ts, tick, update).unwrap();
            tick += 1;
        }
    }
    merge.finish(&app).unwrap();
    assert_eq!(merge.sealed(), ROWS);
    let (mut sink, _, _) = merge.into_parts();
    let store = sink.store_mut();

    let read_bytes = || {
        shard_obs::Registry::global()
            .snapshot()
            .counter("store.wal_read_bytes")
            .unwrap_or(0)
    };
    let before = read_bytes();
    let mut cursor = KeyCursor::new(1024);
    let mut seen = 0;
    while cursor.next(&mut *store).unwrap().is_some() {
        seen += 1;
    }
    let asked = read_bytes() - before;
    let stored = store.len_bytes();
    assert_eq!(seen, ROWS);
    assert!(stored > 9_000_000, "rows of E25's size: {stored} bytes");
    assert!(
        asked >= stored && asked * 10 <= stored * 13,
        "the pass asked the files for {asked} bytes of a {stored}-byte row store ({:.2}x)",
        asked as f64 / stored as f64
    );
    drop(sink);
    let _ = std::fs::remove_dir_all(&dir);
}
