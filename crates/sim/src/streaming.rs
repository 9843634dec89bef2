//! Out-of-core merge: a bounded reorder window in front of a
//! store-backed execution (§1.2's t-bounded delay, turned into a
//! memory bound).
//!
//! The paper's partial-amnesia argument (§5.4) and the simulator's
//! delay models both rest on the same physical fact: a message is
//! never displaced arbitrarily far — there is a bound `t` such that
//! every update is known everywhere within `t`. [`StreamingMerge`]
//! exploits the discrete shadow of that bound. Arrivals may disagree
//! with timestamp order by at most `capacity` positions, so a window
//! of `capacity + 1` pending updates is enough to emit the **final
//! serial order** one transaction at a time: once the window
//! overflows, its minimum timestamp can never be preceded by a later
//! arrival, and the transaction *seals*.
//!
//! Sealing appends the row to a store-backed [`StreamingExecution`],
//! folds the update into one in-place state (never a log of states),
//! and feeds the online §3 window checker — retired behind the oldest
//! sealed row a pending arrival can still miss — so a
//! 10⁷-transaction run holds one application state, a
//! `capacity`-sized window, and a few windows of checker state in RAM
//! (window and checker counted in the `state.peak_resident_bytes`
//! gauge), while the full execution lives in the store for later
//! byte-identical re-checking. Seals come in timestamp order and are
//! final, so nothing is ever undone and no checkpoint is kept.
//! Experiment E25 drives this end to end.

use crate::clock::Timestamp;
use shard_core::{Application, StreamChecker, StreamReport, StreamRow, StreamingExecution};
use std::collections::VecDeque;
use std::io;

struct Pending<U> {
    /// Arrival sequence number — the position in *delivery* order.
    arrival: u64,
    /// Real initiation time (the simulator's integer ticks).
    time: u64,
    update: U,
}

/// Streams an out-of-timestamp-order delivery sequence into its final
/// serial order at bounded memory. See the module docs for the
/// contract: deliveries may be displaced from timestamp order by at
/// most `capacity` positions.
pub struct StreamingMerge<A: Application> {
    /// The pending deliveries, sorted by timestamp: the front seals
    /// next.
    window: VecDeque<(Timestamp, Pending<A::Update>)>,
    capacity: usize,
    state: A::State,
    sink: StreamingExecution<A>,
    checker: StreamChecker,
    /// Rows sealed so far — the serial index of the next seal.
    sealed: usize,
    last_sealed: Option<Timestamp>,
    /// The arrivals of the last `recent.len()` sealed rows, in serial
    /// order — entry `k` is row `sealed − recent.len() + k`; retained
    /// exactly while some pending arrival is older, because those are
    /// the rows a pending transaction can still have missed.
    recent: VecDeque<u64>,
    next_arrival: u64,
    seals_since_prune: usize,
    /// The row being sealed — reused from seal to seal.
    row: StreamRow,
}

impl<A: Application> StreamingMerge<A>
where
    A::Update: shard_store::Codec,
{
    /// A merge over `app` whose rows stream into `row_store`.
    /// `capacity` bounds the reorder window (= the delivery
    /// displacement the workload guarantees); `checker_window` is the
    /// online §3 verdict cadence.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_window(
        app: &A,
        row_store: Box<dyn shard_store::Store + Send>,
        capacity: usize,
        checker_window: usize,
    ) -> Self {
        assert!(capacity > 0, "reorder window must hold at least one row");
        StreamingMerge {
            window: VecDeque::new(),
            capacity,
            state: app.initial_state(),
            sink: StreamingExecution::new(row_store),
            checker: StreamChecker::new(checker_window),
            sealed: 0,
            last_sealed: None,
            recent: VecDeque::new(),
            next_arrival: 0,
            seals_since_prune: 0,
            row: StreamRow {
                index: 0,
                time: 0,
                missed: Vec::new(),
            },
        }
    }

    /// Delivers the next update. A timestamp still pending in the
    /// window is ignored, like a [`MergeLog::merge`](crate::MergeLog::merge)
    /// redelivery.
    ///
    /// # Errors
    ///
    /// `InvalidInput` — naming `ts` and the sealed frontier — for a
    /// delivery at or below the newest sealed timestamp. That is either
    /// a late redelivery of a sealed transaction (legal under
    /// at-least-once delivery) or a newcomer displaced beyond the
    /// reorder window (the workload broke its displacement bound);
    /// without a set of sealed timestamps the two are indistinguishable,
    /// so the caller decides. The delivery is dropped and the merge
    /// stays usable.
    ///
    /// Store errors from sealing. The delivery itself is held in the
    /// window; the seal that failed left the merge as it was before
    /// it (see [`StreamingMerge::finish`]) and is tried again by the
    /// next `offer` or `finish`.
    pub fn offer(
        &mut self,
        app: &A,
        ts: Timestamp,
        time: u64,
        update: A::Update,
    ) -> io::Result<()> {
        if let Some(frontier) = self.last_sealed.filter(|sealed| ts <= *sealed) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "delivery {ts} is at or below the sealed frontier {frontier} \
                     (reorder window capacity {})",
                    self.capacity
                ),
            ));
        }
        let arrival = self.next_arrival;
        self.next_arrival += 1;
        // The search that places the delivery also finds a duplicate.
        let Err(at) = self.window.binary_search_by(|(t, _)| t.cmp(&ts)) else {
            return Ok(());
        };
        let pending = Pending {
            arrival,
            time,
            update,
        };
        self.window.insert(at, (ts, pending));
        // More than one only after a seal failed and left a backlog.
        while self.window.len() > self.capacity {
            self.seal_min(app)?;
        }
        Ok(())
    }

    /// Seals every pending transaction and syncs the row store. The
    /// stream can keep going afterwards; this is the end-of-input (or
    /// barrier) drain.
    ///
    /// # Errors
    ///
    /// Store errors. A seal's row append is its first effect, so a
    /// failed seal changes nothing: the transaction is back in the
    /// window, `sealed` / `state` / `report` are those of a merge that
    /// stopped one row earlier, and calling `finish` (or `offer`)
    /// again retries it — a run that retries through an error ends
    /// with the store and report of one that never saw it.
    pub fn finish(&mut self, app: &A) -> io::Result<()> {
        while !self.window.is_empty() {
            self.seal_min(app)?;
        }
        self.note_resident();
        self.sink.sync()
    }

    fn seal_min(&mut self, app: &A) -> io::Result<()> {
        let (ts, p) = self.window.pop_front().expect("caller checked non-empty");
        let i = self.sealed;
        let first = i - self.recent.len();
        self.row.index = i;
        self.row.time = p.time;
        // The serially-earlier rows this transaction missed: exactly
        // the ones delivered after it. Under reordering that is a coin
        // toss per row, so each row is written and the end advances past
        // it only if it was delivered later — no branch on the arrival.
        let missed = &mut self.row.missed;
        missed.resize(self.recent.len(), 0);
        let mut kept = 0;
        for (k, &a) in self.recent.iter().enumerate() {
            missed[kept] = first + k;
            kept += usize::from(a > p.arrival);
        }
        missed.truncate(kept);
        if let Err(e) = self.sink.push(&self.row, &p.update) {
            self.window.push_front((ts, p));
            return Err(e);
        }
        app.apply_in_place(&mut self.state, &p.update);
        self.sealed = i + 1;
        self.last_sealed = Some(ts);
        self.checker.push(&self.row);
        self.recent.push_back(p.arrival);
        // A sealed row stays interesting only while a pending arrival
        // is older than it; prune amortized once per window turnover.
        self.seals_since_prune += 1;
        if self.seals_since_prune >= self.capacity {
            self.seals_since_prune = 0;
            let oldest = self.window.iter().map(|(_, p)| p.arrival).min();
            let oldest = oldest.unwrap_or(self.next_arrival);
            let dead = self.recent.iter().take_while(|&&a| a < oldest).count();
            self.recent.drain(..dead);
            // A row pruned here arrived before everything pending, so
            // before everything still to come: no later row misses it.
            self.checker.retire_below(self.sealed - self.recent.len());
            self.note_resident();
        }
        Ok(())
    }

    /// Raises the `state.peak_resident_bytes` gauge to what the merge
    /// holds right now: reorder window and checker.
    fn note_resident(&self) {
        use std::mem::size_of;
        use std::sync::{Arc, OnceLock};
        static PEAK: OnceLock<Arc<shard_obs::Gauge>> = OnceLock::new();
        if !shard_obs::enabled() {
            return;
        }
        let window = self.window.len() * size_of::<(Timestamp, Pending<A::Update>)>()
            + self.recent.capacity() * size_of::<u64>()
            + self.row.missed.capacity() * size_of::<usize>();
        let held = window + self.checker.resident_bytes();
        PEAK.get_or_init(|| shard_obs::Registry::global().gauge("state.peak_resident_bytes"))
            .max(held as i64);
    }

    /// The state after every sealed transaction.
    pub fn state(&self) -> &A::State {
        &self.state
    }

    /// Sealed (serially final) transactions so far.
    pub fn sealed(&self) -> usize {
        self.sealed
    }

    /// The online checker's report over everything sealed so far.
    pub fn report(&self) -> StreamReport {
        self.checker.report()
    }

    /// Tears the merge down into its store-backed execution (for
    /// second-pass re-checking off the cursor) and final state. The
    /// third part is an empty execution over a [`MemStore`](shard_store::MemStore),
    /// kept so existing three-part destructuring still compiles.
    ///
    /// # Panics
    ///
    /// Panics if transactions are still pending — call
    /// [`StreamingMerge::finish`] first.
    pub fn into_parts(self) -> (StreamingExecution<A>, A::State, StreamingExecution<A>) {
        assert!(
            self.window.is_empty(),
            "finish() the stream before tearing it down"
        );
        let empty = StreamingExecution::new(Box::new(shard_store::MemStore::new()));
        (self.sink, self.state, empty)
    }

    /// The pre-[`with_window`](StreamingMerge::with_window) constructor:
    /// the anchor store and the three anchor settings are ignored.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        app: &A,
        row_store: Box<dyn shard_store::Store + Send>,
        _anchor_store: Box<dyn shard_store::Store + Send>,
        capacity: usize,
        _checkpoint_every: usize,
        _hot_points: usize,
        _spill_spacing: usize,
        checker_window: usize,
    ) -> Self {
        Self::with_window(app, row_store, capacity, checker_window)
    }

    /// Always 0: the merge keeps no checkpoints.
    #[doc(hidden)]
    pub fn spilled_anchors(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NodeId;
    use crate::merge::MergeLog;
    use shard_core::DecisionOutcome;

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The history of updates a `Trace` state is, every clone counted.
    #[derive(Debug, PartialEq)]
    struct Counted(Vec<u64>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0.clone())
        }
    }

    #[derive(Clone)]
    struct Trace;

    impl Application for Trace {
        type State = Counted;
        type Update = u64;
        type Decision = u64;
        fn initial_state(&self) -> Counted {
            Counted(Vec::new())
        }
        fn is_well_formed(&self, _: &Counted) -> bool {
            true
        }
        fn apply_in_place(&self, s: &mut Counted, u: &u64) {
            s.0.push(*u);
        }
        fn decide(&self, d: &u64, _: &Counted) -> DecisionOutcome<u64> {
            DecisionOutcome::update_only(*d)
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &Counted, _: usize) -> u64 {
            0
        }
    }

    fn ts(l: u64) -> Timestamp {
        Timestamp {
            lamport: l,
            node: NodeId(0),
        }
    }

    /// A displacement-bounded shuffle of `0..n`: element `i` stays
    /// within its block of `d + 1`, so it moves at most `d` positions.
    fn displaced(n: u64, d: usize) -> Vec<u64> {
        let mut order: Vec<u64> = (0..n).collect();
        for (b, chunk) in order.chunks_mut(d + 1).enumerate() {
            if b % 2 == 0 {
                chunk.reverse();
            } else {
                chunk.rotate_left(1.min(chunk.len() - 1));
            }
        }
        order
    }

    fn merge_all(app: &Trace, order: &[u64], capacity: usize) -> StreamingMerge<Trace> {
        let mut m =
            StreamingMerge::with_window(app, Box::new(shard_store::MemStore::new()), capacity, 8);
        for (when, &l) in order.iter().enumerate() {
            m.offer(app, ts(l + 1), when as u64, l).unwrap();
        }
        m.finish(app).unwrap();
        m
    }

    #[test]
    fn seals_in_serial_order_and_matches_merge_log() {
        let app = Trace;
        for d in [1usize, 3, 16] {
            let order = displaced(200, d);
            let m = merge_all(&app, &order, d + 1);
            assert_eq!(m.sealed(), 200);
            let mut log = MergeLog::new(&app, 4);
            for &l in &order {
                log.merge(&app, ts(l + 1), l);
            }
            assert_eq!(m.state(), log.state(), "displacement {d}");
        }
    }

    /// "One in-place state (never a log of states)": sealing folds
    /// each update into the one state and copies it nowhere.
    #[test]
    fn a_seal_never_copies_the_state() {
        let app = Trace;
        let order = displaced(2_000, 16);
        let mut m =
            StreamingMerge::with_window(&app, Box::new(shard_store::MemStore::new()), 17, 8);
        CLONES.with(|c| c.set(0));
        for (when, &l) in order.iter().enumerate() {
            m.offer(&app, ts(l + 1), when as u64, l).unwrap();
        }
        m.finish(&app).unwrap();
        assert_eq!(CLONES.with(std::cell::Cell::get), 0, "state clones");
        assert_eq!(m.sealed(), 2_000);
        assert_eq!(m.state().0, (0..2_000).collect::<Vec<_>>());
    }

    /// The rows `order` seals into, from delivery positions alone:
    /// serial row i missed serial row j < i iff j was delivered after
    /// it (`reach` bounds how far back that can be).
    fn rows_by_delivery(order: &[u64], reach: usize) -> Vec<StreamRow> {
        let mut delivery_of = vec![0usize; order.len()];
        for (when, &l) in order.iter().enumerate() {
            delivery_of[l as usize] = when;
        }
        (0..order.len())
            .map(|i| StreamRow {
                index: i,
                time: delivery_of[i] as u64,
                missed: (i.saturating_sub(reach)..i)
                    .filter(|&j| delivery_of[j] > delivery_of[i])
                    .collect(),
            })
            .collect()
    }

    fn stored_rows(sink: &mut StreamingExecution<Trace>) -> Vec<StreamRow> {
        let mut rows = Vec::new();
        sink.for_each_row(|rec| rows.push(rec.row.clone())).unwrap();
        rows
    }

    #[test]
    fn missed_sets_name_exactly_the_later_deliveries() {
        let app = Trace;
        let order = displaced(120, 5);
        let m = merge_all(&app, &order, 6);
        let (mut sink, _, _) = m.into_parts();
        assert_eq!(stored_rows(&mut sink), rows_by_delivery(&order, 120));
    }

    #[test]
    fn online_report_is_identical_to_second_pass_off_the_store() {
        let app = Trace;
        let m = merge_all(&app, &displaced(150, 4), 5);
        let online = m.report();
        let (mut sink, _, _) = m.into_parts();
        assert_eq!(online, sink.check_stream(8).unwrap());
    }

    #[test]
    fn the_checker_stays_flat_over_a_long_stream_and_every_pass_agrees() {
        let app = Trace;
        for d in [1usize, 16, 64] {
            let order = displaced(20_000, d);
            let mut m =
                StreamingMerge::with_window(&app, Box::new(shard_store::MemStore::new()), d + 1, 8);
            let mut samples = Vec::new();
            for (when, &l) in order.iter().enumerate() {
                m.offer(&app, ts(l + 1), when as u64, l).unwrap();
                if m.sealed() == 1_000 * (samples.len() + 1) {
                    samples.push(m.checker.resident_bytes());
                }
            }
            m.finish(&app).unwrap();
            // Warm by the second sample: capacities have settled.
            let (warm, last) = (samples[1], samples[samples.len() - 1]);
            assert!(
                4 * last <= 5 * warm,
                "displacement {d}: checker bytes grew {warm} -> {last}: {samples:?}"
            );
            let online = m.report();
            let (mut sink, _, _) = m.into_parts();
            assert_eq!(online, sink.check_stream(8).unwrap(), "displacement {d}");
            let rows = rows_by_delivery(&order, 2 * d + 2);
            assert_eq!(online, shard_core::stream::check_rows(8, &rows));
        }
    }

    /// A row store whose `fail_at`-th append (counting from 1) errors
    /// before anything is written.
    struct FailingStore {
        inner: shard_store::MemStore,
        appends: usize,
        fail_at: usize,
    }

    impl shard_store::Store for FailingStore {
        fn append(&mut self, key: shard_store::StoreKey, value: &[u8]) -> io::Result<()> {
            self.appends += 1;
            if self.appends == self.fail_at {
                return Err(io::Error::other("disk full"));
            }
            self.inner.append(key, value)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }
        fn len_bytes(&self) -> u64 {
            self.inner.len_bytes()
        }
        fn synced_bytes(&self) -> u64 {
            self.inner.synced_bytes()
        }
        fn entries(&self) -> usize {
            self.inner.entries()
        }
        fn scan_arrival(
            &mut self,
            f: &mut dyn FnMut(shard_store::StoreKey, &[u8]),
        ) -> io::Result<()> {
            self.inner.scan_arrival(f)
        }
        fn scan_key_range(
            &mut self,
            from: shard_store::StoreKey,
            f: &mut dyn FnMut(shard_store::StoreKey, &[u8]) -> bool,
        ) -> io::Result<()> {
            self.inner.scan_key_range(from, f)
        }
        fn crash(&mut self, keep: u64) -> io::Result<shard_store::CrashReport> {
            self.inner.crash(keep)
        }
    }

    fn log_of(sink: &mut StreamingExecution<Trace>) -> Vec<(shard_store::StoreKey, Vec<u8>)> {
        let mut log = Vec::new();
        sink.store_mut()
            .scan_arrival(&mut |k, v| log.push((k, v.to_vec())))
            .unwrap();
        log
    }

    /// Streams `order` through a merge whose row store fails its
    /// `fail_at`-th append, carrying on through the error. At the
    /// error the merge must be a merge that stopped one row earlier;
    /// at the end, one that never saw it — log included: a row is one
    /// record, so a failed append leaves nothing of it behind.
    fn survives_a_failed_append(order: &[u64], capacity: usize, fail_at: usize) {
        let app = Trace;
        let rows = rows_by_delivery(order, order.len());
        let store = FailingStore {
            inner: shard_store::MemStore::new(),
            appends: 0,
            fail_at,
        };
        let mut m = StreamingMerge::with_window(&app, Box::new(store), capacity, 8);
        let mut errors = 0;
        let mut stopped = |m: &StreamingMerge<Trace>, e: io::Error| {
            errors += 1;
            assert_eq!(e.to_string(), "disk full");
            let sealed = m.sealed();
            assert_eq!(m.state().0, (0..sealed as u64).collect::<Vec<_>>());
            let so_far = shard_core::stream::check_rows(8, &rows[..sealed]);
            assert_eq!(m.report(), so_far, "fail_at {fail_at}");
        };
        for (when, &l) in order.iter().enumerate() {
            if let Err(e) = m.offer(&app, ts(l + 1), when as u64, l) {
                stopped(&m, e);
            }
        }
        while let Err(e) = m.finish(&app) {
            stopped(&m, e);
        }
        assert_eq!(errors, 1, "fail_at {fail_at}");

        let clean = merge_all(&app, order, capacity);
        assert_eq!(m.state(), clean.state());
        assert_eq!(m.report(), clean.report(), "fail_at {fail_at}");
        let (mut sink, _, _) = m.into_parts();
        let (mut clean, _, _) = clean.into_parts();
        assert_eq!(
            sink.check_stream(8).unwrap(),
            clean.check_stream(8).unwrap()
        );
        assert_eq!(stored_rows(&mut sink), rows);
        assert_eq!(log_of(&mut sink), log_of(&mut clean), "fail_at {fail_at}");
    }

    #[test]
    fn a_failed_row_append_leaves_the_merge_one_row_earlier_and_a_retry_completes_it() {
        // One append per row: every seal of the stream fails once.
        let order = displaced(200, 5);
        for fail_at in 1..=200 {
            survives_a_failed_append(&order, 6, fail_at);
        }
        // However wide the row: these miss 250 rows and more.
        let order = displaced(600, 299);
        for fail_at in 250..=262 {
            survives_a_failed_append(&order, 300, fail_at);
        }
    }

    #[test]
    fn duplicates_and_in_order_streams_are_cheap() {
        let app = Trace;
        let mut m = StreamingMerge::with_window(&app, Box::new(shard_store::MemStore::new()), 4, 8);
        for l in 0..50u64 {
            m.offer(&app, ts(l + 1), l, l).unwrap();
            m.offer(&app, ts(l + 1), l, l).unwrap(); // redelivery
        }
        m.finish(&app).unwrap();
        assert_eq!(m.sealed(), 50);
        assert_eq!(m.state().0, (0..50).collect::<Vec<_>>());
        assert!(m.report().transitive);
    }

    #[test]
    fn deliveries_at_or_below_the_sealed_frontier_are_errors_not_panics() {
        let app = Trace;
        let mut m = StreamingMerge::with_window(&app, Box::new(shard_store::MemStore::new()), 2, 8);
        for l in [5u64, 6, 7, 8] {
            m.offer(&app, ts(l), l, l).unwrap();
        }
        // Capacity 2 sealed 5 and 6. A newcomer below the frontier
        // (over-displaced) and a redelivery of a sealed timestamp (what
        // the nemesis' duplicated messages look like) are both refused,
        // naming the delivery and the frontier.
        for late in [1u64, 5, 6] {
            let err = m.offer(&app, ts(late), 9, late).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "ts {late}");
            let text = err.to_string();
            assert!(
                text.contains(&ts(late).to_string()) && text.contains(&ts(6).to_string()),
                "{text}"
            );
        }
        // The merge is untouched and keeps going.
        assert_eq!(m.sealed(), 2);
        m.offer(&app, ts(7), 10, 7).unwrap(); // still-pending duplicate
        m.offer(&app, ts(9), 11, 9).unwrap();
        m.finish(&app).unwrap();
        assert_eq!(m.state().0, vec![5, 6, 7, 8, 9]);
        assert!(m.report().transitive);
    }
}
