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
//! Sealing folds the update into one in-place state (never a log of
//! states), records checkpoints whose cold anchors spill through a
//! store-backed [`Checkpoints`] sequence, appends the row to a store-backed
//! [`StreamingExecution`], and feeds the online §3 window checker —
//! so a 10⁷-transaction run holds one application state, a
//! `capacity`-sized window, and the checker's monitor state in RAM,
//! while the full execution lives in the store for later
//! byte-identical re-checking. Experiment E25 drives this end to end.

use crate::clock::Timestamp;
use shard_core::{
    Application, Checkpoints, StreamChecker, StreamReport, StreamRow, StreamingExecution,
};
use std::collections::{BTreeMap, VecDeque};
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
    window: BTreeMap<Timestamp, Pending<A::Update>>,
    capacity: usize,
    state: A::State,
    anchors: Checkpoints<A::State>,
    sink: StreamingExecution<A>,
    checker: StreamChecker,
    /// Rows sealed so far — the serial index of the next seal.
    sealed: usize,
    last_sealed: Option<Timestamp>,
    /// Recently sealed `(serial index, arrival)` pairs, ascending by
    /// serial index; retained exactly while some pending arrival is
    /// older, because those are the rows a pending transaction can
    /// still have missed.
    recent: VecDeque<(usize, u64)>,
    next_arrival: u64,
    seals_since_prune: usize,
}

impl<A: Application> StreamingMerge<A>
where
    A::State: shard_store::Codec,
    A::Update: shard_store::Codec,
{
    /// A merge over `app` whose rows stream into `row_store` and whose
    /// cold checkpoint anchors spill into `anchor_store`. `capacity`
    /// bounds the reorder window (= the delivery displacement the
    /// workload guarantees); `checkpoint_every`, `hot_points` and
    /// `spill_spacing` configure the anchor tier; `checker_window` is
    /// the online §3 verdict cadence.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        app: &A,
        row_store: Box<dyn shard_store::Store + Send>,
        anchor_store: Box<dyn shard_store::Store + Send>,
        capacity: usize,
        checkpoint_every: usize,
        hot_points: usize,
        spill_spacing: usize,
        checker_window: usize,
    ) -> Self {
        assert!(capacity > 0, "reorder window must hold at least one row");
        StreamingMerge {
            window: BTreeMap::new(),
            capacity,
            state: app.initial_state(),
            anchors: Checkpoints::new(checkpoint_every).with_cold_store(
                anchor_store,
                hot_points,
                spill_spacing,
            ),
            sink: StreamingExecution::new(row_store),
            checker: StreamChecker::new(checker_window),
            sealed: 0,
            last_sealed: None,
            recent: VecDeque::new(),
            next_arrival: 0,
            seals_since_prune: 0,
        }
    }

    /// Delivers the next update. A timestamp still pending in the
    /// window is ignored, like a [`MergeLog::merge`](crate::MergeLog::merge)
    /// redelivery.
    ///
    /// # Errors
    ///
    /// Store errors from sealing, and `InvalidInput` — naming `ts` and
    /// the sealed frontier — for a delivery at or below the newest
    /// sealed timestamp. That is either a late redelivery of a sealed
    /// transaction (legal under at-least-once delivery) or a newcomer
    /// displaced beyond the reorder window (the workload broke its
    /// displacement bound); without a set of sealed timestamps the two
    /// are indistinguishable, so the caller decides. The delivery is
    /// dropped and the merge stays usable.
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
        if self.window.contains_key(&ts) {
            return Ok(());
        }
        self.window.insert(
            ts,
            Pending {
                arrival,
                time,
                update,
            },
        );
        if self.window.len() > self.capacity {
            self.seal_min(app)?;
        }
        Ok(())
    }

    /// Seals every pending transaction and syncs the row store. The
    /// stream can keep going afterwards; this is the end-of-input (or
    /// barrier) drain.
    pub fn finish(&mut self, app: &A) -> io::Result<()> {
        while !self.window.is_empty() {
            self.seal_min(app)?;
        }
        self.sink.sync()
    }

    fn seal_min(&mut self, app: &A) -> io::Result<()> {
        let (ts, p) = self.window.pop_first().expect("caller checked non-empty");
        let i = self.sealed;
        // The serially-earlier rows this transaction missed: exactly
        // the ones delivered after it.
        let missed: Vec<usize> = self
            .recent
            .iter()
            .filter(|&&(_, a)| a > p.arrival)
            .map(|&(j, _)| j)
            .collect();
        app.apply_in_place(&mut self.state, &p.update);
        self.sealed = i + 1;
        self.last_sealed = Some(ts);
        self.anchors.record_for(app, self.sealed, &self.state);
        let row = StreamRow {
            index: i,
            time: p.time,
            missed,
        };
        self.sink.push(&row, &p.update)?;
        self.checker.push(&row);
        self.recent.push_back((i, p.arrival));
        // A sealed row stays interesting only while a pending arrival
        // is older than it; prune amortized once per window turnover.
        self.seals_since_prune += 1;
        if self.seals_since_prune >= self.capacity {
            self.seals_since_prune = 0;
            match self.window.values().map(|p| p.arrival).min() {
                None => self.recent.clear(),
                Some(oldest) => {
                    while self.recent.front().is_some_and(|&(_, a)| a < oldest) {
                        self.recent.pop_front();
                    }
                }
            }
        }
        Ok(())
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

    /// Cold anchors spilled to the store so far.
    pub fn spilled_anchors(&self) -> usize {
        self.anchors.spilled_anchors()
    }

    /// Tears the merge down into its store-backed execution (for
    /// second-pass re-checking off the cursor), final state, and cold
    /// anchor tier.
    ///
    /// # Panics
    ///
    /// Panics if transactions are still pending — call
    /// [`StreamingMerge::finish`] first.
    pub fn into_parts(self) -> (StreamingExecution<A>, A::State, Checkpoints<A::State>) {
        assert!(
            self.window.is_empty(),
            "finish() the stream before tearing it down"
        );
        (self.sink, self.state, self.anchors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::NodeId;
    use crate::merge::MergeLog;
    use shard_core::DecisionOutcome;

    #[derive(Clone)]
    struct Trace;

    impl Application for Trace {
        type State = Vec<u64>;
        type Update = u64;
        type Decision = u64;
        fn initial_state(&self) -> Vec<u64> {
            Vec::new()
        }
        fn is_well_formed(&self, _: &Vec<u64>) -> bool {
            true
        }
        fn apply(&self, s: &Vec<u64>, u: &u64) -> Vec<u64> {
            let mut v = s.clone();
            v.push(*u);
            v
        }
        fn decide(&self, d: &u64, _: &Vec<u64>) -> DecisionOutcome<u64> {
            DecisionOutcome::update_only(*d)
        }
        fn constraint_count(&self) -> usize {
            0
        }
        fn constraint_name(&self, _: usize) -> &str {
            unreachable!()
        }
        fn cost(&self, _: &Vec<u64>, _: usize) -> u64 {
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
        let mut m = StreamingMerge::new(
            app,
            Box::new(shard_store::MemStore::new()),
            Box::new(shard_store::MemStore::new()),
            capacity,
            4,
            2,
            1,
            8,
        );
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

    #[test]
    fn missed_sets_name_exactly_the_later_deliveries() {
        let app = Trace;
        let order = displaced(120, 5);
        // O(n²) oracle over delivery order: serial row i missed serial
        // row j < i iff j was delivered after i.
        let mut delivery_of = vec![0usize; 120];
        for (when, &l) in order.iter().enumerate() {
            delivery_of[l as usize] = when;
        }
        let m = merge_all(&app, &order, 6);
        let (mut sink, _, _) = m.into_parts();
        let mut rows = 0usize;
        sink.for_each_row(|rec| {
            let i = rec.row.index;
            let expect: Vec<usize> = (0..i)
                .filter(|&j| delivery_of[j] > delivery_of[i])
                .collect();
            assert_eq!(rec.row.missed, expect, "row {i}");
            assert_eq!(rec.row.time, delivery_of[i] as u64);
            rows += 1;
        })
        .unwrap();
        assert_eq!(rows, 120);
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
    fn duplicates_and_in_order_streams_are_cheap() {
        let app = Trace;
        let mut m = StreamingMerge::new(
            &app,
            Box::new(shard_store::MemStore::new()),
            Box::new(shard_store::MemStore::new()),
            4,
            4,
            2,
            1,
            8,
        );
        for l in 0..50u64 {
            m.offer(&app, ts(l + 1), l, l).unwrap();
            m.offer(&app, ts(l + 1), l, l).unwrap(); // redelivery
        }
        m.finish(&app).unwrap();
        assert_eq!(m.sealed(), 50);
        assert_eq!(m.state(), &(0..50).collect::<Vec<_>>());
        assert!(m.report().transitive);
    }

    #[test]
    fn deliveries_at_or_below_the_sealed_frontier_are_errors_not_panics() {
        let app = Trace;
        let mut m = StreamingMerge::new(
            &app,
            Box::new(shard_store::MemStore::new()),
            Box::new(shard_store::MemStore::new()),
            2,
            4,
            2,
            1,
            8,
        );
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
        assert_eq!(m.state(), &vec![5, 6, 7, 8, 9]);
        assert!(m.report().transitive);
    }
}
