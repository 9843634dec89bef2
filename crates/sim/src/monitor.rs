//! Live §3 monitoring inside the kernel event loop.
//!
//! The offline pipeline waits for a run to finish, sorts the executed
//! transactions by timestamp, and folds the checkers over the result.
//! The [`LiveMonitor`] does the same verification *while the run is
//! still going*: every executed transaction enters a reorder buffer,
//! and a **watermark** — the minimum Lamport counter across all node
//! clocks — decides when a buffered transaction's position in the
//! serial order is final. A timestamp with Lamport value `L` is
//! *sealed* once `L ≤ watermark`: any transaction any node executes
//! later gets Lamport value `counter + 1 > watermark ≥ L`, so nothing
//! can ever sort before a sealed one. Sealed transactions drain to a
//! [`StreamChecker`] in timestamp order — exactly the order
//! [`crate::RunReport::timed_execution`] assigns — so the online
//! verdicts are bit-identical to running the offline checkers on the
//! finished report.
//!
//! A row arrives as how far its node's arrival log reached — its
//! incarnation and count ([`Known`]) — together with the arrivals the
//! count passed since that incarnation's previous row, in merge order.
//! Because a transaction's known set precedes its own timestamp (the
//! kernel's structural Lamport guarantee), every known timestamp of a
//! draining transaction is already sealed and indexed; the miss set is
//! the complement of those indices, which the incarnation's sweep
//! ([`crate::known`]) reads off at seal time and which is the only
//! thing a sealed arrival leaves behind. Crashed nodes stall the watermark
//! (their clocks stand still; one yet to restart from its store
//! counts only as far as its last own, fsynced timestamp — its clock
//! may come back older), so rows buffer until recovery — a
//! verdict is never emitted on a guess — and [`LiveMonitor::finish`]
//! drains whatever remains once the run ends and no clock can tick
//! again.
//!
//! The monitor only *reads* the run (timestamps, clocks, the sink); it
//! never touches the RNG, the queue or the merge logs, so a monitored
//! run's transactions, messages and trace events are byte-identical to
//! the same run unmonitored — the only behavioural difference is the
//! optional early abort on a confirmed violation.

use crate::clock::{NodeId, Timestamp};
use crate::events::SimTime;
use crate::known::{Known, Sweep};
use shard_core::stream::{StreamChecker, StreamReport, StreamRow};
use std::collections::{BTreeMap, VecDeque};

/// How a kernel run should be monitored. Attached to a run via
/// `ClusterConfig::monitor`.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Rows per verdict window (see [`StreamChecker::new`]).
    pub window: usize,
    /// Emit each sealed row as a `txn` trace event (the streaming
    /// vocabulary `shard-trace watch` and `certify` consume). Window
    /// verdicts are emitted regardless whenever the run has a sink.
    pub emit_rows: bool,
    /// Stop the run at the first confirmed transitivity violation: the
    /// kernel abandons the remaining events, so doomed chaos runs cost
    /// a prefix instead of a full schedule.
    pub abort_on_violation: bool,
}

impl Default for MonitorConfig {
    /// 64-row windows, row emission on, no early abort.
    fn default() -> Self {
        MonitorConfig {
            window: 64,
            emit_rows: true,
            abort_on_violation: false,
        }
    }
}

/// The in-run monitor: reorder buffer + watermark sealing in front of
/// a [`StreamChecker`]. Created by the kernel when
/// `ClusterConfig::monitor` is set.
#[derive(Debug)]
pub struct LiveMonitor {
    cfg: MonitorConfig,
    checker: StreamChecker,
    /// Executed but not yet sealed transactions, in timestamp order:
    /// origin and how far its arrival log reached, 8 bytes.
    pending: BTreeMap<Timestamp, (SimTime, NodeId, Known)>,
    /// Every sealed timestamp, in seal order — which *is* ascending
    /// timestamp order, so a row's serial index is its position here
    /// and a known timestamp resolves to its index by binary search.
    sealed_ts: Vec<Timestamp>,
    /// Per node, per incarnation: the arrivals fed but not yet passed by
    /// a sealed row, in merge order, and the sweep over its sealed rows.
    incarnations: Vec<Vec<(VecDeque<Timestamp>, Sweep)>>,
}

impl LiveMonitor {
    /// A fresh monitor.
    ///
    /// # Panics
    ///
    /// Panics if the configured window is 0.
    pub fn new(cfg: MonitorConfig) -> Self {
        LiveMonitor {
            checker: StreamChecker::new(cfg.window),
            cfg,
            pending: BTreeMap::new(),
            sealed_ts: Vec::new(),
            incarnations: Vec::new(),
        }
    }

    /// Buffers one executed transaction (timestamp, initiation time,
    /// origin, how far the origin's arrival log reached) until the
    /// watermark seals it. `passed` is what the origin merged since its
    /// previous row of the same incarnation — the arrivals from that
    /// row's count up to this one's, in merge order.
    pub fn ingest(
        &mut self,
        ts: Timestamp,
        time: SimTime,
        node: NodeId,
        known: Known,
        passed: impl IntoIterator<Item = Timestamp>,
    ) {
        let (at, incarnation) = (usize::from(node.0), known.incarnation as usize);
        if self.incarnations.len() <= at {
            self.incarnations.resize_with(at + 1, Vec::new);
        }
        let lives = &mut self.incarnations[at];
        if lives.len() <= incarnation {
            lives.resize_with(incarnation + 1, Default::default);
        }
        lives[incarnation].0.extend(passed);
        let shadowed = self.pending.insert(ts, (time, node, known));
        debug_assert!(shadowed.is_none(), "timestamps are globally unique");
    }

    /// Drains every buffered transaction sealed by `watermark` (the
    /// minimum Lamport counter over all node clocks) into the checker,
    /// in timestamp order, emitting `txn` rows and `monitor.window`
    /// verdicts to `sink`.
    pub fn advance(&mut self, watermark: u64, sink: Option<&shard_obs::EventSink>) {
        while let Some(entry) = self.pending.first_entry() {
            if entry.key().lamport > watermark {
                break;
            }
            let (ts, (time, node, known)) = entry.remove_entry();
            self.seal(ts, time, node, known, sink);
        }
    }

    /// # Panics
    ///
    /// Panics, naming it, if the row's count passes an arrival that no
    /// sealed row carries.
    fn seal(
        &mut self,
        ts: Timestamp,
        time: SimTime,
        node: NodeId,
        known: Known,
        sink: Option<&shard_obs::EventSink>,
    ) {
        let index = self.sealed_ts.len();
        // Every known timestamp precedes `ts` (Lamport guarantee) and
        // is therefore already sealed, so the miss set is the sealed
        // ranks the incarnation has not merged.
        let (arrived, sweep) =
            &mut self.incarnations[usize::from(node.0)][known.incarnation as usize];
        let passed = arrived.drain(..known.len() - sweep.reached());
        let missed = sweep.row(index, passed, &self.sealed_ts);
        self.sealed_ts.push(ts);
        let row = StreamRow {
            index,
            time,
            missed,
        };
        if self.cfg.emit_rows {
            if let Some(s) = sink {
                s.write_line(&row.to_json_line());
            }
        }
        if let Some(verdict) = self.checker.push(&row) {
            if let Some(s) = sink {
                s.write_line(&verdict.to_json_line());
            }
        }
    }

    /// Ends the run's monitoring — the one epilogue of every monitored
    /// run, kernel or live: drains everything left in the buffer, emits
    /// the `monitor.final` summary line to `sink`, and reports. Sound
    /// only once no clock can tick again, i.e. when the event loop has
    /// ended (or was aborted, where the remaining rows still deserve
    /// verdicts).
    pub fn finish(&mut self, sink: Option<&shard_obs::EventSink>) -> StreamReport {
        while let Some((ts, (time, node, known))) = self.pending.pop_first() {
            self.seal(ts, time, node, known, sink);
        }
        let r = self.report();
        if let Some(s) = sink {
            s.event("monitor.final")
                .u64("rows", r.rows as u64)
                .bool("transitive", r.transitive)
                .u64("max_missed", r.max_missed as u64)
                .u64("delay_bound", r.min_delay_bound)
                .emit();
        }
        r
    }

    /// Whether a confirmed violation should stop the run.
    pub fn should_abort(&self) -> bool {
        self.cfg.abort_on_violation && !self.checker.transitive_so_far()
    }

    /// The verdicts and certificates over everything sealed so far.
    pub fn report(&self) -> StreamReport {
        self.checker.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(lamport: u64, node: u16) -> Timestamp {
        Timestamp {
            lamport,
            node: NodeId(node),
        }
    }

    /// A first-incarnation row that had merged `count` arrivals.
    fn known(count: u32) -> Known {
        Known {
            incarnation: 0,
            count,
        }
    }

    #[test]
    fn watermark_seals_in_timestamp_order() {
        let mut m = LiveMonitor::new(MonitorConfig {
            window: 1,
            emit_rows: false,
            abort_on_violation: false,
        });
        // Node 1 executes at lamport 2 before node 0's lamport-1 row
        // reaches the monitor — the buffer must reorder them.
        m.ingest(ts(2, 1), 10, NodeId(1), known(1), [ts(1, 0)]);
        m.ingest(ts(1, 0), 0, NodeId(0), known(0), []);
        // Watermark 0: nothing sealed yet.
        m.advance(0, None);
        assert_eq!(m.sealed_ts.len(), 0);
        // Watermark 1 seals only the lamport-1 row.
        m.advance(1, None);
        assert_eq!(m.sealed_ts.len(), 1);
        m.advance(2, None);
        assert_eq!(m.sealed_ts.len(), 2);
        let report = m.report();
        assert!(report.transitive);
        assert_eq!(report.max_missed, 0, "row 1 knew row 0");
    }

    #[test]
    fn finish_drains_the_stalled_tail_and_misses_are_complements() {
        let mut m = LiveMonitor::new(MonitorConfig {
            window: 2,
            emit_rows: false,
            abort_on_violation: true,
        });
        m.ingest(ts(1, 0), 0, NodeId(0), known(0), []);
        // (2,0) saw (1,0); (3,1) saw (2,0) but not (1,0) — the §3
        // transitivity violation (low=0, mid=1, top=2).
        m.ingest(ts(2, 0), 3, NodeId(0), known(1), [ts(1, 0)]);
        m.ingest(ts(3, 1), 5, NodeId(1), known(1), [ts(2, 0)]);
        m.advance(2, None);
        assert_eq!(m.sealed_ts.len(), 2);
        assert!(!m.should_abort());
        // Node 1's clock never reaches 3, so the last row waits for the
        // end-of-run flush.
        let report = m.finish(None);
        assert_eq!(m.sealed_ts.len(), 3);
        assert_eq!(report.max_missed, 1);
        assert!(!report.transitive);
        assert!(m.should_abort());
    }

    /// A known timestamp no transaction of this run carries (what a
    /// restarted, recovered log would hold) is reported by name, not as
    /// an allocator failure.
    #[test]
    #[should_panic(expected = "which no transaction of this run executed")]
    fn unknown_known_timestamp_is_named() {
        let mut m = LiveMonitor::new(MonitorConfig::default());
        m.ingest(ts(5, 0), 0, NodeId(0), known(1), [ts(1, 1)]);
        m.finish(None);
    }
}
