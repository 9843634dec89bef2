//! The unified discrete-event replica kernel.
//!
//! Every simulated SHARD variant — eager flooding ([`crate::cluster`]),
//! anti-entropy gossip ([`crate::gossip`]), partial replication
//! ([`crate::partial`]) and their compositions — is the *same* replica
//! loop. §3's system-level conditions (prefix subsequence, transitivity,
//! k-completeness, t-bounded delay) are properties of one
//! communication-and-merge loop; only **how updates travel** differs.
//! This module implements that loop exactly once:
//!
//! * [`Node`] — a replica: Lamport clock, undo/redo [`MergeLog`], and a
//!   count of locally initiated transactions (for §3.3 promises);
//! * `Event`s `Invoke` / `Deliver` / `Tick` (plus the §3.3 barrier's
//!   `Probe` / `Promise`), handled by [`Runner`] with partition, crash
//!   and delay gating applied uniformly: a crashed node rejects client
//!   transactions (with a `reject` trace event), the transport holds
//!   messages to a crashed node until it recovers, and every message
//!   waits out partitions plus one sampled delay
//!   ([`crate::broadcast::delivery_time`]);
//! * a [`Propagation`] strategy deciding what to send on execution
//!   ([`Propagation::on_execute`]) and on periodic anti-entropy ticks
//!   ([`Propagation::on_tick`]), via the [`Transport`] seam, and whether
//!   its messages are datagrams or travel ordered links
//!   ([`Propagation::ordered_links`]);
//! * one [`RunReport`] defining `mutually_consistent`,
//!   `timed_execution`, `judge` (the §3 verdicts of a finished run) and
//!   `total_replayed` for every strategy.
//!
//! Delivery is a trait ([`crate::transport`]): the loop ships messages
//! through [`QueueTransport`], the in-memory implementation of
//! [`Transport`] (partition waits, sampled delays, nemesis fate
//! rewriting), and reads time straight off each popped event. The
//! `shard-runtime` crate runs the same [`Propagation`] strategies over
//! real channels, and replays its recorded schedules back through this
//! loop.
//!
//! What a replica does with a transaction or a delivered batch — trace
//! it, run it, make it durable — is written once, as the **replica
//! step** on [`Node`] ([`Node::execute_step`], [`Node::deliver_step`],
//! [`Node::recover_step`], [`recover_at_start`]). This loop and
//! `shard-runtime`'s node threads both call it, so the `execute`,
//! `deliver` (with `from` and `entries` fields), `merge.*` and
//! `store.recover` events and the write-ahead appends are identical
//! whatever the transport — by construction, not by comparison. Only
//! the barrier that ends a burst of executions is the caller's: this
//! loop takes it after each execution, a live node once per burst.

use crate::broadcast::delivery_time;
use crate::clock::{LamportClock, NodeId, Timestamp};
use crate::crash::{CrashSchedule, CrashWindow};
use crate::delay::DelayModel;
use crate::durable::{DurableFleet, NodeMirror};
use crate::events::{EventQueue, SimTime};
use crate::frontier::{Frontier, Sender, Stamp};
use crate::known::{Known, Sweep};
use crate::merge::{MergeLog, MergeMetrics, MergeOutcome};
use crate::nemesis::{fate_faults, Fate, FaultEvent, MsgCtx, Nemesis};
use crate::partition::PartitionSchedule;
use crate::transport::Transport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shard_core::stream::{StreamChecker, StreamReport, StreamRow};
use shard_core::{Application, Execution, ExternalAction, Prefix, TimedExecution, TxnRecord};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Configuration of a simulated cluster (shared by every strategy).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replica nodes.
    pub nodes: u16,
    /// RNG seed for delay sampling (runs are deterministic per seed).
    pub seed: u64,
    /// Message delay model.
    pub delay: DelayModel,
    /// Partition schedule.
    pub partitions: PartitionSchedule,
    /// Merge-log checkpoint interval (see [`MergeLog::new`]).
    pub checkpoint_every: usize,
    /// Must stay `false`: [`Runner::eager`] hands it to
    /// [`crate::EagerBroadcast`], which refuses `true` at run start.
    /// Kept only because the frozen benchmark writes `piggyback: false`.
    #[doc(hidden)]
    pub piggyback: bool,
    /// Node outage schedule: a crashed node rejects client transactions
    /// and receives no messages until it recovers.
    pub crashes: CrashSchedule,
    /// Optional structured-trace sink: the run logs update deliveries,
    /// merge appends / out-of-order undo-redo repairs, partition
    /// cuts/heals, crash/recovery windows and rejections as JSONL
    /// events. `None` (the default) costs nothing.
    pub sink: Option<Arc<shard_obs::EventSink>>,
    /// Optional §3 judging: once the run ends, [`RunReport::judge`]
    /// streams its record through the online checkers, rows and
    /// verdicts go to `sink`, and [`RunReport::monitor`] holds the
    /// report. The run itself is the same either way; `None` (the
    /// default) judges nothing.
    pub monitor: Option<MonitorConfig>,
}

impl Default for ClusterConfig {
    /// Five nodes, 20-tick mean exponential delays, no partitions.
    fn default() -> Self {
        ClusterConfig {
            nodes: 5,
            seed: 0,
            delay: DelayModel::Exponential { mean: 20 },
            partitions: PartitionSchedule::none(),
            checkpoint_every: 32,
            piggyback: false,
            crashes: CrashSchedule::none(),
            sink: None,
            monitor: None,
        }
    }
}

/// How a run is judged ([`RunReport::judge`]). Attached to a run via
/// [`ClusterConfig::monitor`] (a live run's via `shard-runtime`'s
/// `RuntimeConfig::monitor`).
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Rows per verdict window (see [`StreamChecker::new`]).
    pub window: usize,
    /// Emit each row as a `txn` trace event (the streaming vocabulary
    /// `shard-trace watch` and `certify` consume). Window verdicts are
    /// emitted regardless whenever the run has a sink.
    pub emit_rows: bool,
    /// Inert: a run is judged after it ends, so every run executes its
    /// whole schedule whatever this reads (it used to stop a kernel run
    /// at the first confirmed transitivity violation). Kept only
    /// because the frozen benchmark writes it.
    pub abort_on_violation: bool,
}

impl Default for MonitorConfig {
    /// 64-row windows, row emission on.
    fn default() -> Self {
        MonitorConfig {
            window: 64,
            emit_rows: true,
            abort_on_violation: false,
        }
    }
}

/// Emits the failure schedule (partition cut/heal windows, crash and
/// recovery times) to `sink` — the discrete-event kernel knows the whole
/// schedule up front, so announcing it at run start keeps the trace
/// self-describing without hooking every `is_down` check.
pub(crate) fn emit_schedule(
    sink: &shard_obs::EventSink,
    partitions: &PartitionSchedule,
    crashes: &CrashSchedule,
) {
    for w in partitions.windows() {
        sink.event("partition.cut")
            .u64("t", w.start)
            .u64("groups", w.groups.len() as u64)
            .emit();
        sink.event("partition.heal").u64("t", w.end).emit();
    }
    for w in crashes.windows() {
        sink.event("crash")
            .u64("t", w.start)
            .u64("node", u64::from(w.node.0))
            .emit();
        sink.event("recover")
            .u64("t", w.end)
            .u64("node", u64::from(w.node.0))
            .emit();
    }
}

/// Emits the trace event for one merge outcome — append, out-of-order
/// (with its undo/redo depth), or duplicate. Every delivery passes
/// through here ([`Node::deliver_step`]), making gossip, partial and
/// live runs exactly as observable as flooding runs.
fn emit_merge_outcome(
    sink: &shard_obs::EventSink,
    outcome: MergeOutcome,
    now: SimTime,
    node: NodeId,
) {
    let (name, replayed) = match outcome {
        MergeOutcome::Duplicate => ("merge.duplicate", None),
        MergeOutcome::OutOfOrder { replayed } => ("merge.out_of_order", Some(replayed)),
        MergeOutcome::Appended => ("merge.append", None),
    };
    let event = sink
        .event(name)
        .u64("t", now)
        .u64("node", u64::from(node.0));
    match replayed {
        Some(replayed) => event.u64("replayed", replayed).emit(),
        None => event.emit(),
    }
}

/// Emits the `nemesis.*` trace lines for one message's faults: a
/// `nemesis.drop`, or a `nemesis.delay` and/or one `nemesis.duplicate`
/// counting the extra copies.
fn emit_faults(sink: &shard_obs::EventSink, ctx: &MsgCtx, events: &[FaultEvent]) {
    let line = |name| sink.event(name).u64("t", ctx.now).u64("msg", ctx.seq);
    let (from, to) = (u64::from(ctx.from.0), u64::from(ctx.to.0));
    let mut extra = 0;
    for e in events {
        match e {
            FaultEvent::Drop { .. } => line("nemesis.drop")
                .u64("from", from)
                .u64("node", to)
                .emit(),
            FaultEvent::Delay { by, .. } => {
                line("nemesis.delay").u64("node", to).u64("by", *by).emit();
            }
            FaultEvent::Duplicate { .. } => extra += 1,
            FaultEvent::Partition { .. } | FaultEvent::Crash { .. } => {}
        }
    }
    if extra > 0 {
        line("nemesis.duplicate")
            .u64("node", to)
            .u64("extra", extra)
            .emit();
    }
}

/// Records the most entries and checkpoints `node`'s log held at once
/// in its current incarnation ([`MergeLog::retained_peak`]), one sample
/// a run in each of the histograms `merge.peak_retained_entries.n<id>`
/// and `merge.peak_retained_checkpoints.n<id>`: how much history a
/// replica keeps, which its stability frontier bounds
/// ([`crate::frontier`]) and which otherwise grows with the run.
fn record_retained_peak<A: Application>(node: &Node<A>) {
    let (entries, checkpoints) = node.log.retained_peak();
    let r = shard_obs::Registry::global();
    let id = node.id.0;
    r.histogram(&format!("merge.peak_retained_entries.n{id}"))
        .record(entries as u64);
    r.histogram(&format!("merge.peak_retained_checkpoints.n{id}"))
        .record(checkpoints as u64);
}

/// One client transaction submission: at `time`, at `node`.
#[derive(Clone, Debug)]
pub struct Invocation<D> {
    /// Simulated submission time.
    pub time: SimTime,
    /// The node the client is attached to (the transaction's origin).
    pub node: NodeId,
    /// The transaction.
    pub decision: D,
}

impl<D> Invocation<D> {
    /// Convenience constructor.
    pub fn new(time: SimTime, node: NodeId, decision: D) -> Self {
        Invocation {
            time,
            node,
            decision,
        }
    }
}

/// A transaction as the simulator executed it.
#[derive(Clone, Debug)]
pub struct ExecutedTxn<A: Application> {
    /// Its globally unique timestamp (position in the serial order).
    pub ts: Timestamp,
    /// Real (simulated) initiation time.
    pub time: SimTime,
    /// Origin node.
    pub node: NodeId,
    /// The submitted transaction.
    pub decision: A::Decision,
    /// The update its decision part chose.
    pub update: A::Update,
    /// External actions performed at the origin.
    pub external_actions: Vec<ExternalAction>,
    /// What the origin knew at decision time, as how far its arrival
    /// log reached: its incarnation and how many arrivals it had merged
    /// ([`crate::known`]). The timestamps are [`RunReport::known`].
    pub known: Known,
}

/// The five counts of a fault ledger ([`RunReport::faults`]) — what a
/// run's [`Nemesis`] did, as the kernel itself observed it (every fate
/// differenced against its fault-free delivery), so the tally is
/// trustworthy whatever the injector claims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped (every copy lost).
    pub dropped: u64,
    /// Extra message copies delivered beyond the original.
    pub duplicated: u64,
    /// Messages whose earliest surviving copy was delayed past its
    /// fault-free arrival.
    pub delayed: u64,
    /// Partition windows the nemesis injected at run start.
    pub partitions_injected: u64,
    /// Outages (merged crash windows) the nemesis injected at run start.
    pub crashes_injected: u64,
}

impl FaultStats {
    /// Counts `events` by kind.
    pub fn of(events: &[FaultEvent]) -> Self {
        let mut s = FaultStats::default();
        for e in events {
            *match e {
                FaultEvent::Drop { .. } => &mut s.dropped,
                FaultEvent::Duplicate { .. } => &mut s.duplicated,
                FaultEvent::Delay { .. } => &mut s.delayed,
                FaultEvent::Partition { .. } => &mut s.partitions_injected,
                FaultEvent::Crash { .. } => &mut s.crashes_injected,
            } += 1;
        }
        s
    }
}

/// Everything a kernel run produces, whatever the propagation strategy.
#[derive(Clone, Debug)]
pub struct RunReport<A: Application> {
    /// Executed transactions sorted by timestamp (the serial order).
    pub transactions: Vec<ExecutedTxn<A>>,
    /// Per-node undo/redo metrics.
    pub node_metrics: Vec<MergeMetrics>,
    /// Each node's final merged state after every message drained (under
    /// partial replication, meaningful only on the objects a node holds).
    pub final_states: Vec<A::State>,
    /// For every *critical* transaction run through the §3.3 barrier
    /// protocol (see [`Runner::run_with_critical`]): the delay between
    /// submission and execution — the availability price of (near-)
    /// complete prefixes. Empty for ordinary runs.
    pub barrier_latencies: Vec<SimTime>,
    /// Client transactions rejected because their node was crashed at
    /// submission time: `(time, node)`. These never entered the system.
    pub rejected: Vec<(SimTime, NodeId)>,
    /// Point-to-point update messages sent (flooding sends `nodes − 1`
    /// per transaction; gossip one per round and partner; partial
    /// replication one per interested holder).
    pub messages_sent: u64,
    /// Total `(timestamp, update)` entries shipped across all messages —
    /// the bandwidth cost (flooding ships one per message; gossip each
    /// entry to each peer once per link epoch).
    pub entries_shipped: u64,
    /// Anti-entropy rounds performed: ticks on which the strategy sent
    /// at least one message. Zero for strategies without ticks.
    pub rounds: u64,
    /// The fault ledger: every fault the run's [`Nemesis`] actually
    /// applied, in canonical form ([`crate::nemesis::fate_faults`]) —
    /// injected partition windows, then crash windows, then message
    /// faults in send order. [`crate::ScheduledNemesis`] replays it,
    /// [`crate::nemesis::shrink`] minimises it, [`FaultStats::of`]
    /// counts it. Empty under a nemesis that changes nothing.
    pub faults: Vec<FaultEvent>,
    /// The §3 verdicts and certificates over every executed transaction
    /// ([`RunReport::judge`]), when `ClusterConfig::monitor` was set
    /// (`None` otherwise).
    pub monitor: Option<StreamReport>,
    /// See [`RunReport::missing`].
    missing: Vec<(NodeId, Timestamp)>,
    /// Each node's arrival timestamps in merge order, one list per
    /// incarnation ([`crate::known`]): what every [`ExecutedTxn::known`]
    /// counts into.
    pub arrivals: Vec<Vec<Box<[Timestamp]>>>,
}

impl<A: Application> RunReport<A> {
    /// The replica half of a report (serial order, node metrics, final
    /// states, [missing](RunReport::missing)) from the replicas a kernel
    /// or live run ended with; the tallies start empty. `transactions`
    /// becomes the report's record as it is, sorted in place: no copy of
    /// it, nor of an action it holds, is made.
    pub fn collect<P: Propagation<A>>(
        app: &A,
        strategy: &P,
        nodes: Vec<Node<A>>,
        mut transactions: Vec<ExecutedTxn<A>>,
    ) -> Self {
        // Timestamps are unique, so the unstable sort gives the serial
        // order too, in place: a stable sort allocates a buffer as large
        // as the records, 1 MB and the peak of `sim-partition`'s RSS.
        transactions.sort_unstable_by_key(|t| t.ts);
        // One pass over every update some replica holds — the logs and
        // the record are sorted runs, walked in step, nothing gathered.
        // What this run executed its origin holds (own updates are
        // fsynced), though every log may have retired it; what a log
        // recovered from an earlier run is in that log, which retires
        // nothing.
        let mut executed = transactions.iter().map(|t| (t.ts, &t.update)).peekable();
        let mut heads: Vec<_> = nodes
            .iter()
            .map(|n| n.log.entries().iter().map(|(ts, u)| (*ts, &**u)).peekable())
            .collect();
        let mut missing = Vec::new();
        while let Some((ts, update)) = heads
            .iter_mut()
            .filter_map(|held| held.peek().copied())
            .chain(executed.peek().copied())
            .min_by_key(|(ts, _)| *ts)
        {
            executed.next_if(|(at, _)| *at == ts);
            for (node, held) in nodes.iter().zip(&mut heads) {
                // A timestamp a log has retired past counts as held: the
                // node has merged every update it wants below its frontier.
                if held.next_if(|(at, _)| *at == ts).is_none()
                    && !node.log.contains(ts)
                    && strategy.wants(app, node.id, update)
                {
                    missing.push((node.id, ts));
                }
            }
        }
        drop((heads, executed));
        missing.sort_unstable();
        // Then the nodes go one at a time, each log freed as soon as its
        // arrival timestamps are copied out: at most one copy exists
        // beside the logs that remain.
        let count = nodes.len();
        let mut arrivals = Vec::with_capacity(count);
        let mut node_metrics = Vec::with_capacity(count);
        let mut final_states = Vec::with_capacity(count);
        for mut n in nodes {
            if shard_obs::enabled() {
                record_retained_peak(&n);
            }
            let mut incarnations = std::mem::take(&mut n.retired);
            incarnations.push(n.log.arrivals().iter().map(|(ts, _)| *ts).collect());
            arrivals.push(incarnations);
            node_metrics.push(n.log.metrics());
            final_states.push(n.log.into_state());
        }
        RunReport {
            node_metrics,
            final_states,
            transactions,
            barrier_latencies: Vec::new(),
            rejected: Vec::new(),
            messages_sent: 0,
            entries_shipped: 0,
            rounds: 0,
            faults: Vec::new(),
            monitor: None,
            missing,
            arrivals,
        }
    }

    /// What the run ended without: every `(node, timestamp)` such that
    /// some replica holds the update but `node`, which should
    /// ([`Propagation::wants`]), does not — sorted; **empty on a
    /// converged run**, whatever the strategy. Otherwise delivery failed
    /// for good (a nemesis drop; a crash-lost tail that eager broadcast
    /// never re-sends, or that per-execution gossip had no later
    /// execution to re-send).
    pub fn missing(&self) -> &[(NodeId, Timestamp)] {
        &self.missing
    }

    /// Every external action the run performed, as `(time, node,
    /// action)` in real-time order, ties in serial order: read off the
    /// transactions that performed them, at their origins.
    pub fn external_actions(&self) -> Vec<(SimTime, NodeId, &ExternalAction)> {
        let mut actions: Vec<_> = self
            .transactions
            .iter()
            .flat_map(|t| t.external_actions.iter().map(|a| (t.time, t.node, a)))
            .collect();
        actions.sort_by_key(|(time, _, _)| *time);
        actions
    }

    /// Whether all node copies agree (mutual consistency, §1.2). Holds
    /// whenever nothing is [missing](RunReport::missing) at the end of
    /// a fully replicated run. Under partial replication, per-object
    /// agreement is the right question — see `objects_consistent`.
    pub fn mutually_consistent(&self) -> bool {
        self.final_states.windows(2).all(|w| w[0] == w[1])
    }

    /// The timestamps `t`'s origin knew when it executed `t`, in the
    /// order it merged them: the first `t.known.len()` arrivals of its
    /// incarnation.
    pub fn known(&self, t: &ExecutedTxn<A>) -> &[Timestamp] {
        &self.arrivals[usize::from(t.node.0)][t.known.incarnation as usize][..t.known.len()]
    }

    /// Walks the transactions in serial order, one [`Sweep`] per node
    /// incarnation, handing `row` each one with its rank and the earlier
    /// ranks its origin had not merged, ascending — the one pass behind
    /// [`RunReport::timed_execution`] and [`RunReport::judge`].
    fn sweep(&self, mut row: impl FnMut(usize, &ExecutedTxn<A>, Vec<usize>)) {
        let order: Vec<Timestamp> = self.transactions.iter().map(|t| t.ts).collect();
        let mut sweeps: Vec<Vec<Sweep>> = self
            .arrivals
            .iter()
            .map(|node| node.iter().map(|_| Sweep::default()).collect())
            .collect();
        for (i, t) in self.transactions.iter().enumerate() {
            // Every timestamp a node knew at decision time belongs to
            // an earlier transaction of the serial order.
            let sweep = &mut sweeps[usize::from(t.node.0)][t.known.incarnation as usize];
            let passed = &self.known(t)[sweep.reached()..];
            row(i, t, sweep.row(i, passed.iter().copied(), &order));
        }
    }

    /// The formal timed execution: transactions in timestamp order, each
    /// seeing the prefix subsequence its origin knew.
    ///
    /// # Panics
    ///
    /// Panics, naming it, if a transaction knew a timestamp that no
    /// earlier transaction of this report carries — a log recovered from
    /// an earlier run's store.
    pub fn timed_execution(&self) -> TimedExecution<A> {
        let mut exec = Execution::new();
        let mut times = Vec::with_capacity(self.transactions.len());
        self.sweep(|i, t, missed| {
            // The prefix is `0..i` but the ranks its incarnation had
            // not merged.
            exec.push_record(TxnRecord {
                decision: t.decision.clone(),
                prefix: Prefix::from_missed(i, &missed),
                update: t.update.clone(),
                external_actions: t.external_actions.clone(),
            });
            times.push(t.time);
        });
        TimedExecution::new(exec, times)
    }

    /// The §3 verdicts over the finished run — the one judge of every
    /// monitored run, kernel or live. Each transaction, in serial order,
    /// goes as a [`StreamRow`] into a [`StreamChecker`] of `cfg.window`
    /// rows. With a `sink`, emits each row as a `txn` line (when
    /// `cfg.emit_rows` is set), each window's verdict as a
    /// `monitor.window` line, and one `monitor.final` summary.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window` is 0, and where
    /// [`RunReport::timed_execution`] does: on a log recovered from an
    /// earlier run's store, which [`recover_at_start`] refuses on a
    /// monitored run.
    pub fn judge(&self, cfg: &MonitorConfig, sink: Option<&shard_obs::EventSink>) -> StreamReport {
        let mut checker = StreamChecker::new(cfg.window);
        self.sweep(|index, t, missed| {
            let row = StreamRow {
                index,
                time: t.time,
                missed,
            };
            if let Some(s) = sink.filter(|_| cfg.emit_rows) {
                s.write_line(&row.to_json_line());
            }
            if let (Some(verdict), Some(s)) = (checker.push(&row), sink) {
                s.write_line(&verdict.to_json_line());
            }
        });
        let r = checker.report();
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

    /// Total undo/redo replay work across all nodes.
    pub fn total_replayed(&self) -> u64 {
        self.node_metrics.iter().map(|m| m.replayed).sum()
    }
}

/// The `(timestamp, update)` batch one message carries. `Arc`-shared:
/// fanning a batch out to many peers clones reference counts, not
/// application data.
pub type Entries<A> = Arc<[(Timestamp, Arc<<A as Application>::Update>)]>;

/// One replica of the application.
pub struct Node<A: Application> {
    /// This node's identity.
    pub id: NodeId,
    /// Lamport clock with node-id tiebreak — advanced past every
    /// observed timestamp, which is what makes the prefix-subsequence
    /// condition hold by construction.
    pub clock: LamportClock,
    /// The undo/redo merge log holding this node's copy of the database.
    pub log: MergeLog<A>,
    /// Number of transactions this node has initiated (§3.3 promises).
    pub own_sent: u64,
    /// The arrival timestamps of each earlier incarnation, in merge
    /// order: every restart from the store ([`Node::recover_step`])
    /// retires one. Their count is the current incarnation.
    pub(crate) retired: Vec<Box<[Timestamp]>>,
    /// How many updates of each origin, by node id, the log has merged
    /// — what the §3.3 barrier compares with a peer's promise.
    pub(crate) held: Vec<u64>,
    /// Below what the log may forget ([`crate::frontier`]).
    pub(crate) frontier: Frontier,
}

/// Counts one more merged update of `origin` in `held`.
pub(crate) fn count_held(held: &mut Vec<u64>, origin: NodeId) {
    let i = usize::from(origin.0);
    if held.len() <= i {
        held.resize(i + 1, 0);
    }
    held[i] += 1;
}

impl<A: Application> Node<A> {
    /// A fresh replica of `app` with identity `id` in a cluster of
    /// `nodes`.
    pub fn new(app: &A, id: NodeId, nodes: u16, checkpoint_every: usize) -> Self {
        Node {
            id,
            clock: LamportClock::new(id),
            log: MergeLog::new(app, checkpoint_every),
            own_sent: 0,
            retired: Vec::new(),
            held: vec![0; usize::from(nodes)],
            frontier: Frontier::new(id, nodes),
        }
    }

    /// The node's incarnation ([`Known::incarnation`]): 0 from the run's
    /// start, one more at each restart from its store.
    pub fn incarnation(&self) -> u32 {
        self.retired.len().min(u32::MAX as usize) as u32
    }

    /// The **execute** step — the *one* transaction-execution path, which
    /// the simulator kernel and the threaded `shard-runtime` both call
    /// (that is what makes live runs replayable against the sim): emits
    /// `execute`, ticks the Lamport clock, records how far the arrival
    /// log reached ([`Known`]), runs the decision part on the local
    /// merged state, merges the own update, then appends it to `mirror`
    /// **without** the barrier.
    ///
    /// The write-ahead rule is the caller's, per burst: after the last
    /// execute step of a burst it fsyncs the mirror once
    /// ([`NodeMirror::persist`] with a barrier), and only then releases
    /// what each of the burst's transactions makes visible, in execution
    /// order — its propagation ([`Propagation::on_execute`]), its
    /// external actions and its count as executed. A crash
    /// can then lose an own update only while no peer has seen it and no
    /// external action of it was recorded. The kernel runs bursts of one
    /// (it syncs right after each execute step); a live node runs up to
    /// its batch of due submissions.
    pub fn execute_step(
        &mut self,
        app: &A,
        decision: A::Decision,
        now: SimTime,
        mirror: Option<&mut NodeMirror<A>>,
        sink: Option<&shard_obs::EventSink>,
    ) -> (ExecutedTxn<A>, Arc<A::Update>) {
        if let Some(s) = sink {
            s.event("execute")
                .u64("t", now)
                .u64("node", u64::from(self.id.0))
                .emit();
        }
        let ts = self.clock.tick();
        self.own_sent += 1;
        let known = Known::at(self.retired.len(), self.log.arrivals().len());
        let outcome = app.decide(&decision, self.log.state());
        // One allocation shared by the local log and every peer message;
        // fanning out costs reference counts, not update clones.
        let update = Arc::new(outcome.update);
        let fresh = self.log.merge(app, ts, Arc::clone(&update));
        debug_assert!(fresh, "own timestamp must be new");
        count_held(&mut self.held, self.id);
        if let Some(m) = mirror {
            m.persist(&self.log, false);
        }
        (
            ExecutedTxn {
                ts,
                time: now,
                node: self.id,
                decision,
                update: (*update).clone(),
                external_actions: outcome.external_actions,
                known,
            },
            update,
        )
    }

    /// The **deliver** step, shared by the kernel and `shard-runtime`:
    /// emits `deliver`, advances the Lamport clock past every entry's
    /// timestamp, merges the batch emitting one `merge.*` outcome per
    /// entry, then appends the arrivals to `mirror` *without* an fsync
    /// barrier — received updates survive on their origins and, under
    /// gossip, re-arrive if this node's unsynced tail is lost.
    ///
    /// A batch that came over a numbered link (its [`Sender::stamp`],
    /// see [`Propagation::numbered_links`]) then moves the node's
    /// stability frontier ([`crate::frontier`]), and the log retires what
    /// lies below it — after the merge, so the batch itself is never
    /// taken for history.
    pub fn deliver_step(
        &mut self,
        app: &A,
        sender: Sender,
        entries: &Entries<A>,
        now: SimTime,
        mirror: Option<&mut NodeMirror<A>>,
        sink: Option<&shard_obs::EventSink>,
    ) {
        let (id, from) = (self.id, sender.node);
        if let Some(s) = sink {
            s.event("deliver")
                .u64("t", now)
                .u64("node", u64::from(id.0))
                .u64("from", u64::from(from.0))
                .u64("entries", entries.len() as u64)
                .emit();
        }
        for (ts, _) in entries.iter() {
            self.clock.observe(*ts);
        }
        // One batch per delivery burst: in-order runs extend the log and
        // its checkpoint chain without per-entry binary searches, while
        // per-entry outcomes keep the trace bit-identical to
        // entry-at-a-time merging.
        let held = &mut self.held;
        self.log.merge_batch(
            app,
            entries.iter().map(|(ts, u)| (*ts, Arc::clone(u))),
            |ts, outcome| {
                if outcome.is_new() {
                    count_held(held, ts.node);
                }
                if let Some(s) = sink {
                    emit_merge_outcome(s, outcome, now, id);
                }
            },
        );
        if let Some(m) = mirror {
            m.persist(&self.log, false);
        }
        let top = entries.iter().map(|(ts, _)| *ts).max();
        if let (Some(stamp), Some(top)) = (sender.stamp, top) {
            if let Some(bound) = self.frontier.note(from, stamp, top) {
                self.log.retire_below(bound);
            }
        }
    }

    /// The **recover** step: replaces this node by the one rebuilt from
    /// `mirror` ([`NodeMirror::recover`]), which starts a new
    /// incarnation — the old one's arrival timestamps are kept, as the
    /// record its transactions counted into — and emits `store.recover`.
    pub fn recover_step(
        &mut self,
        app: &A,
        checkpoint_every: usize,
        now: SimTime,
        mirror: &mut NodeMirror<A>,
        sink: Option<&shard_obs::EventSink>,
    ) {
        let (mut node, entries) = mirror.recover(app, self.id, checkpoint_every);
        node.retired = std::mem::take(&mut self.retired);
        node.retired
            .push(self.log.arrivals().iter().map(|(ts, _)| *ts).collect());
        *self = node;
        if let Some(s) = sink {
            s.event("store.recover")
                .u64("t", now)
                .u64("node", u64::from(self.id.0))
                .u64("entries", entries as u64)
                .emit();
        }
    }
}

/// Start-of-run recovery, shared by [`Runner::with_durability`] and
/// `shard-runtime`'s `run_live_durable`: a mirror already holding
/// entries is a previous process's store, so its node restarts from it
/// ([`Node::recover_step`], at time 0).
///
/// # Panics
///
/// Panics if anything was recovered and `monitored` is set: the §3
/// judge ([`RunReport::judge`]) covers one process lifetime, and
/// recovered timestamps sit in known sets without ever executing — hence
/// without a rank in the serial order — in this run.
pub fn recover_at_start<A: Application>(
    app: &A,
    nodes: &mut [Node<A>],
    mirrors: &mut [NodeMirror<A>],
    checkpoint_every: usize,
    monitored: bool,
    sink: Option<&shard_obs::EventSink>,
) {
    let mut recovered = BTreeSet::new();
    for (node, mirror) in nodes.iter_mut().zip(mirrors) {
        if mirror.entries() > 0 {
            node.recover_step(app, checkpoint_every, 0, mirror, sink);
            recovered.extend(node.log.entries().iter().map(|(ts, _)| *ts));
        }
    }
    assert!(
        !monitored || recovered.is_empty(),
        "a monitored run cannot start from recovered mirrors: {} recovered entries were \
         executed by an earlier run the §3 monitor never saw (restart unmonitored)",
        recovered.len()
    );
}

/// Events of the unified loop. `Probe`/`Promise` implement the §3.3
/// barrier protocol for critical transactions.
enum Event<A: Application> {
    Invoke {
        node: NodeId,
        decision: A::Decision,
    },
    /// One point-to-point message: a batch of log entries from `from`.
    /// Eager broadcast ships a single update, gossip what a partner has
    /// not been offered yet, partial
    /// replication per-holder selections — all as the same event,
    /// delivered by the same step.
    Deliver {
        to: NodeId,
        from: NodeId,
        stamp: Stamp,
        entries: Entries<A>,
    },
    Tick {
        node: NodeId,
    },
    /// Barrier protocol (§3.3): a critical transaction at `from` asks
    /// every peer to promise its current initiation count.
    Probe {
        to: NodeId,
        from: NodeId,
        id: usize,
    },
    /// A peer's reply: it has initiated `sent` transactions so far.
    Promise {
        to: NodeId,
        from: NodeId,
        id: usize,
        sent: u64,
    },
    /// Durability only: the node's store suffers a simulated power cut
    /// at the start of its crash window (unsynced tail may be lost,
    /// possibly tearing a record).
    Kill {
        node: NodeId,
    },
    /// Durability only: at the end of its crash window the node is
    /// rebuilt from its store — WAL replayed through a fresh merge log,
    /// Lamport clock re-observed — and rejoins propagation.
    Recover {
        node: NodeId,
    },
}

/// A critical transaction waiting for its barrier to clear.
struct PendingCritical<A: Application> {
    node: NodeId,
    decision: A::Decision,
    submitted: SimTime,
    /// Promise per node id (own entry stays `None` and is ignored).
    promises: Vec<Option<u64>>,
    done: bool,
}

/// Run-wide transport tallies.
#[derive(Default)]
struct WireStats {
    messages_sent: u64,
    entries_shipped: u64,
    /// Send sequence number the nemesis hook keys message faults by
    /// (1-based, assigned in send order; untouched without a nemesis).
    msg_seq: u64,
    /// The run's fault ledger ([`RunReport::faults`]).
    faults: Vec<FaultEvent>,
}

/// The simulator's [`Transport`]: deliveries become events on the
/// kernel queue, gated by the partition schedule, the delay model and an
/// optional [`Nemesis`]. All sends share the kernel's RNG stream and
/// feed the run's `messages_sent` / `entries_shipped` counters.
pub struct QueueTransport<'a, A: Application> {
    cfg: &'a ClusterConfig,
    rng: &'a mut StdRng,
    queue: &'a mut EventQueue<Event<A>>,
    wire: &'a mut WireStats,
    nemesis: &'a mut Option<Box<dyn Nemesis>>,
    /// For a strategy with ordered links: when the batch handed last to
    /// each link (`from · nodes + to`) arrives.
    links: Option<&'a mut [SimTime]>,
    /// Messages handed to each link so far, for its [`Stamp`]s.
    sent: &'a mut [u32],
    /// The replicas, whose incarnations the stamps carry.
    nodes: &'a [Node<A>],
    /// Whether crash windows end in a restart from the node's store.
    durable: bool,
}

impl<A: Application> Transport<A> for QueueTransport<'_, A> {
    fn nodes(&self) -> u16 {
        self.cfg.nodes
    }

    /// The run's RNG, exposed so strategies (e.g. gossip partner
    /// selection) draw from the same deterministic stream that samples
    /// delays.
    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `entries` from `from` to `to`: the message waits out any
    /// partition separating the pair, takes one sampled network delay,
    /// and is merged at the receiver by the kernel's traced-merge
    /// delivery handler. An attached [`Nemesis`] may rewrite the fate —
    /// drop the message, duplicate it, or move its arrivals — after the
    /// fault-free delivery time has been computed, so the kernel RNG
    /// stream is identical with and without one.
    ///
    /// A strategy with [`Propagation::ordered_links`] sends over
    /// **ordered links**: a batch arrives no earlier than the one before
    /// it on the same link (the receiver's outage waited out here, so a
    /// held batch is not overtaken either), and never at a receiver that
    /// restarts from its store in between — a new link epoch, for which
    /// the sender's cursor starts over ([`Propagation::on_recover`]).
    /// Any other strategy's message is a datagram, timed on its own.
    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, entries: Entries<A>) {
        let cfg = self.cfg;
        let mut at = delivery_time(&cfg.partitions, &cfg.delay, self.rng, now, from, to);
        self.wire.messages_sent += 1;
        self.wire.entries_shipped += entries.len() as u64;
        let index = usize::from(from.0) * usize::from(cfg.nodes) + usize::from(to.0);
        let incarnation = self.nodes[usize::from(from.0)].incarnation();
        let stamp = Stamp::next(incarnation, &mut self.sent[index]);
        if let Some(links) = self.links.as_deref_mut() {
            let link = &mut links[index];
            at = cfg.crashes.next_up(at.max(*link), to);
            *link = at;
            let restarts = |w: &CrashWindow| w.node == to && now < w.end && w.end <= at;
            if self.durable && cfg.crashes.windows().iter().any(restarts) {
                return;
            }
        }
        let Some(nemesis) = self.nemesis.as_deref_mut() else {
            let event = Event::Deliver {
                to,
                from,
                stamp,
                entries,
            };
            self.queue.schedule(at, event);
            return;
        };
        self.wire.msg_seq += 1;
        let ctx = MsgCtx {
            seq: self.wire.msg_seq,
            now,
            from,
            to,
            at,
        };
        let mut fate = Fate::deliver(at);
        nemesis.on_message(&ctx, &mut fate);
        // The one observer of what the nemesis did: ledger and trace
        // both come from this diff against the fault-free delivery.
        let faults = fate_faults(&ctx, &fate);
        if let Some(s) = cfg.sink.as_deref() {
            emit_faults(s, &ctx, &faults);
        }
        self.wire.faults.extend(faults);
        for &t in &fate.times {
            let entries = Arc::clone(&entries);
            let event = Event::Deliver {
                to,
                from,
                stamp,
                entries,
            };
            self.queue.schedule(t, event);
        }
    }
}

/// How updates travel between replicas. The kernel owns invocation,
/// execution, delivery, merging and failure gating; a strategy only
/// decides *what to send when* — on each execution and on each
/// anti-entropy tick — and says, of one replica at a time, whether it
/// still has something to send.
///
/// # Examples
///
/// Strategies are interchangeable at the [`Runner`] seam — the same
/// workload driven by flooding and by anti-entropy gossip converges to
/// the same replicated state either way:
///
/// ```
/// use shard_apps::airline::{AirlineTxn, FlyByNight};
/// use shard_apps::Person;
/// use shard_sim::{ClusterConfig, EagerBroadcast, Gossip, Invocation, NodeId, Runner};
///
/// let app = FlyByNight::new(2);
/// let invs = vec![Invocation::new(1, NodeId(0), AirlineTxn::Request(Person(7)))];
/// let flood = Runner::new(&app, ClusterConfig::default(), EagerBroadcast::default())
///     .run(invs.clone());
/// let gossip = Runner::new(&app, ClusterConfig::default(), Gossip::new(5, 4)).run(invs);
/// assert!(flood.missing().is_empty() && gossip.missing().is_empty());
/// assert_eq!(flood.final_states[0], gossip.final_states[0]);
/// ```
pub trait Propagation<A: Application> {
    /// Short name used for the run's span (`sim.<label>.run`) and trace.
    fn label(&self) -> &'static str;

    /// Period of the per-node [`Propagation::on_tick`] callback; `None`
    /// disables ticks entirely (purely reactive strategies).
    fn tick_interval(&self) -> Option<SimTime> {
        None
    }

    /// Whether this strategy's sends travel ordered links
    /// ([`QueueTransport::send`]) rather than datagrams (the default).
    /// A strategy that sends each peer only what is past a cursor needs
    /// them: that is what makes its deliveries transitive.
    fn ordered_links(&self) -> bool {
        false
    }

    /// Whether every message this strategy sends carries only its
    /// sender's own updates, each message's above the ones the sender
    /// sent the same peer before — true of the default
    /// [`Propagation::on_execute`] flood, and declared by the strategies
    /// that keep it ([`crate::EagerBroadcast`], [`crate::Placement`]).
    /// A receiver then reads its links' numbers ([`Stamp`]) as a
    /// stability frontier and retires the history below it
    /// ([`crate::frontier`]). A strategy that forwards what others sent
    /// (gossip) keeps the default, `false`: its receivers retire nothing.
    fn numbered_links(&self) -> bool {
        false
    }

    /// Validates the strategy and an invocation schedule before a run
    /// over `nodes` replicas starts (e.g. partial replication asserts
    /// that its placement covers every node and that every invocation
    /// targets a node holding the objects its decision reads). The
    /// default accepts everything.
    fn validate(&self, _app: &A, _nodes: u16, _invocations: &[Invocation<A::Decision>]) {}

    /// Called after `node` executed a transaction, merged `update`
    /// (timestamped `ts`) into its own log and made it durable — on a
    /// live node after the rest of its burst, so the log may already
    /// hold the node's later own updates, and `now` is the execution's
    /// tick, not the release's. The default floods: one shared batch
    /// to every other node that [`Propagation::wants`] it. The strategy
    /// sees only the *local* replica — propagation decisions must not
    /// peek at peer state, which is what lets the same strategy run
    /// unchanged on `shard-runtime`'s one-thread-per-node inboxes.
    fn on_execute(
        &mut self,
        app: &A,
        net: &mut dyn Transport<A>,
        node: &Node<A>,
        now: SimTime,
        ts: Timestamp,
        update: &Arc<A::Update>,
    ) {
        let entries: Entries<A> = Arc::from([(ts, Arc::clone(update))]);
        for to in (0..net.nodes()).map(NodeId) {
            if to != node.id && self.wants(app, to, update) {
                net.send(now, node.id, to, Arc::clone(&entries));
            }
        }
    }

    /// Called every [`Propagation::tick_interval`] at each live node
    /// (crashed nodes skip their rounds until recovery). Like
    /// [`Propagation::on_execute`], sees only the local replica.
    fn on_tick(&mut self, _app: &A, _net: &mut dyn Transport<A>, _node: &Node<A>, _now: SimTime) {}

    /// Called right after a crash window replaced `node` by the one
    /// rebuilt from its store ([`Node::recover_step`]): its log is now
    /// a prefix of the arrival order it had and its peers' links to it
    /// start a new epoch — a strategy holding positions must reset them.
    fn on_recover(&mut self, _node: &Node<A>) {}

    /// Whether something of `node`'s log has yet to be handed to some
    /// peer's link — local knowledge: the node's log and the strategy's
    /// bookkeeping for it. Ticks go on while this holds anywhere
    /// ([`Runner::run`]); reactive strategies keep the default.
    fn has_unsent(&self, _node: &Node<A>) -> bool {
        false
    }

    /// Whether `node` should end up holding `update` (default: yes,
    /// full replication): whom the flood and gossip send it to, and
    /// what [`RunReport::missing`] is judged by.
    fn wants(&self, _app: &A, _node: NodeId, _update: &A::Update) -> bool {
        true
    }
}

/// The unified discrete-event runner: one event loop for every
/// propagation strategy.
///
/// # Examples
///
/// ```
/// use shard_apps::airline::{AirlineTxn, FlyByNight};
/// use shard_apps::Person;
/// use shard_sim::{ClusterConfig, EagerBroadcast, Invocation, NodeId, Runner};
///
/// let app = FlyByNight::new(3);
/// let runner = Runner::new(&app, ClusterConfig::default(), EagerBroadcast::default());
/// let report = runner.run(vec![
///     Invocation::new(0, NodeId(0), AirlineTxn::Request(Person(1))),
///     Invocation::new(9, NodeId(4), AirlineTxn::MoveUp),
/// ]);
/// assert!(report.mutually_consistent());
/// report.timed_execution().execution.verify(&app).unwrap();
/// ```
pub struct Runner<'a, A: Application, P: Propagation<A>> {
    app: &'a A,
    cfg: ClusterConfig,
    strategy: P,
    nemesis: Option<Box<dyn Nemesis>>,
    ticks: Option<Vec<(SimTime, NodeId)>>,
    durability: Option<DurableFleet<A>>,
    // The run's state: everything executing a transaction touches, so
    // that path (from an `Invoke`, or from a barrier clearing on a
    // `Deliver` / `Promise`) is a method.
    rng: StdRng,
    queue: EventQueue<Event<A>>,
    nodes: Vec<Node<A>>,
    transactions: Vec<ExecutedTxn<A>>,
    wire: WireStats,
    /// Last ordered batch's arrival per link ([`QueueTransport::send`]).
    links: Vec<SimTime>,
    /// Messages handed to each link, for their [`Stamp`]s.
    sent: Vec<u32>,
    pending: Vec<PendingCritical<A>>,
    barrier_latencies: Vec<SimTime>,
}

impl<'a, A: Application, P: Propagation<A>> Runner<'a, A, P> {
    /// Creates a runner over `config.nodes` replicas of `app`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero nodes, or the strategy asks
    /// for a zero tick interval.
    pub fn new(app: &'a A, config: ClusterConfig, strategy: P) -> Self {
        assert!(config.nodes > 0, "a cluster needs at least one node");
        if let Some(interval) = strategy.tick_interval() {
            assert!(interval > 0, "ticks need a positive interval");
        }
        Runner {
            app,
            strategy,
            nemesis: None,
            ticks: None,
            durability: None,
            rng: StdRng::seed_from_u64(config.seed),
            queue: EventQueue::new(),
            nodes: (0..config.nodes)
                .map(|i| Node::new(app, NodeId(i), config.nodes, config.checkpoint_every))
                .collect(),
            links: vec![0; usize::from(config.nodes).pow(2)],
            sent: vec![0; usize::from(config.nodes).pow(2)],
            cfg: config,
            transactions: Vec::new(),
            wire: WireStats::default(),
            pending: Vec::new(),
            barrier_latencies: Vec::new(),
        }
    }

    /// Attaches a fault injector (see [`crate::nemesis`]): every update
    /// message's fate passes through it, and it may add partition/crash
    /// windows at run start. Without one, runs are bit-for-bit identical
    /// to a `Runner` built before this hook existed — the nemesis is
    /// consulted only after the fault-free delivery time has been drawn
    /// from the kernel RNG.
    #[must_use]
    pub fn with_nemesis(mut self, nemesis: Box<dyn Nemesis>) -> Self {
        self.nemesis = Some(nemesis);
        self
    }

    /// Attaches a durable mirror per node (see [`crate::durable`]): own
    /// updates are appended to the node's [`shard_store::Store`] and
    /// fsynced *before* propagation, received updates are appended
    /// without a barrier, and every crash window in the schedule
    /// becomes a real kill/recover cycle — the store suffers a
    /// simulated power cut at window start (unsynced tail lost,
    /// possibly tearing a record) and the node is rebuilt from the
    /// surviving WAL at window end. Without crash windows the run is
    /// observationally identical to a non-durable run (the mirror never
    /// touches the kernel RNG).
    ///
    /// Mirrors opened on existing on-disk stores recover their nodes at
    /// run start — a process restart ([`recover_at_start`]). Note
    /// [`RunReport::timed_execution`] covers only *this* run's
    /// transactions, so restarted runs should assert on states and logs
    /// rather than the formal execution.
    ///
    /// # Panics
    ///
    /// Panics if the fleet's size differs from the node count. The run
    /// panics at start if a mirror already holds entries while
    /// `ClusterConfig::monitor` is set: like `timed_execution`, the §3
    /// monitor covers one process lifetime.
    #[must_use]
    pub fn with_durability(mut self, fleet: DurableFleet<A>) -> Self {
        assert_eq!(
            fleet.mirrors.len(),
            self.cfg.nodes as usize,
            "one durable mirror per node"
        );
        self.durability = Some(fleet);
        self
    }

    /// Replaces the strategy's periodic anti-entropy cadence with an
    /// explicit tick script: `Tick` events fire at exactly the given
    /// `(time, node)` pairs and none are rescheduled — the script is
    /// the stopping rule. This is how a live `shard-runtime` run's
    /// recorded gossip rounds are replayed, round for round.
    #[must_use]
    pub fn with_ticks(mut self, ticks: Vec<(SimTime, NodeId)>) -> Self {
        self.ticks = Some(ticks);
        self
    }

    /// Runs the invocation schedule until the event queue is empty and
    /// reports. Every run ends: ticks reschedule themselves only while
    /// an invocation, a message or a crash window is pending or some
    /// node [`Propagation::has_unsent`] entries (local facts all);
    /// whether it *converged* is [`RunReport::missing`].
    ///
    /// # Panics
    ///
    /// Panics if an invocation names a node outside the cluster.
    pub fn run(self, invocations: Vec<Invocation<A::Decision>>) -> RunReport<A> {
        self.run_with_critical(invocations, |_| false)
    }

    /// Like [`Runner::run`], but transactions selected by `is_critical`
    /// run through the **barrier protocol** §3.3 sketches for
    /// centralization and complete prefixes: the origin probes every
    /// peer; each peer promises the count of transactions it has
    /// initiated so far; the critical decision executes only once the
    /// origin has received *every promised update*. The critical
    /// transaction therefore sees every transaction initiated anywhere
    /// before its probe was answered — audits get (near-)complete
    /// prefixes, at the price of waiting out partitions
    /// ([`RunReport::barrier_latencies`] measures exactly the
    /// availability loss §3.3 warns about).
    ///
    /// # Panics
    ///
    /// Panics if an invocation names a node outside the cluster.
    pub fn run_with_critical(
        mut self,
        invocations: Vec<Invocation<A::Decision>>,
        is_critical: impl Fn(&A::Decision) -> bool,
    ) -> RunReport<A> {
        let app = self.app;
        self.strategy.validate(app, self.cfg.nodes, &invocations);
        let span_name = format!("sim.{}.run", self.strategy.label());
        let run_span = shard_obs::span!(&span_name);
        if let Some(nem) = self.nemesis.as_deref_mut() {
            // Injected windows join the scripted schedules before the
            // run starts, so failure gating and the announced schedule
            // treat scripted and injected faults identically.
            let horizon = invocations
                .iter()
                .map(|i| i.time)
                .max()
                .unwrap_or(0)
                .max(self.cfg.partitions.horizon());
            let injected = nem.inject(self.cfg.nodes, horizon);
            for window in injected.partitions {
                self.cfg.partitions.push(window.clone());
                self.wire.faults.push(FaultEvent::Partition { window });
            }
            // The ledger holds outages, so a replay rebuilds this schedule.
            for &window in CrashSchedule::new(injected.crashes).windows() {
                self.cfg.crashes.push(window);
                self.wire.faults.push(FaultEvent::Crash { window });
            }
        }
        if let Some(sink) = self.cfg.sink.as_deref() {
            emit_schedule(sink, &self.cfg.partitions, &self.cfg.crashes);
        }
        if let Some(fleet) = self.durability.as_mut() {
            recover_at_start(
                app,
                &mut self.nodes,
                &mut fleet.mirrors,
                self.cfg.checkpoint_every,
                self.cfg.monitor.is_some(),
                self.cfg.sink.as_deref(),
            );
            // Kill/recover events are scheduled before invocations and
            // held deliveries, so at equal times the store dies before
            // same-tick traffic and revives before the transport
            // releases the messages held during the outage (the event
            // queue breaks ties in insertion order).
            for w in self.cfg.crashes.windows() {
                self.queue.schedule(w.start, Event::Kill { node: w.node });
                self.queue.schedule(w.end, Event::Recover { node: w.node });
            }
        }
        // A log merges each executed update at most once, and each
        // invocation executes at most once: the invocation count bounds
        // the record and every log, so each is allocated once, at its
        // final size on a converged run, instead of doubling into it.
        self.transactions.reserve_exact(invocations.len());
        for node in &mut self.nodes {
            node.log.reserve(invocations.len());
        }
        self.queue.schedule_all(invocations.into_iter().map(|inv| {
            assert!(
                (inv.node.0 as usize) < self.nodes.len(),
                "invocation at unknown node {}",
                inv.node
            );
            let (node, decision) = (inv.node, inv.decision);
            (inv.time, Event::Invoke { node, decision })
        }));
        // A tick script fires as written; otherwise each node's tick
        // reschedules itself every `cadence` ticks. `ticks_queued`
        // counts the `Tick` events in the queue right now.
        let (mut cadence, mut ticks_queued) = (None, 0);
        if let Some(script) = self.ticks.take() {
            for (t, node) in script {
                self.queue.schedule(t, Event::Tick { node });
            }
        } else if let Some(interval) = self.strategy.tick_interval() {
            cadence = Some(interval);
            for i in 0..self.cfg.nodes {
                self.queue
                    .schedule(interval, Event::Tick { node: NodeId(i) });
            }
            ticks_queued = usize::from(self.cfg.nodes);
        }

        let mut rejected: Vec<(SimTime, NodeId)> = Vec::new();
        let mut rounds = 0u64;

        // Simulated time is the popped event's scheduled time;
        // `shard-runtime` runs the same replica step at `WallClock`
        // ticks instead.
        let mut last = 0;
        while let Some((now, event)) = self.queue.pop() {
            debug_assert!(now >= last, "simulated time is monotone");
            last = now;
            if let Event::Deliver { to, .. } | Event::Probe { to, .. } | Event::Promise { to, .. } =
                &event
            {
                if self.cfg.crashes.is_down(now, *to) {
                    // The transport holds the message until recovery.
                    let up = self.cfg.crashes.next_up(now, *to);
                    self.queue.schedule(up, event);
                    continue;
                }
            }
            match event {
                Event::Invoke { node, decision } => {
                    if self.cfg.crashes.is_down(now, node) {
                        rejected.push((now, node));
                        if let Some(sink) = self.cfg.sink.as_deref() {
                            sink.event("reject")
                                .u64("t", now)
                                .u64("node", u64::from(node.0))
                                .emit();
                        }
                        continue;
                    }
                    if is_critical(&decision) && self.cfg.nodes > 1 {
                        let id = self.pending.len();
                        self.pending.push(PendingCritical {
                            node,
                            decision,
                            submitted: now,
                            promises: vec![None; self.cfg.nodes as usize],
                            done: false,
                        });
                        for to in (0..self.cfg.nodes).map(NodeId).filter(|&to| to != node) {
                            let (cfg, rng) = (&self.cfg, &mut self.rng);
                            let at = delivery_time(&cfg.partitions, &cfg.delay, rng, now, node, to);
                            self.queue.schedule(at, Event::Probe { to, from: node, id });
                        }
                    } else {
                        self.execute(now, node, decision);
                    }
                }
                Event::Deliver {
                    to,
                    from,
                    stamp,
                    entries,
                } => {
                    let sender = Sender {
                        node: from,
                        stamp: self.strategy.numbered_links().then_some(stamp),
                    };
                    self.nodes[to.0 as usize].deliver_step(
                        app,
                        sender,
                        &entries,
                        now,
                        self.durability.as_mut().map(|f| f.mirror_mut(to)),
                        self.cfg.sink.as_deref(),
                    );
                    if self.pending.is_empty() {
                        continue;
                    }
                    self.release_criticals(now, to);
                }
                Event::Tick { node } => {
                    // A crashed node skips its rounds but resumes the
                    // cadence after recovery.
                    if !self.cfg.crashes.is_down(now, node) {
                        let before = self.wire.messages_sent;
                        let (strategy, mut net, nodes) = self.net();
                        strategy.on_tick(app, &mut net, &nodes[node.0 as usize], now);
                        if self.wire.messages_sent > before {
                            rounds += 1;
                        }
                    }
                    // The cadence goes on while anything but ticks is
                    // queued (an invocation, a message, a kill or
                    // recovery to come) or some node has something to
                    // offer. Otherwise no tick can send again.
                    if let Some(interval) = cadence {
                        ticks_queued -= 1;
                        if self.queue.len() > ticks_queued
                            || self.nodes.iter().any(|n| self.strategy.has_unsent(n))
                        {
                            self.queue.schedule(now + interval, Event::Tick { node });
                            ticks_queued += 1;
                        }
                    }
                }
                Event::Probe { to, from, id } => {
                    let sent = self.nodes[to.0 as usize].own_sent;
                    let (cfg, rng) = (&self.cfg, &mut self.rng);
                    let at = delivery_time(&cfg.partitions, &cfg.delay, rng, now, to, from);
                    self.queue.schedule(
                        at,
                        Event::Promise {
                            to: from,
                            from: to,
                            id,
                            sent,
                        },
                    );
                }
                Event::Promise { to, from, id, sent } => {
                    self.pending[id].promises[from.0 as usize] = Some(sent);
                    self.release_criticals(now, to);
                }
                Event::Kill { node } => {
                    let fleet = self
                        .durability
                        .as_mut()
                        .expect("Kill events are scheduled only with durability");
                    let report = fleet.kill(node);
                    if let Some(s) = self.cfg.sink.as_deref() {
                        s.event("store.kill")
                            .u64("t", now)
                            .u64("node", u64::from(node.0))
                            .u64("kept_entries", report.kept_entries as u64)
                            .u64("kept_bytes", report.kept_bytes)
                            .u64("lost_bytes", report.lost_bytes)
                            .bool("torn", report.torn)
                            .emit();
                    }
                }
                Event::Recover { node } => {
                    let fleet = self
                        .durability
                        .as_mut()
                        .expect("Recover events are scheduled only with durability");
                    self.nodes[node.0 as usize].recover_step(
                        app,
                        self.cfg.checkpoint_every,
                        now,
                        fleet.mirror_mut(node),
                        self.cfg.sink.as_deref(),
                    );
                    self.strategy.on_recover(&self.nodes[node.0 as usize]);
                }
            }
        }

        debug_assert!(
            self.pending.iter().all(|p| p.done),
            "all barriers clear eventually"
        );
        let mut report = RunReport {
            barrier_latencies: self.barrier_latencies,
            rejected,
            messages_sent: self.wire.messages_sent,
            entries_shipped: self.wire.entries_shipped,
            rounds,
            faults: self.wire.faults,
            ..RunReport::collect(app, &self.strategy, self.nodes, self.transactions)
        };
        let sink = self.cfg.sink.as_deref();
        report.monitor = self.cfg.monitor.as_ref().map(|m| report.judge(m, sink));
        if let Some(sink) = sink {
            // A trailing span line lets `shard-trace summarize` report
            // the run's wall time without access to the registry.
            sink.event("span")
                .str("name", &span_name)
                .u64("ns", run_span.elapsed_ns())
                .emit();
            sink.flush();
        }
        // Anti-entropy promises convergence: count its runs that ended
        // short of it (adding zero registers the counter).
        if self.strategy.tick_interval().is_some() {
            shard_obs::counter!("sim.not_converged").add(u64::from(!report.missing.is_empty()));
        }
        report
    }

    /// The strategy, the transport it sends through (over ordered links
    /// if it asks for them) and the replicas it may read — the one place
    /// a [`QueueTransport`] is built.
    fn net(&mut self) -> (&mut P, QueueTransport<'_, A>, &[Node<A>]) {
        let net = QueueTransport {
            cfg: &self.cfg,
            rng: &mut self.rng,
            queue: &mut self.queue,
            wire: &mut self.wire,
            nemesis: &mut self.nemesis,
            links: self.strategy.ordered_links().then_some(&mut self.links[..]),
            sent: &mut self.sent,
            nodes: &self.nodes,
            durable: self.durability.is_some(),
        };
        (&mut self.strategy, net, &self.nodes)
    }

    /// Executes one transaction at `node` now — the shared replica step
    /// ([`Node::execute_step`]: trace, decide, merge, append) — fsyncs
    /// it (a burst of one), records it, and hands propagation to the
    /// strategy.
    fn execute(&mut self, now: SimTime, node: NodeId, decision: A::Decision) {
        let app = self.app;
        let replica = &mut self.nodes[node.0 as usize];
        let mut mirror = self.durability.as_mut().map(|f| f.mirror_mut(node));
        let (txn, update) = replica.execute_step(
            app,
            decision,
            now,
            mirror.as_deref_mut(),
            self.cfg.sink.as_deref(),
        );
        if let Some(m) = mirror {
            m.persist(&replica.log, true);
        }
        let ts = txn.ts;
        self.transactions.push(txn);
        let (strategy, mut net, nodes) = self.net();
        strategy.on_execute(app, &mut net, &nodes[node.0 as usize], now, ts, &update);
    }

    /// Executes every pending critical transaction at `node` whose
    /// barrier has cleared: all peers promised and every promised update
    /// has been received.
    fn release_criticals(&mut self, now: SimTime, node: NodeId) {
        for id in 0..self.pending.len() {
            let p = &self.pending[id];
            if p.done || p.node != node {
                continue;
            }
            let held = &self.nodes[node.0 as usize].held;
            let cleared = (0..self.cfg.nodes).map(NodeId).all(|peer| {
                peer == node
                    || p.promises[peer.0 as usize].is_some_and(|promised| {
                        // A node rebuilt from its store counts only the
                        // origins the store held.
                        promised == 0
                            || held
                                .get(usize::from(peer.0))
                                .is_some_and(|&got| got >= promised)
                    })
            });
            if cleared {
                self.barrier_latencies.push(now - p.submitted);
                let decision = p.decision.clone();
                self.pending[id].done = true;
                self.execute(now, node, decision);
            }
        }
    }
}
