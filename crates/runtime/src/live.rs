//! The live threaded deployment: one OS thread per node, mpsc channels
//! as the [`Transport`], process-wide [`WallClock`] ticks as event
//! times, and a delivery recorder that makes every run replayable. What
//! a node does at each event is the kernel's own replica step
//! ([`Node::execute_step`], [`Node::deliver_step`],
//! [`recover_at_start`]): tracing and the write-ahead discipline are
//! not re-implemented here.
//!
//! # Architecture
//!
//! ```text
//!   client load (Vec<Submission>)          coordinator (the caller's
//!        │ partitioned by node             thread): every 500 µs samples
//!        ▼                                 the queue depth, steps the §3
//!   ┌────────┐   mpsc    ┌────────┐        LiveMonitor over the watermark
//!   │ node 0 │──────────▶│ node 1 │ …      of the per-node Lamport clocks
//!   │ thread │◀──────────│ thread │        (the kernel's checkers), and
//!   └────────┘           └────────┘        looks for the quiet point
//!        │ txn rows (ts, time, known)           │
//!        └──────────────▶ coordinator           └─ one `Quit` per channel
//! ```
//!
//! Two kinds of thread. A node thread merges what its channel holds,
//! executes its due submissions, starts a gossip round when one is due,
//! and otherwise blocks on the channel until its next deadline — or for
//! good if it has none: whatever else can concern it arrives there.
//!
//! # How a run ends
//!
//! On one observation: every submission executed and `Shared::in_flight`
//! zero — no message unmerged, no node with anything left to offer. The
//! coordinator then puts one `Quit` on each node's channel and joins.
//! The point is stable, so nothing follows a `Quit`: a send originates
//! in an `on_execute` (every strategy's, gossip's at interval 0), and no
//! execution is left; or in `Gossip::on_tick`, which sends only past a
//! peer's cursor ([`Propagation::has_unsent`], the node's mark in
//! `in_flight`), and only an execution or a merge raises a mark.
//! A node thread that dies ends the wait too; the join propagates it.
//!
//! # Why a recorded run replays exactly
//!
//! Every event a node performs — executing a transaction, merging a
//! delivered batch, initiating a gossip round — first draws a tick from
//! the shared [`WallClock`], whose ticks are **globally unique and
//! strictly increasing** across threads. The recorded `(tick, …)`
//! tuples therefore totally order the entire run. Replay hands the
//! kernel that exact order: invocations at the recorded execution
//! ticks, gossip rounds as a scripted tick list, and each message's
//! delivery moved to its recorded merge tick by a
//! [`ScheduledNemesis`](shard_sim::ScheduledNemesis) keyed on the
//! kernel's send sequence — which matches the live send order because
//! every [`Propagation`] strategy sends to peers in increasing node id
//! within one event.

use rand::rngs::StdRng;
use rand::SeedableRng;
use shard_core::stream::StreamReport;
use shard_core::{Application, ExternalAction};
use shard_obs::{EventSink, RuntimeMetrics};
use shard_sim::events::SimTime;
use shard_sim::kernel::{recover_at_start, Entries, Node};
use shard_sim::{
    ExecutedTxn, LiveMonitor, MonitorConfig, NodeId, NodeMirror, Propagation, RunReport, Timestamp,
    Transport, WallClock,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// How many due submissions a node executes before draining its channel
/// again — keeps closed workloads from starving merges.
const EXEC_BATCH: usize = 64;

/// One client request: `decision` is due at `node` once `at_us`
/// microseconds have elapsed since run start.
#[derive(Clone, Debug)]
pub struct Submission<D> {
    /// Due time in microseconds since run start (0 = immediately).
    pub at_us: u64,
    /// Origin node.
    pub node: NodeId,
    /// The transaction to run.
    pub decision: D,
}

/// Configuration of a live run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of node threads.
    pub nodes: u16,
    /// Seeds the per-node transport RNGs (the shipped strategies are
    /// deterministic and never draw from them, but [`Transport`]
    /// requires one).
    pub seed: u64,
    /// Merge-log checkpoint interval (must match the replay's).
    pub checkpoint_every: usize,
    /// Run the §3 [`LiveMonitor`] on the coordinator's loop, fed by
    /// every node and advanced by the watermark of the per-node Lamport
    /// clocks. `abort_on_violation` is ignored: a live run always
    /// drains.
    pub monitor: Option<MonitorConfig>,
    /// Trace sink: node threads emit the kernel's `execute` / `deliver`
    /// / `merge.*` vocabulary and the monitor emits its `txn` rows, so
    /// `shard-trace summarize|watch` consume live traces unchanged.
    pub sink: Option<Arc<EventSink>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            nodes: 3,
            seed: 0,
            checkpoint_every: 32,
            monitor: None,
            sink: None,
        }
    }
}

/// One recorded message: sent at `sent_at` (the sender's event tick),
/// merged into `to`'s log at `merged_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRecord {
    /// The sender-side event tick at which the message was sent.
    pub sent_at: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The receiver-side tick at which the batch was merged.
    pub merged_at: SimTime,
}

/// The complete delivery schedule of a live run — everything replay
/// needs to reproduce it in the deterministic kernel.
#[derive(Clone, Debug, Default)]
pub struct RecordedSchedule {
    /// Every execution as `(tick, node)`, in tick order.
    pub execs: Vec<(SimTime, NodeId)>,
    /// Every delivered message with its send and merge ticks.
    pub msgs: Vec<MsgRecord>,
    /// Every gossip round initiation as `(tick, node)`, in tick order.
    /// Empty for reactive strategies.
    pub ticks: Vec<(SimTime, NodeId)>,
}

/// A finished live run: the same [`RunReport`] the simulator produces,
/// plus the recorded schedule and the wall-clock duration.
pub struct LiveRun<A: Application> {
    /// The run's report, field-compatible with a kernel run (the
    /// `faults` ledger is empty: live runs inject no faults).
    pub report: RunReport<A>,
    /// The recorded delivery schedule for [`crate::replay()`].
    pub schedule: RecordedSchedule,
    /// Wall-clock duration of the threaded phase, in microseconds.
    pub wall_us: u64,
}

/// The live monitor never aborts (a live run always drains), so force
/// the flag off; replay does the same, keeping reports comparable.
pub(crate) fn sanitize_monitor(m: &Option<MonitorConfig>) -> Option<MonitorConfig> {
    m.clone().map(|mut m| {
        m.abort_on_violation = false;
        m
    })
}

/// Cross-thread state shared by the node threads and the coordinator.
struct Shared {
    clock: WallClock,
    /// Work outstanding, two counts in one word so that one load sees
    /// both: messages sent but not yet merged at their receiver (the
    /// word `% UNSENT`), and nodes whose strategy still has entries to
    /// offer a peer ([`Propagation::has_unsent`]; one [`UNSENT`] each).
    /// A message counts from *before* the channel send until *after*
    /// the merge and the receiver's own unsent mark; a node's mark drops
    /// only *after* the round that emptied it has counted its sends — so
    /// zero proves the cluster is quiet.
    in_flight: AtomicU64,
    /// Transactions executed so far, across all nodes.
    executed: AtomicU64,
    /// Per-node Lamport clock values, published after every execute and
    /// absorb — their minimum is the monitor watermark.
    clocks: Vec<AtomicU64>,
}

/// One node's unsent mark in [`Shared::in_flight`].
const UNSENT: u64 = 1 << 32;

/// What a node's channel carries: update batches from its peers, then
/// — once, last — the coordinator's `Quit`.
enum Msg<A: Application> {
    Batch {
        from: NodeId,
        sent_at: SimTime,
        entries: Entries<A>,
    },
    Quit,
}

/// The live [`Transport`]: sends go straight onto the receiver's
/// channel, stamped with the sender's event tick.
struct ChannelTransport<'s, A: Application> {
    peers: &'s [Sender<Msg<A>>],
    shared: &'s Shared,
    rng: StdRng,
    messages_sent: u64,
    entries_shipped: u64,
}

impl<A: Application> Transport<A> for ChannelTransport<'_, A> {
    fn nodes(&self) -> u16 {
        self.peers.len() as u16
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, entries: Entries<A>) {
        self.messages_sent += 1;
        self.entries_shipped += entries.len() as u64;
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        self.peers[to.0 as usize]
            .send(Msg::Batch {
                from,
                sent_at: now,
                entries,
            })
            .expect("nothing is sent past the quiet point, and a channel closes after it");
    }
}

/// What one node thread hands back at join time (alongside its
/// [`Node`], whose log yields the final state and merge metrics).
struct NodeOutcome<A: Application> {
    txns: Vec<ExecutedTxn<A>>,
    externals: Vec<(SimTime, NodeId, ExternalAction)>,
    execs: Vec<(SimTime, NodeId)>,
    msgs: Vec<MsgRecord>,
    ticks: Vec<(SimTime, NodeId)>,
    messages_sent: u64,
    entries_shipped: u64,
    rounds: u64,
}

/// A monitor row: `(timestamp, execution tick, known-set snapshot)`.
/// The snapshot is O(1) to take and share ([`shard_sim::KnownSet`]).
type MonRow = (Timestamp, SimTime, shard_sim::KnownSet);

/// The state one node thread owns; split out so the channel-drain path
/// is a single method used from every point in the loop.
struct NodeWorker<'s, A: Application, P> {
    app: &'s A,
    node: Node<A>,
    strategy: P,
    shared: &'s Shared,
    transport: ChannelTransport<'s, A>,
    rx: Receiver<Msg<A>>,
    mon_tx: Option<Sender<MonRow>>,
    sink: Option<&'s EventSink>,
    metrics: &'s RuntimeMetrics,
    /// Durable mirror of the node's log ([`run_live_durable`]), written
    /// by the shared replica step.
    mirror: Option<NodeMirror<A>>,
    /// Whether this node holds its unsent mark in `Shared::in_flight`.
    unsent: bool,
    out: NodeOutcome<A>,
}

impl<A: Application, P: Propagation<A>> NodeWorker<'_, A, P> {
    /// Publishes the node's clock and its unsent mark — after every
    /// event, before the event's own count (`in_flight`, `executed`)
    /// lets the coordinator see it done.
    fn publish(&mut self) {
        let id = self.node.id.0 as usize;
        self.shared.clocks[id].store(self.node.clock.current(), Ordering::SeqCst);
        let unsent = self.strategy.has_unsent(&self.node);
        if unsent != self.unsent {
            self.unsent = unsent;
            if unsent {
                self.shared.in_flight.fetch_add(UNSENT, Ordering::SeqCst);
            } else {
                self.shared.in_flight.fetch_sub(UNSENT, Ordering::SeqCst);
            }
        }
    }

    /// Merges one delivered batch at a fresh tick and records it;
    /// `false` on `Quit`.
    fn deliver(&mut self, msg: Msg<A>) -> bool {
        let Msg::Batch {
            from,
            sent_at,
            entries,
        } = msg
        else {
            return false;
        };
        let now = self.shared.clock.tick();
        self.node.deliver_step(
            self.app,
            from,
            &entries,
            now,
            self.mirror.as_mut(),
            self.sink,
        );
        self.out.msgs.push(MsgRecord {
            sent_at,
            from,
            to: self.node.id,
            merged_at: now,
        });
        self.publish();
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Executes one due submission at a fresh tick.
    fn execute(&mut self, at_us: u64, decision: A::Decision) {
        let now = self.shared.clock.tick();
        let (txn, update) =
            self.node
                .execute_step(self.app, decision, now, self.mirror.as_mut(), self.sink);
        self.metrics
            .latency_us
            .record(self.shared.clock.elapsed_us().saturating_sub(at_us));
        for a in &txn.external_actions {
            self.out.externals.push((now, self.node.id, a.clone()));
        }
        self.strategy.on_execute(
            self.app,
            &mut self.transport,
            &self.node,
            now,
            txn.ts,
            &update,
        );
        self.out.execs.push((now, self.node.id));
        if let Some(tx) = &self.mon_tx {
            let _ = tx.send((txn.ts, txn.time, txn.known.clone()));
        }
        self.out.txns.push(txn);
        self.publish();
        self.shared.executed.fetch_add(1, Ordering::SeqCst);
    }

    /// Initiates one gossip round at a fresh tick.
    fn round(&mut self) {
        let now = self.shared.clock.tick();
        let before = self.transport.messages_sent;
        self.strategy
            .on_tick(self.app, &mut self.transport, &self.node, now);
        if self.transport.messages_sent > before {
            self.out.rounds += 1;
        }
        self.out.ticks.push((now, self.node.id));
        self.publish();
    }

    /// The thread body: see the module diagram.
    fn run(
        mut self,
        subs: Vec<(u64, A::Decision)>,
        tick_every_us: Option<SimTime>,
    ) -> (Node<A>, NodeOutcome<A>) {
        let mut next_sub = 0usize;
        let mut next_round_us = tick_every_us;
        // Publish the starting clock: a node recovered from a durable
        // mirror begins past zero, and the monitor's watermark must see
        // that even if the node never executes or receives anything.
        self.publish();
        'run: loop {
            let mut did = 0;
            while let Ok(msg) = self.rx.try_recv() {
                if !self.deliver(msg) {
                    break 'run;
                }
                did += 1;
            }
            let burst_end = subs.len().min(next_sub + EXEC_BATCH);
            while next_sub < burst_end && subs[next_sub].0 <= self.shared.clock.elapsed_us() {
                let (at_us, decision) = subs[next_sub].clone();
                next_sub += 1;
                did += 1;
                self.execute(at_us, decision);
            }
            if next_round_us.is_some_and(|at_us| at_us <= self.shared.clock.elapsed_us()) {
                self.round();
                next_round_us = tick_every_us.map(|every| self.shared.clock.elapsed_us() + every);
                did += 1;
            }
            if did == 0 {
                // Block until the next submission or round is due, or
                // for good if neither is: a batch or the `Quit` wakes
                // the node the instant it arrives.
                let due = subs.get(next_sub).map(|s| s.0);
                let msg = match due.into_iter().chain(next_round_us).min() {
                    Some(at_us) => {
                        let wait = at_us.saturating_sub(self.shared.clock.elapsed_us());
                        self.rx
                            .recv_timeout(Duration::from_micros(wait.max(1)))
                            .ok()
                    }
                    None => self.rx.recv().ok(),
                };
                if let Some(msg) = msg {
                    if !self.deliver(msg) {
                        break;
                    }
                }
            }
        }
        self.out.messages_sent = self.transport.messages_sent;
        self.out.entries_shipped = self.transport.entries_shipped;
        (self.node, self.out)
    }
}

/// Runs `submissions` live on `cfg.nodes` threads under `strategy`.
///
/// The strategy must behave like the shipped ones: deterministic given
/// the local replica (no RNG draws) and sending to peers in increasing
/// node order within one event — that is what makes the recorded
/// schedule replayable. [`EagerBroadcast`](shard_sim::EagerBroadcast),
/// [`Gossip`](shard_sim::Gossip) at full fanout (`fanout ≥ nodes − 1`:
/// all peers in node order, no partner sampling) and
/// [`PartialPlacement`](shard_sim::PartialPlacement) conform; pass a
/// clone of the same value to [`crate::replay()`].
///
/// Tick-driven strategies (gossip) use their [`Propagation::
/// tick_interval`] as a cadence in *microseconds*; gossip at interval 0
/// has none and runs its rounds at executions. Every run ends the
/// same way: all submissions executed, no message in flight and no
/// node with anything left to offer ([`Propagation::has_unsent`]).
///
/// # Panics
///
/// Panics if a submission names a node outside the cluster, or a
/// tick-driven strategy has a zero interval.
pub fn run_live<A, P>(
    app: &A,
    cfg: &RuntimeConfig,
    strategy: P,
    submissions: Vec<Submission<A::Decision>>,
) -> LiveRun<A>
where
    A: Application + Sync,
    A::State: Send,
    A::Update: Send + Sync,
    A::Decision: Send,
    P: Propagation<A> + Clone + Send,
{
    run_live_inner(app, cfg, strategy, submissions, Vec::new())
}

/// [`run_live`] with one durable [`NodeMirror`] per node (see
/// `shard_sim::durable`): each node thread appends its arrivals to its
/// mirror — own updates fsynced before propagation, received batches
/// without a barrier — and a mirror that already holds entries (a
/// previous process's store) has its node **recovered from the WAL**
/// before the threads start, which is how a live cluster restarts.
///
/// # Panics
///
/// Panics if the mirror count differs from `cfg.nodes`, if a
/// submission names a node outside the cluster, or if a mirror already
/// holds entries while `cfg.monitor` is set: the §3 monitor covers one
/// process lifetime and never saw the recovered transactions execute
/// (restart unmonitored).
pub fn run_live_durable<A, P>(
    app: &A,
    cfg: &RuntimeConfig,
    strategy: P,
    submissions: Vec<Submission<A::Decision>>,
    mirrors: Vec<NodeMirror<A>>,
) -> LiveRun<A>
where
    A: Application + Sync,
    A::State: Send,
    A::Update: Send + Sync,
    A::Decision: Send,
    P: Propagation<A> + Clone + Send,
{
    assert_eq!(
        mirrors.len(),
        cfg.nodes as usize,
        "one durable mirror per node"
    );
    run_live_inner(app, cfg, strategy, submissions, mirrors)
}

fn run_live_inner<A, P>(
    app: &A,
    cfg: &RuntimeConfig,
    strategy: P,
    submissions: Vec<Submission<A::Decision>>,
    mut mirrors: Vec<NodeMirror<A>>,
) -> LiveRun<A>
where
    A: Application + Sync,
    A::State: Send,
    A::Update: Send + Sync,
    A::Decision: Send,
    P: Propagation<A> + Clone + Send,
{
    assert!(cfg.nodes > 0, "a live cluster needs at least one node");
    assert!(
        submissions.iter().all(|s| s.node.0 < cfg.nodes),
        "submission names a node outside the cluster"
    );
    let n = cfg.nodes as usize;
    let total = submissions.len() as u64;
    let tick_every_us = strategy.tick_interval();
    assert_ne!(tick_every_us, Some(0), "gossip needs a positive interval");
    let metrics = RuntimeMetrics::for_mode(strategy.label());

    // Per-node FIFO workloads, preserving submission order.
    let mut per_node: Vec<Vec<(u64, A::Decision)>> = (0..n).map(|_| Vec::new()).collect();
    for s in submissions {
        per_node[s.node.0 as usize].push((s.at_us, s.decision));
    }

    let shared = Shared {
        clock: WallClock::new(),
        in_flight: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
    };

    // A mirror that already holds entries is a previous process's
    // store: its node restarts from it.
    let mut nodes: Vec<Node<A>> = (0..cfg.nodes)
        .map(|i| Node::new(app, NodeId(i), cfg.checkpoint_every))
        .collect();
    recover_at_start(
        app,
        &mut nodes,
        &mut mirrors,
        cfg.checkpoint_every,
        cfg.monitor.is_some(),
        cfg.sink.as_deref(),
    );
    let mut mirrors = mirrors.into_iter();

    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel::<Msg<A>>()).unzip();
    let mut monitor = sanitize_monitor(&cfg.monitor).map(LiveMonitor::new);
    let (mon_tx, mon_rx) = mpsc::channel::<MonRow>();
    let mon_tx = monitor.is_some().then_some(mon_tx);
    let sink = cfg.sink.as_deref();
    let ingest_rows = |lm: &mut LiveMonitor| {
        mon_rx
            .try_iter()
            .for_each(|(ts, time, known)| lm.ingest(ts, time, known));
    };

    let mut outcomes: Vec<Option<(Node<A>, NodeOutcome<A>)>> = (0..n).map(|_| None).collect();

    thread::scope(|scope| {
        let shared = &shared;
        let senders = &senders;
        let metrics = &metrics;
        let mut handles = Vec::with_capacity(n);
        for (id, ((rx, subs), node)) in receivers.into_iter().zip(per_node).zip(nodes).enumerate() {
            let id = NodeId(id as u16);
            // A recovered node starts with entries to offer: marked here,
            // before the coordinator's first look could read it as quiet.
            let unsent = strategy.has_unsent(&node);
            if unsent {
                shared.in_flight.fetch_add(UNSENT, Ordering::SeqCst);
            }
            let worker = NodeWorker {
                app,
                node,
                strategy: strategy.clone(),
                shared,
                transport: ChannelTransport {
                    peers: senders,
                    shared,
                    rng: StdRng::seed_from_u64(cfg.seed ^ u64::from(id.0)),
                    messages_sent: 0,
                    entries_shipped: 0,
                },
                rx,
                mon_tx: mon_tx.clone(),
                sink,
                metrics,
                mirror: mirrors.next(),
                unsent,
                out: NodeOutcome {
                    txns: Vec::new(),
                    externals: Vec::new(),
                    execs: Vec::new(),
                    msgs: Vec::new(),
                    ticks: Vec::new(),
                    messages_sent: 0,
                    entries_shipped: 0,
                    rounds: 0,
                },
            };
            handles.push(scope.spawn(move || worker.run(subs, tick_every_us)));
        }

        // Coordinator (this thread): samples the queue depth, steps the
        // monitor, and waits for the quiet point — everything executed
        // and nothing outstanding: no message unmerged, no node with
        // unsent entries (one load of `Shared::in_flight` decides). An
        // execution publishes its node's mark before it counts, so
        // `executed` is read first. A node thread that finished before
        // its `Quit` panicked: stop waiting and let the join say so.
        loop {
            let all_executed = shared.executed.load(Ordering::SeqCst) == total;
            let outstanding = shared.in_flight.load(Ordering::SeqCst);
            metrics.queue_depth.record(outstanding % UNSENT);
            if let Some(lm) = &mut monitor {
                // The watermark is read *before* the rows are drained: a
                // node publishes its clock only after sending its row, so
                // every row with `ts.counter ≤ watermark` is already in
                // the channel — sealing is sound.
                let clocks = shared.clocks.iter().map(|c| c.load(Ordering::SeqCst));
                let watermark = clocks.min().unwrap_or(0);
                ingest_rows(lm);
                lm.advance(watermark, sink);
            }
            if (all_executed && outstanding == 0) || handles.iter().any(|h| h.is_finished()) {
                break;
            }
            thread::park_timeout(Duration::from_micros(500));
        }
        for tx in senders {
            // A dead node's channel is closed; the join reports it.
            let _ = tx.send(Msg::Quit);
        }
        for (i, h) in handles.into_iter().enumerate() {
            outcomes[i] = Some(h.join().expect("node thread panicked"));
        }
    });
    // Every row is in: ingest the tail, then seal what stalled.
    let monitor_report = monitor.map(|mut lm| {
        ingest_rows(&mut lm);
        lm.finish(sink)
    });

    let wall_us = shared.clock.elapsed_us();
    assemble(app, cfg, &strategy, outcomes, monitor_report, wall_us)
}

/// Folds the per-node outcomes into a kernel-shaped [`RunReport`] plus
/// the recorded schedule.
fn assemble<A: Application, P: Propagation<A>>(
    app: &A,
    cfg: &RuntimeConfig,
    strategy: &P,
    outcomes: Vec<Option<(Node<A>, NodeOutcome<A>)>>,
    monitor: Option<StreamReport>,
    wall_us: u64,
) -> LiveRun<A> {
    let mut nodes = Vec::new();
    let mut transactions = Vec::new();
    let mut external_actions = Vec::new();
    let mut schedule = RecordedSchedule::default();
    let (mut messages_sent, mut entries_shipped, mut rounds) = (0u64, 0u64, 0u64);
    for o in outcomes {
        let (node, o) = o.expect("every node joined");
        nodes.push(node);
        transactions.extend(o.txns);
        external_actions.extend(o.externals);
        schedule.execs.extend(o.execs);
        schedule.msgs.extend(o.msgs);
        schedule.ticks.extend(o.ticks);
        messages_sent += o.messages_sent;
        entries_shipped += o.entries_shipped;
        rounds += o.rounds;
    }
    // The kernel reports external actions in real-time event order;
    // ticks are unique, so sorting is total.
    external_actions.sort_by_key(|(t, _, _)| *t);
    schedule.execs.sort_unstable_by_key(|(t, _)| *t);
    schedule.ticks.sort_unstable_by_key(|(t, _)| *t);
    schedule.msgs.sort_unstable_by_key(|m| (m.sent_at, m.to.0));
    if let Some(sink) = cfg.sink.as_deref() {
        sink.event("span")
            .str("name", "runtime.live.run")
            .u64("ns", wall_us.saturating_mul(1_000))
            .emit();
        sink.flush();
    }
    let mut report = RunReport::collect(app, strategy, nodes, transactions);
    report.external_actions = external_actions;
    report.messages_sent = messages_sent;
    report.entries_shipped = entries_shipped;
    report.rounds = rounds;
    report.monitor = monitor;
    LiveRun {
        report,
        schedule,
        wall_us,
    }
}
