//! The live threaded deployment: one OS thread per node, one inbox per
//! node as the [`Transport`], process-wide [`WallClock`] ticks as event
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
//!        │ partitioned by node             thread): at each poll samples
//!        ▼                                 the queue depth and looks for
//!   ┌────────┐   inbox   ┌────────┐        the quiet point
//!   │ node 0 │──────────▶│ node 1 │ …              │
//!   │ thread │◀──────────│ thread │                └─ one `Quit` per inbox
//!   └────────┘           └────────┘
//!        │ join: logs, records, schedule ──▶ RunReport ──▶ §3 RunReport::judge
//! ```
//!
//! The poll asks for 500 µs, but the host sets its rate: on `live-eager`'s
//! shape, on a shared 2-vCPU host, it woke 137–587 times in a 400 ms slice
//! where 800 were asked, at 9.4–33 µs of CPU a wake. It reads `executed`,
//! `in_flight` and the node handles, nothing else. The §3 verdicts are
//! drawn after the join, from the finished report's record of each
//! transaction's 𝒫ᵢ (`ExecutedTxn::known` into `RunReport::arrivals`).
//!
//! Two kinds of thread. A node thread merges what its inbox holds,
//! executes its due submissions, starts a gossip round when one is due,
//! and otherwise parks until its next deadline — or for good if it has
//! none: whatever else can concern it arrives in its inbox, and a send
//! to a parked node unparks it. The inbox is a FIFO behind a mutex
//! (`inbox.rs`); a node takes all it holds under one lock, and parks
//! without spinning.
//!
//! Due submissions run in bursts of up to `EXEC_BATCH` (64), and every
//! node releases a burst only after it ends. On a durable node a burst
//! is one group commit: each execution appends its own update to the
//! mirror, and one fsync covers them all; without a mirror there is no
//! barrier. Then each transaction is released, in execution order — its
//! sends and its record (external actions included) — and the burst
//! counted as executed. A transaction's
//! `runtime.<mode>.latency_us` is its execution tick less its due time:
//! the tick its execution drew, not a second clock read.
//!
//! # How a run ends
//!
//! On one observation: every submission executed and `Shared::in_flight`
//! zero — no message unmerged, no node with anything left to offer. A
//! transaction counts in `executed` only after its burst's barrier and
//! after its sends are in `in_flight`, so the coordinator never sees a
//! quiet point that a released send would break. The coordinator then
//! puts one `Quit` in each node's inbox and joins. The `Quit`s come from
//! a guard that any exit from the scope drops, so a coordinator that
//! panics fails the run instead of waiting on parked nodes.
//! The point is stable, so nothing follows a `Quit`: a send originates
//! in an `on_execute` (every strategy's, gossip's at interval 0), and no
//! execution is left; or in `Gossip::on_tick`, which sends only past a
//! peer's cursor ([`Propagation::has_unsent`], the node's mark in
//! `in_flight`), and only an execution or a merge raises a mark.
//! After the join every inbox is checked empty: a batch sent past the
//! quiet point would queue behind the `Quit` and never merge.
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

use crate::inbox::Inbox;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shard_core::Application;
use shard_obs::{EventSink, RuntimeMetrics};
use shard_sim::events::SimTime;
use shard_sim::kernel::{recover_at_start, Entries, Node};
use shard_sim::{
    ExecutedTxn, Invocation, MonitorConfig, NodeId, NodeMirror, Propagation, RunReport, Sender,
    Stamp, Transport, WallClock,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How many due submissions a node executes before draining its inbox
/// again — keeps closed workloads from starving merges — and so the
/// most own updates one fsync of a durable node covers.
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
    /// Draw the §3 verdicts ([`RunReport::monitor`]) over the finished
    /// run's record, after the node threads have joined: the kernel's
    /// own [`RunReport::judge`].
    pub monitor: Option<MonitorConfig>,
    /// Trace sink: node threads emit the kernel's `execute` / `deliver`
    /// / `merge.*` vocabulary and the judge emits its `txn` rows after
    /// them, so `shard-trace summarize|watch` consume live traces
    /// unchanged.
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
    /// Every delivered message with its send and merge ticks, in
    /// `(sent_at, to)` order: the kernel's send order.
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

/// Cross-thread state shared by the node threads and the coordinator.
struct Shared {
    clock: WallClock,
    /// Work outstanding, two counts in one word so that one load sees
    /// both: messages sent but not yet merged at their receiver (the
    /// word `% UNSENT`), and nodes whose strategy still has entries to
    /// offer a peer ([`Propagation::has_unsent`]; one [`UNSENT`] each).
    /// A message counts from *before* the inbox send until *after*
    /// the merge and the receiver's own unsent mark; a node's mark drops
    /// only *after* the round that emptied it has counted its sends — so
    /// zero proves the cluster is quiet.
    in_flight: AtomicU64,
    /// Transactions executed so far, across all nodes.
    executed: AtomicU64,
}

/// One node's unsent mark in [`Shared::in_flight`].
const UNSENT: u64 = 1 << 32;

/// What a node's inbox carries: update batches from its peers, then
/// — once, last — the coordinator's `Quit`.
enum Msg<A: Application> {
    Batch {
        from: NodeId,
        sent_at: SimTime,
        stamp: Stamp,
        entries: Entries<A>,
    },
    Quit,
}

/// Puts one `Quit` in every inbox when dropped: the one way a node
/// thread is told to stop. The coordinator drops it at the quiet point;
/// a panic on the calling thread drops it as the scope unwinds, so the
/// scope's join finds the node threads ending instead of parked for
/// good.
struct QuitOnDrop<'s, A: Application>(&'s [Inbox<Msg<A>>]);

impl<A: Application> Drop for QuitOnDrop<'_, A> {
    fn drop(&mut self) {
        for inbox in self.0 {
            // A dead node never drains its `Quit`; the join reports it.
            inbox.send(Msg::Quit);
        }
    }
}

/// The live [`Transport`]: sends go straight into the receiver's
/// inbox, stamped with the sender's event tick and the message's place
/// on its link.
struct InboxTransport<'s, A: Application> {
    peers: &'s [Inbox<Msg<A>>],
    shared: &'s Shared,
    rng: StdRng,
    /// The sending node's incarnation, which its stamps carry.
    incarnation: u32,
    /// Messages handed to each peer's link so far.
    sent: Vec<u32>,
    messages_sent: u64,
    entries_shipped: u64,
}

impl<A: Application> Transport<A> for InboxTransport<'_, A> {
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
        let stamp = Stamp::next(self.incarnation, &mut self.sent[usize::from(to.0)]);
        self.peers[to.0 as usize].send(Msg::Batch {
            from,
            sent_at: now,
            stamp,
            entries,
        });
    }
}

/// What one node thread hands back at join time (alongside its
/// [`Node`], whose log yields the final state and merge metrics). Its
/// transactions are not here: each went into its slot of the run's
/// record as its burst was released.
struct NodeOutcome {
    msgs: Vec<MsgRecord>,
    ticks: Vec<(SimTime, NodeId)>,
    messages_sent: u64,
    entries_shipped: u64,
    rounds: u64,
    /// Batches that came behind the `Quit` in the drain that took it.
    past_quit: usize,
}

/// One transaction's place in the run's record: empty until the node
/// that executes it releases it ([`NodeWorker::commit`]).
type Slot<A> = Option<ExecutedTxn<A>>;

/// An executed transaction of the current burst, with the update its
/// propagation sends and the slot its record is released into.
type Executed<'s, A> = (
    ExecutedTxn<A>,
    Arc<<A as Application>::Update>,
    &'s mut Slot<A>,
);

/// The state one node thread owns; split out so the delivery path is a
/// single method used from every point in the loop.
struct NodeWorker<'s, A: Application, P> {
    app: &'s A,
    node: Node<A>,
    strategy: P,
    shared: &'s Shared,
    transport: InboxTransport<'s, A>,
    inbox: &'s Inbox<Msg<A>>,
    sink: Option<&'s EventSink>,
    metrics: &'s RuntimeMetrics,
    /// Durable mirror of the node's log ([`run_live_durable`]), written
    /// by the shared replica step.
    mirror: Option<NodeMirror<A>>,
    /// Executed transactions of the current burst, waiting for the
    /// barrier that covers them.
    burst: Vec<Executed<'s, A>>,
    /// Whether this node holds its unsent mark in `Shared::in_flight`.
    unsent: bool,
    out: NodeOutcome,
}

impl<'s, A: Application, P: Propagation<A>> NodeWorker<'s, A, P> {
    /// Publishes the node's unsent mark — after every event, before the
    /// event's own count (`in_flight`, `executed`) lets the coordinator
    /// see it done.
    fn publish(&mut self) {
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
            stamp,
            entries,
        } = msg
        else {
            return false;
        };
        let now = self.shared.clock.tick();
        let sender = Sender {
            node: from,
            stamp: self.strategy.numbered_links().then_some(stamp),
        };
        self.node.deliver_step(
            self.app,
            sender,
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

    /// Executes one due submission at a fresh tick, recording its
    /// latency as that tick less its due time. What the execution makes
    /// visible waits in the burst for [`NodeWorker::commit`], which
    /// writes its record into `slot`.
    fn execute(&mut self, at_us: u64, decision: A::Decision, slot: &'s mut Slot<A>) {
        let now = self.shared.clock.tick();
        let (txn, update) =
            self.node
                .execute_step(self.app, decision, now, self.mirror.as_mut(), self.sink);
        self.metrics.latency_us.record(now.saturating_sub(at_us));
        self.burst.push((txn, update, slot));
    }

    /// Ends a burst: one barrier covers every own update it appended
    /// (a node without a mirror has none), then each of its
    /// transactions, in execution order, is released — its sends and its
    /// record (external actions included) — and last the node's unsent
    /// mark and the burst's count as executed, which come after its sends
    /// are in `in_flight`.
    fn commit(&mut self) {
        if self.burst.is_empty() {
            return;
        }
        if let Some(m) = &mut self.mirror {
            m.persist(&self.node.log, true);
        }
        let mut burst = std::mem::take(&mut self.burst);
        let released = burst.len() as u64;
        for (txn, update, slot) in burst.drain(..) {
            self.strategy.on_execute(
                self.app,
                &mut self.transport,
                &self.node,
                txn.time,
                txn.ts,
                &update,
            );
            *slot = Some(txn);
        }
        self.burst = burst;
        self.publish();
        self.shared.executed.fetch_add(released, Ordering::SeqCst);
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

    /// The thread body: see the module diagram. Each submission comes
    /// with the slot of the run's record its transaction goes into.
    fn run(
        mut self,
        subs: Vec<(u64, A::Decision)>,
        slots: &'s mut [Slot<A>],
        tick_every_us: Option<SimTime>,
    ) -> (Node<A>, NodeOutcome) {
        let mut subs = subs.into_iter().zip(slots).peekable();
        let mut next_round_us = tick_every_us;
        let mut mail = VecDeque::new();
        'run: loop {
            let mut did = 0;
            self.inbox.drain_into(&mut mail);
            while let Some(msg) = mail.pop_front() {
                if !self.deliver(msg) {
                    self.out.past_quit = mail.len();
                    break 'run;
                }
                did += 1;
            }
            for _ in 0..EXEC_BATCH {
                let Some(((at_us, decision), slot)) =
                    subs.next_if(|((at_us, _), _)| *at_us <= self.shared.clock.elapsed_us())
                else {
                    break;
                };
                did += 1;
                self.execute(at_us, decision, slot);
            }
            self.commit();
            if next_round_us.is_some_and(|at_us| at_us <= self.shared.clock.elapsed_us()) {
                self.round();
                next_round_us = tick_every_us.map(|every| self.shared.clock.elapsed_us() + every);
                did += 1;
            }
            if did == 0 {
                // Park until the next submission or round is due, or
                // for good if neither is: a batch or the `Quit` wakes
                // the node the instant it arrives.
                let due = subs.peek().map(|((at_us, _), _)| *at_us);
                self.inbox
                    .wait(due.into_iter().chain(next_round_us).min().map(|at_us| {
                        let wait = at_us.saturating_sub(self.shared.clock.elapsed_us());
                        Duration::from_micros(wait.max(1))
                    }));
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
/// a [`Placement`](shard_sim::Placement) conform; pass a
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
/// Panics if a submission names a node outside the cluster, the
/// strategy's [`Propagation::validate`] refuses the submissions, a
/// tick-driven strategy has a zero interval, or a node is sent a batch
/// past the quiet point (a strategy whose [`Propagation::has_unsent`]
/// missed what a round still sends).
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
/// mirror — own updates fsynced once per burst, before any of them is
/// propagated; received batches without a barrier — and a mirror that
/// already holds entries (a previous process's store) has its node
/// **recovered from the WAL** before the threads start, which is how a
/// live cluster restarts.
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
    // Judged as a kernel run would be, before any node executes.
    let invocations: Vec<Invocation<A::Decision>> = submissions
        .into_iter()
        .map(|s| Invocation::new(s.at_us, s.node, s.decision))
        .collect();
    strategy.validate(app, cfg.nodes, &invocations);

    // Per-node FIFO workloads, preserving submission order, each
    // allocated once at its length: a node holds its own until it ends.
    let mut counts = vec![0; n];
    for inv in &invocations {
        counts[inv.node.0 as usize] += 1;
    }
    let mut per_node: Vec<Vec<(u64, A::Decision)>> =
        counts.into_iter().map(Vec::with_capacity).collect();
    for inv in invocations {
        per_node[inv.node.0 as usize].push((inv.time, inv.decision));
    }

    let shared = Shared {
        clock: WallClock::new(),
        in_flight: AtomicU64::new(0),
        executed: AtomicU64::new(0),
    };

    // A mirror that already holds entries is a previous process's
    // store: its node restarts from it.
    let mut nodes: Vec<Node<A>> = (0..cfg.nodes)
        .map(|i| Node::new(app, NodeId(i), cfg.nodes, cfg.checkpoint_every))
        .collect();
    recover_at_start(
        app,
        &mut nodes,
        &mut mirrors,
        cfg.checkpoint_every,
        cfg.monitor.is_some(),
        cfg.sink.as_deref(),
    );
    // Every vector a node thread fills up to a count known here is
    // allocated here, on the calling thread, before any node runs (a
    // node thread's allocations come from its own malloc arena, which
    // keeps what it frees): each log for every update of the run, since
    // a log merges each at most once, and the run's record, one slot a
    // submission, each node's slots one run in the order of its own
    // submissions. Under a strategy that floods each own update to its
    // peers (numbered links), a node merges at most one message per
    // peer submission, so its list of merged messages is sized here too;
    // under gossip the count is not known, and the list grows.
    for node in &mut nodes {
        node.log.reserve(total as usize);
    }
    let mut record: Vec<Slot<A>> = Vec::with_capacity(total as usize);
    record.resize_with(total as usize, || None);
    let mut mirrors = mirrors.into_iter();

    let inboxes: Vec<Inbox<Msg<A>>> = (0..n).map(|_| Inbox::new()).collect();
    let sink = cfg.sink.as_deref();

    let outcomes: Vec<(Node<A>, NodeOutcome)> = thread::scope(|scope| {
        let shared = &shared;
        let inboxes = &inboxes;
        let metrics = &metrics;
        let mut handles = Vec::with_capacity(n);
        let mut slots = record.as_mut_slice();
        // From here on, however this closure ends, every node is told
        // to quit before the scope joins it.
        let quit = QuitOnDrop(inboxes);
        for (id, ((inbox, subs), node)) in inboxes.iter().zip(per_node).zip(nodes).enumerate() {
            let id = NodeId(id as u16);
            let incarnation = node.incarnation();
            let msgs = if strategy.numbered_links() {
                Vec::with_capacity(total as usize - subs.len())
            } else {
                Vec::new()
            };
            let (own, rest) = std::mem::take(&mut slots).split_at_mut(subs.len());
            slots = rest;
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
                transport: InboxTransport {
                    peers: inboxes,
                    shared,
                    rng: StdRng::seed_from_u64(cfg.seed ^ u64::from(id.0)),
                    incarnation,
                    sent: vec![0; n],
                    messages_sent: 0,
                    entries_shipped: 0,
                },
                inbox,
                sink,
                metrics,
                mirror: mirrors.next(),
                burst: Vec::new(),
                unsent,
                out: NodeOutcome {
                    msgs,
                    ticks: Vec::new(),
                    messages_sent: 0,
                    entries_shipped: 0,
                    rounds: 0,
                    past_quit: 0,
                },
            };
            handles.push(scope.spawn(move || worker.run(subs, own, tick_every_us)));
        }

        // Coordinator (this thread): samples the queue depth and waits
        // for the quiet point — everything executed and nothing
        // outstanding: no message unmerged, no node with unsent entries
        // (one load of `Shared::in_flight` decides). An execution
        // publishes its node's mark before it counts, so `executed` is
        // read first. A node thread that finished before its `Quit`
        // panicked: stop waiting and let the join say so.
        loop {
            let all_executed = shared.executed.load(Ordering::SeqCst) == total;
            let outstanding = shared.in_flight.load(Ordering::SeqCst);
            metrics.queue_depth.record(outstanding % UNSENT);
            if (all_executed && outstanding == 0) || handles.iter().any(|h| h.is_finished()) {
                break;
            }
            thread::park_timeout(Duration::from_micros(500));
        }
        drop(quit);
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    });
    // The quiet point held: no node was sent anything past its `Quit`.
    let mut late = VecDeque::new();
    for (id, (inbox, (_, out))) in inboxes.iter().zip(&outcomes).enumerate() {
        inbox.drain_into(&mut late);
        let count = out.past_quit + late.len();
        assert_eq!(
            count, 0,
            "node {id} was sent {count} batches past the quiet point, never merged"
        );
    }

    // A node thread ends only on its `Quit`, sent once every
    // submission executed (or after one died, which the join above
    // reported), and a transaction counts as executed only after its
    // slot is written: every slot is full. The slots are as large as the
    // records, so the record is gathered in place, in this allocation.
    let transactions = record
        .into_iter()
        .map(|slot| slot.expect("every submission executed before the quiet point"))
        .collect();
    let wall_us = shared.clock.elapsed_us();
    assemble(app, cfg, &strategy, transactions, outcomes, wall_us)
}

/// Folds the run's record and the per-node outcomes into a
/// kernel-shaped [`RunReport`] plus the recorded schedule, and judges it
/// when `cfg.monitor` is set.
fn assemble<A: Application, P: Propagation<A>>(
    app: &A,
    cfg: &RuntimeConfig,
    strategy: &P,
    transactions: Vec<ExecutedTxn<A>>,
    outcomes: Vec<(Node<A>, NodeOutcome)>,
    wall_us: u64,
) -> LiveRun<A> {
    let (nodes, mut parts): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    // The report first: it frees every node's log before the schedule's
    // lists are gathered.
    let mut report = RunReport::collect(app, strategy, nodes, transactions);
    report.messages_sent = parts.iter().map(|o| o.messages_sent).sum();
    report.entries_shipped = parts.iter().map(|o| o.entries_shipped).sum();
    report.rounds = parts.iter().map(|o| o.rounds).sum();
    let mut schedule = RecordedSchedule {
        execs: report
            .transactions
            .iter()
            .map(|t| (t.time, t.node))
            .collect(),
        msgs: concat(&mut parts, |o| &mut o.msgs),
        ticks: concat(&mut parts, |o| &mut o.ticks),
    };
    // Ticks are unique, so sorting by them is total.
    schedule.execs.sort_unstable_by_key(|(t, _)| *t);
    schedule.ticks.sort_unstable_by_key(|(t, _)| *t);
    schedule.msgs.sort_unstable_by_key(|m| (m.sent_at, m.to.0));
    let sink = cfg.sink.as_deref();
    report.monitor = cfg.monitor.as_ref().map(|m| report.judge(m, sink));
    if let Some(sink) = sink {
        sink.event("span")
            .str("name", "runtime.live.run")
            .u64("ns", wall_us.saturating_mul(1_000))
            .emit();
        sink.flush();
    }
    LiveRun {
        report,
        schedule,
        wall_us,
    }
}

/// One of the nodes' lists (merged messages, gossip rounds), gathered
/// into one allocation of the summed length. The lists are gathered one
/// after another, after the report has freed every log, and each node's
/// part is freed as soon as it is moved, so at most one list is held
/// twice, and only beside the report. The record is not among them: the
/// node threads wrote it in place.
fn concat<T>(parts: &mut [NodeOutcome], list: fn(&mut NodeOutcome) -> &mut Vec<T>) -> Vec<T> {
    let mut all = Vec::with_capacity(parts.iter_mut().map(|o| list(o).len()).sum());
    for o in parts {
        all.extend(std::mem::take(list(o)));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_apps::banking::Bank;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    /// A coordinator that panics inside the scope must fail the run, not
    /// hang it: the guard's `Quit`s reach the parked node threads, so
    /// the scope's join returns and the panic comes out. A watchdog
    /// fails the test if it does not.
    #[test]
    fn a_panicking_coordinator_still_quits_every_node() {
        let (done, outcome) = mpsc::channel();
        thread::spawn(move || {
            let inboxes: Vec<Inbox<Msg<Bank>>> = (0..2).map(|_| Inbox::new()).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                thread::scope(|scope| {
                    let _quit = QuitOnDrop(&inboxes);
                    for inbox in &inboxes {
                        scope.spawn(move || {
                            let mut mail = VecDeque::new();
                            loop {
                                inbox.drain_into(&mut mail);
                                if mail.drain(..).any(|m| matches!(m, Msg::Quit)) {
                                    return;
                                }
                                inbox.wait(None);
                            }
                        });
                    }
                    // Give the nodes time to park before the failure.
                    thread::sleep(Duration::from_millis(20));
                    panic!("the coordinator fails");
                });
            }));
            let _ = done.send(caught.is_err());
        });
        let failed = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("the scope still waits on parked node threads");
        assert!(failed, "the coordinator's panic comes out of the scope");
    }
}
