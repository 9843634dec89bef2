//! Seeded, composable fault injection for the kernel [`Runner`].
//!
//! The paper's §3.1 counterexamples are *message patterns*: a lost
//! message defeats transitivity, a long-isolated node defeats
//! k-completeness, a late delivery defeats t-bounded delay. The
//! pre-scripted [`crate::partition::PartitionSchedule`] /
//! [`crate::crash::CrashSchedule`] / [`crate::delay::DelayModel`] knobs
//! can *reproduce* those patterns by hand; this module *searches* for
//! them. A [`Nemesis`] sits between [`Transport::send`] and the event
//! queue and rewrites each message's delivery — dropping it, duplicating
//! it, or delaying it past later traffic (adversarial reordering) — and
//! may inject randomly jittered partition and crash windows at run
//! start. Because the hook lives in the kernel transport, every
//! [`Propagation`] strategy (eager broadcast, gossip, partial
//! replication, their composition) gets faults uniformly.
//!
//! Three layers:
//!
//! * **Injectors** — [`MessageDropper`], [`MessageDuplicator`],
//!   [`MessageReorderer`], [`PartitionJitter`], [`CrashInjector`], each
//!   with its own seeded RNG (independent of the kernel's delay RNG, so
//!   enabling a nemesis never perturbs the fault-free schedule), stacked
//!   with [`NemesisStack`].
//! * **Recording** — the kernel transport differences every fate
//!   against its fault-free delivery ([`fate_faults`]) and reports the
//!   faults *actually* applied, in canonical form, as
//!   [`RunReport::faults`](crate::RunReport::faults).
//! * **Replay & shrinking** — [`ScheduledNemesis`] replays an explicit
//!   [`FaultEvent`] list verbatim, and [`shrink`] delta-debugs a
//!   violating schedule down to a locally minimal one: the mechanical
//!   analogue of the paper's hand-built §3.1 counterexamples.
//!
//! Replay determinism: a [`ScheduledNemesis`] keys per-message faults by
//! the kernel's send sequence number, so replay is exact whenever the
//! *send* schedule is fate-independent. That holds for reactive
//! strategies ([`crate::EagerBroadcast`]: sends happen only at
//! executions, and executions are client invocations); tick-driven
//! strategies send what was *delivered* on, so their send sequence can
//! drift under a different fault schedule — shrink against eager
//! broadcast.
//!
//! Termination: every run ends, under every strategy. A dropped message
//! is a permanent loss, outside the link's contract, and its sender
//! never re-sends it (the paper's conditions describe what survives):
//! eager broadcast schedules no retries, and gossip's cursor moved when
//! the batch was handed over. The run stops when nothing is left to
//! offer and [`RunReport::missing`](crate::RunReport::missing) names
//! what never arrived. Injected windows are finite, so nothing waits
//! in a link for ever.
//!
//! [`Runner`]: crate::Runner
//! [`Transport::send`]: crate::Transport::send
//! [`Propagation`]: crate::Propagation

use crate::clock::NodeId;
use crate::crash::CrashWindow;
use crate::events::SimTime;
use crate::partition::PartitionWindow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Everything a [`Nemesis`] knows about one in-flight message.
#[derive(Clone, Copy, Debug)]
pub struct MsgCtx {
    /// Kernel-assigned send sequence number (1-based, in send order) —
    /// the key [`ScheduledNemesis`] replays faults by.
    pub seq: u64,
    /// Send time.
    pub now: SimTime,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The fault-free delivery time the kernel computed (partition wait
    /// plus one sampled delay).
    pub at: SimTime,
}

/// What becomes of one message: the list of times at which a copy is
/// delivered. Starts as the single fault-free arrival; an empty list is
/// a drop, two or more entries are duplicates. List-shaped so stacked
/// nemeses compose: a duplicator pushes arrivals, a reorderer shifts
/// them, a dropper clears them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fate {
    /// Delivery times of each surviving copy (unordered).
    pub times: Vec<SimTime>,
}

impl Fate {
    /// The fault-free fate: one copy, delivered at `at`.
    pub fn deliver(at: SimTime) -> Self {
        Fate { times: vec![at] }
    }

    /// Whether every copy has been dropped.
    pub fn is_dropped(&self) -> bool {
        self.times.is_empty()
    }

    /// The earliest surviving delivery, if any.
    pub fn primary(&self) -> Option<SimTime> {
        self.times.iter().copied().min()
    }
}

/// Fault windows a nemesis asks the kernel to add to the run's
/// partition/crash schedules before the event loop starts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Injected {
    /// Partition windows to merge into the schedule.
    pub partitions: Vec<PartitionWindow>,
    /// Crash windows to merge into the schedule.
    pub crashes: Vec<CrashWindow>,
}

/// A fault injector plugged into the kernel transport via
/// [`Runner::with_nemesis`](crate::Runner::with_nemesis).
///
/// Both methods have pass-through defaults, so an injector implements
/// only the layer it perturbs. Implementations that randomize should
/// own a seeded RNG (see [`MessageDropper::new`]) rather than drawing
/// from the kernel's: the kernel RNG stream must be identical with and
/// without a nemesis so fault-free runs stay bit-for-bit reproducible.
pub trait Nemesis {
    /// Short name used in traces and reports.
    fn label(&self) -> &'static str;

    /// Rewrites the fate of one message. Called once per
    /// [`Transport::send`](crate::Transport::send); the default
    /// leaves the fault-free fate untouched. The §3.3 barrier's
    /// Probe/Promise control messages do not pass through here — they
    /// are not updates, and losing them could wedge a critical
    /// transaction forever, which the paper's model excludes.
    fn on_message(&mut self, _ctx: &MsgCtx, _fate: &mut Fate) {}

    /// Asked once at run start for partition/crash windows to add,
    /// given the cluster size and the invocation horizon (the latest
    /// submission time). The default injects nothing.
    fn inject(&mut self, _nodes: u16, _horizon: SimTime) -> Injected {
        Injected::default()
    }
}

/// Drops each message with probability `prob`.
pub struct MessageDropper {
    prob: f64,
    rng: StdRng,
}

impl MessageDropper {
    /// A dropper with its own RNG stream.
    pub fn new(prob: f64, seed: u64) -> Self {
        MessageDropper {
            prob,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Nemesis for MessageDropper {
    fn label(&self) -> &'static str {
        "drop"
    }

    fn on_message(&mut self, _ctx: &MsgCtx, fate: &mut Fate) {
        // Draw per message regardless of the current fate so stacking
        // order does not change which messages later layers see hit.
        if self.rng.random_bool(self.prob) {
            fate.times.clear();
        }
    }
}

/// Duplicates each message with probability `prob`: 1..=`max_extra`
/// additional copies, each arriving up to `spread` ticks after the
/// fault-free time. Duplicates exercise the merge log's idempotence
/// (a re-delivered `(timestamp, update)` entry must be a no-op).
pub struct MessageDuplicator {
    prob: f64,
    max_extra: u32,
    spread: SimTime,
    rng: StdRng,
}

impl MessageDuplicator {
    /// A duplicator with its own RNG stream.
    pub fn new(prob: f64, max_extra: u32, spread: SimTime, seed: u64) -> Self {
        assert!(max_extra >= 1, "duplicating zero extra copies is a no-op");
        assert!(spread >= 1, "duplicates need a positive arrival spread");
        MessageDuplicator {
            prob,
            max_extra,
            spread,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Nemesis for MessageDuplicator {
    fn label(&self) -> &'static str {
        "duplicate"
    }

    fn on_message(&mut self, ctx: &MsgCtx, fate: &mut Fate) {
        if !self.rng.random_bool(self.prob) {
            return;
        }
        let extra = self.rng.random_range(1..=self.max_extra);
        for _ in 0..extra {
            let after = self.rng.random_range(1..=self.spread);
            if !fate.is_dropped() {
                fate.times.push(ctx.at + after);
            }
        }
    }
}

/// Delays each message with probability `prob` by an extra
/// `min..=max` ticks — *adversarial reordering*, beyond what the run's
/// [`DelayModel`](crate::DelayModel) produces: a hit message arrives
/// after traffic sent well after it, which is exactly the arrival
/// pattern the undo/redo merge and the §3.1 conditions must absorb.
pub struct MessageReorderer {
    prob: f64,
    min: SimTime,
    max: SimTime,
    rng: StdRng,
}

impl MessageReorderer {
    /// A reorderer with its own RNG stream.
    pub fn new(prob: f64, min: SimTime, max: SimTime, seed: u64) -> Self {
        assert!(min >= 1 && max >= min, "need 1 <= min <= max extra delay");
        MessageReorderer {
            prob,
            min,
            max,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Nemesis for MessageReorderer {
    fn label(&self) -> &'static str {
        "reorder"
    }

    fn on_message(&mut self, _ctx: &MsgCtx, fate: &mut Fate) {
        if !self.rng.random_bool(self.prob) {
            return;
        }
        let by = self.rng.random_range(self.min..=self.max);
        for t in &mut fate.times {
            *t += by;
        }
    }
}

/// Injects `count` partition windows at jittered times: each isolates a
/// random island of up to half the nodes for a random `min_len..=max_len`
/// ticks somewhere in the invocation horizon. Windows are finite, so the
/// network always heals.
pub struct PartitionJitter {
    count: u32,
    min_len: SimTime,
    max_len: SimTime,
    rng: StdRng,
}

impl PartitionJitter {
    /// A partition injector with its own RNG stream.
    pub fn new(count: u32, min_len: SimTime, max_len: SimTime, seed: u64) -> Self {
        assert!(min_len >= 1 && max_len >= min_len, "need 1 <= min <= max");
        PartitionJitter {
            count,
            min_len,
            max_len,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Nemesis for PartitionJitter {
    fn label(&self) -> &'static str {
        "partition"
    }

    fn inject(&mut self, nodes: u16, horizon: SimTime) -> Injected {
        let mut inj = Injected::default();
        if nodes < 2 {
            return inj;
        }
        for _ in 0..self.count {
            let start = self.rng.random_range(0..=horizon);
            let len = self.rng.random_range(self.min_len..=self.max_len);
            let island_size = self.rng.random_range(1..=(nodes / 2).max(1));
            let mut island = Vec::with_capacity(island_size as usize);
            while island.len() < island_size as usize {
                let n = NodeId(self.rng.random_range(0..nodes));
                if !island.contains(&n) {
                    island.push(n);
                }
            }
            inj.partitions
                .push(PartitionWindow::isolate(start, start + len, island));
        }
        inj
    }
}

/// Injects `count` crash-with-recovery windows: a random node is down
/// for a random `min_len..=max_len` ticks. The kernel rejects client
/// transactions at a crashed node and holds its incoming messages until
/// recovery, so every window doubles as a burst of extreme delay. What a
/// window destroys is the run's choice, not the injector's: with a
/// durable fleet attached ([`crate::Runner::with_durability`]) it is a
/// real kill/recover cycle — a power cut on the node's store at window
/// start (the unsynced tail may be lost, possibly mid-record), a rebuild
/// from the surviving WAL at window end — and without one the node keeps
/// its RAM.
pub struct CrashInjector {
    count: u32,
    min_len: SimTime,
    max_len: SimTime,
    rng: StdRng,
}

impl CrashInjector {
    /// A crash injector with its own RNG stream.
    pub fn new(count: u32, min_len: SimTime, max_len: SimTime, seed: u64) -> Self {
        assert!(min_len >= 1 && max_len >= min_len, "need 1 <= min <= max");
        CrashInjector {
            count,
            min_len,
            max_len,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Nemesis for CrashInjector {
    fn label(&self) -> &'static str {
        "crash"
    }

    fn inject(&mut self, nodes: u16, horizon: SimTime) -> Injected {
        let mut inj = Injected::default();
        for _ in 0..self.count {
            let node = NodeId(self.rng.random_range(0..nodes));
            let start = self.rng.random_range(0..=horizon);
            let len = self.rng.random_range(self.min_len..=self.max_len);
            inj.crashes.push(CrashWindow::new(node, start, start + len));
        }
        inj
    }
}

/// Stacks nemeses: each message's fate is folded through every layer in
/// order, and injected windows are concatenated. Layer order matters for
/// per-message faults (a duplicator after a dropper never revives a
/// dropped message; a reorderer after a duplicator shifts the duplicates
/// too).
#[derive(Default)]
pub struct NemesisStack {
    layers: Vec<Box<dyn Nemesis>>,
}

impl NemesisStack {
    /// An empty stack (a pass-through nemesis).
    pub fn new() -> Self {
        NemesisStack::default()
    }

    /// Adds a layer at the bottom of the stack (applied after the
    /// layers already present).
    #[must_use]
    pub fn with(mut self, layer: Box<dyn Nemesis>) -> Self {
        self.layers.push(layer);
        self
    }
}

impl Nemesis for NemesisStack {
    fn label(&self) -> &'static str {
        "stack"
    }

    fn on_message(&mut self, ctx: &MsgCtx, fate: &mut Fate) {
        for layer in &mut self.layers {
            layer.on_message(ctx, fate);
        }
    }

    fn inject(&mut self, nodes: u16, horizon: SimTime) -> Injected {
        let mut all = Injected::default();
        for layer in &mut self.layers {
            let inj = layer.inject(nodes, horizon);
            all.partitions.extend(inj.partitions);
            all.crashes.extend(inj.crashes);
        }
        all
    }
}

/// One applied fault, in canonical form. Message faults are keyed by
/// the kernel send sequence number and expressed *relative* to the
/// fault-free delivery time, so a recorded schedule stays meaningful
/// while [`shrink`] removes other events (removing a partition window
/// shifts absolute delivery times; offsets survive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Message `msg` was dropped (every copy).
    Drop {
        /// Send sequence number of the affected message.
        msg: u64,
    },
    /// Message `msg`'s surviving copy was delayed `by` ticks past its
    /// fault-free arrival.
    Delay {
        /// Send sequence number of the affected message.
        msg: u64,
        /// Extra delay in ticks.
        by: SimTime,
    },
    /// An extra copy of message `msg` was delivered `after` ticks past
    /// its fault-free arrival.
    Duplicate {
        /// Send sequence number of the affected message.
        msg: u64,
        /// Arrival offset of the extra copy, in ticks.
        after: SimTime,
    },
    /// A partition window was injected.
    Partition {
        /// The injected window.
        window: PartitionWindow,
    },
    /// A crash window was injected.
    Crash {
        /// The injected window.
        window: CrashWindow,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Drop { msg } => write!(f, "drop msg #{msg}"),
            FaultEvent::Delay { msg, by } => write!(f, "delay msg #{msg} by {by}"),
            FaultEvent::Duplicate { msg, after } => {
                write!(f, "duplicate msg #{msg} (+{after})")
            }
            FaultEvent::Partition { window } => {
                let nodes: Vec<String> = window
                    .groups
                    .iter()
                    .flatten()
                    .map(ToString::to_string)
                    .collect();
                write!(
                    f,
                    "partition {{{}}} during [{}, {})",
                    nodes.join(","),
                    window.start,
                    window.end
                )
            }
            FaultEvent::Crash { window } => write!(
                f,
                "crash node {} during [{}, {})",
                window.node, window.start, window.end
            ),
        }
    }
}

/// The one fate→fault canonicaliser: `fate` differenced against the
/// fault-free delivery at `ctx.at`. Whatever a nemesis stack did to a
/// message collapses to one [`FaultEvent::Drop`], or at most one
/// [`FaultEvent::Delay`] (the earliest surviving copy — the *primary* —
/// is not at `ctx.at`) followed by a [`FaultEvent::Duplicate`] per
/// further copy in arrival order; copies sharing the primary's time
/// count as duplicates from the second on. Empty for an untouched fate.
/// The kernel transport calls this once per send and keeps the result
/// as the run's fault ledger ([`crate::RunReport::faults`]), the form
/// [`ScheduledNemesis`] replays.
pub fn fate_faults(ctx: &MsgCtx, fate: &Fate) -> Vec<FaultEvent> {
    let (msg, on_time) = (ctx.seq, fate.primary() == Some(ctx.at));
    if on_time && fate.times.len() == 1 {
        return Vec::new();
    }
    let mut offsets: Vec<SimTime> = (fate.times.iter())
        .map(|t| t.saturating_sub(ctx.at))
        .collect();
    offsets.sort_unstable();
    let Some((&by, extras)) = offsets.split_first() else {
        return vec![FaultEvent::Drop { msg }];
    };
    let delay = (!on_time).then_some(FaultEvent::Delay { msg, by });
    let duplicates = extras
        .iter()
        .map(|&after| FaultEvent::Duplicate { msg, after });
    delay.into_iter().chain(duplicates).collect()
}

#[derive(Clone, Debug, Default)]
struct MsgFault {
    drop: bool,
    delay_by: Option<SimTime>,
    dups: Vec<SimTime>,
}

/// Replays an explicit [`FaultEvent`] schedule verbatim: deterministic,
/// RNG-free, keyed by message sequence number. This is the nemesis
/// [`shrink`] re-runs candidates through — see the module docs for when
/// replay is exact.
#[derive(Clone, Debug, Default)]
pub struct ScheduledNemesis {
    msgs: BTreeMap<u64, MsgFault>,
    injected: Injected,
}

impl ScheduledNemesis {
    /// A nemesis replaying exactly `events`.
    pub fn new(events: &[FaultEvent]) -> Self {
        let mut s = ScheduledNemesis::default();
        for e in events {
            match e {
                FaultEvent::Drop { msg } => s.msgs.entry(*msg).or_default().drop = true,
                FaultEvent::Delay { msg, by } => {
                    s.msgs.entry(*msg).or_default().delay_by = Some(*by);
                }
                FaultEvent::Duplicate { msg, after } => {
                    s.msgs.entry(*msg).or_default().dups.push(*after);
                }
                FaultEvent::Partition { window } => s.injected.partitions.push(window.clone()),
                FaultEvent::Crash { window } => s.injected.crashes.push(*window),
            }
        }
        s
    }
}

impl Nemesis for ScheduledNemesis {
    fn label(&self) -> &'static str {
        "scheduled"
    }

    fn on_message(&mut self, ctx: &MsgCtx, fate: &mut Fate) {
        let Some(f) = self.msgs.get(&ctx.seq) else {
            return;
        };
        if f.drop {
            fate.times.clear();
            return;
        }
        fate.times = vec![ctx.at + f.delay_by.unwrap_or(0)];
        for after in &f.dups {
            fate.times.push(ctx.at + after);
        }
    }

    fn inject(&mut self, _nodes: u16, _horizon: SimTime) -> Injected {
        self.injected.clone()
    }
}

/// Delta-debugs a violating fault schedule down to a locally minimal
/// one: repeatedly removes chunks of halving size, keeping any removal
/// after which `reproduces` still reports the violation, until no single
/// event can be removed (1-minimality). `reproduces` is typically "run
/// [`ScheduledNemesis`] over the candidate and re-check the oracle";
/// note the oracle asks for *a* violation, not the identical one — like
/// ddmin, the result is a minimal violating schedule, which is what a
/// counterexample is.
pub fn shrink(
    events: &[FaultEvent],
    mut reproduces: impl FnMut(&[FaultEvent]) -> bool,
) -> Vec<FaultEvent> {
    let mut current = events.to_vec();
    let mut chunk = current.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.len() {
            let hi = (i + chunk).min(current.len());
            let candidate: Vec<FaultEvent> =
                current[..i].iter().chain(&current[hi..]).cloned().collect();
            if reproduces(&candidate) {
                current = candidate;
                removed_any = true;
            } else {
                i = hi;
            }
        }
        if chunk == 1 {
            if !removed_any {
                return current;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seq: u64, at: SimTime) -> MsgCtx {
        MsgCtx {
            seq,
            now: 0,
            from: NodeId(0),
            to: NodeId(1),
            at,
        }
    }

    #[test]
    fn dropper_is_seeded_and_probabilistic() {
        let mut d = MessageDropper::new(0.5, 7);
        let fates: Vec<bool> = (0..100)
            .map(|i| {
                let mut f = Fate::deliver(10);
                d.on_message(&ctx(i, 10), &mut f);
                f.is_dropped()
            })
            .collect();
        let drops = fates.iter().filter(|b| **b).count();
        assert!(drops > 20 && drops < 80, "≈half drop, got {drops}");
        // Same seed, same fates.
        let mut d2 = MessageDropper::new(0.5, 7);
        let again: Vec<bool> = (0..100)
            .map(|i| {
                let mut f = Fate::deliver(10);
                d2.on_message(&ctx(i, 10), &mut f);
                f.is_dropped()
            })
            .collect();
        assert_eq!(fates, again);
    }

    #[test]
    fn duplicator_adds_copies_after_the_original() {
        let mut d = MessageDuplicator::new(1.0, 2, 5, 3);
        let mut f = Fate::deliver(100);
        d.on_message(&ctx(1, 100), &mut f);
        assert!(f.times.len() >= 2, "at least one extra copy");
        assert_eq!(f.primary(), Some(100), "the original copy survives");
        assert!(f.times.iter().all(|t| (100..=105).contains(t)));
    }

    #[test]
    fn reorderer_shifts_every_copy() {
        let mut r = MessageReorderer::new(1.0, 10, 10, 3);
        let mut f = Fate {
            times: vec![50, 60],
        };
        r.on_message(&ctx(1, 50), &mut f);
        assert_eq!(f.times, vec![60, 70]);
    }

    #[test]
    fn jitter_windows_are_finite_and_in_range() {
        let mut p = PartitionJitter::new(4, 10, 50, 11);
        let inj = p.inject(5, 1000);
        assert_eq!(inj.partitions.len(), 4);
        for w in &inj.partitions {
            assert!(w.end > w.start);
            assert!(w.end - w.start >= 10 && w.end - w.start <= 50);
            let island = &w.groups[0];
            assert!(!island.is_empty() && island.len() <= 2, "≤ half of 5");
        }
        let mut c = CrashInjector::new(3, 5, 20, 11);
        let inj = c.inject(5, 1000);
        assert_eq!(inj.crashes.len(), 3);
        assert!(inj.crashes.iter().all(|w| w.end > w.start && w.node.0 < 5));
    }

    #[test]
    fn stack_composes_in_order() {
        let mut s = NemesisStack::new()
            .with(Box::new(MessageDuplicator::new(1.0, 1, 1, 1)))
            .with(Box::new(MessageReorderer::new(1.0, 10, 10, 2)));
        let mut f = Fate::deliver(100);
        s.on_message(&ctx(1, 100), &mut f);
        // Duplicated first (100, 101), then both shifted by 10.
        assert_eq!(f.times, vec![110, 111]);
    }

    #[test]
    fn fate_faults_canonicalizes_and_scheduled_replays() {
        let dup = |after| FaultEvent::Duplicate { msg: 9, after };
        let delay = |by| FaultEvent::Delay { msg: 9, by };
        let cases: [(&[SimTime], Vec<FaultEvent>); 5] = [
            (&[100], vec![]),
            (&[], vec![FaultEvent::Drop { msg: 9 }]),
            // Two copies at the primary time: the second is a duplicate
            // at offset 0, listed before the later copies.
            (&[107, 100, 103, 100], vec![dup(0), dup(3), dup(7)]),
            (&[130, 112, 112], vec![delay(12), dup(12), dup(30)]),
            // A copy moved *before* the fault-free time is a zero delay.
            (&[90], vec![delay(0)]),
        ];
        for (times, canonical) in cases {
            let fate = Fate {
                times: times.to_vec(),
            };
            assert_eq!(fate_faults(&ctx(9, 100), &fate), canonical);
            // Replaying the canonical form reproduces the fate (an early
            // copy lands on time: a schedule only ever adds delay).
            let mut replayed = Fate::deliver(100);
            ScheduledNemesis::new(&canonical).on_message(&ctx(9, 100), &mut replayed);
            let mut want: Vec<SimTime> = times.iter().map(|t| *t.max(&100)).collect();
            want.sort_unstable();
            replayed.times.sort_unstable();
            assert_eq!(replayed.times, want);
        }
    }

    #[test]
    fn shrink_finds_the_minimal_subset() {
        // The "violation" needs drop #3 and drop #7 together.
        let events: Vec<FaultEvent> = (1..=10).map(|msg| FaultEvent::Drop { msg }).collect();
        let needs = |c: &[FaultEvent]| {
            c.contains(&FaultEvent::Drop { msg: 3 }) && c.contains(&FaultEvent::Drop { msg: 7 })
        };
        let min = shrink(&events, needs);
        assert_eq!(
            min,
            vec![FaultEvent::Drop { msg: 3 }, FaultEvent::Drop { msg: 7 }]
        );
    }

    #[test]
    fn shrink_handles_single_and_empty_causes() {
        let events = vec![
            FaultEvent::Drop { msg: 1 },
            FaultEvent::Delay { msg: 2, by: 50 },
        ];
        let min = shrink(&events, |c| c.contains(&FaultEvent::Drop { msg: 1 }));
        assert_eq!(min, vec![FaultEvent::Drop { msg: 1 }]);
        // If the violation reproduces with no faults at all, the
        // minimal schedule is empty.
        assert!(shrink(&events, |_| true).is_empty());
    }

    #[test]
    fn fault_events_render() {
        let d = FaultEvent::Delay { msg: 4, by: 30 };
        assert_eq!(d.to_string(), "delay msg #4 by 30");
        let p = FaultEvent::Partition {
            window: PartitionWindow::isolate(5, 25, vec![NodeId(2)]),
        };
        assert_eq!(p.to_string(), "partition {n2} during [5, 25)");
    }
}
