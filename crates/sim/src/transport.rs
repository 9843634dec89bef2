//! The delivery seam, [`Transport`], and the live deployment's
//! [`WallClock`].
//!
//! What a replica *does* — `Node`, `MergeLog`, the traced, durable
//! replica step ([`crate::kernel::Node::execute_step`] and friends),
//! [`Propagation`](crate::Propagation), `LiveMonitor` — is written once
//! and runs in two instantiations that differ only in how messages
//! travel and where event times come from:
//!
//! * **Simulation** — the kernel's queue-backed transport
//!   ([`crate::kernel::QueueTransport`]); an event's time is the time
//!   it was scheduled for. Deterministic, seeded, single-threaded.
//! * **Live deployment** — an inbox-backed transport (the
//!   `shard-runtime` crate): one OS thread per node, each draining and
//!   parking on its own inbox; an event's time is a
//!   [`WallClock`] tick.
//!
//! The wall clock's tick discipline is what makes live runs replayable:
//! every event (execution, delivery, anti-entropy round) draws a tick
//! that is *strictly greater than every tick drawn before it anywhere in
//! the process*, so the recorded schedule totally orders the run and the
//! kernel can reproduce it exactly (see `shard-runtime`'s replay
//! module).

use crate::clock::NodeId;
use crate::events::SimTime;
use crate::kernel::Entries;
use rand::rngs::StdRng;
use shard_core::Application;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic wall-clock time in microseconds since construction, with
/// **globally unique, strictly increasing** ticks: every call to
/// [`WallClock::tick`] returns `max(elapsed_µs, last) + 1`, whatever
/// thread calls it. Two properties follow:
///
/// * ticks totally order all events in a live run (no two events share
///   a time), and
/// * the order is consistent with real time at microsecond resolution
///   (bursts within one microsecond are serialized by the atomic).
///
/// Shared across node threads behind an `Arc`; `tick` takes `&self`.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
    last: AtomicU64,
}

impl WallClock {
    /// A clock starting now, at tick zero.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
            last: AtomicU64::new(0),
        }
    }

    /// Draws the next unique tick (strictly greater than every tick any
    /// thread has drawn before).
    pub fn tick(&self) -> SimTime {
        let elapsed = self.start.elapsed().as_micros() as u64;
        let prev = self
            .last
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |last| {
                Some(last.max(elapsed) + 1)
            })
            .expect("fetch_update closure never returns None");
        prev.max(elapsed) + 1
    }

    /// Microseconds elapsed since construction (not unique — use for
    /// pacing, not for event ordering).
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

/// How update messages travel between replicas — the seam between the
/// shared replica logic and the deployment. A
/// [`Propagation`](crate::Propagation) strategy sends through this
/// trait only, so the same strategy drives the simulator's event queue
/// ([`crate::kernel::QueueTransport`]: partition waits, sampled delays,
/// nemesis fate rewriting) and `shard-runtime`'s per-node inboxes
/// between OS threads.
pub trait Transport<A: Application> {
    /// Number of nodes reachable through this transport.
    fn nodes(&self) -> u16;

    /// Ships `entries` from `from` to `to`, to be merged at the
    /// receiver by the shared deliver step
    /// ([`crate::kernel::Node::deliver_step`]). The link owns
    /// reliability: barring permanent failure the message arrives,
    /// however long a partition or the receiver's outage holds it.
    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, entries: Entries<A>);

    /// The deterministic RNG stream strategies draw from (e.g. gossip
    /// partner selection). The simulator hands out the run's seeded
    /// kernel RNG; live transports hand out a per-node seeded stream.
    fn rng(&mut self) -> &mut StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_ticks_are_unique_and_increasing() {
        let c = WallClock::new();
        let mut last = 0;
        for _ in 0..10_000 {
            let t = c.tick();
            assert!(t > last, "strictly increasing");
            last = t;
        }
    }

    #[test]
    fn wall_clock_ticks_are_unique_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(WallClock::new());
        let mut all: Vec<SimTime> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    s.spawn(move || (0..5_000).map(|_| c.tick()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tick thread"))
                .collect()
        });
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no two threads ever share a tick");
    }
}
