//! Node crash/recovery schedules.
//!
//! §1.2: "communication **and node failures** can cause significant
//! delays". A crashed node processes nothing: client transactions
//! submitted to it are rejected (the client must retry elsewhere —
//! SHARD's availability is per-*reachable*-node), and messages addressed
//! to it are held by the transport until it recovers. SHARD's state is
//! durable (the update log), so recovery is just "resume from the log" —
//! the merge engine needs no special repair path.

use crate::clock::NodeId;
use crate::events::SimTime;

/// One crash window: `node` is down during `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// First tick of the outage.
    pub start: SimTime,
    /// First tick after recovery.
    pub end: SimTime,
}

impl CrashWindow {
    /// Convenience constructor.
    pub fn new(node: NodeId, start: SimTime, end: SimTime) -> Self {
        CrashWindow { node, start, end }
    }
}

/// A schedule of node outages: a node's windows that overlap or touch
/// are merged as they are added, so a durable run kills and rebuilds a
/// node once per window.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashSchedule {
    windows: Vec<CrashWindow>,
}

impl CrashSchedule {
    /// No crashes.
    pub fn none() -> Self {
        CrashSchedule::default()
    }

    /// A schedule from explicit windows, pushed in order.
    pub fn new(windows: Vec<CrashWindow>) -> Self {
        let mut s = CrashSchedule::none();
        windows.into_iter().for_each(|w| s.push(w));
        s
    }

    /// Adds a window, absorbing every window of the same node that
    /// overlaps or touches it: the outage takes the first one's place.
    pub fn push(&mut self, mut w: CrashWindow) {
        let joins = |v: &CrashWindow, w: &CrashWindow| {
            v.node == w.node && v.start <= w.end && w.start <= v.end
        };
        let mut at = self.windows.len();
        while let Some(i) = self.windows.iter().position(|v| joins(v, &w)) {
            let v = self.windows.remove(i);
            (w.start, w.end, at) = (w.start.min(v.start), w.end.max(v.end), at.min(i));
        }
        self.windows.insert(at, w);
    }

    /// The scheduled outage windows.
    pub fn windows(&self) -> &[CrashWindow] {
        &self.windows
    }

    /// Whether `node` is down at time `t`.
    pub fn is_down(&self, t: SimTime, node: NodeId) -> bool {
        self.next_up(t, node) > t
    }

    /// The earliest time `≥ t` at which `node` is up: the end of the
    /// outage holding `t`, if any (outages never touch).
    pub fn next_up(&self, t: SimTime, node: NodeId) -> SimTime {
        self.windows
            .iter()
            .find(|w| w.node == node && w.start <= t && t < w.end)
            .map_or(t, |w| w.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn empty_schedule_is_always_up() {
        let s = CrashSchedule::none();
        assert!(s.windows.is_empty());
        assert!(!s.is_down(100, n(0)));
        assert_eq!(s.next_up(100, n(0)), 100);
    }

    #[test]
    fn windows_bound_the_outage() {
        let s = CrashSchedule::new(vec![CrashWindow::new(n(1), 10, 20)]);
        assert!(!s.is_down(9, n(1)));
        assert!(s.is_down(10, n(1)));
        assert!(s.is_down(19, n(1)));
        assert!(!s.is_down(20, n(1)));
        assert!(!s.is_down(15, n(0)), "other nodes unaffected");
        assert_eq!(s.next_up(15, n(1)), 20);
        assert_eq!(s.next_up(5, n(1)), 5);
    }

    /// A node's chained, nested and bridging windows become one outage
    /// where the first of them stood; another node's window keeps its
    /// place.
    #[test]
    fn chained_windows_resolve_transitively() {
        let w = |node, start, end| CrashWindow::new(n(node), start, end);
        let mut s =
            CrashSchedule::new(vec![w(0, 10, 20), w(1, 15, 25), w(0, 20, 35), w(0, 12, 18)]);
        assert_eq!(s.next_up(12, n(0)), 35);
        s.push(w(0, 40, 50));
        s.push(w(0, 35, 40));
        assert_eq!(s.windows(), [w(0, 10, 50), w(1, 15, 25)]);
    }
}
