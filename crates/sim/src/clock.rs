//! Globally unique timestamps (§1.2).
//!
//! "Transactions are totally ordered by a globally-unique timestamp
//! assignment (such as one based on local timestamps with node
//! identifiers used for tiebreaking)". We use Lamport clocks: each node
//! increments its counter on every local transaction and fast-forwards
//! it past the timestamp of every message it receives. The crucial
//! structural consequence (used by the whole reproduction): a node's
//! next timestamp is strictly larger than that of every update it knows,
//! so known sets are always *prefix* subsequences.

use std::fmt;

/// Identifier of a replica node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A globally unique transaction timestamp: Lamport counter with node-id
/// tiebreak. The derived lexicographic order is the global serial order
/// of §3.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Lamport counter value.
    pub lamport: u64,
    /// Originating node (tiebreak).
    pub node: NodeId,
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.lamport, self.node)
    }
}

/// A node's Lamport clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LamportClock {
    node: NodeId,
    counter: u64,
}

impl LamportClock {
    /// A fresh clock for `node`, starting at zero.
    pub fn new(node: NodeId) -> Self {
        LamportClock { node, counter: 0 }
    }

    /// Assigns the timestamp for a new local transaction: increments the
    /// counter and stamps it with this node's id.
    pub fn tick(&mut self) -> Timestamp {
        self.counter += 1;
        Timestamp {
            lamport: self.counter,
            node: self.node,
        }
    }

    /// Observes a remote timestamp: fast-forwards the counter so the next
    /// local timestamp exceeds it.
    pub fn observe(&mut self, ts: Timestamp) {
        self.counter = self.counter.max(ts.lamport);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_produces_increasing_timestamps() {
        let mut c = LamportClock::new(NodeId(1));
        let a = c.tick();
        let b = c.tick();
        assert!(a < b);
        assert_eq!(a.node, NodeId(1));
        assert_eq!(b.lamport, 2);
    }

    #[test]
    fn observe_fast_forwards() {
        let mut c = LamportClock::new(NodeId(0));
        c.observe(Timestamp {
            lamport: 41,
            node: NodeId(3),
        });
        let t = c.tick();
        assert_eq!(t.lamport, 42);
        // Observing an older timestamp never rewinds.
        c.observe(Timestamp {
            lamport: 5,
            node: NodeId(3),
        });
        assert!(c.tick().lamport > 42);
    }

    #[test]
    fn node_id_breaks_ties() {
        let a = Timestamp {
            lamport: 7,
            node: NodeId(0),
        };
        let b = Timestamp {
            lamport: 7,
            node: NodeId(1),
        };
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn next_local_timestamp_exceeds_everything_observed() {
        // The structural prefix-subsequence guarantee.
        let mut c = LamportClock::new(NodeId(2));
        let observed = [
            Timestamp {
                lamport: 3,
                node: NodeId(0),
            },
            Timestamp {
                lamport: 9,
                node: NodeId(1),
            },
            Timestamp {
                lamport: 6,
                node: NodeId(4),
            },
        ];
        for ts in observed {
            c.observe(ts);
        }
        let next = c.tick();
        assert!(observed.iter().all(|ts| *ts < next));
    }

    #[test]
    fn display_formats() {
        let t = Timestamp {
            lamport: 12,
            node: NodeId(3),
        };
        assert_eq!(t.to_string(), "12@n3");
        assert_eq!(NodeId(3).to_string(), "n3");
    }
}
