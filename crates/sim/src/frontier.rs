//! A node's stability frontier: a timestamp below which it will never
//! again be sent an update it has not merged.
//!
//! The transport numbers the messages of each directed link, from 0, and
//! stamps each with its sender's incarnation ([`Stamp`]). Under a
//! strategy whose links carry only their sender's own updates, each
//! message's above the last's ([`Propagation::numbered_links`]: the
//! default flood of eager broadcast and of partial replication), a
//! receiver that has every message of a link up to some number has
//! every update that link will ever carry up to the largest timestamp
//! among them, `T_s`: any later message carries later updates of the
//! same sender. Its frontier is the least `T_s` over its peers: every
//! update it merges from now on sorts above it — its peers' by the
//! above, its own because its clock has passed every `T_s`. The merge
//! log then retires the history below it ([`MergeLog::retire_below`]).
//!
//! The frontier errs only low:
//!
//! * a duplicated number is ignored, and a hole — a message delayed, or
//!   dropped for good — holds the link's `T_s` below it until it fills;
//!   while arrivals wait behind a second hole, a filled one raises
//!   `T_s` only to its filler's timestamp;
//! * while some peer has sent nothing numbered, there is no frontier;
//! * a stamp of another sender incarnation freezes the link's `T_s` for
//!   the rest of the run: a message of the old incarnation may still be
//!   in flight, and the new one numbers afresh;
//! * a node rebuilt from its store starts a frontier that tracks
//!   nothing, so it retires nothing: what it merged before its restart
//!   may be partly lost, and its links' numbers are not known.
//!
//! [`Propagation::numbered_links`]: crate::Propagation::numbered_links
//! [`MergeLog::retire_below`]: crate::MergeLog::retire_below

use crate::clock::{NodeId, Timestamp};

/// Where a message stands on its directed link: its sender's
/// incarnation ([`crate::Known::incarnation`]) and how many messages the
/// transport had handed the link before it. A link that has used up its
/// numbers stamps [`u32::MAX`] from then on, which freezes it at its
/// receiver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stamp {
    /// The sender's incarnation when it sent the message.
    pub incarnation: u32,
    /// The message's number on its link, from 0.
    pub seq: u32,
}

impl Stamp {
    /// The stamp for the next message on a link that has handed out
    /// `*sent` numbers, counting it.
    pub fn next(incarnation: u32, sent: &mut u32) -> Stamp {
        let seq = *sent;
        *sent = sent.saturating_add(1);
        Stamp { incarnation, seq }
    }
}

/// Who sent a delivered batch: the peer, and the batch's [`Stamp`] if
/// it came over a numbered link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sender {
    /// The sending node.
    pub node: NodeId,
    /// Where the batch stood on its link; `None` for an unnumbered
    /// message, which bounds nothing.
    pub stamp: Option<Stamp>,
}

/// Sorts below every timestamp a clock draws (they start at 1): a link
/// that bounds nothing yet.
const NONE: Timestamp = Timestamp {
    lamport: 0,
    node: NodeId(0),
};

/// How many arrivals more than 128 numbers past a hole a link keeps
/// aside. That many most likely means a dropped message, which never
/// fills the hole; the link then freezes, and its later messages cost
/// nothing to track.
const MAX_FAR: usize = 4096;

/// What a node has heard on one link.
#[derive(Clone, Debug)]
struct Link {
    /// The sender incarnation whose numbers are tracked.
    incarnation: u32,
    /// Every message numbered below `next` has arrived.
    next: u32,
    /// The link's `T_s`, at or below the largest timestamp those
    /// messages carried ([`NONE`] before the first).
    bound: Timestamp,
    /// Bit `k`: message `next + k` has arrived (bit 0, the first hole,
    /// is never left set).
    early: u128,
    /// The largest timestamp among the arrivals `early` and `far` mark.
    early_top: Timestamp,
    /// Arrivals 128 or more numbers past `next`: (number, timestamp).
    far: Vec<(u32, Timestamp)>,
    /// `bound` stays as it is for the rest of the run.
    frozen: bool,
}

impl Default for Link {
    fn default() -> Self {
        Link {
            incarnation: 0,
            next: 0,
            bound: NONE,
            early: 0,
            early_top: NONE,
            far: Vec::new(),
            frozen: false,
        }
    }
}

impl Link {
    fn freeze(&mut self) {
        self.frozen = true;
        self.far = Vec::new();
    }

    fn note(&mut self, stamp: Stamp, top: Timestamp) {
        if self.frozen {
            return;
        }
        if stamp.incarnation != self.incarnation || stamp.seq == u32::MAX {
            return self.freeze();
        }
        // A number already past: a copy.
        let Some(ahead) = stamp.seq.checked_sub(self.next) else {
            return;
        };
        if ahead > 0 {
            self.early_top = self.early_top.max(top);
            if ahead < 128 {
                self.early |= 1 << ahead;
            } else if self.far.len() < MAX_FAR {
                self.far.push((stamp.seq, top));
            } else {
                self.freeze();
            }
            return;
        }
        // The first hole fills, and with it every run of arrivals behind
        // it up to the next hole.
        self.bound = self.bound.max(top);
        self.early |= 1;
        while self.early & 1 == 1 {
            let run = self.early.trailing_ones();
            self.next += run;
            self.early = if run == 128 { 0 } else { self.early >> run };
            if !self.far.is_empty() {
                let next = self.next;
                let mut early = self.early;
                self.far.retain(|&(seq, _)| match seq.checked_sub(next) {
                    Some(ahead) if ahead < 128 => {
                        early |= 1 << ahead;
                        false
                    }
                    Some(_) => true,
                    None => false,
                });
                self.early = early;
            }
        }
        // With nothing left past the hole, every arrival is behind it;
        // otherwise its filler's timestamp is a bound that errs low.
        if self.early == 0 && self.far.is_empty() {
            self.bound = self.bound.max(self.early_top);
        }
    }
}

/// One node's stability frontier (see the module documentation).
#[derive(Clone, Debug)]
pub(crate) struct Frontier {
    /// One per node id — the node's own frozen above every timestamp,
    /// so the least bound is its peers' — and none at all for an
    /// incarnation that tracks nothing.
    links: Vec<Link>,
    /// The last frontier handed out ([`NONE`] before the first).
    at: Timestamp,
}

impl Frontier {
    /// The frontier of node `own` in a cluster of `nodes`, before any
    /// message arrived.
    pub(crate) fn new(own: NodeId, nodes: u16) -> Self {
        let mut links = vec![Link::default(); usize::from(nodes)];
        if let Some(link) = links.get_mut(usize::from(own.0)) {
            link.bound = Timestamp {
                lamport: u64::MAX,
                node: NodeId(u16::MAX),
            };
            link.frozen = true;
        }
        Frontier { links, at: NONE }
    }

    /// A frontier that never rises: a node rebuilt from its store.
    pub(crate) fn untracked() -> Self {
        Frontier {
            links: Vec::new(),
            at: NONE,
        }
    }

    /// Notes a delivered message from `from` stamped `stamp` whose
    /// largest timestamp is `top`, and returns the frontier if it rose.
    /// (An empty message is never noted: it leaves a hole, which errs
    /// low.)
    pub(crate) fn note(&mut self, from: NodeId, stamp: Stamp, top: Timestamp) -> Option<Timestamp> {
        let link = self.links.get_mut(usize::from(from.0))?;
        let before = link.bound;
        link.note(stamp, top);
        // Only a link at the frontier can move it.
        if link.bound == before || before > self.at {
            return None;
        }
        // One silent peer leaves no frontier.
        let least = self.links.iter().map(|link| link.bound).min()?;
        if least == NONE {
            return None;
        }
        (self.at < least).then(|| {
            self.at = least;
            least
        })
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

    fn stamp(seq: u32) -> Stamp {
        Stamp {
            incarnation: 0,
            seq,
        }
    }

    #[test]
    fn the_frontier_is_the_least_contiguous_bound_over_the_peers() {
        let mut f = Frontier::new(NodeId(0), 3);
        let silent = f.note(NodeId(1), stamp(0), ts(2, 1));
        assert_eq!(silent, None, "peer 2 has sent nothing");
        assert_eq!(f.note(NodeId(2), stamp(0), ts(5, 2)), Some(ts(2, 1)));
        // A hole on link 1 holds its bound until it fills.
        assert_eq!(f.note(NodeId(1), stamp(2), ts(9, 1)), None);
        assert_eq!(f.note(NodeId(1), stamp(1), ts(7, 1)), Some(ts(5, 2)));
        // Copies change nothing.
        assert_eq!(f.note(NodeId(1), stamp(1), ts(7, 1)), None);
        assert_eq!(f.note(NodeId(2), stamp(0), ts(5, 2)), None);
        assert_eq!(f.note(NodeId(2), stamp(1), ts(12, 2)), Some(ts(9, 1)));
        // Own messages and unknown peers are not links.
        assert_eq!(f.note(NodeId(0), stamp(0), ts(99, 0)), None);
        assert_eq!(f.note(NodeId(7), stamp(0), ts(99, 7)), None);
    }

    #[test]
    fn a_hole_holds_the_link_until_every_number_below_the_highest_arrived() {
        let mut f = Frontier::new(NodeId(0), 2);
        for seq in (1..=5).rev() {
            let top = ts(u64::from(seq) + 1, 1);
            assert_eq!(f.note(NodeId(1), stamp(seq), top), None);
        }
        assert_eq!(f.note(NodeId(1), stamp(0), ts(1, 1)), Some(ts(6, 1)));
    }

    #[test]
    fn a_new_sender_incarnation_or_spent_numbers_freeze_a_link() {
        let mut f = Frontier::new(NodeId(0), 2);
        assert_eq!(f.note(NodeId(1), stamp(0), ts(3, 1)), Some(ts(3, 1)));
        let reborn = Stamp {
            incarnation: 1,
            seq: 0,
        };
        assert_eq!(f.note(NodeId(1), reborn, ts(8, 1)), None);
        assert_eq!(f.note(NodeId(1), stamp(1), ts(9, 1)), None, "frozen");

        let mut g = Frontier::new(NodeId(0), 2);
        let mut sent = u32::MAX - 1;
        assert_eq!(Stamp::next(0, &mut sent).seq, u32::MAX - 1);
        assert_eq!(Stamp::next(0, &mut sent).seq, u32::MAX, "saturates");
        assert_eq!(g.note(NodeId(1), stamp(u32::MAX), ts(4, 1)), None);
        assert_eq!(g.note(NodeId(1), stamp(0), ts(3, 1)), None, "frozen");
    }

    #[test]
    fn a_hole_that_stays_open_freezes_the_link_and_frees_what_it_held() {
        let mut f = Frontier::new(NodeId(0), 2);
        for seq in 1..=MAX_FAR as u32 + 128 {
            assert_eq!(f.note(NodeId(1), stamp(seq), ts(u64::from(seq), 1)), None);
        }
        assert!(f.links[1].frozen && f.links[1].far.capacity() == 0);
        assert_eq!(f.note(NodeId(1), stamp(0), ts(0, 1)), None, "frozen");
    }

    #[test]
    fn an_untracked_frontier_never_rises() {
        let mut f = Frontier::untracked();
        assert_eq!(f.note(NodeId(1), stamp(0), ts(3, 1)), None);
    }
}
