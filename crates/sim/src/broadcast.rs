//! Reliable broadcast of updates (§1.2, \[GLBKSS\]).
//!
//! "After a transaction is processed at its originating node, information
//! about the transaction is broadcast reliably to all the other nodes …
//! barring permanent communication failures, every node will eventually
//! receive information about every transaction."
//!
//! We model the broadcast layer as holding each point-to-point message
//! until the partition schedule next connects the two nodes, then
//! delivering after a sampled network delay. Since partition windows are
//! finite, delivery is guaranteed — exactly the eventual-delivery
//! property the paper relies on, with none of the protocol detail of the
//! (unpublished) \[GLBKSS\] report.
//!
//! §3.3: "an appropriate distributed communication protocol could
//! guarantee transitivity, perhaps by piggybacking information about
//! known transactions on messages". [`crate::Gossip`] at interval 0 is
//! that protocol: each execution's message to a peer carries what its
//! sender knew past that peer's cursor, over ordered links, and every
//! execution the cluster emits is transitive. The message type itself is
//! [`crate::kernel::Entries`] — an `Arc`-shared batch of log entries, so
//! a flood of one transaction costs one allocation regardless of
//! fan-out; this module keeps the *timing* model.

use crate::clock::NodeId;
use crate::delay::DelayModel;
use crate::events::SimTime;
use crate::partition::PartitionSchedule;
use rand::Rng;

/// Computes when a message sent at `now` from `from` arrives at `to`:
/// it waits out any partition separating them, then takes one sampled
/// network delay.
pub fn delivery_time<R: Rng + ?Sized>(
    partitions: &PartitionSchedule,
    delay: &DelayModel,
    rng: &mut R,
    now: SimTime,
    from: NodeId,
    to: NodeId,
) -> SimTime {
    let released = partitions.next_connected(now, from, to);
    released + delay.sample(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionWindow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn connected_messages_take_one_delay() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = delivery_time(
            &PartitionSchedule::none(),
            &DelayModel::Fixed(7),
            &mut rng,
            100,
            NodeId(0),
            NodeId(1),
        );
        assert_eq!(t, 107);
    }

    #[test]
    fn partitioned_messages_wait_for_heal() {
        let mut rng = StdRng::seed_from_u64(1);
        let sched =
            PartitionSchedule::new(vec![PartitionWindow::isolate(50, 200, vec![NodeId(0)])]);
        let t = delivery_time(
            &sched,
            &DelayModel::Fixed(7),
            &mut rng,
            100,
            NodeId(0),
            NodeId(1),
        );
        assert_eq!(t, 207, "released at heal time 200, +7 delay");
        // Unaffected pairs are not delayed.
        let t = delivery_time(
            &sched,
            &DelayModel::Fixed(7),
            &mut rng,
            100,
            NodeId(1),
            NodeId(2),
        );
        assert_eq!(t, 107);
    }
}
