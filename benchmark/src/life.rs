//! One transaction's life, reconstructed from a live run's public
//! artefacts: the submissions that went in and the `RecordedSchedule`
//! that came out.
//!
//! Nodes work their queue in FIFO order and every event draws a unique
//! `WallClock` tick (≈ µs since run start), so the *i*-th execution
//! recorded at node *n* is the *i*-th submission routed to *n*, and its
//! replication at peer *p* is the first message *n→p* sent at or after
//! that tick, read at its merge tick. Latencies are timed from the
//! submission's **due time**, so a stall charges every later request.

use shard_runtime::MsgRecord;
use shard_sim::NodeId;

/// The ticks of one submission's life (all in µs since run start).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Life {
    /// When the submission was due.
    pub due: u64,
    /// When its origin executed it.
    pub executed: u64,
    /// When the last replica merged it (= `executed` on one node).
    pub replicated: u64,
}

impl Life {
    /// Due time → execution at the origin: queue wait + wake-up.
    pub fn admit_us(&self) -> u64 {
        self.executed.saturating_sub(self.due)
    }

    /// Due time → merged at the last replica: the whole life.
    pub fn replicate_us(&self) -> u64 {
        self.replicated.saturating_sub(self.due)
    }
}

/// Matches submissions (in submission order, as `(due_us, origin)`) to
/// recorded executions (tick order) and messages. Returns one [`Life`]
/// per submission, or the reason the record does not account for one.
pub fn match_lives(
    nodes: u16,
    subs: &[(u64, NodeId)],
    execs: &[(u64, NodeId)],
    msgs: &[MsgRecord],
) -> Result<Vec<Life>, String> {
    let n = nodes as usize;
    let mut queued: Vec<std::collections::VecDeque<usize>> = vec![Default::default(); n];
    for (i, &(_, node)) in subs.iter().enumerate() {
        queued[node.0 as usize].push_back(i);
    }
    // Submission index of every execution, per origin, in tick order.
    let mut executed_at: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n];
    for &(tick, node) in execs {
        let sub = queued[node.0 as usize]
            .pop_front()
            .ok_or_else(|| format!("node {node} executed more than it was given"))?;
        executed_at[node.0 as usize].push((tick, sub));
    }
    if let Some(left) = queued.iter().position(|q| !q.is_empty()) {
        return Err(format!("node {left} left submissions unexecuted"));
    }

    let mut lives: Vec<Life> = subs
        .iter()
        .map(|&(due, _)| Life {
            due,
            executed: 0,
            replicated: 0,
        })
        .collect();
    for per_origin in &executed_at {
        for &(tick, sub) in per_origin {
            lives[sub].executed = tick;
            lives[sub].replicated = tick;
        }
    }

    let mut links: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n * n];
    for m in msgs {
        links[m.from.0 as usize * n + m.to.0 as usize].push((m.sent_at, m.merged_at));
    }
    for from in 0..n {
        for to in (0..n).filter(|&to| to != from) {
            let link = &mut links[from * n + to];
            link.sort_unstable();
            let mut next = 0usize;
            for &(tick, sub) in &executed_at[from] {
                while link.get(next).is_some_and(|&(sent, _)| sent < tick) {
                    next += 1;
                }
                let &(_, merged) = link.get(next).ok_or_else(|| {
                    format!("no message {from}->{to} carries the execution at tick {tick}")
                })?;
                lives[sub].replicated = lives[sub].replicated.max(merged);
            }
        }
    }
    Ok(lives)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(sent_at: u64, from: u16, to: u16, merged_at: u64) -> MsgRecord {
        MsgRecord {
            sent_at,
            from: NodeId(from),
            to: NodeId(to),
            merged_at,
        }
    }

    /// Three nodes; node 2 is given nothing. Node 0 batches its two
    /// executions into one gossip-style message per peer; node 1 floods
    /// its single execution eagerly.
    #[test]
    fn matches_fifo_executions_and_batched_messages() {
        let subs = [(5, NodeId(0)), (12, NodeId(1)), (6, NodeId(0))];
        let execs = [(10, NodeId(0)), (15, NodeId(1)), (20, NodeId(0))];
        let msgs = [
            msg(15, 1, 0, 18),
            msg(15, 1, 2, 30),
            msg(25, 0, 1, 40),
            msg(25, 0, 2, 50),
        ];
        let lives = match_lives(3, &subs, &execs, &msgs).expect("fully accounted");
        // Submission 0: first of node 0's queue, executed at 10, carried
        // by the batched message sent at 25.
        assert_eq!(
            lives[0],
            Life {
                due: 5,
                executed: 10,
                replicated: 50
            }
        );
        assert_eq!((lives[0].admit_us(), lives[0].replicate_us()), (5, 45));
        // Submission 2 is node 0's second execution: same batch.
        assert_eq!((lives[2].executed, lives[2].replicated), (20, 50));
        assert_eq!((lives[2].admit_us(), lives[2].replicate_us()), (14, 44));
        // Submission 1: node 1's eager flood, last merged at node 2.
        assert_eq!((lives[1].executed, lives[1].replicated), (15, 30));
    }

    #[test]
    fn reports_what_the_record_does_not_account_for() {
        let subs = [(0, NodeId(0)), (0, NodeId(1))];
        let unexecuted = match_lives(2, &subs, &[(3, NodeId(0))], &[msg(3, 0, 1, 4)]);
        assert!(unexecuted.unwrap_err().contains("unexecuted"));
        let execs = [(3, NodeId(0)), (5, NodeId(1))];
        let undelivered = match_lives(2, &subs, &execs, &[msg(3, 0, 1, 4)]);
        assert!(undelivered.unwrap_err().contains("no message 1->0"));
        let extra = match_lives(2, &subs[..1], &execs, &[]);
        assert!(extra.unwrap_err().contains("more than it was given"));
    }

    #[test]
    fn a_single_node_replicates_at_execution() {
        let lives = match_lives(1, &[(7, NodeId(0))], &[(9, NodeId(0))], &[]).unwrap();
        assert_eq!(lives[0].replicate_us(), lives[0].admit_us());
    }
}
