//! Replay numbers a recorded schedule's messages by their position, as
//! the kernel numbers its sends, so a schedule out of its documented
//! `(sent_at, to)` order is refused by name, not silently misread.

use shard_apps::dictionary::Dictionary;
use shard_runtime::{replay, MsgRecord, RecordedSchedule, RuntimeConfig};
use shard_sim::{EagerBroadcast, NodeId};

#[test]
#[should_panic(expected = "RecordedSchedule::msgs is not in (sent_at, to) order")]
fn replay_refuses_messages_out_of_send_order() {
    let msg = |sent_at, to| MsgRecord {
        sent_at,
        from: NodeId(0),
        to: NodeId(to),
        merged_at: sent_at + 5,
    };
    let schedule = RecordedSchedule {
        msgs: vec![msg(3, 2), msg(3, 1)],
        ..RecordedSchedule::default()
    };
    let cfg = RuntimeConfig::default();
    replay(&Dictionary, &cfg, EagerBroadcast::default(), &[], &schedule);
}
