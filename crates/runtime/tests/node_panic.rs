//! A node thread that dies must fail the run, not hang it: the dead
//! node never executes its remaining submissions, so the quiet point
//! the coordinator waits for is never reached — it has to notice the
//! finished thread instead, tell the rest to quit, and let the join
//! propagate the panic.

use shard_apps::dictionary::{DictTxn, Dictionary};
use shard_runtime::{run_live, RuntimeConfig, Submission};
use shard_sim::events::SimTime;
use shard_sim::kernel::Node;
use shard_sim::{EagerBroadcast, NodeId, Propagation, Timestamp, Transport};
use std::sync::Arc;

/// Eager broadcast whose node 1 panics on its third execution (each
/// node thread runs its own clone, so `calls` counts per node).
#[derive(Clone)]
struct DiesAtNodeOne {
    eager: EagerBroadcast,
    calls: u32,
}

impl Propagation<Dictionary> for DiesAtNodeOne {
    fn label(&self) -> &'static str {
        "cluster"
    }

    fn on_execute(
        &mut self,
        app: &Dictionary,
        net: &mut dyn Transport<Dictionary>,
        node: &Node<Dictionary>,
        now: SimTime,
        ts: Timestamp,
        update: &Arc<<Dictionary as shard_core::Application>::Update>,
    ) {
        self.calls += 1;
        assert!(
            node.id != NodeId(1) || self.calls < 3,
            "node 1 dies on its third execution"
        );
        self.eager.on_execute(app, net, node, now, ts, update);
    }
}

#[test]
#[should_panic(expected = "node thread panicked")]
fn a_node_thread_panic_fails_the_run() {
    let subs: Vec<Submission<DictTxn>> = (0..30u32)
        .map(|i| Submission {
            at_us: u64::from(i) * 100,
            node: NodeId((i % 3) as u16),
            decision: DictTxn::Insert(i % 7, u64::from(i)),
        })
        .collect();
    let cfg = RuntimeConfig {
        nodes: 3,
        ..Default::default()
    };
    let strategy = DiesAtNodeOne {
        eager: EagerBroadcast::default(),
        calls: 0,
    };
    run_live(&Dictionary, &cfg, strategy, subs);
}
