//! A partially replicated dictionary — the §6 generalization in action:
//! keys are bucketed into objects, each bucket lives on a subset of the
//! nodes, and transactions are routed to holders of the data they read.
//!
//! ```sh
//! cargo run --example dictionary_sharded
//! ```

use shard::apps::dictionary::{bucket_of, DictTxn, Dictionary};
use shard::core::ObjectModel;
use shard::sim::{ClusterConfig, DelayModel, Invocation, Placement, Runner};

fn main() {
    let app = Dictionary;
    let objects = app.objects();
    // Six nodes, each bucket replicated on three of them.
    let placement = Placement::round_robin(6, &objects, 3);
    let cluster = Runner::new(
        &app,
        ClusterConfig {
            nodes: 6,
            seed: 5,
            delay: DelayModel::Exponential { mean: 15 },
            ..Default::default()
        },
        placement.clone(),
    );

    // A write/read mix over 24 keys, each routed to a holder of its
    // bucket.
    let mut invs = Vec::new();
    let mut t = 0;
    for k in 0..24u32 {
        t += 5;
        let txn = DictTxn::Insert(k, u64::from(k) * 100);
        let node = placement
            .any_holder_of_all(&app.decision_objects(&txn))
            .expect("every bucket has holders");
        invs.push(Invocation::new(t, node, txn));
    }
    for k in (0..24u32).step_by(5) {
        t += 3;
        let txn = DictTxn::Lookup(k);
        let node = placement
            .any_holder_of_all(&app.decision_objects(&txn))
            .expect("every bucket has holders");
        invs.push(Invocation::new(t, node, txn));
    }

    let report = cluster.run(invs);
    let te = report.timed_execution();
    te.execution
        .verify(&app)
        .expect("§3.1 conditions hold under partial replication");

    println!("sharded dictionary over 6 nodes, replication factor 3");
    println!(
        "update messages sent: {} (full replication would send {})",
        report.messages_sent,
        report.transactions.len() as u64 * 5
    );
    println!(
        "per-bucket replicas consistent: {}",
        report.objects_consistent(&app, &placement)
    );
    assert!(report.objects_consistent(&app, &placement));

    println!("\nlookup results (as reported to clients):");
    for (time, node, action) in report.external_actions() {
        println!("  t={time:<4} {node}: {action}");
    }

    println!("\nbucket placements:");
    for o in &objects {
        let holders: Vec<String> = (0..6)
            .map(shard::sim::NodeId)
            .filter(|n| placement.holds(*n, *o))
            .map(|n| n.to_string())
            .collect();
        println!("  {o} (keys ≡ {} mod 8) on {}", o.0, holders.join(", "));
    }
    let _ = bucket_of(3);
}
