//! A flash sale overselling a warehouse across replicas, then the
//! PROMOTE/UNSHIP compensators restoring order — inventory control as
//! the paper's "much more general class of resource allocation systems"
//! (§2.3).
//!
//! ```sh
//! cargo run --example inventory_flash_sale
//! ```

use shard::apps::inventory::{InvTxn, ItemId, Order, OrderId, Warehouse};
use shard::core::Application;
use shard::sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

fn main() {
    // One hot SKU, 10 units in stock, orders up to 4 units, $40 per
    // oversold unit / $15 per unnecessarily backordered unit.
    let app = Warehouse::new(1, 4, 40, 15);
    let item = ItemId(0);
    let cluster = Runner::eager(
        &app,
        ClusterConfig {
            nodes: 3,
            seed: 9,
            delay: DelayModel::Uniform { lo: 40, hi: 120 },
            ..Default::default()
        },
    );

    let mut invs = vec![Invocation::new(
        0,
        NodeId(0),
        InvTxn::Restock { item, qty: 10 },
    )];
    // The flash sale: six 3-unit orders land on three storefront
    // replicas within 30 ticks — long before any replica hears about
    // the others' confirmations.
    for (i, t) in [5u64, 10, 15, 20, 25, 30].iter().enumerate() {
        invs.push(Invocation::new(
            *t + 100,
            NodeId((i % 3) as u16),
            InvTxn::PlaceOrder {
                item,
                order: Order {
                    id: OrderId(i as u32 + 1),
                    qty: 3,
                },
            },
        ));
    }
    // The fulfilment agent runs compensators after the dust settles.
    for t in [600u64, 620, 640, 660] {
        invs.push(Invocation::new(t, NodeId(0), InvTxn::Unship { item }));
    }
    for t in [700u64, 720, 740] {
        invs.push(Invocation::new(t, NodeId(0), InvTxn::Promote { item }));
    }

    let report = cluster.run(invs);
    let te = report.timed_execution();
    te.execution.verify(&app).expect("valid execution");
    assert!(report.mutually_consistent());

    println!("customer-facing actions:");
    for (time, node, action) in report.external_actions() {
        println!("  t={time:<4} store {node}: {action}");
    }

    let over = app.oversell_constraint(item);
    let under = app.backlog_constraint(item);
    println!("\ncost trajectory (oversell / unnecessary backlog):");
    for (i, s) in te.execution.actual_states(&app).iter().enumerate() {
        let it = s.item(item);
        println!(
            "  after {:>2} txns: stock {:>2}, committed {:>2}, backlog {:>2}  (${}, ${})",
            i,
            it.stock,
            it.committed_units(),
            it.backlog.len(),
            app.cost(s, over),
            app.cost(s, under)
        );
    }

    let final_state = te.execution.final_state(&app);
    assert_eq!(
        app.cost(&final_state, over),
        0,
        "UNSHIP relieved the oversell"
    );
    assert_eq!(
        app.cost(&final_state, under),
        0,
        "PROMOTE drained the fittable backlog"
    );
    let apologies = report
        .external_actions()
        .iter()
        .filter(|(_, _, a)| a.kind == "apologize")
        .count();
    println!(
        "\nfinal: committed {} units of {} in stock; {apologies} customers got apologies",
        final_state.item(item).committed_units(),
        final_state.item(item).stock
    );
}
