//! E13 — generality of the framework (§2.3, §6): inventory control.
//!
//! "We consider this airline reservation system to be a prototype of a
//! much more general class of resource allocation systems." Inventory
//! control adds quantities: orders commit units, backorders queue, and
//! the compensators PROMOTE/UNSHIP mirror MOVE-UP/MOVE-DOWN. The
//! experiment verifies the transplanted taxonomy, the oversell invariant
//! bound `cost ≤ over_rate · max_qty · k`, and the grouped backlog bound
//! on simulated partitioned runs.

use shard_analysis::claims::{check_invariant_bound, check_theorem5};
use shard_analysis::{trace, Table};
use shard_apps::inventory::{InvTxn, ItemId, Warehouse};
use shard_bench::workloads::inventory_invocations;
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_sim::partition::{PartitionSchedule, PartitionWindow};
use shard_sim::{ClusterConfig, DelayModel, NodeId, Runner};

fn main() {
    let exp = shard_bench::Experiment::start("e13");
    let items = 2u32;
    let max_qty = 5u64;
    let over_rate = 40u64;
    let under_rate = 15u64;
    let app = Warehouse::new(items, max_qty, over_rate, under_rate);
    let f_over = BoundFn::linear(over_rate * max_qty);
    let mut ok = true;
    println!("E13: inventory control — transplanted bounds on simulated runs\n");

    let mut t = Table::new(
        "E13 oversell bound per item (900 txns × 5 seeds, worst)",
        &[
            "mean delay",
            "k measured",
            "max oversell $",
            "bound rate·qty·k $",
            "holds",
        ],
    );
    for mean_delay in [10u64, 60, 240] {
        let mut worst_cost = 0;
        let mut worst_k = 0;
        let mut holds = true;
        for seed in TRIAL_SEEDS {
            let partitions =
                PartitionSchedule::new(vec![PartitionWindow::isolate(400, 2000, vec![NodeId(2)])]);
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay: DelayModel::Exponential { mean: mean_delay },
                    partitions,
                    ..Default::default()
                },
            );
            let report = cluster.run(inventory_invocations(seed, 900, 4, items, max_qty));
            assert!(report.mutually_consistent());
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            for i in 0..items {
                let c = app.oversell_constraint(ItemId(i));
                // Unsafe for oversell: PLACE-ORDER and PROMOTE (both can
                // commit units).
                let (k, check) = check_invariant_bound(&app, &te.execution, c, &f_over, |d| {
                    matches!(d, InvTxn::PlaceOrder { .. } | InvTxn::Promote { .. })
                });
                holds &= check.holds();
                ok &= check.holds();
                worst_k = worst_k.max(k);
                worst_cost = worst_cost.max(trace::max_cost(&app, &te.execution, c));
                // Theorem 5 per-step form for both constraints.
                let step = check_theorem5(&app, &te.execution, c, &f_over, |_| true);
                ok &= step.holds();
                let cu = app.backlog_constraint(ItemId(i));
                let f_under = BoundFn::linear(under_rate * max_qty);
                let step = check_theorem5(&app, &te.execution, cu, &f_under, |d| {
                    matches!(d, InvTxn::Promote { .. } | InvTxn::Unship { .. })
                });
                ok &= step.holds();
            }
        }
        t.push_row(vec![
            mean_delay.to_string(),
            worst_k.to_string(),
            worst_cost.to_string(),
            (over_rate * max_qty * worst_k as u64).to_string(),
            holds.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "shape: the airline's Corollary 8 transplants — oversell stays inside the\n\
         rate·max_qty·k envelope with k measured from the run"
    );

    exp.finish(ok);
}
