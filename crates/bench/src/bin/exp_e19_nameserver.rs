//! E19 — extension: the Grapevine-style name server (§6's second
//! suggested example).
//!
//! Referential integrity per distribution group: concurrent
//! ADD-MEMBER / DEREGISTER races leave dangling members; SCAVENGE
//! compensates. The airline theorems transplant: Theorem 5's per-step
//! bound holds for the preserving transactions (ADD-MEMBER, SCAVENGE,
//! REMOVE-MEMBER, REGISTER, LOOKUP), and Theorem 9's grouping result
//! bounds the cost at normal states when scavenges run after
//! deregistrations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_analysis::claims::{check_grouped_bound, check_theorem5};
use shard_analysis::{trace, Table};
use shard_apps::nameserver::{GroupId, Name, NameServer, NsTxn};
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_core::Application;
use shard_sim::{ClusterConfig, DelayModel, Invocation, NodeId, Runner};

fn workload(seed: u64, n: usize, nodes: u16, names: u32, groups: u32) -> Vec<Invocation<NsTxn>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.random_range(1..=10);
        let name = Name(rng.random_range(1..=names));
        let group = GroupId(rng.random_range(0..groups));
        let txn = match rng.random_range(0..100) {
            0..25 => NsTxn::Register(name, u64::from(name.0) * 7),
            25..37 => NsTxn::Deregister(name),
            37..62 => NsTxn::AddMember(group, name),
            62..70 => NsTxn::RemoveMember(group, name),
            70..92 => NsTxn::Scavenge(group),
            _ => NsTxn::Lookup(name),
        };
        out.push(Invocation::new(t, NodeId(rng.random_range(0..nodes)), txn));
    }
    out
}

fn is_preserving(d: &NsTxn) -> bool {
    // Everything except the unconditional DEREGISTER preserves each
    // group's cost (E19's taxonomy tests verify this over a state space).
    !matches!(d, NsTxn::Deregister(_))
}

fn main() {
    let exp = shard_bench::Experiment::start("e19");
    let groups = 3u32;
    let rate = 25u64;
    let app = NameServer::new(groups, rate);
    let f = BoundFn::linear(rate);
    let mut ok = true;
    println!("E19: Grapevine-style name server (§6 extension), 4 nodes, 800 txns × 5 seeds\n");

    let mut t = Table::new(
        "E19 dangling-member bounds per group",
        &[
            "mean delay",
            "max dangling cost $",
            "Thm 5",
            "groupings found",
            "Cor 10 (300→25·k)",
        ],
    );
    for mean_delay in [10u64, 60, 240] {
        let mut worst = 0;
        let mut thm5 = true;
        let mut groupings = 0usize;
        let mut cor10 = true;
        for seed in TRIAL_SEEDS {
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed,
                    delay: DelayModel::Exponential { mean: mean_delay },
                    ..Default::default()
                },
            );
            let report = cluster.run(workload(seed, 800, 4, 6, groups));
            assert!(report.mutually_consistent());
            let te = report.timed_execution();
            te.execution.verify(&app).expect("valid execution");
            for c in 0..app.constraint_count() {
                worst = worst.max(trace::max_cost(&app, &te.execution, c));
                let step = check_theorem5(&app, &te.execution, c, &f, is_preserving);
                thm5 &= step.holds();
                ok &= step.holds();
                if let Some((_, check)) =
                    check_grouped_bound(&app, &te.execution, c, &f, is_preserving)
                {
                    groupings += 1;
                    cor10 &= check.holds();
                    ok &= check.holds();
                }
            }
        }
        t.push_row(vec![
            mean_delay.to_string(),
            worst.to_string(),
            thm5.to_string(),
            groupings.to_string(),
            cor10.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "shape: the airline's §4 taxonomy and §5 bound machinery describe Grapevine's\n\
         dangling-member anomaly without modification — §6's conjecture, checked"
    );

    exp.finish(ok);
}
