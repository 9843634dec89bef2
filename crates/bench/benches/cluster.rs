//! End-to-end simulator throughput: transactions simulated per second as
//! cluster size grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_bench::workloads::{airline_invocations, Routing};
use shard_sim::{ClusterConfig, DelayModel, Runner};
use std::hint::black_box;

fn bench_cluster_scaling(c: &mut Criterion) {
    let app = FlyByNight::new(40);
    let mut group = c.benchmark_group("cluster/run_500_txns");
    group.sample_size(20);
    for nodes in [2u16, 5, 9] {
        group.throughput(Throughput::Elements(500));
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &n| {
            let invs = airline_invocations(7, 500, n, 5, AirlineMix::default(), Routing::Random);
            b.iter(|| {
                let cluster = Runner::eager(
                    &app,
                    ClusterConfig {
                        nodes: n,
                        seed: 7,
                        delay: DelayModel::Exponential { mean: 20 },
                        ..Default::default()
                    },
                );
                black_box(cluster.run(invs.clone()).transactions.len())
            })
        });
    }
    group.finish();
}

fn bench_piggyback_cost(c: &mut Criterion) {
    let app = FlyByNight::new(40);
    let mut group = c.benchmark_group("cluster/piggyback");
    group.sample_size(15);
    for piggyback in [false, true] {
        group.bench_with_input(
            BenchmarkId::from_parameter(piggyback),
            &piggyback,
            |b, &pb| {
                let invs =
                    airline_invocations(9, 400, 4, 5, AirlineMix::default(), Routing::Random);
                b.iter(|| {
                    let cluster = Runner::eager(
                        &app,
                        ClusterConfig {
                            nodes: 4,
                            seed: 9,
                            delay: DelayModel::Exponential { mean: 20 },
                            piggyback: pb,
                            ..Default::default()
                        },
                    );
                    black_box(cluster.run(invs.clone()).total_replayed())
                })
            },
        );
    }
    group.finish();
}

fn bench_gossip_vs_flood(c: &mut Criterion) {
    use shard_sim::{Gossip, Runner};
    let app = FlyByNight::new(40);
    let invs = airline_invocations(21, 400, 4, 5, AirlineMix::default(), Routing::Random);
    let mut group = c.benchmark_group("cluster/broadcast_mode");
    group.sample_size(15);
    group.bench_function("flood", |b| {
        b.iter(|| {
            let cluster = Runner::eager(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed: 21,
                    delay: DelayModel::Fixed(10),
                    ..Default::default()
                },
            );
            black_box(cluster.run(invs.clone()).transactions.len())
        })
    });
    group.bench_function("gossip_50", |b| {
        b.iter(|| {
            let cluster = Runner::new(
                &app,
                ClusterConfig {
                    nodes: 4,
                    seed: 21,
                    delay: DelayModel::Fixed(10),
                    ..Default::default()
                },
                Gossip::new(50, 1),
            );
            black_box(cluster.run(invs.clone()).rounds)
        })
    });
    group.finish();
}

fn bench_partial_replication(c: &mut Criterion) {
    use shard_apps::banking::Bank;
    use shard_bench::workloads::bank_invocations;
    use shard_core::ObjectModel;
    use shard_sim::{NodeId, Placement, Runner};
    let app = Bank::new(8, 100);
    let objects = app.objects();
    let mut group = c.benchmark_group("cluster/partial_replication");
    group.sample_size(15);
    for factor in [8u16, 2] {
        group.bench_with_input(BenchmarkId::from_parameter(factor), &factor, |b, &f| {
            let placement = Placement::round_robin(8, &objects, f);
            // Route each invocation to a holder of its read set.
            // Drop invocations whose read set has no common holder at
            // this replication factor (e.g. cross-shard transfers).
            let invs: Vec<_> = bank_invocations(31, 400, 8, 8, 100)
                .into_iter()
                .filter_map(|mut inv| {
                    let reads = app.decision_objects(&inv.decision);
                    let node = (0..8)
                        .map(NodeId)
                        .find(|n| placement.holds_all(*n, &reads))?;
                    inv.node = node;
                    Some(inv)
                })
                .collect();
            b.iter(|| {
                let cluster = Runner::partial(
                    &app,
                    ClusterConfig {
                        nodes: 8,
                        seed: 31,
                        delay: DelayModel::Fixed(10),
                        ..Default::default()
                    },
                    placement.clone(),
                );
                black_box(cluster.run(invs.clone()).messages_sent)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster_scaling,
    bench_piggyback_cost,
    bench_gossip_vs_flood,
    bench_partial_replication
);
criterion_main!(benches);
