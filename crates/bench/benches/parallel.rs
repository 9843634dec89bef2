//! Scaling of the `shard-pool` parallel layer, and proof-of-identity
//! alongside it: the chaos sweep — the pool's one workload — runs at
//! pool sizes 1/2/4/8, every parallel result is asserted equal to the
//! sequential one before its time is reported, and a single-threaded
//! §3 transitivity check runs beside it as the control. The numbers
//! land in `BENCH_parallel.json` at the repository root together with
//! the host's core count — on a single-core host the table shows the
//! (honest) absence of speedup while still certifying determinism.

use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_bench::chaos::{sweep, ChaosConfig};
use shard_bench::workloads::airline_execution_with_k;
use shard_core::conditions;
use shard_pool::PoolConfig;
use std::hint::black_box;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Best (minimum) wall time per configuration over
/// `rounds_per_config * len` rounds, sampled round-robin with the
/// starting configuration rotated every round (plus one discarded
/// warmup round). Interleaving decorrelates slow host periods from any
/// single configuration, and the rotation balances within-round
/// position across configurations — under periodic CPU throttling
/// (cgroup quota) a fixed order gives every position a fixed phase
/// offset in the throttle period, which reads as a phantom monotone
/// regression. The minimum (not the median) is reported because timing
/// noise on a shared host is strictly additive: the smallest sample is
/// the closest observation of the true cost.
fn interleaved_best_ns(rounds_per_config: usize, runs: &mut [Box<dyn FnMut() + '_>]) -> Vec<f64> {
    let len = runs.len();
    let rounds = rounds_per_config * len;
    let mut samples = vec![Vec::with_capacity(rounds); len];
    for round in 0..=rounds {
        for pos in 0..len {
            let i = (pos + round) % len;
            let t0 = Instant::now();
            runs[i]();
            let ns = t0.elapsed().as_nanos() as f64;
            if round > 0 {
                samples[i].push(ns);
            }
        }
    }
    samples
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

fn json_rows(rows: &[(usize, f64)], baseline_ns: f64) -> String {
    rows.iter()
        .map(|&(threads, ns)| {
            format!(
                "      {{\"threads\": {threads}, \"best_ns\": {ns:.0}, \
                 \"speedup_vs_1\": {:.2}}}",
                baseline_ns / ns
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Chaos sweep at 120 seeds across the pool sizes. The outcome JSON of
/// every parallel run must equal the sequential one byte for byte —
/// the same invariant the CI `shard-trace diff` smoke enforces on the
/// sidecars.
fn chaos_rows() -> String {
    let mut cfg = ChaosConfig {
        seeds: 120,
        ..ChaosConfig::default()
    };
    cfg.pool = PoolConfig::with_threads(1);
    let reference = sweep(&cfg).to_json_string();
    println!("\nparallel/chaos_sweep (120 seeds, shrinking on)");
    // Determinism is certified at the *requested* thread count (real
    // contention), timing at the host-capped count — the size every
    // production path gets via `PoolConfig::from_env`.
    for threads in THREADS {
        cfg.pool = PoolConfig::with_threads(threads);
        assert_eq!(
            sweep(&cfg).to_json_string(),
            reference,
            "chaos outcome diverged at {threads} threads"
        );
    }
    let cfgs: Vec<ChaosConfig> = THREADS
        .iter()
        .map(|&threads| {
            let mut c = cfg.clone();
            c.pool = PoolConfig::with_threads(threads).capped_to_host();
            c
        })
        .collect();
    let mut runs: Vec<Box<dyn FnMut()>> = cfgs
        .iter()
        .map(|c| {
            Box::new(move || {
                black_box(sweep(c).verdicts.len());
            }) as Box<dyn FnMut()>
        })
        .collect();
    let bests = interleaved_best_ns(3, &mut runs);
    let rows: Vec<(usize, f64)> = THREADS.into_iter().zip(bests).collect();
    for &(threads, ns) in &rows {
        println!("  threads={threads}  best {ns:>14.0} ns");
    }
    let baseline = rows[0].1;
    json_rows(&rows, baseline)
}

/// The §3 transitivity checker on an n = 10⁴ execution. It has been
/// single-threaded since it left the pool, so these rows are
/// the control: the same work under every `SHARD_POOL_THREADS` must
/// read the same, which bounds what the sampling scheme itself adds.
fn checker_rows() -> String {
    let app = FlyByNight::new(40);
    let e = airline_execution_with_k(&app, 3, 10_000, 4, AirlineMix::default());
    let reference = conditions::is_transitive(&e);
    println!("\nparallel/is_transitive (n = 10000)");
    for threads in THREADS {
        std::env::set_var("SHARD_POOL_THREADS", threads.to_string());
        assert_eq!(
            conditions::is_transitive(&e),
            reference,
            "transitivity verdict diverged at {threads} threads"
        );
    }
    let mut runs: Vec<Box<dyn FnMut()>> = THREADS
        .iter()
        .map(|&threads| {
            let e = &e;
            Box::new(move || {
                std::env::set_var("SHARD_POOL_THREADS", threads.to_string());
                black_box(conditions::is_transitive(e));
            }) as Box<dyn FnMut()>
        })
        .collect();
    let bests = interleaved_best_ns(3, &mut runs);
    std::env::remove_var("SHARD_POOL_THREADS");
    let rows: Vec<(usize, f64)> = THREADS.into_iter().zip(bests).collect();
    for &(threads, ns) in &rows {
        println!("  threads={threads}  best {ns:>14.0} ns");
    }
    let baseline = rows[0].1;
    json_rows(&rows, baseline)
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chaos = chaos_rows();
    let checker = checker_rows();
    let json = format!(
        "{{\n  \"bench\": \"shard_pool_scaling\",\n  \
         \"host_cpus\": {host_cpus},\n  \
         \"note\": \"correctness is asserted at the requested thread count; timings \
         use the host-capped pool every production path gets via from_env, so ratios \
         stay >= ~1.0 even when threads > host_cpus (oversubscription no longer \
         thrashes the sweep); samples are taken round-robin across thread counts \
         with the starting config rotated each round (best of 12 rounds after a \
         discarded warmup; noise on a shared host is strictly additive) so host noise \
         and throttle phase cannot masquerade as a per-thread-count regression\",\n  \
         \"chaos_sweep_120_seeds\": {{\n    \"results\": [\n{chaos}\n    ]\n  }},\n  \
         \"is_transitive_n10000\": {{\n    \"results\": [\n{checker}\n    ]\n  }}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}
