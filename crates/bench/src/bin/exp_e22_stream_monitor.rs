//! E22 — streaming certified checkers: live §3 verification with
//! independently validated certificates (extension).
//!
//! The offline pipeline (E01–E21) builds a run's timed execution and
//! folds the whole-execution §3 checkers over it; a monitored run is
//! judged instead by streaming its record, row by row in serial order,
//! through the windowed checkers (`RunReport::judge`, once the run
//! ends). This experiment pins down the three properties that make the
//! streamed verdicts trustworthy:
//!
//! Claims:
//! * **online ≡ offline** — on fault-free runs across seeds × window
//!   sizes, the judge's `StreamReport` (verdicts, certificates,
//!   `max_missed`, delay bound) is bit-identical to folding the offline
//!   checkers over the finished execution;
//! * **the sweep stops at the first attributable violation** — a
//!   monitored chaos sweep stops at its first judged transitivity
//!   violation, and the violation is attributable (the same seed's
//!   fault-free baseline is transitive);
//! * **certificates check independently** — the certificate the judge
//!   emitted re-validates against the replayed raw trace via
//!   `shard_obs::certify` (shared-nothing validator, O(|certificate|)
//!   work), and a mutated certificate is rejected. The replayed trace
//!   and the certificate are also written to `e22.hit.jsonl` and
//!   `e22.hit.cert.json` under the traces directory, where `ci.sh`
//!   hands them to `shard-trace certify`.

use shard_analysis::{ClaimCheck, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::FlyByNight;
use shard_bench::chaos::{self, monitored_sweep, replay_monitored, ChaosConfig};
use shard_bench::traces_dir;
use shard_bench::workloads::{airline_invocations, Routing};
use shard_core::stream::{par_check, Certificate};
use shard_obs::EventSink;
use shard_pool::PoolConfig;
use shard_sim::{ClusterConfig, DelayModel, EagerBroadcast, MonitorConfig, Runner};

const TXNS: usize = 150;
const NODES: u16 = 5;

fn monitored_run(seed: u64, window: usize) -> shard_sim::RunReport<FlyByNight> {
    let app = FlyByNight::new(40);
    let invocations =
        airline_invocations(seed, TXNS, NODES, 9, AirlineMix::default(), Routing::Random);
    let cfg = ClusterConfig {
        nodes: NODES,
        seed,
        delay: DelayModel::Exponential { mean: 40 },
        monitor: Some(MonitorConfig {
            window,
            emit_rows: false,
            ..MonitorConfig::default()
        }),
        ..ClusterConfig::default()
    };
    Runner::new(&app, cfg, EagerBroadcast::default()).run(invocations)
}

fn main() {
    let mut exp = shard_bench::Experiment::start("e22");
    println!(
        "E22: streaming certified checkers — post-run judge vs offline §3 verdicts\n\
         part 1: {TXNS} txns × {NODES} nodes, exponential delay, seeds 1..=6, windows {{1, 7, 64}}\n"
    );

    // Part 1 — online ≡ offline on fault-free runs.
    let mut equiv =
        ClaimCheck::new("online StreamReport equals the offline fold on every (seed, window)");
    let mut t = Table::new(
        "E22a online verdicts (seed × window)",
        &[
            "seed",
            "window",
            "rows",
            "windows",
            "max_missed",
            "delay_bound",
            "offline ==",
        ],
    );
    let pool = PoolConfig::with_threads(2);
    for seed in 1..=6u64 {
        for window in [1usize, 7, 64] {
            let report = monitored_run(seed, window);
            let online = report
                .monitor
                .as_ref()
                .expect("monitored run carries a report");
            let offline = par_check(&pool, &report.timed_execution(), window);
            let same = *online == offline;
            t.row(&[
                seed.to_string(),
                window.to_string(),
                online.rows.to_string(),
                online.verdicts.len().to_string(),
                online.max_missed.to_string(),
                online.min_delay_bound.to_string(),
                same.to_string(),
            ]);
            equiv
                .record((!same).then(|| format!("seed {seed} window {window}: online != offline")));
        }
    }
    println!("{t}");
    exp.claim(equiv);

    // Part 2 — monitored chaos sweep, stopped at the first violation.
    let cfg = ChaosConfig::new(60);
    let window = 8;
    println!(
        "\npart 2: monitored sweep — {} seeds × {} txns, window {window}, stop at the first violation\n",
        cfg.seeds,
        chaos::TXNS
    );
    let outcome = monitored_sweep(&cfg, window);

    let sink = exp.trace_sink();
    if let Some(sink) = sink.as_deref() {
        for v in &outcome.verdicts {
            sink.event("monitor.verdict")
                .u64("seed", v.seed)
                .u64("rows", v.rows as u64)
                .bool("transitive", v.transitive)
                .u64("max_missed", v.max_missed as u64)
                .u64("delay_bound", v.delay_bound)
                .emit();
        }
    }

    let mut t = Table::new(
        format!(
            "E22b monitored sweep ({} of {} seed(s) run, {} skipped after the hit)",
            outcome.verdicts.len(),
            cfg.seeds,
            outcome.seeds_skipped
        ),
        &["seed", "rows", "transitive", "max_missed"],
    );
    for v in &outcome.verdicts {
        t.row(&[
            v.seed.to_string(),
            v.rows.to_string(),
            v.transitive.to_string(),
            v.max_missed.to_string(),
        ]);
    }
    println!("{t}");

    let mut abort =
        ClaimCheck::new("the sweep stops at a confirmed, attributable transitivity violation");
    abort.record(
        outcome
            .hit
            .is_none()
            .then(|| format!("no violation in {} seeds — fault rates too low", cfg.seeds)),
    );
    if let Some(hit) = &outcome.hit {
        abort.record(
            (!hit.baseline_transitive)
                .then(|| format!("seed {}: baseline itself violates", hit.seed)),
        );
        let last = outcome.verdicts.last().expect("hit implies a verdict");
        abort.record((last.rows > chaos::TXNS).then(|| {
            format!(
                "judged {} rows, more than the {}-txn schedule",
                last.rows,
                chaos::TXNS
            )
        }));
        abort.record(
            last.transitive
                .then(|| format!("seed {}: hit verdict inconsistent", hit.seed)),
        );
        println!(
            "hit: seed {} judged over {} of {} txns — certificate {}",
            hit.seed,
            last.rows,
            chaos::TXNS,
            hit.certificate.to_json()
        );
    }
    exp.claim(abort);

    // Part 3 — certificate round-trip through the independent validator.
    let mut certs = ClaimCheck::new(
        "the emitted certificate re-validates against the replayed trace; a mutated one is rejected",
    );
    if let Some(hit) = &outcome.hit {
        let sink = EventSink::in_memory();
        let replay = replay_monitored(hit.seed, window, sink.clone());
        let judged = replay.monitor.as_ref().expect("monitored");
        certs.record(
            (judged.violation() != Some(&hit.certificate))
                .then(|| "replay did not certify the same violation".to_string()),
        );
        let trace = sink.drain_to_string();
        let cert = hit.certificate.to_json();
        // The same pair on disk, for `shard-trace certify` out of process.
        let dir = traces_dir();
        for (name, body) in [
            ("e22.hit.jsonl", trace.as_str()),
            ("e22.hit.cert.json", &format!("{cert}\n")),
        ] {
            let path = dir.join(name);
            match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        match shard_obs::certify(&trace, &cert) {
            Ok(v) => {
                certs.record(
                    (v.property != "transitivity")
                        .then(|| format!("validator saw property {:?}", v.property)),
                );
                println!("\ncertify: accepted — {}", v.detail);
            }
            Err(e) => certs.record(Some(format!(
                "validator rejected the true certificate: {e}"
            ))),
        }
        let Certificate::Transitivity { low, mid, .. } = hit.certificate else {
            unreachable!("the sweep stops only on transitivity violations");
        };
        // Point `top` at the run's row count, past its last row: the
        // trace cannot contain the named evidence, whatever its content.
        let mutated = Certificate::Transitivity {
            low,
            mid,
            top: judged.rows,
        }
        .to_json();
        match shard_obs::certify(&trace, &mutated) {
            Ok(_) => certs.record(Some("validator accepted a mutated certificate".into())),
            Err(e) => println!("certify: mutated certificate rejected — {e}"),
        }
    } else {
        certs.record(Some("no hit to certify".into()));
    }
    exp.claim(certs);

    if let Some(sink) = sink.as_deref() {
        sink.flush();
    }
    exp.finish();
}
