//! `shard-chaos` — the chaos-search CLI over the nemesis layer.
//!
//! Sweeps seeds over the Fly-by-Night airline under a seeded fault
//! stack, evaluates the §3 condition checkers and the Corollary 8 cost
//! bound as oracles on every run, and shrinks the first schedule
//! defeating each refinement to a minimal event list (E21 is the fixed
//! 120-seed pinned run of the same engine; this binary is the knob-able
//! front end CI smoke-runs).
//!
//! ```text
//! shard-chaos [--seeds N] [--start-seed N] [--nodes N] [--txns N]
//!             [--k-limit K] [--drop P] [--dup P] [--reorder P]
//!             [--partitions N] [--crashes N] [--no-shrink] [--name S]
//!             [--threads N] [--monitor-window W] [--cert-out PATH]
//!             [--trace-out PATH]
//! ```
//!
//! With `--monitor-window` the sweep runs the kernel's live monitor
//! inside every run instead of the offline oracles: each run streams
//! its transactions through the windowed §3 checkers, a violating run
//! aborts at its first confirmed violation, and the sweep stops at the
//! first violating seed. The hit seed is then replayed with row
//! emission on — `--trace-out` captures the raw trace, `--cert-out`
//! the violation certificate, and `shard-trace certify` re-validates
//! the pair in O(|certificate|) with no checker re-run.
//!
//! Exit status reflects only the *theorem* oracles (prefix-subsequence,
//! cost bounds, fault-free baselines): those must hold on every run at
//! any sweep size. Refinement violations are the search's *findings* —
//! reported, counted in the sidecar, but never a failure, so small CI
//! sweeps stay deterministic-green.

use shard_analysis::{ClaimCheck, Table};
use shard_bench::chaos::{monitored_sweep, replay_monitored, sweep, ChaosConfig, Oracle};
use shard_bench::report_claim;

fn usage() -> ! {
    eprintln!(
        "usage: shard-chaos [--seeds N] [--start-seed N] [--nodes N] [--txns N]\n\
         \x20                  [--k-limit K] [--drop P] [--dup P] [--reorder P]\n\
         \x20                  [--partitions N] [--crashes N] [--no-shrink] [--name S]\n\
         \x20                  [--threads N]  (default: SHARD_POOL_THREADS or all cores)\n\
         \x20                  [--monitor-window W]  (live in-run monitors, stop at first hit)\n\
         \x20                  [--cert-out PATH] [--trace-out PATH]  (hit-seed artifacts)"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        eprintln!("error: {flag} needs a value");
        usage();
    };
    match v.parse() {
        Ok(x) => x,
        Err(_) => {
            eprintln!("error: bad value {v:?} for {flag}");
            usage();
        }
    }
}

/// The `--monitor-window` mode: live monitors inside every run, sweep
/// stopped at the first confirmed violation, hit-seed trace and
/// certificate captured for independent `shard-trace certify`.
fn run_monitored_mode(
    cfg: &ChaosConfig,
    name: String,
    window: usize,
    cert_out: Option<String>,
    trace_out: Option<String>,
) {
    let exp = shard_bench::Experiment::start(name);
    println!(
        "shard-chaos: monitored sweep of {} seed(s) from {} — window {}, \
         {} txns over {} nodes\n",
        cfg.seeds, cfg.start_seed, window, cfg.txns, cfg.nodes,
    );
    let outcome = monitored_sweep(cfg, window);

    let mut t = Table::new(
        format!(
            "live verdicts ({} of {} seed(s) run, {} skipped)",
            outcome.verdicts.len(),
            cfg.seeds,
            outcome.seeds_skipped
        ),
        &[
            "seed",
            "rows",
            "aborted",
            "transitive",
            "max_missed",
            "delay_bound",
        ],
    );
    for v in &outcome.verdicts {
        t.row(&[
            v.seed.to_string(),
            v.rows.to_string(),
            v.aborted.to_string(),
            v.transitive.to_string(),
            v.max_missed.to_string(),
            v.delay_bound.to_string(),
        ]);
    }
    println!("{t}");

    // The monitor aborts exactly the runs it found non-transitive; any
    // mismatch between the two flags is a monitor bug, not a finding.
    let mut consistent = ClaimCheck::new("every live verdict has aborted == !transitive");
    for v in &outcome.verdicts {
        consistent.record((v.aborted == v.transitive).then(|| {
            format!(
                "seed {}: aborted = {} but transitive = {}",
                v.seed, v.aborted, v.transitive
            )
        }));
    }
    let ok = report_claim(&consistent);

    match &outcome.hit {
        None => println!("\nno violation in {} seed(s)", cfg.seeds),
        Some(hit) => {
            println!(
                "\nfirst confirmed violation: seed {} after {} row(s) \
                 (fault-free baseline transitive: {})",
                hit.seed, hit.rows_at_abort, hit.baseline_transitive
            );
            println!("certificate: {}", hit.certificate.to_json());
            if cert_out.is_some() || trace_out.is_some() {
                let sink = match &trace_out {
                    Some(path) => match shard_obs::EventSink::to_file(path) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("error: cannot open {path:?}: {e}");
                            std::process::exit(1);
                        }
                    },
                    None => shard_obs::EventSink::in_memory(),
                };
                let report = replay_monitored(cfg, hit.seed, window, sink.clone());
                sink.flush();
                assert!(report.aborted, "hit-seed replay must abort again");
                if let Some(path) = &trace_out {
                    println!("trace written to {path}");
                }
                if let Some(path) = &cert_out {
                    if let Err(e) = std::fs::write(path, hit.certificate.to_json() + "\n") {
                        eprintln!("error: cannot write {path:?}: {e}");
                        std::process::exit(1);
                    }
                    println!("certificate written to {path}");
                }
            }
        }
    }
    exp.finish(ok);
}

fn main() {
    let mut cfg = ChaosConfig::default();
    let mut name = String::from("chaos");
    let mut monitor_window: Option<usize> = None;
    let mut cert_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = parse(&a, args.next()),
            "--start-seed" => cfg.start_seed = parse(&a, args.next()),
            "--nodes" => cfg.nodes = parse(&a, args.next()),
            "--txns" => cfg.txns = parse(&a, args.next()),
            "--k-limit" => cfg.k_limit = parse(&a, args.next()),
            "--drop" => cfg.drop_prob = parse(&a, args.next()),
            "--dup" => cfg.dup_prob = parse(&a, args.next()),
            "--reorder" => cfg.reorder_prob = parse(&a, args.next()),
            "--partitions" => cfg.partition_windows = parse(&a, args.next()),
            "--crashes" => cfg.crash_windows = parse(&a, args.next()),
            "--no-shrink" => cfg.shrink = false,
            "--threads" => cfg.pool = shard_pool::PoolConfig::with_threads(parse(&a, args.next())),
            "--name" => name = parse(&a, args.next()),
            "--monitor-window" => monitor_window = Some(parse(&a, args.next())),
            "--cert-out" => cert_out = Some(parse(&a, args.next())),
            "--trace-out" => trace_out = Some(parse(&a, args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
        }
    }
    if cfg.seeds == 0 || cfg.nodes == 0 || cfg.txns == 0 {
        eprintln!("error: --seeds, --nodes and --txns must be positive");
        usage();
    }
    if monitor_window == Some(0) {
        eprintln!("error: --monitor-window must be positive");
        usage();
    }
    if monitor_window.is_none() && (cert_out.is_some() || trace_out.is_some()) {
        eprintln!("error: --cert-out/--trace-out need --monitor-window");
        usage();
    }
    if let Some(window) = monitor_window {
        run_monitored_mode(&cfg, name, window, cert_out, trace_out);
        return;
    }

    let exp = shard_bench::Experiment::start(name);
    println!(
        "shard-chaos: sweeping {} seed(s) from {} — {} txns over {} nodes, \
         drop {:.2} / dup {:.2} / reorder {:.2}, {} partition + {} crash window(s)\n",
        cfg.seeds,
        cfg.start_seed,
        cfg.txns,
        cfg.nodes,
        cfg.drop_prob,
        cfg.dup_prob,
        cfg.reorder_prob,
        cfg.partition_windows,
        cfg.crash_windows,
    );
    let outcome = sweep(&cfg);

    let mut theorems = ClaimCheck::new(
        "theorem oracles hold on every run (prefix-subsequence, Cor 8, fault-free baselines)",
    );
    for v in &outcome.verdicts {
        theorems.record(
            (!v.verify_ok)
                .then(|| format!("seed {}: prefix-subsequence condition violated", v.seed)),
        );
        theorems.record(
            (!v.cost_ok)
                .then(|| format!("seed {}: Corollary 8 overbooking bound violated", v.seed)),
        );
        theorems.record(
            (!v.base_transitive)
                .then(|| format!("seed {}: fault-free baseline not transitive", v.seed)),
        );
        theorems.record((v.base_max_missed > cfg.k_limit).then(|| {
            format!(
                "seed {}: fault-free baseline max_missed = {} > {}",
                v.seed, v.base_max_missed, cfg.k_limit
            )
        }));
    }
    let ok = report_claim(&theorems);

    let mut t = Table::new(
        format!("refinement violations over {} seed(s)", cfg.seeds),
        &["oracle", "violating seeds", "shrunk counterexample"],
    );
    for (oracle, broken) in [
        (Oracle::Transitivity, outcome.transitivity_violations()),
        (Oracle::KCompleteness, outcome.k_violations(cfg.k_limit)),
    ] {
        let ce = match outcome.counterexample(oracle) {
            Some(ce) => format!(
                "seed {}: {} → {} events ({} re-runs)",
                ce.seed,
                ce.recorded,
                ce.events.len(),
                ce.shrink_runs
            ),
            None => "—".into(),
        };
        t.row(&[oracle.to_string(), format!("{broken}/{}", cfg.seeds), ce]);
    }
    println!("\n{t}");

    for ce in &outcome.counterexamples {
        println!("\nminimal {} counterexample (seed {}):", ce.oracle, ce.seed);
        for e in &ce.events {
            println!("  {e}");
        }
    }

    exp.finish(ok);
}
