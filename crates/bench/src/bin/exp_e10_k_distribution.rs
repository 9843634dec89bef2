//! E10 — closing the loop the paper leaves open (§1.3 part (2)): the
//! empirical distribution of `k` as a function of the message system,
//! and the "continuous flavor" claim.
//!
//! §1.3: conditional bounds (part 1) are to be combined with
//! "probability distribution information describing the probability that
//! the conditions hold … obtained by an independent analysis, using
//! information such as delay characteristics of the message system, and
//! expected rates of transaction processing." The simulator *is* that
//! analysis: for each delay model and arrival rate we measure the
//! distribution of missed-predecessor counts and the realized costs.
//!
//! The abstract's claim — "small changes in available information lead
//! to small perturbations in correctness conditions" — appears as the
//! smooth, roughly proportional growth of both `k` and cost with delay.

use shard_analysis::probabilistic::{probabilistic_bounds, probability_k_at_most};
use shard_analysis::{completeness, trace, ClaimCheck, Table};
use shard_apps::airline::workload::AirlineMix;
use shard_apps::airline::{FlyByNight, OVERBOOKING, UNDERBOOKING};
use shard_bench::workloads::{airline_invocations, Routing};
use shard_bench::TRIAL_SEEDS;
use shard_core::costs::BoundFn;
use shard_sim::{ClusterConfig, DelayModel, Runner};

fn main() {
    let mut exp = shard_bench::Experiment::start("e10");
    let app = FlyByNight::new(40);
    println!("E10: measured k distribution vs delay/rate (5 nodes, 1500 txns × 5 seeds)\n");

    let mut t = Table::new(
        "E10 delay sweep at mean gap 8",
        &[
            "mean delay",
            "k mean",
            "k p95",
            "k max",
            "max over $",
            "max under $",
        ],
    );
    let mut prev_mean = -1.0f64;
    let mut monotone = ClaimCheck::new("mean k does not fall as the mean delay grows");
    for mean_delay in [2u64, 8, 32, 128, 512] {
        let (ks, over, under) = run_sweep(&app, mean_delay, 8);
        let s = completeness_summary(&ks);
        monotone.record((s.0 < prev_mean).then(|| format!("delay {mean_delay}: k mean fell")));
        prev_mean = s.0;
        t.push_row(vec![
            mean_delay.to_string(),
            format!("{:.2}", s.0),
            s.1.to_string(),
            s.2.to_string(),
            over.to_string(),
            under.to_string(),
        ]);
    }
    println!("{t}");
    exp.claim(monotone);

    let mut t = Table::new(
        "E10 arrival-rate sweep at mean delay 32",
        &[
            "mean gap",
            "k mean",
            "k p95",
            "k max",
            "max over $",
            "max under $",
        ],
    );
    for gap in [1u64, 4, 16, 64] {
        let (ks, over, under) = run_sweep(&app, 32, gap);
        let s = completeness_summary(&ks);
        t.push_row(vec![
            gap.to_string(),
            format!("{:.2}", s.0),
            s.1.to_string(),
            s.2.to_string(),
            over.to_string(),
            under.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "shape: k grows smoothly with delay and with arrival rate (shorter gaps), and the\n\
         realized costs track k — the paper's continuity claim, measured\n"
    );

    // The §1.3 combination: conditional bound (1) × measured
    // distribution (2) = "with probability p, cost ≤ c" — the statement
    // shape the paper says application designers need.
    let f = BoundFn::linear(900);
    let mut t = Table::new(
        "E10c §1.3 probabilistic overbooking bounds (delay exp(32), gap 8, per txn)",
        &["probability p", "k quantile", "cost bound c = 900·k $"],
    );
    let (ks, _, _) = run_sweep(&app, 32, 8);
    let samples: Vec<usize> = ks.iter().map(|k| *k as usize).collect();
    // Each row's k is the p-quantile: it covers at least p of the
    // samples, and k − 1 covers less.
    let mut quantiles =
        ClaimCheck::new("§1.3: each k quantile covers ≥ p of the samples, and k − 1 covers < p");
    for row in probabilistic_bounds(&samples, &f, &[0.50, 0.90, 0.99, 0.999, 1.0]) {
        let (p, k) = (row.probability, row.k_bound);
        let covers = probability_k_at_most(&samples, k) >= p;
        let least = k == 0 || probability_k_at_most(&samples, k - 1) < p;
        quantiles.record((!(covers && least)).then(|| format!("p {p}: k {k} is not the quantile")));
        t.push_row(vec![
            format!("{:.3}", row.probability),
            row.k_bound.to_string(),
            row.cost_bound.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "reading: 'with probability 0.99, a transaction runs at most k₀.₉₉ behind, so\n\
         with probability 0.99 the overbooking cost it can cause is at most 900·k₀.₉₉'\n\
         — exactly the statement form §1.3 calls for"
    );
    exp.claim(quantiles);

    exp.finish();
}

fn run_sweep(app: &FlyByNight, mean_delay: u64, gap: u64) -> (Vec<u64>, u64, u64) {
    let execs: Vec<_> = TRIAL_SEEDS
        .into_iter()
        .map(|seed| {
            let cluster = Runner::eager(
                app,
                ClusterConfig {
                    nodes: 5,
                    seed,
                    delay: DelayModel::Exponential { mean: mean_delay },
                    ..Default::default()
                },
            );
            let invs =
                airline_invocations(seed, 1500, 5, gap, AirlineMix::default(), Routing::Random);
            cluster.run(invs).timed_execution().execution
        })
        .collect();

    let mut ks = Vec::new();
    let mut over = 0;
    let mut under = 0;
    for e in &execs {
        ks.extend(completeness::missed_counts(e).into_iter().map(|c| c as u64));
        over = over.max(trace::max_cost(app, e, OVERBOOKING));
        under = under.max(trace::max_cost(app, e, UNDERBOOKING));
    }
    (ks, over, under)
}

fn completeness_summary(ks: &[u64]) -> (f64, u64, u64) {
    let s = shard_analysis::Summary::of(ks);
    (s.mean, s.p95, s.max)
}
