//! Pool-size determinism of the chaos search.
//!
//! `chaos::sweep` fans seeds out across a `shard_pool` work-sharing
//! pool and shrinks per-oracle counterexamples in parallel. The whole
//! point of the pool's input-ordered collection is that this is purely
//! a throughput knob: the canonical JSON serialisation of the outcome —
//! every verdict, the chosen counterexample seeds, the recorded and
//! shrunk fault schedules — must be byte-identical at every pool size,
//! including the degenerate sequential pool. These tests pin that down
//! over randomly drawn seed counts (and, for the monitored sweep,
//! windows).

use proptest::prelude::*;
use shard_bench::chaos::{monitored_sweep, sweep, ChaosConfig};
use shard_pool::PoolConfig;

/// Run the same sweep at pool sizes 1, 2 and 7 and demand one byte
/// string out of all three.
fn assert_pool_invariant(mut cfg: ChaosConfig) {
    cfg.pool = PoolConfig::with_threads(1);
    let sequential = sweep(&cfg).to_json_string();
    for threads in [2, 7] {
        cfg.pool = PoolConfig::with_threads(threads);
        let parallel = sweep(&cfg).to_json_string();
        assert_eq!(
            sequential, parallel,
            "sweep outcome diverged at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sweeps of a random number of seeds: the outcome must not see the
    /// pool.
    #[test]
    fn sweep_outcome_is_identical_at_every_pool_size(seeds in 1u64..24) {
        assert_pool_invariant(ChaosConfig::new(seeds));
    }

    /// The monitored sweep stops early at the first confirmed
    /// violation — which seeds ran, the hit and the skip count must
    /// still be one byte string at every pool size (chunking is fixed,
    /// never derived from the pool).
    #[test]
    fn monitored_sweep_outcome_is_identical_at_every_pool_size(
        seeds in 1u64..24,
        window_idx in 0usize..3,
    ) {
        let mut cfg = ChaosConfig::new(seeds);
        let window = [1usize, 7, 64][window_idx];
        cfg.pool = PoolConfig::with_threads(1);
        let sequential = monitored_sweep(&cfg, window).to_json_string();
        for threads in [2, 7] {
            cfg.pool = PoolConfig::with_threads(threads);
            let parallel = monitored_sweep(&cfg, window).to_json_string();
            prop_assert_eq!(
                &sequential, &parallel,
                "monitored sweep diverged at {} threads", threads
            );
        }
    }
}

/// E21's sweep at a reduced seed count, with shrinking on, so the
/// parallel shrink phase is exercised on real counterexamples.
#[test]
fn e21_sweep_is_pool_invariant() {
    assert_pool_invariant(ChaosConfig::new(12));
}
