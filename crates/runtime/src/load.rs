//! Seeded client load generation for live runs.
//!
//! Real replicated-database load is skewed: a few hot objects take most
//! of the traffic. The generator draws object keys from a [`Zipf`]
//! distribution (exact inverse-CDF sampling over the truncated zeta
//! weights — no rejection, no approximation) and paces submissions
//! either **open** (arrivals on a fixed schedule regardless of how fast
//! nodes execute — measures queueing latency) or **closed** (everything
//! due immediately — measures peak throughput).

use crate::live::Submission;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shard_apps::banking::{AccountId, Bank, BankTxn};
use shard_core::ObjectModel;
use shard_sim::{NodeId, Placement};

/// Zipf(s) sampler over ranks `0..n` by inverse-CDF lookup.
///
/// Rank `k` (0-based) has weight `1/(k+1)^s`; `s = 0` is uniform,
/// `s ≈ 1` is the classic web/database skew. Construction is O(n),
/// sampling O(log n).
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Normalised cumulative weights; `cdf[k]` = P(rank ≤ k).
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one rank");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        // First rank whose cumulative weight covers u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// How client submissions are paced against the wall clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Open workload: submission `i` is due `i × gap_us` microseconds
    /// after run start, whether or not earlier ones have executed.
    Open {
        /// Inter-arrival gap in microseconds.
        gap_us: u64,
    },
    /// Closed workload: every submission is due immediately; each node
    /// works through its share at full speed.
    Closed,
}

impl Pacing {
    fn due(&self, i: usize) -> u64 {
        match self {
            Pacing::Open { gap_us } => i as u64 * gap_us,
            Pacing::Closed => 0,
        }
    }
}

/// A seeded banking workload of `n` submissions over `nodes` nodes:
/// deposits, withdrawals, transfers, reconciles and the occasional
/// full-ledger audit, with accounts drawn Zipf(`zipf_s`)-skewed.
///
/// Under partial replication, pass the run's `placement`: each
/// transaction is routed to a node holding every object its decision
/// part reads (the same admission rule a `Placement` validates).
/// Without one, origin nodes are drawn uniformly.
pub fn banking_submissions(
    bank: &Bank,
    seed: u64,
    n: usize,
    nodes: u16,
    zipf_s: f64,
    pacing: Pacing,
    placement: Option<&Placement>,
) -> Vec<Submission<BankTxn>> {
    let accounts = bank.objects().len() as u32;
    assert!(accounts >= 2, "transfers need at least two accounts");
    let zipf = Zipf::new(accounts as usize, zipf_s);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut subs = Vec::with_capacity(n);
    for i in 0..n {
        // Accounts are 1-based; Zipf rank 0 is the hottest account.
        let a = AccountId(zipf.sample(&mut rng) as u32 + 1);
        let amount = rng.random_range(1..=100u32);
        let txn = match rng.random_range(0..100u32) {
            0..=39 => BankTxn::Deposit(a, amount),
            40..=79 => BankTxn::Withdraw(a, amount),
            80..=94 => {
                let mut b = AccountId(zipf.sample(&mut rng) as u32 + 1);
                if b == a {
                    b = AccountId(a.0 % accounts + 1);
                }
                BankTxn::Transfer(a, b, amount)
            }
            95..=98 => BankTxn::Reconcile(a),
            _ => BankTxn::Audit,
        };
        let node = match placement {
            Some(p) => match p.any_holder_of_all(&bank.decision_objects(&txn)) {
                Some(holder) => holder,
                // No single node reads everything this decision needs
                // (e.g. an audit under a disjoint placement): fall back
                // to a plain deposit, which any holder of `a` admits.
                None => {
                    let txn = BankTxn::Deposit(a, amount);
                    let holder = p
                        .any_holder_of_all(&bank.decision_objects(&txn))
                        .expect("placement covers every object");
                    subs.push(Submission {
                        at_us: pacing.due(i),
                        node: holder,
                        decision: txn,
                    });
                    continue;
                }
            },
            None => NodeId(rng.random_range(0..nodes)),
        };
        subs.push(Submission {
            at_us: pacing.due(i),
            node,
            decision: txn,
        });
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 beats rank 50 by a wide margin under s = 1.
        assert!(counts[0] > 5 * counts[50].max(1), "{counts:?}");
        assert!(counts.iter().sum::<u32>() == 20_000);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 4];
        for _ in 0..8_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((1_600..2_400).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let bank = Bank::new(16, 50);
        let a = banking_submissions(&bank, 3, 200, 4, 1.0, Pacing::Closed, None);
        let b = banking_submissions(&bank, 3, 200, 4, 1.0, Pacing::Closed, None);
        assert_eq!(a.len(), 200);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.node == y.node
                && format!("{:?}", x.decision) == format!("{:?}", y.decision)));
    }

    #[test]
    fn open_pacing_spaces_arrivals() {
        let bank = Bank::new(8, 50);
        let subs = banking_submissions(&bank, 5, 50, 2, 0.5, Pacing::Open { gap_us: 40 }, None);
        assert_eq!(subs[0].at_us, 0);
        assert_eq!(subs[49].at_us, 49 * 40);
    }

    #[test]
    fn partial_routing_respects_the_placement() {
        let bank = Bank::new(12, 50);
        let placement = Placement::round_robin(3, &bank.objects(), 2);
        let subs = banking_submissions(&bank, 9, 300, 3, 1.0, Pacing::Closed, Some(&placement));
        for s in &subs {
            assert!(
                placement
                    .any_holder_of_all(&bank.decision_objects(&s.decision))
                    .is_some(),
                "admissible at some node: {:?}",
                s.decision
            );
        }
    }
}
