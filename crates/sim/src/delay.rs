//! Message delay models.
//!
//! §1.3 leaves "probability distribution information … obtained by an
//! independent analysis, using information such as delay characteristics
//! of the message system" out of the paper's scope; experiment E10
//! closes that loop by measuring the empirical distribution of `k` under
//! these delay models.

use crate::events::SimTime;
use rand::Rng;

/// How long a message takes from sender to receiver, in ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly this long.
    Fixed(SimTime),
    /// Uniform in `[lo, hi]`.
    Uniform {
        /// Minimum delay.
        lo: SimTime,
        /// Maximum delay (inclusive).
        hi: SimTime,
    },
    /// Exponential with the given mean (heavy tail: occasional stragglers
    /// produce the large-`k` transactions the cost bounds are about).
    Exponential {
        /// Mean delay.
        mean: SimTime,
    },
}

impl DelayModel {
    /// Samples one delay.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `lo > hi`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match *self {
            DelayModel::Fixed(d) => d,
            DelayModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform delay needs lo <= hi");
                rng.random_range(lo..=hi)
            }
            DelayModel::Exponential { mean } => {
                let u: f64 = rng.random::<f64>();
                // Inverse CDF, clamped away from u = 1 to avoid infinity.
                let x = -(1.0 - u.min(0.999_999)).ln() * mean as f64;
                x.round() as SimTime
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<SimTime> = (0..10)
            .map(|_| DelayModel::Fixed(25).sample(&mut rng))
            .collect();
        assert_eq!(samples, [25; 10], "every sample, so the mean, is 25");
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = DelayModel::Uniform { lo: 10, hi: 20 };
        let mut sum = 0;
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!((10..=20).contains(&d));
            sum += d;
        }
        assert!(
            (14_500..=15_500).contains(&sum),
            "mean near the midpoint: {sum}"
        );
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = DelayModel::Exponential { mean: 100 };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut rng)).sum();
        let avg = total as f64 / n as f64;
        assert!((85.0..115.0).contains(&avg), "avg={avg}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = DelayModel::Exponential { mean: 50 };
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn bad_uniform_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = DelayModel::Uniform { lo: 5, hi: 1 }.sample(&mut rng);
    }
}
