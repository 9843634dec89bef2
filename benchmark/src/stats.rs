//! Exact order statistics over all samples (no histogram buckets).

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_sorted`] made continuous for tick-valued samples: the
/// nearest-rank value `v` stands for a clock reading in `(v − 1, v]`, and
/// the rank's position among the samples that read `v` says where in
/// that microsecond it falls. Always within one tick of the nearest-rank
/// value, but it moves when the distribution does, where an integer
/// would read the same run after run.
pub fn percentile_within_tick(sorted: &[u64], q: f64) -> f64 {
    let v = percentile_sorted(sorted, q);
    let first = sorted.partition_point(|&x| x < v);
    let ties = sorted.partition_point(|&x| x <= v) - first;
    let rank = (q * sorted.len() as f64).clamp(1.0, sorted.len() as f64);
    let share = ((rank - first as f64) / ties as f64).clamp(0.0, 1.0);
    v as f64 - 1.0 + share
}

/// Median of unsorted samples (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Mean of the middle fifth of the samples (40th to 60th percentile):
/// nearly as deaf to outliers as the median — four samples in ten may be
/// anything — but continuous where samples cluster in a few modes and the
/// median would jump from one to the next.
pub fn midmean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "midmean of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() * 2 / 5;
    let middle = &s[cut..s.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, so the spread the
/// `compare` subcommand reports matches the driver's.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift, so the oracle inputs need no dependency.
    fn noise(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1000
            })
            .collect()
    }

    #[test]
    fn percentile_matches_the_sorted_vector_oracle() {
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let mut v = noise(n as u64, n);
            v.sort_unstable();
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                // Oracle: count samples <= candidate until the share
                // reaches q.
                let want = *v
                    .iter()
                    .find(|&&c| v.iter().filter(|&&x| x <= c).count() as f64 >= q * n as f64)
                    .expect("the maximum always qualifies");
                assert_eq!(percentile_sorted(&v, q), want, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn within_tick_refines_but_never_leaves_the_tick() {
        for n in [1usize, 7, 100, 1000] {
            let mut v = noise(n as u64 + 3, n);
            v.iter_mut().for_each(|x| *x /= 50); // many ties
            v.sort_unstable();
            let mut last = 0.0;
            for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
                let (exact, fine) = (percentile_sorted(&v, q), percentile_within_tick(&v, q));
                assert!(
                    fine <= exact as f64 && fine >= exact as f64 - 1.0,
                    "n={n} q={q}"
                );
                assert!(fine >= last, "monotone in q");
                last = fine;
            }
        }
        // Ten samples reading 5: the median rank is halfway through them.
        assert_eq!(percentile_within_tick(&[5; 10], 0.5), 4.5);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn midmean_is_the_mean_of_the_middle_fifth() {
        // Ten samples, four of them wild: the middle fifth is 5 and 6.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1e6, 1e7, 1e8, 1e9];
        assert_eq!(midmean(&v), 5.5);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[9.0, 1.0, 2.0]), 2.0);
    }
}
