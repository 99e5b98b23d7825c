//! Exact order statistics over latency samples.
//!
//! Samples are kept as plain `f64` vectors and sorted when read — the
//! log₂ histograms of `bqs-obs` have a bucket error (≤ 2×) wider than
//! any regression bound this benchmark fixes.

/// A tail percentile needs this many samples beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= MIN_BEYOND as f64 - 1e-9
}

/// A tail percentile, refused (`None`) when fewer than [`MIN_BEYOND`]
/// samples lie beyond it — p99 of 500 samples is five observations, not
/// a statistic.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    supports(samples.len(), p).then(|| percentile(samples, p))
}

/// The highest percentile not above `p` that `n` samples support
/// (never below the median).
pub fn best_supported(n: usize, p: f64) -> f64 {
    if supports(n, p) {
        p
    } else {
        (1.0 - MIN_BEYOND as f64 / n.max(1) as f64).max(0.5)
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Latency samples grouped by round.
#[derive(Debug, Default, Clone)]
pub struct Rounds {
    rounds: Vec<Vec<f64>>,
}

impl Rounds {
    pub fn push_round(&mut self, samples: Vec<f64>) {
        if !samples.is_empty() {
            self.rounds.push(samples);
        }
    }

    pub fn total(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    fn pooled(&self) -> Vec<f64> {
        self.rounds.iter().flatten().copied().collect()
    }

    /// The median over rounds of each round's median.
    pub fn p50(&self) -> f64 {
        let per_round: Vec<f64> = self.rounds.iter().map(|r| median(r)).collect();
        median(&per_round)
    }

    /// Percentile `p`: the median over rounds of each round's
    /// percentile when every round supports it, otherwise the pooled
    /// percentile — `None` when even the pool is too small.
    pub fn tail(&self, p: f64) -> Option<f64> {
        if self.rounds.is_empty() {
            return None;
        }
        if self.rounds.iter().all(|r| supports(r.len(), p)) {
            let per_round: Vec<f64> = self.rounds.iter().map(|r| percentile(r, p)).collect();
            Some(median(&per_round))
        } else {
            tail_percentile(&self.pooled(), p)
        }
    }

    /// [`Rounds::tail`] at `p`, or — for a run too short to carry it —
    /// at the highest percentile the pool supports; returns the value
    /// and the percentile actually used.
    pub fn tail_or_best(&self, p: f64) -> Option<(f64, f64)> {
        let used = best_supported(self.total(), p);
        self.tail(used).map(|v| (v, used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selects_exact_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.001), 1.0);
        // Unsorted input, odd count.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.67), 9.0);
    }

    #[test]
    fn p99_is_refused_on_500_samples_and_given_on_1000() {
        let small: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 0.99), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Some(990.0));
        // p95 needs 200.
        assert_eq!(tail_percentile(&small[..199], 0.95), None);
        assert!(tail_percentile(&small[..200], 0.95).is_some());
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn rounds_report_the_median_of_rounds_not_the_pool() {
        let mut r = Rounds::default();
        r.push_round(vec![1.0, 1.0, 1.0]);
        r.push_round(vec![5.0, 5.0, 5.0]);
        // One slow round with many samples must not drag the figure.
        r.push_round(vec![100.0; 50]);
        assert_eq!(r.p50(), 5.0);
        assert_eq!(r.total(), 56);
    }

    #[test]
    fn tail_uses_rounds_when_each_supports_it_and_pools_otherwise() {
        let round = |base: f64| -> Vec<f64> { (1..=1000).map(|i| base + f64::from(i)).collect() };
        let mut big = Rounds::default();
        big.push_round(round(0.0));
        big.push_round(round(1000.0));
        big.push_round(round(2000.0));
        assert_eq!(big.tail(0.99), Some(1990.0));

        let mut small = Rounds::default();
        for _ in 0..4 {
            small.push_round((1..=300).map(f64::from).collect());
        }
        // 300 per round cannot carry p99, 1200 pooled can.
        assert_eq!(small.tail(0.99), Some(297.0));
        let mut tiny = Rounds::default();
        tiny.push_round(vec![1.0; 100]);
        assert_eq!(tiny.tail(0.99), None);
        assert_eq!(Rounds::default().tail(0.5), None);
    }

    #[test]
    fn a_short_run_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(best_supported(1000, 0.99), 0.99);
        assert_eq!(best_supported(500, 0.99), 0.98);
        assert_eq!(best_supported(12, 0.99), 0.5);
        let mut r = Rounds::default();
        r.push_round((1..=500).map(f64::from).collect());
        assert_eq!(r.tail_or_best(0.99), Some((490.0, 0.98)));
        assert_eq!(r.tail_or_best(0.95), Some((475.0, 0.95)));
        assert_eq!(Rounds::default().tail_or_best(0.99), None);
    }
}
