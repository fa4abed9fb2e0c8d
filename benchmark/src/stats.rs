//! Percentiles of latency samples.

/// The percentiles the benchmark reports, lowest first.
pub const PERCENTILES: [(f64, &str); 4] =
    [(0.50, "p50"), (0.95, "p95"), (0.99, "p99"), (0.999, "p999")];

/// Nearest-rank percentile of sorted samples; 0 for none.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the
/// rule for which percentile a sample supports.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0
}

/// The highest reported percentile that `n` samples support.
pub fn highest_supported(n: usize) -> Option<&'static str> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(p, _)| supports(n, *p))
        .map(|(_, name)| *name)
}

/// The median of a few values (the mean of the middle two of an even
/// number); 0 for none.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Sorted latency samples of one op class or span name, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    sorted: Vec<u64>,
}

impl Latencies {
    pub fn from_unsorted(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Latencies { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn ns(&self, p: f64) -> u64 {
        percentile(&self.sorted, p)
    }

    pub fn us(&self, p: f64) -> f64 {
        self.ns(p) as f64 / 1e3
    }

    /// A tail percentile in microseconds, or 0 when the samples do not
    /// support it.
    pub fn supported_us(&self, p: f64) -> f64 {
        if supports(self.count(), p) {
            self.us(p)
        } else {
            0.0
        }
    }

    pub fn sum_s(&self) -> f64 {
        self.sorted.iter().sum::<u64>() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.999), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some("p50"));
        assert_eq!(highest_supported(199), Some("p50"));
        assert_eq!(highest_supported(200), Some("p95"));
        assert_eq!(highest_supported(999), Some("p95"));
        assert_eq!(highest_supported(1_000), Some("p99"));
        assert_eq!(highest_supported(9_999), Some("p99"));
        assert_eq!(highest_supported(10_000), Some("p999"));
        let few = Latencies::from_unsorted((1..=500).collect());
        assert_eq!(few.supported_us(0.99), 0.0);
        assert!(few.supported_us(0.95) > 0.0);
    }
}
