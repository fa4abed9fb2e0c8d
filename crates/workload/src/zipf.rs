//! Zipfian sampling (Gray et al., "Quickly generating billion-record
//! synthetic databases" — the construction YCSB popularized).

use rand::Rng;

/// A Zipfian distribution over `0..n` with skew `theta` (0 < theta < 1;
/// YCSB's default 0.99). Rank 0 is the hottest item.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipfian {
    /// Creates a sampler over `0..n` with skew `theta`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty item space");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// YCSB's default skew.
    pub fn ycsb(n: u64) -> Self {
        Self::new(n, 0.99)
    }

    /// Number of items.
    pub fn item_count(&self) -> u64 {
        self.n
    }

    /// Draws a rank in `0..n` (0 = hottest).
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) && self.n >= 2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The exact probability mass of rank `k` (for tests / analysis).
    pub fn mass(&self, k: u64) -> f64 {
        1.0 / ((k + 1) as f64).powf(self.theta) / self.zetan
    }
}

/// A Zipf-distributed *size* in `1..=max` (rank 0 → `max`): used for the
/// Company Follow value-size distribution, where a few companies have
/// enormous follower lists.
pub fn zipf_size(zipf: &Zipfian, rng: &mut impl Rng, max: usize) -> usize {
    let rank = zipf.sample(rng);
    // Invert: hot ranks → big sizes, with harmonic decay.
    ((max as f64) / (rank + 1) as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ranks_in_range() {
        let zipf = Zipfian::ycsb(1000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn skew_concentrates_on_hot_items() {
        let zipf = Zipfian::ycsb(10_000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut hot = 0usize;
        const SAMPLES: usize = 50_000;
        for _ in 0..SAMPLES {
            if zipf.sample(&mut rng) < 100 {
                hot += 1;
            }
        }
        // Top 1% of items should draw a large share of traffic (far more
        // than the 1% uniform would give).
        let share = hot as f64 / SAMPLES as f64;
        assert!(share > 0.3, "hot share {share}");
    }

    #[test]
    fn empirical_matches_mass_for_rank_zero() {
        let zipf = Zipfian::new(100, 0.9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        const SAMPLES: usize = 200_000;
        let zeros = (0..SAMPLES)
            .filter(|_| zipf.sample(&mut rng) == 0)
            .count();
        let observed = zeros as f64 / SAMPLES as f64;
        let expected = zipf.mass(0);
        assert!(
            (observed - expected).abs() < 0.02,
            "observed {observed} vs expected {expected}"
        );
    }

    #[test]
    fn single_item_space() {
        let zipf = Zipfian::new(1, 0.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        assert_eq!(zipf.sample(&mut rng), 0);
    }

    #[test]
    fn sizes_are_skewed_and_bounded() {
        let zipf = Zipfian::ycsb(1000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sizes: Vec<usize> = (0..1000).map(|_| zipf_size(&zipf, &mut rng, 5000)).collect();
        assert!(sizes.iter().all(|&s| (1..=5000).contains(&s)));
        assert!(sizes.contains(&5000), "hot rank hits max size");
        assert!(sizes.iter().filter(|&&s| s < 50).count() > 100, "long tail");
    }
}
