//! The benchmark's own random numbers: splitmix64 seeding, xoshiro256**
//! draws, and a Gray-et-al. Zipfian sampler.
//!
//! None of this comes from `vendor/rand` or `li_workload`: the load the
//! ruler offers must not change when the code under it does.

/// One splitmix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent stream seed for `(seed, stream)`.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95);
    splitmix64(&mut state)
}

/// xoshiro256**.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the four state words from one splitmix64 sequence.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut state)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipfian ranks over `0..n` with skew `theta` in `(0, 1)`; rank 0 is the
/// hottest. Gray et al., "Quickly generating billion-record synthetic
/// databases" — the construction YCSB uses.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty item space");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zeta = |k: u64| (1..=k).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(n.min(2)) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let draw = |seed| {
            let mut rng = Rng::from_seed(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(split_seed(42, 0)), draw(split_seed(42, 0)));
        assert_ne!(draw(split_seed(42, 0)), draw(split_seed(42, 1)));
        assert_ne!(draw(split_seed(42, 0)), draw(split_seed(43, 0)));
    }

    #[test]
    fn zipf_is_in_range_and_skewed() {
        let zipf = Zipf::new(10_000, 0.99);
        let mut rng = Rng::from_seed(1);
        let mut hot = 0;
        for _ in 0..50_000 {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 10_000);
            if rank < 100 {
                hot += 1;
            }
        }
        assert!(hot > 15_000, "top 1% of ranks drew only {hot}/50000");
    }
}
