//! The read-write cluster's mixed operation stream (C-1,
//! `benches/voldemort_serving.rs`).

use li_workload::keys::{member_key, KeyDistribution};
use rand::Rng;

/// One operation in a workload stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Read the key.
    Read(Vec<u8>),
    /// Write the key with a value of the attached size.
    Write(Vec<u8>, usize),
}

/// A mixed workload: read fraction, key distribution, value size.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    read_fraction: f64,
    keys: KeyDistribution,
    value_size: usize,
}

impl MixedWorkload {
    /// The paper's read-write cluster mix: "about 60% reads and 40% writes".
    pub fn sixty_forty(keys: KeyDistribution, value_size: usize) -> Self {
        MixedWorkload {
            read_fraction: 0.6,
            keys,
            value_size,
        }
    }

    /// Generates a stream of `count` operations over member keys.
    pub fn ops(&self, rng: &mut impl Rng, count: usize) -> Vec<Operation> {
        (0..count)
            .map(|_| {
                let key = member_key(self.keys.sample(rng));
                if rng.random::<f64>() < self.read_fraction {
                    Operation::Read(key)
                } else {
                    Operation::Write(key, self.value_size)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_ratio_holds() {
        let workload = MixedWorkload::sixty_forty(KeyDistribution::uniform(1000), 100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ops = workload.ops(&mut rng, 10_000);
        let reads = ops.iter().filter(|o| matches!(o, Operation::Read(_))).count();
        let ratio = reads as f64 / ops.len() as f64;
        assert!((0.57..=0.63).contains(&ratio), "read ratio {ratio}");
    }
}
