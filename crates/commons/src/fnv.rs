//! FNV-1a hashing.
//!
//! Voldemort's router and Espresso's partitioner both need a fast,
//! well-distributed, *stable* hash of arbitrary keys — stability matters
//! because the partition a key maps to must be identical across every node
//! and every process restart (the paper's routing table is static metadata
//! replicated to all nodes). Rust's `DefaultHasher` is randomly seeded per
//! process, so we implement FNV-1a explicitly.

/// 64-bit FNV-1a offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `data` with 64-bit FNV-1a: the one-shot form of [`Fnv1a`].
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write(data);
    hasher.finish()
}

/// Incremental 64-bit FNV-1a: writing a byte string in any split hashes
/// equal to [`fnv1a`] of the whole, so a fingerprint can walk stored
/// chunks or rows in place instead of concatenating them first.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the offset basis (the hash of no bytes).
    pub fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Feeds `data` into the hash.
    pub fn write(&mut self, data: &[u8]) {
        for &byte in data {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn any_split_hashes_equal_to_the_whole() {
        let data: Vec<u8> = (0..=255u8).chain(b"member:42".iter().copied()).collect();
        let whole = fnv1a(&data);
        for first in 0..=data.len() {
            for second in first..=data.len() {
                let mut hasher = Fnv1a::new();
                hasher.write(&data[..first]);
                hasher.write(&data[first..second]);
                hasher.write(&data[second..]);
                assert_eq!(hasher.finish(), whole, "split at {first}, {second}");
            }
        }
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fnv1a(b"member:1"), fnv1a(b"member:2"));
    }

    #[test]
    fn distribution_over_partitions_is_roughly_uniform() {
        // 32 partitions, 32k keys: every partition should land within 2x of
        // the mean. This is the property the ring relies on to avoid the
        // hot spots the paper attributes to order-preserving schemes.
        const PARTS: usize = 32;
        let mut counts = [0usize; PARTS];
        for i in 0..32_000 {
            let key = format!("member:{i}");
            counts[(fnv1a(key.as_bytes()) % PARTS as u64) as usize] += 1;
        }
        let mean = 32_000 / PARTS;
        for (p, &c) in counts.iter().enumerate() {
            assert!(c > mean / 2 && c < mean * 2, "partition {p} count {c}");
        }
    }
}
