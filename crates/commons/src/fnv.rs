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

/// Hashes `data` with 64-bit FNV-1a.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = OFFSET_BASIS;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
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
