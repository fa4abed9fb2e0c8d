//! MD5 (RFC 1321).
//!
//! Voldemort's custom read-only storage engine keys its index files by
//! "a compact list of sorted MD5 of key and offset to data into the data
//! file" (paper §II.B, Figure II.3). We need bit-for-bit MD5 so index
//! entries sort and compare identically to the paper's layout. MD5 is used
//! here purely as a uniform 16-byte key digest, not for security.

use std::sync::OnceLock;

/// A 16-byte MD5 digest.
pub type Digest = [u8; 16];

/// Per-round left-rotate amounts.
const SHIFTS: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// K\[i\] = floor(|sin(i+1)| * 2^32), computed once at first use.
fn sine_table() -> &'static [u32; 64] {
    static TABLE: OnceLock<[u32; 64]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut k = [0u32; 64];
        for (i, entry) in k.iter_mut().enumerate() {
            *entry = ((i as f64 + 1.0).sin().abs() * 4_294_967_296.0) as u32;
        }
        k
    })
}

/// Computes the MD5 digest of `data`.
pub fn md5(data: &[u8]) -> Digest {
    let k = sine_table();
    let mut a0: u32 = 0x6745_2301;
    let mut b0: u32 = 0xefcd_ab89;
    let mut c0: u32 = 0x98ba_dcfe;
    let mut d0: u32 = 0x1032_5476;

    // Pad: 0x80, zeros to 56 mod 64, then the bit length as little-endian u64.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut message = Vec::with_capacity(data.len() + 72);
    message.extend_from_slice(data);
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_le_bytes());

    for chunk in message.chunks_exact(64) {
        let mut m = [0u32; 16];
        for (j, word) in m.iter_mut().enumerate() {
            *word = u32::from_le_bytes([
                chunk[4 * j],
                chunk[4 * j + 1],
                chunk[4 * j + 2],
                chunk[4 * j + 3],
            ]);
        }
        let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
        for i in 0..64 {
            let (f, g) = match i {
                0..=15 => ((b & c) | (!b & d), i),
                16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let rotated = f
                .wrapping_add(a)
                .wrapping_add(k[i])
                .wrapping_add(m[g])
                .rotate_left(SHIFTS[i]);
            a = d;
            d = c;
            c = b;
            b = b.wrapping_add(rotated);
        }
        a0 = a0.wrapping_add(a);
        b0 = b0.wrapping_add(b);
        c0 = c0.wrapping_add(c);
        d0 = d0.wrapping_add(d);
    }

    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&a0.to_le_bytes());
    out[4..8].copy_from_slice(&b0.to_le_bytes());
    out[8..12].copy_from_slice(&c0.to_le_bytes());
    out[12..16].copy_from_slice(&d0.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Formats a digest as lowercase hex, the form the RFC vectors take.
    fn to_hex(digest: &Digest) -> String {
        digest.iter().map(|byte| format!("{byte:02x}")).collect()
    }

    #[test]
    fn rfc1321_vectors() {
        assert_eq!(to_hex(&md5(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(to_hex(&md5(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(to_hex(&md5(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            to_hex(&md5(b"message digest")),
            "f96b697d7cb7938d525a2f31aaf161d0"
        );
        assert_eq!(
            to_hex(&md5(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            to_hex(&md5(b"The quick brown fox jumps over the lazy dog")),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 56-byte and 64-byte padding boundaries are the
        // classic off-by-one territory; make sure they all hash distinctly
        // and deterministically.
        let mut seen = std::collections::HashSet::new();
        for len in 54..=66 {
            let data = vec![b'x'; len];
            let d1 = md5(&data);
            let d2 = md5(&data);
            assert_eq!(d1, d2);
            assert!(seen.insert(d1), "collision at len {len}");
        }
    }

    #[test]
    fn len55_and_len56_vectors() {
        // 55 bytes: padding fits one block; 56 bytes: spills to a second.
        let a55: String = "a".repeat(55);
        let a56: String = "a".repeat(56);
        assert_eq!(
            to_hex(&md5(a55.as_bytes())),
            "ef1772b6dff9a122358552954ad0df65"
        );
        assert_eq!(
            to_hex(&md5(a56.as_bytes())),
            "3b0c8ac703f828b04c6c197006d17218"
        );
    }
}
