//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Kafka frames every stored message as `[length][crc][attributes][payload]`
//! so a broker restart can detect a torn tail write and truncate the log to
//! the last valid message; `sqlstore`'s binlog and the Voldemort engine log
//! use the same framing. Table-driven slicing-by-8: eight input bytes fold
//! into the state per step through eight 256-entry tables, so the loop's
//! dependency chain is one xor per eight bytes instead of one per byte.

use std::sync::OnceLock;

/// `tables()[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes; `tables()[0]` is the classic byte-at-a-time table.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            }
        }
        tables
    })
}

/// Computes the CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut state = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in words.by_ref() {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        state = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(byte)) & 0xff) as usize];
    }
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time definition, kept as the reference the sliced
    /// implementation is checked against.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn check_vector() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let mut frame = b"kafka message payload".to_vec();
        let good = crc32(&frame);
        frame[5] ^= 0x01;
        assert_ne!(crc32(&frame), good);
    }

    proptest! {
        #[test]
        fn prop_sliced_matches_bytewise_at_every_alignment(
            buffer in proptest::collection::vec(any::<u8>(), 0..4104),
        ) {
            for skew in 0..8usize.min(buffer.len() + 1) {
                let data = &buffer[skew..];
                prop_assert_eq!(crc32(data), bytewise(data));
            }
        }
    }
}
