//! Variable-length integer encoding (LEB128, unsigned + zig-zag signed).
//!
//! Databus and the schema codec frame record fields with varints, the same
//! choice Avro makes: most lengths and counters are small, so paying one
//! byte instead of eight keeps the relay's in-memory buffer dense — the
//! paper stresses that a relay holds "tens of GB of data with hundreds of
//! millions of Databus events" in memory.

use bytes::{Buf, BufMut};

/// Maximum encoded size of a u64 varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Error returned when a varint cannot be decoded from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarintError {
    /// The buffer ended in the middle of a varint.
    UnexpectedEof,
    /// More than [`MAX_VARINT_LEN`] continuation bytes were seen.
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::UnexpectedEof => write!(f, "varint truncated"),
            VarintError::Overflow => write!(f, "varint longer than 10 bytes"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Appends `value` to `buf` as an unsigned LEB128 varint.
pub fn write_u64<B: BufMut>(buf: &mut B, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from `buf`.
pub fn read_u64<B: Buf>(buf: &mut B) -> Result<u64, VarintError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(VarintError::UnexpectedEof);
        }
        if shift >= 70 {
            return Err(VarintError::Overflow);
        }
        let byte = buf.get_u8();
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends `value` as a zig-zag-encoded signed varint (small magnitudes of
/// either sign stay short).
pub fn write_i64<B: BufMut>(buf: &mut B, value: i64) {
    write_u64(buf, zigzag_encode(value));
}

/// Reads a zig-zag-encoded signed varint.
pub fn read_i64<B: Buf>(buf: &mut B) -> Result<i64, VarintError> {
    read_u64(buf).map(zigzag_decode)
}

/// Maps a signed integer onto an unsigned one so small magnitudes encode
/// short: 0→0, -1→1, 1→2, -2→3, ...
fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Writes a length-prefixed byte slice.
pub fn write_bytes<B: BufMut>(buf: &mut B, data: &[u8]) {
    write_u64(buf, data.len() as u64);
    buf.put_slice(data);
}

/// Reads a length-prefixed byte slice.
pub fn read_bytes<B: Buf>(buf: &mut B) -> Result<Vec<u8>, VarintError> {
    let len = read_u64(buf)? as usize;
    if buf.remaining() < len {
        return Err(VarintError::UnexpectedEof);
    }
    let mut out = vec![0u8; len];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_boundary_values() {
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX - 1, 10),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), len, "len mismatch for {v}");
            let mut slice = &buf[..];
            assert_eq!(read_u64(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn signed_round_trips() {
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(read_i64(&mut slice).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_short() {
        let mut buf = Vec::new();
        write_i64(&mut buf, -3);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        let mut slice = &buf[..buf.len() - 1];
        assert_eq!(read_u64(&mut slice), Err(VarintError::UnexpectedEof));
    }

    #[test]
    fn overlong_input_errors() {
        let buf = [0x80u8; 11];
        let mut slice = &buf[..];
        assert_eq!(read_u64(&mut slice), Err(VarintError::Overflow));
    }

    #[test]
    fn length_prefixed_bytes_round_trip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"espresso");
        write_bytes(&mut buf, b"");
        let mut slice = &buf[..];
        assert_eq!(read_bytes(&mut slice).unwrap(), b"espresso");
        assert_eq!(read_bytes(&mut slice).unwrap(), b"");
    }

    #[test]
    fn truncated_bytes_errors() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"payload");
        let mut slice = &buf[..3];
        assert_eq!(read_bytes(&mut slice), Err(VarintError::UnexpectedEof));
    }

    proptest! {
        #[test]
        fn prop_u64_round_trip(v: u64) {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut slice = &buf[..];
            prop_assert_eq!(read_u64(&mut slice).unwrap(), v);
        }

        #[test]
        fn prop_i64_round_trip(v: i64) {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut slice = &buf[..];
            prop_assert_eq!(read_i64(&mut slice).unwrap(), v);
        }

        #[test]
        fn prop_zigzag_bijective(v: i64) {
            prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }
}
