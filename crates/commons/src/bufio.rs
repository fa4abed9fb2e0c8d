//! CRC-framed record I/O over byte streams.
//!
//! Kafka segment files, `sqlstore` binlogs, and the Databus bootstrap log
//! all persist sequences of records and must survive a crash mid-append:
//! on recovery the reader scans frames and truncates at the first torn or
//! corrupt one. A frame is:
//!
//! ```text
//! [len: u32 le][crc: u32 le][payload: len bytes]    crc = crc32(payload)
//! ```
//!
//! The fixed-width length prefix (rather than a varint) lets a reader
//! validate a frame header with a single 8-byte read and makes offset
//! arithmetic trivial — the property Kafka's logical-offset addressing
//! depends on ("to compute the id of the next message, we have to add the
//! length of the current message to its id").

use crate::crc32::crc32;

/// Bytes of framing overhead per record.
pub const FRAME_HEADER: usize = 8;

/// Appends one frame to `out`, returning the number of bytes written.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) -> usize {
    write_frame_with(out, |out| out.extend_from_slice(payload))
}

/// Appends one frame whose payload `encode` writes straight into `out`:
/// the header is reserved first and patched once the payload's length and
/// CRC are known, so a record is serialized once, in place, instead of
/// into a temporary that is then copied. `encode` must only append.
/// Returns the number of bytes written.
pub fn write_frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
    let header = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    encode(out);
    let payload = header + FRAME_HEADER;
    let len = u32::try_from(out.len() - payload).expect("frame payload fits u32");
    let crc = crc32(&out[payload..]);
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..payload].copy_from_slice(&crc.to_le_bytes());
    FRAME_HEADER + len as usize
}

/// Size a payload occupies once framed.
pub fn framed_len(payload_len: usize) -> usize {
    FRAME_HEADER + payload_len
}

/// Outcome of locating one frame without copying its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameBounds {
    /// A structurally complete record: payload is `data[start..end]`, the
    /// next frame begins at `end`.
    Record {
        /// First payload byte.
        start: usize,
        /// One past the last payload byte (== next frame's offset).
        end: usize,
    },
    /// Clean end of stream exactly at the read position.
    End,
    /// A torn or corrupt frame begins here.
    Corrupt,
}

/// Locates the frame starting at `offset` without reading the payload:
/// header and length bounds are validated, the CRC is **not**. This is the
/// serving-path primitive — bytes that were CRC-framed on append and never
/// left process memory are handed out without being touched, the same
/// contract `sendfile` gives Kafka (the kernel cannot checksum what it
/// never copies through user space). Use [`frame_at`] when the bytes
/// crossed a trust boundary (disk recovery, decompression).
pub fn frame_bounds(data: &[u8], offset: usize) -> FrameBounds {
    if offset == data.len() {
        return FrameBounds::End;
    }
    if offset > data.len() || data.len() - offset < FRAME_HEADER {
        return FrameBounds::Corrupt;
    }
    let len = u32::from_le_bytes([
        data[offset],
        data[offset + 1],
        data[offset + 2],
        data[offset + 3],
    ]) as usize;
    let start = offset + FRAME_HEADER;
    if data.len() - start < len {
        return FrameBounds::Corrupt;
    }
    FrameBounds::Record { start, end: start + len }
}

/// Locates and fully validates (including CRC) the frame at `offset`,
/// returning payload bounds instead of a copy.
pub fn frame_at(data: &[u8], offset: usize) -> FrameBounds {
    match frame_bounds(data, offset) {
        FrameBounds::Record { start, end } => {
            let crc = u32::from_le_bytes([
                data[offset + 4],
                data[offset + 5],
                data[offset + 6],
                data[offset + 7],
            ]);
            if crc32(&data[start..end]) != crc {
                FrameBounds::Corrupt
            } else {
                FrameBounds::Record { start, end }
            }
        }
        other => other,
    }
}

/// Scans all frames from the start of `data`, returning the valid payloads
/// and the offset of the first invalid byte (== `data.len()` when clean).
/// This is the crash-recovery entry point: callers truncate their file to
/// the returned offset.
pub fn recover(data: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let FrameBounds::Record { start, end } = frame_at(data, offset) {
        records.push(data[start..end].to_vec());
        offset = end;
    }
    (records, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_read_round_trip() {
        let mut buf = Vec::new();
        let n1 = write_frame(&mut buf, b"first");
        let n2 = write_frame(&mut buf, b"");
        write_frame(&mut buf, b"third record");
        assert_eq!(n1, framed_len(5));
        assert_eq!(n2, framed_len(0));
        let (records, end) = recover(&buf);
        assert_eq!(records, vec![b"first".to_vec(), b"".to_vec(), b"third record".to_vec()]);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn in_place_frames_match_copied_frames() {
        let mut copied = Vec::new();
        let mut in_place = Vec::new();
        for payload in [&b"first"[..], b"", b"third record"] {
            let n = write_frame(&mut copied, payload);
            let m = write_frame_with(&mut in_place, |out| {
                out.extend_from_slice(&payload[..payload.len() / 2]);
                out.extend_from_slice(&payload[payload.len() / 2..]);
            });
            assert_eq!(n, m);
        }
        assert_eq!(copied, in_place);
    }

    #[test]
    fn torn_tail_write_is_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"durable");
        let keep = buf.len();
        write_frame(&mut buf, b"torn away in the crash");
        buf.truncate(buf.len() - 5); // simulate partial tail write
        let (records, end) = recover(&buf);
        assert_eq!(records.len(), 1);
        assert_eq!(end, keep);
    }

    #[test]
    fn bit_flip_stops_recovery_at_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha");
        let boundary = buf.len();
        write_frame(&mut buf, b"beta");
        buf[boundary + FRAME_HEADER] ^= 0x40; // corrupt beta's payload
        let (records, end) = recover(&buf);
        assert_eq!(records, vec![b"alpha".to_vec()]);
        assert_eq!(end, boundary);
    }

    #[test]
    fn frame_bounds_skips_crc_but_catches_torn_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"serve me");
        let FrameBounds::Record { start, end } = frame_bounds(&buf, 0) else {
            panic!("expected a record");
        };
        assert_eq!(&buf[start..end], b"serve me");
        assert_eq!(frame_bounds(&buf, end), FrameBounds::End);
        // A flipped payload bit is invisible to the structural check but
        // caught by the full validation.
        buf[FRAME_HEADER] ^= 0x01;
        assert!(matches!(frame_bounds(&buf, 0), FrameBounds::Record { .. }));
        assert_eq!(frame_at(&buf, 0), FrameBounds::Corrupt);
        // Truncation is structural: both reject it.
        let torn = &buf[..buf.len() - 1];
        assert_eq!(frame_bounds(torn, 0), FrameBounds::Corrupt);
    }

    #[test]
    fn header_only_tail_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"ok");
        let keep = buf.len();
        buf.extend_from_slice(&[0u8; 4]); // half a header
        let (records, end) = recover(&buf);
        assert_eq!(records.len(), 1);
        assert_eq!(end, keep);
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..128), 0..32)
        ) {
            let mut buf = Vec::new();
            for p in &payloads {
                write_frame(&mut buf, p);
            }
            let (records, end) = recover(&buf);
            prop_assert_eq!(records, payloads);
            prop_assert_eq!(end, buf.len());
        }

        #[test]
        fn prop_truncation_never_yields_garbage(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..64), 1..16),
            cut in any::<proptest::sample::Index>(),
        ) {
            let mut buf = Vec::new();
            for p in &payloads {
                write_frame(&mut buf, p);
            }
            let cut = cut.index(buf.len() + 1);
            let (records, end) = recover(&buf[..cut]);
            // Every recovered record must be a true prefix of the originals.
            prop_assert!(records.len() <= payloads.len());
            for (r, p) in records.iter().zip(payloads.iter()) {
                prop_assert_eq!(r, p);
            }
            prop_assert!(end <= cut);
        }
    }
}
