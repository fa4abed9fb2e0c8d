//! Messages, message sets, and the storage codec.
//!
//! On disk (and on the wire) a message is framed as
//! `[len u32][crc u32][attributes u8][payload]` — the CRC guards against
//! torn tail writes, the attribute byte selects the compression codec.
//! "A message is defined to contain just a payload of bytes" (§V.A);
//! batching wraps a whole compressed message set inside a single wrapper
//! message (the paper's producer-side batch compression).

use bytes::Bytes;
use li_commons::bufio;
use li_commons::compress::{self, Codec};
use std::fmt;

/// Errors from the Kafka layer.
#[derive(Debug, Clone, PartialEq)]
pub enum KafkaError {
    /// Unknown topic or partition.
    UnknownTopicPartition(String, u32),
    /// Offset out of range (before retention window or past the log end).
    OffsetOutOfRange {
        /// Requested offset.
        requested: u64,
        /// Smallest valid offset.
        log_start: u64,
        /// One past the last visible byte.
        log_end: u64,
    },
    /// Storage-level corruption.
    Corrupt(String),
    /// Compression codec failure.
    Codec(String),
    /// Coordination (ZooKeeper) failure.
    Coordination(String),
    /// The consumer group has no live members / bad state.
    Group(String),
}

impl fmt::Display for KafkaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KafkaError::UnknownTopicPartition(topic, partition) => {
                write!(f, "unknown topic-partition {topic}/{partition}")
            }
            KafkaError::OffsetOutOfRange { requested, log_start, log_end } => write!(
                f,
                "offset {requested} out of range [{log_start}, {log_end})"
            ),
            KafkaError::Corrupt(msg) => write!(f, "corrupt log: {msg}"),
            KafkaError::Codec(msg) => write!(f, "codec error: {msg}"),
            KafkaError::Coordination(msg) => write!(f, "coordination error: {msg}"),
            KafkaError::Group(msg) => write!(f, "group error: {msg}"),
        }
    }
}

impl std::error::Error for KafkaError {}

impl From<li_zk::ZkError> for KafkaError {
    fn from(e: li_zk::ZkError) -> Self {
        KafkaError::Coordination(e.to_string())
    }
}

/// Framing overhead per stored message: the CRC frame header plus the
/// one-byte codec attribute.
pub const MESSAGE_OVERHEAD: usize = bufio::FRAME_HEADER + 1;

/// A single message: an opaque byte payload plus a codec attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Codec of `payload` (Lz only for wrapper messages).
    pub codec: Codec,
    /// The payload bytes.
    pub payload: Bytes,
}

impl Message {
    /// A plain uncompressed message.
    pub fn new(payload: impl Into<Bytes>) -> Self {
        Message {
            codec: Codec::None,
            payload: payload.into(),
        }
    }

    /// Serialized length once framed in the log.
    pub fn framed_len(&self) -> usize {
        bufio::framed_len(1 + self.payload.len())
    }

    /// Appends the framed message to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(1 + self.payload.len());
        body.push(self.codec.to_attribute());
        body.extend_from_slice(&self.payload);
        bufio::write_frame(out, &body);
    }

    /// Decodes the message framed at `offset` in `data`, CRC-validating
    /// the frame and **copying** the payload into a fresh allocation.
    ///
    /// This is the trust-boundary decoder (disk recovery, wire ingress).
    /// The fetch path uses [`FetchChunk`] views instead, whose payloads
    /// alias the stored bytes.
    pub fn decode_at(data: &[u8], offset: usize) -> Result<Option<(Message, usize)>, KafkaError> {
        match bufio::frame_at(data, offset) {
            bufio::FrameBounds::End => Ok(None),
            bufio::FrameBounds::Corrupt => Err(KafkaError::Corrupt(format!(
                "bad frame at offset {offset}"
            ))),
            bufio::FrameBounds::Record { start, end } => {
                if start == end {
                    return Err(KafkaError::Corrupt("empty frame body".into()));
                }
                let codec = Codec::from_attribute(data[start])
                    .map_err(|e| KafkaError::Codec(e.to_string()))?;
                Ok(Some((
                    Message {
                        codec,
                        payload: Bytes::copy_from_slice(&data[start + 1..end]),
                    },
                    end,
                )))
            }
        }
    }

    /// Like [`Message::decode_at`] (CRC-validated) but the payload is a
    /// zero-copy sub-slice sharing `data`'s allocation.
    fn decode_shared_at(
        data: &Bytes,
        offset: usize,
    ) -> Result<Option<(Message, usize)>, KafkaError> {
        match bufio::frame_at(data, offset) {
            bufio::FrameBounds::End => Ok(None),
            bufio::FrameBounds::Corrupt => Err(KafkaError::Corrupt(format!(
                "bad frame at offset {offset}"
            ))),
            bufio::FrameBounds::Record { start, end } => {
                if start == end {
                    return Err(KafkaError::Corrupt("empty frame body".into()));
                }
                let codec = Codec::from_attribute(data[start])
                    .map_err(|e| KafkaError::Codec(e.to_string()))?;
                Ok(Some((
                    Message {
                        codec,
                        payload: data.slice(start + 1..end),
                    },
                    end,
                )))
            }
        }
    }
}

/// A contiguous, frame-aligned run of stored bytes handed out by a fetch:
/// the zero-copy unit of the consumer data path. `data` is a cheap view of
/// the partition log's own segment allocation; iterating it yields
/// [`Message`]s whose payloads are `Bytes::slice` sub-views of that same
/// allocation — no byte of payload is copied between broker storage and
/// the consumer.
///
/// Frames inside a chunk were CRC-validated when appended and have never
/// left process memory, so iteration performs structural (length-bound)
/// validation only — the `sendfile` contract: served bytes are not
/// touched, let alone re-checksummed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchChunk {
    /// Logical offset of the first frame in `data`.
    pub base_offset: u64,
    /// Framed messages, sharing the segment's allocation.
    pub data: Bytes,
    /// Number of complete frames in `data`.
    pub messages: u64,
}

impl FetchChunk {
    /// Total framed bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the chunk holds no frames.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Application payload bytes (framed bytes minus per-message
    /// framing overhead).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() - self.messages as usize * MESSAGE_OVERHEAD
    }

    /// Lazy zero-copy iterator over `(offset, message)` pairs.
    pub fn iter(&self) -> FetchIter<'_> {
        FetchIter { chunk: self, pos: 0 }
    }

    /// Eagerly decodes the whole chunk (payloads still alias `data`).
    pub fn decode(&self) -> Result<Vec<(u64, Message)>, KafkaError> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for &'a FetchChunk {
    type Item = Result<(u64, Message), KafkaError>;
    type IntoIter = FetchIter<'a>;
    fn into_iter(self) -> FetchIter<'a> {
        self.iter()
    }
}

/// Iterator over the messages of a [`FetchChunk`]; see there for the
/// validation contract. Fuses after yielding an error.
#[derive(Debug)]
pub struct FetchIter<'a> {
    chunk: &'a FetchChunk,
    pos: usize,
}

impl Iterator for FetchIter<'_> {
    type Item = Result<(u64, Message), KafkaError>;

    fn next(&mut self) -> Option<Self::Item> {
        match bufio::frame_bounds(&self.chunk.data, self.pos) {
            bufio::FrameBounds::End => None,
            bufio::FrameBounds::Corrupt => {
                let err = KafkaError::Corrupt(format!(
                    "bad frame at offset {} of fetched chunk",
                    self.pos
                ));
                self.pos = self.chunk.data.len(); // fuse
                Some(Err(err))
            }
            bufio::FrameBounds::Record { start, end } => {
                if start == end {
                    self.pos = self.chunk.data.len();
                    return Some(Err(KafkaError::Corrupt("empty frame body".into())));
                }
                let codec = match Codec::from_attribute(self.chunk.data[start]) {
                    Ok(codec) => codec,
                    Err(e) => {
                        self.pos = self.chunk.data.len();
                        return Some(Err(KafkaError::Codec(e.to_string())));
                    }
                };
                let offset = self.chunk.base_offset + self.pos as u64;
                self.pos = end;
                Some(Ok((
                    offset,
                    Message {
                        codec,
                        payload: self.chunk.data.slice(start + 1..end),
                    },
                )))
            }
        }
    }
}

/// A set of messages, the unit producers send ("for efficiency, the
/// producer can send a set of messages in a single publish request").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MessageSet {
    /// The messages.
    pub messages: Vec<Message>,
}

impl MessageSet {
    /// Wraps payloads into an uncompressed set.
    pub fn from_payloads<I, B>(payloads: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: Into<Bytes>,
    {
        MessageSet {
            messages: payloads.into_iter().map(Message::new).collect(),
        }
    }

    /// Serialized bytes of the set (concatenated frames).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            self.messages.iter().map(Message::framed_len).sum::<usize>(),
        );
        for message in &self.messages {
            message.encode(&mut out);
        }
        out
    }

    /// Parses a concatenation of frames, copying each payload.
    pub fn decode(data: &[u8]) -> Result<Self, KafkaError> {
        let mut messages = Vec::new();
        let mut offset = 0usize;
        while let Some((message, next)) = Message::decode_at(data, offset)? {
            messages.push(message);
            offset = next;
        }
        Ok(MessageSet { messages })
    }

    /// Parses a concatenation of frames into messages whose payloads are
    /// zero-copy sub-slices of `data`'s allocation (CRC-validated — this
    /// is used on decompressed wrapper bodies, which cross the codec
    /// trust boundary).
    fn decode_shared(data: &Bytes) -> Result<Self, KafkaError> {
        let mut messages = Vec::new();
        let mut offset = 0usize;
        while let Some((message, next)) = Message::decode_shared_at(data, offset)? {
            messages.push(message);
            offset = next;
        }
        Ok(MessageSet { messages })
    }

    /// Compresses the whole set into one wrapper message (producer-side
    /// batch compression). Incompressible input pays a few framing bytes,
    /// exactly like gzip-wrapping random data would.
    pub fn compressed(&self) -> Message {
        let raw = self.encode();
        Message {
            codec: Codec::Lz,
            payload: Bytes::from(compress::compress(&raw)),
        }
    }

    /// Expands a fetched message into application-visible messages,
    /// unwrapping compressed wrappers ("the compressed data ... is
    /// eventually delivered to the consumer, where it is uncompressed").
    pub fn unwrap_message(message: &Message) -> Result<Vec<Message>, KafkaError> {
        match message.codec {
            Codec::None => Ok(vec![message.clone()]),
            Codec::Lz => {
                let raw = Bytes::from(
                    compress::decompress(&message.payload)
                        .map_err(|e| KafkaError::Codec(e.to_string()))?,
                );
                // The wrapper contains either framed inner messages or (for
                // the no-win fallback path) framed plain messages. Inner
                // payloads alias the single decompression buffer.
                Ok(MessageSet::decode_shared(&raw)?.messages)
            }
        }
    }

    /// Total payload bytes in the set.
    pub fn payload_bytes(&self) -> usize {
        self.messages.iter().map(|m| m.payload.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_codec_round_trip() {
        let mut buf = Vec::new();
        Message::new(&b"hello"[..]).encode(&mut buf);
        Message::new(&b""[..]).encode(&mut buf);
        let (m1, next) = Message::decode_at(&buf, 0).unwrap().unwrap();
        assert_eq!(m1.payload.as_ref(), b"hello");
        let (m2, end) = Message::decode_at(&buf, next).unwrap().unwrap();
        assert!(m2.payload.is_empty());
        assert!(Message::decode_at(&buf, end).unwrap().is_none());
    }

    #[test]
    fn offset_arithmetic_matches_framed_len() {
        // "To compute the id of the next message, we have to add the
        // length of the current message to its id."
        let m = Message::new(&b"payload"[..]);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let (_, next) = Message::decode_at(&buf, 0).unwrap().unwrap();
        assert_eq!(next, m.framed_len());
    }

    #[test]
    fn corrupt_frame_detected() {
        let mut buf = Vec::new();
        Message::new(&b"data"[..]).encode(&mut buf);
        buf[bufio::FRAME_HEADER] ^= 0xFF;
        assert!(matches!(
            Message::decode_at(&buf, 0),
            Err(KafkaError::Corrupt(_))
        ));
    }

    #[test]
    fn set_round_trip() {
        let set = MessageSet::from_payloads((0..10).map(|i| format!("event-{i}")));
        let decoded = MessageSet::decode(&set.encode()).unwrap();
        assert_eq!(decoded, set);
    }

    #[test]
    fn compression_round_trip_and_saves_space() {
        let set = MessageSet::from_payloads(
            (0..200).map(|i| format!("pageview member=12345 page=/in/profile id={i}")),
        );
        let wrapper = set.compressed();
        assert_eq!(wrapper.codec, Codec::Lz);
        assert!(wrapper.payload.len() * 2 < set.encode().len());
        let unwrapped = MessageSet::unwrap_message(&wrapper).unwrap();
        assert_eq!(unwrapped.len(), 200);
        assert_eq!(unwrapped[5].payload, set.messages[5].payload);
    }

    #[test]
    fn incompressible_set_still_round_trips() {
        use rand::RngCore;
        let mut rng = rand::rng();
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|_| {
                let mut v = vec![0u8; 512];
                rng.fill_bytes(&mut v);
                v
            })
            .collect();
        let set = MessageSet::from_payloads(payloads.clone());
        let wrapper = set.compressed();
        assert_eq!(wrapper.codec, Codec::Lz);
        let unwrapped = MessageSet::unwrap_message(&wrapper).unwrap();
        assert_eq!(unwrapped.len(), 5);
        assert_eq!(unwrapped[2].payload.as_ref(), &payloads[2][..]);
    }

    #[test]
    fn plain_message_unwraps_to_itself() {
        let m = Message::new(&b"solo"[..]);
        assert_eq!(MessageSet::unwrap_message(&m).unwrap(), vec![m]);
    }

    #[test]
    fn fetch_chunk_iterates_lazily_and_aliases_its_buffer() {
        let set = MessageSet::from_payloads(["aa", "bbb", "c"]);
        let data = Bytes::from(set.encode());
        let chunk = FetchChunk { base_offset: 100, data: data.clone(), messages: 3 };
        assert_eq!(chunk.payload_bytes(), 6);
        let decoded = chunk.decode().unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].0, 100);
        assert_eq!(
            decoded[1].0,
            100 + Message::new(&b"aa"[..]).framed_len() as u64
        );
        assert_eq!(decoded[1].1.payload.as_ref(), b"bbb");
        for (_, m) in &decoded {
            assert!(m.payload.shares_allocation(&data), "payload must not be copied");
        }
    }

    #[test]
    fn fetch_chunk_iter_fuses_on_torn_frame() {
        let set = MessageSet::from_payloads(["whole", "torn"]);
        let mut raw = set.encode();
        raw.truncate(raw.len() - 2);
        let chunk = FetchChunk { base_offset: 0, data: Bytes::from(raw), messages: 2 };
        let mut iter = chunk.iter();
        assert!(iter.next().unwrap().is_ok());
        assert!(matches!(iter.next(), Some(Err(KafkaError::Corrupt(_)))));
        assert!(iter.next().is_none(), "fused after the error");
    }

    #[test]
    fn unwrapped_compressed_payloads_share_one_decompression_buffer() {
        let set = MessageSet::from_payloads((0..20).map(|i| format!("event {i} event")));
        let inner = MessageSet::unwrap_message(&set.compressed()).unwrap();
        assert_eq!(inner.len(), 20);
        for m in &inner[1..] {
            assert!(m.payload.shares_allocation(&inner[0].payload));
        }
    }
}
