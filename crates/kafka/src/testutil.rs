//! Helpers shared by this crate's unit tests.

use crate::broker::Broker;
use crate::ingest::AckMode;
use crate::message::{KafkaError, Message, MessageSet};

/// One leader-acked grouped produce of `set`; returns its base offset.
pub(crate) fn produce(
    broker: &Broker,
    topic: &str,
    partition: u32,
    set: &MessageSet,
) -> Result<u64, KafkaError> {
    let receipt = broker.produce_frames_grouped(
        topic,
        partition,
        set.encode(),
        set.messages.len() as u64,
        set.payload_bytes(),
        AckMode::Leader,
    )?;
    Ok(receipt.base_offset.expect("a Leader ack carries the offset"))
}

/// Every stored message of a partition from `offset` on, decoded.
pub(crate) fn fetch_all(
    broker: &Broker,
    topic: &str,
    partition: u32,
    offset: u64,
) -> Result<Vec<(u64, Message)>, KafkaError> {
    let (chunks, _) = broker.fetch_chunks(topic, partition, offset, usize::MAX)?;
    chunks.iter().flatten().collect()
}
