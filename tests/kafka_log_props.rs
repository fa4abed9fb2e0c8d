//! Property tests on Kafka's offset-addressed log (C-16's invariants):
//! consuming from 0 reconstructs exactly the produced sequence, any valid
//! rewind point reconstructs the suffix, and pagination never loses or
//! duplicates a message.

use bytes::Bytes;
use li_commons::sim::SimClock;
use li_kafka::log::{LogConfig, PartitionLog};
use li_kafka::{KafkaCluster, Message, Producer, SimpleConsumer};
use proptest::prelude::*;
use std::sync::Arc;

/// The zero-copy proof, end to end: payloads delivered by a
/// `SimpleConsumer` poll must lie inside the address range of the broker's
/// own stored chunks — pointer-range identity, not just equal bytes. This
/// is §V.B's "avoids byte copying" as a falsifiable assertion.
#[test]
fn fetched_payloads_point_into_broker_segment_storage() {
    let cluster = KafkaCluster::new(1).unwrap();
    cluster.create_topic("t", 1).unwrap();
    let producer = Producer::new(cluster.clone()).with_batch_size(16);
    for i in 0..64 {
        producer.send("t", format!("payload-{i}")).unwrap();
    }
    producer.flush().unwrap();

    let broker = cluster.broker_for("t", 0).unwrap();
    let (chunks, _) = broker.fetch_chunks("t", 0, 0, usize::MAX).unwrap();
    assert!(!chunks.is_empty());

    let mut consumer = SimpleConsumer::new(cluster.clone(), "t", 0).unwrap();
    let polled = consumer.poll().unwrap();
    assert_eq!(polled.len(), 64);
    for (_, message) in &polled {
        let p = message.payload.as_ref().as_ptr() as usize;
        let in_range = chunks.iter().any(|c| {
            let base = c.data.as_ref().as_ptr() as usize;
            p >= base && p + message.payload.len() <= base + c.data.len()
        });
        assert!(in_range, "payload bytes must alias broker segment storage");
        assert!(
            chunks.iter().any(|c| message.payload.shares_allocation(&c.data)),
            "payload must hold a refcount on the segment allocation"
        );
    }
}

fn log_with_all_visible() -> PartitionLog {
    PartitionLog::new(
        LogConfig {
            flush_interval_messages: 1,
            segment_bytes: 256, // force multi-segment coverage
            ..LogConfig::default()
        },
        Arc::new(SimClock::new()),
    )
}

/// `read_chunks`, decoded by `FetchChunk` iteration.
fn read(log: &PartitionLog, offset: u64, max_bytes: usize) -> (Vec<(u64, Message)>, u64) {
    let (chunks, next) = log.read_chunks(offset, max_bytes).unwrap();
    let messages = chunks.iter().flatten().map(Result::unwrap).collect();
    (messages, next)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_log_reconstructs_produced_sequence(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..80)
    ) {
        let log = log_with_all_visible();
        let mut offsets = Vec::new();
        for p in &payloads {
            offsets.push(log.append(&Message::new(Bytes::from(p.clone()))));
        }
        // Offsets strictly increase and obey offset arithmetic.
        for (i, window) in offsets.windows(2).enumerate() {
            let expected = window[0] + Message::new(Bytes::from(payloads[i].clone())).framed_len() as u64;
            prop_assert_eq!(window[1], expected);
        }
        // Full scan reconstructs everything in order.
        let (messages, next) = read(&log, 0, usize::MAX);
        prop_assert_eq!(messages.len(), payloads.len());
        for ((offset, message), (expected_offset, payload)) in
            messages.iter().zip(offsets.iter().zip(payloads.iter()))
        {
            prop_assert_eq!(offset, expected_offset);
            prop_assert_eq!(message.payload.as_ref(), &payload[..]);
        }
        prop_assert_eq!(next, log.log_end());
    }

    #[test]
    fn prop_rewind_reconstructs_suffix(
        payloads in proptest::collection::vec("[a-z]{1,16}", 2..60),
        rewind_to in any::<proptest::sample::Index>(),
    ) {
        let log = log_with_all_visible();
        let mut offsets = Vec::new();
        for p in &payloads {
            offsets.push(log.append(&Message::new(Bytes::from(p.clone()))));
        }
        let idx = rewind_to.index(offsets.len());
        let (messages, _) = read(&log, offsets[idx], usize::MAX);
        prop_assert_eq!(messages.len(), payloads.len() - idx);
        prop_assert_eq!(
            messages[0].1.payload.as_ref(),
            payloads[idx].as_bytes()
        );
    }

    #[test]
    fn prop_pagination_is_lossless(
        payloads in proptest::collection::vec("[a-z]{1,24}", 1..80),
        max_bytes in 16usize..256,
    ) {
        let log = log_with_all_visible();
        for p in &payloads {
            log.append(&Message::new(Bytes::from(p.clone())));
        }
        let mut collected = Vec::new();
        let mut cursor = 0u64;
        loop {
            let (batch, next) = read(&log, cursor, max_bytes);
            if batch.is_empty() {
                prop_assert_eq!(next, cursor, "no progress means caught up");
                break;
            }
            collected.extend(batch.into_iter().map(|(_, m)| m.payload));
            cursor = next;
        }
        prop_assert_eq!(collected.len(), payloads.len());
        for (got, want) in collected.iter().zip(&payloads) {
            prop_assert_eq!(got.as_ref(), want.as_bytes());
        }
    }

    #[test]
    fn prop_chunk_fetch_equals_frame_model(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..60),
        segment_bytes in 32usize..512,
        flush_every in 1u64..6,
        max_bytes in prop_oneof![Just(usize::MAX), 8usize..512],
        start in any::<proptest::sample::Index>(),
    ) {
        let log = PartitionLog::new(
            LogConfig {
                flush_interval_messages: flush_every,
                flush_interval: std::time::Duration::from_secs(3600),
                segment_bytes,
                ..LogConfig::default()
            },
            Arc::new(SimClock::new()),
        );
        let mut offsets = Vec::new();
        for p in &payloads {
            offsets.push(log.append(&Message::new(Bytes::from(p.clone()))));
        }
        let first = start.index(offsets.len());
        let offset = offsets[first];
        if offset > log.visible_end() {
            return Ok(()); // start beyond the flush horizon: nothing to compare
        }
        // The lazy chunk walk must agree exactly with the frame model:
        // whole flushed frames from `offset` while the byte budget is not
        // yet spent, and a next cursor at the end of the last one.
        let mut want = Vec::new();
        let mut used = 0usize;
        for (at, payload) in offsets.iter().zip(&payloads).skip(first) {
            if *at >= log.visible_end() || used >= max_bytes {
                break;
            }
            let message = Message::new(Bytes::from(payload.clone()));
            used += message.framed_len();
            want.push((*at, message));
        }
        let (chunks, chunk_next) = log.read_chunks(offset, max_bytes).unwrap();
        let lazy: Vec<(u64, Message)> = chunks.iter().flatten().map(Result::unwrap).collect();
        prop_assert_eq!(&lazy, &want);
        prop_assert_eq!(chunk_next, offset + used as u64);
        // And every lazily-decoded payload aliases its chunk's storage.
        for chunk in &chunks {
            for item in chunk {
                let (_, message) = item.unwrap();
                prop_assert!(message.payload.shares_allocation(&chunk.data));
            }
        }
    }

    #[test]
    fn prop_flush_boundary_never_exposes_partial_data(
        payloads in proptest::collection::vec("[a-z]{1,16}", 1..40),
        flush_every in 1u64..8,
    ) {
        let clock = Arc::new(SimClock::new());
        let log = PartitionLog::new(
            LogConfig {
                flush_interval_messages: flush_every,
                flush_interval: std::time::Duration::from_secs(3600),
                ..LogConfig::default()
            },
            clock,
        );
        for (i, p) in payloads.iter().enumerate() {
            log.append(&Message::new(Bytes::from(p.clone())));
            // Visible count is always a multiple of the flush interval
            // (until a final explicit flush).
            let (visible, _) = read(&log, 0, usize::MAX);
            let appended = i as u64 + 1;
            prop_assert_eq!(
                visible.len() as u64,
                (appended / flush_every) * flush_every
            );
        }
        log.flush();
        prop_assert_eq!(read(&log, 0, usize::MAX).0.len(), payloads.len());
    }
}
