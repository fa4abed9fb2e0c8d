//! The producer: batching, partitioning, compression.
//!
//! "Each producer can publish a message to either a randomly selected
//! partition or a partition semantically determined by a partitioning key
//! and a partitioning function" (§V.C); "the producer can send a set of
//! messages in a single publish request" and "can compress a set of
//! messages" (§V.A/B).

use bytes::Bytes;
use li_commons::compress::Codec;
use li_commons::fnv::fnv1a;
use li_commons::metrics::{Counter, Histo};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::cluster::KafkaCluster;
use crate::ingest::AckMode;
use crate::message::{KafkaError, MessageSet};

/// How the producer picks a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Round-robin over partitions (the "randomly selected" spread).
    RoundRobin,
    /// `hash(key) % num_partitions` — keeps one key's messages ordered
    /// within one partition.
    Keyed,
}

/// Cumulative producer statistics (the compression benchmark reads these).
/// Recorded once per flushed batch, not per send — read them after
/// [`Producer::flush`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerStats {
    /// Application payload bytes accepted.
    pub payload_bytes: u64,
    /// Bytes actually shipped to brokers (after batching/compression).
    pub wire_bytes: u64,
    /// Publish requests issued.
    pub requests: u64,
    /// Messages accepted.
    pub messages: u64,
}

#[derive(Default)]
struct Batch {
    payloads: Vec<Bytes>,
    bytes: usize,
    /// When the oldest buffered payload arrived (linger trigger anchor).
    first_at: Option<std::time::Instant>,
}

/// Producer-side observability under `kafka.producer.`: publish request
/// count, wire bytes shipped, and the per-request batch-size distribution.
#[derive(Debug, Clone)]
struct ProducerMetrics {
    requests: Counter,
    wire_bytes: Counter,
    batch_messages: Histo,
}

impl ProducerMetrics {
    fn new(cluster: &KafkaCluster) -> Self {
        let scope = cluster.metrics().scope("kafka.producer");
        ProducerMetrics {
            requests: scope.counter("requests"),
            wire_bytes: scope.counter("wire_bytes"),
            batch_messages: scope.histogram("batch_messages"),
        }
    }
}

/// A batching producer bound to one cluster.
pub struct Producer {
    cluster: Arc<KafkaCluster>,
    partitioner: Partitioner,
    codec: Codec,
    ack: AckMode,
    batch_messages: usize,
    /// Size trigger: flush a partition batch once its buffered payload
    /// bytes reach this (whichever of the three triggers fires first wins).
    batch_bytes: usize,
    /// Time trigger: flush when the oldest buffered payload has waited
    /// this long, checked at the next send (no background timer thread —
    /// a deterministic harness must own all its threads). `None` disables
    /// it; deterministic runs leave it off because flush timing would
    /// depend on wall clock, not the op stream.
    linger: Option<std::time::Duration>,
    buffers: Mutex<HashMap<(String, u32), Batch>>,
    round_robin: Mutex<HashMap<String, u32>>,
    stats: Mutex<ProducerStats>,
    metrics: ProducerMetrics,
}

impl Producer {
    /// Creates a producer with no compression and a batch size of 1
    /// (synchronous feel; builders adjust).
    pub fn new(cluster: Arc<KafkaCluster>) -> Self {
        let metrics = ProducerMetrics::new(&cluster);
        Producer {
            cluster,
            partitioner: Partitioner::RoundRobin,
            codec: Codec::None,
            ack: AckMode::default(),
            batch_messages: 1,
            batch_bytes: usize::MAX,
            linger: None,
            buffers: Mutex::new(HashMap::new()),
            round_robin: Mutex::new(HashMap::new()),
            stats: Mutex::new(ProducerStats::default()),
            metrics,
        }
    }

    /// Builder: messages buffered per partition before a publish request.
    #[must_use]
    pub fn with_batch_size(mut self, messages: usize) -> Self {
        self.batch_messages = messages.max(1);
        self
    }

    /// Builder: payload bytes buffered per partition before a publish
    /// request (the ingestion-study size knob). Flushes on whichever of
    /// the message-count, byte-size, or linger triggers fires first.
    #[must_use]
    pub fn with_batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_bytes = bytes.max(1);
        self
    }

    /// Builder: flush a partition batch at the next send once its oldest
    /// payload has waited `linger` (bounds the latency cost of large
    /// batch sizes under a trickle of traffic). Checked send-side — call
    /// [`Self::flush`] to drain a stream that has gone fully idle.
    #[must_use]
    pub fn with_linger(mut self, linger: std::time::Duration) -> Self {
        self.linger = Some(linger);
        self
    }

    /// Builder: compress batches with the given codec.
    #[must_use]
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// Builder: partitioning strategy.
    #[must_use]
    pub fn with_partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Builder: durability level each flushed batch waits for (default
    /// [`AckMode::Leader`]: acked after the leader's local append). On an
    /// unreplicated cluster [`AckMode::FullIsr`] degenerates to `Leader`;
    /// the full contract lives in `ReplicatedCluster::produce_with_ack`.
    #[must_use]
    pub fn with_ack_mode(mut self, ack: AckMode) -> Self {
        self.ack = ack;
        self
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ProducerStats {
        *self.stats.lock()
    }

    fn pick_partition(&self, topic: &str, key: Option<&[u8]>) -> Result<u32, KafkaError> {
        let n = self.cluster.num_partitions(topic)?;
        // A keyed send never touches the round-robin state: the hash alone
        // decides placement, so concurrent keyed producers don't serialize
        // on (or perturb) the shared round-robin counters.
        Ok(match key {
            Some(key) => (fnv1a(key) % u64::from(n)) as u32,
            None => {
                let mut rr = self.round_robin.lock();
                let counter = rr.entry(topic.to_string()).or_insert(0);
                let partition = *counter % n;
                *counter = counter.wrapping_add(1);
                partition
            }
        })
    }

    /// Publishes one payload (buffered until the batch fills).
    pub fn send(&self, topic: &str, payload: impl Into<Bytes>) -> Result<(), KafkaError> {
        self.send_keyed_inner(topic, None, payload.into())
    }

    /// Publishes one payload partitioned by `key`.
    pub fn send_keyed(
        &self,
        topic: &str,
        key: &[u8],
        payload: impl Into<Bytes>,
    ) -> Result<(), KafkaError> {
        self.send_keyed_inner(topic, Some(key), payload.into())
    }

    fn send_keyed_inner(
        &self,
        topic: &str,
        key: Option<&[u8]>,
        payload: Bytes,
    ) -> Result<(), KafkaError> {
        let partition = self.pick_partition(topic, key)?;
        let payload_len = payload.len();
        // No stats lock here: message/byte counts ride the batch and are
        // folded into `stats` once per flush, so the per-send cost is the
        // buffer lock alone.
        let flush_now = {
            let mut buffers = self.buffers.lock();
            let batch = buffers.entry((topic.to_string(), partition)).or_default();
            batch.bytes += payload_len;
            batch
                .first_at
                .get_or_insert_with(std::time::Instant::now);
            batch.payloads.push(payload);
            batch.payloads.len() >= self.batch_messages
                || batch.bytes >= self.batch_bytes
                || self.linger.zip(batch.first_at).is_some_and(
                    |(linger, first_at)| first_at.elapsed() >= linger,
                )
        };
        if flush_now {
            self.flush_partition(topic, partition)?;
        }
        Ok(())
    }

    fn flush_partition(&self, topic: &str, partition: u32) -> Result<(), KafkaError> {
        let batch = {
            let mut buffers = self.buffers.lock();
            match buffers.remove(&(topic.to_string(), partition)) {
                Some(b) if !b.payloads.is_empty() => b,
                _ => return Ok(()),
            }
        };
        let messages = batch.payloads.len() as u64;
        let payload_bytes = batch.bytes as u64;
        self.metrics.batch_messages.record(messages);
        let set = MessageSet::from_payloads(batch.payloads);
        let broker = self.cluster.broker_for(topic, partition)?;
        let wire_bytes = match self.codec {
            Codec::None => {
                // Encode once; the frame buffer is both the wire-byte
                // accounting and the bytes handed to the group-commit queue.
                let frames = set.encode();
                let wire = frames.len();
                broker.produce_frames_grouped(
                    topic,
                    partition,
                    frames,
                    set.messages.len() as u64,
                    set.payload_bytes(),
                    self.ack,
                )?;
                wire
            }
            Codec::Lz => {
                let wrapper = set.compressed();
                let bytes = wrapper.framed_len();
                let mut frames = Vec::with_capacity(bytes);
                wrapper.encode(&mut frames);
                broker.produce_frames_grouped(
                    topic,
                    partition,
                    frames,
                    1,
                    wrapper.payload.len(),
                    self.ack,
                )?;
                bytes
            }
        };
        let mut stats = self.stats.lock();
        stats.messages += messages;
        stats.payload_bytes += payload_bytes;
        stats.wire_bytes += wire_bytes as u64;
        stats.requests += 1;
        self.metrics.wire_bytes.add(wire_bytes as u64);
        self.metrics.requests.inc();
        Ok(())
    }

    /// Flushes every buffered batch. With [`AckMode::None`] the producer
    /// additionally drains the brokers' ingest queues so flush-on-close
    /// makes even unacknowledged sends pull-visible.
    pub fn flush(&self) -> Result<(), KafkaError> {
        let keys: Vec<(String, u32)> = self.buffers.lock().keys().cloned().collect();
        for (topic, partition) in keys {
            self.flush_partition(&topic, partition)?;
        }
        if self.ack == AckMode::None {
            for broker in self.cluster.brokers() {
                broker.flush_ingest();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::SimpleConsumer;

    fn cluster() -> Arc<KafkaCluster> {
        let cluster = KafkaCluster::new(2).unwrap();
        cluster.create_topic("events", 4).unwrap();
        cluster
    }

    fn drain_all(cluster: &Arc<KafkaCluster>, topic: &str) -> Vec<String> {
        let mut out = Vec::new();
        for p in 0..cluster.num_partitions(topic).unwrap() {
            let mut consumer = SimpleConsumer::new(cluster.clone(), topic, p).unwrap();
            for (_, m) in consumer.poll().unwrap() {
                out.push(String::from_utf8_lossy(&m.payload).into_owned());
            }
        }
        out
    }

    #[test]
    fn round_robin_spreads_messages() {
        let cluster = cluster();
        let producer = Producer::new(cluster.clone());
        for i in 0..40 {
            producer.send("events", format!("e{i}")).unwrap();
        }
        producer.flush().unwrap();
        for p in 0..4 {
            let mut consumer = SimpleConsumer::new(cluster.clone(), "events", p).unwrap();
            assert_eq!(consumer.poll().unwrap().len(), 10, "partition {p}");
        }
    }

    #[test]
    fn keyed_partitioning_is_sticky() {
        let cluster = cluster();
        let producer = Producer::new(cluster.clone()).with_partitioner(Partitioner::Keyed);
        for i in 0..20 {
            producer
                .send_keyed("events", b"member-42", format!("e{i}"))
                .unwrap();
        }
        producer.flush().unwrap();
        let counts: Vec<usize> = (0..4)
            .map(|p| {
                SimpleConsumer::new(cluster.clone(), "events", p)
                    .unwrap()
                    .poll()
                    .unwrap()
                    .len()
            })
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 20);
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1, "{counts:?}");
    }

    #[test]
    fn keyed_send_is_sticky_even_on_a_round_robin_producer() {
        // The key alone decides placement — a keyed send on the default
        // (round-robin) producer hashes and never perturbs the round-robin
        // counter used by unkeyed sends.
        let cluster = cluster();
        let producer = Producer::new(cluster.clone());
        for i in 0..12 {
            producer
                .send_keyed("events", b"member-42", format!("k{i}"))
                .unwrap();
        }
        // Interleaved unkeyed sends still spread evenly: the keyed sends
        // above left the round-robin cursor untouched.
        for i in 0..8 {
            producer.send("events", format!("u{i}")).unwrap();
        }
        producer.flush().unwrap();
        let counts: Vec<usize> = (0..4)
            .map(|p| {
                SimpleConsumer::new(cluster.clone(), "events", p)
                    .unwrap()
                    .poll()
                    .unwrap()
                    .len()
            })
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 20);
        // Every partition got exactly 2 unkeyed messages; one partition
        // additionally holds all 12 keyed ones.
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 2, 2, 14], "{counts:?}");
    }

    #[test]
    fn stats_are_recorded_per_flush_not_per_send() {
        let cluster = cluster();
        let producer = Producer::new(cluster.clone())
            .with_batch_size(10)
            .with_partitioner(Partitioner::Keyed);
        for i in 0..7 {
            producer.send_keyed("events", b"k", format!("m{i}")).unwrap();
        }
        // Nothing flushed yet: the batch holds the counts.
        assert_eq!(producer.stats(), ProducerStats::default());
        producer.flush().unwrap();
        let stats = producer.stats();
        assert_eq!(stats.messages, 7);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.payload_bytes, 7 * 2);
    }

    #[test]
    fn none_ack_sends_become_visible_after_flush() {
        let cluster = cluster();
        let producer = Producer::new(cluster.clone())
            .with_ack_mode(AckMode::None)
            .with_batch_size(4)
            .with_partitioner(Partitioner::Keyed);
        for i in 0..16 {
            producer.send_keyed("events", b"fire", format!("f{i}")).unwrap();
        }
        producer.flush().unwrap();
        assert_eq!(drain_all(&cluster, "events").len(), 16);
    }

    #[test]
    fn full_isr_ack_round_trips_on_unreplicated_cluster() {
        let cluster = cluster();
        let producer = Producer::new(cluster.clone()).with_ack_mode(AckMode::FullIsr);
        for i in 0..10 {
            producer.send("events", format!("d{i}")).unwrap();
        }
        producer.flush().unwrap();
        assert_eq!(drain_all(&cluster, "events").len(), 10);
    }

    #[test]
    fn batching_reduces_publish_requests() {
        let cluster = cluster();
        let unbatched = Producer::new(cluster.clone());
        for i in 0..100 {
            unbatched.send_keyed("events", b"k", format!("x{i}")).unwrap();
        }
        unbatched.flush().unwrap();
        let batched = Producer::new(cluster.clone())
            .with_batch_size(50)
            .with_partitioner(Partitioner::Keyed);
        for i in 0..100 {
            batched.send_keyed("events", b"k", format!("x{i}")).unwrap();
        }
        batched.flush().unwrap();
        assert_eq!(unbatched.stats().requests, 100);
        assert_eq!(batched.stats().requests, 2);
    }

    #[test]
    fn byte_size_trigger_flushes_before_the_message_count() {
        let cluster = cluster();
        // 100-message count trigger would never fire here; the 64-byte
        // size trigger must.
        let producer = Producer::new(cluster.clone())
            .with_batch_size(100)
            .with_batch_bytes(64)
            .with_partitioner(Partitioner::Keyed);
        // 20-byte payloads: the 4th send crosses 64 buffered bytes.
        for i in 0..4 {
            producer
                .send_keyed("events", b"k", format!("payload-{i:011}"))
                .unwrap();
        }
        assert_eq!(producer.stats().requests, 1, "size trigger did not fire");
        assert_eq!(producer.stats().messages, 4);
        // A fresh batch starts counting bytes from zero.
        producer
            .send_keyed("events", b"k", "tail".to_string())
            .unwrap();
        assert_eq!(producer.stats().requests, 1);
        producer.flush().unwrap();
        assert_eq!(producer.stats().requests, 2);
        assert_eq!(drain_all(&cluster, "events").len(), 5);
    }

    #[test]
    fn linger_trigger_flushes_a_stale_batch_at_the_next_send() {
        let cluster = cluster();
        let producer = Producer::new(cluster.clone())
            .with_batch_size(100)
            .with_linger(std::time::Duration::from_millis(10))
            .with_partitioner(Partitioner::Keyed);
        producer.send_keyed("events", b"k", "first".to_string()).unwrap();
        assert_eq!(producer.stats().requests, 0, "linger must not flush eagerly");
        std::thread::sleep(std::time::Duration::from_millis(20));
        // The next send finds the batch past its linger and flushes both.
        producer.send_keyed("events", b"k", "second".to_string()).unwrap();
        let stats = producer.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.messages, 2);
        assert_eq!(drain_all(&cluster, "events").len(), 2);
    }

    #[test]
    fn message_count_trigger_still_wins_when_it_fires_first() {
        let cluster = cluster();
        let producer = Producer::new(cluster.clone())
            .with_batch_size(3)
            .with_batch_bytes(1 << 20)
            .with_linger(std::time::Duration::from_secs(3600))
            .with_partitioner(Partitioner::Keyed);
        for i in 0..9 {
            producer.send_keyed("events", b"k", format!("m{i}")).unwrap();
        }
        assert_eq!(producer.stats().requests, 3);
        assert_eq!(producer.stats().messages, 9);
    }

    #[test]
    fn compression_cuts_wire_bytes_and_round_trips() {
        let cluster = cluster();
        let plain = Producer::new(cluster.clone())
            .with_batch_size(100)
            .with_partitioner(Partitioner::Keyed);
        let packed = Producer::new(cluster.clone())
            .with_batch_size(100)
            .with_codec(Codec::Lz)
            .with_partitioner(Partitioner::Keyed);
        for i in 0..300 {
            let payload = format!("pageview member=12345 url=/in/profile hit={i}");
            plain.send_keyed("events", b"a", payload.clone()).unwrap();
            packed.send_keyed("events", b"b", payload).unwrap();
        }
        plain.flush().unwrap();
        packed.flush().unwrap();
        let plain_stats = plain.stats();
        let packed_stats = packed.stats();
        assert!(
            packed_stats.wire_bytes * 3 <= plain_stats.wire_bytes,
            "expected ~2/3 bandwidth saving: {} vs {}",
            packed_stats.wire_bytes,
            plain_stats.wire_bytes
        );
        // All 600 messages arrive intact.
        assert_eq!(drain_all(&cluster, "events").len(), 600);
    }
}
