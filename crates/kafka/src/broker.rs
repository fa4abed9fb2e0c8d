//! The broker: a set of partition logs.
//!
//! The partition index is hash-striped (PR 7): produce and fetch resolve a
//! topic-partition through one short stripe lock instead of a broker-wide
//! map lock, so partitions hosted on the same broker never contend on the
//! index. The striping is semantics-free — the index is read-mostly and
//! each [`PartitionLog`] has its own interior locking.

use std::collections::HashMap;
use std::sync::Arc;

use li_commons::metrics::{Counter, Gauge, Histo, MetricsRegistry};
use li_commons::shard::ShardedLock;
use li_commons::sim::Clock;

use crate::ingest::{AckMode, GroupFrames, GroupQueue, IngestSink, ProduceReceipt};
use crate::log::{LogConfig, PartitionLog};
use crate::message::{FetchChunk, KafkaError};

/// Index stripes per broker.
const INDEX_STRIPES: usize = 16;

/// Per-broker observability under `kafka.broker<id>.`: messages and bytes
/// through produce and fetch, plus one `log_end` gauge per hosted
/// topic-partition (`kafka.topic.<topic>.<partition>.log_end`).
#[derive(Debug, Clone)]
struct BrokerMetrics {
    produce_messages: Counter,
    bytes_in: Counter,
    fetch_messages: Counter,
    bytes_out: Counter,
    /// Producer frame groups committed through the group-commit path.
    produce_groups: Counter,
    /// Groups per drained batch — the group-commit amortization factor
    /// (1 = no batching happened; higher = fewer lock acquisitions).
    groups_per_commit: Histo,
}

impl BrokerMetrics {
    fn new(registry: &Arc<MetricsRegistry>, id: u16) -> Self {
        let scope = registry.scope(format!("kafka.broker{id}"));
        BrokerMetrics {
            produce_messages: scope.counter("produce.messages"),
            bytes_in: scope.counter("produce.bytes_in"),
            fetch_messages: scope.counter("fetch.messages"),
            bytes_out: scope.counter("fetch.bytes_out"),
            produce_groups: scope.counter("produce.groups"),
            groups_per_commit: scope.histogram("produce.groups_per_commit"),
        }
    }
}

/// One hosted topic-partition: its log, its group-commit append queue,
/// and the pre-resolved `log_end` gauge, so the produce hot path does a
/// single index lookup.
#[derive(Clone)]
struct PartitionEntry {
    log: Arc<PartitionLog>,
    /// The partition's group-commit queue. Survives
    /// [`Broker::reset_partition`] — the queue holds producer-side state,
    /// the reset replaces broker-side log state.
    queue: Arc<GroupQueue>,
    log_end: Gauge,
}

/// A Kafka broker: "a topic is divided into multiple partitions and each
/// broker stores one or more of those partitions" (§V.A). The broker holds
/// no consumer state whatsoever — that is the point.
pub struct Broker {
    id: u16,
    config: LogConfig,
    clock: Arc<dyn Clock>,
    logs: ShardedLock<HashMap<(String, u32), PartitionEntry>>,
    registry: Arc<MetricsRegistry>,
    metrics: BrokerMetrics,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hosted: usize = self.logs.lock_all().iter().map(|g| g.len()).sum();
        f.debug_struct("Broker")
            .field("id", &self.id)
            .field("partitions", &hosted)
            .finish()
    }
}

impl Broker {
    /// Creates a standalone broker reporting into a private metrics
    /// registry; cluster-managed brokers share one via
    /// [`Broker::with_metrics`].
    pub fn new(id: u16, config: LogConfig, clock: Arc<dyn Clock>) -> Self {
        Self::with_metrics(id, config, clock, &MetricsRegistry::new())
    }

    /// Creates a broker reporting under `kafka.broker<id>.` in `registry`.
    pub fn with_metrics(
        id: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
    ) -> Self {
        Broker {
            id,
            config,
            clock,
            logs: ShardedLock::new(INDEX_STRIPES, HashMap::new),
            registry: Arc::clone(registry),
            metrics: BrokerMetrics::new(registry, id),
        }
    }

    /// Resolves a topic-partition to its entry via one stripe lock.
    fn entry(&self, topic: &str, partition: u32) -> Result<PartitionEntry, KafkaError> {
        self.logs
            .lock(&(topic, partition))
            .get(&(topic.to_string(), partition))
            .cloned()
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))
    }

    /// This broker's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Creates (idempotently) the log for a topic-partition.
    pub fn create_partition(&self, topic: &str, partition: u32) {
        let mut stripe = self.logs.lock(&(topic, partition));
        stripe
            .entry((topic.to_string(), partition))
            .or_insert_with(|| PartitionEntry {
                log: Arc::new(PartitionLog::new(self.config.clone(), self.clock.clone())),
                queue: Arc::new(GroupQueue::new(self.config.ingest_queue_bytes)),
                log_end: self
                    .registry
                    .gauge(&format!("kafka.topic.{topic}.{partition}.log_end")),
            });
    }

    /// The log of a topic-partition.
    pub fn log(&self, topic: &str, partition: u32) -> Result<Arc<PartitionLog>, KafkaError> {
        Ok(self.entry(topic, partition)?.log)
    }

    /// Group-commit produce: enqueues an already-encoded frame group into
    /// the partition's append queue and drives the drainer protocol — `N`
    /// concurrent producers on one partition cost one log-lock
    /// acquisition, one flush check, and one consumer wakeup per drained
    /// *batch*, not per producer (see [`crate::ingest`]). Blocks per
    /// `ack`; a standalone broker has no followers, so
    /// [`AckMode::FullIsr`] degenerates to [`AckMode::Leader`] here (the
    /// replicated contract lives in
    /// `ReplicatedCluster::produce_with_ack`).
    pub fn produce_frames_grouped(
        &self,
        topic: &str,
        partition: u32,
        frames: Vec<u8>,
        messages: u64,
        payload_bytes: usize,
        ack: AckMode,
    ) -> Result<ProduceReceipt, KafkaError> {
        let entry = self.entry(topic, partition)?;
        let sink = BrokerSink {
            metrics: &self.metrics,
            entry: &entry,
        };
        entry
            .queue
            .produce(&sink, frames, messages, payload_bytes as u64, ack)
    }

    /// Appends a drained batch of frame groups to the hosted partition
    /// log under **one** lock acquisition, updating produce metrics — the
    /// sink primitive shared by this broker's own group-commit queue, the
    /// replicated cluster's leader append and the mirror's verbatim chunk
    /// copy. Returns the base offset of the batch's first buffer.
    pub fn append_groups_local(
        &self,
        topic: &str,
        partition: u32,
        groups: &[GroupFrames<'_>],
    ) -> Result<u64, KafkaError> {
        let entry = self.entry(topic, partition)?;
        let sink = BrokerSink {
            metrics: &self.metrics,
            entry: &entry,
        };
        sink.append_groups(groups)
    }

    /// Drains every partition's group-commit queue (flush-on-close: makes
    /// sure no [`AckMode::None`] group is still waiting for a drainer).
    /// The log-level flush policy is separate — see [`Broker::flush_all`].
    pub fn flush_ingest(&self) {
        let entries: Vec<PartitionEntry> = self
            .logs
            .lock_all()
            .iter()
            .flat_map(|stripe| stripe.values().cloned())
            .collect();
        for entry in &entries {
            let sink = BrokerSink {
                metrics: &self.metrics,
                entry,
            };
            entry.queue.drain_with(&sink);
        }
    }

    /// Zero-copy pull fetch: frame-aligned [`FetchChunk`] views of the
    /// partition log's own segment storage, bounded by `max_bytes`. No
    /// payload byte is copied and no lock is held while the caller decodes.
    pub fn fetch_chunks(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_bytes: usize,
    ) -> Result<(Vec<FetchChunk>, u64), KafkaError> {
        let (chunks, next) = self.log(topic, partition)?.read_chunks(offset, max_bytes)?;
        for chunk in &chunks {
            self.metrics.fetch_messages.add(chunk.messages);
            self.metrics.bytes_out.add(chunk.payload_bytes() as u64);
        }
        Ok((chunks, next))
    }

    /// Replaces a partition's log with a fresh one (replication layer:
    /// resetting a divergent replica before re-replication).
    pub fn reset_partition(&self, topic: &str, partition: u32) {
        let mut stripe = self.logs.lock(&(topic, partition));
        let log = Arc::new(PartitionLog::new(self.config.clone(), self.clock.clone()));
        match stripe.get_mut(&(topic.to_string(), partition)) {
            Some(entry) => entry.log = log,
            None => {
                stripe.insert(
                    (topic.to_string(), partition),
                    PartitionEntry {
                        log,
                        queue: Arc::new(GroupQueue::new(self.config.ingest_queue_bytes)),
                        log_end: self
                            .registry
                            .gauge(&format!("kafka.topic.{topic}.{partition}.log_end")),
                    },
                );
            }
        }
    }

    /// Flushes every partition (time-policy tick / shutdown): first drains
    /// the group-commit queues, then forces the log-level flush.
    pub fn flush_all(&self) {
        self.flush_ingest();
        for stripe in self.logs.lock_all() {
            for entry in stripe.values() {
                entry.log.flush();
            }
        }
    }

    /// Runs the retention SLA on every partition; returns segments deleted.
    pub fn enforce_retention(&self) -> usize {
        self.logs
            .lock_all()
            .iter()
            .flat_map(|stripe| stripe.values())
            .map(|entry| entry.log.enforce_retention())
            .sum()
    }

    /// Topic-partitions hosted here.
    pub fn partitions(&self) -> Vec<(String, u32)> {
        let mut keys: Vec<(String, u32)> = self
            .logs
            .lock_all()
            .iter()
            .flat_map(|stripe| stripe.keys().cloned())
            .collect();
        keys.sort();
        keys
    }
}

/// [`IngestSink`] over one broker-hosted partition: a drained batch lands
/// via `PartitionLog::append_frames_multi` (one lock acquisition for the
/// whole batch), then metrics and the `log_end` gauge update once.
/// `ship` keeps the no-op default — a standalone broker has no replicas.
struct BrokerSink<'a> {
    metrics: &'a BrokerMetrics,
    entry: &'a PartitionEntry,
}

impl IngestSink for BrokerSink<'_> {
    fn append_groups(&self, groups: &[GroupFrames<'_>]) -> Result<u64, KafkaError> {
        let buffers: Vec<&[u8]> = groups.iter().map(|g| g.frames).collect();
        let base = self.entry.log.append_frames_multi(&buffers)?;
        let (mut messages, mut payload_bytes) = (0u64, 0u64);
        for group in groups {
            messages += group.messages;
            payload_bytes += group.payload_bytes;
        }
        self.metrics.produce_messages.add(messages);
        self.metrics.bytes_in.add(payload_bytes);
        self.metrics.produce_groups.add(groups.len() as u64);
        self.metrics.groups_per_commit.record(groups.len() as u64);
        self.entry.log_end.set(self.entry.log.log_end() as i64);
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSet;
    use crate::testutil::{fetch_all, produce};
    use li_commons::sim::SimClock;

    fn broker() -> Broker {
        Broker::new(0, LogConfig::default(), Arc::new(SimClock::new()))
    }

    #[test]
    fn produce_fetch_cycle() {
        let b = broker();
        b.create_partition("events", 0);
        let set = MessageSet::from_payloads(["a", "b", "c"]);
        assert_eq!(produce(&b, "events", 0, &set).unwrap(), 0);
        let (chunks, next) = b.fetch_chunks("events", 0, 0, usize::MAX).unwrap();
        assert_eq!(chunks.iter().map(|c| c.messages).sum::<u64>(), 3);
        assert!(next > 0);
    }

    #[test]
    fn unknown_partition_rejected() {
        let b = broker();
        assert!(matches!(
            b.fetch_chunks("nope", 0, 0, 100),
            Err(KafkaError::UnknownTopicPartition(_, 0))
        ));
        assert!(produce(&b, "nope", 0, &MessageSet::from_payloads(["x"])).is_err());
    }

    #[test]
    fn create_partition_idempotent() {
        let b = broker();
        b.create_partition("t", 0);
        produce(&b, "t", 0, &MessageSet::from_payloads(["x"])).unwrap();
        b.create_partition("t", 0); // must not wipe the log
        assert_eq!(fetch_all(&b, "t", 0, 0).unwrap().len(), 1);
    }

    #[test]
    fn partitions_are_independent_logs() {
        let b = broker();
        b.create_partition("t", 0);
        b.create_partition("t", 1);
        produce(&b, "t", 0, &MessageSet::from_payloads(["only in 0"])).unwrap();
        assert_eq!(fetch_all(&b, "t", 0, 0).unwrap().len(), 1);
        assert!(fetch_all(&b, "t", 1, 0).unwrap().is_empty());
    }

    #[test]
    fn grouped_produce_matches_sequential_appends_and_counts_groups() {
        let bare = PartitionLog::new(LogConfig::default(), Arc::new(SimClock::new()));
        let grouped = broker();
        grouped.create_partition("t", 0);
        for i in 0..10 {
            let set = MessageSet::from_payloads([format!("m-{i}")]);
            let frames = set.encode();
            let offset = bare.append_frames(&frames).unwrap();
            let receipt = grouped
                .produce_frames_grouped("t", 0, frames, 1, set.payload_bytes(), AckMode::Leader)
                .unwrap();
            assert_eq!(receipt.base_offset, Some(offset));
        }
        let log = grouped.log("t", 0).unwrap();
        assert_eq!(bare.log_end(), log.log_end());
        assert_eq!(bare.content_fingerprint(), log.content_fingerprint());
        assert_eq!(grouped.metrics.produce_groups.value(), 10);
    }

    #[test]
    fn grouped_produce_none_ack_lands_after_flush_ingest() {
        let b = broker();
        b.create_partition("t", 0);
        let set = MessageSet::from_payloads(["fire"]);
        let receipt = b
            .produce_frames_grouped("t", 0, set.encode(), 1, set.payload_bytes(), AckMode::None)
            .unwrap();
        assert_eq!(receipt.base_offset, None);
        b.flush_ingest();
        assert_eq!(fetch_all(&b, "t", 0, 0).unwrap().len(), 1);
    }

    #[test]
    fn full_isr_on_standalone_broker_degenerates_to_leader() {
        let b = broker();
        b.create_partition("t", 0);
        let set = MessageSet::from_payloads(["x"]);
        let receipt = b
            .produce_frames_grouped("t", 0, set.encode(), 1, set.payload_bytes(), AckMode::FullIsr)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(0));
    }

    #[test]
    fn index_lookup_does_not_cross_stripes() {
        // Holding one partition's index stripe must not block produce on a
        // partition in a different stripe.
        let b = Arc::new(broker());
        b.create_partition("t", 0);
        let other = (1..1000u32)
            .find(|p| b.logs.stripe_of(&("t", *p)) != b.logs.stripe_of(&("t", 0u32)))
            .expect("a partition in another stripe");
        b.create_partition("t", other);
        let guard = b.logs.lock(&("t", 0u32));
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            produce(&b2, "t", other, &MessageSet::from_payloads(["x"])).unwrap()
        });
        assert_eq!(h.join().unwrap(), 0);
        drop(guard);
    }
}
