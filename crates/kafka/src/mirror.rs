//! Cross-datacenter mirroring and the offline load pipeline.
//!
//! "We also deploy a cluster of Kafka in a separate datacenter for offline
//! analysis ... This instance of Kafka runs a set of embedded consumers to
//! pull data from the Kafka instances in the live datacenters. We then run
//! data load jobs to pull data from this replica cluster of Kafka into
//! Hadoop and our data warehouse ... the end-to-end latency for the
//! complete pipeline is about 10 seconds on average" (§V.D).
//!
//! [`MirrorMaker`] is the embedded-consumer stage (it copies *stored*
//! messages, wrappers included, so compression survives the hop);
//! [`WarehouseLoader`] is the batch load job, draining the mirror on a
//! period — the stage that dominates the paper's ~10 s end-to-end latency.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use li_commons::sim::Clock;

use crate::cluster::KafkaCluster;
use crate::ingest::GroupFrames;
use crate::message::{KafkaError, MessageSet};

/// The embedded consumer that replicates topics from a live cluster into
/// an offline one.
pub struct MirrorMaker {
    source: Arc<KafkaCluster>,
    target: Arc<KafkaCluster>,
    topics: Vec<String>,
    /// (topic, partition) -> next source offset.
    offsets: Mutex<HashMap<(String, u32), u64>>,
}

impl MirrorMaker {
    /// Mirrors `topics` from `source` to `target`. The topics must exist
    /// on both clusters with the same partition counts.
    pub fn new(
        source: Arc<KafkaCluster>,
        target: Arc<KafkaCluster>,
        topics: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, KafkaError> {
        let topics: Vec<String> = topics.into_iter().map(Into::into).collect();
        for topic in &topics {
            let n = source.num_partitions(topic)?;
            if target.num_partitions(topic)? != n {
                return Err(KafkaError::Group(format!(
                    "partition count mismatch for `{topic}`"
                )));
            }
        }
        Ok(MirrorMaker {
            source,
            target,
            topics,
            offsets: Mutex::new(HashMap::new()),
        })
    }

    /// One mirroring pass: copies every new stored message. Returns
    /// messages copied (compressed wrappers count as one — they are
    /// mirrored without being expanded).
    ///
    /// Zero-decode: the source's [`crate::message::FetchChunk`]s are
    /// appended to the target byte-verbatim — frames are never decoded,
    /// decompressed, or re-encoded on the hop, so compression survives it
    /// and the only per-message work is the target's structural frame walk.
    pub fn pump(&self) -> Result<usize, KafkaError> {
        let mut copied = 0;
        for topic in &self.topics {
            for partition in 0..self.source.num_partitions(topic)? {
                let key = (topic.clone(), partition);
                let offset = *self.offsets.lock().get(&key).unwrap_or(&0);
                let broker = self.source.broker_for(topic, partition)?;
                let (chunks, next) =
                    broker.fetch_chunks(topic, partition, offset, usize::MAX)?;
                if chunks.is_empty() {
                    continue;
                }
                let target_broker = self.target.broker_for(topic, partition)?;
                for chunk in &chunks {
                    target_broker.append_groups_local(
                        topic,
                        partition,
                        &[GroupFrames {
                            frames: &chunk.data,
                            messages: chunk.messages,
                            payload_bytes: chunk.payload_bytes() as u64,
                        }],
                    )?;
                    copied += chunk.messages as usize;
                }
                self.offsets.lock().insert(key, next);
            }
        }
        Ok(copied)
    }
}

/// A record landed in the "warehouse".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarehouseRow {
    /// Source topic.
    pub topic: String,
    /// Message payload.
    pub payload: Bytes,
    /// When the load job committed the row (nanoseconds, cluster clock).
    pub loaded_at: u64,
}

/// The batch "data load job": drains the offline cluster into warehouse
/// rows on a period, stamping load time for latency accounting.
pub struct WarehouseLoader {
    cluster: Arc<KafkaCluster>,
    clock: Arc<dyn Clock>,
    topics: Vec<String>,
    period: Duration,
    last_run: Mutex<Duration>,
    offsets: Mutex<HashMap<(String, u32), u64>>,
    warehouse: Mutex<Vec<WarehouseRow>>,
}

impl WarehouseLoader {
    /// Creates a loader that runs at most every `period`.
    pub fn new(
        cluster: Arc<KafkaCluster>,
        topics: impl IntoIterator<Item = impl Into<String>>,
        period: Duration,
    ) -> Self {
        let clock = cluster.clock().clone();
        WarehouseLoader {
            cluster,
            clock,
            topics: topics.into_iter().map(Into::into).collect(),
            period,
            last_run: Mutex::new(Duration::ZERO),
            offsets: Mutex::new(HashMap::new()),
            warehouse: Mutex::new(Vec::new()),
        }
    }

    /// Ticks the scheduler: runs a load when the period has elapsed.
    /// Returns rows loaded this tick.
    pub fn tick(&self) -> Result<usize, KafkaError> {
        {
            let mut last = self.last_run.lock();
            let now = self.clock.now();
            if now.saturating_sub(*last) < self.period {
                return Ok(0);
            }
            *last = now;
        }
        self.run_load()
    }

    /// Forces a load pass immediately.
    pub fn run_load(&self) -> Result<usize, KafkaError> {
        let mut loaded = 0;
        let now = self.clock.now_nanos();
        for topic in &self.topics {
            for partition in 0..self.cluster.num_partitions(topic)? {
                let key = (topic.clone(), partition);
                let offset = *self.offsets.lock().get(&key).unwrap_or(&0);
                let broker = self.cluster.broker_for(topic, partition)?;
                let (chunks, next) =
                    broker.fetch_chunks(topic, partition, offset, usize::MAX)?;
                for chunk in &chunks {
                    for item in chunk {
                        let (_, message) = item?;
                        // Uncompressed rows alias the mirror's segment
                        // memory; wrappers decompress once per batch.
                        for inner in MessageSet::unwrap_message(&message)? {
                            self.warehouse.lock().push(WarehouseRow {
                                topic: topic.clone(),
                                payload: inner.payload,
                                loaded_at: now,
                            });
                            loaded += 1;
                        }
                    }
                }
                self.offsets.lock().insert(key, next);
            }
        }
        Ok(loaded)
    }

    /// Snapshot of the warehouse contents.
    pub fn rows(&self) -> Vec<WarehouseRow> {
        self.warehouse.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use crate::producer::Producer;
    use li_commons::compress::Codec;
    use li_commons::sim::SimClock;

    fn two_clusters(clock: &SimClock) -> (Arc<KafkaCluster>, Arc<KafkaCluster>) {
        let live =
            KafkaCluster::with_parts(2, LogConfig::default(), Arc::new(clock.clone())).unwrap();
        let offline =
            KafkaCluster::with_parts(1, LogConfig::default(), Arc::new(clock.clone())).unwrap();
        for c in [&live, &offline] {
            c.create_topic("events", 4).unwrap();
        }
        (live, offline)
    }

    #[test]
    fn mirror_copies_everything_once() {
        let clock = SimClock::new();
        let (live, offline) = two_clusters(&clock);
        let producer = Producer::new(live.clone());
        for i in 0..50 {
            producer.send("events", format!("e{i}")).unwrap();
        }
        producer.flush().unwrap();
        let mirror = MirrorMaker::new(live, offline.clone(), ["events"]).unwrap();
        assert_eq!(mirror.pump().unwrap(), 50);
        assert_eq!(mirror.pump().unwrap(), 0, "idempotent when caught up");
        let total: usize = (0..4)
            .map(|p| {
                let broker = offline.broker_for("events", p).unwrap();
                crate::testutil::fetch_all(&broker, "events", p, 0).unwrap().len()
            })
            .sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn compressed_wrappers_survive_the_hop() {
        let clock = SimClock::new();
        let (live, offline) = two_clusters(&clock);
        let producer = Producer::new(live.clone())
            .with_batch_size(25)
            .with_codec(Codec::Lz);
        for i in 0..100 {
            producer.send("events", format!("pageview {i} pageview")).unwrap();
        }
        producer.flush().unwrap();
        let mirror = MirrorMaker::new(live, offline.clone(), ["events"]).unwrap();
        let copied = mirror.pump().unwrap();
        assert!(copied < 100, "wrappers copied, not expanded: {copied}");
        // The loader unwraps them into 100 application rows.
        let loader = WarehouseLoader::new(offline, ["events"], Duration::ZERO);
        assert_eq!(loader.run_load().unwrap(), 100);
    }

    #[test]
    fn loader_is_periodic() {
        let clock = SimClock::new();
        let (live, offline) = two_clusters(&clock);
        let producer = Producer::new(live.clone());
        let mirror = MirrorMaker::new(live, offline.clone(), ["events"]).unwrap();
        let loader = WarehouseLoader::new(offline, ["events"], Duration::from_secs(10));

        producer.send("events", "first").unwrap();
        producer.flush().unwrap();
        mirror.pump().unwrap();
        clock.advance(Duration::from_secs(10));
        assert_eq!(loader.tick().unwrap(), 1);
        // Within the period: nothing loads even though data is waiting.
        producer.send("events", "second").unwrap();
        producer.flush().unwrap();
        mirror.pump().unwrap();
        clock.advance(Duration::from_secs(3));
        assert_eq!(loader.tick().unwrap(), 0);
        clock.advance(Duration::from_secs(7));
        assert_eq!(loader.tick().unwrap(), 1);
        assert_eq!(loader.rows().len(), 2);
    }

    #[test]
    fn partition_mismatch_rejected() {
        let clock = SimClock::new();
        let live =
            KafkaCluster::with_parts(1, LogConfig::default(), Arc::new(clock.clone())).unwrap();
        let offline =
            KafkaCluster::with_parts(1, LogConfig::default(), Arc::new(clock.clone())).unwrap();
        live.create_topic("t", 2).unwrap();
        offline.create_topic("t", 3).unwrap();
        assert!(MirrorMaker::new(live, offline, ["t"]).is_err());
    }
}
