//! The cluster: brokers + topic metadata + ZooKeeper registration.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

use li_commons::metrics::MetricsRegistry;
use li_commons::sim::{Clock, RealClock};
use li_zk::{CreateMode, Session, ZooKeeper};

use crate::broker::Broker;
use crate::log::LogConfig;
use crate::message::KafkaError;

/// A Kafka cluster: brokers, topic→partition→broker metadata, and the
/// coordination service used by consumer groups. "Kafka uses Zookeeper for
/// ... detecting the addition and the removal of brokers and consumers"
/// (§V.C); brokers and partition ownership are registered under
/// `/brokers`.
pub struct KafkaCluster {
    zk: ZooKeeper,
    session: Session,
    clock: Arc<dyn Clock>,
    config: LogConfig,
    brokers: Vec<Arc<Broker>>,
    /// topic -> partition -> broker index.
    metadata: RwLock<HashMap<String, Vec<usize>>>,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for KafkaCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KafkaCluster")
            .field("brokers", &self.brokers.len())
            .field("topics", &self.metadata.read().keys().collect::<Vec<_>>())
            .finish()
    }
}

impl KafkaCluster {
    /// Builds a cluster of `broker_count` brokers with default log config
    /// and the real clock.
    pub fn new(broker_count: u16) -> Result<Arc<Self>, KafkaError> {
        Self::with_parts(broker_count, LogConfig::default(), Arc::new(RealClock::new()))
    }

    /// Fully-injected constructor.
    pub fn with_parts(
        broker_count: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Arc<Self>, KafkaError> {
        Self::with_metrics(broker_count, config, clock, &MetricsRegistry::new())
    }

    /// Fully-injected constructor that reports into a shared metrics
    /// registry (names under `kafka.`; the embedded coordination service
    /// reports under `zk.`).
    pub fn with_metrics(
        broker_count: u16,
        config: LogConfig,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Arc<Self>, KafkaError> {
        let zk = ZooKeeper::with_metrics(registry);
        let session = zk.connect();
        session.create_recursive("/brokers/ids", Vec::new(), CreateMode::Persistent)?;
        session.create_recursive("/brokers/topics", Vec::new(), CreateMode::Persistent)?;
        let metrics = Arc::clone(registry);
        let brokers: Vec<Arc<Broker>> = (0..broker_count)
            .map(|id| {
                let broker = Arc::new(Broker::with_metrics(
                    id,
                    config.clone(),
                    clock.clone(),
                    &metrics,
                ));
                let _ = session.create(
                    &format!("/brokers/ids/{id}"),
                    Vec::new(),
                    CreateMode::Persistent,
                );
                broker
            })
            .collect();
        Ok(Arc::new(KafkaCluster {
            zk,
            session,
            clock,
            config,
            brokers,
            metadata: RwLock::new(HashMap::new()),
            metrics,
        }))
    }

    /// The log configuration every broker of this cluster was built with.
    pub fn log_config(&self) -> &LogConfig {
        &self.config
    }

    /// The metrics registry every broker, producer, and consumer of this
    /// cluster reports into (names under `kafka.`).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The coordination service (consumer groups connect here).
    pub fn zookeeper(&self) -> &ZooKeeper {
        &self.zk
    }

    /// The cluster clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Creates a topic with `num_partitions`, spread round-robin across
    /// brokers, and registers it in ZooKeeper.
    pub fn create_topic(&self, topic: &str, num_partitions: u32) -> Result<(), KafkaError> {
        let mut metadata = self.metadata.write();
        if metadata.contains_key(topic) {
            return Err(KafkaError::Group(format!("topic `{topic}` exists")));
        }
        let mut assignment = Vec::with_capacity(num_partitions as usize);
        for partition in 0..num_partitions {
            let broker_idx = partition as usize % self.brokers.len();
            self.brokers[broker_idx].create_partition(topic, partition);
            assignment.push(broker_idx);
            self.session.create_recursive(
                &format!("/brokers/topics/{topic}/{partition}"),
                broker_idx.to_string().into_bytes(),
                CreateMode::Persistent,
            )?;
        }
        metadata.insert(topic.to_string(), assignment);
        Ok(())
    }

    /// Number of partitions of `topic`.
    pub fn num_partitions(&self, topic: &str) -> Result<u32, KafkaError> {
        self.metadata
            .read()
            .get(topic)
            .map(|a| a.len() as u32)
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), 0))
    }

    /// The broker hosting `topic`/`partition`.
    pub fn broker_for(&self, topic: &str, partition: u32) -> Result<Arc<Broker>, KafkaError> {
        let metadata = self.metadata.read();
        let assignment = metadata
            .get(topic)
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))?;
        let idx = *assignment
            .get(partition as usize)
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))?;
        Ok(self.brokers[idx].clone())
    }

    /// All brokers.
    pub fn brokers(&self) -> &[Arc<Broker>] {
        &self.brokers
    }

    /// Flushes every broker.
    pub fn flush_all(&self) {
        for broker in &self.brokers {
            broker.flush_all();
        }
    }

    /// Runs retention everywhere; returns segments deleted.
    pub fn enforce_retention(&self) -> usize {
        self.brokers.iter().map(|b| b.enforce_retention()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSet;
    use crate::testutil::{fetch_all, produce};

    #[test]
    fn topic_partitions_spread_over_brokers() {
        let cluster = KafkaCluster::new(3).unwrap();
        cluster.create_topic("events", 7).unwrap();
        assert_eq!(cluster.num_partitions("events").unwrap(), 7);
        let mut per_broker = [0usize; 3];
        for p in 0..7 {
            let broker = cluster.broker_for("events", p).unwrap();
            per_broker[broker.id() as usize] += 1;
        }
        assert_eq!(per_broker, [3, 2, 2]);
    }

    #[test]
    fn duplicate_topic_rejected() {
        let cluster = KafkaCluster::new(1).unwrap();
        cluster.create_topic("t", 1).unwrap();
        assert!(cluster.create_topic("t", 1).is_err());
    }

    #[test]
    fn topic_registered_in_zookeeper() {
        let cluster = KafkaCluster::new(2).unwrap();
        cluster.create_topic("news", 4).unwrap();
        let session = cluster.zookeeper().connect();
        let children = session.children("/brokers/topics/news").unwrap();
        assert_eq!(children.len(), 4);
    }

    #[test]
    fn produce_via_cluster_routing() {
        let cluster = KafkaCluster::new(2).unwrap();
        cluster.create_topic("t", 2).unwrap();
        let broker = cluster.broker_for("t", 1).unwrap();
        produce(&broker, "t", 1, &MessageSet::from_payloads(["hello"])).unwrap();
        assert_eq!(fetch_all(&broker, "t", 1, 0).unwrap().len(), 1);
    }
}
