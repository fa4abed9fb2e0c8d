//! End-to-end auditing.
//!
//! "Our tracking also includes an auditing system to verify that there is
//! no data loss along the whole pipeline. ... each message carries the
//! timestamp and the server name when they are generated. We instrument
//! each producer such that it periodically generates a monitoring event,
//! which records the number of messages published by that producer for
//! each topic within a fixed time window. The producer publishes the
//! monitoring events to Kafka in a separate topic. The consumers can then
//! count the number of messages that they have received from a given topic
//! and validate those counts with the monitoring events" (§V.D).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use li_commons::sim::Clock;

use crate::cluster::KafkaCluster;
use crate::message::{KafkaError, Message};
use crate::producer::Producer;

/// Topic the monitoring events are published to.
pub const AUDIT_TOPIC: &str = "_audit";

/// An audited event: `server|window|payload` in the envelope, so each
/// message "carries the timestamp and the server name".
fn envelope(server: &str, window: u64, payload: &str) -> String {
    format!("{server}|{window}|{payload}")
}

/// Parses an audited event envelope into `(server, window, payload)`.
fn parse_envelope(message: &Message) -> Option<(String, u64, String)> {
    let text = std::str::from_utf8(&message.payload).ok()?;
    let mut parts = text.splitn(3, '|');
    let server = parts.next()?.to_string();
    let window = parts.next()?.parse().ok()?;
    let payload = parts.next()?.to_string();
    Some((server, window, payload))
}

/// A producer wrapper that counts messages per (topic, window) and
/// publishes monitoring events.
pub struct AuditedProducer {
    producer: Producer,
    server: String,
    clock: Arc<dyn Clock>,
    window: Duration,
    counts: Mutex<HashMap<(String, u64), u64>>,
}

impl AuditedProducer {
    /// Wraps `producer` for server `server`, counting in windows of
    /// `window`.
    pub fn new(
        producer: Producer,
        cluster: &Arc<KafkaCluster>,
        server: impl Into<String>,
        window: Duration,
    ) -> Self {
        AuditedProducer {
            producer,
            server: server.into(),
            clock: cluster.clock().clone(),
            window,
            counts: Mutex::new(HashMap::new()),
        }
    }

    fn current_window(&self) -> u64 {
        (self.clock.now().as_nanos() / self.window.as_nanos().max(1)) as u64
    }

    /// Publishes one payload, enveloped and counted.
    pub fn send(&self, topic: &str, payload: &str) -> Result<(), KafkaError> {
        let window = self.current_window();
        self.producer
            .send(topic, envelope(&self.server, window, payload))?;
        *self
            .counts
            .lock()
            .entry((topic.to_string(), window))
            .or_insert(0) += 1;
        Ok(())
    }

    /// Publishes the monitoring events for all closed windows (and,
    /// at flush time, the current one) to [`AUDIT_TOPIC`], then flushes the
    /// underlying producer.
    pub fn publish_audit_and_flush(&self) -> Result<(), KafkaError> {
        let counts: Vec<((String, u64), u64)> = self.counts.lock().drain().collect();
        for ((topic, window), count) in counts {
            let record = format!("{}|{window}|{topic}:{count}", self.server);
            self.producer.send(AUDIT_TOPIC, record)?;
        }
        self.producer.flush()
    }
}

/// The reconciliation verdict for one (topic, window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAudit {
    /// Audited topic.
    pub topic: String,
    /// Window index.
    pub window: u64,
    /// Count the producers claim to have published.
    pub produced: u64,
    /// Count the consumer actually received.
    pub consumed: u64,
}

impl WindowAudit {
    /// True when no loss (or duplication) was detected.
    pub fn clean(&self) -> bool {
        self.produced == self.consumed
    }
}

/// Consumes a topic plus the audit topic and reconciles counts per window.
pub struct AuditReconciler;

impl AuditReconciler {
    /// Reads everything currently in `topic` and [`AUDIT_TOPIC`] and
    /// returns one verdict per (topic, window) seen in either stream.
    pub fn reconcile(
        cluster: &Arc<KafkaCluster>,
        topic: &str,
    ) -> Result<Vec<WindowAudit>, KafkaError> {
        // Polls ride the zero-copy fetch: every envelope parsed below is a
        // view of the broker's own segment storage. Draining in a loop
        // (rather than one poll) keeps the verdicts complete even when a
        // window's traffic exceeds the per-fetch byte budget.
        let mut consumed: HashMap<u64, u64> = HashMap::new();
        for partition in 0..cluster.num_partitions(topic)? {
            let mut consumer =
                crate::consumer::SimpleConsumer::new(cluster.clone(), topic, partition)?;
            loop {
                let batch = consumer.poll()?;
                if batch.is_empty() {
                    break;
                }
                for (_, message) in &batch {
                    if let Some((_, window, _)) = parse_envelope(message) {
                        *consumed.entry(window).or_insert(0) += 1;
                    }
                }
            }
        }

        let mut produced: HashMap<u64, u64> = HashMap::new();
        for partition in 0..cluster.num_partitions(AUDIT_TOPIC)? {
            let mut consumer =
                crate::consumer::SimpleConsumer::new(cluster.clone(), AUDIT_TOPIC, partition)?;
            loop {
                let batch = consumer.poll()?;
                if batch.is_empty() {
                    break;
                }
                for (_, message) in &batch {
                    let Some((_, window, body)) = parse_envelope(message) else {
                        continue;
                    };
                    // body = "<topic>:<count>"
                    let Some((audited_topic, count)) = body.rsplit_once(':') else {
                        continue;
                    };
                    if audited_topic == topic {
                        *produced.entry(window).or_insert(0) +=
                            count.parse::<u64>().unwrap_or(0);
                    }
                }
            }
        }

        let mut windows: Vec<u64> = produced.keys().chain(consumed.keys()).copied().collect();
        windows.sort_unstable();
        windows.dedup();
        Ok(windows
            .into_iter()
            .map(|window| WindowAudit {
                topic: topic.to_string(),
                window,
                produced: produced.get(&window).copied().unwrap_or(0),
                consumed: consumed.get(&window).copied().unwrap_or(0),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use li_commons::sim::SimClock;

    fn setup() -> (Arc<KafkaCluster>, SimClock) {
        let clock = SimClock::new();
        let cluster =
            KafkaCluster::with_parts(2, LogConfig::default(), Arc::new(clock.clone())).unwrap();
        cluster.create_topic("events", 4).unwrap();
        cluster.create_topic(AUDIT_TOPIC, 1).unwrap();
        (cluster, clock)
    }

    #[test]
    fn clean_pipeline_reconciles() {
        let (cluster, clock) = setup();
        let audited = AuditedProducer::new(
            Producer::new(cluster.clone()),
            &cluster,
            "frontend-1",
            Duration::from_secs(60),
        );
        for i in 0..30 {
            audited.send("events", &format!("click {i}")).unwrap();
        }
        clock.advance(Duration::from_secs(60)); // close the window
        for i in 0..12 {
            audited.send("events", &format!("view {i}")).unwrap();
        }
        audited.publish_audit_and_flush().unwrap();

        let report = AuditReconciler::reconcile(&cluster, "events").unwrap();
        assert_eq!(report.len(), 2);
        assert!(report.iter().all(WindowAudit::clean), "{report:?}");
        assert_eq!(report[0].produced, 30);
        assert_eq!(report[1].produced, 12);
    }

    #[test]
    fn multiple_producers_aggregate() {
        let (cluster, _clock) = setup();
        for server in ["fe-1", "fe-2", "fe-3"] {
            let audited = AuditedProducer::new(
                Producer::new(cluster.clone()),
                &cluster,
                server,
                Duration::from_secs(60),
            );
            for i in 0..10 {
                audited.send("events", &format!("{server} msg {i}")).unwrap();
            }
            audited.publish_audit_and_flush().unwrap();
        }
        let report = AuditReconciler::reconcile(&cluster, "events").unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].produced, 30);
        assert_eq!(report[0].consumed, 30);
    }

    #[test]
    fn loss_is_detected() {
        let (cluster, _clock) = setup();
        let audited = AuditedProducer::new(
            Producer::new(cluster.clone()),
            &cluster,
            "fe-1",
            Duration::from_secs(60),
        );
        for i in 0..10 {
            audited.send("events", &format!("m{i}")).unwrap();
        }
        // Claim 3 more than were actually published (simulates loss
        // downstream of the count).
        audited
            .producer
            .send(AUDIT_TOPIC, envelope("fe-1", 0, "events:3"))
            .unwrap();
        audited.publish_audit_and_flush().unwrap();
        let report = AuditReconciler::reconcile(&cluster, "events").unwrap();
        assert_eq!(report.len(), 1);
        assert!(!report[0].clean());
        assert_eq!(report[0].produced, 13);
        assert_eq!(report[0].consumed, 10);
    }

    #[test]
    fn envelope_round_trip() {
        let m = Message::new(envelope("srv", 42, "payload|with|pipes").into_bytes());
        let (server, window, payload) = parse_envelope(&m).unwrap();
        assert_eq!(server, "srv");
        assert_eq!(window, 42);
        assert_eq!(payload, "payload|with|pipes");
    }
}
