//! A traditional message-queue baseline (C-12, `benches/kafka.rs`).
//!
//! The paper's design choices are defined by contrast with "most other
//! messaging systems": explicit per-message ids with "auxiliary index
//! structures that map the message ids to the actual message locations",
//! broker-maintained consumer state, per-message acknowledgements, and
//! out-of-order delivery bookkeeping (§V.B). This module implements that
//! conventional design so the benchmarks can measure what Kafka's
//! offset-addressed, stateless-broker log buys.

use bytes::Bytes;
use li_commons::crc32::crc32;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Broker-assigned unique message id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId(pub u64);

#[derive(Debug, Default)]
struct QueueState {
    /// Arrival order -> id (scan structure).
    arrival: BTreeMap<u64, MessageId>,
    /// Id -> (checksummed payload, crc): the auxiliary index Kafka avoids.
    /// Like any broker, this one frames and checksums what it stores.
    index: HashMap<MessageId, (Bytes, u32)>,
    /// Id -> arrival seq (needed to GC out of `arrival` on full ack).
    seq_of: HashMap<MessageId, u64>,
    next_seq: u64,
    next_id: u64,
    /// Per consumer: delivered-but-unacked and the acked set.
    consumers: HashMap<String, ConsumerState>,
}

#[derive(Debug, Default)]
struct ConsumerState {
    delivered: HashSet<MessageId>,
    acked: HashSet<MessageId>,
}

/// The traditional queue: one topic, broker-side consumer state.
#[derive(Debug, Default)]
pub struct TraditionalMq {
    state: Mutex<QueueState>,
}

impl TraditionalMq {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a consumer (the broker must know each one to track acks).
    pub fn register_consumer(&self, name: &str) {
        self.state
            .lock()
            .consumers
            .entry(name.to_string())
            .or_default();
    }

    /// Publishes a message; the broker mints an id, checksums the payload
    /// (all brokers frame what they persist), and indexes it.
    pub fn publish(&self, payload: impl Into<Bytes>) -> MessageId {
        let payload = payload.into();
        let crc = crc32(&payload);
        let mut state = self.state.lock();
        let id = MessageId(state.next_id);
        state.next_id += 1;
        let seq = state.next_seq;
        state.next_seq += 1;
        state.arrival.insert(seq, id);
        state.seq_of.insert(id, seq);
        state.index.insert(id, (payload, crc));
        id
    }

    /// Delivers up to `max` not-yet-delivered messages to `consumer`,
    /// marking them in-flight (broker-side mutable state per delivery).
    pub fn deliver(&self, consumer: &str, max: usize) -> Vec<(MessageId, Bytes)> {
        let mut state = self.state.lock();
        let candidate_ids: Vec<MessageId> = state.arrival.values().copied().collect();
        let mut out = Vec::with_capacity(max.min(candidate_ids.len()));
        let consumer_state = state
            .consumers
            .entry(consumer.to_string())
            .or_default();
        for id in candidate_ids {
            if out.len() >= max {
                break;
            }
            if consumer_state.delivered.contains(&id) || consumer_state.acked.contains(&id) {
                continue;
            }
            consumer_state.delivered.insert(id);
            out.push(id);
        }
        out.into_iter()
            .map(|id| {
                let (payload, crc) = state.index[&id].clone();
                // Verify integrity on the way out, as a real broker would.
                assert_eq!(crc32(&payload), crc, "corrupt message {id:?}");
                (id, payload)
            })
            .collect()
    }

    /// Acknowledges one message (out-of-order acks allowed). When every
    /// registered consumer has acked it, the message is garbage-collected
    /// from both structures — the deletion problem Kafka sidesteps with
    /// its time-based SLA.
    pub fn ack(&self, consumer: &str, id: MessageId) -> bool {
        let mut state = self.state.lock();
        let Some(consumer_state) = state.consumers.get_mut(consumer) else {
            return false;
        };
        if !consumer_state.delivered.remove(&id) {
            return false;
        }
        consumer_state.acked.insert(id);
        let fully_acked = state
            .consumers
            .values()
            .all(|c| c.acked.contains(&id));
        if fully_acked {
            state.index.remove(&id);
            if let Some(seq) = state.seq_of.remove(&id) {
                state.arrival.remove(&seq);
            }
            for c in state.consumers.values_mut() {
                c.acked.remove(&id);
            }
        }
        true
    }

    /// Messages still retained (not fully acked).
    pub fn retained(&self) -> usize {
        self.state.lock().index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_deliver_ack_cycle() {
        let mq = TraditionalMq::new();
        mq.register_consumer("c1");
        let id = mq.publish(&b"hello"[..]);
        let batch = mq.deliver("c1", 10);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].0, id);
        // Not redelivered while in flight.
        assert!(mq.deliver("c1", 10).is_empty());
        assert!(mq.ack("c1", id));
        assert_eq!(mq.retained(), 0, "fully acked message GC'd");
    }

    #[test]
    fn retained_until_all_consumers_ack() {
        let mq = TraditionalMq::new();
        mq.register_consumer("c1");
        mq.register_consumer("c2");
        let id = mq.publish(&b"x"[..]);
        mq.deliver("c1", 1);
        mq.deliver("c2", 1);
        mq.ack("c1", id);
        assert_eq!(mq.retained(), 1, "c2 hasn't acked");
        mq.ack("c2", id);
        assert_eq!(mq.retained(), 0);
    }

    #[test]
    fn out_of_order_acks() {
        let mq = TraditionalMq::new();
        mq.register_consumer("c");
        let a = mq.publish(&b"a"[..]);
        let b = mq.publish(&b"b"[..]);
        mq.deliver("c", 2);
        assert!(mq.ack("c", b));
        assert_eq!(mq.retained(), 1);
        assert!(mq.ack("c", a));
        assert_eq!(mq.retained(), 0);
    }

    #[test]
    fn bogus_acks_rejected() {
        let mq = TraditionalMq::new();
        mq.register_consumer("c");
        let id = mq.publish(&b"x"[..]);
        assert!(!mq.ack("c", id), "not yet delivered");
        assert!(!mq.ack("ghost", id), "unknown consumer");
    }
}
