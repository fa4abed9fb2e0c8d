//! Intra-cluster replication — the paper's stated future work, built out.
//!
//! §V.D closes with: "One of the most important features that we plan to
//! add in the future is intra-cluster replication." This module implements
//! it the way Kafka 0.8 eventually did, reusing this crate's logs:
//!
//! * each partition has a **leader** broker and follower brokers;
//! * producers write to the leader; **followers pull** from the leader's
//!   log, byte-for-byte, so logical offsets are identical on every replica;
//! * the **high watermark** is the offset up to which every in-sync
//!   replica has the data — consumers only ever see committed messages;
//! * the cluster tracks each partition's **ISR** (in-sync replica set):
//!   a replica is dropped from it when it crashes and re-admitted only
//!   once it has caught back up to the leader's visible end;
//! * on leader failure, the live **ISR** follower with the longest log is
//!   elected leader (it is a superset of every committed message) — an
//!   out-of-sync replica is never elected (no unclean leader election),
//!   so a partition with no eligible replica goes offline until one
//!   returns, and `AckMode::FullIsr` acknowledgements survive any crash
//!   sequence the single-failure budget allows;
//! * a recovered broker whose log diverged (it led writes that were never
//!   committed) is reset and re-replicated from the new leader.

use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use li_commons::shard::ShardedLock;

use crate::cluster::KafkaCluster;
use crate::ingest::{AckMode, GroupFrames, GroupQueue, IngestSink, ProduceReceipt};
use crate::message::{KafkaError, Message, MessageSet};

/// Ingest-queue index stripes (mirrors the broker's partition-index
/// striping).
const QUEUE_STRIPES: usize = 16;

#[derive(Debug, Clone)]
struct PartitionReplicas {
    leader: u16,
    followers: Vec<u16>,
}

/// A replication layer over a [`KafkaCluster`]'s brokers.
pub struct ReplicatedCluster {
    cluster: Arc<KafkaCluster>,
    assignments: RwLock<HashMap<(String, u32), PartitionReplicas>>,
    down: RwLock<HashSet<u16>>,
    /// Per-partition in-sync replica set. A broker leaves on crash and
    /// rejoins only after catching up to the leader's visible end; leader
    /// elections are restricted to this set.
    isr: RwLock<HashMap<(String, u32), HashSet<u16>>>,
    /// Cluster-level group-commit queues, one per replicated partition.
    /// They live here rather than on a broker because the queue must
    /// survive a leader failover: producers keep enqueueing against the
    /// partition while the sink resolves whoever currently leads it.
    queues: ShardedLock<HashMap<(String, u32), Arc<GroupQueue>>>,
}

impl ReplicatedCluster {
    /// Wraps a cluster.
    pub fn new(cluster: Arc<KafkaCluster>) -> Self {
        ReplicatedCluster {
            cluster,
            assignments: RwLock::new(HashMap::new()),
            down: RwLock::new(HashSet::new()),
            isr: RwLock::new(HashMap::new()),
            queues: ShardedLock::new(QUEUE_STRIPES, HashMap::new),
        }
    }

    /// Creates a replicated topic: partition `p`'s replicas are brokers
    /// `p, p+1, .. p+replication-1 (mod broker count)`, first is leader.
    pub fn create_topic(
        &self,
        topic: &str,
        partitions: u32,
        replication: usize,
    ) -> Result<(), KafkaError> {
        let brokers = self.cluster.brokers();
        if replication == 0 || replication > brokers.len() {
            return Err(KafkaError::Group(format!(
                "replication {replication} invalid for {} brokers",
                brokers.len()
            )));
        }
        let mut assignments = self.assignments.write();
        for p in 0..partitions {
            let replicas: Vec<u16> = (0..replication)
                .map(|r| ((p as usize + r) % brokers.len()) as u16)
                .collect();
            for &b in &replicas {
                brokers[b as usize].create_partition(topic, p);
            }
            assignments.insert(
                (topic.to_string(), p),
                PartitionReplicas {
                    leader: replicas[0],
                    followers: replicas[1..].to_vec(),
                },
            );
            // All replicas start empty, hence in sync.
            self.isr
                .write()
                .insert((topic.to_string(), p), replicas.iter().copied().collect());
            self.queues.lock(&(topic, p)).insert(
                (topic.to_string(), p),
                Arc::new(GroupQueue::new(self.cluster.log_config().ingest_queue_bytes)),
            );
        }
        Ok(())
    }

    fn queue(&self, topic: &str, partition: u32) -> Result<Arc<GroupQueue>, KafkaError> {
        self.queues
            .lock(&(topic, partition))
            .get(&(topic.to_string(), partition))
            .cloned()
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))
    }

    fn assignment(&self, topic: &str, partition: u32) -> Result<PartitionReplicas, KafkaError> {
        self.assignments
            .read()
            .get(&(topic.to_string(), partition))
            .cloned()
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))
    }

    /// The current leader broker id of a partition.
    pub fn leader_of(&self, topic: &str, partition: u32) -> Result<u16, KafkaError> {
        Ok(self.assignment(topic, partition)?.leader)
    }

    /// The partition's current in-sync replica set, sorted. Crashed
    /// brokers leave it immediately; recovered brokers rejoin only after
    /// catching up to the leader's visible end.
    pub fn isr_of(&self, topic: &str, partition: u32) -> Result<Vec<u16>, KafkaError> {
        let isr = self
            .isr
            .read()
            .get(&(topic.to_string(), partition))
            .cloned()
            .ok_or_else(|| KafkaError::UnknownTopicPartition(topic.to_string(), partition))?;
        let mut isr: Vec<u16> = isr.into_iter().collect();
        isr.sort_unstable();
        Ok(isr)
    }

    /// Group-commit produce with an explicit durability contract. The set
    /// is encoded once, outside every lock, then enqueued into the
    /// partition's cluster-level [`GroupQueue`]: concurrent producers
    /// share one leader-log lock acquisition and (for
    /// [`AckMode::FullIsr`]) one replication ship per drained batch.
    ///
    /// * [`AckMode::None`] — returns without waiting; no offset.
    /// * [`AckMode::Leader`] — returns after the leader's local append;
    ///   fails when the leader is down (the client should refresh metadata
    ///   after a failover).
    /// * [`AckMode::FullIsr`] — returns only after every live replica
    ///   holds the bytes; the message is committed (at or below the high
    ///   watermark) the moment the call returns, with no
    ///   [`ReplicatedCluster::replicate`] pump needed.
    pub fn produce_with_ack(
        &self,
        topic: &str,
        partition: u32,
        set: &MessageSet,
        ack: AckMode,
    ) -> Result<ProduceReceipt, KafkaError> {
        let frames = set.encode();
        let queue = self.queue(topic, partition)?;
        let sink = ReplicaSink {
            rc: self,
            topic,
            partition,
        };
        queue.produce(
            &sink,
            frames,
            set.messages.len() as u64,
            set.payload_bytes() as u64,
            ack,
        )
    }

    /// Drains every partition's group-commit queue (flush-on-close for
    /// [`AckMode::None`] producers; the chaos harness calls this at
    /// quiesce).
    pub fn flush_ingest(&self) {
        let queues: Vec<((String, u32), Arc<GroupQueue>)> = self
            .queues
            .lock_all()
            .iter()
            .flat_map(|stripe| stripe.iter().map(|(k, q)| (k.clone(), q.clone())))
            .collect();
        for ((topic, partition), queue) in &queues {
            let sink = ReplicaSink {
                rc: self,
                topic,
                partition: *partition,
            };
            queue.drain_with(&sink);
        }
    }

    /// One replication pump: every live follower pulls the bytes it is
    /// missing from its leader's log. Returns messages copied.
    pub fn replicate(&self) -> Result<usize, KafkaError> {
        let assignments: Vec<((String, u32), PartitionReplicas)> = self
            .assignments
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let down = self.down.read().clone();
        let mut copied = 0;
        for ((topic, partition), replicas) in assignments {
            if down.contains(&replicas.leader) {
                continue;
            }
            copied += self.catch_up(&topic, partition, &replicas, &down)?;
        }
        Ok(copied)
    }

    /// Pulls every live follower of one partition up to its leader's
    /// visible end — the per-partition body of
    /// [`ReplicatedCluster::replicate`], also invoked by the FullIsr ship.
    /// Returns messages copied.
    fn catch_up(
        &self,
        topic: &str,
        partition: u32,
        replicas: &PartitionReplicas,
        down: &HashSet<u16>,
    ) -> Result<usize, KafkaError> {
        let brokers = self.cluster.brokers();
        let leader_log = brokers[replicas.leader as usize].log(topic, partition)?;
        let target = leader_log.visible_end();
        let mut copied = 0;
        let mut synced: Vec<u16> = vec![replicas.leader];
        for &f in &replicas.followers {
            if down.contains(&f) {
                continue;
            }
            let mut follower_log = brokers[f as usize].log(topic, partition)?;
            let mut from = follower_log.log_end();
            if from > leader_log.log_end() {
                // Divergent follower (was a leader with an uncommitted
                // tail): reset and re-replicate from scratch.
                brokers[f as usize].reset_partition(topic, partition);
                follower_log = brokers[f as usize].log(topic, partition)?;
                from = 0;
            }
            // Pull the leader's stored bytes verbatim: appending the
            // frame-aligned chunks untouched keeps logical offsets
            // identical on every replica without decoding a single
            // message.
            let (chunks, _) = leader_log.read_chunks(from, usize::MAX)?;
            for chunk in &chunks {
                follower_log.append_frames(&chunk.data)?;
                copied += chunk.messages as usize;
            }
            if follower_log.log_end() >= target {
                synced.push(f);
            }
        }
        // Replicas that reached the leader's visible end (re)join the ISR
        // — the only gate through which a recovered broker becomes
        // electable again.
        if let Some(isr) = self.isr.write().get_mut(&(topic.to_string(), partition)) {
            isr.extend(synced);
        }
        Ok(copied)
    }

    /// The FullIsr ship: flushes the partition's current leader log (every
    /// appended byte becomes pull-visible) and catches every live follower
    /// up to it. The in-sync replica set is "live replicas right now" —
    /// with the chaos harness's single-failure budget and replication
    /// factor 3 that always leaves a surviving copy for failover.
    fn ship_partition(&self, topic: &str, partition: u32) -> Result<(), KafkaError> {
        let assignment = self.assignment(topic, partition)?;
        let down = self.down.read().clone();
        if down.contains(&assignment.leader) {
            return Err(KafkaError::Group(format!(
                "leader {} down for {topic}/{partition}",
                assignment.leader
            )));
        }
        self.cluster.brokers()[assignment.leader as usize]
            .log(topic, partition)?
            .flush();
        self.catch_up(topic, partition, &assignment, &down)?;
        Ok(())
    }

    /// The high watermark: the largest offset replicated to *every* live
    /// replica. Messages past it are not yet committed.
    pub fn high_watermark(&self, topic: &str, partition: u32) -> Result<u64, KafkaError> {
        let assignment = self.assignment(topic, partition)?;
        let down = self.down.read();
        let brokers = self.cluster.brokers();
        let mut hw = u64::MAX;
        let mut any = false;
        for &b in std::iter::once(&assignment.leader).chain(&assignment.followers) {
            if down.contains(&b) {
                continue;
            }
            hw = hw.min(brokers[b as usize].log(topic, partition)?.visible_end());
            any = true;
        }
        Ok(if any { hw } else { 0 })
    }

    /// Committed-only fetch: reads from the leader, truncated at the high
    /// watermark — a consumer can never observe a message that a leader
    /// failover could lose.
    pub fn fetch_committed(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_bytes: usize,
    ) -> Result<(Vec<(u64, Message)>, u64), KafkaError> {
        let assignment = self.assignment(topic, partition)?;
        if self.down.read().contains(&assignment.leader) {
            return Err(KafkaError::Group(format!(
                "leader {} down for {topic}/{partition}",
                assignment.leader
            )));
        }
        let hw = self.high_watermark(topic, partition)?;
        let leader_log = self.cluster.brokers()[assignment.leader as usize].log(topic, partition)?;
        // Walk the leader's chunk views frame by frame and stop at the high
        // watermark: a frame at or past it is never decoded.
        let mut next = offset.min(hw);
        let (chunks, _) = leader_log.read_chunks(next, max_bytes)?;
        let mut committed = Vec::new();
        for chunk in &chunks {
            let mut frames = chunk.iter();
            while next < hw {
                let Some(item) = frames.next() else { break };
                let (at, message) = item?;
                next = at + message.framed_len() as u64;
                committed.push((at, message));
            }
        }
        Ok((committed, next))
    }

    /// Fails a broker: it leaves every partition's ISR, and partitions it
    /// led elect the live **in-sync** replica with the longest log as new
    /// leader. A stale (restarted, not yet caught-up) replica is never
    /// elected — no unclean leader election — so a partition with no
    /// eligible replica goes offline until one returns, preserving every
    /// `FullIsr`-acknowledged byte.
    pub fn fail_broker(&self, broker: u16) -> Result<Vec<(String, u32, u16)>, KafkaError> {
        self.down.write().insert(broker);
        let brokers = self.cluster.brokers();
        let down = self.down.read().clone();
        let mut elections = Vec::new();
        let mut assignments = self.assignments.write();
        let mut isr_map = self.isr.write();
        for ((topic, partition), replicas) in assignments.iter_mut() {
            let key = (topic.clone(), *partition);
            let isr = isr_map.entry(key).or_default();
            isr.remove(&broker);
            if replicas.leader != broker {
                continue;
            }
            // Longest-log election among live ISR members.
            let candidate = replicas
                .followers
                .iter()
                .filter(|b| !down.contains(b) && isr.contains(b))
                .max_by_key(|&&b| {
                    brokers[b as usize]
                        .log(topic, *partition)
                        .map(|l| l.log_end())
                        .unwrap_or(0)
                })
                .copied();
            let Some(new_leader) = candidate else {
                continue; // partition offline until an ISR replica returns
            };
            replicas.followers.retain(|&b| b != new_leader);
            replicas.followers.push(replicas.leader);
            replicas.leader = new_leader;
            elections.push((topic.clone(), *partition, new_leader));
        }
        Ok(elections)
    }

    /// Brings a broker back; it rejoins as a follower everywhere. Any
    /// partition whose local log has diverged from the current leader is
    /// reset here so the next [`ReplicatedCluster::replicate`] recopies
    /// it from scratch. Divergence is detected by byte-prefix
    /// fingerprint, not length: a crashed leader can rejoin with an
    /// uncommitted tail its successor overwrote with different records
    /// of the *same* framed length, which a length-only check (and the
    /// high watermark, which counts this replica again the moment it is
    /// live) would silently accept.
    pub fn recover_broker(&self, broker: u16) {
        self.down.write().remove(&broker);
        let down = self.down.read().clone();
        let brokers = self.cluster.brokers();
        for ((topic, partition), replicas) in self.assignments.read().iter() {
            if replicas.leader == broker
                || down.contains(&replicas.leader)
                || !replicas.followers.contains(&broker)
            {
                continue;
            }
            let Ok(local) = brokers[broker as usize].log(topic, *partition) else {
                continue;
            };
            let end = local.log_end();
            if end == 0 {
                continue;
            }
            let Ok(leader_log) = brokers[replicas.leader as usize].log(topic, *partition) else {
                continue;
            };
            let overlap = end.min(leader_log.log_end());
            if end > leader_log.log_end()
                || local.prefix_fingerprint(overlap) != leader_log.prefix_fingerprint(overlap)
            {
                brokers[broker as usize].reset_partition(topic, *partition);
            }
        }
    }

    /// Chaos invariant checker: every *live* replica of the partition
    /// holds a byte-identical log (same end offset, same content
    /// fingerprint). Call after pumping [`ReplicatedCluster::replicate`]
    /// to convergence.
    pub fn verify_replica_identity(&self, topic: &str, partition: u32) -> Result<(), String> {
        let assignment = self
            .assignment(topic, partition)
            .map_err(|e| e.to_string())?;
        let down = self.down.read().clone();
        let brokers = self.cluster.brokers();
        let leader_log = brokers[assignment.leader as usize]
            .log(topic, partition)
            .map_err(|e| e.to_string())?;
        let (want_end, want_print) = (leader_log.log_end(), leader_log.content_fingerprint());
        for &b in &assignment.followers {
            if down.contains(&b) {
                continue;
            }
            let log = brokers[b as usize]
                .log(topic, partition)
                .map_err(|e| e.to_string())?;
            if log.log_end() != want_end || log.content_fingerprint() != want_print {
                return Err(format!(
                    "replica {b} of {topic}/{partition} diverges from leader {}: \
                     end {} vs {want_end}, fingerprint {:#x} vs {want_print:#x}",
                    assignment.leader,
                    log.log_end(),
                    log.content_fingerprint()
                ));
            }
        }
        Ok(())
    }
}

/// [`IngestSink`] over one replicated partition: a drained batch appends
/// to whoever *currently* leads the partition (one lock acquisition via
/// the leader broker's group append), and a FullIsr ship pushes the
/// leader's bytes to every live follower once per batch. A downed leader
/// fails the whole batch — every waiting producer sees the error.
struct ReplicaSink<'a> {
    rc: &'a ReplicatedCluster,
    topic: &'a str,
    partition: u32,
}

impl IngestSink for ReplicaSink<'_> {
    fn append_groups(&self, groups: &[GroupFrames<'_>]) -> Result<u64, KafkaError> {
        let assignment = self.rc.assignment(self.topic, self.partition)?;
        if self.rc.down.read().contains(&assignment.leader) {
            return Err(KafkaError::Group(format!(
                "leader {} down for {}/{}",
                assignment.leader, self.topic, self.partition
            )));
        }
        self.rc.cluster.brokers()[assignment.leader as usize].append_groups_local(
            self.topic,
            self.partition,
            groups,
        )
    }

    fn ship(&self) -> Result<(), KafkaError> {
        self.rc.ship_partition(self.topic, self.partition)
    }
}

/// Chaos-scheduler hooks: a crash fails the broker (triggering
/// longest-log leader elections), a restart recovers it as a follower.
impl li_commons::chaos::FaultHooks for ReplicatedCluster {
    fn crash(&self, node: li_commons::ring::NodeId) {
        let _ = self.fail_broker(node.0);
    }

    fn restart(&self, node: li_commons::ring::NodeId) {
        self.recover_broker(node.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use li_commons::sim::SimClock;

    fn replicated() -> (Arc<KafkaCluster>, ReplicatedCluster) {
        let cluster =
            KafkaCluster::with_parts(3, LogConfig::default(), Arc::new(SimClock::new())).unwrap();
        let replicated = ReplicatedCluster::new(cluster.clone());
        replicated.create_topic("t", 1, 3).unwrap();
        (cluster, replicated)
    }

    /// Leader-acked produce to `t`/0.
    fn produce(rc: &ReplicatedCluster, set: MessageSet) -> Result<ProduceReceipt, KafkaError> {
        rc.produce_with_ack("t", 0, &set, AckMode::Leader)
    }

    fn payloads(rc: &ReplicatedCluster, from: u64) -> Vec<String> {
        let (messages, _) = rc.fetch_committed("t", 0, from, usize::MAX).unwrap();
        messages
            .iter()
            .map(|(_, m)| String::from_utf8_lossy(&m.payload).into_owned())
            .collect()
    }

    #[test]
    fn uncommitted_messages_invisible_until_replicated() {
        let (_c, rc) = replicated();
        produce(&rc, MessageSet::from_payloads(["a", "b"])).unwrap();
        assert_eq!(rc.high_watermark("t", 0).unwrap(), 0, "followers empty");
        assert!(payloads(&rc, 0).is_empty(), "nothing committed yet");
        rc.replicate().unwrap();
        assert!(rc.high_watermark("t", 0).unwrap() > 0);
        assert_eq!(payloads(&rc, 0), vec!["a", "b"]);
    }

    #[test]
    fn committed_fetch_stops_exactly_at_a_straddled_high_watermark() {
        let (c, rc) = replicated();
        produce(&rc, MessageSet::from_payloads(["a", "b"])).unwrap();
        rc.replicate().unwrap();
        // One follower misses the second produce and comes back stale, so
        // the high watermark sits mid-log and a whole-log fetch window
        // straddles it.
        let leader = rc.leader_of("t", 0).unwrap();
        let lagging = (0..3u16).find(|&b| b != leader).unwrap();
        rc.fail_broker(lagging).unwrap();
        produce(&rc, MessageSet::from_payloads(["c", "d"])).unwrap();
        rc.replicate().unwrap();
        rc.recover_broker(lagging);
        let hw = rc.high_watermark("t", 0).unwrap();
        let leader_log = c.brokers()[leader as usize].log("t", 0).unwrap();
        assert!(0 < hw && hw < leader_log.visible_end(), "window straddles hw");

        let (messages, next) = rc.fetch_committed("t", 0, 0, usize::MAX).unwrap();
        let frame = Message::new(&b"a"[..]).framed_len() as u64;
        assert_eq!(messages.iter().map(|(at, _)| *at).collect::<Vec<_>>(), vec![0, frame]);
        assert_eq!(next, hw, "next never passes the high watermark");
        // Resuming at the watermark serves nothing and stays put.
        assert_eq!(rc.fetch_committed("t", 0, next, usize::MAX).unwrap(), (Vec::new(), hw));
        // A consumer ahead of the watermark is clamped back to it.
        assert_eq!(rc.fetch_committed("t", 0, hw + frame, usize::MAX).unwrap().1, hw);
    }

    #[test]
    fn leader_failover_keeps_all_committed_messages() {
        let (_c, rc) = replicated();
        produce(&rc, MessageSet::from_payloads(["committed-1", "committed-2"])).unwrap();
        rc.replicate().unwrap();
        let old_leader = rc.leader_of("t", 0).unwrap();
        // An uncommitted write sneaks in right before the crash.
        produce(&rc, MessageSet::from_payloads(["uncommitted"])).unwrap();

        let elections = rc.fail_broker(old_leader).unwrap();
        assert_eq!(elections.len(), 1);
        let new_leader = rc.leader_of("t", 0).unwrap();
        assert_ne!(new_leader, old_leader);
        // Committed survives; the uncommitted tail is gone (it was never
        // visible to consumers in the first place).
        assert_eq!(payloads(&rc, 0), vec!["committed-1", "committed-2"]);
        // Writes continue on the new leader.
        produce(&rc, MessageSet::from_payloads(["after-failover"])).unwrap();
        rc.replicate().unwrap();
        assert_eq!(
            payloads(&rc, 0),
            vec!["committed-1", "committed-2", "after-failover"]
        );
    }

    #[test]
    fn produce_to_downed_leader_rejected() {
        let (_c, rc) = replicated();
        let leader = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(leader).unwrap();
        // After metadata refresh (leader_of), produces go to the new leader.
        produce(&rc, MessageSet::from_payloads(["x"])).unwrap();
        // But a client pinned to the old leader errors... we model that by
        // failing everyone: all down -> produce fails.
        let l2 = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(l2).unwrap();
        let l3 = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(l3).unwrap();
        assert!(produce(&rc, MessageSet::from_payloads(["y"])).is_err());
    }

    #[test]
    fn divergent_recovered_broker_is_reset_and_caught_up() {
        let (c, rc) = replicated();
        produce(&rc, MessageSet::from_payloads(["base"])).unwrap();
        rc.replicate().unwrap();
        let old_leader = rc.leader_of("t", 0).unwrap();
        // Uncommitted tail on the old leader, then crash.
        produce(&rc, MessageSet::from_payloads(["tail-1", "tail-2", "tail-3"])).unwrap();
        rc.fail_broker(old_leader).unwrap();
        produce(&rc, MessageSet::from_payloads(["new-era"])).unwrap();
        rc.replicate().unwrap();

        // Old leader returns with a longer-but-divergent log.
        rc.recover_broker(old_leader);
        rc.replicate().unwrap();
        // Its log now mirrors the new leader exactly.
        let new_leader = rc.leader_of("t", 0).unwrap();
        let a = c.brokers()[old_leader as usize].log("t", 0).unwrap().log_end();
        let b = c.brokers()[new_leader as usize].log("t", 0).unwrap().log_end();
        assert_eq!(a, b, "divergent replica reset to leader's history");
        assert_eq!(payloads(&rc, 0), vec!["base", "new-era"]);
    }

    #[test]
    fn equal_length_divergent_tail_detected_on_rejoin() {
        // Found by the chaos harness: the old leader's uncommitted tail
        // and the new leader's first write can have the *same* framed
        // length, so a length-only divergence check lets the stale
        // replica rejoin, count toward the high watermark, and win a
        // later longest-log election with bytes no consumer ever saw.
        let (c, rc) = replicated();
        produce(&rc, MessageSet::from_payloads(["base"])).unwrap();
        rc.replicate().unwrap();
        let old_leader = rc.leader_of("t", 0).unwrap();
        produce(&rc, MessageSet::from_payloads(["AAAA"])).unwrap();
        rc.fail_broker(old_leader).unwrap();
        // Same framed length, different bytes.
        produce(&rc, MessageSet::from_payloads(["BBBB"])).unwrap();
        rc.replicate().unwrap();
        let new_leader = rc.leader_of("t", 0).unwrap();
        let leader_end = c.brokers()[new_leader as usize].log("t", 0).unwrap().log_end();
        let stale_end = c.brokers()[old_leader as usize].log("t", 0).unwrap().log_end();
        assert_eq!(leader_end, stale_end, "precondition: equal lengths, divergent bytes");

        rc.recover_broker(old_leader);
        rc.replicate().unwrap();
        rc.verify_replica_identity("t", 0).unwrap();
        assert_eq!(payloads(&rc, 0), vec!["base", "BBBB"]);
    }

    #[test]
    fn stale_recovered_replica_is_never_elected_leader() {
        // Found by the ack-durability chaos scenario: crash a follower,
        // FullIsr-produce while it is down, restart it (stale), then
        // crash the leader before the stale replica catches up. Electing
        // by longest *live* log alone would hand leadership to a replica
        // missing FullIsr-acked bytes, whose new appends then overwrite
        // them. The ISR gate must keep the partition offline instead.
        let (_c, rc) = replicated();
        assert_eq!(rc.isr_of("t", 0).unwrap(), vec![0, 1, 2]);
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["m1"]), AckMode::FullIsr)
            .unwrap();

        let leader = rc.leader_of("t", 0).unwrap();
        let follower = rc.isr_of("t", 0).unwrap().into_iter().find(|&b| b != leader).unwrap();
        rc.fail_broker(follower).unwrap();
        assert!(!rc.isr_of("t", 0).unwrap().contains(&follower));
        // Acked by the two live ISR replicas while `follower` is down.
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["m2"]), AckMode::FullIsr)
            .unwrap();
        // The follower restarts stale: live again, but not in sync —
        // re-admission happens only through a catch-up, which we withhold.
        rc.recover_broker(follower);
        assert!(!rc.isr_of("t", 0).unwrap().contains(&follower));

        // Leader dies; the only other ISR member takes over.
        rc.fail_broker(leader).unwrap();
        let second = rc.leader_of("t", 0).unwrap();
        assert_ne!(second, leader);
        assert_ne!(second, follower, "stale replica must not win the election");
        // And when the second leader dies too, the stale replica still
        // must not be elected: the partition goes offline instead.
        rc.fail_broker(second).unwrap();
        assert_eq!(rc.leader_of("t", 0).unwrap(), second, "leadership frozen");
        assert!(rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["m3"]), AckMode::Leader)
            .is_err());

        // An ISR member returning brings the partition back with every
        // FullIsr-acked byte intact, and catch-up re-admits the laggard.
        rc.recover_broker(second);
        for _ in 0..4 {
            if rc.replicate().unwrap() == 0 {
                break;
            }
        }
        assert_eq!(payloads(&rc, 0), vec!["m1", "m2"]);
        assert!(rc.isr_of("t", 0).unwrap().contains(&follower));
        rc.verify_replica_identity("t", 0).unwrap();
    }

    #[test]
    fn high_watermark_monotonic_through_churn() {
        let (_c, rc) = replicated();
        let mut last_hw = 0;
        for round in 0..10u32 {
            produce(&rc, MessageSet::from_payloads([format!("m{round}")])).unwrap();
            rc.replicate().unwrap();
            let hw = rc.high_watermark("t", 0).unwrap();
            assert!(hw >= last_hw, "hw went backwards at round {round}");
            last_hw = hw;
        }
        // 10 committed messages, all visible, none duplicated.
        assert_eq!(payloads(&rc, 0).len(), 10);
    }

    #[test]
    fn full_isr_ack_is_committed_without_a_replicate_pump() {
        let (_c, rc) = replicated();
        let receipt = rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["durable"]), AckMode::FullIsr)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(0));
        // Committed the moment the call returns: the high watermark covers
        // it and a committed fetch serves it — no replicate() ran.
        assert!(rc.high_watermark("t", 0).unwrap() > 0);
        assert_eq!(payloads(&rc, 0), vec!["durable"]);
        rc.verify_replica_identity("t", 0).unwrap();
    }

    #[test]
    fn leader_ack_leaves_followers_behind_until_replicated() {
        let (_c, rc) = replicated();
        let receipt = rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["fast"]), AckMode::Leader)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(0));
        assert_eq!(rc.high_watermark("t", 0).unwrap(), 0, "not shipped");
        rc.replicate().unwrap();
        assert_eq!(payloads(&rc, 0), vec!["fast"]);
    }

    #[test]
    fn full_isr_acked_message_survives_leader_crash() {
        let (_c, rc) = replicated();
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["must-survive"]), AckMode::FullIsr)
            .unwrap();
        // Leader-acked tail that never ships...
        rc.produce_with_ack("t", 0, &MessageSet::from_payloads(["may-die"]), AckMode::Leader)
            .unwrap();
        let leader = rc.leader_of("t", 0).unwrap();
        rc.fail_broker(leader).unwrap();
        // ...the FullIsr message is still served after failover; the
        // unshipped Leader-acked tail is the (bounded) loss.
        assert_eq!(payloads(&rc, 0), vec!["must-survive"]);
    }

    #[test]
    fn none_ack_returns_no_offset_and_flush_ingest_is_idle_safe() {
        let (_c, rc) = replicated();
        let receipt = rc
            .produce_with_ack("t", 0, &MessageSet::from_payloads(["ff"]), AckMode::None)
            .unwrap();
        assert_eq!(receipt.base_offset, None);
        rc.flush_ingest();
        rc.replicate().unwrap();
        assert_eq!(payloads(&rc, 0), vec!["ff"]);
    }

    #[test]
    fn produce_with_ack_to_fully_downed_partition_errors() {
        let (_c, rc) = replicated();
        for _ in 0..3 {
            let l = rc.leader_of("t", 0).unwrap();
            rc.fail_broker(l).unwrap();
        }
        for ack in [AckMode::Leader, AckMode::FullIsr] {
            assert!(rc
                .produce_with_ack("t", 0, &MessageSet::from_payloads(["x"]), ack)
                .is_err());
        }
    }

    #[test]
    fn invalid_replication_factor_rejected() {
        let cluster =
            KafkaCluster::with_parts(2, LogConfig::default(), Arc::new(SimClock::new())).unwrap();
        let rc = ReplicatedCluster::new(cluster);
        assert!(rc.create_topic("t", 1, 3).is_err());
        assert!(rc.create_topic("t", 1, 0).is_err());
    }
}
