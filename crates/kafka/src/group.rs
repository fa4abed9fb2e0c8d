//! Consumer groups coordinated through ZooKeeper.
//!
//! "Each consumer group consists of one or more consumers that jointly
//! consume a set of subscribed topics, i.e., each message is delivered to
//! only one of the consumers within the group. ... the smallest unit of
//! parallelism for consumption is a partition within a topic. ... Kafka
//! uses Zookeeper for ... (1) detecting the addition and the removal of
//! brokers and consumers, (2) triggering a rebalance process in each
//! consumer when the above events happen, and (3) maintaining the
//! consumption relationship and keeping track of the consumed offset of
//! each partition" (§V.C).
//!
//! ZooKeeper layout (per group):
//!
//! ```text
//! /consumers/<group>/ids/<consumer-id>                ephemeral
//! /consumers/<group>/owners/<topic>/<partition>       ephemeral, data = owner id
//! /consumers/<group>/offsets/<topic>/<partition>      persistent, data = offset
//! ```

use crossbeam::channel::Receiver;
use std::sync::Arc;

use li_zk::{CreateMode, Session, WatchEvent, ZkError};

use crate::cluster::KafkaCluster;
use crate::consumer::SimpleConsumer;
use crate::message::{KafkaError, Message};

/// One member of a consumer group.
pub struct GroupConsumer {
    cluster: Arc<KafkaCluster>,
    session: Session,
    group: String,
    topic: String,
    consumer_id: String,
    /// Partitions currently owned, with their live consumers.
    owned: Vec<(u32, SimpleConsumer)>,
}

impl GroupConsumer {
    /// Joins `group` for `topic`, announcing membership. Call
    /// [`GroupConsumer::rebalance`] (on every member) after membership
    /// changes.
    pub fn join(
        cluster: Arc<KafkaCluster>,
        group: &str,
        topic: &str,
        consumer_id: &str,
    ) -> Result<Self, KafkaError> {
        let session = cluster.zookeeper().connect();
        session.create_recursive(
            &format!("/consumers/{group}/ids/{consumer_id}"),
            consumer_id.as_bytes().to_vec(),
            CreateMode::Ephemeral,
        )?;
        for dir in ["owners", "offsets"] {
            match session.create_recursive(
                &format!("/consumers/{group}/{dir}/{topic}"),
                Vec::new(),
                CreateMode::Persistent,
            ) {
                Ok(_) | Err(ZkError::NodeExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(GroupConsumer {
            cluster,
            session,
            group: group.to_string(),
            topic: topic.to_string(),
            consumer_id: consumer_id.to_string(),
            owned: Vec::new(),
        })
    }

    /// Currently-owned partitions.
    pub fn owned_partitions(&self) -> Vec<u32> {
        self.owned.iter().map(|(p, _)| *p).collect()
    }

    /// Watches group membership; the receiver fires once on the next
    /// join/leave/crash, after which members re-run [`GroupConsumer::rebalance`].
    pub fn watch_membership(&self) -> Result<Receiver<WatchEvent>, KafkaError> {
        Ok(self
            .session
            .watch_children(&format!("/consumers/{}/ids", self.group))?)
    }

    fn offset_path(&self, partition: u32) -> String {
        format!(
            "/consumers/{}/offsets/{}/{partition}",
            self.group, self.topic
        )
    }

    fn owner_path(&self, partition: u32) -> String {
        format!(
            "/consumers/{}/owners/{}/{partition}",
            self.group, self.topic
        )
    }

    fn committed_offset(&self, partition: u32) -> Result<u64, KafkaError> {
        match self.session.get(&self.offset_path(partition)) {
            Ok((data, _)) => Ok(String::from_utf8_lossy(&data).parse().unwrap_or(0)),
            Err(ZkError::NoNode(_)) => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    fn commit_offset(&self, partition: u32, offset: u64) -> Result<(), KafkaError> {
        let path = self.offset_path(partition);
        match self.session.set(&path, offset.to_string().into_bytes(), None) {
            Ok(_) => Ok(()),
            Err(ZkError::NoNode(_)) => {
                self.session
                    .create(&path, offset.to_string().into_bytes(), CreateMode::Persistent)?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The rebalance algorithm: "each consumer reads the current
    /// information in Zookeeper and selects a subset of partitions to
    /// consume from" — range assignment over the sorted member list.
    /// Returns the partitions now owned. Claims are guarded by ephemeral
    /// owner znodes, so two members can never own one partition; a member
    /// that hasn't released yet makes the claim fail, and the caller
    /// simply re-runs rebalance (the paper's retry loop).
    pub fn rebalance(&mut self) -> Result<Vec<u32>, KafkaError> {
        let members = {
            let mut m = self
                .session
                .children(&format!("/consumers/{}/ids", self.group))?;
            m.sort();
            m
        };
        let my_index = members
            .iter()
            .position(|m| m == &self.consumer_id)
            .ok_or_else(|| KafkaError::Group(format!("{} not in group", self.consumer_id)))?;
        let num_partitions = self.cluster.num_partitions(&self.topic)?;
        let per_member = num_partitions.div_ceil(members.len() as u32);
        let start = my_index as u32 * per_member;
        let end = (start + per_member).min(num_partitions);
        let target: Vec<u32> = (start..end).collect();

        // Release partitions no longer ours.
        let owned = std::mem::take(&mut self.owned);
        for (partition, consumer) in owned {
            if target.contains(&partition) {
                self.owned.push((partition, consumer));
            } else {
                let _ = self.session.delete(&self.owner_path(partition), None);
            }
        }

        // Claim new ones (skip those another member still owns).
        for partition in target {
            if self.owned.iter().any(|(p, _)| *p == partition) {
                continue;
            }
            match self.session.create(
                &self.owner_path(partition),
                self.consumer_id.as_bytes().to_vec(),
                CreateMode::Ephemeral,
            ) {
                Ok(_) => {
                    let mut consumer =
                        SimpleConsumer::new(self.cluster.clone(), &self.topic, partition)?;
                    consumer.seek(self.committed_offset(partition)?);
                    self.owned.push((partition, consumer));
                }
                Err(ZkError::NodeExists(_)) => continue, // not yet released
                Err(e) => return Err(e.into()),
            }
        }
        self.owned.sort_by_key(|(p, _)| *p);
        Ok(self.owned_partitions())
    }

    /// Polls every owned partition once, committing offsets to ZooKeeper
    /// afterwards (at-least-once on crash between processing and commit).
    /// Delivered payloads are zero-copy views of broker segment storage
    /// (see [`SimpleConsumer::poll`]).
    pub fn poll(&mut self) -> Result<Vec<(u32, Message)>, KafkaError> {
        let mut out = Vec::new();
        let mut commits = Vec::new();
        for (partition, consumer) in &mut self.owned {
            let before = consumer.position();
            let partition = *partition;
            out.extend(consumer.poll()?.into_iter().map(|(_, m)| (partition, m)));
            if consumer.position() != before {
                commits.push((partition, consumer.position()));
            }
        }
        for (partition, offset) in commits {
            self.commit_offset(partition, offset)?;
        }
        Ok(out)
    }

    /// Leaves the group gracefully (membership + owned partitions vanish).
    pub fn leave(self) -> Result<(), KafkaError> {
        for (partition, _) in &self.owned {
            let _ = self.session.delete(&self.owner_path(*partition), None);
        }
        self.session
            .delete(&format!("/consumers/{}/ids/{}", self.group, self.consumer_id), None)?;
        Ok(())
    }

    /// Simulates a crash: the coordination session expires, releasing the
    /// ephemeral membership and ownership nodes.
    pub fn crash(self, cluster: &KafkaCluster) {
        cluster.zookeeper().expire(self.session.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageSet;

    fn cluster_with(partitions: u32) -> Arc<KafkaCluster> {
        let cluster = KafkaCluster::new(2).unwrap();
        cluster.create_topic("t", partitions).unwrap();
        cluster
    }

    fn produce_to(cluster: &Arc<KafkaCluster>, partition: u32, payloads: &[String]) {
        let broker = cluster.broker_for("t", partition).unwrap();
        let set = MessageSet::from_payloads(payloads.to_vec());
        crate::testutil::produce(&broker, "t", partition, &set).unwrap();
    }

    fn settle(consumers: &mut [&mut GroupConsumer]) {
        // Two passes let release-then-claim settle across members.
        for _ in 0..2 {
            for consumer in consumers.iter_mut() {
                consumer.rebalance().unwrap();
            }
        }
    }

    #[test]
    fn assignment_is_disjoint_and_complete() {
        let cluster = cluster_with(8);
        let mut a = GroupConsumer::join(cluster.clone(), "g", "t", "a").unwrap();
        let mut b = GroupConsumer::join(cluster.clone(), "g", "t", "b").unwrap();
        let mut c = GroupConsumer::join(cluster.clone(), "g", "t", "c").unwrap();
        settle(&mut [&mut a, &mut b, &mut c]);
        let mut all: Vec<u32> = [&a, &b, &c]
            .iter()
            .flat_map(|g| g.owned_partitions())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<u32>>(), "disjoint and complete");
        assert!(!a.owned_partitions().is_empty());
        assert!(!c.owned_partitions().is_empty());
    }

    #[test]
    fn each_message_delivered_to_exactly_one_member() {
        let cluster = cluster_with(4);
        for p in 0..4 {
            produce_to(&cluster, p, &(0..10).map(|i| format!("p{p}-m{i}")).collect::<Vec<_>>());
        }
        let mut a = GroupConsumer::join(cluster.clone(), "g", "t", "a").unwrap();
        let mut b = GroupConsumer::join(cluster.clone(), "g", "t", "b").unwrap();
        settle(&mut [&mut a, &mut b]);
        let mut seen: Vec<String> = Vec::new();
        for consumer in [&mut a, &mut b] {
            for (_, message) in consumer.poll().unwrap() {
                seen.push(String::from_utf8_lossy(&message.payload).into_owned());
            }
        }
        seen.sort();
        assert_eq!(seen.len(), 40, "point-to-point: one copy total");
        seen.dedup();
        assert_eq!(seen.len(), 40, "no duplicates across the group");
    }

    #[test]
    fn independent_groups_each_get_full_copy() {
        let cluster = cluster_with(2);
        for p in 0..2 {
            produce_to(&cluster, p, &["m1".into(), "m2".into()]);
        }
        let mut g1 = GroupConsumer::join(cluster.clone(), "g1", "t", "a").unwrap();
        let mut g2 = GroupConsumer::join(cluster.clone(), "g2", "t", "a").unwrap();
        settle(&mut [&mut g1]);
        settle(&mut [&mut g2]);
        assert_eq!(g1.poll().unwrap().len(), 4);
        assert_eq!(g2.poll().unwrap().len(), 4, "pub/sub across groups");
    }

    #[test]
    fn member_join_triggers_rebalance_and_splits_load() {
        let cluster = cluster_with(8);
        let mut a = GroupConsumer::join(cluster.clone(), "g", "t", "a").unwrap();
        settle(&mut [&mut a]);
        assert_eq!(a.owned_partitions().len(), 8);
        let watch = a.watch_membership().unwrap();
        let mut b = GroupConsumer::join(cluster.clone(), "g", "t", "b").unwrap();
        assert!(watch.try_recv().is_ok(), "membership watch fired");
        settle(&mut [&mut a, &mut b]);
        assert_eq!(a.owned_partitions().len(), 4);
        assert_eq!(b.owned_partitions().len(), 4);
    }

    #[test]
    fn member_crash_releases_partitions_to_survivors() {
        let cluster = cluster_with(6);
        let mut a = GroupConsumer::join(cluster.clone(), "g", "t", "a").unwrap();
        let mut b = GroupConsumer::join(cluster.clone(), "g", "t", "b").unwrap();
        settle(&mut [&mut a, &mut b]);
        let watch = a.watch_membership().unwrap();
        b.crash(&cluster);
        assert!(watch.try_recv().is_ok());
        settle(&mut [&mut a]);
        assert_eq!(a.owned_partitions().len(), 6, "survivor owns everything");
    }

    #[test]
    fn offsets_survive_member_handoff() {
        let cluster = cluster_with(1);
        produce_to(&cluster, 0, &(0..5).map(|i| format!("m{i}")).collect::<Vec<_>>());
        let mut a = GroupConsumer::join(cluster.clone(), "g", "t", "a").unwrap();
        settle(&mut [&mut a]);
        assert_eq!(a.poll().unwrap().len(), 5);
        a.crash(&cluster);
        // New member resumes from the committed offset: nothing re-read.
        produce_to(&cluster, 0, &["m5".into()]);
        let mut b = GroupConsumer::join(cluster.clone(), "g", "t", "b").unwrap();
        settle(&mut [&mut b]);
        let batch = b.poll().unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].1.payload.as_ref(), b"m5");
    }

    #[test]
    fn overpartitioning_keeps_all_members_busy() {
        // "For better load balancing, we require many more partitions in a
        // topic than the consumers in each group."
        let cluster = cluster_with(16);
        let mut members: Vec<GroupConsumer> = (0..3)
            .map(|i| GroupConsumer::join(cluster.clone(), "g", "t", &format!("c{i}")).unwrap())
            .collect();
        for _ in 0..2 {
            for m in &mut members {
                m.rebalance().unwrap();
            }
        }
        for m in &members {
            let owned = m.owned_partitions().len();
            assert!((4..=6).contains(&owned), "{}: {owned}", m.consumer_id);
        }
    }
}
