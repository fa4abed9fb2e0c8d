//! Online partition migration for Espresso.
//!
//! The paper's expansion recipe — "we first bootstrap the new partition
//! from a snapshot taken from the original master partition, and then
//! apply any changes since the snapshot from the Databus Relay" — run as
//! a phased, never-blocking migration of a *single* partition to a node
//! that does not currently host it:
//!
//! 1. **Snapshot** — start the target's stream for the partition from the
//!    current master (`StorageNode::follow`): the donor's image, taken
//!    after reading the relay SCN the stream continues from.
//! 2. **Delta catch-up** — catch that stream up from the donor's relay
//!    until a round applies nothing.
//! 3. **Dual-write** — a no-op switch here: every master commit already
//!    ships semi-synchronously to the relay the target is subscribed to,
//!    so the replication stream *is* the dual write.
//! 4. **Verify + cutover** — drain once more, shadow-compare the full
//!    partition image on both sides, and only then let Helix install the
//!    target partition map ([`Controller::retarget_partition`]). The flip
//!    runs through the normal safety phases, and the target's final
//!    `Slave → Master` promotion drains the relay one last time *after*
//!    the donor has been demoted — no acked write can be left behind.
//!
//! [`Controller::retarget_partition`]: li_helix::Controller::retarget_partition

use std::collections::BTreeMap;
use std::sync::Arc;

use li_commons::migrate::{MigrationConfig, MigrationCoordinator, MigrationDriver, VerifyReport};
use li_commons::ring::{NodeId, PartitionId};
use li_helix::ReplicaState;
use li_sqlstore::{Op, RowKey};

use crate::cluster::EspressoCluster;
use crate::node::StorageNode;
use crate::schema::EspressoError;

/// A live partition migration: the [`MigrationDriver`] that a
/// [`MigrationCoordinator`] steps through the phases above. Create one
/// with [`EspressoCluster::begin_partition_migration`] (or run the whole
/// machine with [`EspressoCluster::migrate_partition`]).
pub struct EspressoPartitionMigration {
    cluster: Arc<EspressoCluster>,
    db: String,
    partition: u32,
    /// The master at begin time — the snapshot + relay source.
    source: NodeId,
    to: NodeId,
}

impl std::fmt::Debug for EspressoPartitionMigration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EspressoPartitionMigration")
            .field("db", &self.db)
            .field("partition", &self.partition)
            .field("source", &self.source)
            .field("to", &self.to)
            .finish()
    }
}

impl EspressoPartitionMigration {
    /// The target's stream for the partition from its master (the donor
    /// while no failover moves it), caught up. Returns windows applied, the
    /// master's image counting as one.
    fn follow(&self) -> Result<u64, String> {
        let dst = self.cluster.node(self.to).map_err(|e| e.to_string())?;
        self.cluster
            .follow_term(&dst, &self.db, self.partition)
            .map(|applied| applied as u64)
            .map_err(|e| e.to_string())
    }

    /// The partition's full image on `node`, keyed for order-insensitive
    /// comparison.
    fn partition_image(
        &self,
        node: &StorageNode,
    ) -> Result<BTreeMap<(String, RowKey), Op>, EspressoError> {
        let image = node.snapshot_partition(&self.db, self.partition)?;
        Ok(image
            .changes
            .into_iter()
            .map(|change| ((change.table, change.key), change.op))
            .collect())
    }
}

impl MigrationDriver for EspressoPartitionMigration {
    fn snapshot(&self) -> Result<u64, String> {
        // Idempotent: a retried step continues the stream an earlier
        // attempt started.
        self.follow()
    }

    fn delta_round(&self) -> Result<u64, String> {
        self.follow()
    }

    fn begin_dual_write(&self) -> Result<(), String> {
        // Every commit the master acks is already in its relay ("each
        // change is written to two places before being committed") and the
        // target holds a stream on it — the stream is the dual write, so
        // there is nothing to switch on.
        Ok(())
    }

    fn verify_round(&self) -> Result<VerifyReport, String> {
        self.follow()?;
        let node = |id| self.cluster.node(id).map_err(|e| e.to_string());
        let (src, dst) = (node(self.source)?, node(self.to)?);
        let source_rows = self.partition_image(&src).map_err(|e| e.to_string())?;
        let target_rows = self.partition_image(&dst).map_err(|e| e.to_string())?;
        let mut compared = 0;
        let mut mismatches = 0;
        for (key, row) in &source_rows {
            compared += 1;
            if target_rows.get(key) != Some(row) {
                mismatches += 1;
            }
        }
        for key in target_rows.keys() {
            if !source_rows.contains_key(key) {
                compared += 1;
                mismatches += 1;
            }
        }
        Ok(VerifyReport {
            compared,
            mismatches,
        })
    }

    fn cutover(&self) -> Result<(), String> {
        // Helix installs the target partition map and drives the flip
        // through the safety phases; the target's Slave→Master handler
        // drains its stream after the donor demoted, so the handoff is the
        // final delta round.
        self.cluster
            .controller()
            .retarget_partition(
                &self.db,
                PartitionId(self.partition),
                self.source,
                self.to,
            )
            .map_err(|e| e.to_string())?;
        // The other slaves' streams move to the new master's term now, not at
        // a caller's first pump; a pump that fails here is retried by the next.
        let _ = self.cluster.pump_replication();
        Ok(())
    }

    fn abort(&self) {
        // The donor stayed authoritative throughout: the target only stops
        // following, and a later stream's image replaces its copy.
        if let Ok(target) = self.cluster.node(self.to) {
            target.drop_stream(&self.db, self.partition);
        }
    }
}

impl EspressoCluster {
    /// Validates and opens a partition migration of `(db, partition)` to
    /// `to`, returning the driver to step with a [`MigrationCoordinator`].
    /// The donor is the current master; `to` must be a live node that does
    /// not already host the partition.
    pub fn begin_partition_migration(
        self: &Arc<Self>,
        db: &str,
        partition: u32,
        to: NodeId,
    ) -> Result<EspressoPartitionMigration, EspressoError> {
        let schema = self.schema(db)?;
        let num_partitions = schema.read().num_partitions;
        if partition >= num_partitions {
            return Err(EspressoError::Cluster(format!(
                "partition {partition} out of range ({db} has {num_partitions})"
            )));
        }
        self.node(to)?;
        let pid = PartitionId(partition);
        let view = self.controller().external_view(db)?;
        let source = view
            .master_of(pid)
            .ok_or(EspressoError::NoMaster { partition })?;
        if source == to {
            return Err(EspressoError::Cluster(format!(
                "{to} already masters {db}/p{partition}"
            )));
        }
        if view.state_of(pid, to) != ReplicaState::Offline {
            return Err(EspressoError::Cluster(format!(
                "{to} already hosts {db}/p{partition}"
            )));
        }
        if !self.controller().live_nodes()?.contains(&to) {
            return Err(EspressoError::Cluster(format!(
                "{to} is not live; cannot gain {db}/p{partition}"
            )));
        }
        Ok(EspressoPartitionMigration {
            cluster: Arc::clone(self),
            db: db.to_string(),
            partition,
            source,
            to,
        })
    }

    /// Runs a whole partition migration to completion under default
    /// [`MigrationConfig`], reporting phases and counters under the
    /// cluster registry's `migration.` scope.
    pub fn migrate_partition(
        self: &Arc<Self>,
        db: &str,
        partition: u32,
        to: NodeId,
    ) -> Result<(), EspressoError> {
        let driver = self.begin_partition_migration(db, partition, to)?;
        MigrationCoordinator::new(self.metrics(), MigrationConfig::default())
            .run(&driver, 64)
            .map_err(|e| EspressoError::Cluster(format!("migration: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_commons::migrate::MigrationPhase;
    use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
    use crate::schema::{DatabaseSchema, TableSchema};

    const DB: &str = "Music";

    fn cluster_with_db() -> Arc<EspressoCluster> {
        let schema = DatabaseSchema::new(DB, 8, 2)
            .with_table(
                TableSchema::new("Album", ["artist", "album"]),
                RecordSchema::new(
                    "Album",
                    1,
                    vec![Field::new("year", FieldType::Long)],
                )
                .unwrap(),
            )
            .unwrap();
        let cluster = EspressoCluster::new(3).unwrap();
        cluster.create_database(schema).unwrap();
        cluster
    }

    fn album(year: i64) -> Record {
        Record::new().with("year", Value::Long(year))
    }

    /// Resource ids `artist<i>` that land in the same partition as
    /// `artist0`, plus that partition.
    fn same_partition_artists(cluster: &EspressoCluster, want: usize) -> (u32, Vec<String>) {
        let schema = cluster.schema(DB).unwrap();
        let partition = schema.read().partition_of("artist0");
        let mut artists = vec!["artist0".to_string()];
        let mut i = 1;
        while artists.len() < want {
            let candidate = format!("artist{i}");
            if schema.read().partition_of(&candidate) == partition {
                artists.push(candidate);
            }
            i += 1;
        }
        (partition, artists)
    }

    #[test]
    fn phased_migration_moves_mastership_without_losing_writes() {
        let cluster = cluster_with_db();
        let (partition, artists) = same_partition_artists(&cluster, 3);
        let pid = PartitionId(partition);
        let view = cluster.controller().external_view(DB).unwrap();
        let source = view.master_of(pid).unwrap();
        let target = (0..3)
            .map(NodeId)
            .find(|&n| view.state_of(pid, n) == ReplicaState::Offline)
            .unwrap();

        // A row that exists before the snapshot.
        cluster
            .put(DB, "Album", RowKey::new([artists[0].as_str(), "a"]), &album(2000))
            .unwrap();

        let driver = cluster
            .begin_partition_migration(DB, partition, target)
            .unwrap();
        assert_eq!(driver.source, source);
        let coordinator =
            MigrationCoordinator::new(cluster.metrics(), MigrationConfig::default());

        // Snapshot copies the pre-existing row.
        assert_eq!(
            coordinator.step(&driver).unwrap(),
            MigrationPhase::DeltaCatchup
        );

        // A write landing after the snapshot must arrive via the binlog
        // delta, not the copy.
        cluster
            .put(DB, "Album", RowKey::new([artists[1].as_str(), "b"]), &album(2010))
            .unwrap();

        let mut writes_during_dual = false;
        for _ in 0..64 {
            let phase = coordinator.step(&driver).unwrap();
            if phase == MigrationPhase::DualWrite && !writes_during_dual {
                // Keep traffic flowing while shadow verification runs.
                cluster
                    .put(DB, "Album", RowKey::new([artists[2].as_str(), "c"]), &album(2020))
                    .unwrap();
                writes_during_dual = true;
            }
            if phase == MigrationPhase::Done {
                break;
            }
        }
        assert_eq!(coordinator.phase(), MigrationPhase::Done);

        // Mastership flipped to the target; the donor no longer hosts.
        let after = cluster.controller().external_view(DB).unwrap();
        assert_eq!(after.master_of(pid), Some(target));
        assert_eq!(after.state_of(pid, source), ReplicaState::Offline);
        assert!(cluster.node(target).unwrap().is_master(DB, partition));
        assert!(!cluster.node(source).unwrap().is_master(DB, partition));

        // Every acked write — pre-snapshot, mid-delta, and during
        // dual-write — is served by the new master through the router.
        for (artist, sub, year) in [
            (artists[0].as_str(), "a", 2000i64),
            (artists[1].as_str(), "b", 2010),
            (artists[2].as_str(), "c", 2020),
        ] {
            let (record, _) = cluster
                .get(DB, "Album", &RowKey::new([artist, sub]))
                .unwrap()
                .unwrap_or_else(|| panic!("{artist}/{sub} lost in migration"));
            assert_eq!(record.get("year"), Some(&Value::Long(year)));
        }

        // And the partition keeps taking writes, now mastered by the
        // target.
        cluster
            .put(DB, "Album", RowKey::new([artists[0].as_str(), "d"]), &album(2030))
            .unwrap();
        assert!(cluster
            .node(target)
            .unwrap()
            .get_document(DB, "Album", &RowKey::new([artists[0].as_str(), "d"]))
            .unwrap()
            .is_some());
    }

    #[test]
    fn the_other_replica_follows_the_new_master_from_the_cutover() {
        let cluster = cluster_with_db();
        let (partition, artists) = same_partition_artists(&cluster, 1);
        let key = RowKey::new([artists[0].as_str(), "x"]);
        cluster.put(DB, "Album", key.clone(), &album(1999)).unwrap();
        let view = cluster.controller().external_view(DB).unwrap();
        let target = (0..3)
            .map(NodeId)
            .find(|&n| view.state_of(PartitionId(partition), n) == ReplicaState::Offline)
            .unwrap();
        cluster.migrate_partition(DB, partition, target).unwrap();
        // No pump since the cutover: the other replica is electable only if
        // its stream already follows the new master's term.
        cluster.crash_node(target).unwrap();
        let (record, _) = cluster.get(DB, "Album", &key).unwrap().expect("acked row lost");
        assert_eq!(record.get("year"), Some(&Value::Long(1999)));
    }

    #[test]
    fn begin_rejects_bad_targets() {
        let cluster = cluster_with_db();
        let (partition, _) = same_partition_artists(&cluster, 1);
        let pid = PartitionId(partition);
        let view = cluster.controller().external_view(DB).unwrap();
        let master = view.master_of(pid).unwrap();
        let slave = view.slaves_of(pid)[0];
        assert!(cluster.begin_partition_migration(DB, partition, master).is_err());
        assert!(cluster.begin_partition_migration(DB, partition, slave).is_err());
        assert!(cluster.begin_partition_migration(DB, 999, NodeId(0)).is_err());
        assert!(cluster
            .begin_partition_migration(DB, partition, NodeId(42))
            .is_err());
    }

    #[test]
    fn whole_machine_runs_via_migrate_partition() {
        let cluster = cluster_with_db();
        let (partition, artists) = same_partition_artists(&cluster, 1);
        let pid = PartitionId(partition);
        cluster
            .put(DB, "Album", RowKey::new([artists[0].as_str(), "x"]), &album(1999))
            .unwrap();
        let view = cluster.controller().external_view(DB).unwrap();
        let target = (0..3)
            .map(NodeId)
            .find(|&n| view.state_of(pid, n) == ReplicaState::Offline)
            .unwrap();
        cluster.migrate_partition(DB, partition, target).unwrap();
        assert_eq!(
            cluster.controller().external_view(DB).unwrap().master_of(pid),
            Some(target)
        );
        assert!(cluster
            .get(DB, "Album", &RowKey::new([artists[0].as_str(), "x"]))
            .unwrap()
            .is_some());
        let snapshot = cluster.metrics().snapshot();
        assert_eq!(snapshot.counter("migration.cutover_flips"), Some(1));
        assert_eq!(snapshot.counter("migration.cutover_refusals"), Some(0));
    }
}
