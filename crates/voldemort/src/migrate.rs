//! Online partition migration for Voldemort (ROADMAP item 4).
//!
//! [`PartitionMigration`] is the Voldemort half of the phased coordinator
//! in [`li_commons::migrate`]: it moves one logical partition from its
//! current owner (the *donor*) to a *target* node while the cluster keeps
//! serving reads and writes.
//!
//! ```text
//!   begin ──► Snapshot          bulk force_put of the partition's image
//!               │               (live traffic still routes to the donor;
//!               ▼                every acked write is journaled)
//!             DeltaCatchup      journal drained round by round
//!               │
//!               ▼
//!             DualWrite         acked writes mirror synchronously to the
//!               │               target; verify rounds drain the journal,
//!               │               repair source→target, and compare images
//!               ▼
//!             cutover           migration lock → final drain → router
//!                               lock → reassign → epoch bump
//! ```
//!
//! The key correctness idea: the *placement diff*. A cutover changes each
//! key's preference list from its `source_ring` form to its `target_ring`
//! form; the set of nodes in the target list but not the source list
//! ([`ActiveMigration::moved_targets`]) is exactly the set that must hold
//! the key's image before the flip. Snapshot, journal replay, dual-write,
//! and shadow verification all quantify over that diff, so even keys whose
//! replica walk shifts *indirectly* (the ring walk skips partitions of
//! already-chosen nodes) are copied and verified.
//!
//! Shadow verification is also self-healing in the safe direction: each
//! round force-puts the resolved *source* image onto the target (versioned
//! stores make that idempotent) before comparing, so source-ahead lag —
//! hint replays, read repair the journal never saw — converges instead of
//! blocking cutover. Only the unsafe direction counts as a mismatch: the
//! target serving versions the source cannot explain is corruption, and
//! the coordinator refuses the flip.

use bytes::Bytes;
use li_commons::clock::{resolve_siblings, VectorClock, Versioned};
use li_commons::migrate::{MigrationDriver, VerifyReport};
use li_commons::ring::{HashRing, NodeId, PartitionId};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::cluster::VoldemortCluster;
use crate::error::VoldemortError;
use crate::server::VoldemortNode;
use crate::store::StoreDef;

/// Virtual node id the migration admin service occupies on the simulated
/// network: snapshot/verify traffic originates here, so crashing or
/// partitioning a node makes the corresponding migration phase fail the
/// same way a real admin RPC would.
pub const ADMIN_NODE: NodeId = NodeId(u16::MAX - 1);

/// An acked client write captured for delta replay. The client journals
/// it *after* the quorum acked (so the journal is exactly the set of
/// acked writes, including hint-acked ones); replay is `force_put` /
/// clock-checked delete, hence idempotent.
#[derive(Debug, Clone)]
pub(crate) enum JournaledWrite {
    /// An acked put: the committed versioned value.
    Put {
        store: String,
        key: Bytes,
        value: Versioned<Bytes>,
    },
    /// An acked delete at a version.
    Delete {
        store: String,
        key: Bytes,
        clock: VectorClock,
    },
}

impl JournaledWrite {
    /// The store and key the write touched.
    pub(crate) fn addr(&self) -> (&str, &[u8]) {
        match self {
            JournaledWrite::Put { store, key, .. } | JournaledWrite::Delete { store, key, .. } => {
                (store, key)
            }
        }
    }

    /// Lands the write on `node`: the one way a captured write reaches a
    /// gaining node, for the dual-write mirror and for journal replay
    /// alike. A put is forced (the version was already acked); a delete
    /// stays clock-checked, so it never removes a newer version.
    pub(crate) fn apply(&self, node: &VoldemortNode) -> Result<(), VoldemortError> {
        match self {
            JournaledWrite::Put { store, key, value } => node.force_put(store, key, value.clone()),
            JournaledWrite::Delete { store, key, clock } => {
                node.delete(store, key, clock).map(|_| ())
            }
        }
    }
}

/// Routing and capture state for one in-flight partition move. Lives in
/// the cluster behind `RwLock<Option<Arc<..>>>`; the client's ack hook
/// takes the read side, cutover takes the write side (so the final journal
/// drain cannot race an in-flight append).
///
/// Lock-ordering rule (vs the PR 7 commit points): the migration lock is
/// acquired *before* the router lock, everywhere. The ack-capture path
/// never needs the router at all — it routes against the `source_ring`
/// snapshot taken at begin, which is correct because partition membership
/// of keys is static during the move (only ownership flips, at cutover,
/// under both locks).
pub(crate) struct ActiveMigration {
    pub(crate) partition: PartitionId,
    pub(crate) donor: NodeId,
    pub(crate) to: NodeId,
    /// The ring as of `begin` — what routing serves during the move.
    pub(crate) source_ring: HashRing,
    /// The ring with the reassignment applied — what routing will serve
    /// after the flip.
    pub(crate) target_ring: HashRing,
    dual_write: AtomicBool,
    pub(crate) journal: Mutex<Vec<JournaledWrite>>,
}

impl ActiveMigration {
    pub(crate) fn new(
        partition: PartitionId,
        donor: NodeId,
        to: NodeId,
        source_ring: HashRing,
        target_ring: HashRing,
    ) -> Self {
        ActiveMigration {
            partition,
            donor,
            to,
            source_ring,
            target_ring,
            dual_write: AtomicBool::new(false),
            journal: Mutex::new(Vec::new()),
        }
    }

    /// Preference list a key routes to during the move.
    pub(crate) fn source_prefs(&self, key: &[u8], def: &StoreDef) -> Vec<NodeId> {
        self.source_ring
            .preference_list_zoned(key, def.replication, def.zones_required)
            .unwrap_or_default()
    }

    /// Nodes that gain this key at cutover: in the target-ring preference
    /// list but not the source-ring one. Empty for keys the flip does not
    /// affect — the common case, which keeps the ack hook cheap.
    pub(crate) fn moved_targets(&self, key: &[u8], def: &StoreDef) -> Vec<NodeId> {
        let src = self.source_prefs(key, def);
        let Ok(dst) = self
            .target_ring
            .preference_list_zoned(key, def.replication, def.zones_required)
        else {
            return Vec::new();
        };
        dst.into_iter().filter(|n| !src.contains(n)).collect()
    }

    /// Whether acked writes currently mirror synchronously to the gaining
    /// nodes.
    pub(crate) fn dual_write_active(&self) -> bool {
        self.dual_write.load(Ordering::Acquire)
    }

    pub(crate) fn enable_dual_write(&self) {
        self.dual_write.store(true, Ordering::Release);
    }
}

/// Resolved version-set equality: same (clock, value) multisets after
/// sibling resolution. Used by the shadow comparator (verify rounds and
/// the client's inline shadow reads).
pub(crate) fn image_equal(a: &[Versioned<Bytes>], b: &[Versioned<Bytes>]) -> bool {
    fn keyed(vs: &[Versioned<Bytes>]) -> Vec<(Vec<u8>, Bytes)> {
        let mut out: Vec<(Vec<u8>, Bytes)> = vs
            .iter()
            .map(|v| {
                let mut clock = Vec::new();
                v.clock.encode(&mut clock);
                (clock, v.value.clone())
            })
            .collect();
        out.sort();
        out
    }
    keyed(a) == keyed(b)
}

/// The Voldemort [`MigrationDriver`]: one partition move, step-driven.
/// Obtained from [`VoldemortCluster::begin_partition_migration`]; feed it
/// to a [`li_commons::migrate::MigrationCoordinator`] (or let
/// [`VoldemortCluster::migrate_partition`] run the whole thing).
pub struct PartitionMigration {
    cluster: Arc<VoldemortCluster>,
    state: Arc<ActiveMigration>,
}

impl std::fmt::Debug for PartitionMigration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionMigration")
            .field("partition", &self.state.partition)
            .field("donor", &self.state.donor)
            .field("to", &self.state.to)
            .field("dual_write", &self.state.dual_write_active())
            .finish()
    }
}

impl PartitionMigration {
    pub(crate) fn new(cluster: Arc<VoldemortCluster>, state: Arc<ActiveMigration>) -> Self {
        PartitionMigration { cluster, state }
    }

    /// The moving partition.
    pub fn partition(&self) -> PartitionId {
        self.state.partition
    }

    /// The node losing the partition.
    pub fn donor(&self) -> NodeId {
        self.state.donor
    }

    /// The node gaining the partition.
    pub fn target(&self) -> NodeId {
        self.state.to
    }

    /// Acked writes journaled and not yet replayed to the target.
    pub fn journal_len(&self) -> usize {
        self.state.journal.lock().len()
    }

    /// Admin reachability gate: each phase round first checks it can talk
    /// to both ends, so a crash or partition fails the round (retryable)
    /// instead of silently operating on half a cluster.
    fn reach(&self, node: NodeId) -> Result<(), VoldemortError> {
        self.cluster
            .network()
            .deliver(ADMIN_NODE, node)
            .map(|_| ())
            .map_err(|e| VoldemortError::Net(node, e))
    }

    /// All keys of `store` held anywhere in the cluster, sorted (the union
    /// matters: replica-walk shifts can move keys whose master partition is
    /// not the moving one).
    fn all_keys(&self, store: &str) -> Vec<Bytes> {
        let mut keys: BTreeSet<Bytes> = BTreeSet::new();
        for id in self.cluster.node_ids() {
            let Ok(node) = self.cluster.node(id) else {
                continue;
            };
            let Ok(engine) = node.engine(store) else {
                continue;
            };
            for (key, _) in engine.entries() {
                keys.insert(key);
            }
        }
        keys.into_iter().collect()
    }

    /// The resolved source image of `key`: every version held by its
    /// current preference-list replicas, sibling-resolved.
    fn source_image(&self, def: &StoreDef, key: &[u8]) -> Vec<Versioned<Bytes>> {
        let mut merged: Vec<Versioned<Bytes>> = Vec::new();
        for id in self.state.source_prefs(key, def) {
            let Ok(node) = self.cluster.node(id) else {
                continue;
            };
            let Ok(engine) = node.engine(&def.name) else {
                continue;
            };
            let Ok(versions) = engine.get(key) else {
                continue;
            };
            for v in versions {
                resolve_siblings(&mut merged, v);
            }
        }
        merged
    }

    fn snapshot_impl(&self) -> Result<u64, VoldemortError> {
        self.reach(self.state.donor)?;
        self.reach(self.state.to)?;
        let mut copied = 0u64;
        for def in self.cluster.rw_store_defs() {
            for key in self.all_keys(&def.name) {
                let gaining = self.state.moved_targets(&key, &def);
                if gaining.is_empty() {
                    continue;
                }
                let image = self.source_image(&def, &key);
                for &t in &gaining {
                    let target = self.cluster.node(t)?;
                    for v in &image {
                        target.force_put(&def.name, &key, v.clone())?;
                        copied += 1;
                    }
                }
            }
        }
        Ok(copied)
    }

    fn delta_round_impl(&self) -> Result<u64, VoldemortError> {
        self.reach(self.state.to)?;
        self.cluster.migration_drain_journal(&self.state)
    }

    fn verify_round_impl(&self) -> Result<VerifyReport, VoldemortError> {
        self.reach(self.state.donor)?;
        self.reach(self.state.to)?;
        // Drain first so the comparison covers everything acked so far.
        self.cluster.migration_drain_journal(&self.state)?;
        let mut compared = 0u64;
        let mut mismatches = 0u64;
        for def in self.cluster.rw_store_defs() {
            for key in self.all_keys(&def.name) {
                let gaining = self.state.moved_targets(&key, &def);
                if gaining.is_empty() {
                    continue;
                }
                let image = self.source_image(&def, &key);
                for &t in &gaining {
                    compared += 1;
                    let Ok(target) = self.cluster.node(t) else {
                        mismatches += 1;
                        continue;
                    };
                    // Safe-direction repair: source-ahead versions (hint
                    // replays, read repair the journal never saw) converge
                    // here instead of blocking the cutover.
                    for v in &image {
                        target.force_put(&def.name, &key, v.clone())?;
                    }
                    let mut target_image: Vec<Versioned<Bytes>> = Vec::new();
                    for v in target.engine(&def.name)?.get(&key)? {
                        resolve_siblings(&mut target_image, v);
                    }
                    // Unsafe direction: the target serving versions the
                    // source cannot explain is corruption, not lag.
                    if !image_equal(&image, &target_image) {
                        mismatches += 1;
                    }
                }
            }
        }
        Ok(VerifyReport {
            compared,
            mismatches,
        })
    }
}

impl MigrationDriver for PartitionMigration {
    fn snapshot(&self) -> Result<u64, String> {
        self.snapshot_impl().map_err(|e| e.to_string())
    }

    fn delta_round(&self) -> Result<u64, String> {
        self.delta_round_impl().map_err(|e| e.to_string())
    }

    fn begin_dual_write(&self) -> Result<(), String> {
        self.state.enable_dual_write();
        Ok(())
    }

    fn verify_round(&self) -> Result<VerifyReport, String> {
        self.verify_round_impl().map_err(|e| e.to_string())
    }

    fn cutover(&self) -> Result<(), String> {
        self.cluster
            .migration_cutover(&self.state)
            .map_err(|e| e.to_string())
    }

    fn abort(&self) {
        self.cluster.clear_migration();
    }
}
