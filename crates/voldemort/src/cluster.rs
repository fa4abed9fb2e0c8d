//! The cluster runtime: nodes, topology, failure detection, admin service.

use bytes::Bytes;
use li_commons::clock::{resolve_siblings, Occurred, Versioned};
use li_commons::exec::FanOutPool;
use li_commons::failure::{FailureDetector, FailureDetectorConfig};
use li_commons::fnv::fnv1a;
use li_commons::metrics::{Counter, MetricsRegistry};
use li_commons::migrate::{MigrationConfig, MigrationCoordinator};
use li_commons::ring::{HashRing, NodeId, PartitionId, ZoneId};
use li_commons::sim::{Clock, RealClock, SimNetwork};
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::client::StoreClient;
use crate::engine::{BdbLikeEngine, MemoryEngine, StorageEngine};
use crate::error::VoldemortError;
use crate::migrate::{ActiveMigration, JournaledWrite, PartitionMigration};
use crate::readonly::{ReadOnlyEngine, ReadOnlyStore};
use crate::routing::Router;
use crate::server::{node_scope, VoldemortNode};
use crate::store::{EngineKind, StoreDef};

/// A whole Voldemort cluster, in process. Nodes are real state machines;
/// the network between the coordinator and nodes is the injectable
/// [`SimNetwork`], so crashes, partitions, and drops exercise the same code
/// paths they would in production.
pub struct VoldemortCluster {
    nodes: RwLock<HashMap<NodeId, Arc<VoldemortNode>>>,
    router: RwLock<Router>,
    stores: RwLock<HashMap<String, StoreDef>>,
    network: SimNetwork,
    detector: FailureDetector,
    clock: Arc<dyn Clock>,
    metrics: Arc<MetricsRegistry>,
    /// `voldemort.hints.dropped_obsolete`: hints `deliver_hints` dropped
    /// because a replica already held a version at least as new.
    hints_dropped_obsolete: Counter,
    /// The shared fan-out pool, built on first use.
    fan_out_pool: OnceLock<FanOutPool>,
    /// The (at most one) in-flight partition migration. The client ack
    /// hook (`on_acked`) takes the read side per acked write; cutover
    /// takes the write side, so the final journal drain cannot race an
    /// in-flight append.
    /// Lock order: this lock before `router`, everywhere.
    migration: RwLock<Option<Arc<ActiveMigration>>>,
    /// Bumped on every routing change (cutover flip, rebalance). Clients
    /// capture it before routing a write and re-check after the ack: if it
    /// moved, the preference list may have flipped mid-flight and the
    /// committed version is pushed to any newly-gained replica.
    topology_epoch: AtomicU64,
}

impl std::fmt::Debug for VoldemortCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VoldemortCluster")
            .field("nodes", &self.nodes.read().len())
            .field("stores", &self.stores.read().keys().collect::<Vec<_>>())
            .finish()
    }
}

impl VoldemortCluster {
    /// Builds a single-zone cluster of `node_count` nodes over
    /// `num_partitions` logical partitions, with a reliable network and the
    /// real clock.
    pub fn new(num_partitions: u32, node_count: u16) -> Result<Arc<Self>, VoldemortError> {
        let nodes: Vec<NodeId> = (0..node_count).map(NodeId).collect();
        let ring = HashRing::balanced(num_partitions, &nodes)?;
        Self::with_parts(ring, SimNetwork::reliable(), Arc::new(RealClock::new()))
    }

    /// Builds a two-zone cluster (the paper's two-datacenter deployments):
    /// even nodes in zone 0, odd nodes in zone 1.
    pub fn new_two_zone(
        num_partitions: u32,
        node_count: u16,
    ) -> Result<Arc<Self>, VoldemortError> {
        let layout: Vec<(NodeId, ZoneId)> = (0..node_count)
            .map(|i| (NodeId(i), ZoneId((i % 2) as u8)))
            .collect();
        let ring = HashRing::zoned(num_partitions, &layout)?;
        Self::with_parts(ring, SimNetwork::reliable(), Arc::new(RealClock::new()))
    }

    /// Fully-injected constructor for failure testing.
    pub fn with_parts(
        ring: HashRing,
        network: SimNetwork,
        clock: Arc<dyn Clock>,
    ) -> Result<Arc<Self>, VoldemortError> {
        Self::with_metrics(ring, network, clock, &MetricsRegistry::new())
    }

    /// Fully-injected constructor that reports into a shared metrics
    /// registry (names under `voldemort.`).
    pub fn with_metrics(
        ring: HashRing,
        network: SimNetwork,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Arc<Self>, VoldemortError> {
        let metrics = Arc::clone(registry);
        let nodes = ring
            .nodes()
            .into_iter()
            .map(|id| (id, Arc::new(VoldemortNode::with_metrics(id, &metrics))))
            .collect();
        Ok(Arc::new(VoldemortCluster {
            nodes: RwLock::new(nodes),
            router: RwLock::new(Router::new(ring)),
            stores: RwLock::new(HashMap::new()),
            network,
            detector: FailureDetector::new(FailureDetectorConfig::default(), clock.clone()),
            clock,
            hints_dropped_obsolete: metrics.scope("voldemort.hints").counter("dropped_obsolete"),
            metrics,
            fan_out_pool: OnceLock::new(),
            migration: RwLock::new(None),
            topology_epoch: AtomicU64::new(0),
        }))
    }

    /// The metrics registry every node and client of this cluster reports
    /// into (names under `voldemort.`).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The injectable network (crash/partition/drop controls).
    pub fn network(&self) -> &SimNetwork {
        &self.network
    }

    /// The failure detector shared by all clients of this cluster.
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// The cluster clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The shared worker pool behind every client's parallel quorum
    /// fan-out. Created lazily on first use, so clusters that only ever
    /// run the deterministic inline mode spawn no threads.
    pub fn fan_out_pool(&self) -> &FanOutPool {
        self.fan_out_pool.get_or_init(|| FanOutPool::new(8))
    }

    /// A node handle.
    pub fn node(&self, id: NodeId) -> Result<Arc<VoldemortNode>, VoldemortError> {
        self.nodes
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| VoldemortError::Routing(format!("no node {id}")))
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Snapshot of the current topology.
    pub fn ring(&self) -> HashRing {
        self.router.read().ring().clone()
    }

    pub(crate) fn route(
        &self,
        store: &StoreDef,
        key: &[u8],
    ) -> Result<Vec<NodeId>, VoldemortError> {
        self.router.read().route(store, key)
    }

    /// A fresh engine for the read-write store `def` on `node`; `None` for
    /// the read-only kind, which is opened over a directory instead. The
    /// log-structured engine reports under `voldemort.node<id>.<store>.`.
    fn read_write_engine(&self, node: NodeId, def: &StoreDef) -> Option<Arc<dyn StorageEngine>> {
        match def.engine {
            EngineKind::Memory => Some(Arc::new(MemoryEngine::new())),
            EngineKind::BdbLike => {
                let scope = node_scope(&self.metrics, node).scope(&def.name);
                Some(Arc::new(BdbLikeEngine::with_metrics(&scope)))
            }
            EngineKind::ReadOnly => None,
        }
    }

    /// Creates a store on every node (admin service "add store" — no
    /// downtime, existing stores unaffected). Read-write engines only; use
    /// [`VoldemortCluster::add_read_only_store`] for the pipeline-fed kind.
    pub fn add_store(&self, def: StoreDef) -> Result<(), VoldemortError> {
        def.validate().map_err(VoldemortError::Admin)?;
        if def.engine == EngineKind::ReadOnly {
            return Err(VoldemortError::Admin(
                "read-only stores need a directory; use add_read_only_store".into(),
            ));
        }
        let mut stores = self.stores.write();
        if stores.contains_key(&def.name) {
            return Err(VoldemortError::DuplicateStore(def.name));
        }
        for node in self.nodes.read().values() {
            let engine = self
                .read_write_engine(node.id(), &def)
                .expect("read-only stores rejected above");
            node.add_store(&def.name, engine)?;
        }
        stores.insert(def.name.clone(), def);
        Ok(())
    }

    /// Creates a read-only store across the cluster, rooted at
    /// `dir/node-<id>/<store>` on each node. Returns the per-node store
    /// handles for driving the pull/swap pipeline.
    pub fn add_read_only_store(
        &self,
        def: StoreDef,
        dir: &Path,
    ) -> Result<Vec<Arc<ReadOnlyStore>>, VoldemortError> {
        def.validate().map_err(VoldemortError::Admin)?;
        let mut stores = self.stores.write();
        if stores.contains_key(&def.name) {
            return Err(VoldemortError::DuplicateStore(def.name));
        }
        let ring = self.router.read().ring().clone();
        let mut handles = Vec::new();
        for id in self.node_ids() {
            let store = Arc::new(ReadOnlyStore::open(
                dir.join(format!("node-{}", id.0)).join(&def.name),
                id,
                ring.clone(),
                def.replication,
            )?);
            self.node(id)?
                .add_store(&def.name, Arc::new(ReadOnlyEngine::new(store.clone())))?;
            handles.push(store);
        }
        stores.insert(def.name.clone(), def);
        Ok(handles)
    }

    /// Deletes a store from every node (admin "delete store").
    pub fn delete_store(&self, name: &str) -> Result<(), VoldemortError> {
        let mut stores = self.stores.write();
        stores
            .remove(name)
            .ok_or_else(|| VoldemortError::UnknownStore(name.into()))?;
        for node in self.nodes.read().values() {
            node.remove_store(name)?;
        }
        Ok(())
    }

    /// The definition of `store`.
    pub fn store_def(&self, store: &str) -> Result<StoreDef, VoldemortError> {
        self.stores
            .read()
            .get(store)
            .cloned()
            .ok_or_else(|| VoldemortError::UnknownStore(store.into()))
    }

    /// Opens a client for `store`.
    pub fn client(self: &Arc<Self>, store: &str) -> Result<StoreClient, VoldemortError> {
        let def = self.store_def(store)?;
        Ok(StoreClient::new(self.clone(), def))
    }

    /// Runs one round of asynchronous recovery probes: banned nodes that
    /// are due get pinged over the network; reachable ones rejoin the
    /// available pool. "Once marked down the node is considered online only
    /// when an asynchronous thread is able to contact it again."
    pub fn run_failure_probes(&self) {
        for node in self.detector.nodes_due_for_probe() {
            let reachable = self.network.deliver(StoreClient::CLIENT_NODE, node).is_ok()
                && self.nodes.read().get(&node).is_some_and(|n| n.ping());
            self.detector.probe_result(node, reachable);
        }
    }

    /// Replays hinted-handoff hints whose targets are reachable again.
    /// Returns the number of replica force-puts performed.
    ///
    /// Hints are routed via the ring *as it is now*, not the ring at park
    /// time: a partition move can cut over while hints are pending, and
    /// replaying to the old preference-list owner would strand the write
    /// on a node no longer serving the key. The hint's original target is
    /// tried first when it is still a replica; every other current replica
    /// missing the version also gets it.
    ///
    /// A hint can race a concurrent client put: a replica may already hold
    /// a version that supersedes (or equals) the parked write. Such hints
    /// are dropped instead of replayed — force-putting them would
    /// resurrect an overwritten version as a spurious sibling. Dropped
    /// hints count under `voldemort.hints.dropped_obsolete`. A hint whose
    /// write could not be landed on (or confirmed at) any current replica
    /// is re-parked for a later round.
    pub fn deliver_hints(&self) -> usize {
        let mut delivered = 0;
        // Sorted so replay order (and any RNG the network consumes per
        // delivery) is deterministic run-to-run.
        let mut holders: Vec<Arc<VoldemortNode>> = self.nodes.read().values().cloned().collect();
        holders.sort_by_key(|n| n.id());
        for holder in &holders {
            for hint in holder.take_all_hints() {
                let Ok(def) = self.store_def(&hint.store) else {
                    holder.store_hint(hint);
                    continue;
                };
                let Ok(prefs) = self.route(&def, &hint.key) else {
                    holder.store_hint(hint);
                    continue;
                };
                let mut candidates: Vec<NodeId> = Vec::with_capacity(prefs.len());
                if prefs.contains(&hint.target) {
                    candidates.push(hint.target);
                }
                candidates.extend(prefs.iter().copied().filter(|n| *n != hint.target));
                let mut landed = false;
                let mut superseded = false;
                for &target in &candidates {
                    let Ok(target_node) = self.node(target) else {
                        continue;
                    };
                    if target != holder.id()
                        && self.network.deliver(holder.id(), target).is_err()
                    {
                        continue;
                    }
                    let obsolete = target_node
                        .get(&hint.store, &hint.key)
                        .map(|current| {
                            current.iter().any(|v| {
                                matches!(
                                    v.clock.compare(&hint.value.clock),
                                    Occurred::After | Occurred::Equal
                                )
                            })
                        })
                        .unwrap_or(false);
                    if obsolete {
                        superseded = true;
                        continue;
                    }
                    if target_node
                        .force_put(&hint.store, &hint.key, hint.value.clone())
                        .is_ok()
                    {
                        delivered += 1;
                        landed = true;
                    }
                }
                // `landed` means a current replica holds it now (read
                // repair converges the rest), so the hint is done.
                if !landed {
                    if superseded {
                        self.hints_dropped_obsolete.inc();
                    } else {
                        holder.store_hint(hint);
                    }
                }
            }
        }
        delivered
    }

    /// Total pending hints across the cluster.
    pub fn pending_hints(&self) -> usize {
        self.nodes.read().values().map(|n| n.hint_count()).sum()
    }

    /// Monotonic routing-change counter: bumped on every cutover flip and
    /// topology change. Clients capture it before routing a write and
    /// re-check after the ack to detect a cutover that raced the quorum.
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch.load(Ordering::Acquire)
    }

    /// The read-write store definitions, sorted by name (deterministic
    /// iteration order for migration phases and fingerprints). Read-only
    /// stores are excluded everywhere data moves by entry copy: they move
    /// via a fresh pull from the build output instead.
    pub(crate) fn rw_store_defs(&self) -> Vec<StoreDef> {
        let mut defs: Vec<StoreDef> = self
            .stores
            .read()
            .values()
            .filter(|d| d.engine != EngineKind::ReadOnly)
            .cloned()
            .collect();
        defs.sort_by(|a, b| a.name.cmp(&b.name));
        defs
    }

    /// Begins an online migration of `partition` to `to`, returning the
    /// step-driven [`PartitionMigration`] driver (or `None` when `to`
    /// already owns the partition). At most one migration is in flight at
    /// a time. Reads and writes are never blocked: routing keeps serving
    /// the source ring until [`li_commons::migrate::MigrationCoordinator`]
    /// walks the driver through snapshot → delta catch-up → dual-write →
    /// cutover.
    pub fn begin_partition_migration(
        self: &Arc<Self>,
        partition: PartitionId,
        to: NodeId,
    ) -> Result<Option<PartitionMigration>, VoldemortError> {
        self.node(to)?;
        let (donor, source_ring) = {
            let router = self.router.read();
            if partition.0 >= router.ring().num_partitions() {
                return Err(VoldemortError::Admin(format!(
                    "partition {partition} out of range"
                )));
            }
            (router.ring().owner_of(partition), router.ring().clone())
        };
        if donor == to {
            return Ok(None);
        }
        let mut target_ring = source_ring.clone();
        target_ring
            .reassign(partition, to)
            .map_err(|e| VoldemortError::Admin(e.to_string()))?;
        let state = Arc::new(ActiveMigration::new(
            partition,
            donor,
            to,
            source_ring,
            target_ring,
        ));
        {
            let mut slot = self.migration.write();
            if slot.is_some() {
                return Err(VoldemortError::Admin(
                    "a partition migration is already in flight".into(),
                ));
            }
            *slot = Some(Arc::clone(&state));
        }
        Ok(Some(PartitionMigration::new(Arc::clone(self), state)))
    }

    /// The in-flight migration's state, if any (the client's shadow probe).
    pub(crate) fn active_migration(&self) -> Option<Arc<ActiveMigration>> {
        self.migration.read().clone()
    }

    /// The partition currently being migrated, if any.
    pub fn migration_in_flight(&self) -> Option<PartitionId> {
        self.migration.read().as_ref().map(|m| m.partition)
    }

    /// Tears down the in-flight migration without flipping ownership. The
    /// source stays authoritative; the journal (and any data already
    /// copied to the target) is simply dropped — copied versions are
    /// duplicates of what the source replicas still serve.
    pub fn abort_migration(&self) {
        *self.migration.write() = None;
    }

    pub(crate) fn clear_migration(&self) {
        self.abort_migration();
    }

    /// Client ack hook: an acked put or delete lands in the journal when
    /// the key's placement changes at cutover, and mirrors synchronously to
    /// the gaining nodes during dual-write. `write` builds the captured
    /// write and runs only for such a key, so a write no migration covers
    /// costs one read-lock probe. Called with no cluster locks held;
    /// routing decisions use the migration's ring snapshots, never the
    /// router lock.
    pub(crate) fn on_acked(
        &self,
        def: &StoreDef,
        key: &[u8],
        origin: NodeId,
        write: impl FnOnce() -> JournaledWrite,
    ) {
        let guard = self.migration.read();
        let Some(m) = guard.as_ref() else {
            return;
        };
        let gaining = m.moved_targets(key, def);
        if gaining.is_empty() {
            return;
        }
        let write = write();
        if m.dual_write_active() {
            // Best-effort synchronous mirror; the journal is the backstop
            // for any target the network refuses right now.
            for t in gaining {
                if self.network.deliver(origin, t).is_err() {
                    continue;
                }
                if let Ok(node) = self.node(t) {
                    let _ = write.apply(&node);
                }
            }
        }
        m.journal.lock().push(write);
    }

    /// Drains the migration journal and replays every entry to the nodes
    /// gaining the key. Returns how many entries were replayed; on error
    /// the unreplayed tail is pushed back for retry (replay order across a
    /// retry may interleave with fresh appends, which is safe: force-put
    /// and clock-checked delete are order-insensitive).
    pub(crate) fn migration_drain_journal(
        &self,
        m: &ActiveMigration,
    ) -> Result<u64, VoldemortError> {
        let entries: Vec<JournaledWrite> = std::mem::take(&mut *m.journal.lock());
        let count = entries.len() as u64;
        for (i, entry) in entries.iter().enumerate() {
            if let Err(e) = self.migration_replay_entry(m, entry) {
                m.journal.lock().extend(entries[i..].iter().cloned());
                return Err(e);
            }
        }
        Ok(count)
    }

    fn migration_replay_entry(
        &self,
        m: &ActiveMigration,
        entry: &JournaledWrite,
    ) -> Result<(), VoldemortError> {
        let (store, key) = entry.addr();
        let def = self.store_def(store)?;
        for t in m.moved_targets(key, &def) {
            entry.apply(&*self.node(t)?)?;
        }
        Ok(())
    }

    /// The atomic cutover flip. Takes the migration write lock (waiting
    /// out any in-flight ack capture), drains the journal one final time,
    /// then flips ownership under the router write lock and bumps the
    /// topology epoch — an acked write either made it into the journal
    /// (drained here, before the flip) or acks after the flip and sees the
    /// epoch change. Lock order: migration before router, as everywhere.
    pub(crate) fn migration_cutover(&self, m: &ActiveMigration) -> Result<(), VoldemortError> {
        let mut migration = self.migration.write();
        self.migration_drain_journal(m)?;
        {
            let mut router = self.router.write();
            router.ring_mut().reassign(m.partition, m.to)?;
        }
        self.topology_epoch.fetch_add(1, Ordering::Release);
        *migration = None;
        Ok(())
    }

    /// A stable digest of the cluster's logical contents: for every
    /// read-write store (sorted) and key (sorted union across all nodes),
    /// the sibling-resolved *values* served by the key's current
    /// preference list. Clocks are deliberately excluded — the coordinator
    /// node that stamps a clock depends on routing history, so a migrated
    /// cluster and a never-migrated twin agree on values but not clocks.
    pub fn state_fingerprint(&self) -> u64 {
        let mut buf: Vec<u8> = Vec::new();
        let mut holders: Vec<Arc<VoldemortNode>> = self.nodes.read().values().cloned().collect();
        holders.sort_by_key(|n| n.id());
        for def in self.rw_store_defs() {
            buf.extend_from_slice(def.name.as_bytes());
            buf.push(0);
            let mut keys: BTreeSet<Bytes> = BTreeSet::new();
            for node in &holders {
                if let Ok(engine) = node.engine(&def.name) {
                    for (key, _) in engine.entries() {
                        keys.insert(key);
                    }
                }
            }
            for key in keys {
                let Ok(prefs) = self.route(&def, &key) else {
                    continue;
                };
                let mut merged: Vec<Versioned<Bytes>> = Vec::new();
                for id in prefs {
                    let Ok(node) = self.node(id) else { continue };
                    let Ok(engine) = node.engine(&def.name) else {
                        continue;
                    };
                    let Ok(versions) = engine.get(&key) else {
                        continue;
                    };
                    for v in versions {
                        resolve_siblings(&mut merged, v);
                    }
                }
                if merged.is_empty() {
                    // Absent from every serving replica (deleted, or donor
                    // residue a flip left behind on a non-replica).
                    continue;
                }
                let mut values: Vec<&Bytes> = merged.iter().map(|v| &v.value).collect();
                values.sort();
                buf.extend_from_slice(&(key.len() as u64).to_le_bytes());
                buf.extend_from_slice(&key);
                buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
                for value in values {
                    buf.extend_from_slice(&(value.len() as u64).to_le_bytes());
                    buf.extend_from_slice(value);
                }
            }
        }
        fnv1a(&buf)
    }

    /// Admin: migrates one logical partition to `to` for all read-write
    /// stores — the whole phased state machine (snapshot → delta catch-up
    /// → dual-write + shadow verification → atomic flip) run to
    /// completion. Requests during the move keep hitting the old owner;
    /// the flip under the migration + router write locks is the
    /// "redirecting requests of moving partitions to their new
    /// destination" moment. Step-driven callers (chaos, proptests) use
    /// [`Self::begin_partition_migration`] directly.
    pub fn migrate_partition(
        self: &Arc<Self>,
        partition: PartitionId,
        to: NodeId,
    ) -> Result<(), VoldemortError> {
        let Some(driver) = self.begin_partition_migration(partition, to)? else {
            return Ok(());
        };
        let coordinator = MigrationCoordinator::new(&self.metrics, MigrationConfig::default());
        let result = coordinator
            .run(&driver, 64)
            .map_err(|e| VoldemortError::Admin(e.to_string()));
        if result.is_err() {
            // Shadow-mismatch refusals already aborted via the driver;
            // clear any other failure too so the cluster isn't wedged.
            self.abort_migration();
        }
        result
    }

    /// Admin: adds a fresh node to the cluster (zone 0) without downtime —
    /// creates it, attaches engines for every read-write store, registers
    /// it in the topology, then migrates its fair share of partitions one
    /// at a time. Returns the moved partitions.
    ///
    /// Read-only stores are excluded: their data moves by re-running the
    /// pull phase against the next build, which already targets the new
    /// topology.
    pub fn rebalance_in_new_node(
        self: &Arc<Self>,
        id: NodeId,
    ) -> Result<Vec<PartitionId>, VoldemortError> {
        {
            let mut nodes = self.nodes.write();
            if nodes.contains_key(&id) {
                return Err(VoldemortError::Admin(format!("{id} already in cluster")));
            }
            let node = Arc::new(VoldemortNode::with_metrics(id, &self.metrics));
            for def in self.stores.read().values() {
                let Some(engine) = self.read_write_engine(id, def) else {
                    return Err(VoldemortError::Admin(
                        "cannot dynamically add a node to a cluster with read-only \
                         stores; rebuild and re-pull instead"
                            .into(),
                    ));
                };
                node.add_store(&def.name, engine)?;
            }
            nodes.insert(id, node);
        }
        let moves = {
            let mut router = self.router.write();
            router.ring_mut().add_node(id, ZoneId(0));
            router.ring().plan_rebalance(id)
        };
        self.topology_epoch.fetch_add(1, Ordering::Release);
        let mut moved = Vec::with_capacity(moves.len());
        for (partition, _, to) in moves {
            // Each move runs the full phased machine (live traffic keeps
            // flowing between moves).
            self.migrate_partition(partition, to)?;
            moved.push(partition);
        }
        Ok(moved)
    }
}

/// Chaos-scheduler hooks. Voldemort's failure surface is entirely the
/// network: a crash makes the node unreachable (its storage survives —
/// the paper's nodes recover with their BDB intact), and a pause is
/// modeled the same way (a GC-paused node is indistinguishable from a
/// dead one to its peers).
impl li_commons::chaos::FaultHooks for VoldemortCluster {
    fn crash(&self, node: NodeId) {
        self.network.crash(node);
    }

    fn restart(&self, node: NodeId) {
        self.network.restart(node);
    }

    fn pause(&self, node: NodeId) {
        self.network.crash(node);
    }

    fn resume(&self, node: NodeId) {
        self.network.restart(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn add_and_delete_stores() {
        let cluster = VoldemortCluster::new(16, 3).unwrap();
        cluster.add_store(StoreDef::read_write("follows")).unwrap();
        assert!(matches!(
            cluster.add_store(StoreDef::read_write("follows")),
            Err(VoldemortError::DuplicateStore(_))
        ));
        cluster.delete_store("follows").unwrap();
        assert!(cluster.store_def("follows").is_err());
        assert!(matches!(
            cluster.delete_store("follows"),
            Err(VoldemortError::UnknownStore(_))
        ));
    }

    #[test]
    fn invalid_store_def_rejected() {
        let cluster = VoldemortCluster::new(16, 2).unwrap();
        let bad = StoreDef::read_write("s").with_quorum(3, 1, 4);
        assert!(matches!(
            cluster.add_store(bad),
            Err(VoldemortError::Admin(_))
        ));
    }

    #[test]
    fn read_only_store_requires_dedicated_path() {
        let cluster = VoldemortCluster::new(8, 1).unwrap();
        assert!(matches!(
            cluster.add_store(StoreDef::read_only("ro")),
            Err(VoldemortError::Admin(_))
        ));
    }

    #[test]
    fn phased_migration_journals_and_dual_writes_under_traffic() {
        use li_commons::migrate::{MigrationConfig, MigrationCoordinator, MigrationPhase};

        let cluster = VoldemortCluster::new(8, 3).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(1, 1, 1))
            .unwrap();
        let client = cluster.client("s").unwrap();
        for i in 0..100 {
            client
                .put_initial(format!("k{i}").as_bytes(), Bytes::from(format!("v{i}")))
                .unwrap();
        }
        let partition = cluster.ring().partitions_of(NodeId(0))[0];
        let driver = cluster
            .begin_partition_migration(partition, NodeId(2))
            .unwrap()
            .unwrap();
        assert_eq!(cluster.migration_in_flight(), Some(partition));
        let coordinator =
            MigrationCoordinator::new(cluster.metrics(), MigrationConfig::default());
        assert_eq!(
            coordinator.step(&driver).unwrap(),
            MigrationPhase::DeltaCatchup
        );

        // A key in the placement diff, written after the snapshot: it must
        // be journaled for delta replay.
        let moving_key = (0..1000)
            .map(|i| format!("m{i}").into_bytes())
            .find(|k| cluster.ring().master_partition(k) == partition)
            .unwrap();
        client
            .put_initial(&moving_key, Bytes::from_static(b"after-snapshot"))
            .unwrap();
        assert_eq!(driver.journal_len(), 1, "acked write captured");

        // Delta rounds drain the journal, then dual-write begins.
        let mut phase = coordinator.step(&driver).unwrap();
        while phase == MigrationPhase::DeltaCatchup {
            phase = coordinator.step(&driver).unwrap();
        }
        assert_eq!(phase, MigrationPhase::DualWrite);

        // Dual-write: an acked write mirrors to the target synchronously.
        let clock = client.get(&moving_key).unwrap()[0].clock.clone();
        client
            .put(&moving_key, &clock, Bytes::from_static(b"dual-written"))
            .unwrap();
        let target_engine = cluster.node(NodeId(2)).unwrap().engine("s").unwrap();
        assert!(
            target_engine
                .get(&moving_key)
                .unwrap()
                .iter()
                .any(|v| v.value.as_ref() == b"dual-written"),
            "dual-write mirrors synchronously"
        );

        // Verification is clean; the flip lands and routing serves node 2.
        while coordinator.phase() != MigrationPhase::Done {
            coordinator.step(&driver).unwrap();
        }
        assert_eq!(cluster.ring().owner_of(partition), NodeId(2));
        assert!(cluster.migration_in_flight().is_none());
        let got = client.get(&moving_key).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"dual-written");
        for i in 0..100 {
            assert_eq!(client.get(format!("k{i}").as_bytes()).unwrap().len(), 1);
        }
        let snap = cluster.metrics().snapshot();
        assert_eq!(snap.counter("migration.cutover_flips"), Some(1));
        assert_eq!(snap.counter("migration.cutover_refusals"), Some(0));
    }

    #[test]
    fn hints_replay_to_new_owner_after_cutover() {
        // Regression: hints parked before a partition move used to replay
        // to the *old* preference-list owner after cutover, stranding the
        // write on a node no longer serving the key.
        let cluster = VoldemortCluster::new(8, 4).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(2, 1, 2))
            .unwrap();
        let client = cluster.client("s").unwrap();
        let key = b"hinted-key";
        let prefs = cluster.route(&cluster.store_def("s").unwrap(), key).unwrap();

        // Both replicas down: the put acks purely via hints on the two
        // fallback nodes.
        cluster.network().crash(prefs[0]);
        cluster.network().crash(prefs[1]);
        client
            .put_initial(key, Bytes::from_static(b"hinted-value"))
            .unwrap();
        assert_eq!(cluster.pending_hints(), 2);
        cluster.network().restart(prefs[0]);
        cluster.network().restart(prefs[1]);

        // Move the key's master partition to a node outside the old
        // preference list while the hints are still pending.
        let partition = cluster.ring().master_partition(key);
        let new_owner = *cluster
            .node_ids()
            .iter()
            .find(|n| !prefs.contains(n))
            .unwrap();
        cluster.migrate_partition(partition, new_owner).unwrap();
        let now_prefs = cluster.route(&cluster.store_def("s").unwrap(), key).unwrap();
        assert_eq!(now_prefs[0], new_owner);

        // Delivery must follow the *current* ring: the value lands on the
        // new owner, and a quorum read (which contacts the new prefs)
        // serves it.
        assert!(cluster.deliver_hints() >= 1);
        assert_eq!(cluster.pending_hints(), 0);
        let new_owner_versions = cluster
            .node(new_owner)
            .unwrap()
            .engine("s")
            .unwrap()
            .get(key)
            .unwrap();
        assert!(
            new_owner_versions
                .iter()
                .any(|v| v.value.as_ref() == b"hinted-value"),
            "hint routed to the post-cutover owner"
        );
        let got = client.get(key).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"hinted-value");
    }

    #[test]
    fn planted_divergence_refuses_cutover() {
        use li_commons::clock::VectorClock;
        use li_commons::migrate::{
            MigrationConfig, MigrationCoordinator, MigrationError, MigrationPhase,
        };

        let cluster = VoldemortCluster::new(8, 3).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(1, 1, 1))
            .unwrap();
        let client = cluster.client("s").unwrap();
        for i in 0..50 {
            client
                .put_initial(format!("k{i}").as_bytes(), Bytes::from(format!("v{i}")))
                .unwrap();
        }
        let partition = cluster.ring().partitions_of(NodeId(0))[0];
        let donor = cluster.ring().owner_of(partition);
        let driver = cluster
            .begin_partition_migration(partition, NodeId(2))
            .unwrap()
            .unwrap();
        let coordinator = MigrationCoordinator::new(
            cluster.metrics(),
            MigrationConfig {
                verify_retries: 2,
                ..MigrationConfig::default()
            },
        );
        let mut phase = coordinator.step(&driver).unwrap();
        while phase != MigrationPhase::DualWrite {
            phase = coordinator.step(&driver).unwrap();
        }

        // Deliberately corrupt the target: a version (concurrent clock,
        // bogus value) the source can never explain, on a key the move
        // covers.
        let moving_key = (0..50)
            .map(|i| format!("k{i}").into_bytes())
            .find(|k| cluster.ring().master_partition(k) == partition)
            .expect("some key lands in the moving partition");
        cluster
            .node(NodeId(2))
            .unwrap()
            .engine("s")
            .unwrap()
            .force_put(
                &moving_key,
                Versioned::new(VectorClock::with(999, 1), Bytes::from_static(b"corrupt")),
            )
            .unwrap();

        // Every verification round now sees the divergence; after the
        // retry budget the flip is refused and the source stays
        // authoritative.
        let err = loop {
            match coordinator.step(&driver) {
                Ok(p) => assert_eq!(p, MigrationPhase::DualWrite, "must never cut over"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, MigrationError::ShadowMismatch { .. }));
        assert_eq!(coordinator.phase(), MigrationPhase::Refused);
        assert_eq!(cluster.ring().owner_of(partition), donor, "flip refused");
        assert!(cluster.migration_in_flight().is_none(), "aborted");
        let snap = cluster.metrics().snapshot();
        assert!(snap.counter("migration.shadow_mismatch").unwrap() > 0);
        assert_eq!(snap.counter("migration.cutover_refusals"), Some(1));
        assert_eq!(snap.counter("migration.cutover_flips"), Some(0));
        // The cluster is usable again: the same partition can be migrated
        // to a clean target.
        cluster.migrate_partition(partition, NodeId(1)).unwrap();
        assert_eq!(cluster.ring().owner_of(partition), NodeId(1));
    }

    #[test]
    fn migrate_partition_moves_data_and_ownership() {
        let cluster = VoldemortCluster::new(8, 2).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(1, 1, 1))
            .unwrap();
        let client = cluster.client("s").unwrap();
        for i in 0..200 {
            client
                .put_initial(format!("k{i}").as_bytes(), Bytes::from(format!("v{i}")))
                .unwrap();
        }
        let ring = cluster.ring();
        // Move every partition owned by node 0 to node 1.
        let moving = ring.partitions_of(NodeId(0));
        for p in &moving {
            cluster.migrate_partition(*p, NodeId(1)).unwrap();
        }
        // All keys still readable (now served entirely by node 1).
        for i in 0..200 {
            let got = client.get(format!("k{i}").as_bytes()).unwrap();
            assert_eq!(got.len(), 1, "k{i} lost in migration");
        }
        assert!(cluster.ring().partitions_of(NodeId(0)).is_empty());
    }
}
