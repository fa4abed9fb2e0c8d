//! The full Espresso deployment: router + storage nodes + relays + Helix.
//!
//! Figure IV.1 wiring. The router "accepts HTTP requests, inspects the URI
//! ... applies the routing function to the resource_id ... consults the
//! routing table maintained by the cluster manager to determine which
//! storage node is the master for the partition" — here the routing table
//! is the Helix external view. Relays live in their own fault-tolerant
//! tier: a storage-node crash does not take its relay's buffered changes
//! down with it, which is exactly what makes the paper's failover safe
//! ("if a storage node fails, the committed changes can still be found in
//! the Databus relay and propagated to other storage nodes").

use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock, Weak};

use li_commons::exec::{fan_out, FanOutMode, FanOutOptions, FanOutPool, FanOutTask};
use li_commons::metrics::{Counter, Histo, MetricsRegistry};
use li_commons::ring::{NodeId, PartitionId};
use li_commons::schema::Record;
use li_databus::Relay;
use li_helix::{Controller, Participant, ReplicaState, ResourceConfig, Transition};
use li_sqlstore::{Row, RowKey};
use li_zk::ZooKeeper;

use crate::node::{SchemaHandle, StorageNode};
use crate::schema::{DatabaseSchema, EspressoError};
use crate::uri::ResourcePath;

/// One master node's slice of a multi-key request: `(original index,
/// key, payload)` per document, input order preserved.
type MasterBatch<T> = Vec<(usize, RowKey, T)>;

/// Relay buffer budget per storage node (bytes).
const RELAY_BUFFER_BYTES: usize = 8 << 20;

/// Router/cluster observability under `espresso.router.`: end-to-end
/// request latency and count through the routed API, plus failovers
/// triggered by node crashes.
#[derive(Debug, Clone)]
struct EspressoMetrics {
    request_latency: Histo,
    requests: Counter,
    failovers: Counter,
}

impl EspressoMetrics {
    fn new(registry: &Arc<MetricsRegistry>) -> Self {
        let scope = registry.scope("espresso.router");
        EspressoMetrics {
            request_latency: scope.histogram("request.latency_ns"),
            requests: scope.counter("requests"),
            failovers: scope.counter("failovers"),
        }
    }
}

/// A complete in-process Espresso cluster.
pub struct EspressoCluster {
    zk: ZooKeeper,
    controller: Controller,
    nodes: RwLock<HashMap<NodeId, Arc<StorageNode>>>,
    relays: RwLock<HashMap<NodeId, Arc<Relay>>>,
    participants: Mutex<HashMap<NodeId, Participant>>,
    schemas: RwLock<HashMap<String, SchemaHandle>>,
    /// Cached external views, one watch receiver per database. The hot
    /// routing path reads the latest published assignment from here (one
    /// short lock + an `Arc` clone) instead of a coordination-service get
    /// plus JSON parse per request; the Helix controller pushes every
    /// rebalanced view into the watch.
    views: RwLock<HashMap<String, li_commons::watch::Receiver<Arc<li_helix::Assignment>>>>,
    /// How multi-key requests execute their per-master-node sub-batches.
    /// Deterministic (the default) runs them inline in node order —
    /// replayable; Parallel fans them out over [`Self::fan_out_pool`].
    fan_out_mode: RwLock<FanOutMode>,
    /// The router's shared fan-out pool, built on the first Parallel
    /// multi-key request (Deterministic clusters spawn no threads).
    fan_out_pool: OnceLock<FanOutPool>,
    registry: Arc<MetricsRegistry>,
    metrics: EspressoMetrics,
}

impl std::fmt::Debug for EspressoCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EspressoCluster")
            .field("nodes", &self.nodes.read().len())
            .field("databases", &self.schemas.read().keys().collect::<Vec<_>>())
            .finish()
    }
}

impl EspressoCluster {
    /// Builds a cluster of `node_count` storage nodes (ids 0..n), each with
    /// its own relay, all joined to a fresh coordination service.
    pub fn new(node_count: u16) -> Result<Arc<Self>, EspressoError> {
        Self::with_metrics(node_count, &MetricsRegistry::new())
    }

    /// [`Self::new`], but publishing into a caller-supplied registry — so
    /// a site-wide deployment can watch Espresso in the same snapshot as
    /// every other tier (`espresso.router.*` plus one
    /// `databus.relay.espresso-node-N.*` family per storage node).
    pub fn with_metrics(
        node_count: u16,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Arc<Self>, EspressoError> {
        let zk = ZooKeeper::new();
        let controller = Controller::new(&zk, "espresso")?;
        let registry = Arc::clone(registry);
        let cluster = Arc::new(EspressoCluster {
            zk,
            controller,
            nodes: RwLock::new(HashMap::new()),
            relays: RwLock::new(HashMap::new()),
            participants: Mutex::new(HashMap::new()),
            schemas: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            fan_out_mode: RwLock::new(FanOutMode::Deterministic),
            fan_out_pool: OnceLock::new(),
            metrics: EspressoMetrics::new(&registry),
            registry,
        });
        for i in 0..node_count {
            cluster.attach_node(NodeId(i))?;
        }
        Ok(cluster)
    }

    /// Creates a storage node + relay and joins it to the cluster.
    fn attach_node(self: &Arc<Self>, id: NodeId) -> Result<(), EspressoError> {
        let relay = Arc::new(Relay::with_metrics(
            format!("espresso-node-{}", id.0),
            RELAY_BUFFER_BYTES,
            &self.registry,
        ));
        let node = Arc::new(StorageNode::new(id, relay.clone()));
        // Existing databases get provisioned on the newcomer.
        for schema in self.schemas.read().values() {
            node.create_database(schema.clone())?;
        }
        self.nodes.write().insert(id, node.clone());
        self.relays.write().insert(id, relay);
        let participant = Participant::join(&self.zk, "espresso", id)?;
        self.participants.lock().insert(id, participant);
        let weak: Weak<EspressoCluster> = Arc::downgrade(self);
        self.controller.register_handler(
            id,
            Arc::new(move |transition: &Transition| {
                let Some(cluster) = weak.upgrade() else {
                    return Err("cluster gone".to_string());
                };
                cluster
                    .handle_transition(&node, transition)
                    .map_err(|e| e.to_string())
            }),
        );
        Ok(())
    }

    /// Executes one Helix transition task on `node`.
    fn handle_transition(
        &self,
        node: &Arc<StorageNode>,
        t: &Transition,
    ) -> Result<(), EspressoError> {
        let db = &t.resource;
        let partition = t.partition.0;
        match (t.from, t.to) {
            (ReplicaState::Slave, ReplicaState::Master) => {
                // "The slave partition first consumes all outstanding
                // changes to the partition from the Databus relay, and then
                // becomes a master partition."
                let prev_master = self.controller.external_view(db)?.master_of(t.partition);
                if let Some(prev) = prev_master {
                    if prev != node.id() {
                        // A returning node (e.g. restarted after a crash)
                        // may never have followed the interim master: seed
                        // a stream with a snapshot first, if the previous
                        // master is still alive to serve one.
                        if !node.has_stream(prev, db, partition)
                            && self.controller.live_nodes()?.contains(&prev)
                        {
                            let prev_node = self.node(prev)?;
                            let (rows, checkpoint) =
                                prev_node.snapshot_partition(db, partition)?;
                            node.bootstrap_partition(db, partition, prev, rows, checkpoint)?;
                        }
                        if node.has_stream(prev, db, partition) {
                            let relay = self
                                .relays
                                .read()
                                .get(&prev)
                                .cloned()
                                .ok_or_else(|| EspressoError::Replication(format!(
                                    "no relay for {prev}"
                                )))?;
                            node.sync_partition(db, partition, prev, &relay)?;
                        }
                    }
                }
                node.set_master(db, partition, true);
                Ok(())
            }
            (ReplicaState::Master, ReplicaState::Slave) => {
                node.set_master(db, partition, false);
                Ok(())
            }
            // Offline→Slave bootstrapping happens lazily in
            // `pump_replication` (the stream source is only knowable once a
            // master is published); Slave→Offline keeps local data, which a
            // later re-bootstrap simply overwrites.
            _ => Ok(()),
        }
    }

    /// Creates a database across the cluster and lets Helix assign its
    /// partitions.
    pub fn create_database(&self, schema: DatabaseSchema) -> Result<(), EspressoError> {
        let name = schema.name.clone();
        let config = ResourceConfig::new(&name, schema.num_partitions, schema.replication);
        let handle: SchemaHandle = Arc::new(RwLock::new(schema));
        for node in self.nodes.read().values() {
            node.create_database(handle.clone())?;
        }
        self.schemas.write().insert(name.clone(), handle);
        let node_ids: Vec<NodeId> = {
            let mut ids: Vec<NodeId> = self.nodes.read().keys().copied().collect();
            ids.sort();
            ids
        };
        self.controller.add_resource(config, &node_ids)?;
        Ok(())
    }

    /// The schema handle for `db`.
    pub fn schema(&self, db: &str) -> Result<SchemaHandle, EspressoError> {
        self.schemas
            .read()
            .get(db)
            .cloned()
            .ok_or_else(|| EspressoError::UnknownDatabase(db.into()))
    }

    /// A storage node handle.
    pub fn node(&self, id: NodeId) -> Result<Arc<StorageNode>, EspressoError> {
        self.nodes
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| EspressoError::Cluster(format!("no node {id}")))
    }

    /// The relay of a storage node (alive even when the node is down).
    pub fn relay(&self, id: NodeId) -> Result<Arc<Relay>, EspressoError> {
        self.relays
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| EspressoError::Cluster(format!("no relay {id}")))
    }

    /// The Helix controller (diagnostics / advanced operations).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The metrics registry this cluster reports into (names under
    /// `espresso.` plus the per-node relays under `databus.relay.`).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Times and counts one routed request.
    fn observe<T>(
        &self,
        op: impl FnOnce() -> Result<T, EspressoError>,
    ) -> Result<T, EspressoError> {
        self.metrics.requests.inc();
        let _timer = self.metrics.request_latency.start_timer();
        op()
    }

    /// The latest external view for `db`, from the local watch cache —
    /// no coordination-service round trip on the request path. The first
    /// call per database subscribes to the controller's view watch.
    fn cached_view(&self, db: &str) -> Result<Arc<li_helix::Assignment>, EspressoError> {
        if let Some(rx) = self.views.read().get(db) {
            return Ok(rx.get());
        }
        let rx = self.controller.watch_external_view(db)?;
        let view = rx.get();
        self.views.write().entry(db.to_string()).or_insert(rx);
        Ok(view)
    }

    /// Routes a resource id to `(partition, master node)`.
    pub fn route(&self, db: &str, resource_id: &str) -> Result<(u32, NodeId), EspressoError> {
        let schema = self.schema(db)?;
        let partition = schema.read().partition_of(resource_id);
        let view = self.cached_view(db)?;
        let master = view
            .master_of(PartitionId(partition))
            .ok_or(EspressoError::NoMaster { partition })?;
        Ok((partition, master))
    }

    fn master_node(&self, db: &str, resource_id: &str) -> Result<Arc<StorageNode>, EspressoError> {
        let (_, master) = self.route(db, resource_id)?;
        self.node(master)
    }

    fn resource_of(key: &RowKey) -> Result<&str, EspressoError> {
        key.resource_id()
            .ok_or_else(|| EspressoError::BadRequest("empty key".into()))
    }

    /// PUT a document (routed).
    pub fn put(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
        record: &Record,
    ) -> Result<u64, EspressoError> {
        self.observe(|| {
            let node = self.master_node(db, Self::resource_of(&key)?)?;
            node.put_document(db, table, key, record)
        })
    }

    /// Conditional PUT (If-Match etag; 0 = If-None-Match).
    pub fn put_if_match(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
        expected_etag: u64,
        record: &Record,
    ) -> Result<u64, EspressoError> {
        self.observe(|| {
            let node = self.master_node(db, Self::resource_of(&key)?)?;
            node.put_document_if_match(db, table, key, expected_etag, record)
        })
    }

    /// Transactional multi-table POST (wildcard-table URI in the paper).
    pub fn post_transactional(
        &self,
        db: &str,
        documents: Vec<(String, RowKey, Record)>,
    ) -> Result<u64, EspressoError> {
        self.observe(|| {
            let first = documents
                .first()
                .ok_or_else(|| EspressoError::BadRequest("empty transaction".into()))?;
            let node = self.master_node(db, Self::resource_of(&first.1)?)?;
            node.put_transactional(db, documents)
        })
    }

    /// GET a document (routed to the master — timeline-consistent reads).
    pub fn get(
        &self,
        db: &str,
        table: &str,
        key: &RowKey,
    ) -> Result<Option<(Record, Row)>, EspressoError> {
        self.observe(|| {
            let node = self.master_node(db, Self::resource_of(key)?)?;
            node.get_document(db, table, key)
        })
    }

    /// Sets how multi-key requests execute (Deterministic by default;
    /// the site platform picks per its configured run mode).
    pub fn set_fan_out_mode(&self, mode: FanOutMode) {
        *self.fan_out_mode.write() = mode;
    }

    /// The current multi-key execution mode.
    pub fn fan_out_mode(&self) -> FanOutMode {
        *self.fan_out_mode.read()
    }

    /// The shared pool behind Parallel multi-key fan-out, created lazily
    /// so Deterministic clusters spawn no threads.
    fn fan_out_pool(&self) -> &FanOutPool {
        self.fan_out_pool.get_or_init(|| FanOutPool::new(8))
    }

    /// Groups `keys` by their master node (input order preserved within
    /// each group; groups in node order, so Deterministic replays are
    /// stable) against the watch-cached assignment.
    fn group_by_master<T>(
        &self,
        db: &str,
        items: Vec<(RowKey, T)>,
    ) -> Result<BTreeMap<NodeId, MasterBatch<T>>, EspressoError> {
        let mut groups: BTreeMap<NodeId, MasterBatch<T>> = BTreeMap::new();
        for (index, (key, payload)) in items.into_iter().enumerate() {
            let (_, master) = self.route(db, Self::resource_of(&key)?)?;
            groups.entry(master).or_default().push((index, key, payload));
        }
        Ok(groups)
    }

    /// Runs one already-built fan-out: one task per master node, each
    /// returning its sub-batch results tagged with original indices.
    /// Requires every task to succeed (a multi-key request has no quorum
    /// semantics — a failed sub-batch fails the request).
    fn run_grouped<T: Send + 'static>(
        &self,
        tasks: Vec<FanOutTask<Vec<(usize, T)>, EspressoError>>,
        total: usize,
    ) -> Result<Vec<T>, EspressoError> {
        let mode = self.fan_out_mode();
        let required = tasks.len();
        let pool = matches!(mode, FanOutMode::Parallel).then(|| self.fan_out_pool());
        let opts = FanOutOptions {
            mode,
            required,
            ..Default::default()
        };
        let mut report = fan_out(pool, &opts, tasks, Vec::new(), None, None);
        if let Some((_, err)) = report.fatal.take() {
            return Err(err);
        }
        if let Some((_, err)) = report.failures.into_iter().next() {
            return Err(err);
        }
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(total).collect();
        for (_, group) in report.quorum.into_iter().chain(report.extras) {
            for (index, value) in group {
                slots[index] = Some(value);
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.ok_or_else(|| {
                    EspressoError::Cluster("multi-key fan-out dropped a sub-batch".into())
                })
            })
            .collect()
    }

    /// GET many documents in one routed request: keys are grouped by
    /// master node against the watch-cached assignment and each node's
    /// sub-batch runs as one fan-out task (parallel across nodes when the
    /// cluster is in Parallel mode). Results come back in input order.
    /// Requests are counted per document, so router accounting is
    /// invariant to how callers batch.
    pub fn multi_get(
        &self,
        db: &str,
        table: &str,
        keys: Vec<RowKey>,
    ) -> Result<Vec<Option<(Record, Row)>>, EspressoError> {
        let total = keys.len();
        self.metrics.requests.add(total as u64);
        let _timer = self.metrics.request_latency.start_timer();
        let groups = self.group_by_master(db, keys.into_iter().map(|k| (k, ())).collect())?;
        let mut tasks = Vec::with_capacity(groups.len());
        for (node_id, group) in groups {
            let node = self.node(node_id)?;
            let db = db.to_string();
            let table = table.to_string();
            tasks.push(FanOutTask::new(u64::from(node_id.0), move || {
                group
                    .into_iter()
                    .map(|(index, key, ())| {
                        node.get_document(&db, &table, &key).map(|doc| (index, doc))
                    })
                    .collect()
            }));
        }
        self.run_grouped(tasks, total)
    }

    /// PUT many documents in one routed request — the streaming
    /// population loader's batched write path. Same grouping and
    /// execution as [`Self::multi_get`]; returns the new etags in input
    /// order. Documents for *different* master nodes land independently
    /// (no cross-node transaction — a failed sub-batch fails the call,
    /// but sub-batches that already applied stay applied, exactly like
    /// issuing the PUTs singly).
    pub fn multi_put(
        &self,
        db: &str,
        table: &str,
        documents: Vec<(RowKey, Record)>,
    ) -> Result<Vec<u64>, EspressoError> {
        let total = documents.len();
        self.metrics.requests.add(total as u64);
        let _timer = self.metrics.request_latency.start_timer();
        let groups = self.group_by_master(db, documents)?;
        let mut tasks = Vec::with_capacity(groups.len());
        for (node_id, group) in groups {
            let node = self.node(node_id)?;
            let db = db.to_string();
            let table = table.to_string();
            tasks.push(FanOutTask::new(u64::from(node_id.0), move || {
                group
                    .into_iter()
                    .map(|(index, key, record)| {
                        node.put_document(&db, &table, key, &record)
                            .map(|etag| (index, etag))
                    })
                    .collect()
            }));
        }
        self.run_grouped(tasks, total)
    }

    /// GET a collection resource.
    pub fn get_collection(
        &self,
        db: &str,
        table: &str,
        prefix: &RowKey,
    ) -> Result<Vec<(RowKey, Record)>, EspressoError> {
        self.observe(|| {
            let node = self.master_node(db, Self::resource_of(prefix)?)?;
            node.get_collection(db, table, prefix)
        })
    }

    /// DELETE a document.
    pub fn delete(&self, db: &str, table: &str, key: RowKey) -> Result<(), EspressoError> {
        self.observe(|| {
            let node = self.master_node(db, Self::resource_of(&key)?)?;
            node.delete_document(db, table, key)
        })
    }

    /// Secondary-index query over a collection resource (URI
    /// `/db/table/resource?query=field:term`).
    pub fn query_uri(&self, uri: &str) -> Result<Vec<(RowKey, Record)>, EspressoError> {
        let path = ResourcePath::parse(uri)?;
        let (field, term) = path
            .query
            .clone()
            .ok_or_else(|| EspressoError::BadRequest("missing ?query=".into()))?;
        let collection = path.row_key();
        let node = self.master_node(&path.database, Self::resource_of(&collection)?)?;
        node.query(
            &path.database,
            &path.table,
            Some(&collection),
            &field,
            &term,
        )
    }

    /// GET by URI string (document or collection, with optional query).
    pub fn get_uri(&self, uri: &str) -> Result<Vec<(RowKey, Record)>, EspressoError> {
        let path = ResourcePath::parse(uri)?;
        if path.query.is_some() {
            return self.query_uri(uri);
        }
        let schema = self.schema(&path.database)?;
        let depth = schema.read().table(&path.table)?.key_depth();
        if path.key.len() == depth {
            let key = path.row_key();
            Ok(self
                .get(&path.database, &path.table, &key)?
                .map(|(record, _)| vec![(key, record)])
                .unwrap_or_default())
        } else {
            self.get_collection(&path.database, &path.table, &path.row_key())
        }
    }

    /// One replication pump: for every database and partition, slaves
    /// bootstrap (if needed) and catch up from the current master's relay.
    /// In production this runs continuously; tests and examples call it at
    /// interesting moments. Returns windows applied.
    pub fn pump_replication(&self) -> Result<usize, EspressoError> {
        let mut applied = 0;
        let databases: Vec<(String, u32)> = self
            .schemas
            .read()
            .iter()
            .map(|(name, handle)| (name.clone(), handle.read().num_partitions))
            .collect();
        for (db, num_partitions) in databases {
            let view = self.controller.external_view(&db)?;
            for partition in 0..num_partitions {
                let pid = PartitionId(partition);
                let Some(master) = view.master_of(pid) else {
                    continue;
                };
                let master_node = self.node(master)?;
                let master_relay = self.relay(master)?;
                for slave in view.slaves_of(pid) {
                    let slave_node = self.node(slave)?;
                    if !slave_node.has_stream(master, &db, partition) {
                        let (rows, checkpoint) = master_node.snapshot_partition(&db, partition)?;
                        slave_node.bootstrap_partition(
                            &db, partition, master, rows, checkpoint,
                        )?;
                    }
                    applied += slave_node.sync_partition(&db, partition, master, &master_relay)?;
                }
            }
        }
        Ok(applied)
    }

    /// Simulates a storage-node crash: its Helix session expires (ephemeral
    /// liveness gone) and the controller fails over. The node's relay
    /// stays up — the fault-tolerance property the paper relies on.
    pub fn crash_node(&self, id: NodeId) -> Result<(), EspressoError> {
        let session = {
            let participants = self.participants.lock();
            participants
                .get(&id)
                .map(Participant::session_id)
                .ok_or_else(|| EspressoError::Cluster(format!("{id} not joined")))?
        };
        self.zk.expire(session);
        self.participants.lock().remove(&id);
        self.controller.rebalance_all()?;
        self.metrics.failovers.inc();
        Ok(())
    }

    /// Brings a crashed node back: rejoins the cluster and rebalances. Its
    /// stale partitions re-bootstrap on the next replication pump.
    pub fn restart_node(&self, id: NodeId) -> Result<(), EspressoError> {
        if !self.nodes.read().contains_key(&id) {
            return Err(EspressoError::Cluster(format!("unknown node {id}")));
        }
        let participant = Participant::join(&self.zk, "espresso", id)?;
        self.participants.lock().insert(id, participant);
        self.controller.rebalance_all()?;
        Ok(())
    }

    /// Cluster expansion: adds a brand-new node and re-spreads every
    /// database over the enlarged node set (bootstrap → catch-up →
    /// mastership handoff, driven by Helix).
    pub fn add_node(self: &Arc<Self>, id: NodeId) -> Result<(), EspressoError> {
        if self.nodes.read().contains_key(&id) {
            return Err(EspressoError::Cluster(format!("{id} already exists")));
        }
        self.attach_node(id)?;
        let node_ids: Vec<NodeId> = {
            let mut ids: Vec<NodeId> = self.nodes.read().keys().copied().collect();
            ids.sort();
            ids
        };
        // Seed replicas before mastership can move: pump so the newcomer
        // can bootstrap once the controller assigns it slave roles.
        let databases: Vec<String> = self.schemas.read().keys().cloned().collect();
        for db in &databases {
            self.controller.expand_resource(db, &node_ids)?;
            self.pump_replication()?;
            // A second rebalance lets any mastership handoffs planned
            // against now-bootstrapped slaves settle.
            self.controller.rebalance(db)?;
            self.pump_replication()?;
        }
        Ok(())
    }
}

/// Chaos-scheduler hooks: a crash expires the node's Helix session and
/// fails over its masterships ([`EspressoCluster::crash_node`]); a restart
/// rejoins and rebalances ([`EspressoCluster::restart_node`]). Errors are
/// swallowed — the scheduler may race a node that is already gone, and a
/// chaos run must not abort mid-schedule.
impl li_commons::chaos::FaultHooks for EspressoCluster {
    fn crash(&self, node: NodeId) {
        let _ = self.crash_node(node);
    }

    fn restart(&self, node: NodeId) {
        let _ = self.restart_node(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DatabaseSchema, TableSchema};
    use li_commons::schema::{Field, FieldType, RecordSchema, Value};

    const DB: &str = "Profiles";

    fn cluster_with_db(nodes: u16) -> Arc<EspressoCluster> {
        let schema = DatabaseSchema::new(DB, 8, 2)
            .with_table(
                TableSchema::new("Profile", ["member"]),
                RecordSchema::new(
                    "Profile",
                    1,
                    vec![Field::new("text", FieldType::Str)],
                )
                .unwrap(),
            )
            .unwrap();
        let cluster = EspressoCluster::new(nodes).unwrap();
        cluster.create_database(schema).unwrap();
        cluster
    }

    fn profile(text: &str) -> Record {
        Record::new().with("text", Value::Str(text.into()))
    }

    fn seed_members(cluster: &EspressoCluster, count: u64) -> Vec<RowKey> {
        (0..count)
            .map(|m| {
                let key = RowKey::new([format!("member-{m}").as_str()]);
                cluster
                    .put(DB, "Profile", key.clone(), &profile(&format!("text {m}")))
                    .unwrap();
                key
            })
            .collect()
    }

    #[test]
    fn multi_get_matches_singleton_gets_in_input_order() {
        for mode in [FanOutMode::Deterministic, FanOutMode::Parallel] {
            let cluster = cluster_with_db(3);
            cluster.set_fan_out_mode(mode);
            let keys = seed_members(&cluster, 40);
            // Shuffle-ish order plus a miss in the middle.
            let mut request: Vec<RowKey> = keys.iter().rev().cloned().collect();
            request.insert(7, RowKey::new(["member-nope"]));
            let batched = cluster.multi_get(DB, "Profile", request.clone()).unwrap();
            assert_eq!(batched.len(), request.len());
            for (key, got) in request.iter().zip(&batched) {
                let single = cluster.get(DB, "Profile", key).unwrap();
                assert_eq!(
                    single.as_ref().map(|(r, _)| r),
                    got.as_ref().map(|(r, _)| r),
                    "mode {mode:?}, key {key:?}"
                );
            }
            assert!(batched[7].is_none());
        }
    }

    #[test]
    fn multi_put_lands_documents_and_returns_etags_in_input_order() {
        for mode in [FanOutMode::Deterministic, FanOutMode::Parallel] {
            let cluster = cluster_with_db(3);
            cluster.set_fan_out_mode(mode);
            let documents: Vec<(RowKey, Record)> = (0..30)
                .map(|m| {
                    (
                        RowKey::new([format!("member-{m}").as_str()]),
                        profile(&format!("bulk {m}")),
                    )
                })
                .collect();
            let etags = cluster.multi_put(DB, "Profile", documents.clone()).unwrap();
            assert_eq!(etags.len(), documents.len());
            for ((key, record), etag) in documents.iter().zip(&etags) {
                let (got, row) = cluster.get(DB, "Profile", key).unwrap().unwrap();
                assert_eq!(&got, record);
                assert_eq!(row.etag, *etag, "etag mismatch for {key:?} in {mode:?}");
            }
        }
    }

    #[test]
    fn multi_key_request_accounting_is_batch_size_invariant() {
        let singly = cluster_with_db(3);
        seed_members(&singly, 24);
        let batched = cluster_with_db(3);
        batched
            .multi_put(
                DB,
                "Profile",
                (0..24)
                    .map(|m| {
                        (
                            RowKey::new([format!("member-{m}").as_str()]),
                            profile(&format!("text {m}")),
                        )
                    })
                    .collect(),
            )
            .unwrap();
        let requests = |cluster: &EspressoCluster| {
            cluster
                .metrics()
                .snapshot()
                .counter("espresso.router.requests")
                .unwrap()
        };
        assert_eq!(requests(&singly), requests(&batched));
    }

    #[test]
    fn deterministic_multi_key_requests_spawn_no_pool() {
        let cluster = cluster_with_db(2);
        seed_members(&cluster, 10);
        let keys: Vec<RowKey> = (0..10)
            .map(|m| RowKey::new([format!("member-{m}").as_str()]))
            .collect();
        cluster.multi_get(DB, "Profile", keys).unwrap();
        assert!(
            cluster.fan_out_pool.get().is_none(),
            "Deterministic mode must not lazily create the fan-out pool"
        );
    }
}
