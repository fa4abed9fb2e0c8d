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
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Weak};

use li_commons::exec::FanOutMode;
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
type MasterBatch<K, T> = Vec<(usize, K, T)>;

/// A partition's mastership term: its master and the term's number.
type Term = (NodeId, u64);

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
    participants: Mutex<HashMap<NodeId, Participant>>,
    schemas: RwLock<HashMap<String, SchemaHandle>>,
    /// Cached external views, one watch receiver per database. The hot
    /// routing path reads the latest published assignment from here (one
    /// short lock + an `Arc` clone) instead of a coordination-service get
    /// plus JSON parse per request; the Helix controller pushes every
    /// rebalanced view into the watch.
    views: RwLock<HashMap<String, li_commons::watch::Receiver<Arc<li_helix::Assignment>>>>,
    /// Each partition's current mastership term: one timeline per
    /// partition that outlives every node. The number rises whenever the
    /// master changes.
    terms: Mutex<HashMap<(String, u32), Term>>,
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
            participants: Mutex::new(HashMap::new()),
            schemas: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            terms: Mutex::new(HashMap::new()),
            metrics: EspressoMetrics::new(&registry),
            registry,
        });
        let weak = Arc::downgrade(&cluster);
        cluster.controller.set_election_test(Arc::new(move |db, partition, node| {
            weak.upgrade().is_some_and(|cluster| cluster.electable(db, partition.0, node))
        }));
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
        let node = Arc::new(StorageNode::new(id, relay));
        // Existing databases get provisioned on the newcomer.
        for schema in self.schemas.read().values() {
            node.create_database(schema.clone())?;
        }
        self.nodes.write().insert(id, node.clone());
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
                // becomes a master partition." Helix elected this node only
                // if it can (`electable`); a new master starts a new term.
                let term = self.term(db, partition);
                if term.map(|(master, _)| master) != Some(node.id()) {
                    self.follow_term(node, db, partition)?;
                    let number = term.map_or(1, |(_, number)| number + 1);
                    self.terms.lock().insert((db.clone(), partition), (node.id(), number));
                }
                node.promote(db, partition);
                Ok(())
            }
            (ReplicaState::Master, ReplicaState::Slave) => {
                node.demote(db, partition);
                Ok(())
            }
            // A node that no longer hosts the partition stops following
            // it and keeps its rows, which a later stream's image replaces.
            (ReplicaState::Slave, ReplicaState::Offline) => {
                node.drop_stream(db, partition);
                Ok(())
            }
            // Offline→Slave streams from the next `pump_replication`, which
            // ends every cluster call that rebalances.
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
        let node_ids: Vec<NodeId> = self.relays().into_iter().map(|(id, _)| id).collect();
        self.controller.add_resource(config, &node_ids)?;
        self.pump_replication()?;
        Ok(())
    }

    /// The current mastership term of `(db, partition)`, `(master,
    /// number)`; `None` before its first master.
    fn term(&self, db: &str, partition: u32) -> Option<Term> {
        self.terms.lock().get(&(db.to_string(), partition)).copied()
    }

    /// Helix's election rule: a live `node` may master `(db, partition)`
    /// only if it can drain all the term master committed — it masters the
    /// term, its stream was opened on the term and has not fallen off the
    /// master's relay (which outlives the master), or the term's master is
    /// live to serve its image.
    fn electable(&self, db: &str, partition: u32, node: NodeId) -> bool {
        self.term(db, partition).is_none_or(|term @ (master, _)| {
            master == node
                || self.participants.lock().contains_key(&master)
                || self.node(node).is_ok_and(|node| node.follows(db, partition, term))
        })
    }

    /// Catches `node`'s copy of `(db, partition)` up through its stream
    /// from the term master (`StorageNode::follow`), if the partition has
    /// had a master. Returns windows applied.
    pub(crate) fn follow_term(
        &self,
        node: &Arc<StorageNode>,
        db: &str,
        partition: u32,
    ) -> Result<usize, EspressoError> {
        let Some((master, number)) = self.term(db, partition) else {
            return Ok(0);
        };
        node.follow(db, partition, &self.node(master)?, number)
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
        Ok(self.node(id)?.relay().clone())
    }

    /// Every storage node's relay, in node order — including nodes added
    /// since the caller last asked.
    pub(crate) fn relays(&self) -> Vec<(NodeId, Arc<Relay>)> {
        let nodes = self.nodes.read();
        let mut relays: Vec<_> = nodes.iter().map(|(id, n)| (*id, n.relay().clone())).collect();
        relays.sort_unstable_by_key(|(id, _)| *id);
        relays
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
    pub(crate) fn cached_view(&self, db: &str) -> Result<Arc<li_helix::Assignment>, EspressoError> {
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
        let view = self.cached_view(db)?;
        let schema = schema.read();
        Self::master_of(&schema, &view, resource_id)
    }

    /// The routing function (`schema`) and routing table (`view`) applied
    /// to one resource id: `(partition, master node)`.
    fn master_of(
        schema: &DatabaseSchema,
        view: &li_helix::Assignment,
        resource_id: &str,
    ) -> Result<(u32, NodeId), EspressoError> {
        let partition = schema.partition_of(resource_id);
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

    /// Selects nothing: [`Self::multi_get`] and [`Self::multi_put`] run
    /// inline in every mode. It stays only because the site benchmark
    /// calls it, and goes with `FanOutMode` in ROADMAP item 6 step 0.
    pub fn set_fan_out_mode(&self, _mode: FanOutMode) {}

    /// Groups `items` by their keys' master node (input order preserved
    /// within each group; groups in node order, so replays are stable)
    /// against the watch-cached assignment. The schema and the view are
    /// read once for the whole request.
    fn group_by_master<K: Borrow<RowKey>, T>(
        &self,
        db: &str,
        items: impl IntoIterator<Item = (K, T)>,
    ) -> Result<BTreeMap<NodeId, MasterBatch<K, T>>, EspressoError> {
        let schema = self.schema(db)?;
        let view = self.cached_view(db)?;
        let schema = schema.read();
        let mut groups: BTreeMap<NodeId, MasterBatch<K, T>> = BTreeMap::new();
        for (index, (key, payload)) in items.into_iter().enumerate() {
            let (_, master) = Self::master_of(&schema, &view, Self::resource_of(key.borrow())?)?;
            groups
                .entry(master)
                .or_default()
                .push((index, key, payload));
        }
        Ok(groups)
    }

    /// GET many documents in one routed request: keys are grouped by
    /// master node against the watch-cached assignment, and each node's
    /// keys are read with one [`StorageNode::get_documents`] call on the
    /// calling thread. Results come back in input order. Requests are
    /// counted per document, so router accounting is invariant to how
    /// callers batch.
    pub fn multi_get(
        &self,
        db: &str,
        table: &str,
        keys: Vec<RowKey>,
    ) -> Result<Vec<Option<(Record, Row)>>, EspressoError> {
        self.metrics.requests.add(keys.len() as u64);
        let _timer = self.metrics.request_latency.start_timer();
        let mut docs = vec![None; keys.len()];
        for (node_id, group) in self.group_by_master(db, keys.iter().map(|key| (key, ())))? {
            let node = self.node(node_id)?;
            let found = node.get_documents(db, table, group.iter().map(|(_, key, ())| *key))?;
            for ((index, ..), doc) in group.into_iter().zip(found) {
                docs[index] = doc;
            }
        }
        Ok(docs)
    }

    /// PUT many documents in one routed request — the streaming
    /// population loader's batched write path. Keys are grouped by master
    /// node as in [`Self::multi_get`], and each node's sub-batch is
    /// written on the calling thread, in node order. Returns the new
    /// etags in input order. Documents for *different* master nodes land
    /// independently (no cross-node transaction): every sub-batch runs,
    /// the first failed one in node order fails the call, and sub-batches
    /// that applied stay applied, exactly like issuing the PUTs singly.
    pub fn multi_put(
        &self,
        db: &str,
        table: &str,
        documents: Vec<(RowKey, Record)>,
    ) -> Result<Vec<u64>, EspressoError> {
        let total = documents.len();
        self.metrics.requests.add(total as u64);
        let _timer = self.metrics.request_latency.start_timer();
        let mut etags = vec![0; total];
        let mut first_error = None;
        for (node_id, group) in self.group_by_master(db, documents)? {
            // A failed sub-batch does not stop the others (a multi-key
            // write has no quorum semantics).
            let written = self.node(node_id).and_then(|node| {
                for (index, key, record) in group {
                    // The owned record moves into the node's write: one
                    // document, one transaction, as `put_document` writes.
                    let document = vec![(table.to_string(), key, record)];
                    etags[index] = node.put_transactional(db, document)?;
                }
                Ok(())
            });
            if let Err(error) = written {
                first_error.get_or_insert(error);
            }
        }
        first_error.map_or(Ok(etags), Err)
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
    fn query_uri(&self, uri: &str) -> Result<Vec<(RowKey, Record)>, EspressoError> {
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

    /// One replication pump: every slave partition catches up through its
    /// stream from the current master (`StorageNode::follow`). In
    /// production this runs continuously; tests and examples call it at
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
            let view = self.cached_view(&db)?;
            let partitions = (0..num_partitions).map(PartitionId);
            for pid in partitions.filter(|pid| view.master_of(*pid).is_some()) {
                for slave in view.slaves_of(pid) {
                    applied += self.follow_term(&self.node(slave)?, &db, pid.0)?;
                }
            }
        }
        Ok(applied)
    }

    /// Simulates a storage-node crash: its Helix session expires (ephemeral
    /// liveness gone), its store serves no image, the controller fails over
    /// and a pump follows. The node's relay stays up — the fault-tolerance
    /// property the paper relies on.
    pub fn crash_node(&self, id: NodeId) -> Result<(), EspressoError> {
        let participant = self.participants.lock().remove(&id);
        let participant =
            participant.ok_or_else(|| EspressoError::Cluster(format!("{id} not joined")))?;
        self.zk.expire(participant.session_id());
        self.node(id)?.set_up(false);
        self.controller.rebalance_all()?;
        self.metrics.failovers.inc();
        self.pump_replication()?;
        Ok(())
    }

    /// Brings a crashed node back: rejoins the cluster, rebalances and
    /// pumps. Its slave partitions resume their streams where the term is
    /// unchanged, or restart from the term master's image.
    pub fn restart_node(&self, id: NodeId) -> Result<(), EspressoError> {
        self.node(id)?.set_up(true);
        let participant = Participant::join(&self.zk, "espresso", id)?;
        self.participants.lock().insert(id, participant);
        self.controller.rebalance_all()?;
        self.pump_replication()?;
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
        let node_ids: Vec<NodeId> = self.relays().into_iter().map(|(id, _)| id).collect();
        // A newcomer elected master drains the term master's image first;
        // the pump opens the streams of the newcomer's slave partitions.
        let databases: Vec<String> = self.schemas.read().keys().cloned().collect();
        for db in &databases {
            self.controller.expand_resource(db, &node_ids)?;
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
        let cluster = cluster_with_db(3);
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
                "key {key:?}"
            );
        }
        assert!(batched[7].is_none());
    }

    fn bulk_documents(count: u64) -> Vec<(RowKey, Record)> {
        (0..count)
            .map(|m| {
                (
                    RowKey::new([format!("member-{m}").as_str()]),
                    profile(&format!("bulk {m}")),
                )
            })
            .collect()
    }

    #[test]
    fn multi_put_lands_documents_and_returns_etags_in_input_order() {
        let cluster = cluster_with_db(3);
        let documents = bulk_documents(30);
        let etags = cluster.multi_put(DB, "Profile", documents.clone()).unwrap();
        assert_eq!(etags.len(), documents.len());
        for ((key, record), etag) in documents.iter().zip(&etags) {
            let (got, row) = cluster.get(DB, "Profile", key).unwrap().unwrap();
            assert_eq!(&got, record);
            assert_eq!(row.etag, *etag, "etag mismatch for {key:?}");
        }
    }

    #[test]
    fn a_failed_sub_batch_fails_multi_put_but_the_other_masters_still_land() {
        let cluster = cluster_with_db(3);
        let mut documents = bulk_documents(30);
        let master = |key: &RowKey| cluster.route(DB, key.resource_id().unwrap()).unwrap().1;
        let last_master = documents.iter().map(|(key, _)| master(key)).max().unwrap();
        // The bad document's master is not last in node order, so a loop
        // that stopped at the first failed sub-batch would skip a later one.
        let bad = documents
            .iter()
            .position(|(key, _)| master(key) != last_master)
            .expect("30 keys spread over more than one master");
        let bad_master = master(&documents[bad].0);
        let resource = documents[bad].0.resource_id().unwrap().to_string();
        // One element too many: the storage node's `validate_key` rejects it.
        documents[bad].0 = RowKey::new([resource.as_str(), "extra"]);
        assert_eq!(master(&documents[bad].0), bad_master);

        let result = cluster.multi_put(DB, "Profile", documents.clone());
        assert!(
            matches!(result, Err(EspressoError::BadRequest(_))),
            "expected BadRequest, got {result:?}"
        );
        let others = documents.iter().filter(|(key, _)| master(key) != bad_master);
        for (key, record) in others {
            let landed = cluster.get(DB, "Profile", key).unwrap().map(|(got, _)| got);
            assert_eq!(landed.as_ref(), Some(record), "{key:?} did not land");
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

    /// A cluster of three nodes holding every partition on all three, and
    /// a key whose partition prefers nodes 0, 1, 2 in that order: the first
    /// live one masters it.
    fn cluster_and_key() -> (Arc<EspressoCluster>, RowKey) {
        let schema = DatabaseSchema::new(DB, 8, 3)
            .with_table(
                TableSchema::new("Profile", ["member"]),
                RecordSchema::new("Profile", 1, vec![Field::new("text", FieldType::Str)]).unwrap(),
            )
            .unwrap();
        let cluster = EspressoCluster::new(3).unwrap();
        cluster.create_database(schema).unwrap();
        let key = (0..64)
            .map(|m| RowKey::new([format!("m{m}").as_str()]))
            .find(|key| {
                let (partition, _) = cluster.route(DB, key.resource_id().unwrap()).unwrap();
                let preference = cluster.controller().preference_list(DB, PartitionId(partition));
                preference.unwrap() == [NodeId(0), NodeId(1), NodeId(2)]
            })
            .expect("a key on a partition node 0 masters");
        (cluster, key)
    }

    fn master_of(cluster: &EspressoCluster, key: &RowKey) -> NodeId {
        cluster.route(DB, key.resource_id().unwrap()).unwrap().1
    }

    #[test]
    fn a_rebootstrap_replaces_the_partition_instead_of_overlaying_it() {
        let (cluster, key) = cluster_and_key();
        cluster.put(DB, "Profile", key.clone(), &profile("deleted later")).unwrap();
        cluster.pump_replication().unwrap();
        cluster.crash_node(NodeId(1)).unwrap();
        cluster.delete(DB, "Profile", key.clone()).unwrap();
        cluster.pump_replication().unwrap();
        cluster.crash_node(NodeId(0)).unwrap();
        assert_eq!(master_of(&cluster, &key), NodeId(2));
        // Node 1 still holds the row: the stream it takes from node 2 when
        // it returns must install node 2's image as the whole partition.
        cluster.restart_node(NodeId(1)).unwrap();
        cluster.pump_replication().unwrap();
        cluster.crash_node(NodeId(2)).unwrap();
        assert_eq!(master_of(&cluster, &key), NodeId(1));
        let got = cluster.get(DB, "Profile", &key).unwrap();
        assert!(got.is_none(), "the deleted document came back: {got:?}");
    }

    #[test]
    fn a_source_that_regained_mastership_is_not_resumed() {
        let (m, s, t) = (NodeId(0), NodeId(1), NodeId(2));
        let (cluster, key) = cluster_and_key();
        let text = |cluster: &EspressoCluster| {
            let (record, _) = cluster.get(DB, "Profile", &key).unwrap().unwrap();
            record.get("text").cloned()
        };
        cluster.put(DB, "Profile", key.clone(), &profile("v0")).unwrap();
        cluster.pump_replication().unwrap();
        cluster.crash_node(s).unwrap();
        cluster.put(DB, "Profile", key.clone(), &profile("v1")).unwrap();
        cluster.pump_replication().unwrap();
        cluster.crash_node(m).unwrap();
        assert_eq!(master_of(&cluster, &key), t);
        cluster.put(DB, "Profile", key.clone(), &profile("v2")).unwrap();
        // S returns ahead of T and takes T's image, v2.
        cluster.restart_node(s).unwrap();
        assert_eq!(master_of(&cluster, &key), s);
        cluster.pump_replication().unwrap();
        // Mastership returns to M, whose relay holds v1 but not T's v2: S
        // must not resume its stream from M's earlier term.
        cluster.restart_node(m).unwrap();
        assert_eq!(master_of(&cluster, &key), m);
        cluster.pump_replication().unwrap();
        cluster.crash_node(m).unwrap();
        assert_eq!(master_of(&cluster, &key), s);
        assert_eq!(text(&cluster), Some(Value::Str("v2".into())), "the acked v2 was lost");
    }
}

