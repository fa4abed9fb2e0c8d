//! The Espresso storage node.
//!
//! "The storage node maintains a consistent view of each document in a
//! local data store and optionally indexes each document in a local
//! secondary index based on the index constraints specified in the
//! document schema. The initial implementation stores documents in MySQL
//! as the local data store and Lucene for the local secondary index"
//! (§IV.B). Here the local data store is an `li-sqlstore` [`Database`]
//! (one instance, one binlog per node — the paper's sequential-I/O
//! argument) and the index is [`InvertedIndex`].
//!
//! Writes are accepted only for partitions this node currently *masters*
//! (normally one writer per partition exists cluster-wide); every commit
//! ships semi-synchronously to the node's Databus relay before it is
//! acknowledged. Each slave partition is fed by one Databus client on its
//! source's relay (`StorageNode::follow`), applied in commit order —
//! timeline consistency. A new stream starts from the source's full image
//! of the partition, which replaces the local copy, and a stream whose
//! source changes (another node, or a later mastership term of the same
//! one) is dropped and started anew, since a relay holds only what its
//! node committed as master.

use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

use li_commons::ring::NodeId;
use li_commons::schema::{Record, SchemaVersion};
use li_databus::{
    ConsumerCallback, DatabusClient, DatabusError, Fallback, FallbackWindow, Relay, ServerFilter,
    Window,
};
use li_sqlstore::{Database, Op, Row, RowChange, RowKey, Scn};

use crate::index::InvertedIndex;
use crate::schema::{DatabaseSchema, EspressoError};

/// Shared, evolvable database schema handle.
pub type SchemaHandle = Arc<RwLock<DatabaseSchema>>;

fn qualified(db: &str, table: &str) -> String {
    format!("{db}.{table}")
}

/// One storage node.
pub struct StorageNode {
    id: NodeId,
    store: Arc<Database>,
    relay: Arc<Relay>,
    schemas: RwLock<HashMap<String, SchemaHandle>>,
    indexes: Mutex<HashMap<String, InvertedIndex>>,
    /// (database, partition) pairs this node currently masters.
    mastered: RwLock<HashSet<(String, u32)>>,
    /// The latest mastership term per (database, partition).
    terms: Mutex<HashMap<(String, u32), Term>>,
    /// The replication stream of each slave partition.
    streams: Mutex<HashMap<(String, u32), Stream>>,
}

/// One term of a node's mastership of a partition. A follower tells the
/// current term from an earlier one, whose relay lacks what another
/// master wrote in between.
#[derive(Debug, Clone, Copy, Default)]
struct Term {
    /// Counts the node's promotions for the partition; 0 before the first.
    number: u64,
    /// The node's relay SCN at promotion: every commit of the term is newer.
    start: Scn,
    /// The master the node took the partition over from. Its copy holds
    /// all the node held at `start`, so it follows the term from `start`
    /// without an image.
    predecessor: Option<NodeId>,
}

/// A slave partition's replication stream: one Databus client on its
/// source's relay.
struct Stream {
    /// The source node and its term number when the stream started.
    from: (NodeId, u64),
    client: DatabusClient,
}

impl std::fmt::Debug for StorageNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageNode")
            .field("id", &self.id)
            .field("mastered", &self.mastered.read().len())
            .field("last_scn", &self.store.last_scn())
            .finish()
    }
}

impl StorageNode {
    /// Creates a node whose commits ship semi-synchronously to `relay`.
    pub fn new(id: NodeId, relay: Arc<Relay>) -> Self {
        let store = Arc::new(Database::new(format!("espresso-node-{}", id.0)));
        store.set_shipper(relay.clone());
        StorageNode {
            id,
            store,
            relay,
            schemas: RwLock::new(HashMap::new()),
            indexes: Mutex::new(HashMap::new()),
            mastered: RwLock::new(HashSet::new()),
            terms: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The relay this node publishes its binlog to.
    pub fn relay(&self) -> &Arc<Relay> {
        &self.relay
    }

    /// Commit SCN of the local store.
    pub fn last_scn(&self) -> Scn {
        self.store.last_scn()
    }

    /// Provisions the local tables and index structures for a database.
    pub fn create_database(&self, schema: SchemaHandle) -> Result<(), EspressoError> {
        let (name, tables) = {
            let s = schema.read();
            (s.name.clone(), s.tables.keys().cloned().collect::<Vec<_>>())
        };
        for table in &tables {
            self.store.create_table(qualified(&name, table))?;
            self.indexes
                .lock()
                .insert(qualified(&name, table), InvertedIndex::new());
        }
        self.schemas.write().insert(name, schema);
        Ok(())
    }

    fn schema(&self, db: &str) -> Result<SchemaHandle, EspressoError> {
        self.schemas
            .read()
            .get(db)
            .cloned()
            .ok_or_else(|| EspressoError::UnknownDatabase(db.into()))
    }

    /// Makes this node master of `(db, partition)`, taking it over from
    /// `predecessor` — called by the Helix transition handler on
    /// Slave→Master. A promotion starts a new term, and a master follows
    /// no one: its stream goes.
    pub(crate) fn promote(&self, db: &str, partition: u32, predecessor: Option<NodeId>) {
        let key = (db.to_string(), partition);
        self.drop_stream(db, partition);
        let mut terms = self.terms.lock();
        let term = terms.entry(key.clone()).or_default();
        *term = Term {
            number: term.number + 1,
            start: self.store.last_scn(),
            predecessor,
        };
        self.mastered.write().insert(key);
    }

    /// Ends this node's mastership of `(db, partition)` (Master→Slave).
    pub(crate) fn demote(&self, db: &str, partition: u32) {
        self.mastered.write().remove(&(db.to_string(), partition));
    }

    /// This node's latest mastership term for `(db, partition)`.
    fn term(&self, db: &str, partition: u32) -> Term {
        let terms = self.terms.lock();
        terms.get(&(db.to_string(), partition)).copied().unwrap_or_default()
    }

    /// True when this node masters `(db, partition)`.
    pub fn is_master(&self, db: &str, partition: u32) -> bool {
        self.mastered.read().contains(&(db.to_string(), partition))
    }

    fn check_master(&self, db: &str, resource_id: &str) -> Result<u32, EspressoError> {
        let schema = self.schema(db)?;
        let partition = schema.read().partition_of(resource_id);
        if !self.is_master(db, partition) {
            return Err(EspressoError::NotMaster { partition });
        }
        Ok(partition)
    }

    fn validate_key(
        schema: &DatabaseSchema,
        table: &str,
        key: &RowKey,
    ) -> Result<(), EspressoError> {
        let table_schema = schema.table(table)?;
        if key.parts().len() != table_schema.key_depth() {
            return Err(EspressoError::BadRequest(format!(
                "table `{table}` keys have {} elements, got {}",
                table_schema.key_depth(),
                key.parts().len()
            )));
        }
        Ok(())
    }

    fn index_record(&self, db: &str, table: &str, key: &RowKey, record: &Record) {
        let schema = match self.schema(db) {
            Ok(s) => s,
            Err(_) => return,
        };
        let schema = schema.read();
        let Ok(doc_schema) = schema.documents.latest(table) else {
            return;
        };
        let mut indexes = self.indexes.lock();
        let Some(index) = indexes.get_mut(&qualified(db, table)) else {
            return;
        };
        let fields: Vec<(&str, &li_commons::schema::Value)> = doc_schema
            .indexed_fields()
            .filter_map(|f| record.get(&f.name).map(|v| (f.name.as_str(), v)))
            .collect();
        index.index_document(key, fields);
    }

    /// Tables of `db` whose replicated rows are decoded to keep the local
    /// index: the latest document schema indexes a field, or the index
    /// still holds documents. A row of any other table would decode only
    /// to index no term.
    fn tables_to_index(&self, db: &str) -> HashSet<String> {
        let Ok(schema) = self.schema(db) else {
            return HashSet::new();
        };
        let schema = schema.read();
        let indexes = self.indexes.lock();
        schema
            .tables
            .keys()
            .filter(|table| {
                let indexes_a_field = schema
                    .documents
                    .latest(table)
                    .is_ok_and(|doc| doc.indexed_fields().next().is_some());
                let holds_documents = indexes
                    .get(&qualified(db, table))
                    .is_some_and(|index| index.doc_count() > 0);
                indexes_a_field || holds_documents
            })
            .cloned()
            .collect()
    }

    fn unindex(&self, db: &str, table: &str, key: &RowKey) {
        if let Some(index) = self.indexes.lock().get_mut(&qualified(db, table)) {
            index.remove_document(key);
        }
    }

    /// Encodes + validates a record under the table's latest document
    /// schema. Returns `(bytes, version)`.
    fn encode_document(
        &self,
        db: &str,
        table: &str,
        record: &Record,
    ) -> Result<(Vec<u8>, SchemaVersion), EspressoError> {
        let schema = self.schema(db)?;
        let schema = schema.read();
        let doc_schema = schema.documents.latest(table)?;
        let bytes = li_commons::schema::encode(&doc_schema, record)?;
        Ok((bytes, doc_schema.version))
    }

    /// Decodes stored bytes, resolving from the writer schema version to
    /// the latest (schema evolution on read).
    fn decode_document(
        &self,
        db: &str,
        table: &str,
        row: &Row,
    ) -> Result<Record, EspressoError> {
        let schema = self.schema(db)?;
        let schema = schema.read();
        let writer = schema.documents.get(table, row.schema_version)?;
        let reader = schema.documents.latest(table)?;
        Ok(li_commons::schema::resolve(&writer, &reader, &row.value)?)
    }

    /// Writes one document (master path). Returns the new etag.
    pub fn put_document(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
        record: &Record,
    ) -> Result<u64, EspressoError> {
        // The returned commit SCN doubles as the document's etag.
        self.put_transactional(db, vec![(table.to_string(), key, record.clone())])
    }

    /// Conditional write: fails unless the stored etag matches
    /// `expected_etag` (0 = must not exist).
    pub fn put_document_if_match(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
        expected_etag: u64,
        record: &Record,
    ) -> Result<u64, EspressoError> {
        let resource = key
            .resource_id()
            .ok_or_else(|| EspressoError::BadRequest("empty key".into()))?
            .to_string();
        self.check_master(db, &resource)?;
        {
            let schema = self.schema(db)?;
            Self::validate_key(&schema.read(), table, &key)?;
        }
        let (bytes, version) = self.encode_document(db, table, record)?;
        let scn = self
            .store
            .put_if_etag(&qualified(db, table), key.clone(), expected_etag, bytes, version)?;
        self.index_record(db, table, &key, record);
        Ok(scn)
    }

    /// Transactional multi-document write: "tables with a common
    /// resource_id schema may be updated transactionally. ... Espresso
    /// guarantees either all updates commit successfully or none commit."
    /// All keys must share the same resource id (hence partition).
    pub fn put_transactional(
        &self,
        db: &str,
        documents: Vec<(String, RowKey, Record)>,
    ) -> Result<Scn, EspressoError> {
        if documents.is_empty() {
            return Err(EspressoError::BadRequest("empty transaction".into()));
        }
        let resource = documents[0]
            .1
            .resource_id()
            .ok_or_else(|| EspressoError::BadRequest("empty key".into()))?
            .to_string();
        for (_, key, _) in &documents {
            if key.resource_id() != Some(resource.as_str()) {
                return Err(EspressoError::BadRequest(
                    "transactional updates must share a resource_id".into(),
                ));
            }
        }
        self.check_master(db, &resource)?;

        let schema = self.schema(db)?;
        let mut txn = self.store.begin();
        let mut encoded = Vec::with_capacity(documents.len());
        {
            let schema = schema.read();
            for (table, key, record) in documents {
                Self::validate_key(&schema, &table, &key)?;
                let doc_schema = schema.documents.latest(&table)?;
                let bytes = li_commons::schema::encode(&doc_schema, &record)?;
                txn.put(
                    qualified(db, &table),
                    key.clone(),
                    bytes,
                    doc_schema.version,
                );
                encoded.push((table, key, record));
            }
        }
        let scn = self.store.commit(txn)?;
        for (table, key, record) in &encoded {
            self.index_record(db, table, key, record);
        }
        Ok(scn)
    }

    /// Deletes a document (master path).
    pub fn delete_document(
        &self,
        db: &str,
        table: &str,
        key: RowKey,
    ) -> Result<(), EspressoError> {
        let resource = key
            .resource_id()
            .ok_or_else(|| EspressoError::BadRequest("empty key".into()))?
            .to_string();
        self.check_master(db, &resource)?;
        self.store.delete_one(&qualified(db, table), key.clone())?;
        self.unindex(db, table, &key);
        Ok(())
    }

    /// Reads one document plus its metadata row.
    pub fn get_document(
        &self,
        db: &str,
        table: &str,
        key: &RowKey,
    ) -> Result<Option<(Record, Row)>, EspressoError> {
        Ok(self.get_documents(db, table, [key])?.pop().flatten())
    }

    /// Reads documents of one table plus their metadata rows, in `keys`
    /// order. The table name is qualified, the schema read-locked and the
    /// reader schema looked up once per call; a writer schema is looked up
    /// only for a row stored under an older version.
    pub fn get_documents<'k>(
        &self,
        db: &str,
        table: &str,
        keys: impl IntoIterator<Item = &'k RowKey>,
    ) -> Result<Vec<Option<(Record, Row)>>, EspressoError> {
        let name = qualified(db, table);
        let schema = self.schema(db)?;
        let schema = schema.read();
        let reader = schema.documents.latest(table)?;
        keys.into_iter()
            .map(|key| {
                let Some(row) = self.store.get(&name, key)? else {
                    return Ok(None);
                };
                let record = if row.schema_version == reader.version {
                    li_commons::schema::decode(&reader, &row.value)?
                } else {
                    let writer = schema.documents.get(table, row.schema_version)?;
                    li_commons::schema::resolve(&writer, &reader, &row.value)?
                };
                Ok(Some((record, row)))
            })
            .collect()
    }

    /// Reads a collection: every document under `prefix`, in key order.
    pub fn get_collection(
        &self,
        db: &str,
        table: &str,
        prefix: &RowKey,
    ) -> Result<Vec<(RowKey, Record)>, EspressoError> {
        let rows = self.store.scan_prefix(&qualified(db, table), prefix)?;
        rows.into_iter()
            .map(|(key, row)| Ok((key.clone(), self.decode_document(db, table, &row)?)))
            .collect()
    }

    /// Secondary-index query within a collection: consult the local index,
    /// then fetch matching documents from the local store.
    pub fn query(
        &self,
        db: &str,
        table: &str,
        collection: Option<&RowKey>,
        field: &str,
        term: &str,
    ) -> Result<Vec<(RowKey, Record)>, EspressoError> {
        let keys = {
            let indexes = self.indexes.lock();
            let index = indexes
                .get(&qualified(db, table))
                .ok_or_else(|| EspressoError::UnknownTable(table.into()))?;
            index.query(field, term, collection)
        };
        keys.into_iter()
            .filter_map(|key| match self.store.get(&qualified(db, table), &key) {
                Ok(Some(row)) => Some(
                    self.decode_document(db, table, &row)
                        .map(|record| (key, record)),
                ),
                _ => None,
            })
            .collect()
    }

    /// Every row of `(db, partition)` across all tables, as one window of
    /// puts whose `scn` is where a follower resumes this node's relay —
    /// the full image a new stream starts from.
    pub fn snapshot_partition(&self, db: &str, partition: u32) -> Result<Window, EspressoError> {
        let schema = self.schema(db)?;
        let schema = schema.read();
        // Read the SCN *before* copying: replaying (scn, now] over the copy
        // is idempotent, so at-least-once is safe; reading it after could
        // miss commits that landed mid-copy.
        let scn = self.store.last_scn();
        let mut changes = Vec::new();
        for table in schema.tables.keys() {
            let table = qualified(db, table);
            for (key, row) in self.store.scan_prefix(&table, &RowKey::default())? {
                if key.resource_id().is_some_and(|r| schema.partition_of(r) == partition) {
                    changes.push(RowChange { table: table.clone(), key, op: Op::Put(row) });
                }
            }
        }
        let source_db = self.relay.source_db().to_string();
        Ok(Window { source_db, scn, timestamp: 0, changes })
    }

    /// Catches `(db, partition)` up from `source` through this node's one
    /// stream for it ("we first bootstrap the new partition from a
    /// snapshot taken from the original master partition, and then apply
    /// any changes since the snapshot from the Databus Relay"). A stream
    /// from another source, or from an earlier term of this one, is
    /// dropped first; the new one starts from `source`'s image, or from its
    /// term's start when `source` took the partition over from this node.
    /// Returns windows applied, an image counting as one.
    pub(crate) fn follow(
        self: &Arc<Self>,
        db: &str,
        partition: u32,
        source: &Arc<StorageNode>,
    ) -> Result<usize, EspressoError> {
        let term = source.term(db, partition);
        let from = (source.id, term.number);
        let key = (db.to_string(), partition);
        let mut streams = self.streams.lock();
        if let Some(stream) = streams.get(&key).filter(|stream| stream.from == from) {
            return Ok(stream.client.catch_up()?);
        }
        streams.remove(&key);
        let filter = {
            let schema = self.schema(db)?;
            let schema = schema.read();
            ServerFilter {
                tables: Some(schema.tables.keys().map(|t| qualified(db, t)).collect()),
                partitions: Some((schema.num_partitions, vec![partition])),
            }
        };
        let ends = Arc::new(StreamEnds {
            target: Arc::downgrade(self),
            source: Arc::downgrade(source),
            db: db.to_string(),
            partition,
            to_index: Mutex::default(),
        });
        let name = format!("espresso-node-{}-{db}-p{partition}", self.id.0);
        let client = DatabusClient::new(&name, source.relay.clone(), Some(ends.clone()), ends)
            .with_filter(filter)
            .with_batch(usize::MAX);
        let imaged = if term.predecessor == Some(self.id) {
            client.set_checkpoint(term.start);
            0
        } else {
            client.bootstrap()?
        };
        let applied = imaged + client.catch_up()?;
        streams.insert(key, Stream { from, client });
        Ok(applied)
    }

    /// True when this node can catch `(db, partition)` up from `source`'s
    /// relay alone, even with `source` down: it follows `source`'s current
    /// term, or `source` took the partition over from it.
    pub(crate) fn resumes(&self, db: &str, partition: u32, source: &StorageNode) -> bool {
        let term = source.term(db, partition);
        let streams = self.streams.lock();
        let stream = streams.get(&(db.to_string(), partition));
        term.predecessor == Some(self.id)
            || stream.is_some_and(|stream| stream.from == (source.id, term.number))
    }

    /// Stops following `(db, partition)`.
    pub(crate) fn drop_stream(&self, db: &str, partition: u32) {
        self.streams.lock().remove(&(db.to_string(), partition));
    }

    /// Applies one replicated window in commit order and keeps the local
    /// index, decoding only rows of the `to_index` tables.
    fn apply_replicated(
        &self,
        window: &Window,
        to_index: &HashSet<String>,
    ) -> Result<(), EspressoError> {
        self.store.apply_changes(&window.changes)?;
        for change in &window.changes {
            let Some((db, table)) = change.table.split_once('.') else {
                continue;
            };
            match &change.op {
                Op::Put(row) if to_index.contains(table) => {
                    if let Ok(record) = self.decode_document(db, table, row) {
                        self.index_record(db, table, &change.key, &record);
                    }
                }
                Op::Put(_) => {}
                Op::Delete => self.unindex(db, table, &change.key),
            }
        }
        Ok(())
    }

    /// Number of documents stored for `(db, table)` (diagnostics).
    pub fn doc_count(&self, db: &str, table: &str) -> Result<usize, EspressoError> {
        Ok(self.store.row_count(&qualified(db, table))?)
    }
}

/// The two ends of a slave partition's stream: as the consumer it applies
/// windows to `target`; as the fall-back it serves `source`'s image, which
/// replaces the partition on `target` rather than overlaying it. Weak, so
/// two nodes following each other do not keep each other alive.
struct StreamEnds {
    target: Weak<StorageNode>,
    source: Weak<StorageNode>,
    db: String,
    partition: u32,
    /// The tables whose rows are decoded for the local index, derived once
    /// per batch.
    to_index: Mutex<HashSet<String>>,
}

fn upgrade(node: &Weak<StorageNode>) -> Result<Arc<StorageNode>, String> {
    node.upgrade().ok_or_else(|| "storage node dropped".to_string())
}

impl ConsumerCallback for StreamEnds {
    fn on_batch_start(&self) {
        if let Some(target) = self.target.upgrade() {
            *self.to_index.lock() = target.tables_to_index(&self.db);
        }
    }

    fn on_snapshot_start(&self) -> Result<(), String> {
        let target = upgrade(&self.target)?;
        let mut local = target
            .snapshot_partition(&self.db, self.partition)
            .map_err(|e| e.to_string())?;
        for change in &mut local.changes {
            change.op = Op::Delete;
        }
        target
            .apply_replicated(&local, &HashSet::new())
            .map_err(|e| e.to_string())
    }

    fn on_window(&self, window: &Window) -> Result<(), String> {
        upgrade(&self.target)?
            .apply_replicated(window, &self.to_index.lock())
            .map_err(|e| e.to_string())
    }
}

impl Fallback for StreamEnds {
    fn window(
        &self,
        _relay: &Relay,
        _checkpoint: Scn,
        _filter: &ServerFilter,
    ) -> Result<FallbackWindow, DatabusError> {
        let image = upgrade(&self.source)
            .and_then(|source| {
                source.snapshot_partition(&self.db, self.partition).map_err(|e| e.to_string())
            })
            .map_err(DatabusError::Fallback)?;
        Ok(FallbackWindow { window: image, full_image: true })
    }
}
