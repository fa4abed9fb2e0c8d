//! Global secondary indexes — the paper's stated future enhancement.
//!
//! §IV.A: "At present, indexed access is limited to collection resources
//! accessed via a common resource_id in the URI path. Future enhancements
//! will implement global secondary indexes maintained via a listener to
//! the update stream." This module builds that enhancement on the
//! machinery that already exists: every storage node's commits flow
//! through its Databus relay, so a listener consuming all relays sees
//! every committed write exactly once (slave applies and bootstrap copies
//! never re-ship) and can maintain a cluster-wide index.
//!
//! Unlike the local index (updated transactionally with the write), the
//! global index is **eventually consistent**: it trails the update stream
//! by the pump interval — the standard trade-off for cross-partition
//! queries.
//!
//! Relays are read one after the other, in node order, so once a
//! partition's mastership has moved, its new master's newer writes can be
//! read before its old master's older ones. The listener therefore keeps,
//! per partition, the relay that last delivered a change for it, and
//! indexes from the stream only what that relay delivers. A change that
//! arrives from any other relay is not indexed as read: its key is
//! re-read through the router once the relays are read, and the document
//! found there (or its absence) is what the index holds.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use li_commons::ring::NodeId;
use li_commons::schema::{Record, Value};
use li_databus::ServerFilter;
use li_sqlstore::{Op, RowKey, Scn};

use crate::cluster::EspressoCluster;
use crate::index::InvertedIndex;
use crate::schema::EspressoError;

/// A cluster-wide secondary index over one field of one table, fed by
/// the update stream of every storage node.
pub struct GlobalIndex {
    cluster: Arc<EspressoCluster>,
    db: String,
    table: String,
    field: String,
    index: Mutex<InvertedIndex>,
    /// Held for a whole pump, so pumps take turns.
    stream: Mutex<StreamState>,
}

/// Where the listener stands in the update stream. A pump works on a
/// copy and stores it only once its re-reads have succeeded, so a failed
/// pump is repeated in full by the next.
#[derive(Debug, Clone, Default)]
struct StreamState {
    /// Consumption progress per storage-node relay.
    checkpoints: HashMap<NodeId, Scn>,
    /// Partition -> the relay that last delivered a change for it.
    sources: HashMap<u32, NodeId>,
}

impl GlobalIndex {
    /// Creates a listener indexing `field` of `db`'s `table`. It starts at
    /// the head of history (SCN 0 on every relay), so create it before
    /// writing, or call [`GlobalIndex::pump`] to catch up.
    pub fn new(cluster: Arc<EspressoCluster>, db: &str, table: &str, field: &str) -> Self {
        GlobalIndex {
            cluster,
            db: db.to_string(),
            table: table.to_string(),
            field: field.to_string(),
            index: Mutex::new(InvertedIndex::new()),
            stream: Mutex::new(StreamState::default()),
        }
    }

    /// The indexed field of `record`, as [`InvertedIndex::index_document`]
    /// takes it.
    fn field_of<'a>(&'a self, record: &'a Record) -> Option<(&'a str, &'a Value)> {
        record.get(&self.field).map(|value| (self.field.as_str(), value))
    }

    /// Consumes new update-stream windows from every node's relay and
    /// folds them into the global index. Returns windows applied.
    pub fn pump(&self) -> Result<usize, EspressoError> {
        let mut stream = self.stream.lock();
        let mut next = stream.clone();
        // The relay each partition is indexed from in this pump: its last
        // source, or the first relay to bring it a change.
        let mut streaming: HashMap<u32, NodeId> = HashMap::new();
        let mut rereads = Vec::new();
        let schema = self.cluster.schema(&self.db)?;
        let filter = ServerFilter::for_tables([format!("{}.{}", self.db, self.table)]);
        let mut applied = 0;
        for (node, relay) in self.cluster.relays() {
            let checkpoint = stream.checkpoints.get(&node).copied().unwrap_or(0);
            let windows = relay
                .events_after_shared(checkpoint, usize::MAX, &filter)
                .map_err(|e| EspressoError::Replication(e.to_string()))?;
            let schema = schema.read();
            let reader = schema.documents.latest(&self.table)?;
            let mut index = self.index.lock();
            for window in &windows {
                for change in &window.changes {
                    let partition = schema.partition_of(change.key.resource_id().unwrap_or(""));
                    next.sources.insert(partition, node);
                    let source = *streaming
                        .entry(partition)
                        .or_insert_with(|| stream.sources.get(&partition).copied().unwrap_or(node));
                    if source != node {
                        rereads.push(change.key.clone());
                        continue;
                    }
                    match &change.op {
                        Op::Put(row) => {
                            // Decode under the writer schema, resolve to
                            // latest, index the field.
                            let Ok(writer) = schema.documents.get(&self.table, row.schema_version)
                            else {
                                continue;
                            };
                            let Ok(record) =
                                li_commons::schema::resolve(&writer, &reader, &row.value)
                            else {
                                continue;
                            };
                            index.index_document(&change.key, self.field_of(&record));
                        }
                        Op::Delete => index.remove_document(&change.key),
                    }
                }
                next.checkpoints.insert(node, window.scn);
                applied += 1;
            }
        }
        if !rereads.is_empty() {
            rereads.sort_unstable();
            rereads.dedup();
            let documents = self.cluster.multi_get(&self.db, &self.table, rereads.clone())?;
            let mut index = self.index.lock();
            for (key, document) in rereads.iter().zip(documents) {
                match document {
                    Some((record, _)) => index.index_document(key, self.field_of(&record)),
                    None => index.remove_document(key),
                }
            }
        }
        *stream = next;
        Ok(applied)
    }

    /// Global query: documents whose field holds every word of `words`,
    /// across *all* resources — the access pattern local indexes cannot
    /// serve. Returns the keys in key order; fetch the documents through
    /// the router as usual.
    pub fn query(&self, words: &str) -> Vec<RowKey> {
        self.index.lock().query(&self.field, words, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DatabaseSchema, PartitionStrategy, TableSchema};
    use li_commons::schema::{Field, FieldType, RecordSchema};

    /// `lyrics` is not annotated `.indexed()`: the global index is told
    /// its field, and no storage node builds a local index beside it.
    fn cluster_with_songs() -> Arc<EspressoCluster> {
        let schema = DatabaseSchema::new("Music", 8, 2)
            .with_table(
                TableSchema::new("Song", ["artist", "album", "song"]),
                RecordSchema::new("Song", 1, vec![Field::new("lyrics", FieldType::Str)]).unwrap(),
            )
            .unwrap();
        let cluster = EspressoCluster::new(3).unwrap();
        cluster.create_database(schema).unwrap();
        cluster
    }

    fn lyrics_index(cluster: &Arc<EspressoCluster>) -> GlobalIndex {
        GlobalIndex::new(cluster.clone(), "Music", "Song", "lyrics")
    }

    fn song(lyrics: &str) -> Record {
        Record::new().with("lyrics", Value::Str(lyrics.into()))
    }

    #[test]
    fn global_query_spans_resources() {
        let cluster = cluster_with_songs();
        // Songs by *different artists* mentioning the same word — a local
        // (per-resource) index can never answer this in one query.
        cluster
            .put("Music", "Song", RowKey::new(["Beatles", "Abbey", "Sun"]),
                 &song("here comes the sun"))
            .unwrap();
        cluster
            .put("Music", "Song", RowKey::new(["Nina", "Feeling", "Sunshine"]),
                 &song("sun in the sky you know how I feel"))
            .unwrap();
        cluster
            .put("Music", "Song", RowKey::new(["Adele", "25", "Hello"]),
                 &song("hello from the other side"))
            .unwrap();

        let global = lyrics_index(&cluster);
        assert!(global.pump().unwrap() > 0);
        let hits = global.query("sun");
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].resource_id(), Some("Beatles"));
        assert_eq!(hits[1].resource_id(), Some("Nina"));
        assert_eq!(global.query("the").len(), 3);
    }

    #[test]
    fn listener_is_eventually_consistent() {
        let cluster = cluster_with_songs();
        let global = lyrics_index(&cluster);
        cluster
            .put("Music", "Song", RowKey::new(["A", "B", "C"]), &song("eventual"))
            .unwrap();
        // Not yet pumped: the write is invisible globally.
        assert!(global.query("eventual").is_empty());
        global.pump().unwrap();
        assert_eq!(global.query("eventual").len(), 1);
        // Incremental pumps only process new windows.
        assert_eq!(global.pump().unwrap(), 0);
    }

    #[test]
    fn deletes_and_updates_propagate() {
        let cluster = cluster_with_songs();
        let global = lyrics_index(&cluster);
        let key = RowKey::new(["A", "B", "C"]);
        cluster.put("Music", "Song", key.clone(), &song("first words")).unwrap();
        global.pump().unwrap();
        cluster.put("Music", "Song", key.clone(), &song("second words")).unwrap();
        global.pump().unwrap();
        assert!(global.query("first").is_empty());
        assert_eq!(global.query("second").len(), 1);
        cluster.delete("Music", "Song", key).unwrap();
        global.pump().unwrap();
        assert!(global.query("words").is_empty());
    }

    #[test]
    fn a_failover_does_not_index_a_superseded_document() {
        // Each key's partition is mastered by node 2 and fails over to
        // node 0, whose relay is read first: the newer write arrives
        // before the older one.
        for k in [2, 3, 10, 11] {
            let cluster = cluster_with_songs();
            let global = lyrics_index(&cluster);
            let key = RowKey::new([format!("A{k}"), "B".into(), "s".into()]);
            cluster.put("Music", "Song", key.clone(), &song("first")).unwrap();
            cluster.pump_replication().unwrap();
            cluster.crash_node(NodeId(2)).unwrap();
            cluster.put("Music", "Song", key.clone(), &song("second")).unwrap();
            global.pump().unwrap();
            assert!(global.query("first").is_empty(), "A{k}");
            assert_eq!(global.query("second"), vec![key], "A{k}");
        }
    }

    #[test]
    fn a_node_added_later_is_followed() {
        let cluster = cluster_with_songs();
        let global = lyrics_index(&cluster);
        cluster.add_node(NodeId(3)).unwrap();
        let key = (0..64)
            .map(|i| RowKey::new([format!("A{i}"), "B".into(), "s".into()]))
            .find(|key| cluster.route("Music", key.resource_id().unwrap()).unwrap().1 == NodeId(3))
            .expect("the new node masters a partition");
        cluster.put("Music", "Song", key.clone(), &song("newcomer")).unwrap();
        global.pump().unwrap();
        assert_eq!(global.query("newcomer"), vec![key]);
    }

    #[test]
    fn unpartitioned_strategy_also_flows() {
        // Sanity: strategy only affects placement, not the update stream.
        let mut schema = DatabaseSchema::new("Tiny", 1, 1)
            .with_table(
                TableSchema::new("Doc", ["id"]),
                RecordSchema::new("Doc", 1, vec![Field::new("body", FieldType::Str)]).unwrap(),
            )
            .unwrap();
        schema.strategy = PartitionStrategy::Unpartitioned;
        let cluster = EspressoCluster::new(2).unwrap();
        cluster.create_database(schema).unwrap();
        cluster
            .put("Tiny", "Doc", RowKey::single("1"),
                 &Record::new().with("body", Value::Str("needle".into())))
            .unwrap();
        let global = GlobalIndex::new(cluster.clone(), "Tiny", "Doc", "body");
        global.pump().unwrap();
        assert_eq!(global.query("needle").len(), 1);
    }
}
