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
//! The listener reads each relay through a [`DatabusClient`] of its own,
//! one after the other, in node order, so once a partition's mastership
//! has moved, its new master's newer writes can be read before its old
//! master's older ones. The listener therefore keeps, per partition, the
//! relay that last delivered a change for it, and indexes from the stream
//! only what that relay delivers. A change that arrives from any other
//! relay is not indexed as read: its key is re-read through the router
//! once the relays are read, and the document found there (or its
//! absence) is what the index holds. A key stays pending until a re-read
//! succeeds.
//!
//! A client that falls off its relay re-reads the whole table from each
//! partition's master and resumes the relay at its newest SCN, read before
//! the scan; the index is rebuilt from that image under the same rule.

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use li_commons::ring::{NodeId, PartitionId};
use li_commons::schema::{Record, RecordSchema, Value};
use li_databus::{
    ConsumerCallback, DatabusClient, DatabusError, Fallback, FallbackWindow, Relay, ServerFilter,
    Window,
};
use li_sqlstore::{Op, RowChange, RowKey, Scn};

use crate::cluster::EspressoCluster;
use crate::index::InvertedIndex;
use crate::node::SchemaHandle;
use crate::schema::EspressoError;

/// A cluster-wide secondary index over one field of one table, fed by
/// the update stream of every storage node.
pub struct GlobalIndex {
    listener: Arc<Listener>,
    /// One client per storage-node relay, in node order. Held for a whole
    /// pump, so pumps take turns.
    clients: Mutex<BTreeMap<NodeId, DatabusClient>>,
}

/// Every client's consumer, and its fall-back.
struct Listener {
    cluster: Arc<EspressoCluster>,
    db: String,
    table: String,
    field: String,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    index: InvertedIndex,
    /// The relay whose windows are being delivered.
    relay: Option<NodeId>,
    /// Partition -> the relay that last delivered a change for it.
    sources: HashMap<u32, NodeId>,
    /// Partition -> the relay it is indexed from in the pump under way:
    /// its last source, or the first relay to bring it a change.
    streaming: HashMap<u32, NodeId>,
    /// Keys a relay other than their partition's source changed, to be
    /// re-read through the router.
    rereads: BTreeSet<RowKey>,
    /// The database and reader schemas, looked up once per batch.
    schemas: Option<(SchemaHandle, Arc<RecordSchema>)>,
}

impl GlobalIndex {
    /// Creates a listener indexing `field` of `db`'s `table`. It starts at
    /// the head of history (SCN 0 on every relay), so create it before
    /// writing, or call [`GlobalIndex::pump`] to catch up.
    pub fn new(cluster: Arc<EspressoCluster>, db: &str, table: &str, field: &str) -> Self {
        let (db, table, field) = (db.to_string(), table.to_string(), field.to_string());
        let state = Mutex::default();
        let listener = Arc::new(Listener { cluster, db, table, field, state });
        GlobalIndex { listener, clients: Mutex::default() }
    }

    /// Consumes new update-stream windows from every node's relay and
    /// folds them into the global index. Returns windows applied.
    pub fn pump(&self) -> Result<usize, EspressoError> {
        let listener = &self.listener;
        let mut clients = self.clients.lock();
        for (node, relay) in listener.cluster.relays() {
            clients.entry(node).or_insert_with(|| {
                let (table, field) = (&listener.table, &listener.field);
                let name = format!("global-index-{table}-{field}-node-{}", node.0);
                DatabusClient::new(&name, relay, Some(listener.clone()), listener.clone())
                    .with_filter(ServerFilter::for_tables([format!("{}.{table}", listener.db)]))
                    .with_batch(usize::MAX)
            });
        }
        listener.state.lock().streaming.clear();
        let mut applied = 0;
        for (node, client) in clients.iter() {
            listener.state.lock().relay = Some(*node);
            applied += client.catch_up()?;
        }
        listener.reread()?;
        Ok(applied)
    }

    /// Global query: documents whose field holds every word of `words`,
    /// across *all* resources — the access pattern local indexes cannot
    /// serve. Returns the keys in key order; fetch the documents through
    /// the router as usual.
    pub fn query(&self, words: &str) -> Vec<RowKey> {
        let state = self.listener.state.lock();
        state.index.query(&self.listener.field, words, None)
    }
}

impl Listener {
    /// The indexed field of `record`, as [`InvertedIndex::index_document`]
    /// takes it.
    fn field_of<'a>(&'a self, record: &'a Record) -> Option<(&'a str, &'a Value)> {
        record.get(&self.field).map(|value| (self.field.as_str(), value))
    }

    /// Re-reads the pending keys through the router and indexes what it
    /// finds there; on failure they stay pending for the next pump.
    fn reread(&self) -> Result<(), EspressoError> {
        let keys: Vec<RowKey> = self.state.lock().rereads.iter().cloned().collect();
        if keys.is_empty() {
            return Ok(());
        }
        let documents = self.cluster.multi_get(&self.db, &self.table, keys.clone())?;
        let mut state = self.state.lock();
        for (key, document) in keys.iter().zip(documents) {
            match document {
                Some((record, _)) => state.index.index_document(key, self.field_of(&record)),
                None => state.index.remove_document(key),
            }
            state.rereads.remove(key);
        }
        Ok(())
    }

    /// Every row of the table, read from each partition's master.
    fn table_image(&self) -> Result<Vec<RowChange>, EspressoError> {
        let num_partitions = self.cluster.schema(&self.db)?.read().num_partitions;
        let view = self.cluster.controller().external_view(&self.db)?;
        let table = format!("{}.{}", self.db, self.table);
        let mut changes = Vec::new();
        for partition in 0..num_partitions {
            let master = view.master_of(PartitionId(partition));
            let master = master.ok_or(EspressoError::NoMaster { partition })?;
            let image = self.cluster.node(master)?.snapshot_partition(&self.db, partition)?;
            changes.extend(image.changes.into_iter().filter(|change| change.table == table));
        }
        Ok(changes)
    }
}

/// A client that fell off its relay gets the whole table from each
/// partition's master, and resumes at the relay's newest SCN read before
/// the scan: what the relay holds past it is newer than the scan.
impl Fallback for Listener {
    fn window(
        &self,
        relay: &Relay,
        _checkpoint: Scn,
        _filter: &ServerFilter,
    ) -> Result<FallbackWindow, DatabusError> {
        let scn = relay.newest_scn();
        let changes = self.table_image().map_err(|e| DatabusError::Fallback(e.to_string()))?;
        let window = Window { source_db: relay.source_db().to_string(), scn, timestamp: 0, changes };
        Ok(FallbackWindow { window, full_image: true })
    }
}

impl ConsumerCallback for Listener {
    fn on_batch_start(&self) {
        let schemas = self.cluster.schema(&self.db).ok().and_then(|schema| {
            let reader = schema.read().documents.latest(&self.table).ok()?;
            Some((schema, reader))
        });
        self.state.lock().schemas = schemas;
    }

    /// The image's changes then go through the same per-partition rule.
    fn on_snapshot_start(&self) -> Result<(), String> {
        self.state.lock().index = InvertedIndex::new();
        Ok(())
    }

    fn on_window(&self, window: &Window) -> Result<(), String> {
        let mut state = self.state.lock();
        let State { index, relay, sources, streaming, rereads, schemas } = &mut *state;
        let (Some(node), Some((schema, reader))) = (*relay, schemas) else {
            return Err(format!("no schema for {}.{}", self.db, self.table));
        };
        let schema = schema.read();
        for change in &window.changes {
            let partition = schema.partition_of(change.key.resource_id().unwrap_or(""));
            let source = *streaming
                .entry(partition)
                .or_insert_with(|| sources.get(&partition).copied().unwrap_or(node));
            sources.insert(partition, node);
            if source != node {
                rereads.insert(change.key.clone());
                continue;
            }
            match &change.op {
                Op::Put(row) => {
                    // Decode under the writer schema, resolve to latest,
                    // index the field.
                    let Ok(writer) = schema.documents.get(&self.table, row.schema_version) else {
                        continue;
                    };
                    let Ok(record) = li_commons::schema::resolve(&writer, reader, &row.value)
                    else {
                        continue;
                    };
                    index.index_document(&change.key, self.field_of(&record));
                }
                Op::Delete => index.remove_document(&change.key),
            }
        }
        Ok(())
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

    #[test]
    fn a_slave_and_the_index_fallen_off_a_relay_catch_up_through_their_fall_backs() {
        let cluster = cluster_with_songs();
        let global = lyrics_index(&cluster);
        let keys: Vec<RowKey> = (0..)
            .map(|i| RowKey::new([format!("A{i}"), "B".into(), "s".into()]))
            .filter(|key| cluster.route("Music", key.resource_id().unwrap()).unwrap().1 == NodeId(0))
            .take(160)
            .collect();
        cluster.put("Music", "Song", keys[0].clone(), &song("first")).unwrap();
        cluster.pump_replication().unwrap();
        global.pump().unwrap();

        // ~64 KB documents past node 0's 8 MB relay, with nothing pumped.
        let filler = "x".repeat(64 << 10);
        for (i, key) in keys.iter().enumerate() {
            cluster.put("Music", "Song", key.clone(), &song(&format!("fat{i} {filler}"))).unwrap();
        }
        assert!(cluster.relay(NodeId(0)).unwrap().oldest_scn() > 2, "nothing was evicted");
        cluster.pump_replication().unwrap();
        global.pump().unwrap();

        let snapshot = cluster.metrics().snapshot();
        let switchovers = |client: &str| {
            snapshot.counter(&format!("databus.client.{client}.bootstrap_switchovers"))
        };
        assert_eq!(switchovers("global-index-Song-lyrics-node-0"), Some(1));
        let view = cluster.controller().external_view("Music").unwrap();
        for partition in (0..8).filter(|p| view.master_of(PartitionId(*p)) == Some(NodeId(0))) {
            let master = cluster.node(NodeId(0)).unwrap().snapshot_partition("Music", partition);
            for slave in view.slaves_of(PartitionId(partition)) {
                // The stream's first image, then the one it fell back to.
                let client = format!("espresso-node-{}-Music-p{partition}", slave.0);
                assert_eq!(switchovers(&client), Some(2), "{client}");
                let copy = cluster.node(slave).unwrap().snapshot_partition("Music", partition);
                assert_eq!(copy.unwrap().changes, master.as_ref().unwrap().changes, "{client}");
            }
        }
        assert_eq!(snapshot.gauge("databus.client.relay_lag_scns"), Some(0));
        assert!(global.query("first").is_empty());
        for i in [0, 80, 159] {
            assert_eq!(global.query(&format!("fat{i}")), vec![keys[i].clone()]);
        }
    }
}

