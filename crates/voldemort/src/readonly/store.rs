//! Pull + swap phases and the serving path of the read-only engine.

use bytes::Bytes;
use li_commons::clock::{VectorClock, Versioned};
use li_commons::md5::md5;
use li_commons::ring::{HashRing, NodeId, PartitionId};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::format;
use crate::engine::StorageEngine;
use crate::error::VoldemortError;

/// One fully-loaded store version: every partition's index and data files
/// held as immutable byte buffers — the analog of the paper's memory-mapped
/// files ("memory mapping the files delegates the caching to the operating
/// system's page-cache"; an in-process `Bytes` buffer has the same
/// zero-parse, share-on-read behaviour).
#[derive(Debug)]
struct LoadedVersion {
    version: u64,
    partitions: HashMap<u32, (Bytes, Bytes)>,
}

/// A data-cycle event on a read-only store — the "update stream to which
/// consumers can listen" named in the paper's future work (§II.C).
/// Downstream caches and precomputation jobs subscribe so they can react
/// the moment a new dataset version starts serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreEvent {
    /// A new version was swapped in.
    Swapped {
        /// The version now serving.
        version: u64,
    },
    /// The store rolled back to an earlier version.
    RolledBack {
        /// The version now serving.
        version: u64,
    },
}

/// A node's read-only store: versioned directories on disk, one loaded
/// (swapped-in) version serving traffic, and a history for rollback.
#[derive(Debug)]
pub struct ReadOnlyStore {
    node: NodeId,
    ring: HashRing,
    replication: usize,
    dir: PathBuf,
    current: RwLock<Option<Arc<LoadedVersion>>>,
    history: Mutex<Vec<Arc<LoadedVersion>>>,
    /// Source files in the order they were pulled; the tests assert
    /// data-before-index.
    #[cfg(test)]
    pull_log: Mutex<Vec<PathBuf>>,
    listeners: Mutex<Vec<Sender<StoreEvent>>>,
}

impl ReadOnlyStore {
    /// Opens (or creates) the store directory for `node`.
    pub fn open(
        dir: impl Into<PathBuf>,
        node: NodeId,
        ring: HashRing,
        replication: usize,
    ) -> Result<Self, VoldemortError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ReadOnlyStore {
            node,
            ring,
            replication,
            dir,
            current: RwLock::new(None),
            history: Mutex::new(Vec::new()),
            #[cfg(test)]
            pull_log: Mutex::new(Vec::new()),
            listeners: Mutex::new(Vec::new()),
        })
    }

    /// The node this store serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Subscribes to the store's update stream (swap/rollback events).
    pub fn subscribe(&self) -> Receiver<StoreEvent> {
        let (tx, rx) = unbounded();
        self.listeners.lock().push(tx);
        rx
    }

    fn emit(&self, event: StoreEvent) {
        self.listeners
            .lock()
            .retain(|tx| tx.send(event.clone()).is_ok());
    }

    /// Pull phase: fetches this node's build output into a new versioned
    /// directory. Data files are copied before index files (the paper's
    /// cache-locality optimization).
    pub fn pull(&self, build_node_dir: &Path, version: u64) -> Result<(), VoldemortError> {
        let version_dir = self.dir.join(format!("version-{version}"));
        fs::create_dir_all(&version_dir)?;

        let mut data_files = Vec::new();
        let mut index_files = Vec::new();
        if build_node_dir.is_dir() {
            for entry in fs::read_dir(build_node_dir)? {
                let path = entry?.path();
                match path.extension().and_then(|e| e.to_str()) {
                    Some("data") => data_files.push(path),
                    Some("index") => index_files.push(path),
                    _ => {}
                }
            }
        }
        data_files.sort();
        index_files.sort();

        for src in data_files.iter().chain(index_files.iter()) {
            let name = src.file_name().expect("file has name");
            let bytes = fs::read(src)?;
            fs::write(version_dir.join(name), &bytes)?;
            #[cfg(test)]
            self.pull_log.lock().push(src.clone());
        }
        Ok(())
    }

    /// Swap phase: loads `version` from disk and atomically makes it the
    /// serving version. The previously-current version goes onto the
    /// rollback history.
    pub fn swap(&self, version: u64) -> Result<(), VoldemortError> {
        let version_dir = self.dir.join(format!("version-{version}"));
        if !version_dir.is_dir() {
            return Err(VoldemortError::ReadOnly(format!(
                "version {version} not pulled"
            )));
        }
        let mut partitions = HashMap::new();
        for entry in fs::read_dir(&version_dir)? {
            let path = entry?.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(partition) = stem.parse::<u32>() else {
                continue;
            };
            if path.extension().is_some_and(|e| e == "index") {
                let index = Bytes::from(fs::read(&path)?);
                let data = Bytes::from(fs::read(path.with_extension("data"))?);
                partitions.insert(partition, (index, data));
            }
        }
        let loaded = Arc::new(LoadedVersion {
            version,
            partitions,
        });
        let old = self.current.write().replace(loaded);
        if let Some(old) = old {
            self.history.lock().push(old);
        }
        self.emit(StoreEvent::Swapped { version });
        Ok(())
    }

    /// Instantaneous rollback to the previously-swapped version. Possible
    /// because "storing multiple versions of the complete dataset allows
    /// the developers to do instantaneous rollbacks in case of data
    /// problems."
    pub fn rollback(&self) -> Result<u64, VoldemortError> {
        let Some(previous) = self.history.lock().pop() else {
            return Err(VoldemortError::ReadOnly("no version to roll back to".into()));
        };
        let version = previous.version;
        *self.current.write() = Some(previous);
        self.emit(StoreEvent::RolledBack { version });
        Ok(version)
    }

    /// The replica partition (served by this node) that should hold `key`,
    /// if this node is in the key's preference list.
    pub fn locate(&self, key: &[u8]) -> Option<PartitionId> {
        let master = self.ring.master_partition(key);
        let replicas = self
            .ring
            .replica_partitions(master, self.replication)
            .ok()?;
        replicas
            .into_iter()
            .find(|&p| self.ring.owner_of(p) == self.node)
    }

    /// Point lookup: binary search in the serving version.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let partition = self.locate(key)?;
        let current = self.current.read();
        let loaded = current.as_ref()?;
        let (index, data) = loaded.partitions.get(&partition.0)?;
        format::search(index, data, &md5(key))
    }

    /// Total indexed entries in the serving version (all partitions).
    fn serving_entry_count(&self) -> usize {
        self.current
            .read()
            .as_ref()
            .map(|v| {
                v.partitions
                    .values()
                    .map(|(index, _)| format::entry_count(index))
                    .sum()
            })
            .unwrap_or(0)
    }
}

/// Adapter exposing a [`ReadOnlyStore`] through the common
/// [`StorageEngine`] interface (reads only).
#[derive(Debug)]
pub struct ReadOnlyEngine {
    store: Arc<ReadOnlyStore>,
}

impl ReadOnlyEngine {
    /// Wraps a store.
    pub fn new(store: Arc<ReadOnlyStore>) -> Self {
        ReadOnlyEngine { store }
    }

    /// The wrapped store (for admin access: pull/swap/rollback).
    pub fn store(&self) -> &Arc<ReadOnlyStore> {
        &self.store
    }
}

impl StorageEngine for ReadOnlyEngine {
    fn get(&self, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        Ok(self
            .store
            .get(key)
            .map(|value| vec![Versioned::new(VectorClock::new(), value)])
            .unwrap_or_default())
    }

    fn put(&self, _key: &[u8], _value: Versioned<Bytes>) -> Result<(), VoldemortError> {
        Err(VoldemortError::UnsupportedOperation(
            "put on read-only store (use the build/pull/swap pipeline)",
        ))
    }

    fn delete(&self, _key: &[u8], _clock: &VectorClock) -> Result<bool, VoldemortError> {
        Err(VoldemortError::UnsupportedOperation("delete on read-only store"))
    }

    fn entries(&self) -> Vec<(Bytes, Vec<Versioned<Bytes>>)> {
        // Bulk export is a pipeline concern for read-only stores; the
        // admin service re-pulls from the build output instead.
        Vec::new()
    }

    fn key_count(&self) -> usize {
        self.store.serving_entry_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readonly::{ReadOnlyBuilder, ScratchDir};

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn records(n: usize, tag: &str) -> Vec<(Bytes, Bytes)> {
        (0..n)
            .map(|i| {
                (
                    Bytes::from(format!("member:{i}")),
                    Bytes::from(format!("{tag}:{i}")),
                )
            })
            .collect()
    }

    struct Pipeline {
        _hdfs: ScratchDir,
        _local: ScratchDir,
        stores: Vec<Arc<ReadOnlyStore>>,
        ring: HashRing,
        builder: ReadOnlyBuilder,
        hdfs_path: PathBuf,
    }

    fn pipeline(node_count: u16, replication: usize) -> Pipeline {
        let hdfs = ScratchDir::new("hdfs").unwrap();
        let local = ScratchDir::new("local").unwrap();
        let ring = HashRing::balanced(16, &nodes(node_count)).unwrap();
        let builder = ReadOnlyBuilder::new(ring.clone(), replication, 2);
        let stores = nodes(node_count)
            .into_iter()
            .map(|node| {
                Arc::new(
                    ReadOnlyStore::open(
                        local.path().join(format!("node-{}", node.0)),
                        node,
                        ring.clone(),
                        replication,
                    )
                    .unwrap(),
                )
            })
            .collect();
        let hdfs_path = hdfs.path().to_path_buf();
        Pipeline {
            _hdfs: hdfs,
            _local: local,
            stores,
            ring,
            builder,
            hdfs_path,
        }
    }

    fn run_cycle(p: &Pipeline, data: Vec<(Bytes, Bytes)>, version: u64) {
        let out = p.builder.build(data, version, &p.hdfs_path).unwrap();
        for store in &p.stores {
            store.pull(&out.node_dir(store.node), version).unwrap();
            store.swap(version).unwrap();
        }
    }

    #[test]
    fn full_cycle_serves_all_keys() {
        let p = pipeline(3, 2);
        run_cycle(&p, records(300, "v1"), 1);
        for i in 0..300 {
            let key = format!("member:{i}");
            // Every node in the preference list can answer.
            let prefs = p.ring.preference_list(key.as_bytes(), 2).unwrap();
            for node in prefs {
                let store = &p.stores[node.0 as usize];
                let hit = store.get(key.as_bytes()).unwrap();
                assert_eq!(hit.as_ref(), format!("v1:{i}").as_bytes());
            }
        }
    }

    #[test]
    fn non_replica_node_does_not_serve_key() {
        let p = pipeline(3, 1);
        run_cycle(&p, records(50, "v1"), 1);
        for i in 0..50 {
            let key = format!("member:{i}");
            let owner = p.ring.preference_list(key.as_bytes(), 1).unwrap()[0];
            for store in &p.stores {
                let hit = store.get(key.as_bytes());
                if store.node == owner {
                    assert!(hit.is_some());
                } else {
                    assert!(hit.is_none(), "node {} should miss", store.node);
                }
            }
        }
    }

    #[test]
    fn swap_replaces_and_rollback_restores() {
        let p = pipeline(1, 1);
        run_cycle(&p, records(100, "old"), 1);
        assert_eq!(
            p.stores[0].get(b"member:7").unwrap().as_ref(),
            b"old:7"
        );
        run_cycle(&p, records(100, "new"), 2);
        assert_eq!(
            p.stores[0].get(b"member:7").unwrap().as_ref(),
            b"new:7"
        );
        // Data problem discovered: instantaneous rollback.
        assert_eq!(p.stores[0].rollback().unwrap(), 1);
        assert_eq!(
            p.stores[0].get(b"member:7").unwrap().as_ref(),
            b"old:7"
        );
        // Nothing left to roll back to.
        assert!(p.stores[0].rollback().is_err());
    }

    #[test]
    fn pull_copies_data_files_before_index_files() {
        let p = pipeline(1, 1);
        run_cycle(&p, records(60, "v"), 1);
        let order = p.stores[0].pull_log.lock().clone();
        assert!(!order.is_empty());
        let first_index = order
            .iter()
            .position(|f| f.extension().is_some_and(|e| e == "index"))
            .expect("some index file");
        let last_data = order
            .iter()
            .rposition(|f| f.extension().is_some_and(|e| e == "data"))
            .expect("some data file");
        assert!(
            last_data < first_index,
            "all data files must precede index files: {order:?}"
        );
    }

    #[test]
    fn swap_unpulled_version_fails() {
        let p = pipeline(1, 1);
        assert!(p.stores[0].swap(9).is_err());
    }

    #[test]
    fn get_before_any_swap_is_none() {
        let p = pipeline(1, 1);
        assert!(p.stores[0].get(b"member:1").is_none());
    }

    #[test]
    fn update_stream_emits_swap_and_rollback_events() {
        use crate::readonly::StoreEvent;
        let p = pipeline(1, 1);
        let rx = p.stores[0].subscribe();
        run_cycle(&p, records(10, "v1"), 1);
        assert_eq!(rx.try_recv().unwrap(), StoreEvent::Swapped { version: 1 });
        run_cycle(&p, records(10, "v2"), 2);
        assert_eq!(rx.try_recv().unwrap(), StoreEvent::Swapped { version: 2 });
        p.stores[0].rollback().unwrap();
        assert_eq!(rx.try_recv().unwrap(), StoreEvent::RolledBack { version: 1 });
        assert!(rx.try_recv().is_err(), "no spurious events");
        // Dropped subscribers are pruned without disturbing others.
        drop(rx);
        let rx2 = p.stores[0].subscribe();
        run_cycle(&p, records(10, "v3"), 3);
        assert_eq!(rx2.try_recv().unwrap(), StoreEvent::Swapped { version: 3 });
    }

    #[test]
    fn engine_adapter_reads_and_rejects_writes() {
        let p = pipeline(1, 1);
        run_cycle(&p, records(20, "v"), 1);
        let engine = ReadOnlyEngine::new(p.stores[0].clone());
        let got = engine.get(b"member:3").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"v:3");
        assert!(got[0].clock.is_empty());
        assert!(matches!(
            engine.put(b"k", Versioned::initial(Bytes::new())),
            Err(VoldemortError::UnsupportedOperation(_))
        ));
        assert!(matches!(
            engine.delete(b"k", &VectorClock::new()),
            Err(VoldemortError::UnsupportedOperation(_))
        ));
        assert_eq!(engine.key_count(), 20);
    }
}
