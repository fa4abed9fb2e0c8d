//! Build phase: the Hadoop-job analog.
//!
//! "We take the output of complex algorithms and generate partitioned sets
//! of data and index files in Hadoop. These files are partitioned by
//! destination nodes and stored in HDFS. ... To generate these indices, we
//! leverage Hadoop's ability to sort its values in the reducers"
//! (Figure II.3a). Here the "cluster" is a pool of reducer threads and
//! "HDFS" is a build output directory; the artifact layout —
//! `node-<id>/<partition>.index` + `.data`, MD5-sorted — is the part the
//! serving path depends on, and is identical in spirit.

use bytes::Bytes;
use li_commons::md5::{md5, Digest};
use li_commons::ring::{HashRing, NodeId, PartitionId};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use super::format;
use crate::error::VoldemortError;

/// One mapped record: its key's digest, its place in the input (a later
/// record of the same key wins) and its value.
type Mapped = (Digest, u64, Bytes);

/// Result manifest of a build: where the files are and what they contain.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// Root of the build output ("HDFS" directory).
    pub dir: PathBuf,
    /// Version number encoded in this build.
    pub version: u64,
    /// Per node: the partitions written for it.
    pub node_partitions: BTreeMap<NodeId, Vec<PartitionId>>,
    /// Total records written (after last-wins dedup), summed over replicas.
    pub replica_records: usize,
}

impl BuildOutput {
    /// Directory holding one node's files.
    pub fn node_dir(&self, node: NodeId) -> PathBuf {
        self.dir.join(format!("node-{}", node.0))
    }
}

/// The offline builder.
#[derive(Debug, Clone)]
pub struct ReadOnlyBuilder {
    ring: HashRing,
    replication: usize,
    reducers: usize,
}

impl ReadOnlyBuilder {
    /// Creates a builder targeting `ring` with `replication` copies of each
    /// record, using `reducers` parallel sort workers.
    pub fn new(ring: HashRing, replication: usize, reducers: usize) -> Self {
        ReadOnlyBuilder {
            ring,
            replication,
            reducers: reducers.max(1),
        }
    }

    /// Starts a build whose records arrive one by one
    /// ([`BuildJob::map`]); [`BuildJob::reduce`] writes it.
    pub fn start(&self) -> BuildJob {
        let partitions = self.ring.num_partitions() as usize;
        BuildJob {
            builder: self.clone(),
            partitions: (0..partitions).map(|_| Vec::new()).collect(),
            routes: vec![None; partitions],
            mapped: 0,
        }
    }

    /// Runs the build: maps every record to its replica partitions, then
    /// sorts each partition by MD5 in reducer threads and writes per-node
    /// index/data files under `out_dir/version-<version>/node-<id>/`.
    ///
    /// Later duplicates of a key win, matching "most of the scores change
    /// between runs" semantics where the job output is the truth.
    pub fn build(
        &self,
        records: impl IntoIterator<Item = (Bytes, Bytes)>,
        version: u64,
        out_dir: &Path,
    ) -> Result<BuildOutput, VoldemortError> {
        let mut job = self.start();
        for (key, value) in records {
            job.map(&key, value)?;
        }
        job.reduce(version, out_dir)
    }
}

/// A build between its two steps: the records mapped so far, routed to
/// the partitions that store them. Mapping needs one record at a time, so
/// it runs as the input arrives; only the reduce needs the full set.
#[derive(Debug)]
pub struct BuildJob {
    builder: ReadOnlyBuilder,
    /// Partition number -> the records routed to it, in input order.
    partitions: Vec<Vec<Mapped>>,
    /// Master partition number -> its replica partitions, routed once.
    routes: Vec<Option<Vec<PartitionId>>>,
    mapped: u64,
}

impl BuildJob {
    /// Map step: routes one record to the replica partitions (and thus
    /// destination nodes) that must store it. A later record of the same
    /// key replaces this one in the output.
    pub fn map(&mut self, key: &[u8], value: Bytes) -> Result<(), VoldemortError> {
        let ring = &self.builder.ring;
        let master = ring.master_partition(key);
        let route = match &mut self.routes[master.0 as usize] {
            Some(route) => route,
            slot => slot.insert(
                ring.replica_partitions(master, self.builder.replication)
                    .map_err(|e| VoldemortError::ReadOnly(e.to_string()))?,
            ),
        };
        let (digest, seq) = (md5(key), self.mapped);
        self.mapped += 1;
        for partition in route.iter() {
            self.partitions[partition.0 as usize].push((digest, seq, value.clone()));
        }
        Ok(())
    }

    /// Reduce step: each reducer thread sorts its partitions by digest,
    /// keeps the last record of each key and writes the partition's files
    /// under `out_dir/version-<version>/node-<id>/`. A partition no record
    /// reached gets no files.
    pub fn reduce(self, version: u64, out_dir: &Path) -> Result<BuildOutput, VoldemortError> {
        let version_dir = out_dir.join(format!("version-{version}"));
        fs::create_dir_all(&version_dir)?;

        let ring = &self.builder.ring;
        let reducers = self.builder.reducers;
        let mut node_partitions: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();
        let mut chunks: Vec<Vec<(PartitionId, Vec<Mapped>)>> =
            (0..reducers).map(|_| Vec::new()).collect();
        let routed = self.partitions.into_iter().enumerate();
        for (i, (partition, records)) in routed.filter(|(_, r)| !r.is_empty()).enumerate() {
            let partition = PartitionId(partition as u32);
            node_partitions
                .entry(ring.owner_of(partition))
                .or_default()
                .push(partition);
            chunks[i % reducers].push((partition, records));
        }

        let dir = &version_dir;
        let replica_records = std::thread::scope(|scope| -> Result<usize, VoldemortError> {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || -> Result<usize, VoldemortError> {
                        let mut written = 0;
                        for (partition, mut records) in chunk {
                            // Digest order, the latest record of a key first;
                            // the dedup then keeps it.
                            records.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
                            records.dedup_by_key(|record| record.0);
                            let entries: Vec<(Digest, Bytes)> =
                                records.into_iter().map(|(d, _, v)| (d, v)).collect();
                            written += entries.len();
                            let (index, data) = format::write_partition(&entries);
                            let owner = ring.owner_of(partition);
                            let node_dir = dir.join(format!("node-{}", owner.0));
                            fs::create_dir_all(&node_dir)?;
                            fs::write(node_dir.join(format!("{}.data", partition.0)), &data)?;
                            fs::write(node_dir.join(format!("{}.index", partition.0)), &index)?;
                        }
                        Ok(written)
                    })
                })
                .collect();
            let mut written = 0;
            for handle in handles {
                written += handle.join().expect("reducer thread panicked")?;
            }
            Ok(written)
        })?;

        Ok(BuildOutput {
            dir: version_dir,
            version,
            node_partitions,
            replica_records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readonly::ScratchDir;

    fn records(n: usize) -> Vec<(Bytes, Bytes)> {
        (0..n)
            .map(|i| {
                (
                    Bytes::from(format!("member:{i}")),
                    Bytes::from(format!("recs:{i}")),
                )
            })
            .collect()
    }

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn build_writes_per_node_files() {
        let scratch = ScratchDir::new("build").unwrap();
        let ring = HashRing::balanced(8, &nodes(2)).unwrap();
        let builder = ReadOnlyBuilder::new(ring, 2, 3);
        let out = builder.build(records(200), 1, scratch.path()).unwrap();

        assert_eq!(out.version, 1);
        // Replication 2 over 2 nodes: both nodes store everything.
        assert_eq!(out.replica_records, 400);
        for node in nodes(2) {
            let dir = out.node_dir(node);
            assert!(dir.is_dir(), "{dir:?}");
            let files = std::fs::read_dir(&dir).unwrap().count();
            // Up to 8 partitions x 2 files each on this node.
            assert!(files > 0 && files.is_multiple_of(2), "{files} files");
        }
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let scratch = ScratchDir::new("dedup").unwrap();
        let ring = HashRing::balanced(4, &nodes(1)).unwrap();
        let builder = ReadOnlyBuilder::new(ring.clone(), 1, 1);
        let input = vec![
            (Bytes::from_static(b"k"), Bytes::from_static(b"old")),
            (Bytes::from_static(b"k"), Bytes::from_static(b"new")),
        ];
        let out = builder.build(input, 1, scratch.path()).unwrap();
        assert_eq!(out.replica_records, 1);
        // Read back directly through the format layer.
        let partition = ring.master_partition(b"k");
        let node_dir = out.node_dir(NodeId(0));
        let index = std::fs::read(node_dir.join(format!("{}.index", partition.0))).unwrap();
        let data = std::fs::read(node_dir.join(format!("{}.data", partition.0))).unwrap();
        let hit = format::search(&index, &data, &md5(b"k")).unwrap();
        assert_eq!(hit.as_ref(), b"new");
    }

    #[test]
    fn index_files_are_sorted_by_digest() {
        let scratch = ScratchDir::new("sorted").unwrap();
        let ring = HashRing::balanced(2, &nodes(1)).unwrap();
        let builder = ReadOnlyBuilder::new(ring, 1, 2);
        let out = builder.build(records(100), 1, scratch.path()).unwrap();
        let node_dir = out.node_dir(NodeId(0));
        for entry in std::fs::read_dir(&node_dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "index") {
                let bytes = std::fs::read(&path).unwrap();
                let entries: Vec<&[u8]> = bytes.chunks(format::INDEX_ENTRY_LEN).collect();
                for w in entries.windows(2) {
                    assert!(w[0][..16] < w[1][..16], "unsorted index {path:?}");
                }
            }
        }
    }

    proptest::proptest! {
        /// The two-step build against a last-wins map per partition, each
        /// written with `format::write_partition`: byte-identical files,
        /// none missing and none extra, and the same manifest.
        #[test]
        fn build_matches_a_last_wins_model(
            records in proptest::collection::vec((0u16..40, 0u32..1000), 0..200),
            replication in 1usize..3,
            reducers in 1usize..5,
        ) {
            let ring = HashRing::balanced(8, &nodes(3)).unwrap();
            let input: Vec<(Bytes, Bytes)> = records
                .iter()
                .map(|(k, v)| (Bytes::from(format!("key:{k}")), Bytes::from(format!("value:{v}"))))
                .collect();
            let mut model: BTreeMap<PartitionId, BTreeMap<Digest, Bytes>> = BTreeMap::new();
            for (key, value) in &input {
                let master = ring.master_partition(key);
                for partition in ring.replica_partitions(master, replication).unwrap() {
                    model.entry(partition).or_default().insert(md5(key), value.clone());
                }
            }

            let scratch = ScratchDir::new("model").unwrap();
            let builder = ReadOnlyBuilder::new(ring.clone(), replication, reducers);
            let out = builder.build(input, 1, scratch.path()).unwrap();

            let mut expected = BTreeMap::new();
            let mut expected_partitions: BTreeMap<NodeId, Vec<PartitionId>> = BTreeMap::new();
            for (partition, entries) in &model {
                let entries: Vec<(Digest, Bytes)> =
                    entries.iter().map(|(d, v)| (*d, v.clone())).collect();
                let (index, data) = format::write_partition(&entries);
                let owner = ring.owner_of(*partition);
                expected_partitions.entry(owner).or_default().push(*partition);
                let dir = out.node_dir(owner);
                expected.insert(dir.join(format!("{}.index", partition.0)), index);
                expected.insert(dir.join(format!("{}.data", partition.0)), data);
            }
            let mut written = BTreeMap::new();
            for node in nodes(3) {
                let Ok(entries) = std::fs::read_dir(out.node_dir(node)) else {
                    continue;
                };
                for entry in entries {
                    let path = entry.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    written.insert(path, bytes);
                }
            }
            proptest::prop_assert_eq!(written, expected);
            proptest::prop_assert_eq!(out.node_partitions, expected_partitions);
            proptest::prop_assert_eq!(
                out.replica_records,
                model.values().map(BTreeMap::len).sum::<usize>()
            );
        }
    }

    #[test]
    fn versioned_directories_coexist() {
        let scratch = ScratchDir::new("versions").unwrap();
        let ring = HashRing::balanced(4, &nodes(1)).unwrap();
        let builder = ReadOnlyBuilder::new(ring, 1, 1);
        builder.build(records(10), 1, scratch.path()).unwrap();
        builder.build(records(10), 2, scratch.path()).unwrap();
        assert!(scratch.path().join("version-1").is_dir());
        assert!(scratch.path().join("version-2").is_dir());
    }
}
