//! The custom read-only storage engine and its offline data cycle.
//!
//! Paper §II.B and Figure II.3: "The custom read-only storage engine was
//! built for applications that require running various multi-stage complex
//! algorithms, using offline systems like Hadoop to generate their final
//! results. By offloading the index construction to the offline system we
//! do not hurt the performance of the live indices."
//!
//! The three phases:
//!
//! * **Build** ([`builder`]) — a map step routes each record of the job
//!   output to its replica partitions as it arrives; a reduce step sorts
//!   each partition in reducer threads and writes per-destination-node
//!   index + data files. "An index file is a compact list of sorted MD5 of
//!   key and offset to data into the data file."
//! * **Pull** ([`store::ReadOnlyStore::pull`]) — each node fetches its
//!   files into a new versioned directory, data files before
//!   index files ("pulling the index files after all the data files to
//!   achieve cache-locality post-swap").
//! * **Swap** ([`store::ReadOnlyStore::swap`]) — an atomic switch to the
//!   new version, with instantaneous [`store::ReadOnlyStore::rollback`]
//!   because complete older versions are retained on disk.
//!
//! Lookups binary-search the sorted MD5 index, mirroring the paper's
//! "a search on the Voldemort side is done using binary search".

pub mod builder;
pub mod format;
pub mod store;

pub use builder::{BuildJob, BuildOutput, ReadOnlyBuilder};
pub use store::{ReadOnlyEngine, ReadOnlyStore, StoreEvent};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory removed on drop — the stand-in for HDFS and
/// node-local disks in tests, examples, and benches.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh directory under the system temp dir.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "li-voldemort-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
