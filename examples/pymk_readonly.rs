//! "People You May Know" on the read-only store — §II.C's second case
//! study and the Figure II.3 data cycle.
//!
//! "This application is powered by a single store backed by the custom
//! read-only storage engine. The store saves, for every member id, a list
//! of recommended member ids, along with a score. Due to continuous
//! iterations on the prediction algorithm ... most of the scores change
//! between runs. ... This has helped us achieve an average latency in
//! sub-milliseconds for this store."
//!
//! The example runs two complete build → pull → swap cycles (two "Hadoop
//! job runs"), serves reads, then exercises the instantaneous rollback.
//!
//! Run with: `cargo run --release --example pymk_readonly`

use bytes::Bytes;
use li_commons::hist::Histogram;
use li_commons::ring::HashRing;
use li_voldemort::readonly::{ReadOnlyBuilder, ReadOnlyStore, ScratchDir};
use li_workload::datasets::{pymk_dataset, PymkRecord};
use li_workload::keys::member_key;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const MEMBERS: u64 = 20_000;
const NODES: u16 = 3;
const REPLICATION: usize = 2;

fn records_for_run(seed: u64) -> Vec<(Bytes, Bytes)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    pymk_dataset(&mut rng, MEMBERS, 10)
        .into_iter()
        .map(|r| {
            (
                Bytes::from(member_key(r.member)),
                Bytes::from(r.to_bytes()),
            )
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let hdfs = ScratchDir::new("pymk-hdfs")?;
    let local = ScratchDir::new("pymk-local")?;
    let nodes: Vec<li_commons::ring::NodeId> =
        (0..NODES).map(li_commons::ring::NodeId).collect();
    let ring = HashRing::balanced(24, &nodes)?;
    let builder = ReadOnlyBuilder::new(ring.clone(), REPLICATION, 4);
    let stores: Vec<Arc<ReadOnlyStore>> = nodes
        .iter()
        .map(|&node| {
            Arc::new(
                ReadOnlyStore::open(
                    local.path().join(format!("node-{}", node.0)),
                    node,
                    ring.clone(),
                    REPLICATION,
                )
                .unwrap(),
            )
        })
        .collect();

    // ----- Run 1: the nightly "Hadoop" job -----------------------------
    let t = Instant::now();
    let out = builder.build(records_for_run(1), 1, hdfs.path())?;
    println!(
        "build v1: {} replica records across {} nodes in {:?}",
        out.replica_records,
        out.node_partitions.len(),
        t.elapsed()
    );
    let t = Instant::now();
    for store in &stores {
        store.pull(&out.node_dir(store_node(store)), 1)?;
    }
    println!("pull  v1: fetched (data files before index files) in {:?}", t.elapsed());
    let t = Instant::now();
    for store in &stores {
        store.swap(1)?;
    }
    println!("swap  v1: atomic across nodes in {:?}", t.elapsed());

    // Serve: sub-millisecond point reads via binary search on MD5 index.
    let mut hist = Histogram::new();
    for member in (0..MEMBERS).step_by(7) {
        let key = member_key(member);
        let owner_stores: Vec<&Arc<ReadOnlyStore>> = stores
            .iter()
            .filter(|s| s.get(&key).is_some())
            .collect();
        assert_eq!(owner_stores.len(), REPLICATION, "member {member}");
        let t = Instant::now();
        let value = owner_stores[0].get(&key).expect("present");
        hist.record(t.elapsed().as_nanos() as u64);
        let parsed = PymkRecord::from_bytes(member, &value).expect("parses");
        assert_eq!(parsed.recommendations.len(), 10);
    }
    println!("serve v1: point reads {}", hist.summary_ms());

    // ----- Run 2: scores change between runs ---------------------------
    let out2 = builder.build(records_for_run(2), 2, hdfs.path())?;
    for store in &stores {
        store.pull(&out2.node_dir(store_node(store)), 2)?;
        store.swap(2)?;
    }
    let probe = member_key(123);
    let v2_value = stores.iter().find_map(|s| s.get(&probe)).unwrap();
    println!("swap  v2: member 123 now scored by run 2");

    // ----- Data problem! Instantaneous rollback ------------------------
    for store in &stores {
        let restored = store.rollback()?;
        assert_eq!(restored, 1);
    }
    let v1_value = stores.iter().find_map(|s| s.get(&probe)).unwrap();
    assert_ne!(v1_value, v2_value, "rollback restored run-1 scores");
    println!("rollback: serving version is v1 again (old versions kept on disk)");

    println!("\npymk_readonly OK");
    Ok(())
}

fn store_node(store: &Arc<ReadOnlyStore>) -> li_commons::ring::NodeId {
    store.node()
}
