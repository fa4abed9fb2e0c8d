//! Experiments C-1, C-2, C-3, F-II.3 (DESIGN.md): Voldemort serving.
//!
//! Paper numbers (§II.C):
//! * C-1 — read-write cluster: "about 60% reads and 40% writes ... around
//!   10K queries per second at peak with average latency of 3 ms".
//! * C-2 — read-only cluster: "about 9K reads per second with an average
//!   latency of less than 1 ms" (RO reads must beat RW reads).
//! * C-3 — Company Follow: Zipfian value sizes, "average latency of 4 ms"
//!   for large values.
//! * F-II.3 — the build → pull → swap cycle itself.
//!
//! Absolute numbers here are in-process (no real network), so they are far
//! faster than the paper's testbed; the *shape* to check is RO < RW reads,
//! and throughput well above the paper's per-node rates.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use li_bench::mixed::{MixedWorkload, Operation};
use li_voldemort::readonly::{ReadOnlyBuilder, ScratchDir};
use li_voldemort::{StoreDef, VoldemortCluster};
use li_workload::datasets::company_follow_dataset;
use li_workload::keys::{member_key, KeyDistribution};
use rand::SeedableRng;
use std::hint::black_box;

const KEYS: u64 = 10_000;

fn bench_mixed_rw(c: &mut Criterion) {
    println!("\n=== C-1: read-write cluster, 60/40 mix (paper: ~10K qps, 3 ms avg) ===");
    let cluster = VoldemortCluster::new(32, 3).unwrap();
    cluster
        .add_store(StoreDef::read_write("rw").with_quorum(2, 1, 1))
        .unwrap();
    let client = cluster.client("rw").unwrap();
    // Preload.
    for i in 0..KEYS {
        client
            .put_initial(&member_key(i), Bytes::from(vec![b'x'; 256]))
            .unwrap();
    }
    let workload = MixedWorkload::sixty_forty(KeyDistribution::zipfian(KEYS), 256);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let ops = workload.ops(&mut rng, 100_000);

    let mut group = c.benchmark_group("voldemort_mixed");
    group.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    group.bench_function("sixty_forty", |b| {
        b.iter(|| {
            let op = &ops[i % ops.len()];
            i += 1;
            match op {
                Operation::Read(key) => {
                    black_box(client.get(key).unwrap());
                }
                Operation::Write(key, size) => {
                    let _ = client.apply_update(key, 3, &|_| Some(Bytes::from(vec![b'y'; *size])));
                }
            }
        })
    });
    group.finish();
}

fn bench_readonly_vs_readwrite_reads(c: &mut Criterion) {
    println!("\n=== C-2: read-only store reads vs BDB-like reads (paper: RO <1 ms beats RW 3 ms) ===");
    // Read-write side.
    let cluster = VoldemortCluster::new(16, 2).unwrap();
    cluster
        .add_store(StoreDef::read_write("rw").with_quorum(2, 1, 1))
        .unwrap();
    let rw_client = cluster.client("rw").unwrap();
    for i in 0..KEYS {
        rw_client
            .put_initial(&member_key(i), Bytes::from(format!("recs:{i}")))
            .unwrap();
    }
    // Read-only side: full build/pull/swap (F-II.3), timed once.
    let scratch = ScratchDir::new("bench-ro").unwrap();
    let hdfs = ScratchDir::new("bench-hdfs").unwrap();
    let ro_stores = cluster
        .add_read_only_store(StoreDef::read_only("ro").with_quorum(2, 1, 1), scratch.path())
        .unwrap();
    let records: Vec<(Bytes, Bytes)> = (0..KEYS)
        .map(|i| (Bytes::from(member_key(i)), Bytes::from(format!("recs:{i}"))))
        .collect();
    let builder = ReadOnlyBuilder::new(cluster.ring(), 2, 4);
    let t = std::time::Instant::now();
    let out = builder.build(records, 1, hdfs.path()).unwrap();
    let build = t.elapsed();
    let t = std::time::Instant::now();
    for store in &ro_stores {
        store.pull(&out.node_dir(store.node()), 1).unwrap();
    }
    let pull = t.elapsed();
    let t = std::time::Instant::now();
    for store in &ro_stores {
        store.swap(1).unwrap();
    }
    let swap = t.elapsed();
    println!("F-II.3 data cycle over {KEYS} records x2 replicas: build {build:?}, pull {pull:?}, swap {swap:?}");
    let ro_client = cluster.client("ro").unwrap();

    let mut group = c.benchmark_group("voldemort_readonly");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    group.bench_function("rw_bdb_read", |b| {
        b.iter(|| {
            let key = member_key(i % KEYS);
            i += 1;
            black_box(rw_client.get(&key).unwrap())
        })
    });
    let mut j = 0u64;
    group.bench_function("ro_binary_search_read", |b| {
        b.iter(|| {
            let key = member_key(j % KEYS);
            j += 1;
            black_box(ro_client.get(&key).unwrap())
        })
    });
    group.finish();
}

fn bench_company_follow(c: &mut Criterion) {
    println!("\n=== C-3: Company Follow — Zipfian value sizes (paper: 4 ms avg for large values) ===");
    let cluster = VoldemortCluster::new(16, 2).unwrap();
    cluster
        .add_store(StoreDef::read_write("company-followers").with_quorum(2, 1, 1))
        .unwrap();
    let client = cluster.client("company-followers").unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let (_, companies) = company_follow_dataset(&mut rng, 2_000, 500, 2_000);
    let mut sizes: Vec<usize> = companies.iter().map(|c| c.value.len()).collect();
    sizes.sort_unstable();
    println!(
        "value sizes: min {}B, median {}B, max {}B (Zipfian)",
        sizes[0],
        sizes[sizes.len() / 2],
        sizes[sizes.len() - 1]
    );
    for row in &companies {
        client
            .put_initial(&row.key, Bytes::copy_from_slice(&row.value))
            .unwrap();
    }
    let keys: Vec<Vec<u8>> = companies.iter().map(|r| r.key.clone()).collect();

    let mut group = c.benchmark_group("company_follow");
    group.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    group.bench_function("zipfian_value_reads", |b| {
        b.iter(|| {
            let key = &keys[i % keys.len()];
            i += 1;
            black_box(client.get(key).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mixed_rw, bench_readonly_vs_readwrite_reads, bench_company_follow
}
criterion_main!(benches);
