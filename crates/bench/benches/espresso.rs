//! Experiments C-9, C-10, C-11 (DESIGN.md): Espresso serving, local
//! transactions, and failover; and the people search the same inverted
//! index serves at site scale.
//!
//! Paper context (§IV): document GETs are "direct lookup in the local data
//! store"; "queries first consult a local secondary index then return the
//! matching documents"; intra-resource multi-table updates are atomic;
//! failover promotes a drained slave.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use li_commons::ring::NodeId;
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_espresso::{DatabaseSchema, EspressoCluster, InvertedIndex, TableSchema};
use li_sqlstore::RowKey;
use li_workload::site::{SiteChunk, SiteGraphChunks, SiteGraphConfig};
use linkedin_data_infra::consumers::member_row_key;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn music(partitions: u32, replication: usize) -> DatabaseSchema {
    DatabaseSchema::new("Music", partitions, replication)
        .with_table(
            TableSchema::new("Album", ["artist", "album"]),
            RecordSchema::new(
                "Album",
                1,
                vec![
                    Field::new("year", FieldType::Long).indexed(),
                    Field::new("genre", FieldType::Str).indexed(),
                ],
            )
            .unwrap(),
        )
        .unwrap()
        .with_table(
            TableSchema::new("Song", ["artist", "album", "song"]),
            RecordSchema::new(
                "Song",
                1,
                vec![Field::new("lyrics", FieldType::Str).indexed()],
            )
            .unwrap(),
        )
        .unwrap()
}

fn seeded_cluster(artists: u64) -> Arc<EspressoCluster> {
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(music(12, 2)).unwrap();
    let genres = ["rock", "soul", "jazz", "rap", "pop"];
    for a in 0..artists {
        let record = Record::new()
            .with("year", Value::Long(1960 + (a % 60) as i64))
            .with("genre", Value::Str(genres[(a % 5) as usize].into()));
        cluster
            .put(
                "Music",
                "Album",
                RowKey::new([format!("artist-{a}"), "debut".to_string()]),
                &record,
            )
            .unwrap();
    }
    cluster
}

fn bench_document_ops(c: &mut Criterion) {
    println!("\n=== Espresso document serving (router -> master storage node) ===");
    let cluster = seeded_cluster(2_000);
    let mut group = c.benchmark_group("espresso_serving");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    group.bench_function("get_document", |b| {
        b.iter(|| {
            let key = RowKey::new([format!("artist-{}", i % 2_000), "debut".to_string()]);
            i += 1;
            black_box(cluster.get("Music", "Album", &key).unwrap())
        })
    });
    let mut j = 0u64;
    group.bench_function("put_document", |b| {
        b.iter(|| {
            let record = Record::new()
                .with("year", Value::Long(2000))
                .with("genre", Value::Str("electronic".into()));
            let key = RowKey::new([format!("artist-{}", j % 2_000), "bench".to_string()]);
            j += 1;
            black_box(cluster.put("Music", "Album", key, &record).unwrap())
        })
    });
    // What the hashed table costs: a collection GET is a filtered pass over
    // every row the collection's master holds, so a 30-document collection
    // is read out of a table of ~10^5 documents.
    let large = seeded_cluster(100_000);
    for i in 0..30u64 {
        let record = Record::new()
            .with("year", Value::Long(1980 + i as i64))
            .with("genre", Value::Str("soul".into()));
        let key = RowKey::new(["Collector".to_string(), format!("album-{i:02}")]);
        large.put("Music", "Album", key, &record).unwrap();
    }
    group.bench_function("get_collection_in_large_table", |b| {
        b.iter(|| {
            let docs = large.get_uri("/Music/Album/Collector").unwrap();
            assert_eq!(docs.len(), 30);
            black_box(docs)
        })
    });
    group.finish();
}

fn bench_index_query(c: &mut Criterion) {
    println!("\n=== C-9: local secondary index queries (index consult + local fetch) ===");
    println!("collection resource with 3000 documents; the query selects ~1%\n");
    // One prolific artist: a large collection under one resource_id — the
    // access pattern local indexes exist for.
    let cluster = seeded_cluster(10);
    for i in 0..3_000u64 {
        let genre = if i % 100 == 0 { "rare" } else { "common" };
        let record = Record::new()
            .with("year", Value::Long(1960 + (i % 60) as i64))
            .with("genre", Value::Str(genre.into()));
        cluster
            .put(
                "Music",
                "Album",
                RowKey::new(["Prolific".to_string(), format!("album-{i:05}")]),
                &record,
            )
            .unwrap();
    }
    let mut group = c.benchmark_group("espresso_index");
    group.sample_size(20);
    group.bench_function("indexed_selective_query", |b| {
        b.iter(|| {
            let hits = cluster
                .get_uri("/Music/Album/Prolific?query=genre:rare")
                .unwrap();
            assert_eq!(hits.len(), 30);
            black_box(hits)
        })
    });
    // Baseline: fetch the whole collection and filter client-side.
    group.bench_function("unindexed_scan_equivalent", |b| {
        b.iter(|| {
            let docs = cluster.get_uri("/Music/Album/Prolific").unwrap();
            black_box(
                docs.into_iter()
                    .filter(|(_, r)| r.get("genre") == Some(&Value::Str("rare".into())))
                    .count(),
            )
        })
    });
    group.finish();
}

/// Resident set of this process in MB (0 where `/proc` has no such line).
fn vm_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn bench_people_search(c: &mut Criterion) {
    println!("\n=== People search: the inverted index behind the profile global index ===");
    // The site population's profile text (`member <id>` plus four of 18
    // words), keyed as the Espresso profile documents people search indexes.
    // The chunks stay alive so the build reuses none of their memory.
    const MEMBERS: u64 = 100_000;
    let chunks: Vec<_> = SiteGraphChunks::new(&SiteGraphConfig::smoke(MEMBERS, 7), 4096).collect();
    let before = vm_rss_mb();
    let started = Instant::now();
    let mut index = InvertedIndex::new();
    for (member, _, profile, _) in chunks.iter().flat_map(SiteChunk::rows) {
        index.index_document(
            &member_row_key(member),
            [("profile", &Value::Str(profile.to_string()))],
        );
    }
    let build = started.elapsed();
    println!(
        "{MEMBERS} profiles: build {:.2} us/doc, index holds {:.1} MB (VmRSS delta)",
        build.as_secs_f64() * 1e6 / MEMBERS as f64,
        vm_rss_mb() - before
    );
    // Two common words beside `member`, which every profile holds: about
    // 3% of the population matches.
    let mut group = c.benchmark_group("espresso_index");
    group.bench_function("people_search_100k", |b| {
        b.iter(|| {
            let hits = index.query("profile", "member engineer manager", None);
            assert!(hits.len() > 1_000);
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_transactions(c: &mut Criterion) {
    println!("\n=== C-10: intra-resource multi-table transactions ===");
    let cluster = seeded_cluster(100);
    let mut group = c.benchmark_group("espresso_txn");
    group.throughput(Throughput::Elements(1));
    let mut i = 0u64;
    group.bench_function("album_plus_2_songs_atomic", |b| {
        b.iter(|| {
            let artist = format!("artist-{}", i % 100);
            let album = format!("txn-album-{i}");
            i += 1;
            let docs = vec![
                (
                    "Album".to_string(),
                    RowKey::new([artist.clone(), album.clone()]),
                    Record::new()
                        .with("year", Value::Long(2012))
                        .with("genre", Value::Str("icde".into())),
                ),
                (
                    "Song".to_string(),
                    RowKey::new([artist.clone(), album.clone(), "one".to_string()]),
                    Record::new().with("lyrics", Value::Str("la la".into())),
                ),
                (
                    "Song".to_string(),
                    RowKey::new([artist.clone(), album.clone(), "two".to_string()]),
                    Record::new().with("lyrics", Value::Str("do re mi".into())),
                ),
            ];
            black_box(cluster.post_transactional("Music", docs).unwrap())
        })
    });
    group.finish();
}

fn bench_failover(c: &mut Criterion) {
    println!("\n=== C-11: failover time (drain relay -> promote slave) ===");
    // Measured as wall time of crash_node() including the Helix rebalance
    // and relay drains — not a criterion loop (failover is one-shot).
    for &docs in &[100u64, 1_000, 5_000] {
        let cluster = seeded_cluster(docs);
        cluster.pump_replication().unwrap();
        let (_, master) = cluster.route("Music", "artist-0").unwrap();
        let t = Instant::now();
        cluster.crash_node(master).unwrap();
        let elapsed = t.elapsed();
        let (_, new_master) = cluster.route("Music", "artist-0").unwrap();
        assert_ne!(master, new_master);
        println!("docs={docs:>6}: failover (rebalance + drains) took {elapsed:?}");
    }
    // Keep criterion happy with a small measured surrogate: route lookups
    // against the post-failover view.
    let cluster = seeded_cluster(100);
    cluster.pump_replication().unwrap();
    cluster.crash_node(NodeId(0)).unwrap();
    let mut group = c.benchmark_group("espresso_failover");
    let mut i = 0u64;
    group.bench_function("route_after_failover", |b| {
        b.iter(|| {
            let artist = format!("artist-{}", i % 100);
            i += 1;
            black_box(cluster.route("Music", &artist).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    // People search runs first, so its VmRSS delta is not served from memory
    // an earlier target freed.
    targets = bench_people_search, bench_document_ops, bench_index_query, bench_transactions, bench_failover
}
criterion_main!(benches);
