//! Experiment C-21 (DESIGN.md / EXPERIMENTS.md): the zero-copy fetch path.
//!
//! Paper §V.B: Kafka "avoids byte copying" on the consumer path — segment
//! bytes go from the page cache to the socket via `sendfile`, untouched.
//! Our in-process analog hands consumers `Bytes` views of the broker's own
//! segment chunks. This bench drains one pre-filled partition two ways:
//!
//! * **copy path** — the legacy per-message decode (`Message::decode_at`):
//!   CRC-validate every frame and copy every payload into a fresh
//!   allocation, exactly what `PartitionLog::read` did before the chunk
//!   API existed.
//! * **zero-copy path** — `Broker::fetch_chunks` + the lazy `FetchChunk`
//!   iterator: structural frame walk, payloads alias segment memory; plus
//!   the full `SimpleConsumer::poll` consumer stack on the same path.
//!
//! Both run at two fetch budgets (64 KiB and 512 KiB — the paper's
//! "hundreds of kilobytes" pull size). Throughput is payload MB/s.
//! Acceptance: zero-copy ≥ 2x the copy path at 512 KiB fetches (recorded
//! in EXPERIMENTS.md C-21: single shot, 1-core host, 2026-08-06).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use li_kafka::broker::Broker;
use li_kafka::{KafkaCluster, Message, Producer, SimpleConsumer};
use li_workload::events::activity_batch;
use li_workload::zipf::Zipfian;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

const MESSAGES: usize = 20_000;

/// Builds a cluster with one pre-filled, flushed partition and returns it
/// with the total payload bytes stored.
fn filled_cluster() -> (Arc<KafkaCluster>, usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let zipf = Zipfian::ycsb(100_000);
    let payloads = activity_batch(&mut rng, &zipf, MESSAGES);
    let total: usize = payloads.iter().map(String::len).sum();
    let cluster = KafkaCluster::new(1).unwrap();
    cluster.create_topic("t", 1).unwrap();
    let producer = Producer::new(cluster.clone()).with_batch_size(256);
    for p in payloads {
        producer.send("t", p).unwrap();
    }
    producer.flush().unwrap();
    (cluster, total)
}

/// The pre-chunk-API consumer drain: every frame CRC-validated, every
/// payload copied into its own allocation.
fn copy_drain(broker: &Broker, max_bytes: usize) -> usize {
    let mut offset = 0u64;
    let mut bytes = 0usize;
    loop {
        let (chunks, next) = broker.fetch_chunks("t", 0, offset, max_bytes).unwrap();
        if chunks.is_empty() {
            break;
        }
        for chunk in &chunks {
            let mut pos = 0usize;
            while let Some((message, p)) = Message::decode_at(&chunk.data, pos).unwrap() {
                bytes += message.payload.len();
                black_box(&message.payload);
                pos = p;
            }
        }
        offset = next;
    }
    bytes
}

/// The zero-copy drain: lazy iteration, payloads alias segment memory.
fn zero_copy_drain(broker: &Broker, max_bytes: usize) -> usize {
    let mut offset = 0u64;
    let mut bytes = 0usize;
    loop {
        let (chunks, next) = broker.fetch_chunks("t", 0, offset, max_bytes).unwrap();
        if chunks.is_empty() {
            break;
        }
        for chunk in &chunks {
            for item in chunk {
                let (_, message) = item.unwrap();
                bytes += message.payload.len();
                black_box(&message.payload);
            }
        }
        offset = next;
    }
    bytes
}

/// The full consumer stack (`SimpleConsumer::poll`) on the zero-copy path.
fn consumer_drain(consumer: &mut SimpleConsumer) -> usize {
    consumer.seek(0);
    let mut bytes = 0usize;
    loop {
        let batch = consumer.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        for (_, message) in &batch {
            bytes += message.payload.len();
            black_box(&message.payload);
        }
    }
    bytes
}

fn bench_fetch_paths(c: &mut Criterion) {
    println!("\n=== C-21: consumer drain, copy vs zero-copy fetch path (§V.B) ===");
    let (cluster, total) = filled_cluster();
    let broker = cluster.broker_for("t", 0).unwrap();
    println!(
        "{MESSAGES} messages, {total} payload bytes ({:.1} MiB) in one partition\n",
        total as f64 / (1024.0 * 1024.0)
    );

    let mut group = c.benchmark_group("kafka_fetch");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(total as u64));
    for &(label, max_bytes) in &[("64KiB", 64 * 1024), ("512KiB", 512 * 1024)] {
        group.bench_with_input(
            BenchmarkId::new("copy_drain", label),
            &max_bytes,
            |b, &max_bytes| {
                b.iter(|| {
                    let bytes = copy_drain(&broker, max_bytes);
                    assert_eq!(bytes, total);
                    black_box(bytes)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("zero_copy_drain", label),
            &max_bytes,
            |b, &max_bytes| {
                b.iter(|| {
                    let bytes = zero_copy_drain(&broker, max_bytes);
                    assert_eq!(bytes, total);
                    black_box(bytes)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("consumer_drain", label),
            &max_bytes,
            |b, &max_bytes| {
                let mut consumer = SimpleConsumer::new(cluster.clone(), "t", 0)
                    .unwrap()
                    .with_max_bytes(max_bytes);
                b.iter(|| {
                    let bytes = consumer_drain(&mut consumer);
                    assert_eq!(bytes, total);
                    black_box(bytes)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_fetch_paths
}
criterion_main!(benches);
