//! Experiments C-12..C-15, C-18 (DESIGN.md): Kafka's design choices.
//!
//! Paper claims (§V):
//! * C-12 — offset-addressed logs with stateless brokers beat per-message
//!   ids + broker-side ack state.
//! * C-13 — producer batching ("a set of messages in a single publish
//!   request") raises throughput.
//! * C-14 — "we save about 2/3 of the network bandwidth with compression".
//! * C-15 — sendfile zero-copy vs the 4-copy send path.
//! * C-18 — live -> mirror -> warehouse end-to-end latency is dominated by
//!   the batch load period (~10 s in production, scaled here).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use li_bench::net::{transfer, TransferMode};
use li_bench::traditional_mq::TraditionalMq;
use li_commons::compress::Codec;
use li_commons::sim::{Clock, SimClock};
use li_kafka::log::LogConfig;
use li_kafka::mirror::{MirrorMaker, WarehouseLoader};
use li_kafka::{KafkaCluster, MessageSet, Producer, SimpleConsumer};
use li_workload::events::activity_batch;
use li_workload::zipf::Zipfian;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn event_payloads(n: usize) -> Vec<String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let zipf = Zipfian::ycsb(100_000);
    activity_batch(&mut rng, &zipf, n)
}

fn bench_vs_traditional_mq(c: &mut Criterion) {
    println!("\n=== C-12: offset-addressed log vs traditional MQ (ids + broker acks) ===");
    println!("5K messages, 3 subscribers each (pub/sub): the MQ pays per-message id");
    println!("indexing plus per-(consumer,message) ack bookkeeping; Kafka pays nothing.");
    println!("(Both sides checksum what they store; wall times in-process are close —");
    println!("the paper's structural win is the broker STATE, quantified below.)\n");
    {
        // Broker-state comparison at the half-consumed point.
        let mq = TraditionalMq::new();
        for s in 0..3 {
            mq.register_consumer(&format!("c{s}"));
        }
        let probe = event_payloads(5_000);
        for p in &probe {
            mq.publish(Bytes::from(p.clone()));
        }
        // Consumer 0 read everything but acked nothing yet; 1 and 2 idle.
        let _ = mq.deliver("c0", usize::MAX);
        println!(
            "traditional MQ broker state mid-flight: {} retained messages + id index + per-consumer ack sets",
            mq.retained()
        );
        println!("kafka broker state for the same point: segment bytes + ZERO per-consumer entries\n");
    }
    const MSGS: usize = 5_000;
    const SUBSCRIBERS: usize = 3;
    let payloads = event_payloads(MSGS);
    let set = MessageSet::from_payloads(payloads.clone());
    // Shared, pre-built cluster: the work measured is produce+consume only.
    let cluster = KafkaCluster::new(1).unwrap();
    let mut next_topic = 0u32;

    let mut group = c.benchmark_group("kafka_vs_traditional_mq");
    group.sample_size(10);
    group.throughput(Throughput::Elements((MSGS * SUBSCRIBERS) as u64));

    group.bench_function("kafka_produce_consume_5k_x3", |b| {
        b.iter(|| {
            let topic = format!("t{next_topic}");
            next_topic += 1;
            cluster.create_topic(&topic, 1).unwrap();
            let broker = cluster.broker_for(&topic, 0).unwrap();
            broker.log(&topic, 0).unwrap().append_frames(&set.encode()).unwrap();
            // 3 independent subscribers: zero broker-side state, each just
            // reads the log.
            let mut seen = 0;
            for _ in 0..SUBSCRIBERS {
                let mut consumer = SimpleConsumer::new(cluster.clone(), &topic, 0).unwrap();
                loop {
                    let batch = consumer.poll().unwrap();
                    if batch.is_empty() {
                        break;
                    }
                    seen += batch.len();
                }
            }
            black_box(seen)
        })
    });

    group.bench_function("traditional_mq_5k_x3", |b| {
        b.iter(|| {
            let mq = TraditionalMq::new();
            for s in 0..SUBSCRIBERS {
                mq.register_consumer(&format!("c{s}"));
            }
            for p in &payloads {
                mq.publish(Bytes::from(p.clone()));
            }
            // Each subscriber must individually ack every message before
            // the broker can forget it.
            let mut seen = 0;
            for s in 0..SUBSCRIBERS {
                let name = format!("c{s}");
                loop {
                    let batch = mq.deliver(&name, 500);
                    if batch.is_empty() {
                        break;
                    }
                    for (id, _) in batch {
                        mq.ack(&name, id);
                        seen += 1;
                    }
                }
            }
            black_box((seen, mq.retained()))
        })
    });
    group.finish();
}

fn bench_batching(c: &mut Criterion) {
    println!("\n=== C-13: producer batch-size sweep ===");
    let payloads = event_payloads(2_000);
    let mut group = c.benchmark_group("kafka_batching");
    group.throughput(Throughput::Elements(payloads.len() as u64));
    for &batch in &[1usize, 10, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("produce_2k", batch), &batch, |b, &batch| {
            b.iter(|| {
                let cluster = KafkaCluster::new(1).unwrap();
                cluster.create_topic("t", 1).unwrap();
                let producer = Producer::new(cluster.clone()).with_batch_size(batch);
                for p in &payloads {
                    producer.send("t", p.clone()).unwrap();
                }
                producer.flush().unwrap();
                black_box(producer.stats().requests)
            })
        });
    }
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    println!("\n=== C-14: batch compression bandwidth (paper: ~2/3 saved) ===");
    let payloads = event_payloads(2_000);
    // One-shot bandwidth report.
    {
        let cluster = KafkaCluster::new(1).unwrap();
        cluster.create_topic("t", 1).unwrap();
        let plain = Producer::new(cluster.clone()).with_batch_size(200);
        let packed = Producer::new(cluster.clone())
            .with_batch_size(200)
            .with_codec(Codec::Lz);
        for p in &payloads {
            plain.send("t", p.clone()).unwrap();
            packed.send("t", p.clone()).unwrap();
        }
        plain.flush().unwrap();
        packed.flush().unwrap();
        let (pw, cw) = (plain.stats().wire_bytes, packed.stats().wire_bytes);
        println!(
            "wire bytes: plain {pw}, compressed {cw} -> saved {:.1}% (paper: ~66%)",
            100.0 * (1.0 - cw as f64 / pw as f64)
        );
    }
    let mut group = c.benchmark_group("kafka_compression");
    group.throughput(Throughput::Elements(payloads.len() as u64));
    for (name, codec) in [("plain", Codec::None), ("lz", Codec::Lz)] {
        group.bench_with_input(BenchmarkId::new("produce_2k", name), &codec, |b, &codec| {
            b.iter(|| {
                let cluster = KafkaCluster::new(1).unwrap();
                cluster.create_topic("t", 1).unwrap();
                let producer = Producer::new(cluster.clone())
                    .with_batch_size(200)
                    .with_codec(codec);
                for p in &payloads {
                    producer.send("t", p.clone()).unwrap();
                }
                producer.flush().unwrap();
                black_box(producer.stats().wire_bytes)
            })
        });
    }
    group.finish();
}

fn bench_zero_copy(c: &mut Criterion) {
    println!("\n=== C-15: sendfile zero-copy vs 4-copy send path ===");
    let segment = Bytes::from(event_payloads(20_000).join("\n").into_bytes());
    println!("segment: {} MB served in 256 KiB chunks", segment.len() >> 20);
    let chunk = 256 * 1024;
    let mut group = c.benchmark_group("kafka_zerocopy");
    group.throughput(Throughput::Bytes(segment.len() as u64));
    for (name, mode) in [
        ("sendfile_zero_copy", TransferMode::ZeroCopy),
        ("four_copy", TransferMode::FourCopy),
    ] {
        group.bench_with_input(BenchmarkId::new("serve_segment", name), &mode, |b, &mode| {
            b.iter(|| {
                let mut copied = 0u64;
                let mut offset = 0usize;
                while offset < segment.len() {
                    let (bytes, stats) = transfer(&segment, offset, chunk, mode);
                    copied += stats.bytes_copied;
                    offset += bytes.len();
                    black_box(&bytes);
                }
                black_box(copied)
            })
        });
    }
    group.finish();
}

fn bench_pipeline_e2e(c: &mut Criterion) {
    println!("\n=== C-18: end-to-end pipeline latency (produce -> mirror -> warehouse) ===");
    println!("paper: ~10 s dominated by the batch load period; we scale the period and show");
    println!("latency ~= load period / 2 + transport (transport itself is microseconds)\n");
    // One-shot experiment with a virtual clock: event timestamps vs load
    // times under a 10 s load period, events arriving each second.
    {
        let clock = SimClock::new();
        let live = KafkaCluster::with_parts(1, LogConfig::default(), Arc::new(clock.clone())).unwrap();
        let offline = KafkaCluster::with_parts(1, LogConfig::default(), Arc::new(clock.clone())).unwrap();
        live.create_topic("t", 1).unwrap();
        offline.create_topic("t", 1).unwrap();
        let producer = Producer::new(live.clone());
        let mirror = MirrorMaker::new(live.clone(), offline.clone(), ["t"]).unwrap();
        let loader = WarehouseLoader::new(offline.clone(), ["t"], Duration::from_secs(10));

        let mut latencies = Vec::new();
        for second in 0..60u64 {
            producer.send("t", format!("{}", clock.now_nanos())).unwrap();
            producer.flush().unwrap();
            mirror.pump().unwrap();
            loader.tick().unwrap();
            clock.advance(Duration::from_secs(1));
            let _ = second;
        }
        loader.run_load().unwrap();
        for row in loader.rows() {
            let produced: u64 = String::from_utf8_lossy(&row.payload).parse().unwrap();
            latencies.push((row.loaded_at - produced) as f64 / 1e9);
        }
        let avg = latencies.iter().sum::<f64>() / latencies.len() as f64;
        println!(
            "60 events over 60 s, 10 s load period -> avg e2e latency {avg:.1} s (paper: ~10 s)"
        );
    }
    // Criterion-measured transport-only hop (everything but the batch wait).
    let mut group = c.benchmark_group("kafka_pipeline_e2e");
    group.sample_size(10);
    group.bench_function("transport_hop_produce_mirror_load", |b| {
        b.iter(|| {
            let live = KafkaCluster::new(1).unwrap();
            let offline = KafkaCluster::new(1).unwrap();
            live.create_topic("t", 1).unwrap();
            offline.create_topic("t", 1).unwrap();
            let producer = Producer::new(live.clone());
            let mirror = MirrorMaker::new(live, offline.clone(), ["t"]).unwrap();
            let loader = WarehouseLoader::new(offline, ["t"], Duration::ZERO);
            for i in 0..50 {
                producer.send("t", format!("e{i}")).unwrap();
            }
            producer.flush().unwrap();
            mirror.pump().unwrap();
            black_box(loader.run_load().unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_vs_traditional_mq, bench_batching, bench_compression, bench_zero_copy, bench_pipeline_e2e
}
criterion_main!(benches);
