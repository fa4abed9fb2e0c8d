//! Experiment C-26: "How Fast Can We Insert?" — the group-commit ingest
//! sweep.
//!
//! §V's produce path, stress-tested the way the paper's evaluation asks
//! of every store. Concurrent producers hit a 3-broker replicated
//! cluster two ways:
//!
//! * **legacy** — the per-request baseline (`per_request_produce`
//!   below): every producer resolves the leader and takes its partition
//!   log lock itself, one append + one flush check + one wakeup per
//!   request (the Leader-ack contract, bypassing the group queue).
//! * **grouped** — `ReplicatedCluster::produce_with_ack`: producers
//!   enqueue pre-encoded frame groups into the partition's
//!   [`GroupQueue`]; one drainer commits every pending group with a
//!   single log-lock acquisition (`PartitionLog::append_chunks`, each
//!   group's buffer moved in by reference), and for
//!   `AckMode::FullIsr` a single replication ship covers the whole
//!   batch.
//!
//! The matrix sweeps {producers} × {batch size} × {ack mode} ×
//! {partition count}, recording p50/p99 produce latency and messages/s.
//! The headline row (Leader ack, batch 16, 4 partitions) also reports
//! the saturation throughput and the knee — the smallest producer count
//! reaching 90% of it. The host is single-core, so the grouped win must
//! come from doing *less work per message* under contention (fewer lock
//! acquisitions, flush checks, and condvar broadcasts), not from
//! parallel appends. Prints a JSON line; EXPERIMENTS.md C-26 records a
//! single shot of it (1-core host, 2026-08-09).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use li_commons::sim::RealClock;
use li_kafka::log::LogConfig;
use li_kafka::{AckMode, KafkaCluster, MessageSet, ReplicatedCluster};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages per matrix cell (split across producers; small enough that
/// the 120-cell sweep stays in seconds, large enough to populate p99).
const TARGET_MESSAGES: usize = 3_072;
const PRODUCERS: [usize; 5] = [1, 2, 4, 8, 16];
const BATCHES: [usize; 3] = [1, 16, 128];
const PARTITION_COUNTS: [u32; 2] = [1, 4];
/// The headline row used for saturation/knee analysis.
const HEADLINE_BATCH: usize = 16;
const HEADLINE_PARTITIONS: u32 = 4;
/// Modeled stable-storage latency per flush (a cheap SSD fsync). The
/// in-memory log "fsyncs" for free, which would hide exactly the cost
/// group commit amortizes.
const FLUSH_LATENCY: Duration = Duration::from_micros(40);

#[derive(Debug, Clone, Copy)]
struct CellResult {
    messages: usize,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
}

fn ack_label(ack: AckMode) -> &'static str {
    match ack {
        AckMode::None => "none",
        AckMode::Leader => "leader",
        AckMode::FullIsr => "full_isr",
    }
}

fn fresh_cluster(partitions: u32) -> (Arc<KafkaCluster>, Arc<ReplicatedCluster>) {
    let config = LogConfig {
        // Flush-per-request durability with a modeled stable-storage
        // latency: this is the regime group commit exists for. Legacy
        // produce pays the flush on every request; the grouped drainer
        // pays it once per commit group — and because the "fsync" sleep
        // yields the CPU, producers queue behind it and groups actually
        // form, even on a single-core host.
        flush_interval_messages: 1,
        flush_interval: Duration::from_secs(3600),
        flush_latency: FLUSH_LATENCY,
        ..LogConfig::default()
    };
    let cluster = KafkaCluster::with_parts(3, config, Arc::new(RealClock::new())).unwrap();
    let rc = Arc::new(ReplicatedCluster::new(cluster.clone()));
    rc.create_topic("ingest", partitions, 3).unwrap();
    (cluster, rc)
}

/// The per-request baseline: resolve the partition's leader, then append
/// the encoded set straight to its log as one chunk.
fn per_request_produce(
    cluster: &KafkaCluster,
    rc: &ReplicatedCluster,
    partition: u32,
    set: &MessageSet,
) {
    let leader = rc.leader_of("ingest", partition).unwrap();
    let log = cluster.brokers()[leader as usize].log("ingest", partition).unwrap();
    log.append_chunks(&[Bytes::from(set.encode())]).unwrap();
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

/// Runs one matrix cell: `producers` threads each publish batches of
/// `batch` messages round-robin over `partitions`, through either the
/// grouped queue (`Some(ack)`) or the legacy per-request path (`None`).
fn run_cell(
    producers: usize,
    batch: usize,
    partitions: u32,
    ack: Option<AckMode>,
) -> CellResult {
    let (cluster, rc) = fresh_cluster(partitions);
    let batches_per_producer = (TARGET_MESSAGES / (producers * batch)).max(1);
    let messages = producers * batches_per_producer * batch;

    let started = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|t| {
            let (cluster, rc) = (cluster.clone(), rc.clone());
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(batches_per_producer);
                for i in 0..batches_per_producer {
                    let partition = ((t + i) as u32) % partitions;
                    let payloads: Vec<String> = (0..batch)
                        .map(|m| format!("pageview member={t} seq={i} msg={m} url=/in/profile"))
                        .collect();
                    let set = MessageSet::from_payloads(payloads);
                    let call = Instant::now();
                    match ack {
                        Some(ack) => {
                            rc.produce_with_ack("ingest", partition, &set, ack).unwrap();
                        }
                        None => per_request_produce(&cluster, &rc, partition, &set),
                    }
                    latencies.push(call.elapsed().as_nanos() as u64);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        latencies.extend(handle.join().unwrap());
    }
    rc.flush_ingest();
    let elapsed = started.elapsed().as_secs_f64();

    latencies.sort_unstable();
    CellResult {
        messages,
        throughput: messages as f64 / elapsed.max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

fn sweep() {
    println!(
        "\n=== C-26: group-commit ingest sweep ({TARGET_MESSAGES} msgs/cell, 3 brokers, RF=3) ==="
    );
    println!(
        "{:>8} {:>9} {:>6} {:>11} {:>9} {:>12} {:>10} {:>10}",
        "path", "ack", "batch", "partitions", "producers", "msgs/s", "p50", "p99"
    );

    // rows: (path, ack label, batch, partitions, producers, result)
    let mut rows: Vec<(String, String, usize, u32, usize, CellResult)> = Vec::new();
    for &partitions in &PARTITION_COUNTS {
        for &batch in &BATCHES {
            for &producers in &PRODUCERS {
                for ack in [AckMode::None, AckMode::Leader, AckMode::FullIsr] {
                    let result = run_cell(producers, batch, partitions, Some(ack));
                    println!(
                        "{:>8} {:>9} {:>6} {:>11} {:>9} {:>12.0} {:>8.1}us {:>8.1}us",
                        "grouped",
                        ack_label(ack),
                        batch,
                        partitions,
                        producers,
                        result.throughput,
                        result.p50_us,
                        result.p99_us
                    );
                    rows.push((
                        "grouped".into(),
                        ack_label(ack).into(),
                        batch,
                        partitions,
                        producers,
                        result,
                    ));
                }
                // Legacy baseline: per-request appends, Leader contract.
                let result = run_cell(producers, batch, partitions, None);
                println!(
                    "{:>8} {:>9} {:>6} {:>11} {:>9} {:>12.0} {:>8.1}us {:>8.1}us",
                    "legacy",
                    "leader",
                    batch,
                    partitions,
                    producers,
                    result.throughput,
                    result.p50_us,
                    result.p99_us
                );
                rows.push((
                    "legacy".into(),
                    "leader".into(),
                    batch,
                    partitions,
                    producers,
                    result,
                ));
            }
        }
    }

    let throughput_of = |path: &str, ack: &str, batch: usize, partitions: u32, producers: usize| {
        rows.iter()
            .find(|(p, a, b, pt, pr, _)| {
                p == path && a == ack && *b == batch && *pt == partitions && *pr == producers
            })
            .map(|(_, _, _, _, _, r)| r.throughput)
            .unwrap_or(0.0)
    };

    // Saturation + knee on the headline grouped Leader row.
    let headline: Vec<(usize, f64)> = PRODUCERS
        .iter()
        .map(|&p| {
            (
                p,
                throughput_of("grouped", "leader", HEADLINE_BATCH, HEADLINE_PARTITIONS, p),
            )
        })
        .collect();
    let saturation = headline.iter().map(|&(_, t)| t).fold(0.0f64, f64::max);
    let knee = headline
        .iter()
        .find(|&&(_, t)| t >= 0.9 * saturation)
        .map(|&(p, _)| p)
        .unwrap_or(1);
    println!(
        "saturation (grouped/leader, batch {HEADLINE_BATCH}, {HEADLINE_PARTITIONS} partitions): \
         {saturation:.0} msgs/s; knee: {knee} producers (first within 90%)"
    );

    // The tentpole comparison: at high producer counts the grouped path
    // must beat per-request appends on the Leader-ack row.
    for producers in [8usize, 16] {
        for &batch in &BATCHES {
            let grouped =
                throughput_of("grouped", "leader", batch, HEADLINE_PARTITIONS, producers);
            let legacy = throughput_of("legacy", "leader", batch, HEADLINE_PARTITIONS, producers);
            println!(
                "grouped vs legacy @ {producers} producers, batch {batch}: {:.2}x \
                 ({grouped:.0} vs {legacy:.0} msgs/s)",
                grouped / legacy.max(1e-9)
            );
        }
    }
    let grouped_8 = BATCHES
        .iter()
        .any(|&b| {
            throughput_of("grouped", "leader", b, HEADLINE_PARTITIONS, 8)
                > throughput_of("legacy", "leader", b, HEADLINE_PARTITIONS, 8)
        });
    assert!(
        grouped_8,
        "group commit must beat per-request appends at 8 producers on some Leader-ack row"
    );

    // Machine-readable snapshot.
    let json_rows: Vec<String> = rows
        .iter()
        .map(|(path, ack, batch, partitions, producers, r)| {
            format!(
                "{{ \"path\": \"{path}\", \"ack\": \"{ack}\", \"batch\": {batch}, \
                 \"partitions\": {partitions}, \"producers\": {producers}, \
                 \"messages\": {}, \"throughput_msgs_per_sec\": {:.0}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1} }}",
                r.messages, r.throughput, r.p50_us, r.p99_us
            )
        })
        .collect();
    println!(
        "JSON: {{ \"messages_per_cell\": {TARGET_MESSAGES}, \
         \"saturation_msgs_per_sec\": {saturation:.0}, \"knee_producers\": {knee}, \
         \"results\": [{}] }}",
        json_rows.join(", ")
    );
}

fn bench_kafka_ingest(c: &mut Criterion) {
    sweep();

    // Standard criterion report: the headline cell both ways, as a
    // regression canary.
    let mut group = c.benchmark_group("kafka_ingest");
    group.sample_size(10);
    group.bench_function("grouped_leader_p8_b16", |b| {
        b.iter(|| black_box(run_cell(8, HEADLINE_BATCH, HEADLINE_PARTITIONS, Some(AckMode::Leader))))
    });
    group.bench_function("legacy_leader_p8_b16", |b| {
        b.iter(|| black_box(run_cell(8, HEADLINE_BATCH, HEADLINE_PARTITIONS, None)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_kafka_ingest
}
criterion_main!(benches);
