//! Ablation studies on the design choices the paper motivates but does not
//! quantify — what do N/R/W, the relay's buffer budget, and the broker's
//! flush policy actually cost?
//!
//! * **A-1 quorum sweep** — Voldemort put/get latency as (N, R, W) varies:
//!   the price of stronger consistency (`R+W > N`).
//! * **A-2 relay buffer budget** — how far behind a Databus consumer can
//!   fall before it must bootstrap, as a function of buffer bytes.
//! * **A-3 flush interval** — Kafka's throughput/visibility-latency
//!   trade-off ("we flush the segment files to disk only after a
//!   configurable number of messages").

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use li_databus::{Relay, ServerFilter, Window, WindowView};
use li_kafka::log::{LogConfig, PartitionLog};
use li_kafka::Message;
use li_sqlstore::{Op, Row, RowChange, RowKey};
use li_voldemort::{StoreDef, VoldemortCluster};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_quorum_sweep(c: &mut Criterion) {
    println!("\n=== A-1: quorum parameter sweep (N, R, W) ===");
    println!("R+W > N gives read-your-writes; the sweep shows its latency price\n");
    let mut group = c.benchmark_group("ablation_quorum");
    group.throughput(Throughput::Elements(1));
    for &(n, r, w) in &[(1usize, 1usize, 1usize), (2, 1, 1), (3, 1, 1), (3, 2, 2), (3, 3, 3)] {
        let cluster = VoldemortCluster::new(16, 3).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(n, r, w))
            .unwrap();
        let client = cluster.client("s").unwrap();
        for i in 0..1000u64 {
            client
                .put_initial(format!("k{i}").as_bytes(), Bytes::from_static(b"v"))
                .unwrap();
        }
        let label = format!("N{n}R{r}W{w}");
        let mut i = 0u64;
        group.bench_with_input(BenchmarkId::new("get", &label), &r, |b, _| {
            b.iter(|| {
                let key = format!("k{}", i % 1000);
                i += 1;
                black_box(client.get(key.as_bytes()).unwrap())
            })
        });
        let mut j = 0u64;
        group.bench_with_input(BenchmarkId::new("update", &label), &w, |b, _| {
            b.iter(|| {
                let key = format!("k{}", j % 1000);
                j += 1;
                black_box(
                    client
                        .apply_update(key.as_bytes(), 3, &|_| Some(Bytes::from_static(b"v2")))
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_relay_buffer_budget(c: &mut Criterion) {
    println!("\n=== A-2: relay buffer budget vs look-back window ===");
    println!("{:>12} | {:>16} | {:>14}", "budget", "windows held", "look-back scn");
    for &budget in &[64 << 10, 1 << 20, 16 << 20] {
        let relay = Relay::new("primary", budget);
        for scn in 1..=50_000u64 {
            relay
                .ingest(Window {
                    source_db: "primary".into(),
                    scn,
                    timestamp: scn,
                    changes: vec![RowChange {
                        table: "t".into(),
                        key: RowKey::single(format!("k{scn}")),
                        op: Op::Put(Row::new(Bytes::from(vec![b'x'; 100]), 1)),
                    }],
                })
                .unwrap();
        }
        println!(
            "{budget:>12} | {:>16} | {:>14}",
            relay.window_count(),
            relay.oldest_scn()
        );
    }
    // Criterion leg: serving cost is independent of budget (index math).
    let mut group = c.benchmark_group("ablation_relay_buffer");
    for &budget in &[1usize << 20, 16 << 20] {
        let relay = Relay::new("primary", budget);
        for scn in 1..=20_000u64 {
            relay
                .ingest(Window {
                    source_db: "primary".into(),
                    scn,
                    timestamp: scn,
                    changes: vec![RowChange {
                        table: "t".into(),
                        key: RowKey::single(format!("k{scn}")),
                        op: Op::Put(Row::new(Bytes::from(vec![b'x'; 100]), 1)),
                    }],
                })
                .unwrap();
        }
        let oldest = relay.oldest_scn();
        group.bench_with_input(BenchmarkId::new("serve_tail", budget), &budget, |b, _| {
            b.iter(|| {
                let views = relay
                    .events_after_shared(oldest.max(1) - 1 + 64, 64, &ServerFilter::all())
                    .unwrap();
                // Eager serve, as recorded: an owned clone per window.
                black_box(views.into_iter().map(WindowView::into_window).collect::<Vec<_>>())
            })
        });
    }
    group.finish();
}

fn bench_flush_interval(c: &mut Criterion) {
    println!("\n=== A-3: Kafka flush-interval sweep (durability vs append cost) ===");
    let clock = Arc::new(li_commons::sim::SimClock::new());
    let mut group = c.benchmark_group("ablation_flush_interval");
    group.throughput(Throughput::Elements(1));
    for &interval in &[1u64, 10, 100, 1000] {
        let log = PartitionLog::new(
            LogConfig {
                flush_interval_messages: interval,
                flush_interval: Duration::from_secs(3600),
                segment_bytes: 16 << 20,
                ..LogConfig::default()
            },
            clock.clone(),
        );
        let message = Message::new(Bytes::from(vec![b'e'; 120]));
        group.bench_with_input(
            BenchmarkId::new("append", interval),
            &interval,
            |b, _| b.iter(|| black_box(log.append(&message))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_quorum_sweep, bench_relay_buffer_budget, bench_flush_interval
}
criterion_main!(benches);
