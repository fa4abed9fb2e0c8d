//! Experiments C-6, F-III.1/2, C-7, F-III.3 (DESIGN.md): Databus.
//!
//! Paper claims (§III.C):
//! * C-6 — relay default serving path "<1 ms" with GB-scale buffering.
//! * F-III.2 — "support of hundreds of consumers per relay with no
//!   additional impact on the source database".
//! * C-7 — consolidated delta: "'fast playback' of time" vs full replay.
//! * F-III.3 — bootstrap snapshot + delta query paths.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use li_databus::{BootstrapServer, LogShippingAdapter, Relay, ServerFilter, Window, WindowView};
use li_sqlstore::{BinlogEntry, Database, Op, Row, RowChange, RowKey};
use std::hint::black_box;
use std::sync::Arc;

fn window(scn: u64, keys: u64, bytes: usize) -> Window {
    Window {
        source_db: "primary".into(),
        scn,
        timestamp: scn,
        changes: vec![RowChange {
            table: "member".into(),
            key: RowKey::single(format!("k{}", scn % keys)),
            op: Op::Put(Row::new(Bytes::from(vec![b'x'; bytes]), 1)),
        }],
    }
}

/// The eager serve the "copy" series measure: every served view
/// materialised into an owned `Window` clone.
fn copy_serve(
    relay: &Relay,
    after_scn: u64,
    max_windows: usize,
    filter: &ServerFilter,
) -> Vec<Window> {
    let views = relay.events_after_shared(after_scn, max_windows, filter).unwrap();
    views.into_iter().map(WindowView::into_window).collect()
}

fn bench_relay_serving(c: &mut Criterion) {
    println!("\n=== C-6: relay in-memory buffer serving (paper: <1 ms default path) ===");
    let relay = Relay::new("primary", 64 << 20);
    for scn in 1..=100_000u64 {
        relay.ingest(window(scn, 10_000, 200)).unwrap();
    }
    println!(
        "relay buffers {} windows, ~{} MB",
        relay.window_count(),
        relay.buffered_bytes() >> 20
    );
    let mut group = c.benchmark_group("databus_relay_latency");
    group.throughput(Throughput::Elements(64));
    let newest = relay.newest_scn();
    let mut cursor = 0u64;
    group.bench_function("serve_64_windows_from_scn", |b| {
        b.iter(|| {
            cursor = (cursor + 977) % (newest - 64);
            // A caught-up-ish consumer pulling a 64-window batch.
            let from = relay.oldest_scn().max(cursor);
            black_box(copy_serve(&relay, from, 64, &ServerFilter::all()))
        })
    });
    group.finish();
}

fn bench_consumer_scaling(c: &mut Criterion) {
    println!("\n=== F-III.1/2: consumer fan-out is absorbed by the relay, not the source ===");
    println!("{:>10} | {:>18} | {:>22}", "consumers", "relay reads", "source-db windows");
    let mut group = c.benchmark_group("databus_relay_scaling");
    for &consumers in &[1usize, 16, 64, 256] {
        let db = Database::new("primary");
        db.create_table("member").unwrap();
        let relay = Arc::new(Relay::new("primary", 16 << 20));
        LogShippingAdapter::attach(&db, relay.clone());
        for i in 0..500u64 {
            db.put_one("member", RowKey::single(format!("k{i}")), &b"v"[..], 1)
                .unwrap();
        }
        let ingested_before = relay.windows_ingested();
        group.bench_with_input(
            BenchmarkId::new("full_catchup_x_consumers", consumers),
            &consumers,
            |b, &consumers| {
                b.iter(|| {
                    for consumer in 0..consumers {
                        // Each consumer reads the full stream from scn 0.
                        let filter = ServerFilter::for_partition(consumers as u32, consumer as u32);
                        black_box(copy_serve(&relay, 0, usize::MAX, &filter));
                    }
                })
            },
        );
        assert_eq!(
            relay.windows_ingested(),
            ingested_before,
            "consumers must not touch the source"
        );
        println!(
            "{consumers:>10} | {:>18} | {:>22}",
            relay.reads_served(),
            relay.windows_ingested()
        );
    }
    group.finish();
}

fn bench_consolidated_delta(c: &mut Criterion) {
    println!("\n=== C-7: consolidated delta vs full replay ('fast playback') ===");
    // 100K updates concentrated on 1K keys: the delta collapses 100x.
    let bootstrap = BootstrapServer::new();
    const UPDATES: u64 = 100_000;
    const HOT_KEYS: u64 = 1_000;
    let mut raw = 0;
    for scn in 1..=UPDATES {
        let window = window(scn, HOT_KEYS, 64);
        raw += window.changes.len();
        bootstrap.ingest(window);
    }
    // As the platform pump does: the applier folds the log into the
    // snapshot before anyone asks.
    bootstrap.apply_log();
    let delta = bootstrap.changes_since(0, &ServerFilter::all());
    println!(
        "raw events after T: {raw} -> consolidated: {} ({}x playback speedup)",
        delta.changes.len(),
        raw / delta.changes.len().max(1)
    );

    let mut group = c.benchmark_group("databus_consolidated_delta");
    group.sample_size(10);
    group.bench_function("delta", |b| {
        b.iter(|| black_box(bootstrap.changes_since(0, &ServerFilter::all())))
    });
    // The replay alternative: a consumer applying every raw event.
    let relay = Relay::new("primary", usize::MAX);
    for scn in 1..=UPDATES {
        relay.ingest(window(scn, HOT_KEYS, 64)).unwrap();
    }
    group.bench_function("full_replay", |b| {
        b.iter(|| {
            let mut state = std::collections::HashMap::new();
            let windows = copy_serve(&relay, 0, usize::MAX, &ServerFilter::all());
            for w in &windows {
                for ch in &w.changes {
                    match &ch.op {
                        Op::Put(row) => {
                            state.insert(ch.key.clone(), row.value.clone());
                        }
                        Op::Delete => {
                            state.remove(&ch.key);
                        }
                    }
                }
            }
            black_box(state.len())
        })
    });
    group.finish();
}

fn bench_bootstrap_queries(c: &mut Criterion) {
    println!("\n=== F-III.3: bootstrap server query paths (snapshot at U / delta since T) ===");
    let bootstrap = BootstrapServer::new();
    for scn in 1..=50_000u64 {
        bootstrap.ingest(Window::from_binlog(
            "primary",
            &BinlogEntry {
                scn,
                timestamp: scn,
                changes: vec![RowChange {
                    table: "member".into(),
                    key: RowKey::single(format!("k{}", scn % 5_000)),
                    op: Op::Put(Row::new(Bytes::from(format!("v{scn}")), 1)),
                }],
            },
        ));
    }
    bootstrap.apply_log();
    let mut group = c.benchmark_group("databus_bootstrap");
    group.sample_size(10);
    group.bench_function("consistent_snapshot", |b| {
        b.iter(|| black_box(bootstrap.changes_since(0, &ServerFilter::all()).changes.len()))
    });
    group.bench_function("delta_since_90pct", |b| {
        b.iter(|| black_box(bootstrap.changes_since(45_000, &ServerFilter::all()).changes.len()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_relay_serving, bench_consumer_scaling, bench_consolidated_delta, bench_bootstrap_queries
}
criterion_main!(benches);
