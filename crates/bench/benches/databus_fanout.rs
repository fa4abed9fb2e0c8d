//! Experiment C-23 (EXPERIMENTS.md): zero-copy relay fan-out.
//!
//! Paper claim (§III.C): the relay provides a "default serving path with
//! very low latency" and "support of hundreds of consumers per relay with
//! no additional impact on the source database". Serving cost must not
//! scale with consumers × buffered bytes.
//!
//! Two serving paths over the same buffered stream:
//!
//! * **copy** — the eager serve (`copy_serve` below): an owned `Window`
//!   clone (per-change table/key allocations) materialized for every
//!   window, for every consumer, every poll.
//! * **zero_copy** — `Relay::events_after_shared`: `Arc`-shared frozen
//!   windows; an unfiltered consumer does zero per-change work, a filtered
//!   consumer skips non-matching windows in O(1) via the ingest-time
//!   filter summary.
//!
//! Consumer counts sweep 1 → 256; filtered runs use a table filter that
//! matches half the stream exactly (whole-window match or whole-window
//! skip — the summary fast path) so the filtered comparison isolates the
//! skip index rather than trim cost.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use li_databus::{Relay, ServerFilter, Window, WindowView};
use li_sqlstore::{Op, Row, RowChange, RowKey};
use std::hint::black_box;

const WINDOWS: u64 = 1_000;
const CHANGES_PER_WINDOW: usize = 4;
const PAYLOAD: usize = 256;

/// Windows alternate between two tables so `for_tables(["member"])`
/// matches exactly half the stream, always whole-window.
fn window(scn: u64) -> Window {
    let table = if scn.is_multiple_of(2) { "member" } else { "company" };
    Window {
        source_db: "primary".into(),
        scn,
        timestamp: scn,
        changes: (0..CHANGES_PER_WINDOW)
            .map(|i| RowChange {
                table: table.into(),
                key: RowKey::single(format!("k{}-{i}", scn % 512)),
                op: Op::Put(Row::new(Bytes::from(vec![b'x'; PAYLOAD]), 1)),
            })
            .collect(),
    }
}

/// The eager serve: every view of the whole stream materialised into an
/// owned `Window` clone.
fn copy_serve(relay: &Relay, filter: &ServerFilter) -> Vec<Window> {
    let views = relay.events_after_shared(0, usize::MAX, filter).unwrap();
    views.into_iter().map(WindowView::into_window).collect()
}

fn loaded_relay() -> Relay {
    let relay = Relay::new("primary", usize::MAX);
    relay
        .ingest_batch((1..=WINDOWS).map(window).collect())
        .unwrap();
    relay
}

fn bench_fanout(c: &mut Criterion) {
    println!("\n=== C-23: relay fan-out, copy vs zero-copy (paper: 'hundreds of consumers') ===");
    let relay = loaded_relay();
    println!(
        "relay buffers {} windows x {CHANGES_PER_WINDOW} changes x {PAYLOAD} B (~{} MiB)",
        relay.window_count(),
        relay.buffered_bytes() >> 20
    );

    for (label, filter) in [
        ("unfiltered", ServerFilter::all()),
        ("filtered_half", ServerFilter::for_tables(["member"])),
    ] {
        let mut group = c.benchmark_group(format!("databus_fanout_{label}"));
        group.sample_size(20);
        for &consumers in &[1usize, 16, 64, 256] {
            group.throughput(Throughput::Elements(consumers as u64 * WINDOWS));
            group.bench_with_input(
                BenchmarkId::new("copy", consumers),
                &consumers,
                |b, &consumers| {
                    b.iter(|| {
                        let mut served = 0usize;
                        for _ in 0..consumers {
                            served += black_box(copy_serve(&relay, &filter)).len();
                        }
                        served
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("zero_copy", consumers),
                &consumers,
                |b, &consumers| {
                    b.iter(|| {
                        let mut served = 0usize;
                        for _ in 0..consumers {
                            served += black_box(
                                relay.events_after_shared(0, usize::MAX, &filter).unwrap(),
                            )
                            .len();
                        }
                        served
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_fanout
}
criterion_main!(benches);
