//! Property tests for the zero-copy Databus relay serving path (ISSUE 5):
//! shared-view serving must be indistinguishable, event for event, from
//! the legacy eager clone-then-filter path for any windows/filters/batch
//! sizes; served payloads must alias relay buffer memory (pointer
//! identity, not just equal bytes — §III.C's "hundreds of consumers" scaling
//! claim depends on it); and concurrent pollers racing an ingester must
//! each observe the dense SCN stream with no loss, duplication, or
//! reordering.
//!
//! Case count defaults to 24; CI raises it with `PROPTEST_CASES=64`.

use bytes::Bytes;
use li_databus::{Relay, ServerFilter, Window, WindowView};
use li_sqlstore::{Op, Row, RowChange, RowKey, Scn};
use proptest::prelude::*;
use std::sync::Arc;

const TABLES: [&str; 4] = ["member", "company", "profile", "news"];

/// One random row change: a table from the pool, a key that doubles as the
/// partition resource, and a put (with random payload) or delete.
fn change_strategy() -> impl Strategy<Value = RowChange> {
    (
        0usize..TABLES.len(),
        0u32..16,
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..48).prop_map(Some),
            Just(None)
        ],
    )
        .prop_map(|(table, key, payload)| RowChange {
            table: TABLES[table].into(),
            key: RowKey::single(format!("k{key}")),
            op: match payload {
                Some(bytes) => Op::Put(Row::new(Bytes::from(bytes), 1)),
                None => Op::Delete,
            },
        })
}

/// A dense run of windows starting at a random SCN.
fn windows_strategy() -> impl Strategy<Value = Vec<Window>> {
    (1u64..40, proptest::collection::vec(proptest::collection::vec(change_strategy(), 0..5), 1..30))
        .prop_map(|(start, changes)| {
            changes
                .into_iter()
                .enumerate()
                .map(|(i, changes)| Window {
                    source_db: "primary".into(),
                    scn: start + i as Scn,
                    timestamp: start + i as Scn,
                    changes,
                })
                .collect()
        })
}

/// A random server filter: pass-all, table subset (possibly including a
/// table nothing uses), or partition selection.
fn filter_strategy() -> impl Strategy<Value = ServerFilter> {
    prop_oneof![
        Just(ServerFilter::all()),
        proptest::collection::vec(0usize..TABLES.len() + 1, 1..3).prop_map(|idx| {
            ServerFilter::for_tables(
                idx.into_iter()
                    .map(|i| if i < TABLES.len() { TABLES[i].to_string() } else { "ghost".into() }),
            )
        }),
        (1u32..6).prop_flat_map(|n| (Just(n), 0..n)).prop_map(|(n, id)| {
            ServerFilter::for_partition(n, id)
        }),
    ]
}

/// The legacy serving semantics, computed directly from the source windows:
/// every window after `after_scn` (up to `max_windows`), eagerly cloned and
/// filtered.
fn legacy_serve(
    windows: &[Window],
    after_scn: Scn,
    max_windows: usize,
    filter: &ServerFilter,
) -> Vec<Window> {
    windows
        .iter()
        .filter(|w| w.scn > after_scn)
        .take(max_windows)
        .map(|w| filter.apply(w))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero-copy filtered serving ≡ legacy eager clone-then-filter, for
    /// random windows, filters, ingest batch splits, poll positions, and
    /// poll sizes.
    #[test]
    fn prop_shared_serving_equals_eager_filtering(
        windows in windows_strategy(),
        filter in filter_strategy(),
        batch_split in proptest::collection::vec(1usize..8, 1..12),
        start in any::<proptest::sample::Index>(),
        max_windows in prop_oneof![Just(usize::MAX), 1usize..10],
    ) {
        let relay = Relay::new("primary", 1 << 24);
        // Ingest through random batch sizes (exercising both the single
        // and the batched path — a batch of 1 is `ingest`'s shape).
        let mut remaining = windows.as_slice();
        let mut splits = batch_split.iter().cycle();
        while !remaining.is_empty() {
            let take = (*splits.next().unwrap()).min(remaining.len());
            let (batch, rest) = remaining.split_at(take);
            if take == 1 {
                relay.ingest(batch[0].clone()).unwrap();
            } else {
                relay.ingest_batch(batch.to_vec()).unwrap();
            }
            remaining = rest;
        }

        // Poll positions from "everything" to "past the end".
        let oldest = windows[0].scn;
        let positions: Vec<Scn> =
            (oldest - 1..=windows.last().unwrap().scn + 1).collect();
        let after_scn = positions[start.index(positions.len())];

        let got: Vec<Window> = relay
            .events_after_shared(after_scn, max_windows, &filter)
            .unwrap()
            .into_iter()
            .map(WindowView::into_window)
            .collect();
        let want = legacy_serve(&windows, after_scn, max_windows, &filter);
        prop_assert_eq!(got, want);
    }

    /// Same equivalence under eviction pressure: a byte-constrained relay
    /// must still serve exactly the legacy result over whatever suffix it
    /// retained, and reject positions that fell off the tail.
    #[test]
    fn prop_eviction_preserves_serving_semantics(
        windows in windows_strategy(),
        filter in filter_strategy(),
        max_bytes in 256usize..4096,
    ) {
        let relay = Relay::new("primary", max_bytes);
        for w in &windows {
            relay.ingest(w.clone()).unwrap();
        }
        let oldest = relay.oldest_scn();
        let newest = relay.newest_scn();
        prop_assert_eq!(newest, windows.last().unwrap().scn, "newest never evicted");

        // Every valid position serves the legacy result over the suffix.
        for after_scn in oldest - 1..=newest {
            let got: Vec<Window> = relay
                .events_after_shared(after_scn, usize::MAX, &filter)
                .unwrap()
                .into_iter()
                .map(WindowView::into_window)
                .collect();
            let want = legacy_serve(&windows, after_scn, usize::MAX, &filter);
            prop_assert_eq!(got, want);
        }
        // A position strictly before the retained tail must error.
        if oldest > windows[0].scn {
            prop_assert!(relay
                .events_after_shared(oldest.saturating_sub(2), usize::MAX, &filter)
                .is_err());
        }
    }
}

/// The zero-copy proof at the databus tier: payloads served to a consumer
/// must hold a refcount on — and point into — the very allocation that was
/// ingested into the relay buffer. Mirrors
/// `kafka_log_props::fetched_payloads_point_into_broker_segment_storage`.
#[test]
fn served_payloads_alias_relay_buffer_memory() {
    let relay = Relay::new("primary", 1 << 24);
    let mut originals = Vec::new();
    for scn in 1..=32u64 {
        let payload = Bytes::from(format!("payload-{scn:04}-{}", "x".repeat(64)).into_bytes());
        originals.push(payload.clone());
        relay
            .ingest(Window {
                source_db: "primary".into(),
                scn,
                timestamp: scn,
                changes: vec![RowChange {
                    table: "member".into(),
                    key: RowKey::single(format!("k{scn}")),
                    op: Op::Put(Row::new(payload, 1)),
                }],
            })
            .unwrap();
    }

    let views = relay
        .events_after_shared(0, usize::MAX, &ServerFilter::all())
        .unwrap();
    assert_eq!(views.len(), 32);
    for (view, original) in views.iter().zip(&originals) {
        assert!(view.is_shared(), "unfiltered serving is allocation-free");
        let Op::Put(row) = &view.changes[0].op else {
            panic!("expected put");
        };
        assert!(
            row.value.shares_allocation(original),
            "served payload must hold a refcount on the ingested allocation"
        );
        let p = row.value.as_ref().as_ptr() as usize;
        let base = original.as_ref().as_ptr() as usize;
        assert!(
            p >= base && p + row.value.len() <= base + original.len(),
            "served payload bytes must lie inside the ingested allocation"
        );
    }

    // Even a *trimming* filter keeps surviving payloads aliased — only the
    // window scaffolding is rebuilt, never the bytes.
    let filtered = relay
        .events_after_shared(0, usize::MAX, &ServerFilter::for_tables(["member"]))
        .unwrap();
    let Op::Put(row) = &filtered[0].changes[0].op else {
        panic!("expected put");
    };
    assert!(row.value.shares_allocation(&originals[0]));
}

/// Lock-contention smoke test: 8 consumers polling flat out while an
/// ingester appends. Every consumer must observe the dense SCN stream in
/// order with no gaps or duplicates, and the total event count must be
/// conserved end to end.
#[test]
fn concurrent_pollers_observe_dense_ordered_stream() {
    const WINDOWS: u64 = 200;
    const EVENTS_PER_WINDOW: usize = 2;
    const CONSUMERS: usize = 8;

    let relay = Arc::new(Relay::new("primary", 1 << 26));
    let make_window = |scn: u64| Window {
        source_db: "primary".into(),
        scn,
        timestamp: scn,
        changes: (0..EVENTS_PER_WINDOW)
            .map(|i| RowChange {
                table: TABLES[(scn as usize + i) % TABLES.len()].into(),
                key: RowKey::single(format!("k{scn}-{i}")),
                op: Op::Put(Row::new(Bytes::from(vec![b'v'; 32]), 1)),
            })
            .collect(),
    };

    let ingester = {
        let relay = Arc::clone(&relay);
        std::thread::spawn(move || {
            let mut scn = 1u64;
            while scn <= WINDOWS {
                // Mix single ingests and small batches.
                if scn.is_multiple_of(3) && scn + 2 <= WINDOWS {
                    relay
                        .ingest_batch((scn..scn + 3).map(make_window).collect())
                        .unwrap();
                    scn += 3;
                } else {
                    relay.ingest(make_window(scn)).unwrap();
                    scn += 1;
                }
                if scn.is_multiple_of(32) {
                    std::thread::yield_now();
                }
            }
        })
    };

    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || {
                let filter = ServerFilter::all();
                let mut checkpoint = 0u64;
                let mut events = 0usize;
                let mut spins = 0u64;
                while checkpoint < WINDOWS {
                    let views = relay.events_after_shared(checkpoint, 7, &filter).unwrap();
                    if views.is_empty() {
                        spins += 1;
                        assert!(spins < 50_000_000, "ingester stalled");
                        std::thread::yield_now();
                        continue;
                    }
                    for view in &views {
                        // Dense, ordered, no duplicates: each window is
                        // exactly the next SCN.
                        assert_eq!(view.scn, checkpoint + 1, "gap or duplicate");
                        assert_eq!(view.changes.len(), EVENTS_PER_WINDOW);
                        events += view.changes.len();
                        checkpoint = view.scn;
                    }
                }
                events
            })
        })
        .collect();

    ingester.join().unwrap();
    for consumer in consumers {
        let events = consumer.join().unwrap();
        assert_eq!(
            events,
            WINDOWS as usize * EVENTS_PER_WINDOW,
            "every consumer sees every event exactly once"
        );
    }
    assert_eq!(relay.newest_scn(), WINDOWS);
    assert_eq!(relay.windows_ingested(), WINDOWS);
}
