//! Cross-crate timeline-consistency tests (experiment C-8 of DESIGN.md):
//! primary store → Databus → derived systems, under interleavings,
//! fallen-behind consumers, and random operation sequences.

use bytes::Bytes;
use li_databus::{
    BootstrapServer, ConsumerCallback, DatabusClient, LogShippingAdapter, Relay, ServerFilter,
    Window,
};
use li_sqlstore::{Database, Op, RowKey};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A consumer that rebuilds a key-value view and checks the §III.B
/// guarantees while doing so: windows must arrive in commit order, whole.
#[derive(Default)]
struct ViewConsumer {
    state: Mutex<HashMap<RowKey, Bytes>>,
    last_scn: Mutex<u64>,
    window_sizes: Mutex<Vec<usize>>,
}

impl ConsumerCallback for ViewConsumer {
    fn on_window(&self, window: &Window) -> Result<(), String> {
        {
            let mut last = self.last_scn.lock();
            if window.scn < *last {
                return Err(format!("commit order violated: {} after {}", window.scn, *last));
            }
            *last = window.scn;
        }
        self.window_sizes.lock().push(window.changes.len());
        let mut state = self.state.lock();
        for change in &window.changes {
            match &change.op {
                Op::Put(row) => {
                    state.insert(change.key.clone(), row.value.clone());
                }
                Op::Delete => {
                    state.remove(&change.key);
                }
            }
        }
        Ok(())
    }

    fn on_snapshot_start(&self) {
        self.state.lock().clear();
    }
}

fn primary_with_table() -> Arc<Database> {
    let db = Arc::new(Database::new("primary"));
    db.create_table("t").unwrap();
    db
}

fn primary_view(db: &Database) -> HashMap<RowKey, Bytes> {
    db.scan_prefix("t", &RowKey::default())
        .unwrap()
        .into_iter()
        .map(|(k, row)| (k, row.value))
        .collect()
}

#[test]
fn multi_row_transactions_arrive_whole_and_ordered() {
    let db = primary_with_table();
    let relay = Arc::new(Relay::new("primary", 1 << 20));
    LogShippingAdapter::attach(&db, relay.clone());

    // The paper's mailbox example: multi-row atomic commits.
    for i in 0..20 {
        let mut txn = db.begin();
        txn.put("t", RowKey::new([format!("mailbox:{i}"), "msg".into()]), &b"hello"[..], 1);
        txn.put("t", RowKey::single(format!("unread:{i}")), &b"1"[..], 1);
        db.commit(txn).unwrap();
    }
    let consumer = Arc::new(ViewConsumer::default());
    let client = DatabusClient::new(relay, None, consumer.clone());
    client.catch_up().unwrap();
    assert!(
        consumer.window_sizes.lock().iter().all(|&n| n == 2),
        "transaction boundaries preserved"
    );
    assert_eq!(consumer.state.lock().len(), 40);
}

/// A scaled consumer group partitions the stream server-side by resource
/// id: each member sees a disjoint share, and together they rebuild the
/// primary.
#[test]
fn partitioned_consumers_divide_the_stream_and_together_rebuild_it() {
    let db = primary_with_table();
    let relay = Arc::new(Relay::new("primary", 1 << 20));
    LogShippingAdapter::attach(&db, relay.clone());
    for i in 0..100 {
        db.put_one("t", RowKey::single(format!("resource-{i}")), &b"v"[..], 1)
            .unwrap();
    }
    let members = 4u32;
    let mut union = HashMap::new();
    for id in 0..members {
        let consumer = Arc::new(ViewConsumer::default());
        DatabusClient::new(relay.clone(), None, consumer.clone())
            .with_filter(ServerFilter::for_partition(members, id))
            .catch_up()
            .unwrap();
        let share = consumer.state.lock().clone();
        assert!(!share.is_empty(), "member {id} got no work");
        for (key, value) in share {
            assert!(union.insert(key, value).is_none(), "a row reached two members");
        }
    }
    assert_eq!(union, primary_view(&db));
}

#[test]
fn derived_view_converges_to_primary_through_bootstrap() {
    // The consumer joins late, after the relay evicted early history: it
    // must arrive at the same state via the snapshot path.
    let db = primary_with_table();
    let relay = Arc::new(Relay::new("primary", 4096)); // tiny buffer
    LogShippingAdapter::attach(&db, relay.clone());
    let bootstrap = Arc::new(BootstrapServer::new());

    for i in 0..200u32 {
        let key = RowKey::single(format!("k{}", i % 23));
        if i % 7 == 3 {
            let _ = db.delete_one("t", key);
        } else {
            db.put_one("t", key, format!("v{i}").into_bytes(), 1).unwrap();
        }
        // Bootstrap keeps up continuously (log writer).
        bootstrap.catch_up_from(&relay).unwrap();
    }
    bootstrap.apply_log();
    assert!(relay.oldest_scn() > 1, "relay must have evicted history");

    let consumer = Arc::new(ViewConsumer::default());
    let client = DatabusClient::new(relay.clone(), Some(bootstrap), consumer.clone());
    client.catch_up().unwrap();
    assert_eq!(*consumer.state.lock(), primary_view(&db), "views converge");

    // And stays convergent for post-bootstrap traffic over the relay.
    db.put_one("t", RowKey::single("fresh"), &b"new"[..], 1).unwrap();
    client.catch_up().unwrap();
    assert_eq!(*consumer.state.lock(), primary_view(&db));
}

#[test]
fn at_least_once_redelivery_is_idempotent() {
    let db = primary_with_table();
    let relay = Arc::new(Relay::new("primary", 1 << 20));
    LogShippingAdapter::attach(&db, relay.clone());
    for i in 0..10 {
        db.put_one("t", RowKey::single(format!("k{i}")), &b"v"[..], 1).unwrap();
    }
    let consumer = Arc::new(ViewConsumer::default());
    let client = DatabusClient::new(relay, None, consumer.clone());
    client.catch_up().unwrap();
    let before = consumer.state.lock().clone();
    // Simulate a crash before checkpoint persistence: rewind + reprocess.
    client.set_checkpoint(5);
    // Redelivery may not violate commit-order *forward* progress.
    *consumer.last_scn.lock() = 0;
    client.catch_up().unwrap();
    assert_eq!(*consumer.state.lock(), before, "replay is idempotent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random op sequence, any relay buffer size, any consumer join
    /// time: the derived view equals the primary at the end.
    #[test]
    fn prop_random_histories_converge(
        ops in proptest::collection::vec((0u8..3, 0u8..16, 0u16..1000), 1..120),
        relay_budget in 1024usize..32768,
        join_after in 0usize..120,
    ) {
        let db = primary_with_table();
        let relay = Arc::new(Relay::new("primary", relay_budget));
        LogShippingAdapter::attach(&db, relay.clone());
        let bootstrap = Arc::new(BootstrapServer::new());
        let consumer = Arc::new(ViewConsumer::default());
        let client = DatabusClient::new(relay.clone(), Some(bootstrap.clone()), consumer.clone());

        for (i, (kind, key, val)) in ops.iter().enumerate() {
            let key = RowKey::single(format!("k{key}"));
            match kind {
                0 | 1 => {
                    db.put_one("t", key, format!("v{val}").into_bytes(), 1).unwrap();
                }
                _ => {
                    let _ = db.delete_one("t", key);
                }
            }
            bootstrap.catch_up_from(&relay).unwrap();
            bootstrap.apply_log();
            if i == join_after {
                client.catch_up().unwrap();
            }
        }
        client.catch_up().unwrap();
        prop_assert_eq!(consumer.state.lock().clone(), primary_view(&db));
    }

    /// Consolidated delta ≡ full replay: folding the delta over the state
    /// at T gives the same view as replaying every event after T — whether
    /// the log applier ran before the split (the delta comes from the log
    /// suffix), after it (from snapshot entries, plus the log suffix unless
    /// it ran last) or never (from the log alone).
    #[test]
    fn prop_consolidated_delta_equals_replay(
        ops in proptest::collection::vec((0u8..3, 0u8..8, 0u16..100), 2..80),
        at in 1usize..79,
        apply_at in 0usize..100,
    ) {
        let split = at.min(ops.len().saturating_sub(1)).max(1);
        let db = primary_with_table();
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        LogShippingAdapter::attach(&db, relay.clone());
        let bootstrap = Arc::new(BootstrapServer::new());

        let mut scn_at_split = 0;
        for (i, (kind, key, val)) in ops.iter().enumerate() {
            let key = RowKey::single(format!("k{key}"));
            match kind {
                0 | 1 => { db.put_one("t", key, format!("v{val}").into_bytes(), 1).unwrap(); }
                _ => { let _ = db.delete_one("t", key); }
            }
            if i + 1 == split {
                scn_at_split = db.last_scn();
            }
            // Past the last op, the applier never runs.
            if i == apply_at {
                bootstrap.catch_up_from(&relay).unwrap();
                bootstrap.apply_log();
            }
        }
        bootstrap.catch_up_from(&relay).unwrap();

        // Replay path: state at T + every window after T.
        let replay_consumer = Arc::new(ViewConsumer::default());
        let replay_client = DatabusClient::new(relay.clone(), None, replay_consumer.clone());
        replay_client.catch_up().unwrap();

        // Delta path: state at T + consolidated delta since T.
        let delta = bootstrap.changes_since(scn_at_split, &li_databus::ServerFilter::all());
        // Rebuild state at T from the relay.
        let at_t = Arc::new(ViewConsumer::default());
        {
            let c = DatabusClient::new(relay.clone(), None, at_t.clone());
            // consume windows up to scn_at_split only
            loop {
                let before = c.checkpoint();
                if before >= scn_at_split { break; }
                c.poll_once().unwrap();
                if c.checkpoint() == before { break; }
            }
        }
        // The poll batches may overshoot; recompute precisely instead.
        let mut state: HashMap<RowKey, Bytes> = HashMap::new();
        for entry in db.binlog_after(0).iter().filter(|e| e.scn <= scn_at_split) {
            for change in &entry.changes {
                match &change.op {
                    Op::Put(row) => { state.insert(change.key.clone(), row.value.clone()); }
                    Op::Delete => { state.remove(&change.key); }
                }
            }
        }
        for change in &delta.changes {
            match &change.op {
                Op::Put(row) => { state.insert(change.key.clone(), row.value.clone()); }
                Op::Delete => { state.remove(&change.key); }
            }
        }
        prop_assert_eq!(state, primary_view(&db));
        prop_assert_eq!(delta.scn, db.last_scn());
        // Fast playback: the delta never has more events than the raw tail.
        let raw: usize = db.binlog_after(scn_at_split).iter().map(|e| e.changes.len()).sum();
        prop_assert!(delta.changes.len() <= raw);
    }
}
