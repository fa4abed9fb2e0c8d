//! Databus bootstrap switchover equivalence (§III.C): a consumer that
//! falls off the relay's buffer, catches up through the bootstrap
//! service, and resumes the live stream must end up with *exactly* the
//! state of a consumer that never disconnected — no lost changes, no
//! duplicates, no SCN regressions across the switchover.

use bytes::Bytes;
use li_databus::{BootstrapServer, ConsumerCallback, DatabusClient, LogShippingAdapter, Relay, Window};
use li_sqlstore::{Database, Op, RowKey, Scn};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A consumer that materializes the change stream into a row map and
/// records every delivered window SCN.
#[derive(Default)]
struct Materializer {
    rows: Mutex<BTreeMap<(String, String), Bytes>>,
    scns: Mutex<Vec<Scn>>,
}

impl Materializer {
    fn rows(&self) -> BTreeMap<(String, String), Bytes> {
        self.rows.lock().clone()
    }

    fn scns(&self) -> Vec<Scn> {
        self.scns.lock().clone()
    }
}

impl ConsumerCallback for Materializer {
    fn on_window(&self, window: &Window) -> Result<(), String> {
        self.scns.lock().push(window.scn);
        let mut rows = self.rows.lock();
        for change in &window.changes {
            let slot = (change.table.clone(), format!("{:?}", change.key));
            match &change.op {
                Op::Put(row) => {
                    rows.insert(slot, row.value.clone());
                }
                Op::Delete => {
                    rows.remove(&slot);
                }
            }
        }
        Ok(())
    }

    fn on_snapshot_start(&self) -> Result<(), String> {
        // "All clients need to re-initialize their state."
        self.rows.lock().clear();
        Ok(())
    }
}

struct Rig {
    db: Database,
    relay: Arc<Relay>,
    bootstrap: Arc<BootstrapServer>,
}

impl Rig {
    /// One bootstrap pump, as the platform runs it: the log writer links
    /// what the relay buffered, then the log applier folds it in.
    fn pump(&self) {
        self.bootstrap.catch_up_from(&self.relay).unwrap();
        self.bootstrap.apply_log();
    }
}

/// A primary with semi-sync log shipping into a deliberately tiny relay
/// buffer (so sustained writes evict the tail) and a bootstrap server
/// following that relay.
fn rig() -> Rig {
    let db = Database::new("member_db");
    db.create_table("members").unwrap();
    let relay = Arc::new(Relay::new("member_db", 2_000));
    LogShippingAdapter::attach(&db, relay.clone());
    let bootstrap = Arc::new(BootstrapServer::new());
    Rig { db, relay, bootstrap }
}

fn commit(db: &Database, i: u64) {
    let mut txn = db.begin();
    txn.put(
        "members",
        RowKey::new([format!("m{}", i % 25)]),
        Bytes::from(format!("profile-{i}")),
        1,
    );
    if i.is_multiple_of(11) {
        txn.delete("members", RowKey::new([format!("m{}", (i + 3) % 25)]));
    }
    db.commit(txn).unwrap();
}

#[test]
fn lagging_consumer_switchover_matches_always_connected_consumer() {
    let rig = rig();
    let reference = Arc::new(Materializer::default());
    let reference_client = DatabusClient::new(
        "reference",
        rig.relay.clone(),
        Some(rig.bootstrap.clone()),
        reference.clone(),
    );
    let lagging = Arc::new(Materializer::default());
    let lagging_client = DatabusClient::new(
        "lagging",
        rig.relay.clone(),
        Some(rig.bootstrap.clone()),
        lagging.clone(),
    );

    // Phase 1: both consumers live and keeping up.
    for i in 0..30u64 {
        commit(&rig.db, i);
        rig.pump();
        reference_client.catch_up().unwrap();
        lagging_client.catch_up().unwrap();
    }
    let switchover_checkpoint = lagging_client.checkpoint();

    // Phase 2: the lagging consumer disconnects; writes continue until
    // its checkpoint is evicted from the relay's circular buffer.
    for i in 30..230u64 {
        commit(&rig.db, i);
        rig.pump();
        reference_client.catch_up().unwrap();
    }
    assert!(
        rig.relay.oldest_scn() > switchover_checkpoint,
        "precondition: the lagging consumer's checkpoint ({switchover_checkpoint}) must be \
         evicted (relay oldest {})",
        rig.relay.oldest_scn()
    );

    // Phase 3: it reconnects — the client library must switch to the
    // bootstrap service (consolidated delta) and then resume live.
    lagging_client.catch_up().unwrap();
    let stats = lagging_client.stats();
    assert_eq!(stats.deltas, 1, "exactly one consolidated-delta catch-up");
    assert_eq!(stats.snapshots, 0, "an existing consumer never re-snapshots");

    // Equivalence: byte-identical materialized state.
    assert_eq!(lagging.rows(), reference.rows());
    assert_eq!(lagging_client.checkpoint(), reference_client.checkpoint());
    assert_eq!(reference_client.stats().windows_from_bootstrap, 0);

    // No duplicates or regressions: delivered SCNs strictly increase,
    // and the only non-dense jump is the one switchover delta window.
    let scns = lagging.scns();
    assert!(scns.windows(2).all(|w| w[0] < w[1]), "SCNs must strictly increase: {scns:?}");
    let jumps = scns.windows(2).filter(|w| w[1] - w[0] > 1).count();
    assert!(jumps <= 1, "only the switchover may jump SCNs: {scns:?}");

    // And the materialized state matches the primary row-for-row.
    for i in 0..25u64 {
        let key = RowKey::new([format!("m{i}")]);
        let in_db = rig.db.get("members", &key).unwrap().map(|row| row.value);
        let in_consumer = lagging
            .rows()
            .get(&("members".to_string(), format!("{key:?}")))
            .cloned();
        assert_eq!(in_db, in_consumer, "row m{i} diverges from primary");
    }
}

#[test]
fn fresh_consumer_bootstraps_via_snapshot_then_goes_live() {
    let rig = rig();
    let reference = Arc::new(Materializer::default());
    let reference_client = DatabusClient::new(
        "reference",
        rig.relay.clone(),
        Some(rig.bootstrap.clone()),
        reference.clone(),
    );

    // Long-running stream: the relay has long evicted SCN 1 by the end.
    for i in 0..150u64 {
        commit(&rig.db, i);
        rig.pump();
        reference_client.catch_up().unwrap();
    }
    assert!(rig.relay.oldest_scn() > 1, "history must be evicted");

    // A brand-new consumer (checkpoint 0) arrives: snapshot at U, then
    // live off the relay.
    let fresh = Arc::new(Materializer::default());
    let fresh_client = DatabusClient::new(
        "fresh",
        rig.relay.clone(),
        Some(rig.bootstrap.clone()),
        fresh.clone(),
    );
    fresh_client.catch_up().unwrap();
    let stats = fresh_client.stats();
    assert_eq!(stats.snapshots, 1, "fresh consumer loads exactly one snapshot");
    assert_eq!(fresh.rows(), reference.rows());

    // More live traffic: both stay in lockstep off the relay.
    for i in 150..180u64 {
        commit(&rig.db, i);
        rig.pump();
        reference_client.catch_up().unwrap();
        fresh_client.catch_up().unwrap();
    }
    assert_eq!(fresh.rows(), reference.rows());
    assert_eq!(fresh_client.checkpoint(), reference_client.checkpoint());
    let stats = fresh_client.stats();
    assert_eq!(stats.snapshots, 1, "no re-snapshot once live");
    assert!(stats.windows_from_relay > 0, "resumed the live stream");
}
