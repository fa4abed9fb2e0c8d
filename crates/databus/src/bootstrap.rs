//! The bootstrap server: long look-back queries off the source's back.
//!
//! Figure III.3: "The Log writer listens for Databus events from the relay
//! and adds those to an append-only Log storage. The Log applier monitors
//! for new rows in the Log storage and applies those to the Snapshot
//! storage where only the last event for a given row/key is stored."
//!
//! Two query types (§III.C):
//!
//! * **Consolidated delta since T** — for clients that fell behind the
//!   relay: "only the last of multiple updates to the same row/key are
//!   returned. This has the effect of 'fast playback' of time."
//! * **Consistent snapshot at U** — for stateless (new) clients: serve the
//!   snapshot storage, then "the Server replays all changes that have
//!   happened since the start of the snapshot phase" to repair the rows
//!   that moved while the (long) scan was running.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use li_sqlstore::{Op, Row, RowChange, RowKey, Scn};

use crate::event::{FrozenWindow, ServerFilter, SharedWindow, Window};
use crate::relay::{Relay, RelayError};

/// A consolidated delta: the final state of every row touched after `since`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaResult {
    /// Final change per touched row, in (table, key) order.
    pub changes: Vec<RowChange>,
    /// The SCN the client should resume relay consumption from.
    pub as_of_scn: Scn,
    /// How many raw events the consolidation collapsed (the "fast
    /// playback" numerator: raw / changes.len()).
    pub raw_events: usize,
}

/// A consistent snapshot: every live row, at a single SCN.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotResult {
    /// Live rows as (table, key, row image), in (table, key) order.
    pub rows: Vec<(String, RowKey, Row)>,
    /// The SCN the client should resume relay consumption from.
    pub as_of_scn: Scn,
}

#[derive(Debug, Default)]
struct SnapshotStorage {
    /// (table, key) -> last row image; deletes remove the entry.
    rows: HashMap<(String, RowKey), Row>,
    applied_scn: Scn,
}

impl SnapshotStorage {
    fn apply(&mut self, window: &Window) {
        for change in &window.changes {
            let slot = (change.table.clone(), change.key.clone());
            match &change.op {
                Op::Put(row) => {
                    self.rows.insert(slot, row.clone());
                }
                Op::Delete => {
                    self.rows.remove(&slot);
                }
            }
        }
        self.applied_scn = window.scn;
    }
}

/// The bootstrap server. Thread-safe; share via `Arc`.
pub struct BootstrapServer {
    /// Append-only log storage (complete history). Entries are the same
    /// frozen windows the relay buffers: following a relay is a refcount
    /// bump per window, not a copy.
    log: Mutex<Vec<SharedWindow>>,
    snapshot: Mutex<SnapshotStorage>,
    /// Test hook fired between the snapshot scan and the replay phase of
    /// [`BootstrapServer::snapshot`] — the window where a mutable snapshot
    /// would serve inconsistent data without replay.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    mid_snapshot_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for BootstrapServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootstrapServer")
            .field("log_windows", &self.log.lock().len())
            .field("snapshot_rows", &self.snapshot.lock().rows.len())
            .field("applied_scn", &self.snapshot.lock().applied_scn)
            .finish()
    }
}

impl Default for BootstrapServer {
    fn default() -> Self {
        Self::new()
    }
}

impl BootstrapServer {
    /// Creates an empty bootstrap server.
    pub fn new() -> Self {
        BootstrapServer {
            log: Mutex::new(Vec::new()),
            snapshot: Mutex::new(SnapshotStorage::default()),
            #[cfg(test)]
            mid_snapshot_hook: Mutex::new(None),
        }
    }

    /// The log writer: appends windows arriving from the relay.
    pub fn ingest(&self, window: Window) {
        self.ingest_shared(FrozenWindow::freeze(window));
    }

    /// The zero-copy log writer: appends an already-frozen window (shared
    /// with the relay buffer that served it).
    pub fn ingest_shared(&self, window: SharedWindow) {
        self.log.lock().push(window);
    }

    /// Catches the bootstrap server up from a relay (its own consumer
    /// loop). Zero-copy: the log stores the relay's own frozen windows.
    /// Returns windows linked.
    ///
    /// Concurrency-safe: the log lock is held across the read-tail /
    /// fetch / append sequence, because both the stream pump and a
    /// fallen-behind client (see `DatabusClient::poll_once`) drive this —
    /// two callers observing the same tail would double-append and break
    /// the log's SCN order. After linking, the relay's eviction floor
    /// advances to the new tail: everything below it is now durable in
    /// log storage, everything above it stays pinned in the relay buffer.
    pub fn catch_up_from(&self, relay: &Relay) -> Result<usize, RelayError> {
        let mut log = self.log.lock();
        let last = log.last().map_or(0, |w| w.scn);
        let views = relay.events_after_shared(last, usize::MAX, &ServerFilter::all())?;
        let n = views.len();
        for view in views {
            log.push(view.into_shared().expect("pass-all views are shared"));
        }
        relay.set_eviction_floor(log.last().map_or(last, |w| w.scn));
        Ok(n)
    }

    /// The log applier: folds un-applied log windows into snapshot storage.
    /// Returns the number of windows applied. The log is append-only in
    /// SCN order, so the un-applied windows are exactly the suffix past
    /// `applied_scn` — binary-search the boundary instead of rescanning
    /// the whole log (a million-window log pumped every few SCNs made the
    /// full scan the site benchmark's hottest path).
    pub fn apply_log(&self) -> usize {
        let log = self.log.lock();
        let mut snapshot = self.snapshot.lock();
        let start = log.partition_point(|w| w.scn <= snapshot.applied_scn);
        let mut applied = 0;
        for window in &log[start..] {
            snapshot.apply(window);
            applied += 1;
        }
        applied
    }

    /// Newest SCN in log storage.
    pub fn log_scn(&self) -> Scn {
        self.log.lock().last().map_or(0, |w| w.scn)
    }

    /// SCN up to which snapshot storage has been built.
    pub fn applied_scn(&self) -> Scn {
        self.snapshot.lock().applied_scn
    }

    /// Query 1: consolidated delta since `since_scn` — the last change per
    /// row among all changes after `since_scn`, served from the append-only
    /// log (always consistent).
    pub fn consolidated_delta(
        &self,
        since_scn: Scn,
        filter: &ServerFilter,
    ) -> DeltaResult {
        let log = self.log.lock();
        let mut last_change: HashMap<(String, RowKey), RowChange> = HashMap::new();
        let mut as_of = since_scn;
        let mut raw_events = 0usize;
        // Append-only SCN order: the relevant windows are the suffix past
        // `since_scn`. A fallen-behind consumer re-deltas under write
        // pressure, so this runs hot — binary-search the boundary rather
        // than rescanning a million-window log per cycle.
        let start = log.partition_point(|w| w.scn <= since_scn);
        for window in &log[start..] {
            for change in window.changes.iter().filter(|c| filter.matches(c)) {
                raw_events += 1;
                last_change.insert((change.table.clone(), change.key.clone()), change.clone());
            }
            as_of = as_of.max(window.scn);
        }
        let mut changes: Vec<RowChange> = last_change.into_values().collect();
        changes.sort_by(|a, b| (&a.table, &a.key).cmp(&(&b.table, &b.key)));
        DeltaResult {
            changes,
            as_of_scn: as_of,
            raw_events,
        }
    }

    /// Query 2: consistent snapshot. Scans snapshot storage (phase 1),
    /// then replays every log window that committed during the scan
    /// (phase 2), yielding a state consistent at the returned SCN.
    pub fn snapshot(&self, filter: &ServerFilter) -> SnapshotResult {
        // Phase 1: scan the snapshot storage at whatever SCN it has.
        let (mut rows, start_scn) = {
            let snapshot = self.snapshot.lock();
            let rows: HashMap<(String, RowKey), Row> = snapshot
                .rows
                .iter()
                .filter(|((table, key), _)| {
                    // Reuse filter.matches via a synthetic change view.
                    filter.matches(&RowChange {
                        table: table.clone(),
                        key: key.clone(),
                        op: Op::Delete,
                    })
                })
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            (rows, snapshot.applied_scn)
        };

        // The dangerous interval: new commits can land now (in production
        // the scan above streams for a long time).
        #[cfg(test)]
        if let Some(hook) = self.mid_snapshot_hook.lock().take() {
            hook();
        }

        // Phase 2: replay changes since the scan started.
        let log = self.log.lock();
        let mut as_of = start_scn;
        for window in log.iter().filter(|w| w.scn > start_scn) {
            for change in window.changes.iter().filter(|c| filter.matches(c)) {
                let slot = (change.table.clone(), change.key.clone());
                match &change.op {
                    Op::Put(row) => {
                        rows.insert(slot, row.clone());
                    }
                    Op::Delete => {
                        rows.remove(&slot);
                    }
                }
            }
            as_of = as_of.max(window.scn);
        }
        let mut rows: Vec<(String, RowKey, Row)> = rows
            .into_iter()
            .map(|((table, key), row)| (table, key, row))
            .collect();
        rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        SnapshotResult {
            rows,
            as_of_scn: as_of,
        }
    }

    /// Installs a one-shot hook fired between the snapshot scan and the
    /// replay phase (consistency testing).
    #[cfg(test)]
    fn set_mid_snapshot_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.mid_snapshot_hook.lock() = Some(hook);
    }
}

/// Convenience: a fully-wired bootstrap pipeline (log writer following a
/// relay + log applier), advanced manually by tests and the client library.
pub struct BootstrapPipeline {
    /// The server.
    pub server: Arc<BootstrapServer>,
    relay: Arc<Relay>,
}

impl BootstrapPipeline {
    /// Wires a bootstrap server to follow `relay`.
    pub fn new(relay: Arc<Relay>) -> Self {
        BootstrapPipeline {
            server: Arc::new(BootstrapServer::new()),
            relay,
        }
    }

    /// One pump: log writer catch-up + log applier pass.
    pub fn pump(&self) -> Result<(), RelayError> {
        self.server.catch_up_from(&self.relay)?;
        self.server.apply_log();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn put(table: &str, key: &str, value: &str) -> RowChange {
        RowChange {
            table: table.into(),
            key: RowKey::single(key),
            op: Op::Put(Row::new(Bytes::copy_from_slice(value.as_bytes()), 1)),
        }
    }

    fn delete(table: &str, key: &str) -> RowChange {
        RowChange {
            table: table.into(),
            key: RowKey::single(key),
            op: Op::Delete,
        }
    }

    fn window(scn: Scn, changes: Vec<RowChange>) -> Window {
        Window {
            source_db: "primary".into(),
            scn,
            timestamp: scn,
            changes,
        }
    }

    fn value_of(result: &SnapshotResult, table: &str, key: &str) -> Option<String> {
        result
            .rows
            .iter()
            .find(|(t, k, _)| t == table && *k == RowKey::single(key))
            .map(|(_, _, row)| String::from_utf8_lossy(&row.value).into_owned())
    }

    #[test]
    fn log_applier_builds_snapshot() {
        let server = BootstrapServer::new();
        server.ingest(window(1, vec![put("t", "a", "1")]));
        server.ingest(window(2, vec![put("t", "a", "2"), put("t", "b", "1")]));
        server.ingest(window(3, vec![delete("t", "b")]));
        assert_eq!(server.apply_log(), 3);
        assert_eq!(server.applied_scn(), 3);
        let snap = server.snapshot(&ServerFilter::all());
        assert_eq!(snap.rows.len(), 1);
        assert_eq!(value_of(&snap, "t", "a").unwrap(), "2");
        assert_eq!(snap.as_of_scn, 3);
        // Applier is incremental.
        server.ingest(window(4, vec![put("t", "c", "1")]));
        assert_eq!(server.apply_log(), 1);
    }

    #[test]
    fn consolidated_delta_collapses_updates() {
        let server = BootstrapServer::new();
        // 100 updates to one hot key + 1 to a cold key.
        for scn in 1..=100 {
            server.ingest(window(scn, vec![put("t", "hot", &format!("v{scn}"))]));
        }
        server.ingest(window(101, vec![put("t", "cold", "x")]));
        let delta = server.consolidated_delta(0, &ServerFilter::all());
        assert_eq!(delta.changes.len(), 2, "one change per key");
        assert_eq!(delta.raw_events, 101);
        assert_eq!(delta.as_of_scn, 101);
        let hot = delta
            .changes
            .iter()
            .find(|c| c.key == RowKey::single("hot"))
            .unwrap();
        match &hot.op {
            Op::Put(row) => assert_eq!(row.value.as_ref(), b"v100"),
            Op::Delete => panic!("expected put"),
        }
    }

    #[test]
    fn consolidated_delta_since_midpoint() {
        let server = BootstrapServer::new();
        for scn in 1..=10 {
            server.ingest(window(scn, vec![put("t", &format!("k{scn}"), "v")]));
        }
        let delta = server.consolidated_delta(7, &ServerFilter::all());
        assert_eq!(delta.changes.len(), 3);
        assert_eq!(delta.as_of_scn, 10);
        // Fully caught-up client gets an empty delta.
        let empty = server.consolidated_delta(10, &ServerFilter::all());
        assert!(empty.changes.is_empty());
        assert_eq!(empty.as_of_scn, 10);
    }

    #[test]
    fn delta_reports_deletes() {
        let server = BootstrapServer::new();
        server.ingest(window(1, vec![put("t", "a", "1")]));
        server.ingest(window(2, vec![delete("t", "a")]));
        let delta = server.consolidated_delta(0, &ServerFilter::all());
        assert_eq!(delta.changes.len(), 1);
        assert!(matches!(delta.changes[0].op, Op::Delete));
    }

    #[test]
    fn snapshot_replays_changes_landing_mid_scan() {
        let server = Arc::new(BootstrapServer::new());
        server.ingest(window(1, vec![put("t", "a", "old"), put("t", "doomed", "x")]));
        server.apply_log();

        // While the snapshot scan "streams", two more commits land in the
        // log (but NOT in snapshot storage — the applier hasn't run).
        let hook_server = server.clone();
        server.set_mid_snapshot_hook(Box::new(move || {
            hook_server.ingest(window(2, vec![put("t", "a", "new")]));
            hook_server.ingest(window(3, vec![delete("t", "doomed")]));
        }));

        let snap = server.snapshot(&ServerFilter::all());
        // Replay repaired both: the update is visible, the delete applied.
        assert_eq!(value_of(&snap, "t", "a").unwrap(), "new");
        assert!(value_of(&snap, "t", "doomed").is_none());
        assert_eq!(snap.as_of_scn, 3);
    }

    #[test]
    fn filters_push_down_to_both_queries() {
        let server = BootstrapServer::new();
        server.ingest(window(1, vec![put("member", "a", "1"), put("company", "c", "2")]));
        server.apply_log();
        let filter = ServerFilter::for_tables(["member"]);
        let delta = server.consolidated_delta(0, &filter);
        assert_eq!(delta.changes.len(), 1);
        assert_eq!(delta.changes[0].table, "member");
        let snap = server.snapshot(&filter);
        assert_eq!(snap.rows.len(), 1);
        assert_eq!(snap.rows[0].0, "member");
    }

    #[test]
    fn log_writer_advances_relay_eviction_floor() {
        let relay = Arc::new(Relay::new("primary", 2048));
        relay.set_eviction_floor(0);
        let server = BootstrapServer::new();
        for scn in 1..=50 {
            relay
                .ingest(window(scn, vec![put("t", &format!("k{scn}"), "value-padding-x")]))
                .unwrap();
        }
        assert_eq!(relay.window_count(), 50, "pinned until linked");
        assert_eq!(server.catch_up_from(&relay).unwrap(), 50);
        assert_eq!(relay.eviction_floor(), Some(50), "floor follows the log tail");
        // Linked windows are evictable again on the next ingest pass.
        relay.ingest(window(51, vec![put("t", "k51", "v")])).unwrap();
        assert!(relay.oldest_scn() > 1, "eviction resumed below the floor");
        // The evicted prefix survives in log storage.
        let delta = server.consolidated_delta(0, &ServerFilter::all());
        assert_eq!(delta.changes.len(), 50, "every linked window retained");
    }

    #[test]
    fn pipeline_follows_relay() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        let pipeline = BootstrapPipeline::new(relay.clone());
        for scn in 1..=5 {
            relay.ingest(window(scn, vec![put("t", &format!("k{scn}"), "v")])).unwrap();
        }
        pipeline.pump().unwrap();
        assert_eq!(pipeline.server.log_scn(), 5);
        assert_eq!(pipeline.server.applied_scn(), 5);
        assert_eq!(pipeline.server.snapshot(&ServerFilter::all()).rows.len(), 5);
    }
}
