//! The bootstrap server: long look-back queries off the source's back.
//!
//! Figure III.3: "The Log writer listens for Databus events from the relay
//! and adds those to an append-only Log storage. The Log applier monitors
//! for new rows in the Log storage and applies those to the Snapshot
//! storage where only the last event for a given row/key is stored."
//!
//! Snapshot storage keeps, per row, that last event together with the SCN
//! of the window that wrote it (a delete leaves a tombstone carrying its
//! SCN), and the log keeps only the windows the applier has not folded in.
//! Both query types of §III.C are then one read,
//! [`BootstrapServer::changes_since`]:
//!
//! * **Consolidated delta since T** — for clients that fell behind the
//!   relay: the rows changed after T, so "only the last of multiple
//!   updates to the same row/key are returned. This has the effect of
//!   'fast playback' of time."
//! * **Consistent snapshot** — for stateless (new) clients: the same read
//!   at T = 0, limited to live rows. After the scan, "the Server replays
//!   all changes that have happened since the start of the snapshot phase"
//!   to repair the rows that moved while the (long) scan was running.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

use li_sqlstore::{Op, RowChange, RowKey, Scn};

use crate::client::{DatabusError, Fallback, FallbackWindow};
use crate::event::{FrozenWindow, ServerFilter, SharedWindow, Window};
use crate::relay::{Relay, RelayError};

/// Rows a query has gathered: the last event per row, in (table, key)
/// order.
type Gathered = BTreeMap<(String, RowKey), Op>;

/// The last event for one row (a delete is kept as a tombstone) and the
/// SCN of the window that wrote it.
#[derive(Debug)]
struct Entry {
    scn: Scn,
    op: Op,
}

#[derive(Debug, Default)]
struct SnapshotStorage {
    rows: HashMap<(String, RowKey), Entry>,
    applied_scn: Scn,
}

impl SnapshotStorage {
    fn apply(&mut self, window: &Window) {
        for change in &window.changes {
            let entry = Entry { scn: window.scn, op: change.op.clone() };
            self.rows.insert((change.table.clone(), change.key.clone()), entry);
        }
        self.applied_scn = window.scn;
    }

    /// Gathers the entries written after `since` that pass `filter`. A
    /// fresh read (`since` = 0) skips tombstones: it serves live rows only.
    fn gather_after(&self, since: Scn, filter: &ServerFilter, into: &mut Gathered) {
        let changed = self.rows.iter().filter(|((table, key), entry)| {
            let live = matches!(entry.op, Op::Put(_));
            entry.scn > since && (since > 0 || live) && filter.matches_row(table, key)
        });
        for (slot, entry) in changed {
            into.insert(slot.clone(), entry.op.clone());
        }
    }
}

#[derive(Debug, Default)]
struct LogStorage {
    /// Linked windows the applier has not folded in yet, in SCN order.
    windows: Vec<SharedWindow>,
    /// The log tail: the newest SCN ever linked, kept across applies.
    linked_scn: Scn,
}

impl LogStorage {
    fn link(&mut self, window: SharedWindow) {
        self.linked_scn = window.scn;
        self.windows.push(window);
    }
}

/// The bootstrap server. Thread-safe; share via `Arc`.
#[derive(Default)]
pub struct BootstrapServer {
    /// Log storage. Entries are the same frozen windows the relay buffers:
    /// following a relay is a refcount bump per window, not a copy.
    log: Mutex<LogStorage>,
    snapshot: Mutex<SnapshotStorage>,
    /// Test hook fired between the scan and the replay phase of
    /// [`BootstrapServer::changes_since`] — the window where a mutable
    /// snapshot would serve inconsistent data without replay.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    mid_scan_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for BootstrapServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BootstrapServer")
            .field("log_windows", &self.log.lock().windows.len())
            .field("snapshot_rows", &self.snapshot.lock().rows.len())
            .field("applied_scn", &self.snapshot.lock().applied_scn)
            .finish()
    }
}

impl BootstrapServer {
    /// Creates an empty bootstrap server.
    pub fn new() -> Self {
        Self::default()
    }

    /// The log writer: appends a window arriving from the relay.
    pub fn ingest(&self, window: Window) {
        self.log.lock().link(FrozenWindow::freeze(window));
    }

    /// Catches the bootstrap server up from a relay (its own consumer
    /// loop). Zero-copy: the log stores the relay's own frozen windows.
    /// Returns windows linked.
    ///
    /// Concurrency-safe: the log lock is held across the read-tail /
    /// fetch / append sequence, because both the stream pump and a
    /// fallen-behind client (through this server's [`Fallback`]) drive this —
    /// two callers observing the same tail would double-append and break
    /// the log's SCN order. After linking, the relay's eviction floor
    /// advances to the new tail: everything below it is now durable in
    /// bootstrap storage, everything above it stays pinned in the relay
    /// buffer.
    pub fn catch_up_from(&self, relay: &Relay) -> Result<usize, RelayError> {
        let mut log = self.log.lock();
        let views = relay.events_after_shared(log.linked_scn, usize::MAX, &ServerFilter::all())?;
        let n = views.len();
        for view in views {
            log.link(view.into_shared().expect("pass-all views are shared"));
        }
        relay.set_eviction_floor(log.linked_scn);
        Ok(n)
    }

    /// The log applier: folds every log window into snapshot storage and
    /// takes it out of the log, which then holds only what was linked
    /// after this call. Returns the number of windows applied.
    pub fn apply_log(&self) -> usize {
        let mut log = self.log.lock();
        let mut snapshot = self.snapshot.lock();
        let applied = log.windows.len();
        for window in log.windows.drain(..) {
            snapshot.apply(&window);
        }
        applied
    }

    /// The log tail: newest SCN linked.
    pub fn log_scn(&self) -> Scn {
        self.log.lock().linked_scn
    }

    /// SCN up to which snapshot storage has been built.
    pub fn applied_scn(&self) -> Scn {
        self.snapshot.lock().applied_scn
    }

    /// The one bootstrap query: the last change to every row touched after
    /// `since`, in (table, key) order, as one window whose `scn` is the SCN
    /// the client resumes the relay from. A fallen-behind client asks with
    /// its checkpoint (the consolidated delta, deletes included); a fresh
    /// client asks with 0 and gets every live row (the consistent
    /// snapshot). `source_db` is left empty: the caller names its source.
    ///
    /// Phase 1 scans snapshot storage and notes the SCN it had reached.
    /// Phase 2 replays what landed since — entries applied after the scan
    /// and the unapplied log suffix — so the result is consistent at its
    /// SCN even when the applier ran in between.
    pub fn changes_since(&self, since: Scn, filter: &ServerFilter) -> Window {
        let mut gathered = Gathered::new();
        let scanned_scn = {
            let snapshot = self.snapshot.lock();
            snapshot.gather_after(since, filter, &mut gathered);
            snapshot.applied_scn
        };

        // The dangerous interval: new commits can land and be applied now
        // (in production the scan above streams for a long time).
        #[cfg(test)]
        if let Some(hook) = self.mid_scan_hook.lock().take() {
            hook();
        }

        // Phase 2, in `apply_log`'s lock order: the log's windows and the
        // snapshot's entries cannot move while both are held.
        let log = self.log.lock();
        let snapshot = self.snapshot.lock();
        if snapshot.applied_scn > scanned_scn {
            snapshot.gather_after(since.max(scanned_scn), filter, &mut gathered);
        }
        for window in log.windows.iter().filter(|w| w.scn > since) {
            for change in window.changes.iter().filter(|c| filter.matches(c)) {
                gathered.insert((change.table.clone(), change.key.clone()), change.op.clone());
            }
        }
        // A fresh read serves live rows only.
        let changes = gathered
            .into_iter()
            .filter(|(_, op)| since > 0 || matches!(op, Op::Put(_)))
            .map(|((table, key), op)| RowChange { table, key, op })
            .collect();
        Window {
            source_db: String::new(),
            scn: since.max(log.linked_scn),
            timestamp: 0,
            changes,
        }
    }

    /// Installs a one-shot hook fired between the scan and the replay
    /// phase (consistency testing).
    #[cfg(test)]
    fn set_mid_scan_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.mid_scan_hook.lock() = Some(hook);
    }
}

/// The primary's consumers fall back here: a fresh client (checkpoint 0)
/// gets the consistent snapshot, a fallen-behind one the consolidated
/// delta since its checkpoint.
impl Fallback for BootstrapServer {
    fn window(
        &self,
        relay: &Relay,
        checkpoint: Scn,
        filter: &ServerFilter,
    ) -> Result<FallbackWindow, DatabusError> {
        // Tug the log writer first: it advances only when pumped, and the
        // pump may be parked on the asking client's drive lock. A stale log
        // would resume the client below the relay's buffered range, and it
        // would fall behind again forever. The tug also advances the
        // relay's eviction floor, re-bounding the buffer meanwhile.
        self.catch_up_from(relay).map_err(DatabusError::Relay)?;
        let mut window = self.changes_since(checkpoint, filter);
        window.source_db = relay.source_db().to_string();
        Ok(FallbackWindow {
            window,
            full_image: checkpoint == 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use li_sqlstore::Row;
    use std::sync::Arc;

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

    /// The op a result carries for `key` of `table`: `Some(value)` for a
    /// put, `None` for a delete; panics when the row is absent.
    fn op_of(result: &Window, table: &str, key: &str) -> Option<String> {
        let change = result
            .changes
            .iter()
            .find(|c| c.table == table && c.key == RowKey::single(key))
            .unwrap_or_else(|| panic!("{table}/{key} missing from {result:?}"));
        match &change.op {
            Op::Put(row) => Some(String::from_utf8_lossy(&row.value).into_owned()),
            Op::Delete => None,
        }
    }

    fn has_row(result: &Window, table: &str, key: &str) -> bool {
        result.changes.iter().any(|c| c.table == table && c.key == RowKey::single(key))
    }

    #[test]
    fn log_applier_builds_snapshot() {
        let server = BootstrapServer::new();
        server.ingest(window(1, vec![put("t", "a", "1")]));
        server.ingest(window(2, vec![put("t", "a", "2"), put("t", "b", "1")]));
        server.ingest(window(3, vec![delete("t", "b")]));
        assert_eq!(server.apply_log(), 3);
        assert_eq!(server.applied_scn(), 3);
        let fresh = server.changes_since(0, &ServerFilter::all());
        assert_eq!(fresh.changes.len(), 1, "the deleted row's tombstone is not served");
        assert_eq!(op_of(&fresh, "t", "a").unwrap(), "2");
        assert_eq!(fresh.scn, 3);
        // Applier is incremental.
        server.ingest(window(4, vec![put("t", "c", "1")]));
        assert_eq!(server.apply_log(), 1);
    }

    #[test]
    fn consolidated_delta_collapses_updates() {
        let server = BootstrapServer::new();
        // 100 updates to one hot key + 1 to a cold key, half of them
        // applied to snapshot storage and half still in the log.
        for scn in 1..=100 {
            server.ingest(window(scn, vec![put("t", "hot", &format!("v{scn}"))]));
            if scn == 50 {
                server.apply_log();
            }
        }
        server.ingest(window(101, vec![put("t", "cold", "x")]));
        for since in [0, 1, 49, 50] {
            let delta = server.changes_since(since, &ServerFilter::all());
            assert_eq!(delta.changes.len(), 2, "one change per key since {since}");
            assert_eq!(delta.scn, 101);
            assert_eq!(op_of(&delta, "t", "hot").unwrap(), "v100");
        }
    }

    #[test]
    fn consolidated_delta_since_midpoint() {
        let server = BootstrapServer::new();
        for scn in 1..=10 {
            server.ingest(window(scn, vec![put("t", &format!("k{scn}"), "v")]));
        }
        server.apply_log();
        let delta = server.changes_since(7, &ServerFilter::all());
        assert_eq!(delta.changes.len(), 3);
        assert_eq!(delta.scn, 10);
        // Fully caught-up client gets an empty delta.
        let empty = server.changes_since(10, &ServerFilter::all());
        assert!(empty.changes.is_empty());
        assert_eq!(empty.scn, 10);
    }

    #[test]
    fn delta_reports_deletes() {
        let server = BootstrapServer::new();
        server.ingest(window(1, vec![put("t", "a", "1")]));
        server.apply_log();
        server.ingest(window(2, vec![delete("t", "a")]));
        // From the log suffix, then from the tombstone once applied.
        for apply in [false, true] {
            if apply {
                assert_eq!(server.apply_log(), 1);
            }
            let delta = server.changes_since(1, &ServerFilter::all());
            assert_eq!(delta.changes.len(), 1);
            assert!(matches!(delta.changes[0].op, Op::Delete));
            let fresh = server.changes_since(0, &ServerFilter::all());
            assert!(fresh.changes.is_empty(), "a fresh read never carries a delete");
        }
    }

    #[test]
    fn snapshot_replays_changes_landing_mid_scan() {
        // While the scan "streams", a commit updating one row and deleting
        // another lands in the log — and, when `applied`, the applier folds
        // it into snapshot storage and out of the log, so replaying the log
        // alone would miss it. Both a fresh read and a delta must show the
        // update and the delete.
        for (applied, since) in [(false, 0), (false, 1), (true, 0), (true, 1)] {
            let server = Arc::new(BootstrapServer::new());
            server.ingest(window(1, vec![put("t", "a", "old"), put("t", "doomed", "x")]));
            server.apply_log();
            let hook_server = server.clone();
            server.set_mid_scan_hook(Box::new(move || {
                hook_server.ingest(window(2, vec![put("t", "a", "new"), delete("t", "doomed")]));
                if applied {
                    assert_eq!(hook_server.apply_log(), 1);
                }
            }));

            let result = server.changes_since(since, &ServerFilter::all());
            let case = format!("applied mid-scan: {applied}, since {since}");
            assert_eq!(op_of(&result, "t", "a").unwrap(), "new", "{case}");
            if since == 0 {
                assert!(!has_row(&result, "t", "doomed"), "{case}");
                assert!(result.changes.iter().all(|c| matches!(c.op, Op::Put(_))), "{case}");
            } else {
                assert_eq!(op_of(&result, "t", "doomed"), None, "{case}: the delete is reported");
            }
            assert_eq!(result.scn, 2, "{case}");
        }
    }

    #[test]
    fn log_holds_only_unapplied_windows() {
        // 10,000 updates over 10 keys, applied every 100 windows; deltas
        // are checked right after each apply and halfway between applies.
        let server = BootstrapServer::new();
        for scn in 1..=10_000u64 {
            server.ingest(window(scn, vec![put("t", &format!("k{}", scn % 10), &format!("v{scn}"))]));
            if scn % 100 == 0 {
                assert_eq!(server.apply_log(), 100);
                assert_eq!(server.log.lock().windows.len(), 0, "the log keeps only the unapplied");
                assert_eq!(server.snapshot.lock().rows.len(), 10);
            }
            if scn % 50 != 0 {
                continue;
            }
            for since in [0, scn / 2, scn - 7, scn - 1, scn] {
                // Replay: the last write per key among the raw events after
                // `since`.
                let replay: BTreeMap<String, String> =
                    (since + 1..=scn).map(|s| (format!("k{}", s % 10), format!("v{s}"))).collect();
                let delta = server.changes_since(since, &ServerFilter::all());
                let served: BTreeMap<String, String> = delta
                    .changes
                    .iter()
                    .map(|c| {
                        (
                            c.key.parts()[0].clone(),
                            op_of(&delta, "t", &c.key.parts()[0]).unwrap(),
                        )
                    })
                    .collect();
                assert_eq!(served, replay, "delta since {since} at {scn}");
                assert_eq!(delta.scn, scn);
            }
        }
    }

    #[test]
    fn filters_push_down_to_both_queries() {
        let server = BootstrapServer::new();
        server.ingest(window(1, vec![put("member", "a", "1"), put("company", "c", "2")]));
        server.apply_log();
        server.ingest(window(2, vec![put("member", "b", "1"), put("company", "d", "2")]));
        let filter = ServerFilter::for_tables(["member"]);
        let delta = server.changes_since(1, &filter);
        assert_eq!(delta.changes.len(), 1);
        assert_eq!(op_of(&delta, "member", "b").unwrap(), "1");
        let snap = server.changes_since(0, &filter);
        assert_eq!(snap.changes.len(), 2);
        assert!(snap.changes.iter().all(|c| c.table == "member"));
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
        // The evicted prefix survives in the log, then in the snapshot.
        let delta = server.changes_since(0, &ServerFilter::all());
        assert_eq!(delta.changes.len(), 50, "every linked window retained");
        server.apply_log();
        assert_eq!(server.changes_since(0, &ServerFilter::all()), delta);
        // Applying drains the log but not the tail the floor follows.
        assert_eq!(server.catch_up_from(&relay).unwrap(), 1);
        assert_eq!(server.apply_log(), 1);
        assert_eq!(server.log_scn(), 51);
        assert_eq!(relay.eviction_floor(), Some(51));
    }

    #[test]
    fn pipeline_follows_relay() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        let server = BootstrapServer::new();
        for scn in 1..=5 {
            relay.ingest(window(scn, vec![put("t", &format!("k{scn}"), "v")])).unwrap();
        }
        server.catch_up_from(&relay).unwrap();
        server.apply_log();
        assert_eq!(server.log_scn(), 5);
        assert_eq!(server.applied_scn(), 5);
        assert_eq!(server.changes_since(0, &ServerFilter::all()).changes.len(), 5);
    }
}
