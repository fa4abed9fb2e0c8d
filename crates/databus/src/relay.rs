//! The relay: in-memory circular event buffer with an SCN index.
//!
//! "The serialized events are stored in a circular in-memory buffer that is
//! used to serve events to the Databus clients. ... The relay with the
//! in-memory circular buffer provides: default serving path with very low
//! latency (<1 ms); efficient buffering ...; index structures to
//! efficiently serve to Databus clients events from a given sequence
//! number S; server-side filtering ...; support of hundreds of consumers
//! per relay with no additional impact on the source database" (§III.C).
//!
//! Windows are evicted whole from the head when the buffer exceeds its
//! byte budget; a client requesting an SCN older than the buffered tail
//! gets [`RelayError::ScnNotFound`] and falls back to the bootstrap
//! server. Because windows are stored in SCN order and SCNs are dense per
//! source, locating a start SCN is a binary search (the paper's "index
//! structures").
//!
//! # Serving-path ownership (zero-copy fan-out)
//!
//! Every ingested window is frozen once into an [`SharedWindow`]
//! (`Arc<FrozenWindow>`) carrying a cached size estimate and an ingest-time
//! [`crate::event::FilterSummary`]. The buffer mutex is held only to locate
//! the `(start, len)` range by the dense-SCN computation and to clone the
//! cheap `Arc`s; all filter evaluation happens on the *caller's* thread,
//! outside the lock. An unfiltered consumer gets [`WindowView::Shared`]
//! views that alias buffer memory — zero per-change work per serve — so
//! serving cost no longer scales with consumers × buffered bytes and
//! hundreds of consumers do not serialize on the buffer lock.

use li_commons::metrics::{Counter, Gauge, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use li_sqlstore::{BinlogEntry, Scn, ShipError, Shipper};

use crate::event::{FrozenWindow, ServerFilter, SharedWindow, Window, WindowView};

/// Relay observability under `databus.relay.<source>.`: change events
/// relayed to clients, windows ingested from the source, the newest
/// buffered SCN (the reference point for client lag), and reads absorbed
/// while serving was paused (stall-vs-idle disambiguation).
#[derive(Debug, Clone)]
struct RelayMetrics {
    events_relayed: Counter,
    windows_in: Counter,
    newest_scn: Gauge,
    served_while_paused: Counter,
}

impl RelayMetrics {
    fn new(registry: &Arc<MetricsRegistry>, source_db: &str) -> Self {
        let scope = registry.scope(format!("databus.relay.{source_db}"));
        RelayMetrics {
            events_relayed: scope.counter("events_relayed"),
            windows_in: scope.counter("windows_ingested"),
            newest_scn: scope.gauge("newest_scn"),
            served_while_paused: scope.counter("served_while_paused"),
        }
    }
}

/// Errors from relay serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayError {
    /// The requested SCN has been evicted from the circular buffer; the
    /// client must bootstrap. Carries the oldest SCN still buffered.
    ScnNotFound {
        /// SCN requested by the client.
        requested: Scn,
        /// Oldest SCN still available in the buffer (0 when empty).
        oldest: Scn,
    },
    /// Events from one source must arrive in dense SCN order.
    OutOfOrder {
        /// SCN that arrived.
        got: Scn,
        /// SCN that was expected.
        expected: Scn,
    },
}

impl fmt::Display for RelayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelayError::ScnNotFound { requested, oldest } => {
                write!(f, "scn {requested} evicted (oldest buffered: {oldest})")
            }
            RelayError::OutOfOrder { got, expected } => {
                write!(f, "out-of-order scn {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for RelayError {}

#[derive(Debug, Default)]
struct Buffer {
    windows: VecDeque<SharedWindow>,
    bytes: usize,
    /// The SCN the next ingested window must carry. Zero means "unset" (a
    /// fresh relay, or one chained mid-stream, accepts any start). Unlike
    /// the window deque, this watermark survives eviction and full drains,
    /// so an SCN gap can never silently open a hole in the stream.
    expected_next: Scn,
    /// Eviction floor: windows with `scn > floor` are pinned in the buffer
    /// even past the byte budget. `None` means unpinned (evict freely).
    /// The bootstrap's log writer advances the floor to its log tail as it
    /// links windows — the relay never drops a window the long-look-back
    /// store hasn't persisted, because such a window would be gone from the
    /// whole system (the relay is the only other holder).
    pin_floor: Option<Scn>,
}

impl Buffer {
    /// Validates one candidate SCN against the watermark.
    fn check_scn(&self, expected: Scn, got: Scn) -> Result<(), RelayError> {
        if expected != 0 && got != expected {
            return Err(RelayError::OutOfOrder { got, expected });
        }
        Ok(())
    }
}

/// A Databus relay. Thread-safe; share via `Arc`. One relay buffers one
/// source database's stream (the paper runs "multiple shared-nothing
/// relays").
pub struct Relay {
    source_db: String,
    max_bytes: usize,
    buffer: Mutex<Buffer>,
    /// Serving pause (chaos hook): a paused relay keeps ingesting —
    /// semi-sync commits stay durable — but serves nothing, like a relay
    /// whose serving threads are stalled in GC. Consumers simply see no
    /// progress and fall behind (possibly off the buffer).
    paused: std::sync::atomic::AtomicBool,
    /// Monotonic counters for the source-isolation experiment: how many
    /// client reads the relay absorbed (that never touched the source DB).
    reads_served: AtomicU64,
    windows_ingested: AtomicU64,
    /// Reads answered while serving was paused: the signal that lets a
    /// consumer (or an operator) tell "relay stalled" apart from "stream
    /// idle" — both look like an empty response on the wire.
    served_while_paused: AtomicU64,
    /// High-water-mark watch: published once per ingest batch with the
    /// newest buffered SCN, so dispatchers sleep on a change notification
    /// instead of polling `newest_scn()` in a loop.
    scn_watch: li_commons::watch::Sender<Scn>,
    registry: Arc<MetricsRegistry>,
    metrics: RelayMetrics,
}

impl fmt::Debug for Relay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let buffer = self.buffer.lock();
        f.debug_struct("Relay")
            .field("source_db", &self.source_db)
            .field("buffered_windows", &buffer.windows.len())
            .field("buffered_bytes", &buffer.bytes)
            .finish()
    }
}

impl Relay {
    /// Creates a relay for `source_db` with a byte budget for the circular
    /// buffer, reporting into a private metrics registry.
    pub fn new(source_db: impl Into<String>, max_bytes: usize) -> Self {
        Self::with_metrics(source_db, max_bytes, &MetricsRegistry::new())
    }

    /// Creates a relay reporting under `databus.relay.<source>.` in
    /// `registry`. Clients of this relay report into the same registry.
    pub fn with_metrics(
        source_db: impl Into<String>,
        max_bytes: usize,
        registry: &Arc<MetricsRegistry>,
    ) -> Self {
        let source_db = source_db.into();
        Relay {
            metrics: RelayMetrics::new(registry, &source_db),
            source_db,
            max_bytes: max_bytes.max(1),
            buffer: Mutex::new(Buffer::default()),
            paused: std::sync::atomic::AtomicBool::new(false),
            reads_served: AtomicU64::new(0),
            windows_ingested: AtomicU64::new(0),
            served_while_paused: AtomicU64::new(0),
            scn_watch: li_commons::watch::channel(0).0,
            registry: Arc::clone(registry),
        }
    }

    /// Subscribes to the relay's high-water mark: the receiver wakes on
    /// every ingest batch with the newest buffered SCN. The backbone of
    /// push-style stream dispatch (see `crate::dispatch`).
    pub fn scn_watch(&self) -> li_commons::watch::Receiver<Scn> {
        self.scn_watch.subscribe()
    }

    /// The metrics registry this relay (and its clients) report into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The source database this relay captures.
    pub fn source_db(&self) -> &str {
        &self.source_db
    }

    /// Ingests one committed transaction. SCNs must be dense and
    /// increasing.
    pub fn ingest(&self, window: Window) -> Result<(), RelayError> {
        self.ingest_shared(FrozenWindow::freeze(window))
    }

    /// Ingests an already-frozen window (zero-copy chaining: the upstream
    /// relay, this relay, and every consumer share one allocation).
    pub fn ingest_shared(&self, window: SharedWindow) -> Result<(), RelayError> {
        self.ingest_shared_batch(std::iter::once(window)).map(|_| ())
    }

    /// Batched ingest: freezes each window once and takes the buffer lock
    /// once for the whole batch. The batch is atomic — an SCN gap anywhere
    /// in it rejects the entire batch with nothing ingested.
    pub fn ingest_batch(&self, windows: Vec<Window>) -> Result<usize, RelayError> {
        // Freeze (encode + summarize) outside the lock.
        let frozen: Vec<SharedWindow> = windows.into_iter().map(FrozenWindow::freeze).collect();
        self.ingest_shared_batch(frozen)
    }

    /// Batched shared ingest: one lock acquisition, one eviction pass, one
    /// metrics update for the whole batch. Validates the full SCN chain
    /// before mutating anything (atomic accept/reject).
    fn ingest_shared_batch(
        &self,
        windows: impl IntoIterator<Item = SharedWindow>,
    ) -> Result<usize, RelayError> {
        let windows: Vec<SharedWindow> = windows.into_iter().collect();
        if windows.is_empty() {
            return Ok(0);
        }
        let mut buffer = self.buffer.lock();
        // Validate the whole chain against the watermark first.
        let mut expected = buffer.expected_next;
        for window in &windows {
            buffer.check_scn(expected, window.window().scn)?;
            expected = window.window().scn + 1;
        }
        for window in &windows {
            buffer.bytes += window.size_estimate();
            buffer.expected_next = window.window().scn + 1;
            buffer.windows.push_back(Arc::clone(window));
        }
        // Evict whole windows from the head until within budget (always
        // keep at least the newest window, and never a window past the
        // pin floor — the bootstrap hasn't linked it yet).
        while buffer.bytes > self.max_bytes && buffer.windows.len() > 1 {
            let front_scn = buffer.windows.front().map_or(0, |w| w.window().scn);
            if buffer.pin_floor.is_some_and(|floor| front_scn > floor) {
                break;
            }
            if let Some(evicted) = buffer.windows.pop_front() {
                buffer.bytes -= evicted.size_estimate();
            }
        }
        let newest = buffer.windows.back().map_or(0, |w| w.window().scn);
        // Publish the high-water gauge under the buffer lock: set after
        // the drop, two concurrent batches can land out of SCN order and
        // leave the gauge stale (the counters and the watch are
        // order-insensitive and stay outside).
        self.metrics.newest_scn.set(newest as i64);
        drop(buffer);
        let n = windows.len();
        self.windows_ingested.fetch_add(n as u64, Ordering::Relaxed);
        self.metrics.windows_in.add(n as u64);
        self.scn_watch.send(newest);
        Ok(n)
    }

    /// Restores the dense-SCN watermark after a relay restart: subsequent
    /// ingests must resume at exactly `next_expected`, so a gap between
    /// what was captured before the crash and what arrives after it is
    /// rejected as [`RelayError::OutOfOrder`] instead of silently opening
    /// a hole in the stream.
    pub fn resume_expecting(&self, next_expected: Scn) {
        self.buffer.lock().expected_next = next_expected;
    }

    /// The SCN the next ingest must carry (0 when the relay has never
    /// ingested and no watermark was restored).
    pub fn expected_next_scn(&self) -> Scn {
        self.buffer.lock().expected_next
    }

    /// Pins windows with `scn > floor` against byte-budget eviction. The
    /// bootstrap's log writer calls this with its log tail after every
    /// catch-up: everything at or below the tail is durably linked in log
    /// storage and may be evicted; everything above it exists *only* here,
    /// so dropping it would lose committed writes for good (a fallen-behind
    /// consumer's consolidated delta could then never reach the relay's
    /// buffered range — the livelock the site bench hit at 10^6 members).
    /// The buffer may transiently exceed its budget while the floor lags;
    /// the floor advances every pump and every fallen-behind switchover,
    /// so the overshoot is bounded by one catch-up interval of writes.
    pub fn set_eviction_floor(&self, floor: Scn) {
        self.buffer.lock().pin_floor = Some(floor);
    }

    /// The current eviction floor (`None` = unpinned, evict freely).
    pub fn eviction_floor(&self) -> Option<Scn> {
        self.buffer.lock().pin_floor
    }

    /// Oldest SCN still buffered (0 when empty).
    pub fn oldest_scn(&self) -> Scn {
        self.buffer.lock().windows.front().map_or(0, |w| w.window().scn)
    }

    /// Newest SCN buffered (0 when empty).
    pub fn newest_scn(&self) -> Scn {
        self.buffer.lock().windows.back().map_or(0, |w| w.window().scn)
    }

    /// Number of buffered windows.
    pub fn window_count(&self) -> usize {
        self.buffer.lock().windows.len()
    }

    /// Approximate buffered bytes.
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.lock().bytes
    }

    /// The default (hot) serving path: up to `max_windows` windows with
    /// `scn > after_scn`, filtered server-side, as zero-copy views.
    ///
    /// The buffer lock is held only long enough to locate the
    /// `(start, len)` range (a dense-SCN index computation) and clone the
    /// range's `Arc`s; filter evaluation runs on the caller's thread. With
    /// a pass-all filter every view is [`WindowView::Shared`] and serving
    /// does zero per-change work; a filtered consumer skips windows whose
    /// ingest-time summary proves no change can match without touching
    /// their payloads.
    ///
    /// Fails with [`RelayError::ScnNotFound`] when `after_scn` predates the
    /// buffer: the client has fallen behind and must bootstrap — serving it
    /// from here would require going back to the source database, which the
    /// relay exists to isolate.
    pub fn events_after_shared(
        &self,
        after_scn: Scn,
        max_windows: usize,
        filter: &ServerFilter,
    ) -> Result<Vec<WindowView>, RelayError> {
        if self.is_paused() {
            self.served_while_paused.fetch_add(1, Ordering::Relaxed);
            self.metrics.served_while_paused.inc();
            return Ok(Vec::new());
        }
        // Under the lock: bounds checks, dense-SCN range location, and
        // cheap Arc clones — nothing proportional to payload bytes.
        let shared: Vec<SharedWindow> = {
            let buffer = self.buffer.lock();
            let oldest = buffer.windows.front().map_or(0, |w| w.window().scn);
            let newest = buffer.windows.back().map_or(0, |w| w.window().scn);
            if buffer.windows.is_empty() || after_scn >= newest {
                // Fully caught up (or empty): nothing to serve.
                if after_scn + 1 < oldest {
                    return Err(RelayError::ScnNotFound {
                        requested: after_scn,
                        oldest,
                    });
                }
                self.reads_served.fetch_add(1, Ordering::Relaxed);
                return Ok(Vec::new());
            }
            if after_scn + 1 < oldest {
                return Err(RelayError::ScnNotFound {
                    requested: after_scn,
                    oldest,
                });
            }
            // Dense SCNs: the first window to serve sits at a computable
            // index.
            let start = (after_scn + 1 - oldest) as usize;
            buffer
                .windows
                .iter()
                .skip(start)
                .take(max_windows)
                .map(Arc::clone)
                .collect()
        };
        self.reads_served.fetch_add(1, Ordering::Relaxed);
        // Outside the lock: per-consumer filter work on the caller's
        // thread. Pass-all short-circuits to pure Arc moves.
        let out: Vec<WindowView> = if filter.is_pass_all() {
            shared.into_iter().map(WindowView::Shared).collect()
        } else {
            shared.iter().map(|w| filter.apply_view(w)).collect()
        };
        let events: usize = out.iter().map(|w| w.changes.len()).sum();
        self.metrics.events_relayed.add(events as u64);
        Ok(out)
    }

    /// Chains this relay behind `upstream`: pulls every window this relay
    /// does not yet have. "We typically run multiple shared-nothing relays
    /// that are either connected directly to the database, or to other
    /// relays to provide replicated availability of the change stream"
    /// (§III.C). Zero-copy: both relays' buffers share the same frozen
    /// windows. Returns windows linked.
    pub fn chain_from(&self, upstream: &Relay) -> Result<usize, RelayError> {
        let have = self.newest_scn();
        let views = upstream.events_after_shared(have, usize::MAX, &ServerFilter::all())?;
        self.ingest_shared_batch(
            views
                .into_iter()
                .map(|v| v.into_shared().expect("pass-all views are shared")),
        )
    }

    /// Number of client reads served from the buffer (source isolation
    /// metric: these reads never reached the source database).
    pub fn reads_served(&self) -> u64 {
        self.reads_served.load(Ordering::Relaxed)
    }

    /// Number of windows ingested from the source (the *only* per-source
    /// cost, independent of consumer count).
    pub fn windows_ingested(&self) -> u64 {
        self.windows_ingested.load(Ordering::Relaxed)
    }

    /// Number of reads answered (with an empty result) while serving was
    /// paused. A growing value alongside growing client lag means the
    /// relay is stalled, not idle.
    pub fn served_while_paused(&self) -> u64 {
        self.served_while_paused.load(Ordering::Relaxed)
    }

    /// Chaos pause hook: while paused the relay ingests but serves
    /// nothing (see the `paused` field). No-op when already in the
    /// requested state.
    pub fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }

    /// Whether serving is currently paused.
    fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Chaos invariant checker — the Espresso within-key commit-order
    /// check, phrased over the relay's buffered stream: window SCNs must
    /// be dense and strictly increasing, and for every `(table, key)` the
    /// etags of successive `Put` images (which Espresso sets to the commit
    /// SCN) must be strictly increasing. A violation means a source
    /// shipped commits out of order or a failover rewrote history.
    pub fn verify_commit_order(&self) -> Result<(), String> {
        let buffer = self.buffer.lock();
        let mut last_scn: Option<Scn> = None;
        let mut last_etag: std::collections::HashMap<(String, String), u64> =
            std::collections::HashMap::new();
        for frozen in &buffer.windows {
            let window = frozen.window();
            if let Some(prev) = last_scn {
                if window.scn != prev + 1 {
                    return Err(format!(
                        "window scn {} after {prev}: not dense/increasing",
                        window.scn
                    ));
                }
            }
            last_scn = Some(window.scn);
            // Last image of each key within this window (a transaction may
            // touch a key more than once at one SCN).
            let mut in_window: std::collections::HashMap<(String, String), u64> =
                std::collections::HashMap::new();
            for change in &window.changes {
                let li_sqlstore::Op::Put(row) = &change.op else {
                    continue;
                };
                let key = (change.table.clone(), format!("{:?}", change.key));
                in_window.insert(key, row.etag);
            }
            for (key, etag) in in_window {
                if let Some(&prev) = last_etag.get(&key) {
                    if etag <= prev {
                        return Err(format!(
                            "key {key:?} etag {etag} at scn {} not after {prev}",
                            window.scn
                        ));
                    }
                }
                last_etag.insert(key, etag);
            }
        }
        Ok(())
    }
}

/// Relays are valid semi-synchronous shipping targets: Espresso commits
/// block until the relay has the entry ("Each change is written to two
/// places before being committed — the local MySQL binlog and the Databus
/// relay", §IV.B).
impl Shipper for Relay {
    fn ship(&self, source: &str, entry: &BinlogEntry) -> Result<(), ShipError> {
        self.ingest(Window::from_binlog(source, entry))
            .map_err(|e| ShipError(e.to_string()))
    }

    /// Batched shipping: each entry is frozen once and the buffer lock is
    /// taken once for the whole batch.
    fn ship_batch(&self, source: &str, entries: &[BinlogEntry]) -> Result<(), ShipError> {
        self.ingest_batch(
            entries
                .iter()
                .map(|e| Window::from_binlog(source, e))
                .collect(),
        )
        .map(|_| ())
        .map_err(|e| ShipError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use li_sqlstore::{Op, Row, RowChange, RowKey};

    fn window(scn: Scn, payload: usize) -> Window {
        Window {
            source_db: "primary".into(),
            scn,
            timestamp: scn,
            changes: vec![RowChange {
                table: "member".into(),
                key: RowKey::single(format!("k{scn}")),
                op: Op::Put(Row::new(Bytes::from(vec![b'x'; payload]), 1)),
            }],
        }
    }

    #[test]
    fn serves_from_scn_in_order() {
        let relay = Relay::new("primary", 1 << 20);
        for scn in 1..=10 {
            relay.ingest(window(scn, 10)).unwrap();
        }
        let got = relay.events_after_shared(3, 100, &ServerFilter::all()).unwrap();
        assert_eq!(got.len(), 7);
        assert_eq!(got[0].scn, 4);
        assert_eq!(got.last().unwrap().scn, 10);
        // max_windows respected.
        let got = relay.events_after_shared(0, 2, &ServerFilter::all()).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].scn, 2);
    }

    #[test]
    fn caught_up_client_gets_empty() {
        let relay = Relay::new("primary", 1 << 20);
        relay.ingest(window(1, 10)).unwrap();
        assert!(relay.events_after_shared(1, 10, &ServerFilter::all()).unwrap().is_empty());
        assert!(relay.events_after_shared(5, 10, &ServerFilter::all()).unwrap().is_empty());
    }

    #[test]
    fn empty_relay_serves_nothing() {
        let relay = Relay::new("primary", 1 << 20);
        assert!(relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap().is_empty());
    }

    #[test]
    fn eviction_is_whole_windows_and_fallen_clients_error() {
        // Budget for roughly 3 windows of ~1KB.
        let relay = Relay::new("primary", 3200);
        for scn in 1..=10 {
            relay.ingest(window(scn, 1000)).unwrap();
        }
        assert!(relay.window_count() < 10, "old windows evicted");
        let oldest = relay.oldest_scn();
        assert!(oldest > 1);
        // A client at SCN 0 has fallen off the buffer.
        let err = relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap_err();
        assert_eq!(
            err,
            RelayError::ScnNotFound {
                requested: 0,
                oldest
            }
        );
        // A client exactly at the tail boundary is fine.
        assert!(relay
            .events_after_shared(oldest - 1, 100, &ServerFilter::all())
            .is_ok());
    }

    #[test]
    fn eviction_floor_pins_unlinked_windows() {
        // Budget for roughly 3 windows of ~1KB, but everything above the
        // floor is pinned regardless.
        let relay = Relay::new("primary", 3200);
        relay.set_eviction_floor(0);
        for scn in 1..=10 {
            relay.ingest(window(scn, 1000)).unwrap();
        }
        assert_eq!(relay.window_count(), 10, "nothing linked, nothing evicted");
        assert!(relay.buffered_bytes() > 3200, "budget overshoot is allowed");
        // The log writer links 1..=7: they become evictable on the next
        // ingest, but the unlinked suffix stays.
        relay.set_eviction_floor(7);
        relay.ingest(window(11, 1000)).unwrap();
        assert_eq!(relay.oldest_scn(), 8, "evicted exactly the linked prefix");
        let err = relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap_err();
        assert_eq!(err, RelayError::ScnNotFound { requested: 0, oldest: 8 });
    }

    #[test]
    fn out_of_order_ingest_rejected() {
        let relay = Relay::new("primary", 1 << 20);
        relay.ingest(window(1, 10)).unwrap();
        relay.ingest(window(2, 10)).unwrap();
        assert_eq!(
            relay.ingest(window(2, 10)).unwrap_err(),
            RelayError::OutOfOrder { got: 2, expected: 3 }
        );
        assert_eq!(
            relay.ingest(window(5, 10)).unwrap_err(),
            RelayError::OutOfOrder { got: 5, expected: 3 }
        );
    }

    #[test]
    fn relay_can_start_mid_stream() {
        // A relay chained to another relay may start at an arbitrary SCN.
        let relay = Relay::new("primary", 1 << 20);
        relay.ingest(window(100, 10)).unwrap();
        relay.ingest(window(101, 10)).unwrap();
        assert_eq!(relay.oldest_scn(), 100);
    }

    #[test]
    fn batch_ingest_is_atomic_and_single_lock() {
        let relay = Relay::new("primary", 1 << 20);
        assert_eq!(
            relay.ingest_batch((1..=10).map(|scn| window(scn, 10)).collect()).unwrap(),
            10
        );
        assert_eq!(relay.newest_scn(), 10);
        // A gap anywhere rejects the whole batch: nothing ingested.
        let err = relay
            .ingest_batch(vec![window(11, 10), window(13, 10)])
            .unwrap_err();
        assert_eq!(err, RelayError::OutOfOrder { got: 13, expected: 12 });
        assert_eq!(relay.newest_scn(), 10, "atomic reject");
        assert_eq!(relay.windows_ingested(), 10);
        // Empty batch is a no-op.
        assert_eq!(relay.ingest_batch(Vec::new()).unwrap(), 0);
    }

    #[test]
    fn server_side_filter_applied() {
        let relay = Relay::new("primary", 1 << 20);
        relay.ingest(window(1, 10)).unwrap();
        let filter = ServerFilter::for_tables(["company"]);
        let got = relay.events_after_shared(0, 10, &filter).unwrap();
        assert_eq!(got.len(), 1, "window delivered for checkpointing");
        assert!(got[0].is_empty(), "changes filtered out");
    }

    #[test]
    fn unfiltered_views_share_buffer_allocation() {
        // The zero-copy contract at the relay level: two independent
        // consumers' views are the *same* frozen window, and their payload
        // bytes alias the allocation that was ingested.
        let payload = Bytes::from(vec![b'z'; 512]);
        let relay = Relay::new("primary", 1 << 20);
        relay
            .ingest(Window {
                source_db: "primary".into(),
                scn: 1,
                timestamp: 1,
                changes: vec![RowChange {
                    table: "member".into(),
                    key: RowKey::single("k"),
                    op: Op::Put(Row::new(payload.clone(), 1)),
                }],
            })
            .unwrap();
        let a = relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap();
        let b = relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap();
        assert!(a[0].is_shared() && b[0].is_shared());
        let (WindowView::Shared(sa), WindowView::Shared(sb)) = (&a[0], &b[0]) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(sa, sb), "consumers share one frozen window");
        let Op::Put(row) = &a[0].changes[0].op else { unreachable!() };
        assert!(
            row.value.shares_allocation(&payload),
            "served payload aliases the ingested allocation"
        );
    }

    #[test]
    fn filter_summary_skips_non_matching_windows_without_trim_work() {
        let relay = Relay::new("primary", 1 << 20);
        relay.ingest(window(1, 10)).unwrap(); // table "member"
        let filter = ServerFilter::for_tables(["company"]);
        let got = relay.events_after_shared(0, 10, &filter).unwrap();
        assert_eq!(got.len(), 1);
        assert!(!got[0].is_shared(), "summary-skip produces an owned empty view");
        assert!(got[0].is_empty());
        assert_eq!(got[0].scn, 1, "scn preserved for checkpointing");
        // A filter that matches everything in the window stays shared.
        let all_match = ServerFilter::for_tables(["member"]);
        let got = relay.events_after_shared(0, 10, &all_match).unwrap();
        assert!(got[0].is_shared(), "all-match trim is the identity");
    }

    #[test]
    fn paused_relay_counts_stalled_serves() {
        let relay = Relay::new("primary", 1 << 20);
        relay.ingest(window(1, 10)).unwrap();
        assert_eq!(relay.served_while_paused(), 0);
        relay.set_paused(true);
        assert!(relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap().is_empty());
        assert!(relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap().is_empty());
        assert_eq!(relay.served_while_paused(), 2, "stall is observable");
        // Ingestion continues while paused; lag reference keeps moving.
        relay.ingest(window(2, 10)).unwrap();
        assert_eq!(relay.newest_scn(), 2);
        relay.set_paused(false);
        assert_eq!(relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap().len(), 2);
        assert_eq!(relay.served_while_paused(), 2, "unpaused serves not counted");
    }

    #[test]
    fn chained_relay_that_falls_behind_errors_cleanly() {
        let upstream = Relay::new("primary", 2048);
        let downstream = Relay::new("primary", 1 << 20);
        upstream.ingest(window(1, 10)).unwrap();
        downstream.chain_from(&upstream).unwrap();
        // Upstream evicts far past the downstream's position.
        for scn in 2..=100 {
            upstream.ingest(window(scn, 1000)).unwrap();
        }
        assert!(matches!(
            downstream.chain_from(&upstream),
            Err(RelayError::ScnNotFound { .. })
        ));
    }

    #[test]
    fn consumer_reads_do_not_touch_source() {
        let relay = Relay::new("primary", 1 << 20);
        for scn in 1..=5 {
            relay.ingest(window(scn, 10)).unwrap();
        }
        for _ in 0..100 {
            relay.events_after_shared(0, 100, &ServerFilter::all()).unwrap();
        }
        assert_eq!(relay.windows_ingested(), 5, "source cost fixed");
        assert_eq!(relay.reads_served(), 100, "fan-out absorbed by relay");
    }
}
