//! The Databus client library.
//!
//! "The Databus client library is the glue between the Relays and Bootstrap
//! servers and the business logic of the Databus consumers. It provides:
//! tracking of progress in the Databus event stream with automatic
//! switchover between the Relays and Bootstrap servers when necessary;
//! push (callbacks) or pull interface; ... retry logic if consumers fail to
//! process some events" (§III.C).
//!
//! Delivery is at-least-once with transaction-window granularity: the
//! checkpoint only advances after the consumer acknowledges a window, so a
//! crash between processing and checkpointing re-delivers the window.
//!
//! What the relay cannot serve comes from the client's [`Fallback`], passed
//! in: the bootstrap server, an Espresso source's partition image, or a
//! re-read of the indexed table. The switchover rule is the client's alone.

use li_commons::metrics::{Counter, Gauge, MetricsScope};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use li_sqlstore::Scn;

use crate::event::{ServerFilter, Window};
use crate::relay::{Relay, RelayError};
use crate::transform::Transformation;

/// Retries a consumer gets per window before the client gives up on it.
const MAX_RETRIES: u32 = 3;

/// Errors surfaced by the client library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabusError {
    /// The consumer kept failing after its three retries.
    ConsumerFailed {
        /// SCN of the window that could not be processed.
        scn: Scn,
        /// Retries attempted.
        retries: u32,
        /// Last error message from the consumer.
        last_error: String,
    },
    /// The client fell behind the relay and has no fall-back.
    FellBehindNoBootstrap {
        /// The SCN the client was at.
        checkpoint: Scn,
        /// Oldest SCN still on the relay.
        oldest: Scn,
    },
    /// The fall-back could not serve its window.
    Fallback(String),
    /// Relay-level failure.
    Relay(RelayError),
}

impl fmt::Display for DatabusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabusError::ConsumerFailed { scn, retries, last_error } => {
                write!(f, "consumer failed at scn {scn} after {retries} retries: {last_error}")
            }
            DatabusError::FellBehindNoBootstrap { checkpoint, oldest } => write!(
                f,
                "checkpoint {checkpoint} evicted (relay oldest {oldest}) and no fall-back"
            ),
            DatabusError::Fallback(e) => write!(f, "fall-back failed: {e}"),
            DatabusError::Relay(e) => write!(f, "relay error: {e}"),
        }
    }
}

impl std::error::Error for DatabusError {}

/// The consumer interface (push/callback style). Implementations get whole
/// transaction windows so they can maintain their own transactional
/// integrity.
pub trait ConsumerCallback: Send + Sync {
    /// Processes one transaction window. Returning `Err` triggers retry.
    fn on_window(&self, window: &Window) -> Result<(), String>;

    /// Called before each batch (one relay read, or one fall-back window),
    /// so a consumer derives once what the batch's windows share.
    fn on_batch_start(&self) {}

    /// Called before a full image from the fall-back, so the consumer can
    /// reset its state ("all clients need to re-initialize their state").
    fn on_snapshot_start(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Where a client goes for what its relay cannot serve: §III.C's
/// switchover target, passed to [`DatabusClient::new`].
pub trait Fallback: Send + Sync {
    /// One window that brings a consumer at `checkpoint` up to date with
    /// `relay`'s source; its `scn` is where the client resumes the relay.
    fn window(
        &self,
        relay: &Relay,
        checkpoint: Scn,
        filter: &ServerFilter,
    ) -> Result<FallbackWindow, DatabusError>;
}

/// What a [`Fallback`] serves.
#[derive(Debug, Clone)]
pub struct FallbackWindow {
    /// The rows, and in `scn` where the client resumes the relay.
    pub window: Window,
    /// True when `window` is the consumer's whole state (the consumer
    /// resets first), false when it is a delta since the checkpoint.
    pub full_image: bool,
}

/// Statistics about how a client has been served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Windows delivered from the relay (hot path).
    pub windows_from_relay: u64,
    /// Windows served by the fall-back (catch-up path).
    pub windows_from_bootstrap: u64,
    /// Full images loaded from the fall-back.
    pub snapshots: u64,
    /// Deltas loaded from the fall-back.
    pub deltas: u64,
    /// Consumer retries performed.
    pub retries: u64,
}

/// Windows processed, switchovers to the fall-back, and the relay lag in
/// SCNs (newest relay SCN minus checkpoint), under one scope.
#[derive(Debug, Clone)]
struct ClientMetrics {
    windows_processed: Counter,
    bootstrap_switchovers: Counter,
    relay_lag_scns: Gauge,
}

impl ClientMetrics {
    fn new(scope: &MetricsScope) -> Self {
        ClientMetrics {
            windows_processed: scope.counter("windows_processed"),
            bootstrap_switchovers: scope.counter("bootstrap_switchovers"),
            relay_lag_scns: scope.gauge("relay_lag_scns"),
        }
    }
}

/// A Databus client bound to one consumer.
pub struct DatabusClient {
    relay: Arc<Relay>,
    fallback: Option<Arc<dyn Fallback>>,
    consumer: Arc<dyn ConsumerCallback>,
    filter: ServerFilter,
    transformation: Transformation,
    checkpoint: Mutex<Scn>,
    /// Serializes whole poll cycles. With both a periodic pump and a
    /// push-style dispatcher (see `crate::dispatch`) driving the same
    /// client, this guarantees exactly-one delivery per window — the
    /// property the bench's conservation fingerprint counts on.
    drive: Mutex<()>,
    batch_windows: usize,
    stats: Mutex<ClientStats>,
    /// `databus.client.<name>.*` in the relay's registry.
    own: ClientMetrics,
    /// `databus.client.*`: every client's sum, so the total lag reads 0
    /// exactly when every client of the registry has drained.
    total: ClientMetrics,
    /// This client's share of the total lag: the lag it last published.
    lag: AtomicI64,
}

impl DatabusClient {
    /// Creates a client at checkpoint 0 (a brand-new consumer), reporting
    /// under `databus.client.<name>.` in the relay's registry. The name
    /// identifies the client as a relay's source names the relay.
    pub fn new(
        name: &str,
        relay: Arc<Relay>,
        fallback: Option<Arc<dyn Fallback>>,
        consumer: Arc<dyn ConsumerCallback>,
    ) -> Self {
        let scope = relay.metrics().scope("databus.client");
        DatabusClient {
            own: ClientMetrics::new(&scope.scope(name)),
            total: ClientMetrics::new(&scope),
            relay,
            fallback,
            consumer,
            filter: ServerFilter::all(),
            transformation: Transformation::new(),
            checkpoint: Mutex::new(0),
            drive: Mutex::new(()),
            batch_windows: 64,
            stats: Mutex::new(ClientStats::default()),
            lag: AtomicI64::new(0),
        }
    }

    /// Publishes the current relay lag (never negative: a checkpoint at or
    /// past the newest buffered SCN reads as zero).
    fn refresh_lag(&self) {
        let lag = self.relay.newest_scn().saturating_sub(self.checkpoint());
        self.publish_lag(lag as i64);
    }

    /// Sets this client's lag and moves the total by the change (refreshes
    /// run under the drive lock, so changes never interleave).
    fn publish_lag(&self, lag: i64) {
        let before = self.lag.swap(lag, Ordering::Relaxed);
        self.own.relay_lag_scns.set(lag);
        self.total.relay_lag_scns.add(lag - before);
    }

    fn count_windows(&self, windows: u64) {
        self.own.windows_processed.add(windows);
        self.total.windows_processed.add(windows);
    }

    /// Builder: server-side filter (the partitioning axis for scaled
    /// consumer groups).
    #[must_use]
    pub fn with_filter(mut self, filter: ServerFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Builder: a declarative transformation pipeline applied to every
    /// window before it reaches the consumer (§III.E future work).
    #[must_use]
    pub fn with_transformation(mut self, transformation: Transformation) -> Self {
        self.transformation = transformation;
        self
    }

    /// Builder: windows fetched per relay pull.
    #[must_use]
    pub fn with_batch(mut self, windows: usize) -> Self {
        self.batch_windows = windows.max(1);
        self
    }

    /// Current checkpoint (highest SCN fully processed).
    pub fn checkpoint(&self) -> Scn {
        *self.checkpoint.lock()
    }

    /// Rewinds (or fast-forwards) the checkpoint — e.g. to reprocess after
    /// an application bug fix.
    pub fn set_checkpoint(&self, scn: Scn) {
        *self.checkpoint.lock() = scn;
    }

    /// Serving statistics.
    pub fn stats(&self) -> ClientStats {
        *self.stats.lock()
    }

    fn deliver(&self, window: &Window) -> Result<(), DatabusError> {
        let transformed;
        let window = if self.transformation.is_identity() {
            window
        } else {
            transformed = self.transformation.apply(window);
            &transformed
        };
        let mut attempt = 0u32;
        loop {
            match self.consumer.on_window(window) {
                Ok(()) => return Ok(()),
                Err(msg) => {
                    if attempt >= MAX_RETRIES {
                        return Err(DatabusError::ConsumerFailed {
                            scn: window.scn,
                            retries: attempt,
                            last_error: msg,
                        });
                    }
                    attempt += 1;
                    self.stats.lock().retries += 1;
                }
            }
        }
    }

    /// One poll cycle: pull from the relay; on falling behind, switch to
    /// the fall-back, then resume the relay. Returns windows processed.
    /// Safe to call from multiple threads — cycles serialize on the drive
    /// lock, so no window is ever delivered twice.
    pub fn poll_once(&self) -> Result<usize, DatabusError> {
        let _drive = self.drive.lock();
        self.poll_once_locked()
    }

    fn poll_once_locked(&self) -> Result<usize, DatabusError> {
        let views = match self.relay.events_after_shared(
            self.checkpoint(),
            self.batch_windows,
            &self.filter,
        ) {
            Ok(views) => views,
            Err(RelayError::ScnNotFound { .. }) => return self.bootstrap_locked(),
            Err(e) => return Err(DatabusError::Relay(e)),
        };
        if !views.is_empty() {
            self.consumer.on_batch_start();
        }
        // Shared views deref to `&Window`: an unfiltered consumer reads
        // straight out of relay buffer memory — no clone between ingest
        // and callback.
        let mut processed = 0;
        for view in &views {
            self.deliver(view)?;
            *self.checkpoint.lock() = view.scn;
            processed += 1;
        }
        self.stats.lock().windows_from_relay += processed;
        self.count_windows(processed);
        self.refresh_lag();
        Ok(processed as usize)
    }

    /// Serves the consumer one window from its fall-back and resumes the
    /// relay at that window's SCN: a full image resets the consumer first,
    /// a delta applies over its state at the checkpoint.
    fn bootstrap_locked(&self) -> Result<usize, DatabusError> {
        let checkpoint = self.checkpoint();
        let Some(fallback) = &self.fallback else {
            return Err(DatabusError::FellBehindNoBootstrap {
                checkpoint,
                oldest: self.relay.oldest_scn(),
            });
        };
        self.own.bootstrap_switchovers.inc();
        self.total.bootstrap_switchovers.inc();
        let FallbackWindow { window, full_image } =
            fallback.window(&self.relay, checkpoint, &self.filter)?;
        if full_image {
            self.consumer
                .on_snapshot_start()
                .map_err(|last_error| DatabusError::ConsumerFailed {
                    scn: window.scn,
                    retries: 0,
                    last_error,
                })?;
        }
        self.consumer.on_batch_start();
        self.deliver(&window)?;
        *self.checkpoint.lock() = window.scn;
        let mut stats = self.stats.lock();
        if full_image {
            stats.snapshots += 1;
        } else {
            stats.deltas += 1;
        }
        stats.windows_from_bootstrap += 1;
        drop(stats);
        self.count_windows(1);
        self.refresh_lag();
        Ok(1)
    }

    /// Serves the consumer from its fall-back now, whatever the relay
    /// still holds, and resumes the relay where that window ends. A
    /// consumer whose relay does not begin at its own origin starts this
    /// way: an Espresso slave's source relays only the commits it
    /// mastered, not the partition it holds.
    pub fn bootstrap(&self) -> Result<usize, DatabusError> {
        let _drive = self.drive.lock();
        self.bootstrap_locked()
    }

    /// Polls until fully caught up with the relay. Returns total windows
    /// processed. Holds the drive lock for the whole run, so concurrent
    /// drivers (pump thread + dispatcher) take turns instead of
    /// interleaving within a cycle.
    pub fn catch_up(&self) -> Result<usize, DatabusError> {
        let _drive = self.drive.lock();
        let mut total = 0;
        loop {
            let n = self.poll_once_locked()?;
            if n == 0 {
                return Ok(total);
            }
            total += n;
        }
    }
}

/// A dropped client leaves the total lag: its share goes to zero.
impl Drop for DatabusClient {
    fn drop(&mut self) {
        self.publish_lag(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapServer;
    use bytes::Bytes;
    use li_sqlstore::{Op, Row, RowChange, RowKey};
    use parking_lot::Mutex as PMutex;

    /// Consumer that folds windows into a map, tracking window boundaries.
    #[derive(Default)]
    struct MapConsumer {
        state: PMutex<std::collections::HashMap<RowKey, Bytes>>,
        windows_seen: PMutex<Vec<Scn>>,
        events_seen: PMutex<usize>,
        snapshot_resets: PMutex<u32>,
        fail_next: PMutex<u32>,
    }

    impl ConsumerCallback for MapConsumer {
        fn on_window(&self, window: &Window) -> Result<(), String> {
            {
                let mut fail = self.fail_next.lock();
                if *fail > 0 {
                    *fail -= 1;
                    return Err("transient consumer hiccup".into());
                }
            }
            let mut state = self.state.lock();
            for change in &window.changes {
                *self.events_seen.lock() += 1;
                match &change.op {
                    Op::Put(row) => {
                        state.insert(change.key.clone(), row.value.clone());
                    }
                    Op::Delete => {
                        state.remove(&change.key);
                    }
                }
            }
            self.windows_seen.lock().push(window.scn);
            Ok(())
        }

        fn on_snapshot_start(&self) -> Result<(), String> {
            self.state.lock().clear();
            *self.snapshot_resets.lock() += 1;
            Ok(())
        }
    }

    fn put(key: &str, value: &str) -> RowChange {
        RowChange {
            table: "t".into(),
            key: RowKey::single(key),
            op: Op::Put(Row::new(Bytes::copy_from_slice(value.as_bytes()), 1)),
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

    #[test]
    fn hot_path_consumes_in_commit_order() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        for scn in 1..=10 {
            relay.ingest(window(scn, vec![put(&format!("k{scn}"), "v")])).unwrap();
        }
        let consumer = Arc::new(MapConsumer::default());
        let client = DatabusClient::new("test", relay.clone(), None, consumer.clone());
        assert_eq!(client.catch_up().unwrap(), 10);
        assert_eq!(client.checkpoint(), 10);
        let seen = consumer.windows_seen.lock().clone();
        assert_eq!(seen, (1..=10).collect::<Vec<Scn>>(), "commit order");
        assert_eq!(client.stats().windows_from_relay, 10);
        // Nothing new: zero without error.
        assert_eq!(client.poll_once().unwrap(), 0);
    }

    #[test]
    fn consumer_retry_then_success() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        relay.ingest(window(1, vec![put("k", "v")])).unwrap();
        let consumer = Arc::new(MapConsumer::default());
        *consumer.fail_next.lock() = 2;
        let client = DatabusClient::new("test", relay, None, consumer.clone());
        assert_eq!(client.poll_once().unwrap(), 1);
        assert_eq!(client.stats().retries, 2);
        assert_eq!(client.checkpoint(), 1);
    }

    #[test]
    fn consumer_failure_exhausts_retries_and_checkpoint_stays() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        relay.ingest(window(1, vec![put("k", "v")])).unwrap();
        let consumer = Arc::new(MapConsumer::default());
        // Exactly exhausts the budget: 1 attempt + 3 retries, all failing.
        *consumer.fail_next.lock() = 4;
        let client = DatabusClient::new("test", relay, None, consumer.clone());
        let err = client.poll_once().unwrap_err();
        assert!(matches!(err, DatabusError::ConsumerFailed { scn: 1, retries: 3, .. }));
        assert_eq!(client.checkpoint(), 0, "no progress on failure");
        // At-least-once: after the hiccup clears, the window re-delivers.
        assert_eq!(client.poll_once().unwrap(), 1);
        assert_eq!(client.checkpoint(), 1);
    }

    #[test]
    fn fallen_behind_switches_to_consolidated_delta_and_back() {
        // Small relay: old windows get evicted.
        let relay = Arc::new(Relay::new("primary", 2048));
        let bootstrap = Arc::new(BootstrapServer::new());
        let consumer = Arc::new(MapConsumer::default());
        let client =
            DatabusClient::new("test", relay.clone(), Some(bootstrap.clone()), consumer.clone());

        // Client processes scn 1..3 from the relay.
        for scn in 1..=3u64 {
            relay.ingest(window(scn, vec![put(&format!("k{scn}"), "v1")])).unwrap();
            bootstrap.ingest(window(scn, vec![put(&format!("k{scn}"), "v1")]));
        }
        assert_eq!(client.catch_up().unwrap(), 3);

        // Client stalls; 200 more commits blow past the relay buffer,
        // many updating the same hot key.
        for scn in 4..=203u64 {
            let w = window(scn, vec![put("hot", &format!("v{scn}")), put(&format!("k{scn}"), "x")]);
            relay.ingest(w.clone()).unwrap();
            bootstrap.ingest(w);
        }
        assert!(relay.oldest_scn() > 4, "relay evicted the tail");

        // Resume: first poll takes the bootstrap (consolidated delta)...
        let n = client.poll_once().unwrap();
        assert_eq!(n, 1, "one consolidated window");
        assert_eq!(client.stats().deltas, 1);
        assert_eq!(client.checkpoint(), 203);
        // The delta collapsed 400 raw events into ≤ 201 rows.
        let events = *consumer.events_seen.lock();
        assert!(events <= 3 + 201, "fast playback: saw {events} events");
        // ...and the state is correct.
        assert_eq!(
            consumer.state.lock().get(&RowKey::single("hot")).unwrap().as_ref(),
            b"v203"
        );
        // Subsequent traffic flows from the relay again.
        relay.ingest(window(204, vec![put("after", "y")])).unwrap();
        assert_eq!(client.poll_once().unwrap(), 1);
        assert_eq!(client.stats().windows_from_relay, 4);
    }

    #[test]
    fn fallen_behind_with_stale_bootstrap_and_parked_pump_terminates() {
        // The 10^6-member site-bench livelock, in miniature: the
        // bootstrap's log writer only advances when pumped, the pump is
        // parked (here: nobody calls it; in the bench: blocked on this
        // very client's drive lock), and a fat-window burst blows the
        // client off the relay. Pre-fix, catch_up spun forever re-serving
        // the same stale consolidated delta — its as_of never reached the
        // relay's buffered range. The eviction floor keeps the unlinked
        // suffix buffered and the in-band tug advances the log writer, so
        // one delta lands the client at the head.
        let relay = Arc::new(Relay::new("primary", 4096));
        relay.set_eviction_floor(0);
        let bootstrap = Arc::new(BootstrapServer::new());
        let consumer = Arc::new(MapConsumer::default());
        let client =
            DatabusClient::new("test", relay.clone(), Some(bootstrap.clone()), consumer.clone());
        for scn in 1..=3u64 {
            relay.ingest(window(scn, vec![put(&format!("k{scn}"), "v1")])).unwrap();
        }
        bootstrap.catch_up_from(&relay).unwrap();
        assert_eq!(client.catch_up().unwrap(), 3);

        // The pump runs once more with the log tail at 100, then parks.
        for scn in 4..=100u64 {
            relay.ingest(window(scn, vec![put("hot", "warm")])).unwrap();
        }
        bootstrap.catch_up_from(&relay).unwrap();
        // Fat burst far past the byte budget: the linked prefix (and with
        // it the client's position) is evicted; the unlinked suffix pins.
        let fat = "y".repeat(256);
        for scn in 101..=300u64 {
            relay.ingest(window(scn, vec![put("hot", &fat)])).unwrap();
        }
        assert!(relay.oldest_scn() > 4, "client's position evicted");
        assert_eq!(bootstrap.log_scn(), 100, "log writer is stale");

        let n = client.catch_up().unwrap();
        assert!(n >= 1);
        assert_eq!(client.checkpoint(), 300, "landed at the relay head");
        assert_eq!(bootstrap.log_scn(), 300, "client tugged the log writer");
        assert_eq!(client.stats().deltas, 1, "one consolidated delta sufficed");
        assert_eq!(
            consumer.state.lock().get(&RowKey::single("hot")).unwrap().as_ref(),
            fat.as_bytes()
        );
    }

    #[test]
    fn fresh_client_bootstraps_with_snapshot() {
        let relay = Arc::new(Relay::new("primary", 1024));
        let bootstrap = Arc::new(BootstrapServer::new());
        // History long gone from the relay.
        for scn in 1..=100u64 {
            let w = window(scn, vec![put(&format!("k{}", scn % 10), &format!("v{scn}"))]);
            relay.ingest(w.clone()).unwrap();
            bootstrap.ingest(w);
        }
        bootstrap.apply_log();
        assert!(relay.oldest_scn() > 1);

        let consumer = Arc::new(MapConsumer::default());
        let client = DatabusClient::new("test", relay, Some(bootstrap), consumer.clone());
        assert_eq!(client.poll_once().unwrap(), 1);
        assert_eq!(*consumer.snapshot_resets.lock(), 1);
        assert_eq!(client.stats().snapshots, 1);
        assert_eq!(client.checkpoint(), 100);
        // Snapshot contains exactly the 10 live keys at their final values.
        let state = consumer.state.lock();
        assert_eq!(state.len(), 10);
        assert_eq!(state.get(&RowKey::single("k9")).unwrap().as_ref(), b"v99");
    }

    #[test]
    fn fallen_behind_without_bootstrap_errors() {
        let relay = Arc::new(Relay::new("primary", 1024));
        for scn in 1..=50u64 {
            relay.ingest(window(scn, vec![put(&format!("k{scn}"), "v")])).unwrap();
        }
        let consumer = Arc::new(MapConsumer::default());
        let client = DatabusClient::new("test", relay, None, consumer);
        let err = client.poll_once().unwrap_err();
        assert!(matches!(err, DatabusError::FellBehindNoBootstrap { .. }));
    }

    #[test]
    fn checkpoint_rewind_reprocesses() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        for scn in 1..=5u64 {
            relay.ingest(window(scn, vec![put(&format!("k{scn}"), "v")])).unwrap();
        }
        let consumer = Arc::new(MapConsumer::default());
        let client = DatabusClient::new("test", relay, None, consumer.clone());
        client.catch_up().unwrap();
        client.set_checkpoint(2);
        client.catch_up().unwrap();
        let seen = consumer.windows_seen.lock().clone();
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 3, 4, 5]);
    }

    #[test]
    fn declarative_transformation_rewrites_stream_in_flight() {
        use crate::transform::{TransformRule, Transformation, REDACTED};
        fn put_in(table: &str, key: &str, value: &str) -> RowChange {
            RowChange {
                table: table.into(),
                key: RowKey::single(key),
                op: Op::Put(Row::new(Bytes::copy_from_slice(value.as_bytes()), 1)),
            }
        }
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        relay
            .ingest(window(
                1,
                vec![put_in("salary", "m1", "250000"), put_in("profile", "m1", "text")],
            ))
            .unwrap();
        let consumer = Arc::new(MapConsumer::default());
        let client = DatabusClient::new("test", relay, None, consumer.clone()).with_transformation(
            Transformation::new()
                .with(TransformRule::RedactValues {
                    table: "salary".into(),
                })
                .with(TransformRule::PrefixKeys {
                    table: "profile".into(),
                    prefix: "tenant-a".into(),
                }),
        );
        client.catch_up().unwrap();
        let state = consumer.state.lock();
        assert_eq!(state.get(&RowKey::single("m1")).unwrap().as_ref(), REDACTED);
        assert!(state.contains_key(&RowKey::new(["tenant-a", "m1"])));
    }

    #[test]
    fn paused_relay_shows_growing_lag_not_silent_success() {
        // A paused relay answers `Ok(vec![])` — on the wire identical to
        // "caught up". The stall must still be observable: the relay
        // counts serves-while-paused, and the client's lag gauge keeps
        // refreshing (and growing, since ingestion continues).
        let registry = li_commons::metrics::MetricsRegistry::new();
        let relay = Arc::new(Relay::with_metrics("primary", 1 << 20, &registry));
        let consumer = Arc::new(MapConsumer::default());
        let client = DatabusClient::new("test", relay.clone(), None, consumer);
        for scn in 1..=3u64 {
            relay.ingest(window(scn, vec![put(&format!("k{scn}"), "v")])).unwrap();
        }
        client.catch_up().unwrap();
        let lag = || registry.snapshot().gauge("databus.client.relay_lag_scns").unwrap();
        assert_eq!(lag(), 0);

        relay.set_paused(true);
        relay.ingest(window(4, vec![put("k4", "v")])).unwrap();
        relay.ingest(window(5, vec![put("k5", "v")])).unwrap();
        assert_eq!(client.poll_once().unwrap(), 0, "stall looks like idle on the wire");
        assert_eq!(lag(), 2, "but the lag gauge keeps refreshing");
        assert_eq!(relay.served_while_paused(), 1);
        relay.ingest(window(6, vec![put("k6", "v")])).unwrap();
        assert_eq!(client.poll_once().unwrap(), 0);
        assert_eq!(lag(), 3, "lag grows while paused");
        assert_eq!(
            registry
                .snapshot()
                .counter("databus.relay.primary.served_while_paused"),
            Some(2)
        );

        relay.set_paused(false);
        assert_eq!(client.catch_up().unwrap(), 3);
        assert_eq!(lag(), 0, "drains after unpause");
    }

    #[test]
    fn each_client_reports_by_name_and_the_totals_sum_them() {
        let registry = li_commons::metrics::MetricsRegistry::new();
        let relay = Arc::new(Relay::with_metrics("primary", 1 << 20, &registry));
        let ahead = DatabusClient::new("ahead", relay.clone(), None, Arc::new(MapConsumer::default()));
        let behind = DatabusClient::new("behind", relay.clone(), None, Arc::new(MapConsumer::default()))
            .with_batch(1);
        for scn in 1..=5u64 {
            relay.ingest(window(scn, vec![put(&format!("k{scn}"), "v")])).unwrap();
        }
        ahead.catch_up().unwrap();
        behind.poll_once().unwrap();
        let snapshot = registry.snapshot();
        let lag = |name: &str| snapshot.gauge(&format!("databus.client.{name}relay_lag_scns"));
        let windows = |name: &str| snapshot.counter(&format!("databus.client.{name}windows_processed"));
        assert_eq!((lag("ahead."), lag("behind."), lag("")), (Some(0), Some(4), Some(4)));
        assert_eq!((windows("ahead."), windows("behind."), windows("")), (Some(5), Some(1), Some(6)));

        // A dropped client leaves the total: it is 0 once every live
        // client has drained, whoever refreshed last.
        drop(behind);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge("databus.client.behind.relay_lag_scns"), Some(0));
        assert_eq!(snapshot.gauge("databus.client.relay_lag_scns"), Some(0));
    }
}

