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

use li_commons::metrics::{Counter, Gauge};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

use li_sqlstore::{Op, RowChange, Scn};

use crate::bootstrap::BootstrapServer;
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
    /// The client fell behind the relay and no bootstrap server is
    /// configured.
    FellBehindNoBootstrap {
        /// The SCN the client was at.
        checkpoint: Scn,
        /// Oldest SCN still on the relay.
        oldest: Scn,
    },
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
                "checkpoint {checkpoint} evicted (relay oldest {oldest}) and no bootstrap server"
            ),
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

    /// Called when the client switches to bootstrap-snapshot mode so the
    /// consumer can reset its state ("all clients need to re-initialize
    /// their state").
    fn on_snapshot_start(&self) {}
}

/// Statistics about how a client has been served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Windows delivered from the relay (hot path).
    pub windows_from_relay: u64,
    /// Windows synthesized from bootstrap results (catch-up path).
    pub windows_from_bootstrap: u64,
    /// Bootstrap snapshot loads.
    pub snapshots: u64,
    /// Consolidated-delta catch-ups.
    pub deltas: u64,
    /// Consumer retries performed.
    pub retries: u64,
}

/// Client-side observability under `databus.client.` in the relay's
/// registry: windows processed, switchovers to the bootstrap service, and
/// the current relay lag in SCNs (newest relay SCN minus checkpoint).
#[derive(Debug, Clone)]
struct DatabusClientMetrics {
    windows_processed: Counter,
    bootstrap_switchovers: Counter,
    relay_lag_scns: Gauge,
}

impl DatabusClientMetrics {
    fn new(relay: &Relay) -> Self {
        let scope = relay.metrics().scope("databus.client");
        DatabusClientMetrics {
            windows_processed: scope.counter("windows_processed"),
            bootstrap_switchovers: scope.counter("bootstrap_switchovers"),
            relay_lag_scns: scope.gauge("relay_lag_scns"),
        }
    }
}

/// A Databus client bound to one consumer.
pub struct DatabusClient {
    relay: Arc<Relay>,
    bootstrap: Option<Arc<BootstrapServer>>,
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
    metrics: DatabusClientMetrics,
}

impl DatabusClient {
    /// Creates a client at checkpoint 0 (a brand-new consumer).
    pub fn new(
        relay: Arc<Relay>,
        bootstrap: Option<Arc<BootstrapServer>>,
        consumer: Arc<dyn ConsumerCallback>,
    ) -> Self {
        let metrics = DatabusClientMetrics::new(&relay);
        DatabusClient {
            relay,
            bootstrap,
            consumer,
            filter: ServerFilter::all(),
            transformation: Transformation::new(),
            checkpoint: Mutex::new(0),
            drive: Mutex::new(()),
            batch_windows: 64,
            stats: Mutex::new(ClientStats::default()),
            metrics,
        }
    }

    /// Publishes the current relay lag (never negative: a checkpoint at or
    /// past the newest buffered SCN reads as zero).
    fn refresh_lag(&self) {
        let lag = self.relay.newest_scn().saturating_sub(self.checkpoint());
        self.metrics.relay_lag_scns.set(lag as i64);
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
    /// the bootstrap server (consolidated delta, or full snapshot for a
    /// fresh client), then resume the relay. Returns windows processed.
    /// Safe to call from multiple threads — cycles serialize on the drive
    /// lock, so no window is ever delivered twice.
    pub fn poll_once(&self) -> Result<usize, DatabusError> {
        let _drive = self.drive.lock();
        self.poll_once_locked()
    }

    fn poll_once_locked(&self) -> Result<usize, DatabusError> {
        let checkpoint = self.checkpoint();
        match self
            .relay
            .events_after_shared(checkpoint, self.batch_windows, &self.filter)
        {
            Ok(views) => {
                // Shared views deref to `&Window`: an unfiltered consumer
                // reads straight out of relay buffer memory — no clone
                // between ingest and callback.
                let mut processed = 0;
                for view in &views {
                    self.deliver(view)?;
                    *self.checkpoint.lock() = view.scn;
                    processed += 1;
                }
                self.stats.lock().windows_from_relay += processed as u64;
                self.metrics.windows_processed.add(processed as u64);
                self.refresh_lag();
                Ok(processed)
            }
            Err(RelayError::ScnNotFound { oldest, .. }) => {
                let Some(bootstrap) = &self.bootstrap else {
                    return Err(DatabusError::FellBehindNoBootstrap {
                        checkpoint,
                        oldest,
                    });
                };
                self.metrics.bootstrap_switchovers.inc();
                // Tug the bootstrap's log writer before being served: in
                // production it follows the relay continuously, but here
                // it advances when pumped — and the pump may be parked on
                // *this client's* drive lock (its own catch-up pass runs
                // behind ours). Serving from the stale log would hand back
                // an `as_of` still below the relay's buffered range, and
                // the next cycle would fall behind again, forever. After
                // the tug the delta/snapshot is current as of now, so the
                // client lands at the relay head and resumes cleanly. This
                // also advances the relay's eviction floor, re-bounding
                // the buffer while the pump is blocked.
                bootstrap.catch_up_from(&self.relay).map_err(DatabusError::Relay)?;
                if checkpoint == 0 {
                    // Fresh client: consistent snapshot at U.
                    self.consumer.on_snapshot_start();
                    let snapshot = bootstrap.snapshot(&self.filter);
                    let as_of = snapshot.as_of_scn;
                    let window = Window {
                        source_db: self.relay.source_db().to_string(),
                        scn: as_of,
                        timestamp: 0,
                        changes: snapshot
                            .rows
                            .into_iter()
                            .map(|(table, key, row)| RowChange {
                                table,
                                key,
                                op: Op::Put(row),
                            })
                            .collect(),
                    };
                    self.deliver(&window)?;
                    *self.checkpoint.lock() = as_of;
                    let mut stats = self.stats.lock();
                    stats.snapshots += 1;
                    stats.windows_from_bootstrap += 1;
                    drop(stats);
                    self.metrics.windows_processed.inc();
                    self.refresh_lag();
                    Ok(1)
                } else {
                    // Fallen-behind client: consolidated delta since T.
                    let delta = bootstrap.consolidated_delta(checkpoint, &self.filter);
                    let as_of = delta.as_of_scn;
                    let window = Window {
                        source_db: self.relay.source_db().to_string(),
                        scn: as_of,
                        timestamp: 0,
                        changes: delta.changes,
                    };
                    self.deliver(&window)?;
                    *self.checkpoint.lock() = as_of;
                    let mut stats = self.stats.lock();
                    stats.deltas += 1;
                    stats.windows_from_bootstrap += 1;
                    drop(stats);
                    self.metrics.windows_processed.inc();
                    self.refresh_lag();
                    Ok(1)
                }
            }
            Err(e) => Err(DatabusError::Relay(e)),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use li_sqlstore::{Row, RowKey};
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

        fn on_snapshot_start(&self) {
            self.state.lock().clear();
            *self.snapshot_resets.lock() += 1;
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
        let client = DatabusClient::new(relay.clone(), None, consumer.clone());
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
        let client = DatabusClient::new(relay, None, consumer.clone());
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
        let client = DatabusClient::new(relay, None, consumer.clone());
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
            DatabusClient::new(relay.clone(), Some(bootstrap.clone()), consumer.clone());

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
            DatabusClient::new(relay.clone(), Some(bootstrap.clone()), consumer.clone());
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
        let client = DatabusClient::new(relay, Some(bootstrap), consumer.clone());
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
        let client = DatabusClient::new(relay, None, consumer);
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
        let client = DatabusClient::new(relay, None, consumer.clone());
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
        let client = DatabusClient::new(relay, None, consumer.clone()).with_transformation(
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
        let client = DatabusClient::new(relay.clone(), None, consumer);
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
}
