//! Push-style stream dispatch: consumer-driving worker threads woken by
//! the relay's SCN watch.
//!
//! The polling model has every consumer spinning `catch_up()` on its own
//! schedule — cheap with one consumer, a thundering herd at site scale.
//! The dispatcher inverts it: the relay publishes its high-water mark on a
//! watch channel once per ingest batch ([`crate::Relay::scn_watch`]), and
//! one worker per client sleeps on its own receiver of that watch and runs
//! `catch_up` when the mark moves.
//!
//! The watch is the only queue, and it holds one value: marks published
//! while a worker is inside a (possibly long) catch-up conflate into the
//! newest one, which is all the worker needs — its next catch-up reads the
//! relay's current state anyway. Fast consumers never wait on slow ones,
//! and a stalled consumer costs nothing but its own lag
//! (`databus.client.relay_lag_scns`).
//!
//! Exactly-once delivery per window is the client's job, not the
//! dispatcher's: `DatabusClient` serializes whole poll cycles on its drive
//! lock, so a periodic pump and this dispatcher can drive the same client
//! concurrently without double-delivering.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::client::DatabusClient;
use crate::relay::Relay;

/// How long a worker sleeps on the watch between shutdown checks.
const TICK: Duration = Duration::from_millis(20);

/// Counters describing a dispatcher's traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchStats {
    /// High-water marks observed on the relay watch, summed over the
    /// workers (each one started a `catch_up`).
    pub marks_seen: u64,
    /// `catch_up` runs that returned an error (consumer failures; the
    /// worker keeps going and retries on the next mark).
    pub errors: u64,
}

#[derive(Default)]
struct SharedStats {
    marks_seen: AtomicU64,
    errors: AtomicU64,
}

/// A running dispatcher: one worker thread per client.
/// Call [`StreamDispatcher::stop`] (or drop) to shut down; stopping runs a
/// final drain so every client ends caught up with the relay.
pub struct StreamDispatcher {
    relay: Arc<Relay>,
    clients: Vec<Arc<DatabusClient>>,
    stopped: Arc<AtomicBool>,
    stats: Arc<SharedStats>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for StreamDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamDispatcher")
            .field("clients", &self.clients.len())
            .field("stopped", &self.stopped.load(Ordering::SeqCst))
            .finish()
    }
}

impl StreamDispatcher {
    /// Starts dispatching `relay`'s stream to `clients`.
    pub fn start(relay: Arc<Relay>, clients: Vec<Arc<DatabusClient>>) -> Self {
        let stopped = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let mut threads = Vec::new();

        for (worker_index, client) in clients.iter().enumerate() {
            let mut watch = relay.scn_watch();
            let client = Arc::clone(client);
            let stopped = Arc::clone(&stopped);
            let stats = Arc::clone(&stats);
            let builder =
                std::thread::Builder::new().name(format!("dispatch-{worker_index}"));
            threads.push(builder.spawn(move || {
                while !stopped.load(Ordering::SeqCst) {
                    if watch.wait_newer(TICK).is_some() {
                        stats.marks_seen.fetch_add(1, Ordering::Relaxed);
                        if client.catch_up().is_err() {
                            stats.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }).expect("spawn dispatch worker"));
        }

        StreamDispatcher {
            relay,
            clients,
            stopped,
            stats,
            threads,
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> DispatchStats {
        DispatchStats {
            marks_seen: self.stats.marks_seen.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
        }
    }

    /// Stops the threads and runs one final synchronous drain per client,
    /// so everything ingested before the stop is delivered.
    pub fn stop(mut self) -> DispatchStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&mut self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        for client in &self.clients {
            if client.checkpoint() < self.relay.newest_scn() && client.catch_up().is_err() {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for StreamDispatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ConsumerCallback;
    use crate::event::Window;
    use bytes::Bytes;
    use li_sqlstore::{Op, Row, RowChange, RowKey, Scn};
    use std::sync::atomic::AtomicUsize;

    struct CountingConsumer(AtomicUsize);
    impl ConsumerCallback for CountingConsumer {
        fn on_window(&self, w: &Window) -> Result<(), String> {
            self.0.fetch_add(w.changes.len(), Ordering::Relaxed);
            Ok(())
        }
    }

    fn window(scn: Scn) -> Window {
        Window {
            source_db: "primary".into(),
            scn,
            timestamp: scn,
            changes: vec![RowChange {
                table: "member".into(),
                key: RowKey::single(format!("k{scn}")),
                op: Op::Put(Row::new(Bytes::from_static(b"v"), 1)),
            }],
        }
    }

    #[test]
    fn dispatch_delivers_without_explicit_polling() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        let consumer = Arc::new(CountingConsumer(AtomicUsize::new(0)));
        let client = Arc::new(DatabusClient::new("test", relay.clone(), None, consumer.clone()));
        let dispatcher = StreamDispatcher::start(relay.clone(), vec![client.clone()]);

        for scn in 1..=50 {
            relay.ingest(window(scn)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.checkpoint() < 50 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = dispatcher.stop();
        assert_eq!(client.checkpoint(), 50, "fully caught up, no manual pump");
        assert_eq!(consumer.0.load(Ordering::Relaxed), 50, "each window once");
        assert!(stats.marks_seen > 0);
    }

    #[test]
    fn stop_drains_pending_windows() {
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        let consumer = Arc::new(CountingConsumer(AtomicUsize::new(0)));
        let client = Arc::new(DatabusClient::new("test", relay.clone(), None, consumer.clone()));
        let dispatcher = StreamDispatcher::start(relay.clone(), vec![client.clone()]);
        for scn in 1..=20 {
            relay.ingest(window(scn)).unwrap();
        }
        // Stop immediately — the final drain must still deliver everything.
        dispatcher.stop();
        assert_eq!(client.checkpoint(), 20);
        assert_eq!(consumer.0.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn concurrent_pump_and_dispatch_deliver_each_window_once() {
        // The drive-lock contract: an external pump hammering catch_up while
        // the dispatcher runs must not double-deliver any window.
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        let consumer = Arc::new(CountingConsumer(AtomicUsize::new(0)));
        let client = Arc::new(DatabusClient::new("test", relay.clone(), None, consumer.clone()));
        let dispatcher = StreamDispatcher::start(relay.clone(), vec![client.clone()]);
        let pump_client = client.clone();
        let pumping = Arc::new(AtomicBool::new(true));
        let pumping2 = pumping.clone();
        let pump = std::thread::spawn(move || {
            while pumping2.load(Ordering::SeqCst) {
                pump_client.catch_up().unwrap();
            }
        });
        for scn in 1..=200 {
            relay.ingest(window(scn)).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.checkpoint() < 200 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        pumping.store(false, Ordering::SeqCst);
        pump.join().unwrap();
        dispatcher.stop();
        assert_eq!(client.checkpoint(), 200);
        assert_eq!(
            consumer.0.load(Ordering::Relaxed),
            200,
            "exactly one delivery per window despite two drivers"
        );
    }
}
