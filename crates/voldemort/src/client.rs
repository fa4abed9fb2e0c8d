//! The client API of Figure II.2 and the quorum coordination behind it.
//!
//! ```text
//! 1) VectorClock<V> get (K key)
//! 2) put (K key, VectorClock<V> value)
//! 3) VectorClock<V> get (K key, T transform)
//! 4) put (K key, VectorClock<V> value, T transform)
//! 5) applyUpdate(UpdateAction action, int retries)
//! ```
//!
//! This client implements **client-side routing** (the paper notes routing
//! is pluggable between client and server side): it holds the full
//! topology, computes the preference list, talks to R/W replicas itself,
//! performs read repair on stale replicas, and parks hinted-handoff writes
//! on fallback nodes when replicas are unreachable.
//!
//! # Parallel quorum I/O
//!
//! Replica requests go through the [`li_commons::exec`] fan-out executor:
//! the call completes as soon as R (or W) replicas acknowledge, and
//! stragglers are demoted to background read repair (gets) or hinted
//! handoff (puts) instead of adding their latency to the caller. The
//! execution strategy is chosen per client via [`QuorumConfig`]:
//!
//! * [`FanOutMode::Deterministic`] (default) — replayable inline
//!   execution; simulated latencies overlap by accounting (the reported
//!   [`QuorumStats::sim_latency`] is the R-th fastest replica, not the
//!   sum), which is what the chaos harness replays byte-identically.
//! * [`FanOutMode::Parallel`] — real worker threads from the cluster's
//!   shared pool, with optional per-node deadlines
//!   ([`QuorumConfig::per_node_timeout`], fed into the failure detector as
//!   failures so slow nodes back off to banned) and *hedged reads*
//!   ([`QuorumConfig::hedge`]: after a quantile-derived delay, one backup
//!   request goes to the next replica; `get.hedged` / `get.hedge_won`
//!   count the rate and usefulness).

use bytes::Bytes;
use li_commons::clock::{resolve_siblings, VectorClock, Versioned};
pub use li_commons::exec::FanOutMode;
use li_commons::exec::{fan_out, FanOutOptions, FanOutPool, FanOutTask, LateHandler};
use li_commons::metrics::{Counter, Histo};
use li_commons::ring::NodeId;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::cluster::VoldemortCluster;
use crate::error::VoldemortError;
use crate::migrate::JournaledWrite;
use crate::server::{Hint, VoldemortNode};
use crate::store::StoreDef;

/// A server-side transform (API methods 3 and 4): runs against the stored
/// value *on the node*, saving the round trip of shipping the whole value.
/// A transformed get runs on every replica read; a transformed put runs
/// once, on the coordinating replica, against the version the caller read.
/// "For example, if the value is a list, we can run a transformed get to
/// retrieve a sub-list or a transformed put to append an entity to a list."
pub trait Transform: Send + Sync {
    /// Maps the stored value on a transformed get.
    fn on_get(&self, value: &[u8]) -> Bytes;

    /// Produces the new stored value from the current one and the client's
    /// input on a transformed put.
    fn on_put(&self, current: Option<&[u8]>, input: &[u8]) -> Bytes;
}

/// The read-modify-write closure for [`StoreClient::apply_update`]: given
/// the current siblings (empty when absent), produce the new value, or
/// `None` to abort.
pub type UpdateAction<'a> = &'a dyn Fn(&[Versioned<Bytes>]) -> Option<Bytes>;

/// Late-straggler handler for a fan-out of [`ReplicaLink::task`]s, whose
/// replies are the simulated link latency plus the op's value.
type LateReplyHandler<T> = LateHandler<(Duration, T), VoldemortError>;

/// Which side coordinates requests. "Voldemort supports both server and
/// client side routing by moving the routing and associated modules"
/// (§II.B): with client-side routing the client talks to every replica
/// itself; with server-side routing it makes one hop to a coordinator
/// node, which then fans out to the replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMode {
    /// The client holds the topology and coordinates quorums itself.
    ClientSide,
    /// All requests funnel through the given coordinator node.
    ServerSide(NodeId),
}

/// How many replicas a quorum read contacts up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadFanOut {
    /// Contact the first R available replicas; a failure pulls in the next
    /// replica as a backup (cheapest; a slow replica inside the first R
    /// still hurts unless hedging covers it).
    #[default]
    Quorum,
    /// Contact all N replicas and complete on the first R answers — the
    /// paper's parallel quorum, which masks any N−R slow replicas.
    All,
}

/// Hedged-read tuning: if the quorum is unmet after a delay derived from
/// the observed replica latency distribution, one backup request goes to
/// the next untried replica. Only meaningful under
/// [`FanOutMode::Parallel`].
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Latency quantile the delay is derived from (e.g. 0.95: hedge when
    /// the primary is slower than 95% of observed replica calls).
    pub quantile: f64,
    /// Lower clamp on the derived delay (also used before any latency has
    /// been observed).
    pub min_delay: Duration,
    /// Upper clamp on the derived delay.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            quantile: 0.95,
            min_delay: Duration::from_micros(200),
            max_delay: Duration::from_millis(50),
        }
    }
}

/// Per-client quorum I/O tuning. The default — deterministic inline
/// fan-out, quorum-sized read fan-out, no deadlines, no hedging, no
/// latency sleeping — reproduces the exact request sequence of the
/// pre-parallel client, which is what seeded chaos replays depend on.
#[derive(Debug, Clone, Default)]
pub struct QuorumConfig {
    /// Execution strategy (see [`FanOutMode`]).
    pub mode: FanOutMode,
    /// Read fan-out width (see [`ReadFanOut`]).
    pub read_fan_out: ReadFanOut,
    /// Per-node deadline: a replica whose simulated latency exceeds this
    /// counts as failed (`VoldemortError::Timeout`) and is reported to the
    /// failure detector, so persistently slow nodes get banned and backed
    /// off exactly like dead ones.
    pub per_node_timeout: Option<Duration>,
    /// Hedged-read tuning (Parallel mode only).
    pub hedge: Option<HedgeConfig>,
    /// Sleep the simulated per-link latency on each replica call (used by
    /// benchmarks so wall-clock percentiles reflect the simulated
    /// network; tests leave this off and read the accounted
    /// [`QuorumStats::sim_latency`] instead).
    pub simulate_latency: bool,
}

/// What one quorum operation observed — the accounting the chaos harness
/// checks its R-th-fastest-replica bound against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuorumStats {
    /// Simulated completion latency: the R-th smallest replica latency
    /// among the successes (replicas overlap).
    pub sim_latency: Duration,
    /// Replica requests launched (primaries + backups + hedges).
    pub contacted: usize,
    /// Hedge requests launched.
    pub hedges: usize,
    /// Hedge requests whose response completed the quorum.
    pub hedge_wins: usize,
}

/// Client-side observability under the cluster registry's
/// `voldemort.client.` prefix: end-to-end latency per API call, quorum
/// outcomes, writes that needed a hint to meet W (sloppy quorum), and the
/// hedged-read counters.
#[derive(Debug, Clone)]
struct ClientMetrics {
    get_latency: Histo,
    put_latency: Histo,
    gets_ok: Counter,
    puts_ok: Counter,
    quorum_read_failures: Counter,
    quorum_write_failures: Counter,
    hinted_writes: Counter,
    hedged: Counter,
    hedge_won: Counter,
    get_sim_latency: Histo,
    put_sim_latency: Histo,
    replica_latency: Histo,
}

impl ClientMetrics {
    fn new(cluster: &VoldemortCluster) -> Self {
        let scope = cluster.metrics().scope("voldemort.client");
        ClientMetrics {
            get_latency: scope.histogram("get.latency_ns"),
            put_latency: scope.histogram("put.latency_ns"),
            gets_ok: scope.counter("get.ok"),
            puts_ok: scope.counter("put.ok"),
            quorum_read_failures: scope.counter("quorum.read_failures"),
            quorum_write_failures: scope.counter("quorum.write_failures"),
            hinted_writes: scope.counter("put.hinted"),
            hedged: scope.counter("get.hedged"),
            hedge_won: scope.counter("get.hedge_won"),
            get_sim_latency: scope.histogram("get.sim_latency_ns"),
            put_sim_latency: scope.histogram("put.sim_latency_ns"),
            replica_latency: scope.histogram("replica.latency_ns"),
        }
    }
}

/// The one way a client reaches a replica: what every replica request of a
/// client shares, fixed once the client is built
/// ([`StoreClient::with_server_routing`] and
/// [`StoreClient::with_quorum_config`] are the only writers). Held in an
/// `Arc`, so a fan-out task captures one refcount.
#[derive(Clone)]
struct ReplicaLink {
    cluster: Arc<VoldemortCluster>,
    store: String,
    /// The node replica traffic originates from: the client itself, or the
    /// coordinator under server-side routing.
    origin: NodeId,
    per_node_timeout: Option<Duration>,
    simulate_latency: bool,
}

impl ReplicaLink {
    /// The node exists and the failure detector has not banned it: the
    /// one test of whether a request may be routed to `node`.
    fn is_live(&self, node: NodeId) -> bool {
        self.cluster.node(node).is_ok() && self.cluster.detector().is_available(node)
    }

    /// Delivers one message to `node` and runs `op` on it, returning the
    /// simulated link latency with `op`'s value. Every outcome feeds the
    /// failure detector. A *timed* call is one the caller waits on (the
    /// coordinator hop, the quorum waves): it enforces the per-node
    /// deadline and sleeps the link when latency is simulated. Repairs,
    /// hints, heals and shadow probes are untimed.
    fn call<T>(
        &self,
        node: NodeId,
        timed: bool,
        op: impl FnOnce(&VoldemortNode) -> Result<T, VoldemortError>,
    ) -> Result<(Duration, T), VoldemortError> {
        let server = self.cluster.node(node)?;
        let detector = self.cluster.detector();
        let latency = self.cluster.network().deliver(self.origin, node).map_err(|net| {
            detector.record_failure(node);
            VoldemortError::Net(node, net)
        })?;
        if timed {
            if let Some(deadline) = self.per_node_timeout.filter(|d| latency > *d) {
                // The caller gives up at the deadline (sleep only that
                // long) and the slow node is penalized like a dead one, so
                // the detector's ban/backoff covers chronic stragglers too.
                if self.simulate_latency {
                    std::thread::sleep(deadline);
                }
                detector.record_failure(node);
                return Err(VoldemortError::Timeout(node));
            }
            if self.simulate_latency {
                std::thread::sleep(latency);
            }
        }
        let result = op(&server);
        // An application-level rejection (e.g. ObsoleteVersion) is a
        // *successful* interaction for liveness purposes.
        detector.record_success(node);
        result.map(|value| (latency, value))
    }

    /// The fan-out task that runs `op` (handed the store name) on `node`
    /// as a timed call. `'static` because Parallel mode stragglers may
    /// outlive the operation that launched them.
    fn task<T>(
        self: &Arc<Self>,
        node: NodeId,
        op: impl FnOnce(&VoldemortNode, &str) -> Result<T, VoldemortError> + Send + 'static,
    ) -> FanOutTask<(Duration, T), VoldemortError> {
        let link = Arc::clone(self);
        FanOutTask::new(u64::from(node.0), move || {
            link.call(node, true, |server| op(server, &link.store))
        })
    }

    /// Read repair: pushes every version of `merged` that `node` answered
    /// without (`held` is what it answered) back to it.
    fn repair(
        &self,
        node: NodeId,
        key: &[u8],
        merged: &[Versioned<Bytes>],
        held: &[Versioned<Bytes>],
    ) {
        for version in merged {
            if !held.iter().any(|v| v.clock == version.clock) {
                let _ = self.call(node, false, |server| {
                    server.force_put(&self.store, key, version.clone())
                });
            }
        }
    }

    /// The nodes that may hold a hint for a replica of `prefs`, in id
    /// order: outside the preference list and live.
    fn hint_holders<'a>(&'a self, prefs: &'a [NodeId]) -> impl Iterator<Item = NodeId> + 'a {
        self.cluster
            .node_ids()
            .into_iter()
            .filter(move |n| !prefs.contains(n) && self.is_live(*n))
    }

    /// Hinted handoff: parks `value` for the unreachable `target` on the
    /// first of `holders` that accepts it, walking past holders that are
    /// unreachable themselves. False when the walk runs out of holders.
    fn park_hint(
        &self,
        holders: &mut impl Iterator<Item = NodeId>,
        target: NodeId,
        key: &Bytes,
        value: &Versioned<Bytes>,
    ) -> bool {
        holders.any(|holder| {
            self.call(holder, false, |server| {
                server.store_hint(Hint {
                    store: self.store.clone(),
                    target,
                    key: key.clone(),
                    value: value.clone(),
                });
                Ok(())
            })
            .is_ok()
        })
    }
}

/// A client bound to one store.
pub struct StoreClient {
    store: StoreDef,
    routing: RoutingMode,
    config: QuorumConfig,
    metrics: ClientMetrics,
    link: Arc<ReplicaLink>,
}

impl StoreClient {
    /// Virtual node id the client occupies on the simulated network.
    pub const CLIENT_NODE: NodeId = NodeId(u16::MAX);

    pub(crate) fn new(cluster: Arc<VoldemortCluster>, store: StoreDef) -> Self {
        let metrics = ClientMetrics::new(&cluster);
        let config = QuorumConfig::default();
        let link = Arc::new(ReplicaLink {
            cluster,
            store: store.name.clone(),
            origin: Self::CLIENT_NODE,
            per_node_timeout: config.per_node_timeout,
            simulate_latency: config.simulate_latency,
        });
        StoreClient {
            store,
            routing: RoutingMode::ClientSide,
            config,
            metrics,
            link,
        }
    }

    /// Switches to server-side routing through `coordinator`: every
    /// request pays one extra hop to the coordinator, which then runs the
    /// replica fan-out (the module relocation the pluggable architecture
    /// allows).
    #[must_use]
    pub fn with_server_routing(mut self, coordinator: NodeId) -> Self {
        self.routing = RoutingMode::ServerSide(coordinator);
        Arc::make_mut(&mut self.link).origin = coordinator;
        self
    }

    /// Replaces the quorum I/O configuration (fan-out mode, read width,
    /// per-node deadline, hedging).
    #[must_use]
    pub fn with_quorum_config(mut self, config: QuorumConfig) -> Self {
        let link = Arc::make_mut(&mut self.link);
        link.per_node_timeout = config.per_node_timeout;
        link.simulate_latency = config.simulate_latency;
        self.config = config;
        self
    }

    /// The active quorum I/O configuration.
    pub fn quorum_config(&self) -> &QuorumConfig {
        &self.config
    }

    /// For server-side routing: the client -> coordinator hop itself.
    fn enter(&self) -> Result<(), VoldemortError> {
        if let RoutingMode::ServerSide(coordinator) = self.routing {
            self.link.cluster
                .network()
                .deliver(Self::CLIENT_NODE, coordinator)
                .map_err(|e| VoldemortError::Net(coordinator, e))?;
        }
        Ok(())
    }

    /// The store definition this client operates under.
    pub fn store_def(&self) -> &StoreDef {
        &self.store
    }

    fn preference_list(&self, key: &[u8]) -> Result<Vec<NodeId>, VoldemortError> {
        self.link.cluster.route(&self.store, key)
    }

    /// The worker pool, only when this client actually runs parallel.
    fn pool(&self) -> Option<&FanOutPool> {
        (self.config.mode == FanOutMode::Parallel).then(|| self.link.cluster.fan_out_pool())
    }

    /// The live preference-list nodes, in preference order.
    fn available_replicas(&self, prefs: &[NodeId]) -> Vec<NodeId> {
        prefs
            .iter()
            .copied()
            .filter(|&n| self.link.is_live(n))
            .collect()
    }

    /// The hedge delay for this moment, derived from the replica-latency
    /// histogram (Parallel mode with hedging configured only).
    fn hedge_delay(&self) -> Option<Duration> {
        if self.config.mode != FanOutMode::Parallel {
            return None;
        }
        let cfg = self.config.hedge.as_ref()?;
        let observed = self.metrics.replica_latency.snapshot();
        let delay = if observed.count() == 0 {
            cfg.min_delay
        } else {
            Duration::from_nanos(observed.quantile(cfg.quantile))
        };
        Some(delay.clamp(cfg.min_delay, cfg.max_delay))
    }

    /// API method 1: quorum get. Returns all concurrent siblings (empty
    /// when the key is absent); conflict resolution is the application's
    /// job, per the Dynamo design.
    pub fn get(&self, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        self.get_internal(key, None).map(|(versions, _)| versions)
    }

    /// Like [`StoreClient::get`], also reporting the fan-out accounting
    /// ([`QuorumStats`]) for this operation.
    pub fn get_with_stats(
        &self,
        key: &[u8],
    ) -> Result<(Vec<Versioned<Bytes>>, QuorumStats), VoldemortError> {
        self.get_internal(key, None)
    }

    /// API method 3: transformed get — the transform runs server-side on
    /// each replica's value.
    pub fn get_with_transform(
        &self,
        key: &[u8],
        transform: &dyn Transform,
    ) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        self.get_internal(key, Some(transform))
            .map(|(versions, _)| versions)
    }

    fn get_internal(
        &self,
        key: &[u8],
        transform: Option<&dyn Transform>,
    ) -> Result<(Vec<Versioned<Bytes>>, QuorumStats), VoldemortError> {
        let start = Instant::now();
        let result = self.get_quorum(key, transform);
        self.metrics.get_latency.record_duration(start.elapsed());
        match &result {
            Ok((_, stats)) => {
                self.metrics.gets_ok.inc();
                self.metrics
                    .get_sim_latency
                    .record(stats.sim_latency.as_nanos() as u64);
            }
            Err(VoldemortError::InsufficientReads { .. }) => {
                self.metrics.quorum_read_failures.inc();
            }
            Err(_) => {}
        }
        result
    }

    fn get_quorum(
        &self,
        key: &[u8],
        transform: Option<&dyn Transform>,
    ) -> Result<(Vec<Versioned<Bytes>>, QuorumStats), VoldemortError> {
        self.enter()?;
        let prefs = self.preference_list(key)?;
        let required = self.store.required_reads;
        let available = self.available_replicas(&prefs);
        let width = match self.config.read_fan_out {
            ReadFanOut::Quorum => required.min(available.len()),
            ReadFanOut::All => available.len(),
        };
        // One copy of the key per operation; each task shares it.
        let shared_key = Bytes::copy_from_slice(key);
        let get_task = |&node: &NodeId| {
            let key = shared_key.clone();
            self.link.task(node, move |server, store| server.get(store, &key))
        };
        let primary: Vec<_> = available[..width].iter().map(get_task).collect();
        let backups: Vec<_> = available[width..].iter().map(get_task).collect();

        // Stragglers that answer after we've returned get repaired in the
        // background against the merged set published here. Best-effort: a
        // straggler racing the publish is skipped, exactly like a replica
        // that missed this read entirely — the next read repairs it.
        let merged_latch: Arc<OnceLock<Vec<Versioned<Bytes>>>> = Arc::new(OnceLock::new());
        let late = (self.config.mode == FanOutMode::Parallel).then(|| {
            let (link, key) = (Arc::clone(&self.link), shared_key.clone());
            let latch = Arc::clone(&merged_latch);
            let handler: LateReplyHandler<Vec<Versioned<Bytes>>> =
                Arc::new(move |node, outcome| {
                    if let (Ok((_, held)), Some(merged)) = (outcome, latch.get()) {
                        link.repair(NodeId(node as u16), &key, merged, &held);
                    }
                });
            handler
        });

        let opts = FanOutOptions {
            mode: self.config.mode,
            required,
            hedge_delay: (!backups.is_empty())
                .then(|| self.hedge_delay())
                .flatten(),
        };
        let report = fan_out(self.pool(), &opts, primary, backups, None, late);
        self.metrics.hedged.add(report.hedges as u64);
        self.metrics.hedge_won.add(report.hedge_wins as u64);
        for (_, (latency, _)) in report.successes() {
            self.metrics.replica_latency.record(latency.as_nanos() as u64);
        }
        if !report.satisfied() {
            let _ = merged_latch.set(Vec::new());
            return Err(VoldemortError::InsufficientReads {
                required,
                got: report.quorum.len(),
            });
        }

        // Collect responses and order them by preference-list position so
        // the merge and repair sequence is independent of completion order.
        let mut responses: Vec<(NodeId, Duration, Vec<Versioned<Bytes>>)> = report
            .quorum
            .into_iter()
            .chain(report.extras)
            .map(|(id, (latency, versions))| (NodeId(id as u16), latency, versions))
            .collect();
        responses.sort_by_key(|(node, _, _)| prefs.iter().position(|p| p == node));

        // Merge all observed versions into the live sibling set.
        let mut merged: Vec<Versioned<Bytes>> = Vec::new();
        for (_, _, versions) in &responses {
            for version in versions {
                resolve_siblings(&mut merged, version.clone());
            }
        }
        let _ = merged_latch.set(merged.clone());

        // During a migration's dual-write phase, shadow-read the gaining
        // node(s) and compare against the quorum-merged image
        // (observability only: `migration.shadow_reads` /
        // `migration.shadow_mismatch`; the cutover refusal decision
        // belongs to the verifier's own comparison rounds).
        self.shadow_read_probe(key, &merged);

        // Read repair: push missing versions back to stale responders.
        for (node, _, versions) in &responses {
            self.link.repair(*node, key, &merged, versions);
        }

        let mut latencies: Vec<Duration> =
            responses.iter().map(|(_, latency, _)| *latency).collect();
        latencies.sort();
        let sim_latency = latencies
            .get(required.saturating_sub(1))
            .copied()
            .unwrap_or_default();
        let stats = QuorumStats {
            sim_latency,
            contacted: report.launched,
            hedges: report.hedges,
            hedge_wins: report.hedge_wins,
        };

        let merged = match transform {
            Some(t) => merged
                .into_iter()
                .map(|v| {
                    let transformed = t.on_get(&v.value);
                    Versioned::new(v.clock, transformed)
                })
                .collect(),
            None => merged,
        };
        Ok((merged, stats))
    }

    /// During dual-write, reads the migration target's image of `key` and
    /// counts a `migration.shadow_mismatch` when it diverges from what the
    /// read quorum served.
    fn shadow_read_probe(&self, key: &[u8], merged: &[Versioned<Bytes>]) {
        let Some(m) = self.link.cluster.active_migration() else {
            return;
        };
        if !m.dual_write_active() {
            return;
        }
        let gaining = m.moved_targets(key, &self.store);
        if gaining.is_empty() {
            return;
        }
        let scope = self.link.cluster.metrics().scope("migration");
        for t in gaining {
            // Straight at the engine: a probe is not a served get.
            let probe = |node: &VoldemortNode| node.engine(&self.store.name)?.get(key);
            let Ok((_, versions)) = self.link.call(t, false, probe) else {
                continue;
            };
            let mut image: Vec<Versioned<Bytes>> = Vec::new();
            for v in versions {
                resolve_siblings(&mut image, v);
            }
            scope.counter("shadow_reads").inc();
            if !crate::migrate::image_equal(merged, &image) {
                scope.counter("shadow_mismatch").inc();
            }
        }
    }

    /// API method 2: quorum put. `clock` must be the version the caller
    /// read (or empty for a first write); the coordinator increments it and
    /// requires W replica acknowledgements. Unreachable replicas get their
    /// write parked as a hint on the next available node (sloppy quorum).
    pub fn put(
        &self,
        key: &[u8],
        clock: &VectorClock,
        value: Bytes,
    ) -> Result<VectorClock, VoldemortError> {
        self.put_internal(key, clock, value, None)
    }

    /// Convenience for a first write (empty base clock).
    pub fn put_initial(&self, key: &[u8], value: Bytes) -> Result<VectorClock, VoldemortError> {
        self.put(key, &VectorClock::new(), value)
    }

    /// API method 4: transformed put — the client ships only its (small)
    /// input; the coordinating replica derives the stored value from the
    /// version it holds under `clock`, and that stored value is what
    /// replicates, parks as a hint and feeds a migration capture, exactly
    /// like a raw put's. `clock` must be the clock of the one version the
    /// caller read (empty for a first write): a coordinator that does not
    /// hold that version — it missed writes while down, or the caller
    /// merged siblings — answers `ObsoleteVersion` rather than replicate a
    /// list derived from less than the caller saw. Resolve siblings with a
    /// raw [`StoreClient::put`].
    pub fn put_with_transform(
        &self,
        key: &[u8],
        clock: &VectorClock,
        input: Bytes,
        transform: &dyn Transform,
    ) -> Result<VectorClock, VoldemortError> {
        self.put_internal(key, clock, input, Some(transform))
    }

    fn put_internal(
        &self,
        key: &[u8],
        clock: &VectorClock,
        value: Bytes,
        transform: Option<&dyn Transform>,
    ) -> Result<VectorClock, VoldemortError> {
        let start = Instant::now();
        let result = self.put_quorum(key, clock, value, transform);
        self.metrics.put_latency.record_duration(start.elapsed());
        match &result {
            Ok(_) => self.metrics.puts_ok.inc(),
            Err(VoldemortError::InsufficientWrites { .. }) => {
                self.metrics.quorum_write_failures.inc();
            }
            Err(_) => {}
        }
        result
    }

    /// The coordinator hop: one synchronous replica put that stamps
    /// `clock` incremented by `node`. Returns the link latency, the stamped
    /// clock and the value the replica stored — the transform's output
    /// when there is one.
    fn put_coordinator(
        &self,
        node: NodeId,
        key: &[u8],
        clock: &VectorClock,
        value: &Bytes,
        transform: Option<&dyn Transform>,
    ) -> Result<(Duration, (VectorClock, Bytes)), VoldemortError> {
        self.link.call(node, true, |server| {
            let stored = match transform {
                Some(t) => {
                    // Transform exactly the version the stamped clock
                    // supersedes: the output replaces it on every replica.
                    let held = server.get(&self.store.name, key)?;
                    let base = held.iter().find(|v| v.clock == *clock);
                    if base.is_none() && !clock.is_empty() {
                        return Err(VoldemortError::ObsoleteVersion);
                    }
                    t.on_put(base.map(|v| v.value.as_ref()), value)
                }
                None => value.clone(),
            };
            let stamped = clock.incremented(node.0);
            server.put(
                &self.store.name,
                key,
                Versioned::new(stamped.clone(), stored.clone()),
            )?;
            Ok((stamped, stored))
        })
    }

    fn put_quorum(
        &self,
        key: &[u8],
        clock: &VectorClock,
        mut value: Bytes,
        transform: Option<&dyn Transform>,
    ) -> Result<VectorClock, VoldemortError> {
        self.enter()?;
        let prefs = self.preference_list(key)?;
        // Captured before the quorum runs: if a migration cutover flips
        // routing while this put is in flight, the epoch moves and the
        // committed version is re-pushed to the new preference list.
        let epoch = self.link.cluster.topology_epoch();
        let required = self.store.required_writes;
        let mut acks = 0usize;
        let mut failed_replicas: Vec<NodeId> = Vec::new();
        let mut sim_latency = Duration::ZERO;

        // Phase 1 — coordinator hop, always serial: the first replica that
        // actually accepts the write stamps the incremented vector clock,
        // as in Dynamo. Two writers racing through disjoint replica subsets
        // therefore produce *concurrent* clocks (siblings), while writers
        // sharing a replica collide on the optimistic lock. Fanning the
        // clock-stamping write out in parallel would let disjoint writers
        // mint *identical* clocks, silently losing one write — so this hop
        // stays serial in every mode.
        let mut committed_clock: Option<VectorClock> = None;
        let mut wave_start = prefs.len();
        for (i, &node) in prefs.iter().enumerate() {
            if !self.link.is_live(node) {
                failed_replicas.push(node);
                continue;
            }
            match self.put_coordinator(node, key, clock, &value, transform) {
                Ok((latency, (stamped, stored))) => {
                    sim_latency += latency;
                    value = stored;
                    committed_clock = Some(stamped);
                    acks = 1;
                    wave_start = i + 1;
                    break;
                }
                // Optimistic lock: someone committed a newer version.
                Err(VoldemortError::ObsoleteVersion) => {
                    return Err(VoldemortError::ObsoleteVersion)
                }
                // An engine-level rejection is a property of the store, not
                // of this replica — no other replica (or hint) will accept
                // it either.
                Err(e @ VoldemortError::UnsupportedOperation(_)) => return Err(e),
                Err(_) => failed_replicas.push(node),
            }
        }
        let committed = committed_clock.is_some();
        if transform.is_some() && !committed {
            // No replica ran the transform, so there is no stored value to
            // park as a hint: the raw input is not one.
            return Err(VoldemortError::InsufficientWrites { required, got: 0 });
        }
        // The version that replicates, parks as a hint and feeds a
        // migration capture; the key is copied once for all of them.
        let versioned = Versioned::new(
            committed_clock.unwrap_or_else(|| clock.incremented(prefs[0].0)),
            value,
        );
        let shared_key = Bytes::copy_from_slice(key);

        // Phase 2 — replicate the committed version to the remaining
        // preference-list replicas, in parallel, waiting only for the
        // W−1 further acks the quorum still needs. Stragglers keep running;
        // a late failure parks a hint asynchronously.
        if committed && wave_start < prefs.len() {
            let mut tasks = Vec::new();
            for &node in &prefs[wave_start..] {
                if !self.link.is_live(node) {
                    failed_replicas.push(node);
                    continue;
                }
                let (key, versioned) = (shared_key.clone(), versioned.clone());
                tasks.push(self.link.task(node, move |server, store| {
                    server.put(store, &key, versioned)
                }));
            }
            if !tasks.is_empty() {
                let late = (self.config.mode == FanOutMode::Parallel)
                    .then(|| self.late_hint_handler(&shared_key, &prefs, &versioned));
                // Replication is not optional: every replica must be
                // attempted. Inline runs the whole wave; only Parallel
                // returns at W acks and leaves the rest replicating in
                // the background.
                let wave_required = match self.config.mode {
                    FanOutMode::Parallel => required.saturating_sub(acks),
                    FanOutMode::Deterministic => tasks.len(),
                };
                let opts = FanOutOptions {
                    mode: self.config.mode,
                    required: wave_required,
                    hedge_delay: None,
                };
                let is_fatal = |e: &VoldemortError| {
                    matches!(
                        e,
                        VoldemortError::ObsoleteVersion
                            | VoldemortError::UnsupportedOperation(_)
                    )
                };
                let report = fan_out(
                    self.pool(),
                    &opts,
                    tasks,
                    Vec::new(),
                    Some(&is_fatal),
                    late,
                );
                if let Some((_, e)) = report.fatal {
                    return Err(e);
                }
                let mut wave_latencies: Vec<Duration> = Vec::new();
                for (_, (latency, ())) in report.successes() {
                    acks += 1;
                    wave_latencies.push(*latency);
                    self.metrics.replica_latency.record(latency.as_nanos() as u64);
                }
                for (node, _) in &report.failures {
                    failed_replicas.push(NodeId(*node as u16));
                }
                wave_latencies.sort();
                sim_latency += opts
                    .required
                    .checked_sub(1)
                    .and_then(|i| wave_latencies.get(i))
                    .copied()
                    .unwrap_or_default();
            }
        }
        self.metrics
            .put_sim_latency
            .record(sim_latency.as_nanos() as u64);

        // Hinted handoff (sloppy quorum): each failed replica's write parks
        // on the next holder that accepts it. The failed replicas share one
        // walk over the holders, so W acks are W distinct nodes.
        if acks < required && !failed_replicas.is_empty() {
            let mut holders = self.link.hint_holders(&prefs);
            for &target in &failed_replicas {
                if acks >= required
                    || !self.link.park_hint(&mut holders, target, &shared_key, &versioned)
                {
                    break;
                }
                acks += 1;
                self.metrics.hinted_writes.inc();
            }
        }

        if acks < required {
            return Err(VoldemortError::InsufficientWrites {
                required,
                got: acks,
            });
        }

        // The write is acked: this is the zero-loss capture point for an
        // in-flight partition migration.
        self.link
            .cluster
            .on_acked(&self.store, key, self.link.origin, || JournaledWrite::Put {
                store: self.store.name.clone(),
                key: shared_key.clone(),
                value: versioned.clone(),
            });
        self.heal_routing_drift(&shared_key, &prefs, &versioned, epoch);
        Ok(versioned.clock)
    }

    /// If the topology changed while this put was in flight (a cutover
    /// flip raced the quorum), the acked version may live only on the old
    /// replica set. Re-route and push the committed version to any node
    /// that just became a replica, so a flip cannot orphan an acked write.
    /// Unreachable new replicas get the write parked as a hint —
    /// `deliver_hints` routes via the current ring, so it lands there.
    fn heal_routing_drift(
        &self,
        key: &Bytes,
        prefs: &[NodeId],
        versioned: &Versioned<Bytes>,
        epoch_before: u64,
    ) {
        if self.link.cluster.topology_epoch() == epoch_before {
            return;
        }
        let Ok(now_prefs) = self.preference_list(key) else {
            return;
        };
        for node in now_prefs.iter().copied().filter(|n| !prefs.contains(n)) {
            let push = |server: &VoldemortNode| {
                server.force_put(&self.store.name, key, versioned.clone())
            };
            if self.link.call(node, false, push).is_ok() {
                continue;
            }
            let mut holders = self.link.hint_holders(&now_prefs);
            if self.link.park_hint(&mut holders, node, key, versioned) {
                self.metrics.hinted_writes.inc();
            }
        }
    }

    /// Builds the background hinted-handoff handler for put stragglers
    /// that fail after the quorum already returned.
    fn late_hint_handler(
        &self,
        key: &Bytes,
        prefs: &[NodeId],
        versioned: &Versioned<Bytes>,
    ) -> LateReplyHandler<()> {
        let link = Arc::clone(&self.link);
        let (key, prefs, versioned) = (key.clone(), prefs.to_vec(), versioned.clone());
        let hinted = self.metrics.hinted_writes.clone();
        Arc::new(move |node, outcome| {
            let target = NodeId(node as u16);
            if outcome.is_err()
                && link.park_hint(&mut link.hint_holders(&prefs), target, &key, &versioned)
            {
                hinted.inc();
            }
        })
    }

    /// Quorum delete at version `clock`. All N replicas are contacted; the
    /// call completes at W acknowledgements.
    pub fn delete(&self, key: &[u8], clock: &VectorClock) -> Result<bool, VoldemortError> {
        self.enter()?;
        let prefs = self.preference_list(key)?;
        let epoch = self.link.cluster.topology_epoch();
        let required = self.store.required_writes;
        // Banned replicas are contacted like any other: a delete parks no
        // hint, so a replica it skipped would keep the value for read
        // repair to bring back.
        let shared_key = Bytes::copy_from_slice(key);
        let mut tasks = Vec::new();
        for &node in &prefs {
            if self.link.cluster.node(node).is_err() {
                continue;
            }
            let (key, clock) = (shared_key.clone(), clock.clone());
            tasks.push(self.link.task(node, move |server, store| {
                server.delete(store, &key, &clock)
            }));
        }
        let opts = FanOutOptions {
            mode: self.config.mode,
            required,
            hedge_delay: None,
        };
        let report = fan_out(self.pool(), &opts, tasks, Vec::new(), None, None);
        let acks = report.quorum.len() + report.extras.len();
        if acks < required {
            return Err(VoldemortError::InsufficientWrites {
                required,
                got: acks,
            });
        }
        let any_deleted = report.successes().any(|(_, (_, deleted))| *deleted);
        // Acked-delete capture for an in-flight migration, plus the same
        // cutover-race heal as puts (replay the delete on any replica the
        // key just gained).
        self.link
            .cluster
            .on_acked(&self.store, key, self.link.origin, || {
                JournaledWrite::Delete {
                    store: self.store.name.clone(),
                    key: shared_key,
                    clock: clock.clone(),
                }
            });
        if self.link.cluster.topology_epoch() != epoch {
            if let Ok(now_prefs) = self.preference_list(key) {
                for node in now_prefs.into_iter().filter(|n| !prefs.contains(n)) {
                    let _ = self.link.call(node, false, |server| {
                        server.delete(&self.store.name, key, clock)
                    });
                }
            }
        }
        Ok(any_deleted)
    }

    /// API method 5: `applyUpdate` — encapsulated read-modify-write with
    /// optimistic-lock retry, "used in cases like counters where
    /// 'read, modify, write if no change' loops are required."
    pub fn apply_update(
        &self,
        key: &[u8],
        retries: u32,
        action: UpdateAction<'_>,
    ) -> Result<VectorClock, VoldemortError> {
        for _ in 0..=retries {
            let siblings = self.get(key)?;
            let Some(new_value) = action(&siblings) else {
                // Action chose to abort; report the current clock.
                return Ok(siblings
                    .first()
                    .map(|v| v.clock.clone())
                    .unwrap_or_default());
            };
            // Base clock dominates all observed siblings, so a successful
            // put also reconciles any conflict.
            let base = siblings
                .iter()
                .fold(VectorClock::new(), |acc, v| acc.merged(&v.clock));
            match self.put(key, &base, new_value) {
                Ok(clock) => return Ok(clock),
                Err(VoldemortError::ObsoleteVersion) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(VoldemortError::RetriesExhausted(retries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreDef;

    fn cluster_with_store(
        nodes: u16,
        n: usize,
        r: usize,
        w: usize,
    ) -> (Arc<VoldemortCluster>, StoreClient) {
        let cluster = VoldemortCluster::new(32, nodes).unwrap();
        cluster
            .add_store(StoreDef::read_write("s").with_quorum(n, r, w))
            .unwrap();
        let client = cluster.client("s").unwrap();
        (cluster, client)
    }

    #[test]
    fn put_get_round_trip() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        let clock = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        let got = client.get(b"k").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"v1");
        assert_eq!(got[0].clock, clock);
    }

    #[test]
    fn get_absent_key_is_empty() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        assert!(client.get(b"missing").unwrap().is_empty());
    }

    #[test]
    fn stale_put_gets_obsolete_version_error() {
        let (_cluster, client) = cluster_with_store(3, 2, 2, 2);
        let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        let _c2 = client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
        // Re-using the stale clock c0 (empty) fails the optimistic lock.
        let err = client
            .put(b"k", &VectorClock::new(), Bytes::from_static(b"v3"))
            .unwrap_err();
        assert_eq!(err, VoldemortError::ObsoleteVersion);
    }

    #[test]
    fn writes_replicate_to_n_nodes() {
        let (cluster, client) = cluster_with_store(4, 3, 2, 2);
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 3).unwrap();
        for node in prefs {
            let versions = cluster.node(node).unwrap().get("s", b"k").unwrap();
            assert_eq!(versions.len(), 1, "replica {node} missing value");
        }
    }

    #[test]
    fn delete_removes_value() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        let clock = client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        assert!(client.delete(b"k", &clock).unwrap());
        assert!(client.get(b"k").unwrap().is_empty());
    }

    struct ListAppend;
    impl Transform for ListAppend {
        fn on_get(&self, value: &[u8]) -> Bytes {
            // Return only the last element of a comma-separated list —
            // the "sub-list" example from the paper.
            let s = std::str::from_utf8(value).unwrap_or("");
            Bytes::copy_from_slice(s.rsplit(',').next().unwrap_or("").as_bytes())
        }
        fn on_put(&self, current: Option<&[u8]>, input: &[u8]) -> Bytes {
            match current {
                Some(existing) if !existing.is_empty() => {
                    let mut out = existing.to_vec();
                    out.push(b',');
                    out.extend_from_slice(input);
                    Bytes::from(out)
                }
                _ => Bytes::copy_from_slice(input),
            }
        }
    }

    #[test]
    fn transforms_run_server_side() {
        let (_cluster, client) = cluster_with_store(3, 2, 2, 2);
        let c1 = client
            .put_with_transform(b"follows", &VectorClock::new(), Bytes::from_static(b"li"), &ListAppend)
            .unwrap();
        let c2 = client
            .put_with_transform(b"follows", &c1, Bytes::from_static(b"msft"), &ListAppend)
            .unwrap();
        let full = client.get(b"follows").unwrap();
        assert_eq!(full[0].value.as_ref(), b"li,msft");
        let tail = client.get_with_transform(b"follows", &ListAppend).unwrap();
        assert_eq!(tail[0].value.as_ref(), b"msft");
        let _ = c2;
    }

    #[test]
    fn apply_update_implements_counters() {
        let (_cluster, client) = cluster_with_store(3, 3, 2, 2);
        for _ in 0..10 {
            client
                .apply_update(b"counter", 3, &|siblings| {
                    let current: u64 = siblings
                        .first()
                        .and_then(|v| std::str::from_utf8(&v.value).ok())
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    Some(Bytes::from((current + 1).to_string()))
                })
                .unwrap();
        }
        let got = client.get(b"counter").unwrap();
        assert_eq!(got[0].value.as_ref(), b"10");
    }

    #[test]
    fn apply_update_abort_leaves_value() {
        let (_cluster, client) = cluster_with_store(3, 2, 1, 1);
        client.put_initial(b"k", Bytes::from_static(b"keep")).unwrap();
        client
            .apply_update(b"k", 3, &|_siblings| None)
            .unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"keep");
    }

    #[test]
    fn server_side_routing_same_semantics_extra_hop() {
        let (cluster, _direct) = cluster_with_store(3, 2, 2, 2);
        let coordinator = NodeId(0);
        let client = cluster.client("s").unwrap().with_server_routing(coordinator);
        let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"v1");
        client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
        assert_eq!(client.get(b"k").unwrap()[0].value.as_ref(), b"v2");
        // The coordinator is a single point for this client: losing it
        // fails requests (client-side routing would route around it).
        cluster.network().crash(coordinator);
        assert!(matches!(
            client.get(b"k"),
            Err(VoldemortError::Net(node, _)) if node == coordinator
        ));
        let direct = cluster.client("s").unwrap();
        assert!(direct.get(b"k").is_ok(), "client-side routing unaffected");
    }

    #[test]
    fn quorum_read_fails_when_too_many_replicas_down() {
        let (cluster, client) = cluster_with_store(3, 3, 2, 2);
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 3).unwrap();
        cluster.network().crash(prefs[0]);
        cluster.network().crash(prefs[1]);
        let err = client.get(b"k").unwrap_err();
        assert!(matches!(err, VoldemortError::InsufficientReads { .. }));
    }

    #[test]
    fn read_repair_fixes_stale_replica() {
        let (cluster, client) = cluster_with_store(3, 2, 2, 1);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 2).unwrap();
        // Write v1 everywhere, then v2 while replica 1 is down.
        let c1 = client.put_initial(b"k", Bytes::from_static(b"v1")).unwrap();
        cluster.network().crash(prefs[1]);
        let c2 = client.put(b"k", &c1, Bytes::from_static(b"v2")).unwrap();
        cluster.network().restart(prefs[1]);
        // Replica 1 is stale.
        let stale = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
        assert_eq!(stale[0].clock, c1);
        // Quorum read (R=2) observes both, returns v2, and repairs.
        let got = client.get(b"k").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"v2");
        let repaired = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
        assert_eq!(repaired.len(), 1);
        assert_eq!(repaired[0].clock, c2, "read repair wrote v2 back");
    }

    #[test]
    fn hinted_handoff_parks_and_replays() {
        let (cluster, client) = cluster_with_store(4, 2, 1, 2);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 2).unwrap();
        cluster.network().crash(prefs[1]);
        // W=2 met via 1 live replica + 1 hint on a fallback node.
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(cluster.pending_hints(), 1);
        // Target recovers; replay drains the hint onto it.
        cluster.network().restart(prefs[1]);
        assert_eq!(cluster.deliver_hints(), 1);
        assert_eq!(cluster.pending_hints(), 0);
        let recovered = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].value.as_ref(), b"v");
    }

    #[test]
    fn hinted_handoff_of_a_transformed_put_parks_the_stored_value() {
        let (cluster, client) = cluster_with_store(4, 2, 1, 2);
        let prefs = cluster.ring().preference_list(b"follows", 2).unwrap();
        let c1 = client
            .put_with_transform(b"follows", &VectorClock::new(), Bytes::from_static(b"li"), &ListAppend)
            .unwrap();
        cluster.network().crash(prefs[1]);
        // W=2 met via the coordinator + 1 hint: the hint must carry the
        // list the coordinator stored, not the two-byte input.
        client
            .put_with_transform(b"follows", &c1, Bytes::from_static(b"msft"), &ListAppend)
            .unwrap();
        assert_eq!(cluster.pending_hints(), 1);
        cluster.network().restart(prefs[1]);
        assert_eq!(cluster.deliver_hints(), 1);
        let recovered = cluster.node(prefs[1]).unwrap().get("s", b"follows").unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].value.as_ref(), b"li,msft");
    }

    #[test]
    fn transformed_put_with_no_live_replica_parks_nothing() {
        let (cluster, client) = cluster_with_store(4, 2, 1, 1);
        for node in cluster.ring().preference_list(b"follows", 2).unwrap() {
            cluster.network().crash(node);
        }
        let err = client
            .put_with_transform(b"follows", &VectorClock::new(), Bytes::from_static(b"li"), &ListAppend)
            .unwrap_err();
        assert_eq!(err, VoldemortError::InsufficientWrites { required: 1, got: 0 });
        assert_eq!(cluster.pending_hints(), 0);
    }

    #[test]
    fn stale_coordinator_refuses_a_transformed_put() {
        // N=2, R=1, W=1: an append while prefs[0] is down reaches prefs[1]
        // only, and W is met without a hint.
        let (cluster, client) = cluster_with_store(4, 2, 1, 1);
        let prefs = cluster.ring().preference_list(b"follows", 2).unwrap();
        let c1 = client
            .put_with_transform(b"follows", &VectorClock::new(), Bytes::from_static(b"li"), &ListAppend)
            .unwrap();
        cluster.network().crash(prefs[0]);
        let c2 = client
            .put_with_transform(b"follows", &c1, Bytes::from_static(b"msft"), &ListAppend)
            .unwrap();
        cluster.network().restart(prefs[0]);
        // prefs[0] coordinates again but still holds "li": appending to that
        // under a clock above c2 would erase "msft" from the healthy replica.
        let err = client
            .put_with_transform(b"follows", &c2, Bytes::from_static(b"goog"), &ListAppend)
            .unwrap_err();
        assert_eq!(err, VoldemortError::ObsoleteVersion);
        let healthy = cluster.node(prefs[1]).unwrap().get("s", b"follows").unwrap();
        assert_eq!(healthy[0].value.as_ref(), b"li,msft");
        // From the version prefs[0] does hold, the append lands as a
        // sibling beside the healthy replica's list: nothing is lost.
        client
            .put_with_transform(b"follows", &c1, Bytes::from_static(b"goog"), &ListAppend)
            .unwrap();
        let mut lists: Vec<_> = cluster
            .node(prefs[1])
            .unwrap()
            .get("s", b"follows")
            .unwrap()
            .into_iter()
            .map(|v| v.value)
            .collect();
        lists.sort();
        assert_eq!(lists, [&b"li,goog"[..], &b"li,msft"[..]]);
    }

    /// The nodes outside `prefs`, in id order: where hints for it park.
    fn non_replicas(cluster: &VoldemortCluster, prefs: &[NodeId]) -> Vec<NodeId> {
        let mut nodes = cluster.node_ids();
        nodes.retain(|n| !prefs.contains(n));
        nodes
    }

    #[test]
    fn sloppy_quorum_walks_past_an_unreachable_fallback() {
        let (cluster, client) = cluster_with_store(4, 2, 1, 2);
        let prefs = cluster.ring().preference_list(b"k", 2).unwrap();
        let fallbacks = non_replicas(&cluster, &prefs);
        cluster.network().crash(prefs[1]);
        cluster.network().crash(fallbacks[0]);
        // W=2 is one live replica plus one hint: the first fallback being
        // down must not cost the write while a second one is healthy.
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(cluster.node(fallbacks[0]).unwrap().hint_count(), 0);
        assert_eq!(cluster.node(fallbacks[1]).unwrap().hint_count(), 1);
    }

    /// Tops `node`'s detector window up with `failures` failure samples.
    fn add_failures(cluster: &VoldemortCluster, node: NodeId, failures: u64) {
        for _ in 0..failures {
            cluster.detector().record_failure(node);
        }
    }

    #[test]
    fn late_hint_walks_past_an_unreachable_holder_and_tells_the_detector() {
        let (cluster, client) = cluster_with_store(5, 3, 1, 2);
        let client = client.with_quorum_config(QuorumConfig {
            mode: FanOutMode::Parallel,
            per_node_timeout: Some(Duration::from_millis(100)),
            simulate_latency: true,
            ..QuorumConfig::default()
        });
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        let holders = non_replicas(&cluster, &prefs);
        // prefs[2] times out long after prefs[0] and prefs[1] made W=2, so
        // its hint is placed by the late-straggler handler.
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[2],
            Duration::from_millis(400),
        );
        cluster.network().crash(holders[0]);
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        cluster.fan_out_pool().wait_idle();
        assert_eq!(cluster.node(holders[1]).unwrap().hint_count(), 1);
        // The failed delivery to holders[0] is one failure sample: nine
        // more reach the detector's ten-sample minimum and ban it.
        add_failures(&cluster, holders[0], 9);
        assert!(!cluster.detector().is_available(holders[0]));
    }

    #[test]
    fn replica_link_call_feeds_the_detector_on_every_outcome() {
        let (cluster, client) = cluster_with_store(4, 2, 1, 1);
        let client = client.with_quorum_config(QuorumConfig {
            per_node_timeout: Some(Duration::from_millis(5)),
            ..QuorumConfig::default()
        });
        let (link, detector) = (&client.link, cluster.detector());
        let (down, slow, stale) = (NodeId(0), NodeId(1), NodeId(2));
        cluster.network().crash(down);
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            slow,
            Duration::from_millis(50),
        );
        // The detector decides at ten samples, below a 0.8 success ratio.
        for _ in 0..10 {
            assert!(detector.is_available(down));
            let unreachable = link.call(down, false, |_| Ok(()));
            assert!(matches!(unreachable, Err(VoldemortError::Net(node, _)) if node == down));
        }
        assert!(!detector.is_available(down), "ten Net failures sampled");
        // Past the deadline an untimed call goes through (and is a success
        // sample); a timed one is a Timeout and a failure sample.
        for _ in 0..10 {
            assert!(link.call(slow, false, |_| Ok(())).is_ok());
        }
        for _ in 0..3 {
            assert!(detector.is_available(slow));
            assert_eq!(link.call(slow, true, |_| Ok(())), Err(VoldemortError::Timeout(slow)));
        }
        assert!(!detector.is_available(slow), "10 of 13 samples succeeded");
        // An application-level rejection is a success sample: eight of them
        // keep two failures at the 0.8 ratio, a third failure tips it.
        for _ in 0..8 {
            let rejected = link.call(stale, true, |_| Err::<(), _>(VoldemortError::ObsoleteVersion));
            assert_eq!(rejected, Err(VoldemortError::ObsoleteVersion));
        }
        add_failures(&cluster, stale, 2);
        assert!(detector.is_available(stale));
        add_failures(&cluster, stale, 1);
        assert!(!detector.is_available(stale), "the eight rejections were samples");
    }

    #[test]
    fn write_quorum_fails_when_no_fallbacks() {
        // 2 nodes, N=2: no fallback nodes exist outside the preference list.
        let (cluster, client) = cluster_with_store(2, 2, 1, 2);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 2).unwrap();
        cluster.network().crash(prefs[1]);
        let err = client.put_initial(b"k", Bytes::from_static(b"v")).unwrap_err();
        assert!(matches!(err, VoldemortError::InsufficientWrites { got: 1, .. }));
    }

    #[test]
    fn concurrent_writers_produce_siblings_resolved_by_update() {
        let (cluster, client) = cluster_with_store(4, 3, 3, 1);
        let ring = cluster.ring();
        let prefs = ring.preference_list(b"k", 3).unwrap();
        // Writer A reaches only replica 0; writer B only replica 1
        // (simulated by crashing the others during each write; W=1).
        let c0 = client.put_initial(b"k", Bytes::from_static(b"base")).unwrap();
        cluster.network().crash(prefs[1]);
        cluster.network().crash(prefs[2]);
        let _a = client.put(b"k", &c0, Bytes::from_static(b"A")).unwrap();
        cluster.network().restart(prefs[1]);
        cluster.network().restart(prefs[2]);
        cluster.network().crash(prefs[0]);
        let _b = client.put(b"k", &c0, Bytes::from_static(b"B")).unwrap();
        cluster.network().restart(prefs[0]);
        // R=3 read sees both branches as concurrent siblings...
        let siblings = client.get(b"k").unwrap();
        assert_eq!(siblings.len(), 2, "expected divergent branches");
        // ...which apply_update reconciles (deterministically: max value).
        client
            .apply_update(b"k", 3, &|siblings| {
                let winner = siblings
                    .iter()
                    .map(|v| v.value.clone())
                    .max()
                    .unwrap_or_default();
                Some(winner)
            })
            .unwrap();
        let resolved = client.get(b"k").unwrap();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].value.as_ref(), b"B");
    }

    #[test]
    fn read_fan_out_all_masks_a_slow_replica() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
            read_fan_out: ReadFanOut::All,
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        // Make the *first* preference slow: serial/quorum fan-out would eat
        // its full latency; fanning to all N completes at the R=2 fastest.
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[0],
            Duration::from_millis(40),
        );
        let (versions, stats) = client.get_with_stats(b"k").unwrap();
        assert_eq!(versions[0].value.as_ref(), b"v");
        assert_eq!(stats.contacted, 3, "all N contacted");
        assert_eq!(
            stats.sim_latency,
            Duration::ZERO,
            "R-th fastest replica bounds the accounted latency"
        );
    }

    #[test]
    fn per_node_timeout_feeds_failure_detector() {
        let (cluster, client) = cluster_with_store(4, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
            read_fan_out: ReadFanOut::All,
            per_node_timeout: Some(Duration::from_millis(5)),
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[2],
            Duration::from_millis(50),
        );
        // Reads keep succeeding (quorum from the two fast replicas) while
        // every timeout counts against the slow node's success ratio...
        for _ in 0..20 {
            client.get(b"k").unwrap();
        }
        // ...until the detector bans it like a dead node.
        assert!(!cluster.detector().is_available(prefs[2]));
        assert!(cluster.detector().is_available(prefs[0]));
    }

    #[test]
    fn parallel_mode_serves_quorum_reads_and_writes() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
            mode: FanOutMode::Parallel,
            read_fan_out: ReadFanOut::All,
            ..QuorumConfig::default()
        });
        let mut clock = VectorClock::new();
        for i in 0..20u32 {
            clock = client
                .put(b"k", &clock, Bytes::from(i.to_string()))
                .unwrap();
            let got = client.get(b"k").unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].value.as_ref(), i.to_string().as_bytes());
        }
        // Stragglers (N−W late acks per put) finish on the shared pool.
        cluster.fan_out_pool().wait_idle();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        for node in prefs {
            let versions = cluster.node(node).unwrap().get("s", b"k").unwrap();
            assert_eq!(versions.len(), 1, "replica {node} converged");
        }
    }

    #[test]
    fn hedged_read_recovers_tail_latency_and_counts() {
        let (cluster, client) = cluster_with_store(5, 3, 1, 1);
        let client = client.with_quorum_config(QuorumConfig {
            mode: FanOutMode::Parallel,
            read_fan_out: ReadFanOut::Quorum,
            hedge: Some(HedgeConfig {
                quantile: 0.95,
                min_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(2),
            }),
            simulate_latency: true,
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        // R=1 with Quorum fan-out contacts only prefs[0] — make it slow so
        // the hedge to prefs[1] wins the race.
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[0],
            Duration::from_millis(250),
        );
        let start = Instant::now();
        let (versions, stats) = client.get_with_stats(b"k").unwrap();
        let elapsed = start.elapsed();
        assert_eq!(versions[0].value.as_ref(), b"v");
        assert_eq!(stats.hedges, 1, "hedge fired");
        assert_eq!(stats.hedge_wins, 1, "hedge supplied the quorum answer");
        assert!(
            elapsed < Duration::from_millis(200),
            "hedged read returned before the slow replica ({elapsed:?})"
        );
        let snapshot = cluster.metrics().snapshot();
        assert_eq!(snapshot.counter("voldemort.client.get.hedged"), Some(1));
        assert_eq!(snapshot.counter("voldemort.client.get.hedge_won"), Some(1));
        cluster.fan_out_pool().wait_idle();
    }
}
