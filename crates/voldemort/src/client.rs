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
//! # Quorums on simulated time
//!
//! A quorum completes at the R (or W) fastest replicas, as in the paper:
//! a slow replica is masked by the quorum instead of adding its latency
//! to every request. The client computes that race rather than running
//! it. Every replica call of a wave runs inline on the calling thread, in
//! preference order, and each reply carries its simulated completion time
//! (the link latency from [`li_commons::sim::SimNetwork`], offset by when
//! the call started). The R earliest successes form the quorum, and the
//! R-th of them is the request's [`QuorumStats::sim_latency`]. A get
//! reply that completes later is a straggler and is read-repaired like
//! the quorum. A put owes every preference-list replica that did not ack
//! it one hinted handoff, whenever its failure completed. A failure pulls
//! in the next replica as a backup, started when the failure completed,
//! and a hedged read
//! ([`QuorumConfig::hedge`]) starts one backup at its delay if the quorum
//! is still unmet by then. Because nothing sleeps and nothing runs on
//! another thread, a run is a pure function of its inputs and the
//! network's seed, which is what the chaos harness replays.

use bytes::Bytes;
use li_commons::clock::{resolve_siblings, VectorClock, Versioned};
use li_commons::metrics::{Counter, Histo};
use li_commons::ring::NodeId;
use std::sync::Arc;
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

/// Hedged-read tuning: if the quorum is still unmet at a simulated delay
/// derived from the observed replica latency distribution, one backup
/// request goes to the next untried replica, started at that delay.
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

/// Per-client quorum I/O tuning. The default — quorum-sized read fan-out,
/// no deadlines, no hedging — contacts exactly the replicas the quorum
/// needs.
#[derive(Debug, Clone, Default)]
pub struct QuorumConfig {
    /// Read fan-out width: the quorum's R, or all N replicas.
    pub read_fan_out: ReadFanOut,
    /// Per-node deadline: a replica whose simulated latency exceeds this
    /// counts as failed (`VoldemortError::Timeout`, completing at the
    /// deadline) and is reported to the failure detector, so persistently
    /// slow nodes get banned and backed off exactly like dead ones.
    pub per_node_timeout: Option<Duration>,
    /// Hedged-read tuning (see [`HedgeConfig`]).
    pub hedge: Option<HedgeConfig>,
}

/// What one quorum operation observed — the accounting the chaos harness
/// checks its R-th-fastest-replica bound against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuorumStats {
    /// Simulated completion latency: when the R-th earliest success
    /// completed.
    pub sim_latency: Duration,
    /// Replica requests launched (primaries + backups + hedges).
    pub contacted: usize,
    /// Hedge requests launched.
    pub hedges: usize,
    /// Hedge requests whose reply was among the R earliest successes.
    pub hedge_wins: usize,
}

/// Client-side observability under the cluster registry's
/// `voldemort.client.` prefix: end-to-end latency per API call, quorum
/// outcomes, hints parked and hints that found no holder, and the
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
    hints_unplaced: Counter,
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
            hints_unplaced: scope.counter("put.hint_unplaced"),
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
/// [`StoreClient::with_quorum_config`] are the only writers).
struct ReplicaLink {
    cluster: Arc<VoldemortCluster>,
    store: String,
    /// The node replica traffic originates from: the client itself, or the
    /// coordinator under server-side routing.
    origin: NodeId,
    per_node_timeout: Option<Duration>,
}

/// One replica's reply on a quorum wave's simulated timeline.
struct Reply<T> {
    node: NodeId,
    /// When the reply completed, measured from the start of the wave.
    done: Duration,
    /// Whether this was the wave's hedge request.
    hedge: bool,
    /// The link latency with the op's value, or the failure.
    outcome: Result<(Duration, T), VoldemortError>,
}

/// What one quorum wave observed.
struct Wave<T> {
    /// Every launched call's reply, in launch order — which is preference
    /// order, since backups are launched in the order they were passed.
    replies: Vec<Reply<T>>,
    /// When the `required`-th earliest success completed: the wave's
    /// simulated critical path. `None` when fewer replies succeeded.
    quorum_at: Option<Duration>,
    /// Whether the hedge's reply was among the `required` earliest
    /// successes.
    hedge_won: bool,
}

/// An application-level rejection: a property of the store or of the
/// version being written, not of the replica, so no other replica would
/// answer differently and the wave stops.
fn is_fatal(e: &VoldemortError) -> bool {
    matches!(
        e,
        VoldemortError::ObsoleteVersion | VoldemortError::UnsupportedOperation(_)
    )
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
    /// deadline. Repairs, hints, heals and shadow probes are untimed.
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
        if timed && self.per_node_timeout.is_some_and(|deadline| latency > deadline) {
            // The caller gives up at the deadline and the slow node is
            // penalized like a dead one, so the detector's ban/backoff
            // covers chronic stragglers too.
            detector.record_failure(node);
            return Err(VoldemortError::Timeout(node));
        }
        let result = op(&server);
        // An application-level rejection (e.g. ObsoleteVersion) is a
        // *successful* interaction for liveness purposes.
        detector.record_success(node);
        result.map(|value| (latency, value))
    }

    /// Runs `op` (handed the store name) on replicas as one quorum wave on
    /// simulated time. Every call is a timed [`Self::call`] made inline, so
    /// the network's RNG is consumed in an order fixed by the inputs.
    ///
    /// `primary` all start at 0. A failure that completes before
    /// `required` successes have pulls in the next of `backups`, started
    /// when the failure completed: a `Net` error completes at 0 and a
    /// `Timeout` at the deadline. With a `hedge` delay, one backup starts
    /// at that delay if the quorum is still unmet by then. A fatal reply
    /// ([`is_fatal`]) stops the wave.
    fn wave<T>(
        &self,
        primary: &[NodeId],
        backups: &[NodeId],
        required: usize,
        hedge: Option<Duration>,
        op: impl Fn(&VoldemortNode, &str) -> Result<T, VoldemortError>,
    ) -> Wave<T> {
        let reply = |node: NodeId, start: Duration, hedge: bool| {
            let outcome = self.call(node, true, |server| op(server, &self.store));
            let took = match &outcome {
                Ok((latency, _)) => *latency,
                Err(VoldemortError::Timeout(_)) => self.per_node_timeout.unwrap_or_default(),
                Err(_) => Duration::ZERO,
            };
            Reply {
                node,
                done: start + took,
                hedge,
                outcome,
            }
        };
        let stopped = |replies: &[Reply<T>]| {
            replies
                .last()
                .is_some_and(|last| last.outcome.as_ref().is_err_and(is_fatal))
        };
        let mut replies: Vec<Reply<T>> = Vec::new();
        for &node in primary {
            if stopped(&replies) {
                break;
            }
            replies.push(reply(node, Duration::ZERO, false));
        }

        // Failures and the hedge are events on the timeline, taken in time
        // order; each one that finds the quorum unmet launches the next
        // backup. A backup completes no earlier than the event that
        // launched it, so the failures already handled stay the earliest.
        let mut backups = backups.iter().copied();
        let mut hedge_at = hedge;
        let mut handled = 0;
        while !stopped(&replies) {
            let mut failures: Vec<(Duration, usize)> = replies
                .iter()
                .enumerate()
                .filter(|(_, reply)| reply.outcome.is_err())
                .map(|(i, reply)| (reply.done, i))
                .collect();
            failures.sort_unstable();
            let (at, is_hedge) = match (failures.get(handled), hedge_at) {
                (Some(&(failed, _)), Some(h)) if h < failed => (h, true),
                (Some(&(failed, _)), _) => (failed, false),
                (None, Some(h)) => (h, true),
                (None, None) => break,
            };
            if is_hedge {
                hedge_at = None;
            } else {
                handled += 1;
            }
            let met = replies
                .iter()
                .filter(|reply| reply.outcome.is_ok() && reply.done <= at)
                .count()
                >= required;
            if met {
                break;
            }
            let Some(node) = backups.next() else { break };
            replies.push(reply(node, at, is_hedge));
        }

        // The quorum is the `required` earliest successes; launch order
        // breaks ties.
        let mut ranked: Vec<&Reply<T>> = replies.iter().filter(|r| r.outcome.is_ok()).collect();
        ranked.sort_by_key(|reply| reply.done);
        let quorum_at = match required {
            0 => Some(Duration::ZERO),
            n => ranked.get(n - 1).map(|reply| reply.done),
        };
        let hedge_won = ranked.iter().take(required).any(|reply| reply.hedge);
        Wave {
            replies,
            quorum_at,
            hedge_won,
        }
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
}

/// A client bound to one store.
pub struct StoreClient {
    store: StoreDef,
    routing: RoutingMode,
    config: QuorumConfig,
    metrics: ClientMetrics,
    link: ReplicaLink,
}

impl StoreClient {
    /// Virtual node id the client occupies on the simulated network.
    pub const CLIENT_NODE: NodeId = NodeId(u16::MAX);

    pub(crate) fn new(cluster: Arc<VoldemortCluster>, store: StoreDef) -> Self {
        let metrics = ClientMetrics::new(&cluster);
        let config = QuorumConfig::default();
        let link = ReplicaLink {
            cluster,
            store: store.name.clone(),
            origin: Self::CLIENT_NODE,
            per_node_timeout: config.per_node_timeout,
        };
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
        self.link.origin = coordinator;
        self
    }

    /// Replaces the quorum I/O configuration (read width, per-node
    /// deadline, hedging).
    #[must_use]
    pub fn with_quorum_config(mut self, config: QuorumConfig) -> Self {
        self.link.per_node_timeout = config.per_node_timeout;
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

    /// The live preference-list nodes, in preference order.
    fn available_replicas(&self, prefs: &[NodeId]) -> Vec<NodeId> {
        prefs
            .iter()
            .copied()
            .filter(|&n| self.link.is_live(n))
            .collect()
    }

    /// The hedge delay for this moment, derived from the replica-latency
    /// histogram (hedging configured only).
    fn hedge_delay(&self) -> Option<Duration> {
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
        let (primary, backups) = available.split_at(width);
        let hedge = self.hedge_delay().filter(|_| !backups.is_empty());
        let wave = self
            .link
            .wave(primary, backups, required, hedge, |server, store| {
                server.get(store, key)
            });
        let hedges = wave.replies.iter().filter(|reply| reply.hedge).count();
        self.metrics.hedged.add(hedges as u64);
        self.metrics.hedge_won.add(u64::from(wave.hedge_won));
        let contacted = wave.replies.len();
        // Every responder counts, stragglers too: they are merged and
        // read-repaired like the quorum. Replies are in preference order.
        let responses: Vec<(NodeId, Vec<Versioned<Bytes>>)> = wave
            .replies
            .into_iter()
            .filter_map(|reply| {
                let (latency, versions) = reply.outcome.ok()?;
                self.metrics
                    .replica_latency
                    .record(latency.as_nanos() as u64);
                Some((reply.node, versions))
            })
            .collect();
        let Some(sim_latency) = wave.quorum_at else {
            return Err(VoldemortError::InsufficientReads {
                required,
                got: responses.len(),
            });
        };

        // Merge all observed versions into the live sibling set.
        let mut merged: Vec<Versioned<Bytes>> = Vec::new();
        for (_, versions) in &responses {
            for version in versions {
                resolve_siblings(&mut merged, version.clone());
            }
        }

        // During a migration's dual-write phase, shadow-read the gaining
        // node(s) and compare against the quorum-merged image
        // (observability only: `migration.shadow_reads` /
        // `migration.shadow_mismatch`; the cutover refusal decision
        // belongs to the verifier's own comparison rounds).
        self.shadow_read_probe(key, &merged);

        // Read repair: push missing versions back to stale responders.
        for (node, versions) in &responses {
            self.link.repair(*node, key, &merged, versions);
        }

        let stats = QuorumStats {
            sim_latency,
            contacted,
            hedges,
            hedge_wins: usize::from(wave.hedge_won),
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
        // The replicas that did not ack the committed version: skipped,
        // failed at the coordinator hop, or failed in the wave.
        let mut owed: Vec<NodeId> = Vec::new();
        let mut sim_latency = Duration::ZERO;

        // Phase 1 — coordinator hop, always serial: the first replica that
        // actually accepts the write stamps the incremented vector clock,
        // as in Dynamo. Two writers racing through disjoint replica subsets
        // therefore produce *concurrent* clocks (siblings), while writers
        // sharing a replica collide on the optimistic lock. Fanning the
        // clock-stamping write out in parallel would let disjoint writers
        // mint *identical* clocks, silently losing one write — so this hop
        // completes before the replication wave starts.
        let mut committed_clock: Option<VectorClock> = None;
        let mut coordinator: Option<NodeId> = None;
        let mut wave_start = prefs.len();
        for (i, &node) in prefs.iter().enumerate() {
            if !self.link.is_live(node) {
                owed.push(node);
                continue;
            }
            match self.put_coordinator(node, key, clock, &value, transform) {
                Ok((latency, (stamped, stored))) => {
                    sim_latency += latency;
                    value = stored;
                    committed_clock = Some(stamped);
                    coordinator = Some(node);
                    acks = 1;
                    wave_start = i + 1;
                    break;
                }
                // Optimistic lock (someone committed a newer version) or an
                // engine-level rejection: no other replica (or hint) will
                // accept the write either.
                Err(e) if is_fatal(&e) => return Err(e),
                Err(_) => owed.push(node),
            }
        }
        let committed = coordinator.is_some();
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
        // preference-list replicas as one wave. Every replica is attempted;
        // the put waits, on simulated time, only for the W−1 further acks
        // the quorum still needs.
        if committed && wave_start < prefs.len() {
            let (live, down): (Vec<NodeId>, Vec<NodeId>) = prefs[wave_start..]
                .iter()
                .partition(|&&node| self.link.is_live(node));
            owed.extend(down);
            let wave = self.link.wave(
                &live,
                &[],
                required.saturating_sub(acks),
                None,
                |server, store| server.put(store, key, versioned.clone()),
            );
            sim_latency += wave.quorum_at.unwrap_or_default();
            for reply in &wave.replies {
                match &reply.outcome {
                    Ok((latency, ())) => {
                        acks += 1;
                        self.metrics
                            .replica_latency
                            .record(latency.as_nanos() as u64);
                    }
                    Err(e) if is_fatal(e) => return Err(e.clone()),
                    Err(_) => owed.push(reply.node),
                }
            }
        }
        self.metrics
            .put_sim_latency
            .record(sim_latency.as_nanos() as u64);

        // Every replica that missed the write is owed a hint, whether or
        // not W is met; a fault-free put builds no holder list.
        if !owed.is_empty() {
            let holders = self.link.hint_holders(&prefs);
            let needed = required.saturating_sub(acks);
            acks += self.hand_off(holders, &owed, needed, coordinator, &shared_key, &versioned);
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
        self.heal_routing_drift(&shared_key, &prefs, coordinator, &versioned, epoch);
        Ok(versioned.clock)
    }

    /// Hinted handoff, the one rule: each replica in `owed` missed
    /// `versioned` and is owed one hint, parked on the first of `holders`
    /// that accepts it. The hints share one walk over the holders, so the
    /// first `needed` — the ones that count toward W (sloppy quorum) — sit
    /// on distinct nodes. A hint beyond those counts toward nothing, so
    /// once the walk runs out the put's `coordinator` may hold it. Returns
    /// how many hints counted.
    fn hand_off(
        &self,
        mut holders: impl Iterator<Item = NodeId>,
        owed: &[NodeId],
        needed: usize,
        coordinator: Option<NodeId>,
        key: &Bytes,
        versioned: &Versioned<Bytes>,
    ) -> usize {
        let mut counted = 0;
        for &target in owed {
            let counts = counted < needed;
            let last_resort = coordinator.filter(|_| !counts);
            let parked = holders.by_ref().chain(last_resort).any(|holder| {
                let park = |server: &VoldemortNode| {
                    server.store_hint(Hint {
                        store: self.store.name.clone(),
                        target,
                        key: key.clone(),
                        value: versioned.clone(),
                    });
                    Ok(())
                };
                self.link.call(holder, false, park).is_ok()
            });
            if parked {
                counted += usize::from(counts);
                self.metrics.hinted_writes.inc();
            } else {
                self.metrics.hints_unplaced.inc();
            }
        }
        counted
    }

    /// If the topology changed while this put was in flight (a cutover
    /// flip raced the quorum), the acked version may live only on the old
    /// replica set. Re-route and push the committed version to any node
    /// that just became a replica, so a flip cannot orphan an acked write.
    /// An unreachable new replica is owed a hint like any replica the put
    /// missed; it counts toward nothing.
    fn heal_routing_drift(
        &self,
        key: &Bytes,
        prefs: &[NodeId],
        coordinator: Option<NodeId>,
        versioned: &Versioned<Bytes>,
        epoch_before: u64,
    ) {
        if self.link.cluster.topology_epoch() == epoch_before {
            return;
        }
        let Ok(now_prefs) = self.preference_list(key) else {
            return;
        };
        let push = |server: &VoldemortNode| {
            server.force_put(&self.store.name, key, versioned.clone())
        };
        let owed: Vec<NodeId> = now_prefs
            .iter()
            .copied()
            .filter(|n| !prefs.contains(n) && self.link.call(*n, false, push).is_err())
            .collect();
        if !owed.is_empty() {
            let holders = self.link.hint_holders(&now_prefs);
            self.hand_off(holders, &owed, 0, coordinator, key, versioned);
        }
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
        let nodes: Vec<NodeId> = prefs
            .iter()
            .copied()
            .filter(|&node| self.link.cluster.node(node).is_ok())
            .collect();
        let wave = self
            .link
            .wave(&nodes, &[], required, None, |server, store| {
                server.delete(store, key, clock)
            });
        let deleted: Vec<bool> = wave
            .replies
            .iter()
            .filter_map(|reply| reply.outcome.as_ref().ok().map(|(_, deleted)| *deleted))
            .collect();
        if deleted.len() < required {
            return Err(VoldemortError::InsufficientWrites {
                required,
                got: deleted.len(),
            });
        }
        // Acked-delete capture for an in-flight migration, plus the same
        // cutover-race heal as puts (replay the delete on any replica the
        // key just gained).
        self.link
            .cluster
            .on_acked(&self.store, key, self.link.origin, || {
                JournaledWrite::Delete {
                    store: self.store.name.clone(),
                    key: Bytes::copy_from_slice(key),
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
        Ok(deleted.contains(&true))
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
            per_node_timeout: Some(Duration::from_millis(100)),
            ..QuorumConfig::default()
        });
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        let holders = non_replicas(&cluster, &prefs);
        // prefs[2] times out at 100ms, after prefs[0] and prefs[1] made W=2
        // at 0ms: a hint beyond W, owed all the same.
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[2],
            Duration::from_millis(400),
        );
        cluster.network().crash(holders[0]);
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
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
        // The hint would have counted toward W, so the coordinator, which
        // already acked, may not hold it.
        assert_eq!(cluster.pending_hints(), 0);
        let snapshot = cluster.metrics().snapshot();
        assert_eq!(snapshot.counter("voldemort.client.put.hint_unplaced"), Some(1));
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
    fn an_obsolete_wave_reply_stops_the_put() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        // prefs[1] alone holds a version newer than the clock prefs[0] is
        // about to stamp, so the wave's first reply is ObsoleteVersion.
        let newer = VectorClock::new()
            .incremented(prefs[0].0)
            .incremented(prefs[0].0);
        let held = Versioned::new(newer, Bytes::from_static(b"newer"));
        cluster
            .node(prefs[1])
            .unwrap()
            .force_put("s", b"k", held)
            .unwrap();
        let err = client
            .put_initial(b"k", Bytes::from_static(b"v"))
            .unwrap_err();
        assert_eq!(err, VoldemortError::ObsoleteVersion);
        let untried = cluster.node(prefs[2]).unwrap().get("s", b"k").unwrap();
        assert!(untried.is_empty(), "the wave stopped before prefs[2]");
    }

    #[test]
    fn a_timed_out_replicas_backup_starts_at_the_deadline() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
            per_node_timeout: Some(Duration::from_millis(5)),
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        let ms = Duration::from_millis;
        for (node, latency) in [(prefs[0], ms(50)), (prefs[1], ms(2)), (prefs[2], ms(1))] {
            cluster
                .network()
                .set_link_latency(StoreClient::CLIENT_NODE, node, latency);
        }
        // prefs[0] times out at 5ms, and prefs[2] replaces it from then.
        let (versions, stats) = client.get_with_stats(b"k").unwrap();
        assert_eq!(versions[0].value.as_ref(), b"v");
        assert_eq!(stats.contacted, 3);
        assert_eq!(stats.sim_latency, ms(5 + 1));
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
    fn read_fan_out_all_serves_quorum_reads_and_writes() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let client = client.with_quorum_config(QuorumConfig {
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
        // Every put attempted all N replicas, not just the W it waited for.
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        for node in prefs {
            let versions = cluster.node(node).unwrap().get("s", b"k").unwrap();
            assert_eq!(versions.len(), 1, "replica {node} converged");
        }
    }

    #[test]
    fn hedged_read_recovers_tail_latency_and_counts() {
        let (cluster, client) = cluster_with_store(5, 3, 1, 1);
        let hedge_delay = Duration::from_millis(2);
        let client = client.with_quorum_config(QuorumConfig {
            read_fan_out: ReadFanOut::Quorum,
            hedge: Some(HedgeConfig {
                quantile: 0.95,
                min_delay: hedge_delay,
                max_delay: hedge_delay,
            }),
            ..QuorumConfig::default()
        });
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        // R=1 with Quorum fan-out contacts only prefs[0] — make it slow so
        // the hedge to prefs[1] completes first.
        let network = cluster.network();
        network.set_link_latency(
            StoreClient::CLIENT_NODE,
            prefs[0],
            Duration::from_millis(250),
        );
        network.set_link_latency(StoreClient::CLIENT_NODE, prefs[1], Duration::from_millis(3));
        let (versions, stats) = client.get_with_stats(b"k").unwrap();
        assert_eq!(versions[0].value.as_ref(), b"v");
        assert_eq!(stats.hedges, 1, "hedge fired");
        assert_eq!(stats.hedge_wins, 1, "hedge supplied the quorum answer");
        assert_eq!(stats.contacted, 2);
        assert_eq!(
            stats.sim_latency,
            hedge_delay
                + network
                    .peek_latency(StoreClient::CLIENT_NODE, prefs[1])
                    .unwrap(),
            "the hedge started at its delay and completed after prefs[1]'s link"
        );
        let snapshot = cluster.metrics().snapshot();
        assert_eq!(snapshot.counter("voldemort.client.get.hedged"), Some(1));
        assert_eq!(snapshot.counter("voldemort.client.get.hedge_won"), Some(1));
    }

    #[test]
    fn put_waits_for_the_w_minus_1th_wave_ack_not_the_slowest() {
        let (cluster, client) = cluster_with_store(5, 3, 2, 2);
        let prefs = cluster.ring().preference_list(b"k", 3).unwrap();
        let network = cluster.network();
        let ms = Duration::from_millis;
        // prefs[0] coordinates; the wave's W−1 = 1 ack comes from prefs[1],
        // and prefs[2] is a slow straggler the put does not wait for.
        for (node, latency) in [(prefs[0], ms(3)), (prefs[1], ms(1)), (prefs[2], ms(40))] {
            network.set_link_latency(StoreClient::CLIENT_NODE, node, latency);
        }
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let put = cluster.metrics().snapshot();
        let put = put
            .histogram("voldemort.client.put.sim_latency_ns")
            .unwrap();
        assert_eq!(put.count, 1);
        assert_eq!(put.max, ms(3 + 1).as_nanos() as u64);
        // The straggler was still written.
        assert_eq!(
            cluster
                .node(prefs[2])
                .unwrap()
                .get("s", b"k")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn a_replica_a_w1_put_missed_is_owed_a_hint() {
        let (cluster, client) = cluster_with_store(4, 2, 1, 1);
        let prefs = cluster.ring().preference_list(b"k", 2).unwrap();
        cluster.network().crash(prefs[1]);
        // W=1 is met by the coordinator alone; prefs[1] is owed the write.
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        let snapshot = cluster.metrics().snapshot();
        assert_eq!(snapshot.counter("voldemort.client.put.hinted"), Some(1));
        cluster.network().restart(prefs[1]);
        assert_eq!(cluster.deliver_hints(), 1);
        let bounced = cluster.node(prefs[1]).unwrap().engine("s").unwrap().get(b"k").unwrap();
        assert_eq!(bounced.len(), 1);
        assert_eq!(bounced[0].value.as_ref(), b"v");
    }

    #[test]
    fn a_hint_beyond_w_falls_back_to_the_coordinator() {
        // 2 nodes, N=2: no holder exists outside the preference list.
        let (cluster, client) = cluster_with_store(2, 2, 1, 1);
        let prefs = cluster.ring().preference_list(b"k", 2).unwrap();
        cluster.network().crash(prefs[1]);
        client.put_initial(b"k", Bytes::from_static(b"v")).unwrap();
        assert_eq!(cluster.node(prefs[0]).unwrap().hint_count(), 1);
        cluster.network().restart(prefs[1]);
        assert_eq!(cluster.deliver_hints(), 1);
        let bounced = cluster.node(prefs[1]).unwrap().get("s", b"k").unwrap();
        assert_eq!(bounced[0].value.as_ref(), b"v");
    }
}
