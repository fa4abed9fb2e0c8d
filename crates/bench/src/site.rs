//! The site-scale closed-loop benchmark harness.
//!
//! One seeded member population (LDBC-shaped, [`li_workload::site`])
//! drives the whole platform at once, the way the paper's systems are
//! actually deployed — together:
//!
//! * profile reads → Espresso (routed document store),
//! * PYMK lookups → the Voldemort read-only store,
//! * follow-edge writes → primary sqlstore → Databus → Voldemort caches,
//! * activity events → Kafka (live cluster, keyed partitioning).
//!
//! **Closed loop:** each driver thread issues its next operation only
//! after the previous one completes, so offered load is a function of
//! service time (drivers model users, not a firehose). Scaling the driver
//! count — not a target rate — is what moves the platform toward its
//! throughput/latency knee, and per-op latencies are honest: there is no
//! coordinated-omission correction to apply because there is no schedule
//! to fall behind.
//!
//! **SLO gates** are read back from the site registry after the run:
//! per-tier p99 under threshold, Databus/Kafka lag drained to zero, and
//! cross-tier write conservation (every acked follow appears exactly once
//! downstream). A run is a pass/fail regression check, not just a number.
//!
//! **Determinism:** op streams are per-driver seeded
//! ([`li_workload::site::split_seed`]), so *what* the run does is a pure
//! function of the seed even though thread interleaving varies. The
//! [`SiteBenchReport::conservation_fingerprint`]
//! captures exactly the order-independent counters/gauges and must be
//! byte-identical across same-seed runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use li_commons::exec::FanOutPool;
use li_commons::hist::Histogram;
use li_commons::metrics::{Counter, HistogramSummary, MetricValue, MetricsSnapshot};
use li_kafka::{Partitioner, Producer};
use li_workload::datasets::PymkRecord;
use li_workload::site::{expected_follow_sets, SiteGraph, SiteMix, SiteOp, SiteWorkload};
use linkedin_data_infra::consumers::member_row_key;
use linkedin_data_infra::platform::{
    DataPlatform, PlatformConfig, PlatformError, ACTIVITY_TOPIC, PROFILE_DB,
};
use linkedin_data_infra::{PrepareStats, ShardMode, SiteBench};

use crate::sched::{run_on_pool, run_serial, Resumable};

/// Per-tier p99 latency thresholds (the SLOs the run is gated on).
#[derive(Debug, Clone)]
pub struct SloThresholds {
    /// p99 budget for Espresso profile reads.
    pub profile_read_p99: Duration,
    /// p99 budget for Voldemort PYMK lookups.
    pub pymk_read_p99: Duration,
    /// p99 budget for primary-store follow writes.
    pub follow_write_p99: Duration,
    /// p99 budget for Kafka activity publishes.
    pub activity_p99: Duration,
}

impl SloThresholds {
    /// Generous smoke-test budgets: wide enough to hold on a loaded CI
    /// box, tight enough that a pathological serialization bug (seconds
    /// per op) still trips them.
    pub fn smoke() -> Self {
        SloThresholds {
            profile_read_p99: Duration::from_millis(250),
            pymk_read_p99: Duration::from_millis(250),
            follow_write_p99: Duration::from_millis(500),
            activity_p99: Duration::from_millis(250),
        }
    }

    fn for_tier(&self, tier: &str) -> Duration {
        match tier {
            "profile_read" => self.profile_read_p99,
            "pymk_read" => self.pymk_read_p99,
            "follow_write" => self.follow_write_p99,
            _ => self.activity_p99,
        }
    }
}

/// The driver options of one closed-loop run over a prepared
/// [`SiteBench`] (population, platform shape, driver count and ops per
/// driver come from its [`linkedin_data_infra::SiteBenchConfig`]).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// SLO gate thresholds.
    pub slo: SloThresholds,
    /// Voldemort partitions to live-migrate off node 0 *while the drivers
    /// run* (plus one Espresso profile partition when a free node exists).
    /// `0` disables in-flight migration. A non-zero value adds the
    /// `migration.zero_loss_cutover` gate: every started migration must
    /// cut over (no refusals), and the ordinary conservation gates then
    /// prove no acked write was lost across the moves.
    pub migrate_partitions: u32,
    /// OS worker threads the M:N scheduler multiplexes the logical
    /// drivers onto (`0` = `min(drivers, 8)`). Hundreds of logical
    /// drivers run on this bounded set; in `ShardMode::Deterministic`
    /// the schedule collapses to serial on the calling thread and this
    /// knob is moot.
    pub workers: usize,
}

impl RunOptions {
    /// The smoke profile: generous SLOs, no migration, default workers.
    pub fn smoke() -> Self {
        RunOptions {
            slo: SloThresholds::smoke(),
            migrate_partitions: 0,
            workers: 0,
        }
    }
}

/// The platform shape every recorded site number was taken on
/// (`BENCH_site_scale.json`, the CI smokes).
pub fn recorded_platform(shard_mode: ShardMode) -> PlatformConfig {
    PlatformConfig {
        voldemort_nodes: 3,
        kafka_brokers: 2,
        espresso_nodes: 3,
        espresso_partitions: 8,
        activity_partitions: 4,
        shard_mode,
    }
}

/// Ops a driver runs per scheduler quantum before yielding its worker.
const QUANTUM: usize = 32;

/// Activity-producer batching: messages and payload bytes buffered per
/// partition before a publish request. Deterministic triggers only — the
/// linger knob stays off so same-seed fingerprints hold.
const ACTIVITY_BATCH_MESSAGES: usize = 16;
const ACTIVITY_BATCH_BYTES: usize = 16 << 10;

/// One SLO gate's verdict.
#[derive(Debug, Clone)]
pub struct GateResult {
    /// Gate name (stable identifier).
    pub name: String,
    /// Whether the gate held.
    pub passed: bool,
    /// Human-readable evidence (numbers on both sides of the check).
    pub detail: String,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct SiteBenchReport {
    /// Driver threads that ran.
    pub drivers: usize,
    /// Member population size.
    pub members: u64,
    /// Wall-clock time of the load phase (excludes prepare and drain).
    pub load_wall: Duration,
    /// Wall-clock split of the prepare phase (generation vs tier loading).
    pub prepare: PrepareStats,
    /// Operations attempted.
    pub ops_attempted: u64,
    /// Operations acknowledged (attempted minus errors).
    pub ops_acked: u64,
    /// Acked operations per second over the load phase — the paper-style
    /// "members served per second" headline number.
    pub throughput_ops_per_sec: f64,
    /// Per-tier latency distributions (ns), keyed by tier name.
    pub tier_latency: BTreeMap<String, HistogramSummary>,
    /// Every SLO gate's verdict.
    pub gates: Vec<GateResult>,
    /// The full end-of-run metrics snapshot (timing histograms included).
    pub snapshot: MetricsSnapshot,
    /// The deterministic subset of the snapshot (see
    /// [`Self::conservation_fingerprint`]).
    pub conservation: MetricsSnapshot,
}

impl SiteBenchReport {
    /// True when every SLO gate held.
    pub fn all_gates_pass(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }

    /// The gates that failed (empty on a passing run).
    pub fn gate_failures(&self) -> Vec<&GateResult> {
        self.gates.iter().filter(|g| !g.passed).collect()
    }

    /// JSON rendering of the *order-independent* metrics: acked-op
    /// counters, commit/window conservation counters, and end-state lag
    /// gauges — every reading that a same-seed rerun must reproduce
    /// byte-for-byte regardless of thread interleaving. Timing-dependent
    /// metrics (latency histograms, poll/serve counts) are excluded by
    /// construction.
    pub fn conservation_fingerprint(&self) -> String {
        self.conservation.to_json()
    }

    /// One human-readable block: throughput, per-tier p99s, gate verdicts.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "site_bench: {} drivers x {} members | {:.0} ops/s over {:?} ({} acked / {} attempted)\n",
            self.drivers,
            self.members,
            self.throughput_ops_per_sec,
            self.load_wall,
            self.ops_acked,
            self.ops_attempted,
        );
        for (tier, h) in &self.tier_latency {
            out.push_str(&format!(
                "  {tier:<13} n={:<7} p50={:>9}ns p99={:>9}ns max={:>9}ns\n",
                h.count, h.p50, h.p99, h.max
            ));
        }
        for gate in &self.gates {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                if gate.passed { "PASS" } else { "FAIL" },
                gate.name,
                gate.detail
            ));
        }
        out
    }
}

/// Pump-thread idle backoff bounds: the relay's SCN watch wakes the pump
/// the moment primary commits land; between commits the wait doubles
/// from the floor toward the cap, so a quiet platform does not spin.
const PUMP_MIN_BACKOFF: Duration = Duration::from_micros(50);
const PUMP_MAX_BACKOFF: Duration = Duration::from_millis(5);

/// Raises the pump's stop flag when dropped, so the load-phase scope in
/// [`run`] joins the pump on every exit — return, error or unwind.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Drives the closed loop over a prepared platform: multiplexes the
/// logical drivers onto the bounded worker pool (or the serial twin in
/// `Deterministic` mode) alongside a watch-driven stream pump, drains
/// every pipeline, snapshots the registry, and evaluates the SLO gates.
/// Run once per [`SiteBench`]: the run consumes the platform's "fresh"
/// state.
///
/// **Shutdown contract:** the pump and migration threads are scoped to
/// the load phase. Whatever the drivers or a migration return or panic
/// with, the migration is joined, the pump is stopped and joined, and the
/// push dispatcher is stopped — in that order — before the first error
/// propagates. No thread this function started outlives the call.
pub fn run(bench: SiteBench, options: &RunOptions) -> Result<SiteBenchReport, PlatformError> {
    let (platform, graph, config) = (bench.platform(), bench.graph(), bench.config());
    let workload = SiteWorkload::new(
        graph.member_count(),
        graph.company_count(),
        SiteMix::site_default(),
    );
    let tiers = ["profile_read", "pymk_read", "follow_write", "activity"];
    let scope = platform.metrics().scope("site");
    let consumed_counter = scope.counter("activity.consumed");
    let pump_errors = scope.counter("pump.errors");

    // Pre-generate every driver's deterministic op stream.
    let streams: Vec<Vec<SiteOp>> = (0..config.drivers as u64)
        .map(|d| workload.ops_for_driver(config.seed, d, config.ops_per_driver))
        .collect();

    // Push-style dispatch: when the platform runs sharded (Parallel),
    // the relay's SCN watch wakes the Databus subscribers through
    // bounded channels so follow fan-out latency is not a function of
    // the pump's polling period. The client-side drive lock keeps it
    // safe alongside the pump thread below — each window is still
    // delivered exactly once, so the conservation fingerprint stays
    // deterministic. Deterministic mode skips it: the serialized twin
    // must not depend on extra threads.
    let dispatcher = match config.platform.shard_mode {
        ShardMode::Parallel => Some(platform.start_stream_dispatch()),
        ShardMode::Deterministic => None,
    };

    let attempted = Arc::new(AtomicU64::new(0));
    let acked = Arc::new(AtomicU64::new(0));
    // Hoist the per-tier result counters once; every driver clones
    // the same registry handles instead of re-resolving names per op.
    // All four tiers are created here, so each appears in the snapshot
    // (as zero) even when the mix never drew it.
    let tier_counters: BTreeMap<&'static str, (Counter, Counter)> = tiers
        .iter()
        .map(|&tier| {
            (
                tier,
                (
                    scope.counter(&format!("{tier}.ok")),
                    scope.counter(&format!("{tier}.err")),
                ),
            )
        })
        .collect();
    let states: Vec<DriverState> = streams
        .iter()
        .map(|ops| DriverState {
            platform: Arc::clone(platform),
            producer: Producer::new(platform.kafka_live.clone())
                .with_partitioner(Partitioner::Keyed)
                .with_batch_size(ACTIVITY_BATCH_MESSAGES)
                .with_batch_bytes(ACTIVITY_BATCH_BYTES),
            ops: ops.clone(),
            pos: 0,
            hists: BTreeMap::new(),
            tier_counters: tier_counters.clone(),
            attempted: Arc::clone(&attempted),
            acked: Arc::clone(&acked),
            activity_accepted: 0,
        })
        .collect();

    let stop_pump = AtomicBool::new(false);
    let (finished, migration, load_wall) = std::thread::scope(|threads| {
        let _stop = StopOnDrop(&stop_pump);
        // Background pump: production runs the stream tier continuously;
        // here a dedicated thread stands in for it during load. (The
        // dispatcher above only covers the Databus subscribers; bootstrap,
        // Espresso replication, the Kafka mirror and the warehouse still
        // ride the pump.) Wakeups are watch-driven, with the idle backoff
        // of `PUMP_MIN_BACKOFF`..`PUMP_MAX_BACKOFF` between commits.
        std::thread::Builder::new()
            .name("site-pump".into())
            .spawn_scoped(threads, || {
                let mut scn_watch = platform.relay.scn_watch();
                let mut backoff = PUMP_MIN_BACKOFF;
                while !stop_pump.load(Ordering::Acquire) {
                    if platform.pump_streams().is_err() {
                        pump_errors.inc();
                    }
                    if scn_watch.wait_newer(backoff).is_some() {
                        backoff = PUMP_MIN_BACKOFF;
                    } else {
                        backoff = (backoff * 2).min(PUMP_MAX_BACKOFF);
                    }
                }
            })
            .expect("spawn stream pump");
        // Live resharding under traffic: the configured partition moves
        // run on their own thread while the drivers load the platform, so
        // every phase of every migration races real reads and writes.
        // (The scheduler below occupies this thread in Deterministic
        // mode, so the moves cannot ride it.)
        let migration_handle = (options.migrate_partitions > 0).then(|| {
            std::thread::Builder::new()
                .name("site-migrate".into())
                .spawn_scoped(threads, || {
                    run_inflight_migrations(platform, options.migrate_partitions)
                })
                .expect("spawn migration driver")
        });
        let load_start = Instant::now();
        // M:N dispatch: hundreds of logical drivers multiplex onto a
        // bounded worker pool, each advancing one quantum of its op
        // stream per turn. Deterministic mode collapses to the serial
        // twin — identical per-driver streams, fully sequential schedule
        // — so same-seed conservation fingerprints stay byte-identical.
        let finished = match config.platform.shard_mode {
            ShardMode::Parallel => {
                let workers = match options.workers {
                    0 => config.drivers.clamp(1, 8),
                    w => w,
                };
                run_on_pool(&FanOutPool::named("driver", workers), states)
            }
            ShardMode::Deterministic => run_serial(states),
        };
        let migration =
            migration_handle.map(|handle| handle.join().expect("migration thread panicked"));
        (finished, migration, load_start.elapsed())
    });
    if let Some(dispatcher) = dispatcher {
        // Joins the dispatch threads and runs a final catch-up drain;
        // dispatch delivery errors gate the run like pump errors do.
        let stats = dispatcher.stop();
        pump_errors.add(stats.errors);
    }
    let expected_flips = migration.transpose()?.unwrap_or(0);
    let mut tier_local: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    for state in finished {
        for (tier, hist) in state.hists {
            tier_local.entry(tier).or_default().merge(&hist);
        }
    }

    // Publish the driver-side latency distributions.
    for (tier, hist) in &tier_local {
        scope.histogram(&format!("{tier}.latency_ns")).merge_from(hist);
    }

    // ---- Drain: load has stopped; every pipeline must empty. -------
    platform.pump_streams()?;
    platform.pump_streams()?;
    let mut consumed = 0u64;
    for partition in 0..platform.activity_partitions() {
        let mut consumer = platform.activity_consumer(partition)?;
        loop {
            let batch = consumer.poll().map_err(|e| PlatformError(e.to_string()))?;
            if batch.is_empty() {
                break;
            }
            consumed += batch.len() as u64;
        }
    }
    consumed_counter.add(consumed);
    platform.force_warehouse_load()?;

    let snapshot = platform.metrics_snapshot();
    let conservation = conservation_subset(&snapshot, &config.platform, options.migrate_partitions);

    // ---- Gates -----------------------------------------------------
    let tier_latency: BTreeMap<String, HistogramSummary> = tier_local
        .iter()
        .map(|(tier, h)| (tier.to_string(), HistogramSummary::of(h)))
        .collect();
    let mut gates = Vec::new();
    for tier in tiers {
        let p99 = tier_latency.get(tier).map_or(0, |h| h.p99);
        let budget = options.slo.for_tier(tier).as_nanos() as u64;
        gates.push(GateResult {
            name: format!("slo.{tier}.p99"),
            passed: p99 <= budget,
            detail: format!("p99 {p99}ns vs budget {budget}ns"),
        });
    }

    let relay_lag = snapshot.gauge("databus.client.relay_lag_scns").unwrap_or(-1);
    let newest = snapshot.gauge("databus.relay.primary.newest_scn").unwrap_or(-1);
    let last_scn = snapshot.gauge("sqlstore.db.primary.last_scn").unwrap_or(-2);
    gates.push(GateResult {
        name: "databus.lag_drains".into(),
        passed: relay_lag == 0 && newest == last_scn,
        detail: format!(
            "client lag {relay_lag} scns; relay newest_scn {newest} vs primary last_scn {last_scn}"
        ),
    });

    let mut max_consumer_lag = 0i64;
    for partition in 0..platform.activity_partitions() {
        let lag = snapshot
            .gauge(&format!("kafka.consumer.{ACTIVITY_TOPIC}.{partition}.lag"))
            .unwrap_or(i64::MAX);
        max_consumer_lag = max_consumer_lag.max(lag);
    }
    // `site.activity.ok` counts messages that actually reached a
    // broker (drivers settle their batch buffers at end-of-stream),
    // so consumed == acked alone would hold even after a failed
    // flush dropped accepted sends — those land on the error
    // counter, which must therefore gate too.
    let activity_acked = snapshot.counter("site.activity.ok").unwrap_or(0);
    let activity_errors = snapshot.counter("site.activity.err").unwrap_or(0);
    gates.push(GateResult {
        name: "kafka.lag_drains".into(),
        passed: max_consumer_lag == 0 && consumed == activity_acked && activity_errors == 0,
        detail: format!(
            "max partition lag {max_consumer_lag}; consumed {consumed} vs acked {activity_acked}; activity errors {activity_errors}"
        ),
    });
    let warehouse_rows = platform.warehouse_rows() as u64;
    gates.push(GateResult {
        name: "offline.mirror_conservation".into(),
        passed: warehouse_rows == activity_acked,
        detail: format!("warehouse rows {warehouse_rows} vs acked activity {activity_acked}"),
    });

    if options.migrate_partitions > 0 {
        let flips = snapshot.counter("migration.cutover_flips").unwrap_or(0);
        let refusals = snapshot.counter("migration.cutover_refusals").unwrap_or(0);
        gates.push(GateResult {
            name: "migration.zero_loss_cutover".into(),
            passed: flips == expected_flips && refusals == 0,
            detail: format!(
                "cutover flips {flips} vs expected {expected_flips}; refusals {refusals}"
            ),
        });
    }

    gates.push(follow_conservation_gate(platform, graph, &streams)?);
    gates.push(profile_conservation_gate(platform, graph)?);

    let write_failures = snapshot
        .counter("voldemort.client.quorum.write_failures")
        .unwrap_or(0);
    let failovers = snapshot.counter("espresso.router.failovers").unwrap_or(0);
    gates.push(GateResult {
        name: "no_partial_failures".into(),
        passed: write_failures == 0 && failovers == 0 && pump_errors.value() == 0,
        detail: format!(
            "voldemort write_failures {write_failures}; espresso failovers {failovers}; pump errors {}",
            pump_errors.value()
        ),
    });

    let ops_attempted = attempted.load(Ordering::Relaxed);
    let ops_acked = acked.load(Ordering::Relaxed);
    Ok(SiteBenchReport {
        drivers: config.drivers,
        members: graph.member_count(),
        load_wall,
        prepare: bench.prepare_stats(),
        ops_attempted,
        ops_acked,
        throughput_ops_per_sec: ops_acked as f64 / load_wall.as_secs_f64().max(1e-9),
        tier_latency,
        gates,
        snapshot,
        conservation,
    })
}

/// One logical closed-loop driver as a resumable state machine: the M:N
/// scheduler steps it one quantum at a time, so hundreds of these
/// multiplex onto a handful of OS workers. Each carries its own Kafka
/// producer session (batched sends, keyed partitioning so one member's
/// events stay ordered) and its own latency histograms — no shared state
/// on the hot path beyond the op counters.
struct DriverState {
    platform: Arc<DataPlatform>,
    producer: Producer,
    ops: Vec<SiteOp>,
    pos: usize,
    hists: BTreeMap<&'static str, Histogram>,
    tier_counters: BTreeMap<&'static str, (Counter, Counter)>,
    attempted: Arc<AtomicU64>,
    acked: Arc<AtomicU64>,
    /// Activity sends the batching producer accepted (buffered or
    /// published). Settled against the producer's published-message
    /// count at end-of-stream — see [`Resumable::step`].
    activity_accepted: u64,
}

impl DriverState {
    /// Issue, time, record — one closed-loop turn.
    fn run_op(&mut self, op: &SiteOp) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let tier = op.tier();
        let start = Instant::now();
        let outcome: Result<(), String> = match op {
            SiteOp::ProfileRead(member) => self
                .platform
                .profile(*member)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            SiteOp::PymkRead(member) => self.pymk_page(*member),
            SiteOp::Follow { member, company } => self
                .platform
                .follow_company(*member, *company)
                .map_err(|e| e.to_string()),
            SiteOp::Activity { member, event } => self
                .producer
                .send_keyed(
                    ACTIVITY_TOPIC,
                    member_row_key(*member).to_string().as_bytes(),
                    event.clone(),
                )
                .map_err(|e| e.to_string()),
        };
        let nanos = start.elapsed().as_nanos() as u64;
        self.hists.entry(tier).or_default().record(nanos);
        let (ok, err) = &self.tier_counters[tier];
        match outcome {
            Ok(()) => {
                self.acked.fetch_add(1, Ordering::Relaxed);
                // An accepted activity send may still be sitting in the
                // producer's batch buffer; its ok is provisional until the
                // end-of-stream settlement confirms the payload actually
                // reached a broker. Every other tier acks synchronously.
                if matches!(op, SiteOp::Activity { .. }) {
                    self.activity_accepted += 1;
                } else {
                    ok.inc();
                }
            }
            Err(_) => err.inc(),
        }
    }

    /// The PYMK page the way the site serves it: the Voldemort lookup for
    /// the recommendation list, then one multi-key Espresso read fanning
    /// the profile cards out across the partition masters — the op's
    /// latency covers the whole composite page.
    fn pymk_page(&self, member: u64) -> Result<(), String> {
        let Some(bytes) = self
            .platform
            .pymk_recommendations(member)
            .map_err(|e| e.to_string())?
        else {
            return Ok(());
        };
        let Some(record) = PymkRecord::from_bytes(member, &bytes) else {
            return Err(format!("member {member}: undecodable PYMK record"));
        };
        let ids: Vec<u64> = record.recommendations.iter().map(|&(id, _)| id).collect();
        if ids.is_empty() {
            return Ok(());
        }
        self.platform
            .profiles(&ids)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

impl Resumable for DriverState {
    fn step(&mut self) -> bool {
        let end = (self.pos + QUANTUM).min(self.ops.len());
        while self.pos < end {
            let op = self.ops[self.pos].clone();
            self.pos += 1;
            self.run_op(&op);
        }
        if self.pos < self.ops.len() {
            return false;
        }
        // Stream exhausted: push out any activity sends still buffered by
        // the batching producer, then settle the activity ledger per
        // message. `stats().messages` counts only payloads that actually
        // reached a broker (a failed publish drops its whole batch before
        // the stats update), so crediting ok from it — and moving every
        // accepted-but-unpublished payload to the error counter and out
        // of ops_acked — keeps the attempted/acked/err arithmetic exact
        // even when a flush fails with a dozen already-accepted sends
        // buffered. The flush error itself needs no separate count: each
        // lost payload is accounted individually below.
        let _ = self.producer.flush();
        let published = self.producer.stats().messages;
        let (ok, err) = &self.tier_counters["activity"];
        ok.add(published);
        let lost = self.activity_accepted.saturating_sub(published);
        if lost > 0 {
            err.add(lost);
            self.acked.fetch_sub(lost, Ordering::Relaxed);
        }
        true
    }
}

/// The in-flight partition moves for [`run`]: `count`
/// Voldemort partitions leave node 0, dealt round-robin across the other
/// nodes, then one Espresso profile partition moves to a free node when
/// the tier has one (replication < node count). Each move runs the full
/// phased machine — snapshot, delta catch-up, dual-write with shadow
/// reads, cutover — while the driver threads keep loading the platform.
/// Returns the number of cutovers performed, the value
/// `migration.cutover_flips` must reach for the gate to hold.
fn run_inflight_migrations(
    platform: &Arc<DataPlatform>,
    count: u32,
) -> Result<u64, PlatformError> {
    use li_commons::ring::NodeId;
    let donor = NodeId(0);
    let ring = platform.voldemort.ring();
    let peers: Vec<NodeId> = {
        let mut seen: Vec<NodeId> = (0..ring.num_partitions())
            .map(|p| ring.owner_of(li_commons::ring::PartitionId(p)))
            .filter(|&n| n != donor)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    };
    let mut flips = 0u64;
    if !peers.is_empty() {
        for i in 0..count {
            let Some(&partition) = platform.voldemort.ring().partitions_of(donor).first()
            else {
                break;
            };
            platform
                .migrate_voldemort_partition(partition, peers[i as usize % peers.len()])?;
            flips += 1;
        }
    }
    if let Some((partition, to)) = profile_migration_candidate(platform)? {
        platform.migrate_profile_partition(partition, to)?;
        flips += 1;
    }
    Ok(flips)
}

/// A profile-database partition that can move: one with a master and a
/// live node not hosting any of its replicas. `None` when replication
/// already spans every node (nowhere to migrate to).
fn profile_migration_candidate(
    platform: &DataPlatform,
) -> Result<Option<(u32, li_commons::ring::NodeId)>, PlatformError> {
    let controller = platform.espresso.controller();
    let view = controller
        .external_view(PROFILE_DB)
        .map_err(|e| PlatformError(e.to_string()))?;
    let live = controller
        .live_nodes()
        .map_err(|e| PlatformError(e.to_string()))?;
    for (&pid, hosts) in &view.partitions {
        if view.master_of(pid).is_none() {
            continue;
        }
        if let Some(&target) = live.iter().find(|n| !hosts.contains_key(n)) {
            return Ok(Some((pid.0, target)));
        }
    }
    Ok(None)
}

/// Write conservation for follows: every member the op streams touched
/// must serve, from the Voldemort cache, exactly the union of their
/// seeded edges and their acked follow ops — each company exactly once
/// (duplicates mean double-apply; gaps mean lost writes).
fn follow_conservation_gate(
    platform: &DataPlatform,
    graph: &SiteGraph,
    streams: &[Vec<SiteOp>],
) -> Result<GateResult, PlatformError> {
    let expected = expected_follow_sets(graph, streams);
    let mut checked = 0usize;
    let mut violations = Vec::new();
    for (member, want) in &expected {
        let mut got = platform.followed_companies(*member)?;
        checked += 1;
        let got_len = got.len();
        got.sort_unstable();
        got.dedup();
        if got.len() != got_len {
            violations.push(format!("member {member}: duplicate follow entries"));
        } else if got != want.iter().copied().collect::<Vec<_>>() {
            violations.push(format!(
                "member {member}: cache has {got_len} follows, expected {}",
                want.len()
            ));
        }
        if violations.len() >= 3 {
            break;
        }
    }
    Ok(GateResult {
        name: "follow.write_conservation".into(),
        passed: violations.is_empty(),
        detail: if violations.is_empty() {
            format!("{checked} written members each exactly-once in cache")
        } else {
            violations.join("; ")
        },
    })
}

/// Every seeded profile must read back from Espresso with the generated
/// text (sampled across the population; the mix has no profile writes, so
/// the seeded text is the final text).
fn profile_conservation_gate(
    platform: &DataPlatform,
    graph: &SiteGraph,
) -> Result<GateResult, PlatformError> {
    let stride = (graph.member_count() / 64).max(1);
    let mut checked = 0usize;
    let mut bad = None;
    for member in (0..graph.member_count()).step_by(stride as usize) {
        checked += 1;
        if platform.profile(member)?.as_deref() != Some(graph.profile_of(member)) {
            bad = Some(member);
            break;
        }
    }
    Ok(GateResult {
        name: "profile.read_your_writes".into(),
        passed: bad.is_none(),
        detail: match bad {
            None => format!("{checked} sampled profiles match"),
            Some(member) => format!("member {member}: profile text diverged"),
        },
    })
}

/// The filtered snapshot backing the determinism fingerprint: keeps only
/// counters/gauges whose end-of-run values are order-independent —
/// acked-op totals, commit/window conservation counts, routing-determined
/// broker totals, and drained-lag gauges. Anything timing-dependent
/// (latency histograms, serve/poll counters, hint retries) stays out.
fn conservation_subset(
    snapshot: &MetricsSnapshot,
    platform: &PlatformConfig,
    migrate_partitions: u32,
) -> MetricsSnapshot {
    let mut names: Vec<String> = vec![
        "sqlstore.db.primary.commits".into(),
        "sqlstore.db.primary.last_scn".into(),
        "databus.relay.primary.windows_ingested".into(),
        "databus.relay.primary.newest_scn".into(),
        "databus.client.relay_lag_scns".into(),
        "databus.client.windows_processed".into(),
        "voldemort.client.put.ok".into(),
        "voldemort.client.quorum.write_failures".into(),
        "kafka.producer.requests".into(),
        "espresso.router.requests".into(),
        "espresso.router.failovers".into(),
    ];
    for broker in 0..platform.kafka_brokers {
        names.push(format!("kafka.broker{broker}.produce.messages"));
    }
    // Per-node put totals are routing-determined only while the ring is
    // static: with a migration in flight, writes race the cutover flip and
    // may land on either the pre- or post-flip preference list, so those
    // counters leave the fingerprint when `migrate_partitions > 0`.
    if migrate_partitions == 0 {
        for node in 0..platform.voldemort_nodes {
            names.push(format!("voldemort.node{node}.put.count"));
        }
    }
    for partition in 0..platform.activity_partitions {
        names.push(format!("kafka.consumer.{ACTIVITY_TOPIC}.{partition}.lag"));
    }
    let readings = snapshot
        .iter()
        .filter(|(name, value)| {
            let deterministic_kind =
                matches!(value, MetricValue::Counter(_) | MetricValue::Gauge(_));
            deterministic_kind
                && (name.starts_with("site.") || names.iter().any(|n| n == name))
        })
        .map(|(name, value)| (name.to_string(), value.clone()));
    MetricsSnapshot::from_readings(readings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkedin_data_infra::SiteBenchConfig;

    fn small_platform() -> PlatformConfig {
        PlatformConfig {
            voldemort_nodes: 2,
            kafka_brokers: 1,
            espresso_nodes: 2,
            espresso_partitions: 4,
            activity_partitions: 2,
            ..PlatformConfig::default()
        }
    }

    #[test]
    fn smoke_run_passes_gates_and_reports() {
        let mut config = SiteBenchConfig::smoke(200, 2, 60, 11);
        config.platform = small_platform();
        let bench = SiteBench::prepare(config).unwrap();
        let report = run(bench, &RunOptions::smoke()).unwrap();
        assert!(
            report.all_gates_pass(),
            "gate failures:\n{}",
            report.summary()
        );
        assert_eq!(
            report.ops_attempted, 2 * 60,
            "closed loop issued every op"
        );
        assert_eq!(report.ops_acked, report.ops_attempted);
        assert!(report.throughput_ops_per_sec > 0.0);
        // The fingerprint excludes timing histograms but keeps the acked
        // counters.
        let fp = report.conservation_fingerprint();
        assert!(fp.contains("site.profile_read.ok"));
        assert!(!fp.contains("latency_ns"));
    }

    #[test]
    fn migration_in_flight_keeps_every_gate_green() {
        let mut config = SiteBenchConfig::smoke(200, 2, 60, 13);
        config.platform = small_platform();
        let options = RunOptions {
            migrate_partitions: 2,
            ..RunOptions::smoke()
        };
        let bench = SiteBench::prepare(config).unwrap();
        let report = run(bench, &options).unwrap();
        assert!(
            report.all_gates_pass(),
            "gate failures:\n{}",
            report.summary()
        );
        assert_eq!(report.ops_acked, report.ops_attempted);
        assert!(
            report
                .gates
                .iter()
                .any(|g| g.name == "migration.zero_loss_cutover" && g.passed),
            "migration gate missing or failed:\n{}",
            report.summary()
        );
        // Two Voldemort partitions moved off node 0; with two Espresso
        // nodes at replication two there is no free target, so the profile
        // move is skipped and the gate expects exactly the Voldemort flips.
        assert_eq!(report.snapshot.counter("migration.cutover_flips"), Some(2));
        assert_eq!(report.snapshot.counter("migration.cutover_refusals"), Some(0));
        // Timing-dependent per-node put counters leave the fingerprint on
        // migration runs; acked totals stay.
        let fp = report.conservation_fingerprint();
        assert!(fp.contains("voldemort.client.put.ok"));
        assert!(!fp.contains("voldemort.node0.put.count"));
    }
}
