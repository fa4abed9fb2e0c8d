//! One run of one workload: set-up, the measured segment, the drain, the
//! correctness gates, and (traced) the layer probes.
//!
//! The platform is driven only through public functions: set-up is
//! `SiteBench::prepare`, and from there on the op loop is the
//! benchmark's own. `SiteBench::run` and `core::sched` are never called,
//! so they can be rewritten without moving the ruler.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use li_commons::metrics::MetricsSnapshot;
use li_kafka::SimpleConsumer;
use linkedin_data_infra::{DataPlatform, PrepareStats, SiteBench};

use crate::client::Client;
use crate::host::HostProbe;
use crate::ops::{ops_digest, Op, OpClass, OpGen, Skews};
use crate::oracle::{Gate, Oracle};
use crate::probes;
use crate::setup::{peak_rss_mb, population_digest, set_up, SetUp, FULL_MEMBERS, SMOKE_MEMBERS};
use crate::stats::{median, Latencies, PERCENTILES};
use crate::trace::{trace_json, SpanTotals, Tracer};
use crate::workloads::Workload;

/// When the measured segment ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After this much measured time: what the gated runs use, so that a
    /// run takes the same time on any host.
    Seconds(f64),
    /// After this many ops: identical input on both sides of a
    /// comparison, so registry counts repeat exactly.
    Ops(u64),
}

impl std::fmt::Display for Stop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stop::Seconds(s) => write!(f, "{s}s"),
            Stop::Ops(n) => write!(f, "{n}ops"),
        }
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub stop: Stop,
    pub trace: bool,
    /// 2K members and few probe calls: every path and gate, in seconds.
    pub smoke: bool,
}

impl RunConfig {
    pub fn members(&self) -> u64 {
        if self.smoke {
            SMOKE_MEMBERS
        } else {
            FULL_MEMBERS
        }
    }

    /// Ops after which the measured segment ends whatever the clock says.
    fn max_ops(&self) -> u64 {
        match self.stop {
            Stop::Ops(total) => total,
            Stop::Seconds(_) => self.workload.max_ops,
        }
    }

    fn probe_calls(&self) -> usize {
        if self.smoke {
            200
        } else {
            2_000
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 where it is not a statistic).
    pub samples: u64,
}

#[derive(Debug)]
pub struct RunReport {
    pub config: RunConfig,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// The times behind `end_to_end` before the host's slowdown was
    /// divided out, and the slowdowns.
    pub as_measured: Vec<Metric>,
    /// p50 to p999 of each serving path the mix issued, as measured.
    /// Traced, they are part of `per_layer`.
    pub per_class: Vec<Metric>,
    /// Empty unless traced.
    pub per_layer: Vec<Metric>,
    pub gates: Vec<Gate>,
    pub ops_digest: u64,
    pub population_digest: u64,
    /// Whether the segment did the `rss_mark_ops` ops at which
    /// `peak_rss_mb` is read. If not, the value is the peak at the end of
    /// the segment and compares with no run that reached the mark.
    pub rss_mark_reached: bool,
    /// Wall time per phase, in seconds.
    pub phases: Vec<(&'static str, f64)>,
    pub trace_json: Option<String>,
}

/// The pump thread's idle wait: woken by the relay's SCN watch, backing
/// off while no commit lands.
const PUMP_MIN_BACKOFF: Duration = Duration::from_micros(50);
const PUMP_MAX_BACKOFF: Duration = Duration::from_millis(5);

/// In the threaded, traced run every this-many-th follow of a client is
/// followed until the company's cached list shows it.
const VISIBLE_EVERY: u64 = 64;
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a slice of a client's measured segment is, in window time.
/// Long enough that its p95 has ten and more samples beyond it on every
/// workload, short enough that the host is in one state throughout.
const SLICE: Duration = Duration::from_millis(250);

/// One slice of a client's measured segment: the chunks of about a quarter
/// of a second, with a probe of the host on either side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub ops: u64,
    /// Window time of its chunks.
    pub window_ns: u64,
    /// Over every op of the slice, whatever its class.
    pub p50_ns: u64,
    pub p95_ns: u64,
    /// Mean of the probes before and after it.
    pub host_slowdown: f64,
}

impl Slice {
    /// The three numbers the run gates, with the host's slowdown divided
    /// out: ops per second, p50 and p95 in microseconds.
    fn adjusted(&self) -> [f64; 3] {
        let [rate, p50, p95] = self.as_measured();
        let slow = self.host_slowdown;
        [rate * slow, p50 / slow, p95 / slow]
    }

    fn as_measured(&self) -> [f64; 3] {
        [
            self.ops as f64 / (self.window_ns as f64 / 1e9),
            self.p50_ns as f64 / 1e3,
            self.p95_ns as f64 / 1e3,
        ]
    }
}

/// What one client thread brings back from the measured segment.
struct ClientRun<'a> {
    client: Client<'a>,
    slices: Vec<Slice>,
    oracle: Oracle,
    /// Durations of the stream-tier turns this client made itself.
    pump_ns: Vec<u64>,
    consumed: u64,
    consumers: Vec<SimpleConsumer>,
    stream_errors: u64,
    visible_ns: Vec<u64>,
    generate_s: f64,
}

/// What the clients of a segment share: the op count at which
/// `peak_rss_mb` is read.
#[derive(Default)]
struct RssMark {
    ops_done: AtomicU64,
    mb: OnceLock<f64>,
}

struct Segment<'a> {
    clients: Vec<ClientRun<'a>>,
    /// Spans and turns of the pump thread (threaded workloads).
    pump_tracer: Option<Tracer>,
    pump_ns: Vec<u64>,
    /// Time the segment took: the one client's timed windows, or start to
    /// join of the client threads.
    wall_s: f64,
    rss_mb_at_mark: Option<f64>,
    stream_errors: u64,
}

fn open_consumers(platform: &DataPlatform) -> Result<Vec<SimpleConsumer>, String> {
    (0..platform.activity_partitions())
        .map(|p| platform.activity_consumer(p).map_err(|e| e.to_string()))
        .collect()
}

/// Spins on the company's cached follower list until `member` shows.
/// Returns how long that took.
fn wait_visible(
    client: &mut Client,
    platform: &DataPlatform,
    member: u64,
    company: u64,
) -> Option<u64> {
    let wait = client.tracer.open("core.mt.follow_visible", None, member);
    let mut visible = false;
    while !visible && client.tracer.now_ns() - wait.start_ns() < VISIBLE_TIMEOUT.as_nanos() as u64 {
        visible = platform.followers(company).ok()?.contains(&member);
        if !visible {
            std::thread::yield_now();
        }
    }
    let waited = client.tracer.close(wait);
    visible.then_some(waited)
}

/// One closed-loop client: generates a chunk of its op stream, then
/// issues it inside a timed window. Generation, the oracle's notes and
/// building the client all happen outside the windows, so the window time
/// (`Client::active_ns`) is the program's and the spans must explain it.
///
/// The one client of an inline workload also turns the stream tier at the
/// end of each window. Nothing contends there, so latencies repeat; the
/// turn counts in the window but in no op's latency.
fn client_loop<'a>(
    platform: &'a DataPlatform,
    config: &RunConfig,
    skews: &Skews,
    epoch: Instant,
    index: u64,
    mark: &RssMark,
) -> Result<ClientRun<'a>, String> {
    let workload = config.workload;
    let clients = workload.clients as u64;
    let inline = clients == 1;
    let mut gen = OpGen::new(skews, workload.mix, config.seed, index);
    let mut run = ClientRun {
        client: Client::new(platform, Tracer::new(epoch, config.trace), index),
        slices: Vec::new(),
        oracle: Oracle::default(),
        pump_ns: Vec::new(),
        consumed: 0,
        consumers: if workload.consume_inline {
            open_consumers(platform)?
        } else {
            Vec::new()
        },
        stream_errors: 0,
        visible_ns: Vec::new(),
        generate_s: 0.0,
    };
    // The first client takes the remainder.
    let quota = config.max_ops() / clients
        + if index == 0 {
            config.max_ops() % clients
        } else {
            0
        };
    let (mut done, mut follows) = (0u64, 0u64);
    // Beside other threads of the program a probe would time them, not the
    // host: the concurrent workload is left as measured.
    let mut probe = inline.then(HostProbe::new);
    let mut host_slowdown = move || probe.as_mut().map_or(1.0, HostProbe::slowdown);
    let mut slowdown_before = host_slowdown();
    let (mut slice_ops, mut slice_ns, mut sliced) = (0u64, 0u64, [0usize; 6]);
    while done < quota {
        let chunk_ops = (quota - done).min(workload.pump_every as u64);
        let started = Instant::now();
        let chunk: Vec<Op> = (0..chunk_ops)
            .map(|_| {
                let op = gen.next_op();
                run.oracle.note(&op);
                op
            })
            .collect();
        run.generate_s += started.elapsed().as_secs_f64();

        let client = &mut run.client;
        let window = client.tracer.now_ns();
        for op in chunk {
            let watched = match &op {
                Op::FollowWrite { member, company } if config.trace && !inline => {
                    follows += 1;
                    (follows % VISIBLE_EVERY == 0).then_some((*member, *company))
                }
                _ => None,
            };
            client.execute(op);
            if let Some((member, company)) = watched {
                match wait_visible(client, platform, member, company) {
                    Some(ns) => run.visible_ns.push(ns),
                    None => client.failed += 1,
                }
            }
        }
        if workload.consume_inline {
            match client.poll(&mut run.consumers) {
                Some(messages) => run.consumed += messages,
                None => run.stream_errors += 1,
            }
        }
        if inline {
            run.pump_ns.push(client.pump());
        }
        if workload.consume_inline && !client.load_warehouse() {
            run.stream_errors += 1;
        }
        let window_ns = client.tracer.now_ns() - window;
        client.active_ns += window_ns;

        done += chunk_ops;
        let all = mark.ops_done.fetch_add(chunk_ops, Ordering::Relaxed) + chunk_ops;
        if all >= workload.rss_mark_ops {
            mark.mb.get_or_init(peak_rss_mb);
        }
        let over = done >= quota
            || matches!(config.stop, Stop::Seconds(s) if client.active_ns as f64 >= s * 1e9);
        slice_ops += chunk_ops;
        slice_ns += window_ns;
        if over || slice_ns >= SLICE.as_nanos() as u64 {
            let mut latencies = Vec::with_capacity(slice_ops as usize);
            for (class, from) in OpClass::ALL.into_iter().zip(&mut sliced) {
                let samples = client.samples(class);
                latencies.extend_from_slice(&samples[*from..]);
                *from = samples.len();
            }
            let latencies = Latencies::from_unsorted(latencies);
            let slowdown_after = host_slowdown();
            run.slices.push(Slice {
                ops: slice_ops,
                window_ns: slice_ns,
                p50_ns: latencies.ns(0.5),
                p95_ns: latencies.ns(0.95),
                host_slowdown: (slowdown_before + slowdown_after) / 2.0,
            });
            slowdown_before = slowdown_after;
            (slice_ops, slice_ns) = (0, 0);
        }
        if over {
            break;
        }
    }
    Ok(run)
}

/// The measured segment: one client that turns the stream tier itself, or
/// the concurrent assembly -- client threads beside a pump thread and the
/// push dispatcher, as `SiteBench::run` assembles them.
fn measured_segment<'a>(
    platform: &'a DataPlatform,
    config: &RunConfig,
    skews: &Skews,
    epoch: Instant,
) -> Result<Segment<'a>, String> {
    let clients = config.workload.clients as u64;
    let mark = RssMark::default();
    if clients == 1 {
        let mut run = client_loop(platform, config, skews, epoch, 0, &mark)?;
        return Ok(Segment {
            wall_s: run.client.active_ns as f64 / 1e9,
            pump_ns: std::mem::take(&mut run.pump_ns),
            clients: vec![run],
            pump_tracer: None,
            rss_mb_at_mark: mark.mb.get().copied(),
            stream_errors: 0,
        });
    }

    let dispatcher = platform.start_stream_dispatch();
    let stop_pump = AtomicBool::new(false);
    let pump_loop = || {
        let mut tracer = Tracer::new(epoch, config.trace);
        let mut watch = platform.relay.scn_watch();
        let (mut backoff, mut errors, mut pump_ns, mut id) =
            (PUMP_MIN_BACKOFF, 0u64, Vec::new(), u64::MAX << 40);
        while !stop_pump.load(Ordering::Acquire) {
            id += 1;
            let root = tracer.open("core.pump", None, id);
            if platform.pump_streams().is_err() {
                errors += 1;
            }
            pump_ns.push(tracer.close(root));
            backoff = match watch.wait_newer(backoff) {
                Some(_) => PUMP_MIN_BACKOFF,
                None => (backoff * 2).min(PUMP_MAX_BACKOFF),
            };
        }
        (tracer, pump_ns, errors)
    };
    let start = Instant::now();
    let (runs, wall_s, (pump_tracer, pump_ns, pump_errors)) = std::thread::scope(|scope| {
        let pump = scope.spawn(pump_loop);
        let mark = &mark;
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                scope.spawn(move || client_loop(platform, config, skews, epoch, index, mark))
            })
            .collect();
        let runs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect();
        let wall_s = start.elapsed().as_secs_f64();
        stop_pump.store(true, Ordering::Release);
        (runs, wall_s, pump.join().expect("the pump thread panicked"))
    });
    let dispatch = dispatcher.stop();
    Ok(Segment {
        clients: runs.into_iter().collect::<Result<_, _>>()?,
        pump_tracer: Some(pump_tracer),
        pump_ns,
        wall_s,
        rss_mb_at_mark: mark.mb.get().copied(),
        stream_errors: pump_errors + dispatch.errors,
    })
}

/// Load has stopped: turn the stream tier until it has nothing left,
/// empty the online consumers, load the warehouse. Returns messages
/// consumed and stream-tier errors.
fn drain(
    platform: &DataPlatform,
    poller: &mut Client,
    consumers: &mut Vec<SimpleConsumer>,
) -> Result<(u64, u64), String> {
    let mut errors = 0;
    for _ in 0..2 {
        if platform.pump_streams().is_err() {
            errors += 1;
        }
    }
    if consumers.is_empty() {
        *consumers = open_consumers(platform)?;
    }
    let consumed = match poller.poll(consumers) {
        Some(messages) => messages,
        None => {
            errors += 1;
            0
        }
    };
    if platform.force_warehouse_load().is_err() {
        errors += 1;
    }
    Ok((consumed, errors))
}

fn snapshot(platform: &DataPlatform) -> (MetricsSnapshot, MetricsSnapshot, f64) {
    let started = Instant::now();
    let site = platform.metrics_snapshot();
    // Espresso's Helix controller reports to a registry of its own.
    let helix = platform.espresso.controller().metrics().snapshot();
    (site, helix, started.elapsed().as_secs_f64() * 1e3)
}

/// Sum over every counter of the site registry with this prefix and suffix.
fn counter_sum(snapshot: &MetricsSnapshot, prefix: &str, suffix: &str) -> u64 {
    snapshot
        .iter()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .filter_map(|(name, _)| snapshot.counter(name))
        .sum()
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples: samples as u64,
    }
}

/// The correctness gates, after the last drain.
fn check_gates(
    bench: &SiteBench,
    oracle: &Oracle,
    sent: u64,
    consumed: u64,
    stream_errors: u64,
) -> Vec<Gate> {
    let platform = bench.platform();
    let end = platform.metrics_snapshot();
    let lag = end.gauge("databus.client.relay_lag_scns").unwrap_or(-1);
    let (newest, last) = (platform.relay.newest_scn(), platform.primary.last_scn());
    let warehouse_rows = platform.warehouse_rows() as u64;
    let counter = |name: &str| end.counter(name).unwrap_or(0);
    let write_failures = counter("voldemort.client.quorum.write_failures");
    let failovers = counter("espresso.router.failovers");
    vec![
        Gate::check(
            "databus.lag_drains",
            lag == 0 && newest == last,
            format!("client lag {lag} scns; relay newest_scn {newest} vs primary last_scn {last}"),
        ),
        Gate::of("follow.exactly_once", oracle.check_follows(bench)),
        Gate::of("profile.last_write_reads_back", oracle.check_profiles(platform)),
        Gate::check(
            "activity.sent_consumed_loaded",
            sent == consumed && sent == warehouse_rows,
            format!("sent {sent}; consumed online {consumed}; warehouse rows {warehouse_rows}"),
        ),
        Gate::check(
            "no_partial_failures",
            write_failures == 0 && failovers == 0 && stream_errors == 0,
            format!(
                "voldemort write_failures {write_failures}; espresso failovers {failovers}; pump, poll and dispatch errors {stream_errors}"
            ),
        ),
    ]
}

/// What the run observed beside its spans: registry snapshots around the
/// measured segment (site registry, Helix's own) and a few timings.
struct Observed<'a> {
    before: (&'a MetricsSnapshot, &'a MetricsSnapshot),
    after: (&'a MetricsSnapshot, &'a MetricsSnapshot),
    snapshot_ms: f64,
    drain_ms: f64,
    relay_buffered_mb: f64,
    main_ops: u64,
    main_sends: u64,
    /// Latencies of the activity sends.
    sends: Latencies,
    prepare: PrepareStats,
}

/// The per-layer metrics of a traced run, in the order of `BENCHMARK.json`.
fn layer_metrics(
    segment: &Segment,
    per_class: &[Metric],
    observed: &Observed,
    probed: Vec<(&'static str, f64, usize)>,
) -> Vec<Metric> {
    let mix: Vec<&Client> = segment.clients.iter().map(|run| &run.client).collect();
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    let mut spans = 0usize;
    for tracer in mix
        .iter()
        .map(|c| &c.tracer)
        .chain(segment.pump_tracer.as_ref())
    {
        spans += tracer.spans().len();
        for (name, t) in tracer.totals() {
            let entry = totals.entry(name).or_default();
            entry.count += t.count;
            entry.busy_ns += t.busy_ns;
            entry.self_ns += t.self_ns;
        }
    }
    let busy_s = |span: &str| totals.get(span).map_or(0.0, |t| t.busy_ns as f64 / 1e9);
    let calls = |span: &str| totals.get(span).map_or(0, |t| t.count as usize);
    let span_latencies = |span: &str| {
        Latencies::from_unsorted(mix.iter().flat_map(|c| c.tracer.durations(span)).collect())
    };
    let (before, helix_before) = observed.before;
    let (after, helix_after) = observed.after;
    let counter = |s: &MetricsSnapshot, name: &str| s.counter(name).unwrap_or(0);
    let delta = |name: &str| counter(after, name).saturating_sub(counter(before, name)) as f64;
    let delta_sum = |prefix: &str, suffix: &str| {
        counter_sum(after, prefix, suffix).saturating_sub(counter_sum(before, prefix, suffix))
            as f64
    };
    let per = |value: f64, by: f64| if by > 0.0 { value / by } else { 0.0 };

    let mut layers = Vec::new();
    let mut add = |rows: &[(&str, f64, &'static str, usize)]| {
        layers.extend(
            rows.iter()
                .map(|&(name, value, unit, n)| metric(name, value, unit, n)),
        );
    };

    let pumps = Latencies::from_unsorted(segment.pump_ns.clone());
    let pump_share = per(pumps.sum_s(), segment.wall_s);
    add(&[
        ("core.main_ops", observed.main_ops as f64, "count", 0),
        ("core.pump.calls", pumps.count() as f64, "count", 0),
        ("core.pump.busy_s", pumps.sum_s(), "s", pumps.count()),
        ("core.pump.share", pump_share, "ratio", pumps.count()),
        ("core.pump.p50_us", pumps.us(0.5), "us", pumps.count()),
        ("core.pump.p95_us", pumps.us(0.95), "us", pumps.count()),
        (
            "core.pump_rest.busy_s",
            busy_s("core.pump_rest"),
            "s",
            calls("core.pump_rest"),
        ),
        (
            "core.follow_company.busy_s",
            busy_s("follow_write"),
            "s",
            calls("follow_write"),
        ),
        (
            "core.update_profile.busy_s",
            busy_s("profile_update"),
            "s",
            calls("profile_update"),
        ),
    ]);
    for m in per_class {
        add(&[(&m.name, m.value, m.unit, m.samples as usize)]);
    }
    let prepare = observed.prepare;
    let (generate_s, load_s) = (
        prepare.generate_wall.as_secs_f64(),
        prepare.load_wall.as_secs_f64(),
    );
    let overlap_s = (generate_s + load_s - prepare.wall.as_secs_f64()).max(0.0);
    let generate_own_s: f64 = segment.clients.iter().map(|run| run.generate_s).sum();
    let gen_ops_per_s = per(observed.main_ops as f64, generate_own_s);
    add(&[
        ("core.drain_ms", observed.drain_ms, "ms", 1),
        ("core.prepare_load_s", load_s, "s", 1),
        ("core.prepare_overlap_s", overlap_s, "s", 1),
        ("workload.graph_generate_s", generate_s, "s", 1),
        (
            "workload.gen_ops_per_s",
            gen_ops_per_s,
            "1/s",
            observed.main_ops as usize,
        ),
    ]);

    // Only the threaded, traced run watches follows become visible.
    let visible = Latencies::from_unsorted(
        segment
            .clients
            .iter()
            .flat_map(|run| run.visible_ns.iter().copied())
            .collect(),
    );
    add(&[
        (
            "core.mt.follow_visible_p50_us",
            visible.us(0.5),
            "us",
            visible.count(),
        ),
        (
            "core.mt.follow_visible_p95_us",
            visible.us(0.95),
            "us",
            visible.count(),
        ),
    ]);

    add(&[
        (
            "sqlstore.commits",
            delta("sqlstore.db.primary.commits"),
            "count",
            0,
        ),
        (
            "databus.events_relayed",
            delta("databus.relay.primary.events_relayed"),
            "count",
            0,
        ),
        (
            "databus.windows_ingested",
            delta("databus.relay.primary.windows_ingested"),
            "count",
            0,
        ),
        (
            "databus.windows_processed",
            delta("databus.client.windows_processed"),
            "count",
            0,
        ),
        (
            "databus.relay_buffered_mb",
            observed.relay_buffered_mb,
            "MB",
            1,
        ),
    ]);
    for span in [
        "databus.bootstrap_catch_up",
        "databus.bootstrap_apply_log",
        "espresso.pump_replication",
        "voldemort.ro_get",
        "espresso.get",
        "espresso.multi_get",
        "workload.pymk_decode",
        "kafka.poll",
    ] {
        add(&[(&format!("{span}.busy_s"), busy_s(span), "s", calls(span))]);
    }
    for span in ["voldemort.ro_get", "espresso.get", "espresso.multi_get"] {
        let latencies = span_latencies(span);
        add(&[(
            &format!("{span}_p50_us"),
            latencies.us(0.5),
            "us",
            latencies.count(),
        )]);
    }
    let multi_gets = calls("espresso.multi_get");
    let multi_get_keys: u64 = mix.iter().map(|c| c.multi_get_keys).sum();
    add(&[
        (
            "espresso.keys_per_multi_get",
            per(multi_get_keys as f64, multi_gets as f64),
            "count",
            multi_gets,
        ),
        (
            "espresso.router_requests",
            delta("espresso.router.requests"),
            "count",
            0,
        ),
        (
            "voldemort.puts",
            delta_sum("voldemort.node", ".put.count"),
            "count",
            0,
        ),
        (
            "voldemort.gets",
            delta_sum("voldemort.node", ".get.count"),
            "count",
            0,
        ),
        (
            "voldemort.bytes_in_mb",
            delta_sum("voldemort.node", ".bytes_in") / 1e6,
            "MB",
            0,
        ),
    ]);

    let requests = delta("kafka.producer.requests");
    let messages = delta_sum("kafka.broker", ".produce.messages");
    let wire_bytes = delta("kafka.producer.wire_bytes");
    let sends = &observed.sends;
    let (sent, kmsgs) = (
        observed.main_sends as usize,
        observed.main_sends as f64 / 1e3,
    );
    // With Kafka alone at work, what a pump does is mirror.
    let mirror_and_load_us = (pumps.sum_s() + busy_s("kafka.warehouse_load")) * 1e6;
    add(&[
        ("kafka.producer_requests", requests, "count", 0),
        (
            "kafka.msgs_per_request",
            per(messages, requests),
            "count",
            requests as usize,
        ),
        (
            "kafka.wire_bytes_per_msg",
            per(wire_bytes, messages),
            "count",
            messages as usize,
        ),
        (
            "kafka.broker_bytes_in_mb",
            delta_sum("kafka.broker", ".produce.bytes_in") / 1e6,
            "MB",
            0,
        ),
        (
            "kafka.fetch_bytes_out_mb",
            delta_sum("kafka.broker", ".fetch.bytes_out") / 1e6,
            "MB",
            0,
        ),
        ("kafka.send.busy_s", sends.sum_s(), "s", sends.count()),
        (
            "kafka.send_p50_ns",
            sends.ns(0.5) as f64,
            "ns",
            sends.count(),
        ),
        (
            "kafka.send_p99_us",
            sends.supported_us(0.99),
            "us",
            sends.count(),
        ),
        (
            "kafka.poll_us_per_kmsg",
            per(busy_s("kafka.poll") * 1e6, kmsgs),
            "us",
            sent,
        ),
        (
            "kafka.mirror_warehouse_us_per_kmsg",
            per(mirror_and_load_us, kmsgs),
            "us",
            sent,
        ),
    ]);

    let transitions = |s: &MetricsSnapshot| counter(s, "helix.espresso.transitions_fired");
    let fired = transitions(helix_after).saturating_sub(transitions(helix_before));
    add(&[
        (
            "zk.watch_events_fired",
            delta("zk.watch_events_fired"),
            "count",
            0,
        ),
        ("helix.transitions_fired", fired as f64, "count", 0),
        ("commons.metrics_snapshot_ms", observed.snapshot_ms, "ms", 1),
    ]);
    for (name, p50_us, calls) in probed {
        add(&[(name, p50_us, "us", calls)]);
    }

    let covered: u64 = mix.iter().map(|c| c.tracer.root_ns()).sum();
    let active: u64 = mix.iter().map(|c| c.active_ns).sum();
    add(&[
        ("trace.spans", spans as f64, "count", 0),
        (
            "trace.coverage",
            per(covered as f64, active as f64),
            "ratio",
            spans,
        ),
        // Filled in by the caller, which knows of the untraced run.
        ("trace.overhead_pct", 0.0, "%", 0),
    ]);
    layers
}

/// A finished run. The caller drops the platform or, about to exit,
/// forgets it: dropping a loaded platform takes a second and more, and
/// measures nothing.
pub struct Finished {
    pub report: RunReport,
    pub bench: SiteBench,
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Finished, String> {
    let SetUp {
        bench,
        skews,
        seconds,
        host_slowdown,
    } = set_up(config.members(), config.seed, config.workload.clients == 1)?;
    // Everything after set-up runs on a thread of its own, as a frontend's
    // requests do: not on the thread that loaded the population, whose
    // allocator arena holds all of it.
    let report = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("client-0".into())
            .spawn_scoped(scope, || {
                measure(config, &bench, &skews, seconds, host_slowdown)
            })
            .expect("spawning the client thread")
            .join()
            .expect("the client thread panicked")
    })?;
    Ok(Finished { report, bench })
}

/// The three timings a run gates, from its clients' slices: each is the
/// median over the slices, so a slice the host stalled moves nothing; the
/// clients' rates add up.
fn over_slices(clients: &[ClientRun], of: fn(&Slice) -> [f64; 3]) -> [f64; 3] {
    let rate = clients
        .iter()
        .map(|run| median(run.slices.iter().map(|slice| of(slice)[0]).collect()))
        .sum();
    let pooled = |timing: usize| {
        median(
            clients
                .iter()
                .flat_map(|run| run.slices.iter().map(|slice| of(slice)[timing]))
                .collect(),
        )
    };
    [rate, pooled(1), pooled(2)]
}

/// p50 to p999 of one latency population, as `<prefix>_p50_us` and so on;
/// a percentile the samples do not support reads 0.
fn percentile_metrics(prefix: &str, latencies: &Latencies) -> Vec<Metric> {
    PERCENTILES
        .iter()
        .map(|&(p, name)| {
            metric(
                &format!("{prefix}_{name}_us"),
                latencies.supported_us(p),
                "us",
                latencies.count(),
            )
        })
        .collect()
}

fn measure(
    config: &RunConfig,
    bench: &SiteBench,
    skews: &Skews,
    setup_s: f64,
    setup_slowdown: f64,
) -> Result<RunReport, String> {
    let workload = config.workload;
    let mut phases = vec![("set_up", setup_s)];
    let population = population_digest(bench);
    let ops = ops_digest(skews, workload.mix, workload.clients as u64, config.seed);
    let platform: &DataPlatform = bench.platform();

    // ---- The measured segment ------------------------------------------
    let epoch = Instant::now();
    let (before, helix_before, snapshot_ms) = snapshot(platform);
    let mut segment = measured_segment(platform, config, skews, epoch)?;
    phases.push(("measure", segment.wall_s));
    let started = Instant::now();
    for run in &mut segment.clients {
        run.client.tracer.stop_keeping();
        run.client.flush_sends();
    }
    let first = &mut segment.clients[0];
    let (consumed, errors) = drain(platform, &mut first.client, &mut first.consumers)?;
    let drain_ms = started.elapsed().as_secs_f64() * 1e3;
    phases.push(("drain", drain_ms / 1e3));
    let (after, helix_after, _) = snapshot(platform);
    let relay_buffered_mb = platform.relay.buffered_bytes() as f64 / 1e6;

    let mut oracle = Oracle::default();
    let (mut attempted, mut failed, mut sends) = (0u64, 0u64, 0u64);
    let (mut consumed, mut stream_errors) = (consumed, segment.stream_errors + errors);
    for run in &mut segment.clients {
        let client = &run.client;
        attempted += client.attempted;
        failed += client.failed;
        sends += client.sends_published();
        consumed += run.consumed;
        stream_errors += run.stream_errors + client.pump_errors;
        oracle.merge(std::mem::take(&mut run.oracle));
    }
    let rss_mb = segment.rss_mb_at_mark.unwrap_or_else(peak_rss_mb);

    // ---- Gates, probes, metrics ------------------------------------------
    let started = Instant::now();
    let gates = check_gates(bench, &oracle, sends, consumed, stream_errors);
    phases.push(("gates", started.elapsed().as_secs_f64()));
    let started = Instant::now();
    let probed = if config.trace {
        probes::run(bench, config.seed, config.probe_calls())?
    } else {
        Vec::new()
    };
    phases.push(("probes", started.elapsed().as_secs_f64()));

    let gates_green = gates.iter().all(|g| g.passed);
    if !gates_green {
        // A red gate means the stores do not hold what was acknowledged:
        // no op of the run can be trusted.
        failed = attempted;
    }

    let samples = |classes: &[OpClass]| {
        Latencies::from_unsorted(
            segment
                .clients
                .iter()
                .flat_map(|run| classes.iter().flat_map(|&c| run.client.samples(c)))
                .copied()
                .collect(),
        )
    };
    let slices: usize = segment.clients.iter().map(|run| run.slices.len()).sum();
    let [ops_per_s, op_p50_us, op_p95_us] = over_slices(&segment.clients, Slice::adjusted);
    let end_to_end = vec![
        metric("setup_s", setup_s / setup_slowdown, "s", 1),
        metric("ops_per_s", ops_per_s, "1/s", attempted as usize),
        metric("peak_rss_mb", rss_mb, "MB", 1),
        metric("op_p50_us", op_p50_us, "us", attempted as usize),
        metric("op_p95_us", op_p95_us, "us", attempted as usize),
    ];
    let [ops_per_s, op_p50_us, op_p95_us] = over_slices(&segment.clients, Slice::as_measured);
    let host_slowdown = median(
        segment
            .clients
            .iter()
            .flat_map(|run| run.slices.iter().map(|slice| slice.host_slowdown))
            .collect(),
    );
    let as_measured = vec![
        metric("measured.setup_s", setup_s, "s", 1),
        metric("measured.ops_per_s", ops_per_s, "1/s", attempted as usize),
        metric("measured.op_p50_us", op_p50_us, "us", attempted as usize),
        metric("measured.op_p95_us", op_p95_us, "us", attempted as usize),
        metric("host.setup_slowdown", setup_slowdown, "ratio", 2),
        metric("host.slowdown", host_slowdown, "ratio", slices),
    ];
    let per_class: Vec<Metric> = OpClass::SERVING
        .into_iter()
        .flat_map(|class| percentile_metrics(&format!("core.{}", class.name()), &samples(&[class])))
        .collect();

    let (per_layer, trace_file) = if config.trace {
        let observed = Observed {
            before: (&before, &helix_before),
            after: (&after, &helix_after),
            snapshot_ms,
            drain_ms,
            relay_buffered_mb,
            main_ops: attempted,
            main_sends: sends,
            sends: samples(&[OpClass::ActivitySend]),
            prepare: bench.prepare_stats(),
        };
        let mut layers = layer_metrics(&segment, &per_class, &observed, probed);
        layers.extend(
            as_measured
                .iter()
                .filter(|m| m.name.starts_with("host."))
                .cloned(),
        );
        let mut tracers: Vec<(String, &Tracer)> = Vec::new();
        for (i, run) in segment.clients.iter().enumerate() {
            tracers.push((format!("client-{i}"), &run.client.tracer));
        }
        tracers.extend(
            segment
                .pump_tracer
                .iter()
                .map(|pump| ("pump".to_string(), pump)),
        );
        (layers, Some(trace_json(workload.name, &tracers)))
    } else {
        (Vec::new(), None)
    };

    Ok(RunReport {
        config: config.clone(),
        correct: gates_green && failed == 0,
        attempted,
        failed,
        end_to_end,
        as_measured,
        per_class,
        per_layer,
        gates,
        ops_digest: ops,
        population_digest: population,
        rss_mark_reached: segment.rss_mb_at_mark.is_some(),
        phases,
        trace_json: trace_file,
    })
}
