//! Experiment C-24 (DESIGN.md / EXPERIMENTS.md): site-scale closed-loop
//! throughput/latency knee under SLO gates, now at site scale.
//!
//! The paper's systems are specified tier by tier, but the site runs them
//! *together*: profile reads against Espresso, PYMK against Voldemort
//! read-only stores, follows through the primary → Databus → the Company
//! Follow caches, activity events through Kafka into the warehouse. This
//! bench drives that whole assembly with the closed-loop member
//! population of `li_workload::site` (Zipfian follower counts, power-law
//! write skew) and records two sweeps:
//!
//! * **driver sweep** — fixed population, driver count swept far past the
//!   old thread-per-driver ceiling (hundreds of logical drivers
//!   multiplexed onto 8 scheduler workers by the M:N scheduler) to find
//!   the throughput/latency knee;
//! * **population sweep** — fixed load, population swept from 2K members
//!   toward a million, each point seeded by the *streaming* prepare
//!   (the generator thread seeds Espresso's half while the loader loads
//!   the primary's) with each thread's busy wall recorded and split into
//!   its phases — `generate + espresso + load > wall` is the direct
//!   evidence the two threads overlapped.
//!
//! Every load point re-runs the full SLO gate set of `li_bench::site`
//! (per-tier p99, Databus/Kafka lag drained to zero, cross-tier write
//! conservation), so a "fast" point that loses writes or leaves lag
//! behind does not count. The knee is the highest-throughput point that
//! still clears every gate. Snapshot lives in BENCH_site_scale.json.

use criterion::{criterion_group, criterion_main, Criterion};
use li_bench::site::{recorded_platform, run, RunOptions, SiteBenchReport, SloThresholds};
use linkedin_data_infra::{PrepareStats, ShardMode, SiteBench, SiteBenchConfig};
use std::hint::black_box;
use std::time::Duration;

const MEMBERS: u64 = 2000;
// Every load point performs the same total work; the driver count only
// changes how concurrently it is offered. This keeps throughput figures
// comparable across points and each point long enough to measure.
const OPS_TOTAL: usize = 12800;
const SEED: u64 = 42;
// Past 32 the old harness would have needed an OS thread per driver; the
// M:N scheduler runs every point on SCHED_WORKERS pool threads.
const DRIVER_SWEEP: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 512];
const SCHED_WORKERS: usize = 8;

// Population sweep: fixed offered load, member count swept toward the
// paper's site scale. Every point is seeded by the streaming prepare.
// `SITE_BENCH_MAX_MEMBERS` caps the sweep for quick local runs.
const POPULATION_SWEEP: [u64; 4] = [2_000, 20_000, 100_000, 1_000_000];
const POPULATION_DRIVERS: usize = 128;

/// The sweep's serving budgets — far tighter than the CI smoke budgets:
/// reads must stay in single-digit milliseconds at p99 and the primary's
/// serialized follow write under 25ms. The knee is where offered load
/// can no longer grow without blowing one of these.
fn sweep_slo() -> SloThresholds {
    SloThresholds {
        profile_read_p99: Duration::from_millis(10),
        pymk_read_p99: Duration::from_millis(10),
        follow_write_p99: Duration::from_millis(25),
        activity_p99: Duration::from_millis(10),
    }
}

fn point_config(
    members: u64,
    drivers: usize,
    ops_per_driver: usize,
    mode: ShardMode,
) -> SiteBenchConfig {
    let mut config = SiteBenchConfig::smoke(members, drivers, ops_per_driver, SEED);
    config.platform = recorded_platform(mode);
    config
}

fn point_options(slo: SloThresholds) -> RunOptions {
    RunOptions {
        slo,
        migrate_partitions: 0,
        workers: SCHED_WORKERS,
    }
}

/// One driver-sweep point. Every point prepares the same population —
/// the graph is a pure function of (`MEMBERS`, `SEED`) — so the knee
/// comes from load, not from a different graph shape per point.
fn run_point(drivers: usize, mode: ShardMode) -> SiteBenchReport {
    let bench = SiteBench::prepare(point_config(MEMBERS, drivers, OPS_TOTAL / drivers, mode))
        .expect("prepare load point");
    run(bench, &point_options(sweep_slo())).expect("run load point")
}

fn p99_ms(report: &SiteBenchReport, tier: &str) -> f64 {
    report
        .tier_latency
        .get(tier)
        .map(|h| h.p99 as f64 / 1e6)
        .unwrap_or(0.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Drivers at which the pooled run is compared against the
/// `ShardMode::Deterministic` run of the same logical drivers: serial on
/// the calling thread, no push dispatcher, Espresso inline. (Stripe
/// counts are the same on both sides since PR 18; the row recorded in
/// `BENCH_site_scale.json` predates that and also collapsed the stripes.)
const BASELINE_DRIVERS: usize = 8;

fn sweep_drivers() -> String {
    println!(
        "\n=== C-24a: driver knee (population {MEMBERS}, {OPS_TOTAL} ops/point, \
         {SCHED_WORKERS} scheduler workers) ==="
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "drivers",
        "ops",
        "ops/s",
        "profile p99",
        "pymk p99",
        "follow p99",
        "activity p99",
        "slo_ok"
    );
    let mut points = Vec::new();
    for drivers in DRIVER_SWEEP {
        let report = run_point(drivers, ShardMode::Parallel);
        let slo_ok = report.all_gates_pass();
        println!(
            "{:>8} {:>10} {:>12.0} {:>9.3}ms {:>9.3}ms {:>9.3}ms {:>9.3}ms {:>8}",
            drivers,
            report.ops_acked,
            report.throughput_ops_per_sec,
            p99_ms(&report, "profile_read"),
            p99_ms(&report, "pymk_read"),
            p99_ms(&report, "follow_write"),
            p99_ms(&report, "activity"),
            slo_ok
        );
        if !slo_ok {
            for failure in report.gate_failures() {
                println!("         gate {}: {}", failure.name, failure.detail);
            }
        }
        points.push((drivers, report, slo_ok));
    }

    // The knee: the highest-throughput point that still clears every SLO
    // gate. Past it, offered load only buys latency (or gate failures).
    let knee = points
        .iter()
        .filter(|(_, _, ok)| *ok)
        .max_by(|a, b| {
            a.1.throughput_ops_per_sec
                .total_cmp(&b.1.throughput_ops_per_sec)
        })
        .map(|(drivers, _, _)| *drivers)
        .expect("at least one load point must clear the gates");
    println!("knee: {knee} drivers (highest-throughput SLO-clean point)");

    // Serialized baseline: the same logical drivers run one after the
    // other on this thread (`sched::run_serial`), with no dispatcher —
    // the speedup of the pooled run at the same driver count is the
    // figure of merit.
    let baseline = run_point(BASELINE_DRIVERS, ShardMode::Deterministic);
    let sharded_at_baseline = points
        .iter()
        .find(|(d, _, _)| *d == BASELINE_DRIVERS)
        .map(|(_, r, _)| r)
        .expect("sweep covers the baseline driver count");
    let speedup =
        sharded_at_baseline.throughput_ops_per_sec / baseline.throughput_ops_per_sec.max(1e-9);
    println!(
        "serialized baseline (Deterministic, {BASELINE_DRIVERS} drivers): {:.0} ops/s, follow p99 {:.3}ms",
        baseline.throughput_ops_per_sec,
        p99_ms(&baseline, "follow_write"),
    );
    println!(
        "sharded vs serialized at {BASELINE_DRIVERS} drivers: {:.2}x ({:.0} vs {:.0} ops/s)",
        speedup,
        sharded_at_baseline.throughput_ops_per_sec,
        baseline.throughput_ops_per_sec
    );

    let throughput_at = |drivers: usize| {
        points
            .iter()
            .find(|(d, _, _)| *d == drivers)
            .map(|(_, r, _)| r.throughput_ops_per_sec)
            .unwrap_or(0.0)
    };
    let scaling_1_to_8 = throughput_at(8) / throughput_at(1).max(1e-9);
    println!(
        "scaling 1->8 drivers: {:.2}x ({:.0} -> {:.0} ops/s)",
        scaling_1_to_8,
        throughput_at(1),
        throughput_at(8)
    );

    let results: Vec<String> = points
        .iter()
        .map(|(drivers, report, slo_ok)| {
            format!(
                "{{ \"drivers\": {drivers}, \"ops_acked\": {}, \"throughput_ops_per_sec\": {:.1}, \
                 \"profile_read_p99_ms\": {:.3}, \"pymk_read_p99_ms\": {:.3}, \
                 \"follow_write_p99_ms\": {:.3}, \"activity_p99_ms\": {:.3}, \
                 \"slo_ok\": {slo_ok}, \"knee\": {} }}",
                report.ops_acked,
                report.throughput_ops_per_sec,
                p99_ms(report, "profile_read"),
                p99_ms(report, "pymk_read"),
                p99_ms(report, "follow_write"),
                p99_ms(report, "activity"),
                *drivers == knee
            )
        })
        .collect();
    format!(
        "\"driver_sweep\": {{ \"members\": {MEMBERS}, \"ops_total\": {OPS_TOTAL}, \"seed\": {SEED}, \
         \"scheduler_workers\": {SCHED_WORKERS}, \"knee_drivers\": {knee}, \
         \"serialized_baseline\": {{ \"mode\": \"deterministic\", \"drivers\": {BASELINE_DRIVERS}, \
         \"throughput_ops_per_sec\": {:.1}, \"follow_write_p99_ms\": {:.3}, \"slo_ok\": {} }}, \
         \"speedup_vs_serialized\": {speedup:.2}, \"scaling_1_to_8\": {scaling_1_to_8:.2}, \
         \"results\": [{}] }}",
        baseline.throughput_ops_per_sec,
        p99_ms(&baseline, "follow_write"),
        baseline.all_gates_pass(),
        results.join(", ")
    )
}

/// The three per-thread busy walls of a prepare minus its wall clock: the
/// time the `site-gen` thread and the loader ran at once.
fn prepare_overlap(stats: &PrepareStats) -> f64 {
    secs(stats.generate_wall) + secs(stats.espresso_wall) + secs(stats.load_wall) - secs(stats.wall)
}

fn prepare_json(stats: &PrepareStats) -> String {
    format!(
        "{{ \"wall_s\": {:.3}, \"generate_wall_s\": {:.3}, \"espresso_wall_s\": {:.3}, \
         \"espresso_seed_wall_s\": {:.3}, \"espresso_pump_wall_s\": {:.3}, \
         \"load_wall_s\": {:.3}, \"chunk_load_wall_s\": {:.3}, \"follower_lists_wall_s\": {:.3}, \
         \"pymk_publish_wall_s\": {:.3}, \"drain_wall_s\": {:.3}, \"overlap_s\": {:.3}, \
         \"chunks\": {}, \"chunk_members\": {} }}",
        secs(stats.wall),
        secs(stats.generate_wall),
        secs(stats.espresso_wall),
        secs(stats.espresso_seed_wall),
        secs(stats.espresso_pump_wall),
        secs(stats.load_wall),
        secs(stats.chunk_load_wall),
        secs(stats.follower_lists_wall),
        secs(stats.pymk_publish_wall),
        secs(stats.drain_wall),
        prepare_overlap(stats),
        stats.chunks,
        stats.chunk_members
    )
}

/// Each prepare thread's busy time split into its phases.
fn prepare_phases(stats: &PrepareStats) -> String {
    format!(
        "site-gen: generate {:.2}s + Espresso seed {:.2}s + Espresso pumps {:.2}s; \
         loader: chunk loads {:.2}s + follower lists {:.2}s + PYMK publish {:.2}s + drain {:.2}s",
        secs(stats.generate_wall),
        secs(stats.espresso_seed_wall),
        secs(stats.espresso_pump_wall),
        secs(stats.chunk_load_wall),
        secs(stats.follower_lists_wall),
        secs(stats.pymk_publish_wall),
        secs(stats.drain_wall),
    )
}

fn sweep_population() -> String {
    let max_members: u64 = std::env::var("SITE_BENCH_MAX_MEMBERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(u64::MAX);
    println!(
        "\n=== C-24b: population sweep ({POPULATION_DRIVERS} drivers on {SCHED_WORKERS} workers, \
         {OPS_TOTAL} ops/point, streaming prepare) ==="
    );
    println!(
        "{:>10} {:>11} {:>11} {:>11} {:>11} {:>11} {:>12} {:>12} {:>8}",
        "members",
        "prepare",
        "generate",
        "espresso",
        "load",
        "overlap",
        "ops/s",
        "profile p99",
        "slo_ok"
    );
    let mut results = Vec::new();
    for members in POPULATION_SWEEP {
        if members > max_members {
            println!("{members:>10} skipped (SITE_BENCH_MAX_MEMBERS={max_members})");
            continue;
        }
        let config = point_config(
            members,
            POPULATION_DRIVERS,
            OPS_TOTAL / POPULATION_DRIVERS,
            ShardMode::Parallel,
        );
        // Population points gate on conservation and drain, not the
        // driver sweep's single-digit-ms knee budgets: one core serving
        // 128 concurrent closed-loop drivers runs tens-of-ms write p99s
        // at 10^5+ members (company inverted lists grow with the
        // population), and that latency is the honest reading. The smoke
        // budgets still trip on pathological serialization.
        let options = point_options(SloThresholds::smoke());
        let bench = SiteBench::prepare(config).expect("streaming prepare");
        let stats = bench.prepare_stats();
        // Progress marker between the phases: a stalled point is then
        // attributable to prepare vs run from the log alone.
        println!(
            "{members:>10} prepared in {:.2}s ({} chunks), running...",
            secs(stats.wall),
            stats.chunks
        );
        let report = run(bench, &options).expect("run population point");
        let slo_ok = report.all_gates_pass();
        let overlap = prepare_overlap(&stats);
        println!(
            "{:>10} {:>10.2}s {:>10.2}s {:>10.2}s {:>10.2}s {:>10.2}s {:>12.0} {:>9.3}ms {:>8}",
            members,
            secs(stats.wall),
            secs(stats.generate_wall),
            secs(stats.espresso_wall),
            secs(stats.load_wall),
            overlap,
            report.throughput_ops_per_sec,
            p99_ms(&report, "profile_read"),
            slo_ok
        );
        println!("{:>10} {}", "", prepare_phases(&stats));
        if !slo_ok {
            for failure in report.gate_failures() {
                println!("         gate {}: {}", failure.name, failure.detail);
            }
        }
        results.push(format!(
            "{{ \"members\": {members}, \"prepare\": {}, \"run_wall_s\": {:.3}, \
             \"ops_acked\": {}, \"throughput_ops_per_sec\": {:.1}, \
             \"profile_read_p99_ms\": {:.3}, \"pymk_read_p99_ms\": {:.3}, \
             \"follow_write_p99_ms\": {:.3}, \"activity_p99_ms\": {:.3}, \"slo_ok\": {slo_ok} }}",
            prepare_json(&stats),
            secs(report.load_wall),
            report.ops_acked,
            report.throughput_ops_per_sec,
            p99_ms(&report, "profile_read"),
            p99_ms(&report, "pymk_read"),
            p99_ms(&report, "follow_write"),
            p99_ms(&report, "activity"),
        ));
    }
    format!(
        "\"population_sweep\": {{ \"drivers\": {POPULATION_DRIVERS}, \
         \"scheduler_workers\": {SCHED_WORKERS}, \"ops_total\": {OPS_TOTAL}, \"seed\": {SEED}, \
         \"results\": [{}] }}",
        results.join(", ")
    )
}

fn bench_site_scale(c: &mut Criterion) {
    let driver_json = sweep_drivers();
    let population_json = sweep_population();
    println!("JSON: {{ {driver_json}, {population_json} }}");

    // Standard criterion report: one small end-to-end closed-loop run
    // (prepare + drive + gate evaluation) as a regression canary.
    let config = point_config(400, 2, 100, ShardMode::Parallel);
    let options = point_options(sweep_slo());
    let mut group = c.benchmark_group("site_scale");
    group.sample_size(10);
    group.bench_function("smoke_run", |b| {
        b.iter(|| {
            let bench = SiteBench::prepare(config.clone()).unwrap();
            black_box(run(bench, &options).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_site_scale
}
criterion_main!(benches);
