//! Runs a single site-bench population point — the inner loop of the
//! C-24 population sweep — without the surrounding Criterion harness.
//! Useful for profiling one point (especially the 1M-member one)
//! without re-running the whole sweep.
//!
//! Knobs via env: `MEMBERS` (default 1_000_000), `DRIVERS` (128),
//! `OPS_TOTAL` (12_800), `WORKERS` (8).

use li_bench::site::{recorded_platform, run, RunOptions};
use linkedin_data_infra::{ShardMode, SiteBench, SiteBenchConfig};
use std::time::Instant;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let members = env_u64("MEMBERS", 1_000_000);
    let drivers = env_u64("DRIVERS", 128) as usize;
    let ops_total = env_u64("OPS_TOTAL", 12_800) as usize;
    let workers = env_u64("WORKERS", 8) as usize;

    let mut config =
        SiteBenchConfig::smoke(members, drivers, ops_total / drivers, 42);
    config.platform = recorded_platform(ShardMode::Parallel);
    let options = RunOptions {
        workers,
        ..RunOptions::smoke()
    };

    eprintln!("[site_point] preparing {members} members...");
    let start = Instant::now();
    let bench = SiteBench::prepare(config).expect("streaming prepare");
    let stats = bench.prepare_stats();
    eprintln!(
        "[site_point] prepared in {:.2?} (generate {:.2?}, espresso {:.2?}, load {:.2?}, {} chunks)",
        start.elapsed(),
        stats.generate_wall,
        stats.espresso_wall,
        stats.load_wall,
        stats.chunks
    );

    eprintln!("[site_point] running {drivers} drivers x {} ops...", ops_total / drivers);
    let run_start = Instant::now();
    let report = run(bench, &options).expect("run point");
    eprintln!(
        "[site_point] ran in {:.2?}: {:.0} ops/s, acked {}, slo_ok {}",
        run_start.elapsed(),
        report.throughput_ops_per_sec,
        report.ops_acked,
        report.all_gates_pass()
    );
    for failure in report.gate_failures() {
        eprintln!("[site_point] gate {}: {}", failure.name, failure.detail);
    }
}
