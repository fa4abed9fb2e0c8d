//! Common set-up of every workload: the recorded platform shape, the
//! seeded population, and the key skews over it.

use std::time::Instant;

use li_commons::exec::FanOutMode;
use linkedin_data_infra::{PlatformConfig, ShardMode, SiteBench, SiteBenchConfig};

use crate::host::HostProbe;
use crate::ops::{Fnv64, Skews};

/// Member population of the gated runs (companies are a tenth of it).
pub const FULL_MEMBERS: u64 = 100_000;
/// Member population of the `--smoke` profile.
pub const SMOKE_MEMBERS: u64 = 2_000;

/// The platform shape, spelled out so that a changed default in the
/// program cannot silently change what is measured.
pub fn platform_config() -> PlatformConfig {
    PlatformConfig {
        voldemort_nodes: 3,
        kafka_brokers: 2,
        espresso_nodes: 3,
        espresso_partitions: 8,
        activity_partitions: 4,
        shard_mode: ShardMode::Parallel,
    }
}

pub fn platform_shape() -> String {
    let c = platform_config();
    format!(
        "voldemort_nodes={} kafka_brokers={} espresso_nodes={} espresso_partitions={} activity_partitions={} shard_mode={:?}",
        c.voldemort_nodes, c.kafka_brokers, c.espresso_nodes, c.espresso_partitions, c.activity_partitions, c.shard_mode
    )
}

pub struct SetUp {
    pub bench: SiteBench,
    pub skews: Skews,
    /// What set-up took, as measured.
    pub seconds: f64,
    /// The host's slowdown while it ran: the mean of a probe before and
    /// one after.
    pub host_slowdown: f64,
}

/// Builds the platform, streams the population into every tier and builds
/// the op generator's skew tables.
///
/// With `one_client`, Espresso's multi-key reads run on the calling thread.
/// The platform's `ShardMode::Parallel` hands each of them to a pool of
/// eight threads; on two cores that is 45 000 futex sleeps a second and
/// half the run's CPU time in the kernel, `read_heavy` measures the
/// scheduler (24K ops/s, p95 148 us, against 130K and 25 us on the calling
/// thread) and no two runs agree. The concurrent workload keeps the pool.
pub fn set_up(members: u64, seed: u64, one_client: bool) -> Result<SetUp, String> {
    let mut probe = HostProbe::new();
    let before = probe.slowdown();
    let started = Instant::now();
    let mut config = SiteBenchConfig::smoke(members, 1, 1, seed);
    config.platform = platform_config();
    let bench = SiteBench::prepare(config).map_err(|e| format!("prepare failed: {e}"))?;
    if one_client {
        bench
            .platform()
            .espresso
            .set_fan_out_mode(FanOutMode::Deterministic);
    }
    let graph = bench.graph();
    let skews = Skews::new(graph.member_count(), graph.company_count());
    let seconds = started.elapsed().as_secs_f64();
    Ok(SetUp {
        skews,
        seconds,
        host_slowdown: (before + probe.slowdown()) / 2.0,
        bench,
    })
}

/// Counts of the population and a hash of every follow edge, profile byte
/// and PYMK id, so that an edit to `li_workload` or `vendor/rand` cannot
/// silently change the load.
pub fn population_digest(bench: &SiteBench) -> u64 {
    let graph = bench.graph();
    let mut digest = Fnv64::default();
    digest.u64(graph.member_count());
    digest.u64(graph.company_count());
    digest.u64(graph.edge_count() as u64);
    for member in 0..graph.member_count() {
        for &company in graph.follows_of(member) {
            digest.u64(company);
        }
        digest.bytes(graph.profile_of(member).as_bytes());
        for &(id, _) in &graph.pymk_of(member).recommendations {
            digest.u64(id);
        }
    }
    digest.0
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
