//! Experiment C-22 (DESIGN.md / EXPERIMENTS.md): quorum tail latency —
//! quorum width vs fan-out to all vs hedged reads.
//!
//! Paper §II.B: Voldemort reads are quorum reads against the key's
//! preference list. A read that contacts only R replicas puts a slow one
//! among them on the request's critical path. Contacting every replica
//! and completing at the R earliest replies masks it; a hedged read keeps
//! the contact budget at R and launches one backup request only after a
//! quantile-derived delay (Dean & Barroso's "tail at scale" scheme).
//!
//! Workload: a 6-node cluster (N=3, R=2, W=2), client→replica links at
//! 100µs, with **one replica that stalls at 2ms for a seeded 10% of
//! requests** (a GC-pause / hiccup model — rare enough that the latency
//! histogram's p95, which sets the hedge delay, stays fast). All three
//! modes replay the identical stall schedule. Each row is the client's
//! own simulated critical path (`QuorumStats::sim_latency`: when the
//! R-th earliest reply completed), so the numbers are exact and the same
//! on every host.
//!
//! * **quorum** — quorum width, no hedge: R replicas contacted.
//! * **parallel** — `ReadFanOut::All`: contact every replica, return at
//!   R. Masks the stall at +N/R× replica load.
//! * **hedged** — quorum width + `HedgeConfig`: masks the stall for
//!   ~the price of the stall rate in extra load.
//!
//! Acceptance: parallel p99 ≥ 2× better than quorum width; hedged p999
//! ≥ 2× better than quorum width with ≤ ~5% mean replica load increase.
//! Prints a JSON line, which EXPERIMENTS.md C-22 records.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use li_commons::ring::{HashRing, NodeId};
use li_commons::sim::{SimClock, SimNetwork};
use li_voldemort::{
    HedgeConfig, QuorumConfig, ReadFanOut, StoreClient, StoreDef, VoldemortCluster,
};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

const NODES: u16 = 6;
const KEYS: usize = 64;
const WARMUP: usize = 300;
const SAMPLES: usize = 4000;
const BASE_LATENCY: Duration = Duration::from_micros(100);
const STALL_LATENCY: Duration = Duration::from_millis(2);
const STALL_PROBABILITY: f64 = 0.10;
const SLOW: NodeId = NodeId(0);
const STALL_SEED: u64 = 11;

fn build_cluster() -> (Arc<VoldemortCluster>, Vec<Vec<u8>>) {
    let ids: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let ring = HashRing::balanced(16, &ids).unwrap();
    let cluster = VoldemortCluster::with_parts(
        ring,
        SimNetwork::reliable(),
        Arc::new(SimClock::new()),
    )
    .unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    for node in &ids {
        cluster
            .network()
            .set_link_latency(StoreClient::CLIENT_NODE, *node, BASE_LATENCY);
    }
    // Seed every key on its full preference list before any reads: a put
    // attempts every replica.
    let writer = cluster.client("s").unwrap();
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|j| format!("q{j}").into_bytes()).collect();
    for key in &keys {
        writer
            .put_initial(key, Bytes::from(format!("v-{}", keys.len())))
            .unwrap();
    }
    (cluster, keys)
}

struct ModeStats {
    label: &'static str,
    p50: Duration,
    p99: Duration,
    p999: Duration,
    mean: Duration,
    /// Mean replica `get` calls per client read (includes stragglers and
    /// hedge backups — the real work replicas perform).
    load_per_read: f64,
    hedges: u64,
    hedge_wins: u64,
}

fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one mode over the shared cluster, replaying the seeded stall
/// schedule, and returns its latency/load profile.
fn run_mode(
    cluster: &Arc<VoldemortCluster>,
    keys: &[Vec<u8>],
    label: &'static str,
    config: QuorumConfig,
) -> ModeStats {
    let client = cluster.client("s").unwrap().with_quorum_config(config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(STALL_SEED);
    let stall = |on: bool| {
        cluster.network().set_link_latency(
            StoreClient::CLIENT_NODE,
            SLOW,
            if on { STALL_LATENCY } else { BASE_LATENCY },
        );
    };
    // Warm the replica-latency histogram (it derives the hedge delay)
    // before measuring anything.
    for i in 0..WARMUP {
        stall(rng.random::<f64>() < STALL_PROBABILITY);
        client.get(&keys[i % keys.len()]).unwrap();
    }

    let before = cluster.metrics().snapshot();
    let mut latencies: Vec<Duration> = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        stall(rng.random::<f64>() < STALL_PROBABILITY);
        let (_, stats) = client.get_with_stats(&keys[i % keys.len()]).unwrap();
        latencies.push(stats.sim_latency);
    }
    stall(false);
    let delta = cluster.metrics().snapshot().delta(&before);

    let replica_gets: u64 = (0..NODES)
        .filter_map(|i| delta.counter(&format!("voldemort.node{i}.get.count")))
        .sum();
    let mean = latencies.iter().sum::<Duration>() / SAMPLES as u32;
    latencies.sort();
    ModeStats {
        label,
        p50: quantile(&latencies, 0.50),
        p99: quantile(&latencies, 0.99),
        p999: quantile(&latencies, 0.999),
        mean,
        load_per_read: replica_gets as f64 / SAMPLES as f64,
        hedges: delta.counter("voldemort.client.get.hedged").unwrap_or(0),
        hedge_wins: delta.counter("voldemort.client.get.hedge_won").unwrap_or(0),
    }
}

fn bench_quorum_tail(c: &mut Criterion) {
    println!("\n=== C-22: quorum read tail latency, one intermittently slow replica (§II.B) ===");
    println!(
        "{NODES} nodes, N=3 R=2 W=2, {KEYS} keys, links {BASE_LATENCY:?}, \
         node {} stalls at {STALL_LATENCY:?} for {:.0}% of reads (seed {STALL_SEED})\n",
        SLOW.0,
        STALL_PROBABILITY * 100.0
    );
    let (cluster, keys) = build_cluster();

    let [quorum, parallel, hedged] =
        modes().map(|(label, config)| run_mode(&cluster, &keys, label, config));
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "mode", "p50", "p99", "p999", "mean", "load/rd", "hedges", "hedge_won"
    );
    for stats in [&quorum, &parallel, &hedged] {
        println!(
            "{:<10} {:>10.1?} {:>10.1?} {:>10.1?} {:>10.1?} {:>8.2} {:>8} {:>10}",
            stats.label,
            stats.p50,
            stats.p99,
            stats.p999,
            stats.mean,
            stats.load_per_read,
            stats.hedges,
            stats.hedge_wins
        );
    }
    println!(
        "\nacceptance: parallel p99 {:.1}x quorum width (need >= 2), hedged p999 {:.1}x \
         quorum width (need >= 2) at {:+.1}% replica load (need <= ~5%)\n",
        quorum.p99.as_secs_f64() / parallel.p99.as_secs_f64().max(1e-9),
        quorum.p999.as_secs_f64() / hedged.p999.as_secs_f64().max(1e-9),
        (hedged.load_per_read / quorum.load_per_read - 1.0) * 100.0
    );
    // Machine-readable snapshot.
    print!("{{\"results\":[");
    for (i, stats) in [&quorum, &parallel, &hedged].iter().enumerate() {
        if i > 0 {
            print!(",");
        }
        print!(
            "{{\"mode\":\"{}\",\"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1},\
             \"mean_us\":{:.1},\"replica_gets_per_read\":{:.3},\"hedges\":{},\"hedge_wins\":{}}}",
            stats.label,
            stats.p50.as_secs_f64() * 1e6,
            stats.p99.as_secs_f64() * 1e6,
            stats.p999.as_secs_f64() * 1e6,
            stats.mean.as_secs_f64() * 1e6,
            stats.load_per_read,
            stats.hedges,
            stats.hedge_wins
        );
    }
    println!("]}}\n");

    // A small criterion group so the three paths also show up in the
    // standard report: the CPU cost of one read (fast key, no stalls).
    let mut group = c.benchmark_group("quorum_tail");
    group.sample_size(20);
    let fast_key = keys
        .iter()
        .find(|k| {
            !cluster
                .ring()
                .preference_list(k, 3)
                .unwrap()
                .contains(&SLOW)
        })
        .cloned()
        .unwrap_or_else(|| keys[0].clone());
    for (label, config) in modes() {
        let client = cluster.client("s").unwrap().with_quorum_config(config);
        group.bench_function(label, |b| {
            b.iter(|| black_box(client.get(&fast_key).unwrap()))
        });
    }
    group.finish();
}

/// The three read configurations compared, in table order.
fn modes() -> [(&'static str, QuorumConfig); 3] {
    [
        ("quorum", QuorumConfig::default()),
        (
            "parallel",
            QuorumConfig {
                read_fan_out: ReadFanOut::All,
                ..QuorumConfig::default()
            },
        ),
        (
            "hedged",
            QuorumConfig {
                hedge: Some(HedgeConfig::default()),
                ..QuorumConfig::default()
            },
        ),
    ]
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_quorum_tail
}
criterion_main!(benches);
