//! Seeding the assembled platform with a member population.
//!
//! One seeded, LDBC-shaped population ([`li_workload::site`]) is loaded
//! into every tier of a fresh [`DataPlatform`]: profile documents in
//! Espresso, the follow graph in the primary store and — through Databus
//! — the Voldemort follow caches, PYMK records in the Voldemort
//! read-only store. [`SiteBench::prepare`] returns with every stream
//! drained, so a load generator (none lives in this crate) starts its
//! clock on a platform at rest.
//!
//! The load is split by tier across two threads, as Figure 1 splits the
//! systems: Espresso and people search share nothing with the primary →
//! Databus → Voldemort chain, so the `site-gen` thread seeds each chunk's
//! profile documents and pumps Espresso's streams before handing the
//! chunk on, while the calling thread loads the primary's half. Each half
//! is a pure function of member order on its own thread, so the
//! population is a function of [`SiteGraphConfig`] alone — never of
//! `chunk_members` or thread timing.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::Bytes;
use li_voldemort::readonly::BuildJob;
use li_workload::site::{split_seed, SiteChunk, SiteGraph, SiteGraphChunks, SiteGraphConfig};

use crate::consumers::{company_row_key, encode_ids, member_key, member_row_key};
use crate::platform::{DataPlatform, PlatformConfig, PlatformError, ShardMode};

/// What [`SiteBench::prepare`] builds, plus the load shape a generator
/// driving the prepared platform starts from.
#[derive(Debug, Clone)]
pub struct SiteBenchConfig {
    /// Population shape (and population seed).
    pub graph: SiteGraphConfig,
    /// Platform sizing.
    pub platform: PlatformConfig,
    /// Members per streaming-loader chunk in [`SiteBench::prepare`]
    /// (`0` = 4096). Any value produces the identical platform state —
    /// each tier's load depends only on member order.
    pub chunk_members: usize,
    /// Op-stream seed (split per driver; independent of the graph seed).
    pub seed: u64,
    /// Concurrent closed-loop drivers.
    pub drivers: usize,
    /// Operations each driver issues.
    pub ops_per_driver: usize,
}

impl SiteBenchConfig {
    /// The deterministic smoke profile used by `tests/site_scale.rs`:
    /// small population, default platform.
    pub fn smoke(members: u64, drivers: usize, ops_per_driver: usize, seed: u64) -> Self {
        SiteBenchConfig {
            graph: SiteGraphConfig::smoke(members, split_seed(seed, u64::MAX)),
            platform: PlatformConfig::default(),
            chunk_members: 0,
            seed,
            drivers,
            ops_per_driver,
        }
    }
}

/// Wall-clock split of the prepare phase. Each thread's busy time is
/// measured around its work and split into phases timed inside it:
///
/// * `site-gen`: `generate_wall + espresso_wall`, split into
///   `generate_wall`, `espresso_seed_wall` and `espresso_pump_wall`;
/// * the loader (the calling thread): `load_wall`, split into
///   `chunk_load_wall`, `follower_lists_wall`, `pymk_publish_wall` and
///   `drain_wall`.
///
/// Neither thread's busy time counts its waits on the other (a full or an
/// empty chunk channel, the join). The threads overlap, so
/// `generate_wall + espresso_wall + load_wall` exceeding `wall` is the
/// direct evidence of that overlap.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareStats {
    /// End-to-end prepare wall clock.
    pub wall: Duration,
    /// Time the `site-gen` thread spent inside the population generator.
    pub generate_wall: Duration,
    /// Time the `site-gen` thread spent seeding Espresso's profile
    /// documents and pumping Espresso's streams (replication, people
    /// search).
    pub espresso_wall: Duration,
    /// Of `espresso_wall`: writing the profile documents.
    pub espresso_seed_wall: Duration,
    /// Of `espresso_wall`: the pumps of Espresso's streams every
    /// [`PUMP_EVERY_MEMBERS`] members (slave replication, people search).
    pub espresso_pump_wall: Duration,
    /// Time the calling thread spent loading the primary's half (follow
    /// commits, the final follower-list flush and PYMK build, the stream
    /// drain).
    pub load_wall: Duration,
    /// Of `load_wall`: the chunk loads (follow commits, the mid-load
    /// pumps of the primary's streams, the PYMK build's map step).
    pub chunk_load_wall: Duration,
    /// Of `load_wall`: the tail follow commit and the company follower
    /// lists, after the join.
    pub follower_lists_wall: Duration,
    /// Of `load_wall`: the PYMK build's start (the read-only store's
    /// set-up, before the first chunk), then its reduce, the pull and the
    /// swap.
    pub pymk_publish_wall: Duration,
    /// Of `load_wall`: the final drain of every stream.
    pub drain_wall: Duration,
    /// Chunks the loader consumed.
    pub chunks: usize,
    /// Members per chunk.
    pub chunk_members: usize,
}

/// A platform seeded with its population, at rest: every stream drained,
/// ready for a load generator.
pub struct SiteBench {
    platform: Arc<DataPlatform>,
    graph: Arc<SiteGraph>,
    config: SiteBenchConfig,
    prepare_stats: PrepareStats,
}

/// Rows per seeding transaction (the bulk-load batch size).
const SEED_BATCH: usize = 64;

/// Chunks in flight between the generator thread and the loader: enough
/// to hide generation latency, bounded so a slow tier backpressures the
/// generator instead of materializing the whole population.
const PREPARE_PIPELINE_DEPTH: usize = 4;

/// Members loaded between in-flight stream pumps. The Databus relay
/// buffers a bounded byte window; a million-member seed outruns it long
/// before the end-of-prepare drain, evicting SCNs the bootstrap consumer
/// still needs. Pumping every N *members* keeps consumers within a few
/// thousand SCNs of the head — and the boundary is a pure function of
/// member order, so every chunk size pumps at the identical points.
/// Espresso's relays are pumped at the same cadence by the `site-gen`
/// thread.
const PUMP_EVERY_MEMBERS: usize = 4096;

/// Espresso's half of the population load, run on the `site-gen` thread
/// as each chunk leaves the generator: the chunk's profile documents land
/// through the router's multi-key fan-out, then — at every
/// [`PUMP_EVERY_MEMBERS`]th member — slaves replicate and people search
/// follows the update stream. Nothing here touches the primary.
struct EspressoLoader<'a> {
    platform: &'a DataPlatform,
    members_since_pump: usize,
    seed_wall: Duration,
    pump_wall: Duration,
}

impl EspressoLoader<'_> {
    fn load_chunk(&mut self, chunk: &SiteChunk) -> Result<(), PlatformError> {
        let started = Instant::now();
        self.platform
            .seed_profile_documents(chunk.rows().map(|(member, _, text, _)| (member, text)))?;
        self.seed_wall += started.elapsed();
        self.members_since_pump += chunk.len();
        while self.members_since_pump >= PUMP_EVERY_MEMBERS {
            self.members_since_pump -= PUMP_EVERY_MEMBERS;
            let started = Instant::now();
            self.platform.pump_espresso_streams()?;
            self.pump_wall += started.elapsed();
        }
        Ok(())
    }
}

/// The primary's half of the population load, on the calling thread: at
/// any chunk size, member rows funnel through this exact sequence, so the
/// primary's commit stream (and with it the primary's
/// `logical_fingerprint`) is a pure function of member order:
///
/// * per member, in order: the member's follow row into a buffer that
///   commits as a bulk-load transaction at every [`SEED_BATCH`]th
///   buffered row — a boundary determined by member order alone, never
///   by chunk size;
/// * every [`PUMP_EVERY_MEMBERS`] members, the primary's streams pump
///   (bootstrap, Voldemort recovery, follow cacher) — never Espresso's,
///   which the `site-gen` thread drives;
/// * per member, the PYMK build's map step: the member's record is
///   routed to its read-only partitions as it arrives, since mapping needs
///   one record at a time;
/// * company inverted lists accumulate and flush in
///   [`finish_follows`](Self::finish_follows) after the join, and the PYMK
///   build's reduce step runs then too
///   ([`DataPlatform::publish_pymk`]): keeping the last record per key
///   needs the full record set, like its Hadoop analog's reducers.
struct PopulationLoader<'a> {
    platform: &'a DataPlatform,
    follows_buffer: Vec<(u64, Vec<u8>)>,
    follower_lists: Vec<Vec<u64>>,
    pymk: BuildJob,
    members_since_pump: usize,
}

impl<'a> PopulationLoader<'a> {
    fn new(platform: &'a DataPlatform, companies: u64, pymk: BuildJob) -> Self {
        PopulationLoader {
            platform,
            follows_buffer: Vec::with_capacity(SEED_BATCH),
            follower_lists: vec![Vec::new(); companies as usize],
            pymk,
            members_since_pump: 0,
        }
    }

    fn flush_follows(&mut self) -> Result<(), PlatformError> {
        if self.follows_buffer.is_empty() {
            return Ok(());
        }
        let mut txn = self.platform.primary.begin();
        for (member, value) in self.follows_buffer.drain(..) {
            txn.put("member_follows", member_row_key(member), value, 1);
        }
        self.platform
            .primary
            .commit(txn)
            .map_err(|e| PlatformError(e.to_string()))?;
        Ok(())
    }

    /// Loads one chunk's primary-side rows (chunks must arrive in member
    /// order, gap-free across calls).
    fn load_chunk(&mut self, chunk: &SiteChunk) -> Result<(), PlatformError> {
        for (member, follows, _, pymk) in chunk.rows() {
            if !follows.is_empty() {
                self.follows_buffer.push((member, encode_ids(follows)));
                if self.follows_buffer.len() >= SEED_BATCH {
                    self.flush_follows()?;
                }
            }
            for &company in follows {
                self.follower_lists[company as usize].push(member);
            }
            self.pymk
                .map(member_key(member).as_bytes(), Bytes::from(pymk.to_bytes()))
                .map_err(|e| PlatformError(e.to_string()))?;
            self.members_since_pump += 1;
            if self.members_since_pump >= PUMP_EVERY_MEMBERS {
                self.platform.pump_primary_streams()?;
                self.members_since_pump = 0;
            }
        }
        Ok(())
    }

    /// Flushes the tail follow buffer and bulk-loads the company inverted
    /// lists.
    fn finish_follows(&mut self) -> Result<(), PlatformError> {
        self.flush_follows()?;
        let followed: Vec<(usize, &Vec<u64>)> = self
            .follower_lists
            .iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .collect();
        for chunk in followed.chunks(SEED_BATCH) {
            let mut txn = self.platform.primary.begin();
            for (company, list) in chunk {
                let key = company_row_key(*company as u64);
                txn.put("company_followers", key, encode_ids(list), 1);
            }
            self.platform
                .primary
                .commit(txn)
                .map_err(|e| PlatformError(e.to_string()))?;
        }
        Ok(())
    }
}

impl SiteBench {
    /// Builds the platform and seeds the population into every tier —
    /// streaming, on two threads split by tier. The `site-gen` thread
    /// generates deterministic member chunks, seeds each one's profile
    /// documents into Espresso (where people search follows them) and
    /// only then sends it through a bounded channel to this thread, which
    /// loads the primary's half: the follow graph as bulk-load
    /// transactions, each PYMK record mapped into the RO build as it
    /// arrives. Generation
    /// and the Espresso seed overlap the primary's load instead of
    /// forming a serial wall; when the platform runs sharded, push-style
    /// Databus dispatch additionally drains the seeded follow stream into
    /// the Voldemort caches while later chunks still load. A failure on
    /// either thread stops the other and is returned. The resulting
    /// platform state is byte-identical at any chunk size
    /// (`tests/site_loader_props.rs`).
    pub fn prepare(config: SiteBenchConfig) -> Result<Self, PlatformError> {
        Self::prepare_on(DataPlatform::with_config(config.platform.clone())?, config)
    }

    /// [`Self::prepare`] on a platform the caller built from
    /// `config.platform` — a chaos run builds it on its scheduler's
    /// network and clock ([`DataPlatform::with_parts`]).
    pub fn prepare_on(
        platform: DataPlatform,
        config: SiteBenchConfig,
    ) -> Result<Self, PlatformError> {
        let chunk_members = match config.chunk_members {
            0 => 4096,
            c => c,
        };
        let platform = Arc::new(platform);
        let prepare_start = Instant::now();
        let pymk = platform.start_pymk_build()?;
        let pymk_start_wall = prepare_start.elapsed();
        // The push dispatcher drains the seeded follow stream into the
        // Voldemort caches while later chunks still load. It earns its
        // thread: set-up ran 13–24% slower without it (EXPERIMENTS.md,
        // "One way to start a thread").
        let dispatcher = match config.platform.shard_mode {
            ShardMode::Parallel => Some(platform.start_stream_dispatch()),
            ShardMode::Deterministic => None,
        };
        let (chunk_tx, chunk_rx) = mpsc::sync_channel::<SiteChunk>(PREPARE_PIPELINE_DEPTH);
        let graph_config = config.graph.clone();
        let espresso_platform = Arc::clone(&platform);
        let generator = std::thread::Builder::new()
            .name("site-gen".into())
            // Returns the `site-gen` half of the stats.
            .spawn(move || -> Result<PrepareStats, PlatformError> {
                let mut espresso = EspressoLoader {
                    platform: &espresso_platform,
                    members_since_pump: 0,
                    seed_wall: Duration::ZERO,
                    pump_wall: Duration::ZERO,
                };
                let mut walls = PrepareStats::default();
                let mut chunks = SiteGraphChunks::new(&graph_config, chunk_members);
                loop {
                    let started = Instant::now();
                    let Some(chunk) = chunks.next() else { break };
                    walls.generate_wall += started.elapsed();
                    let started = Instant::now();
                    // On error, returning drops the sender: the loader's
                    // receive loop ends and the join reports this error.
                    espresso.load_chunk(&chunk)?;
                    walls.espresso_wall += started.elapsed();
                    if chunk_tx.send(chunk).is_err() {
                        break; // loader bailed; unwind quietly
                    }
                }
                walls.espresso_seed_wall = espresso.seed_wall;
                walls.espresso_pump_wall = espresso.pump_wall;
                Ok(walls)
            })
            .map_err(|e| PlatformError(format!("spawn population generator: {e}")))?;
        let mut loader = PopulationLoader::new(&platform, config.graph.companies, pymk);
        let mut collected: Vec<SiteChunk> = Vec::new();
        let mut chunk_load_wall = Duration::ZERO;
        let load_result: Result<(), PlatformError> = (|| {
            for chunk in &chunk_rx {
                let started = Instant::now();
                loader.load_chunk(&chunk)?;
                chunk_load_wall += started.elapsed();
                collected.push(chunk);
            }
            Ok(())
        })();
        // A generator blocked on a full channel wakes to a failed send.
        drop(chunk_rx);
        let generated = generator
            .join()
            .map_err(|_| PlatformError("population generator panicked".into()))?;
        load_result?;
        let site_gen = generated?;
        let finish_started = Instant::now();
        loader.finish_follows()?;
        let follower_lists_wall = finish_started.elapsed();
        let started = Instant::now();
        platform.publish_pymk(loader.pymk)?;
        let pymk_publish_wall = pymk_start_wall + started.elapsed();
        let started = Instant::now();
        if let Some(dispatcher) = dispatcher {
            let stats = dispatcher.stop();
            if stats.errors > 0 {
                return Err(PlatformError(format!(
                    "{} Databus dispatch errors during prepare",
                    stats.errors
                )));
            }
        }
        // Fan the seeded state out before the clock starts: every stream,
        // Espresso's included, drains here.
        platform.pump_streams()?;
        let drain_wall = started.elapsed();
        let load_wall = pymk_start_wall + chunk_load_wall + finish_started.elapsed();
        let chunks = collected.len();
        let graph = Arc::new(SiteGraph::from_chunks(&config.graph, collected));
        let prepare_stats = PrepareStats {
            wall: prepare_start.elapsed(),
            load_wall,
            chunk_load_wall,
            follower_lists_wall,
            pymk_publish_wall,
            drain_wall,
            chunks,
            chunk_members,
            ..site_gen
        };

        Ok(SiteBench {
            platform,
            graph,
            config,
            prepare_stats,
        })
    }

    /// The prepare phase's wall-clock split.
    pub fn prepare_stats(&self) -> PrepareStats {
        self.prepare_stats
    }

    /// The prepared platform (read access for scenario composition).
    pub fn platform(&self) -> &Arc<DataPlatform> {
        &self.platform
    }

    /// The seeded population.
    pub fn graph(&self) -> &Arc<SiteGraph> {
        &self.graph
    }

    /// The configuration this platform was prepared from.
    pub fn config(&self) -> &SiteBenchConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_commons::ring::NodeId;
    use li_sqlstore::{BinlogEntry, ShipError};
    use li_workload::datasets::PymkRecord;

    /// What a load generator assumes when it starts its clock: every tier
    /// serves the seeded population and the change stream is at rest.
    #[test]
    fn prepare_seeds_every_tier_and_leaves_the_streams_drained() {
        for shard_mode in [ShardMode::Deterministic, ShardMode::Parallel] {
            let mut config = SiteBenchConfig::smoke(200, 1, 0, 17);
            config.platform.shard_mode = shard_mode;
            let bench = SiteBench::prepare(config).unwrap();
            let (platform, graph) = (bench.platform(), bench.graph());
            assert_eq!(graph.member_count(), 200);
            for m in 0..graph.member_count() {
                let at = format!("member {m} ({shard_mode:?})");
                let mut follows = platform.followed_companies(m).unwrap();
                follows.sort_unstable();
                assert_eq!(follows, graph.follows_of(m), "{at}");
                let profile = platform.profile(m).unwrap();
                assert_eq!(profile.as_deref(), Some(graph.profile_of(m)), "{at}");
                let stored = platform.pymk_recommendations(m).unwrap().expect("PYMK record");
                let decoded = PymkRecord::from_bytes(m, &stored).expect("decodable PYMK record");
                // The stored form rounds scores, so compare in that form.
                assert_eq!(decoded.to_bytes(), graph.pymk_of(m).to_bytes(), "{at}");
            }
            let snapshot = platform.metrics_snapshot();
            assert_eq!(snapshot.gauge("databus.client.relay_lag_scns"), Some(0));
            let newest = snapshot.gauge("databus.relay.primary.newest_scn");
            assert!(newest.is_some_and(|scn| scn > 0));
            assert_eq!(newest, snapshot.gauge("sqlstore.db.primary.last_scn"));
        }
    }

    /// Each prepare thread's phases add up to its busy time within 10%:
    /// `site-gen`'s generation, Espresso seed and Espresso pumps to
    /// `generate_wall + espresso_wall`, the loader's chunk loads, follower
    /// lists, PYMK publish and final drain to `load_wall`.
    #[test]
    fn prepare_phases_sum_to_each_threads_busy_time() {
        let mut config = SiteBenchConfig::smoke(2_000, 1, 0, 31);
        config.chunk_members = 256;
        let stats = SiteBench::prepare(config).unwrap().prepare_stats();
        let site_gen = (
            stats.generate_wall + stats.espresso_wall,
            stats.generate_wall + stats.espresso_seed_wall + stats.espresso_pump_wall,
        );
        let loader = (
            stats.load_wall,
            stats.chunk_load_wall
                + stats.follower_lists_wall
                + stats.pymk_publish_wall
                + stats.drain_wall,
        );
        for (thread, (wall, phases)) in [("site-gen", site_gen), ("loader", loader)] {
            let (wall, phases) = (wall.as_secs_f64(), phases.as_secs_f64());
            assert!(wall > 0.0, "{thread}: no busy time");
            assert!(
                (phases - wall).abs() <= 0.1 * wall,
                "{thread}: phases sum to {phases:.4} s, busy time {wall:.4} s"
            );
        }
    }

    /// A failure on `site-gen` (Espresso's half) reaches the caller as
    /// that error: the loader's receive loop ends when the generator drops
    /// its sender, and the join hands the error back.
    #[test]
    fn an_espresso_failure_on_site_gen_is_returned() {
        for shard_mode in [ShardMode::Deterministic, ShardMode::Parallel] {
            let mut config = SiteBenchConfig::smoke(400, 1, 0, 23);
            config.platform.shard_mode = shard_mode;
            config.chunk_members = 8;
            let platform = DataPlatform::with_config(config.platform.clone()).unwrap();
            for node in 0..config.platform.espresso_nodes {
                platform.espresso.crash_node(NodeId(node)).unwrap();
            }
            let started = Instant::now();
            let error = SiteBench::prepare_on(platform, config)
                .err()
                .expect("prepare must fail");
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{shard_mode:?}"
            );
            assert!(
                error.0.contains("no master for partition"),
                "{shard_mode:?}: {error}"
            );
        }
    }

    /// A failure on the loader's side (a primary commit the semi-sync
    /// shipper refuses) reaches the caller too, and does not leave
    /// `site-gen` blocked on a full channel: 50 chunks of 8 members are
    /// far more than the pipeline holds when the first commit fails.
    #[test]
    fn a_primary_failure_on_the_loader_does_not_wedge_site_gen() {
        for shard_mode in [ShardMode::Deterministic, ShardMode::Parallel] {
            let mut config = SiteBenchConfig::smoke(400, 1, 0, 29);
            config.platform.shard_mode = shard_mode;
            config.chunk_members = 8;
            let platform = DataPlatform::with_config(config.platform.clone()).unwrap();
            platform
                .primary
                .set_shipper(Arc::new(|_: &str, _: &BinlogEntry| {
                    Err(ShipError("relay refused".into()))
                }));
            let started = Instant::now();
            let error = SiteBench::prepare_on(platform, config)
                .err()
                .expect("prepare must fail");
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{shard_mode:?}"
            );
            assert!(error.0.contains("relay refused"), "{shard_mode:?}: {error}");
        }
    }
}
