//! Seeding the assembled platform with a member population.
//!
//! One seeded, LDBC-shaped population ([`li_workload::site`]) is loaded
//! into every tier of a fresh [`DataPlatform`]: profile documents in
//! Espresso, the follow graph in the primary store and — through Databus
//! — the Voldemort follow caches, PYMK records in the Voldemort
//! read-only store. [`SiteBench::prepare`] returns with every stream
//! drained, so a load generator (none lives in this crate) starts its
//! clock on a platform at rest. The population is a pure function of
//! [`SiteGraphConfig`] and the primary's commit stream of member order —
//! never of `chunk_members` or thread timing.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bytes::Bytes;
use li_workload::datasets::PymkRecord;
use li_workload::site::{split_seed, SiteChunk, SiteGraph, SiteGraphChunks, SiteGraphConfig};

use crate::consumers::{company_row_key, encode_ids, member_row_key};
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
    /// the loader's commit stream depends only on member order.
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

/// Wall-clock split of the prepare phase: how much time generation and
/// loading each took. The two overlap (generation streams into the
/// loader), so `generate_wall + load_wall` exceeding `wall` is the
/// direct evidence of that overlap.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrepareStats {
    /// End-to-end prepare wall clock.
    pub wall: Duration,
    /// Time spent inside the population generator.
    pub generate_wall: Duration,
    /// Time spent loading batches into the platform tiers (including the
    /// final follow/PYMK flush and stream drain).
    pub load_wall: Duration,
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

/// The canonical population loader: at any chunk size, member rows
/// funnel through this exact sequence, so the primary's commit stream
/// (and with it the primary's `logical_fingerprint`) is a pure function
/// of member order:
///
/// * Espresso profile documents land per batch through the router's
///   multi-key fan-out (never touches the primary);
/// * per member, in order: the member's follow row into a buffer that
///   commits as a bulk-load transaction at every [`SEED_BATCH`]th
///   buffered row — a boundary determined by member order alone, never
///   by chunk size;
/// * company inverted lists and PYMK records accumulate and flush in
///   [`finish`](Self::finish) (the RO build is an offline job — it needs
///   the full record set, like its Hadoop analog).
struct PopulationLoader<'a> {
    platform: &'a DataPlatform,
    follows_buffer: Vec<(u64, Vec<u8>)>,
    follower_lists: Vec<Vec<u64>>,
    pymk_records: Vec<(Bytes, Bytes)>,
    members_since_pump: usize,
}

/// Members loaded between in-flight stream pumps. The Databus relay
/// buffers a bounded byte window; a million-member seed outruns it long
/// before the end-of-prepare drain, evicting SCNs the bootstrap consumer
/// still needs. Pumping every N *members* keeps consumers within a few
/// thousand SCNs of the head — and the boundary is a pure function of
/// member order, so every chunk size pumps at the identical points.
const PUMP_EVERY_MEMBERS: usize = 4096;

impl<'a> PopulationLoader<'a> {
    fn new(platform: &'a DataPlatform, companies: u64) -> Self {
        PopulationLoader {
            platform,
            follows_buffer: Vec::with_capacity(SEED_BATCH),
            follower_lists: vec![Vec::new(); companies as usize],
            pymk_records: Vec::new(),
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

    /// Loads one batch of member rows (must arrive in member order,
    /// gap-free across calls).
    fn load_rows<'r>(
        &mut self,
        rows: impl Iterator<Item = (u64, &'r [u64], &'r str, &'r PymkRecord)>,
    ) -> Result<(), PlatformError> {
        let rows: Vec<(u64, &[u64], &str, &PymkRecord)> = rows.collect();
        let documents: Vec<(u64, String)> = rows
            .iter()
            .map(|(member, _, text, _)| (*member, text.to_string()))
            .collect();
        self.platform.seed_profile_documents(&documents)?;
        for (member, follows, _, pymk) in rows {
            if !follows.is_empty() {
                self.follows_buffer.push((member, encode_ids(follows)));
                if self.follows_buffer.len() >= SEED_BATCH {
                    self.flush_follows()?;
                }
            }
            for &company in follows {
                self.follower_lists[company as usize].push(member);
            }
            self.pymk_records.push((
                Bytes::from(member_row_key(member).to_string()),
                Bytes::from(pymk.to_bytes()),
            ));
            self.members_since_pump += 1;
            if self.members_since_pump >= PUMP_EVERY_MEMBERS {
                self.platform.pump_streams()?;
                self.members_since_pump = 0;
            }
        }
        Ok(())
    }

    /// Flushes the tail follow buffer, bulk-loads the company inverted
    /// lists, and runs the PYMK build → pull → swap.
    fn finish(mut self) -> Result<(), PlatformError> {
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
        self.platform.load_pymk(std::mem::take(&mut self.pymk_records))?;
        Ok(())
    }
}

impl SiteBench {
    /// Builds the platform and seeds the population into every tier —
    /// streaming: a generator thread yields deterministic member chunks
    /// through a bounded channel while this thread loads them (profiles
    /// into Espresso through the router's batched fan-out, where people
    /// search follows them, the follow graph into the primary as
    /// bulk-load transactions, PYMK accumulating toward the RO build).
    /// Generation cost overlaps loading instead of forming a serial
    /// wall; when the platform runs sharded, push-style Databus dispatch
    /// additionally drains the seeded follow stream into the Voldemort
    /// caches while later chunks are still generating. The resulting
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
        let dispatcher = match config.platform.shard_mode {
            ShardMode::Parallel => Some(platform.start_stream_dispatch()),
            ShardMode::Deterministic => None,
        };
        let (chunk_tx, chunk_rx) = mpsc::sync_channel::<SiteChunk>(PREPARE_PIPELINE_DEPTH);
        let graph_config = config.graph.clone();
        let generator_builder = std::thread::Builder::new().name("site-gen".into());
        let generator = generator_builder.spawn(move || -> Duration {
            let mut generate_wall = Duration::ZERO;
            let mut chunks = SiteGraphChunks::new(&graph_config, chunk_members);
            loop {
                let started = Instant::now();
                let Some(chunk) = chunks.next() else { break };
                generate_wall += started.elapsed();
                if chunk_tx.send(chunk).is_err() {
                    break; // loader bailed; unwind quietly
                }
            }
            generate_wall
        }).expect("spawn population generator");
        let mut loader = PopulationLoader::new(&platform, config.graph.companies);
        let mut collected: Vec<SiteChunk> = Vec::new();
        let mut load_wall = Duration::ZERO;
        let load_result: Result<(), PlatformError> = (|| {
            for chunk in &chunk_rx {
                let started = Instant::now();
                loader.load_rows(chunk.rows().map(|(m, f, p, r)| (m, f.as_slice(), p, r)))?;
                load_wall += started.elapsed();
                collected.push(chunk);
            }
            Ok(())
        })();
        drop(chunk_rx);
        let generate_wall = generator.join().expect("population generator panicked");
        load_result?;
        let started = Instant::now();
        loader.finish()?;
        if let Some(dispatcher) = dispatcher {
            let stats = dispatcher.stop();
            if stats.errors > 0 {
                return Err(PlatformError(format!(
                    "{} Databus dispatch errors during prepare",
                    stats.errors
                )));
            }
        }
        // Fan the seeded state out before the clock starts.
        platform.pump_streams()?;
        load_wall += started.elapsed();
        let chunks = collected.len();
        let graph = Arc::new(SiteGraph::from_chunks(&config.graph, collected));
        let prepare_stats = PrepareStats {
            wall: prepare_start.elapsed(),
            generate_wall,
            load_wall,
            chunks,
            chunk_members,
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
}
