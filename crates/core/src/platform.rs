//! The Figure I.1 assembly: primary store → Databus → derived systems;
//! profile documents → Espresso's update stream → people search;
//! activity events → Kafka → online consumers + offline warehouse.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use li_commons::metrics::{MetricsRegistry, MetricsSnapshot};
use li_commons::migrate::{MigrationConfig, MigrationCoordinator};
use li_commons::ring::{HashRing, NodeId, PartitionId};
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_commons::sim::{Clock, RealClock, SimNetwork};
use li_databus::{BootstrapServer, DatabusClient, LogShippingAdapter, Relay, StreamDispatcher};
use li_espresso::{DatabaseSchema, EspressoCluster, GlobalIndex, TableSchema};
use li_kafka::audit::{AuditedProducer, AUDIT_TOPIC};
use li_kafka::log::LogConfig;
use li_kafka::mirror::{MirrorMaker, WarehouseLoader};
use li_kafka::{KafkaCluster, Producer, SimpleConsumer};
use li_sqlstore::{Database, DbError, Row, RowKey};
use li_voldemort::readonly::{BuildJob, ReadOnlyBuilder, ReadOnlyStore, ScratchDir};
use li_voldemort::{StoreClient, StoreDef, VoldemortCluster};
use parking_lot::Mutex;

use crate::consumers::{
    company_row_key, follow_edge_row, member_key, member_row_key, union_ids, CompanyFollowCacher,
    FOLLOW_EDGES_TABLE,
};

/// Name of the activity-event topic.
pub const ACTIVITY_TOPIC: &str = "activity";

/// Espresso database holding member profile documents.
pub const PROFILE_DB: &str = "Profiles";

/// Table (and document schema) of [`PROFILE_DB`].
pub const PROFILE_TABLE: &str = "Profile";

/// Voldemort read-only store serving PYMK recommendations (§II.C).
pub const PYMK_STORE: &str = "pymk";

/// Errors from platform operations (stringly typed at this altitude: the
/// facade aggregates seven subsystem error types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformError(pub String);

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "platform error: {}", self.0)
    }
}

impl std::error::Error for PlatformError {}

fn wrap<E: std::fmt::Display>(e: E) -> PlatformError {
    PlatformError(e.to_string())
}

/// The text of a profile document, moved out of the decoded record.
fn profile_text((mut record, _row): (Record, Row)) -> Option<String> {
    match record.fields.remove("text") {
        Some(Value::Str(text)) => Some(text),
        _ => None,
    }
}

/// How many threads drive a site run, and nothing else: no structure
/// below the platform reads it (stripe counts are constants, every
/// produce is a group commit, Espresso's multi-key requests run inline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// One driving thread, so a seeded run replays byte for byte:
    /// [`crate::SiteBench::prepare`] and `li_bench::site` start no push
    /// dispatcher, and `li_bench::site` runs its drivers one after the
    /// other on the calling thread.
    Deterministic,
    /// [`crate::SiteBench::prepare`] and `li_bench::site` start the push
    /// dispatcher, and `li_bench::site` runs its drivers on scheduler
    /// threads.
    #[default]
    Parallel,
}

/// Sizing knobs for [`DataPlatform::with_config`]. `Default` matches the
/// shape `DataPlatform::new(3, 2)` used to build, plus a 3-node Espresso
/// tier.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Voldemort cache nodes.
    pub voldemort_nodes: u16,
    /// Brokers per Kafka cluster (live and offline each).
    pub kafka_brokers: u16,
    /// Espresso storage nodes for the profile database.
    pub espresso_nodes: u16,
    /// Partitions of the Espresso profile database.
    pub espresso_partitions: u32,
    /// Partitions of the activity topic.
    pub activity_partitions: u32,
    /// Threads beside the caller's (see [`ShardMode`]).
    pub shard_mode: ShardMode,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            voldemort_nodes: 3,
            kafka_brokers: 2,
            espresso_nodes: 3,
            espresso_partitions: 8,
            activity_partitions: 8,
            shard_mode: ShardMode::Parallel,
        }
    }
}

/// The PYMK read-only tier: scratch "HDFS" build area, per-node local
/// store directories, and the live store handles for pull/swap.
struct PymkTier {
    hdfs: ScratchDir,
    _local: ScratchDir,
    stores: Vec<Arc<ReadOnlyStore>>,
    version: u64,
}

/// The assembled site backend.
pub struct DataPlatform {
    /// The Oracle-analog primary database (source of truth).
    pub primary: Arc<Database>,
    /// The Databus relay capturing the primary's changes.
    pub relay: Arc<Relay>,
    /// Long look-back storage for fallen-behind/new subscribers.
    pub bootstrap: Arc<BootstrapServer>,
    /// The Voldemort cluster holding cache-like derived stores.
    pub voldemort: Arc<VoldemortCluster>,
    /// Live (user-facing datacenter) Kafka cluster.
    pub kafka_live: Arc<KafkaCluster>,
    /// Offline (analytics datacenter) Kafka cluster.
    pub kafka_offline: Arc<KafkaCluster>,
    /// The Espresso cluster serving member profile documents.
    pub espresso: Arc<EspressoCluster>,

    metrics: Arc<MetricsRegistry>,
    follow_cacher: Arc<DatabusClient>,
    /// People search: a global index over the profile documents' `text`,
    /// fed by Espresso's update stream (§IV.A's global secondary index).
    search: GlobalIndex,
    event_producer: AuditedProducer,
    mirror: MirrorMaker,
    warehouse: WarehouseLoader,
    activity_partitions: u32,
    /// Read-path clients of the two Company Follow stores, built once
    /// (a client resolves a dozen metric handles by name when created).
    member_follows: StoreClient,
    company_followers: StoreClient,
    pymk: Mutex<Option<PymkTier>>,
    /// Read client of the PYMK store, held like the two above: set once
    /// by the first [`Self::start_pymk_build`], read without the tier mutex.
    pymk_client: OnceLock<StoreClient>,
}

impl DataPlatform {
    /// Builds the platform: `voldemort_nodes` cache nodes and
    /// `kafka_brokers` per Kafka cluster (other knobs at their defaults).
    pub fn new(voldemort_nodes: u16, kafka_brokers: u16) -> Result<Self, PlatformError> {
        Self::with_config(PlatformConfig {
            voldemort_nodes,
            kafka_brokers,
            ..PlatformConfig::default()
        })
    }

    /// Builds the platform from explicit sizing knobs, on a reliable
    /// network and the real clock.
    pub fn with_config(config: PlatformConfig) -> Result<Self, PlatformError> {
        Self::with_parts(config, SimNetwork::reliable(), Arc::new(RealClock::new()))
    }

    /// Fully-injected constructor, like every crate's below: the one
    /// `clock` goes to the primary, Voldemort and both Kafka clusters,
    /// `network` to Voldemort (the only tier that routes over one). A
    /// chaos run passes its scheduler's parts.
    pub fn with_parts(
        config: PlatformConfig,
        network: SimNetwork,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, PlatformError> {
        let PlatformConfig {
            voldemort_nodes,
            kafka_brokers,
            espresso_nodes,
            espresso_partitions,
            activity_partitions,
            // Read by the prepare and the site harness, not by any tier.
            shard_mode: _,
        } = config;
        // One registry for the whole site: every tier below reports into
        // it, so a single snapshot shows the full pipeline.
        let metrics = MetricsRegistry::new();

        // Primary store (Oracle analog) with the site's tables.
        let primary = Arc::new(Database::with_metrics("primary", clock.clone(), &metrics));
        for table in [
            "member_follows",
            "company_followers",
            FOLLOW_EDGES_TABLE,
        ] {
            primary.create_table(table).map_err(wrap)?;
        }

        // Databus tier: relay captures the primary semi-synchronously;
        // bootstrap follows the relay (sharing its frozen windows). The
        // backlog-draining attach makes construction order-insensitive:
        // any commits that land before the relay is wired ship as one
        // batch instead of being lost.
        let relay = Arc::new(Relay::with_metrics("primary", 32 << 20, &metrics));
        LogShippingAdapter::attach_with_backlog(&primary, relay.clone(), 0).map_err(wrap)?;
        let bootstrap = Arc::new(BootstrapServer::new());
        // Pin the relay buffer until the bootstrap's log writer has linked
        // each window (the floor advances with every catch-up): a window
        // evicted before it reaches log storage is lost from the whole
        // system, and any consumer checkpointed below it livelocks on a
        // consolidated delta that can never reach the buffered range.
        relay.set_eviction_floor(0);

        // Voldemort cache stores for Company Follow (§II.C).
        let voldemort_nodes_ids: Vec<NodeId> = (0..voldemort_nodes).map(NodeId).collect();
        let voldemort = VoldemortCluster::with_metrics(
            HashRing::balanced(64, &voldemort_nodes_ids).map_err(wrap)?,
            network,
            clock.clone(),
            &metrics,
        )
        .map_err(wrap)?;
        voldemort
            .add_store(StoreDef::read_write("member-follows"))
            .map_err(wrap)?;
        voldemort
            .add_store(StoreDef::read_write("company-followers"))
            .map_err(wrap)?;

        let member_follows = voldemort.client("member-follows").map_err(wrap)?;
        let company_followers = voldemort.client("company-followers").map_err(wrap)?;

        let follow_cacher = Arc::new(DatabusClient::new(
            "follow-cacher",
            relay.clone(),
            Some(bootstrap.clone()),
            Arc::new(CompanyFollowCacher::new(
                voldemort.client("member-follows").map_err(wrap)?,
                voldemort.client("company-followers").map_err(wrap)?,
            )),
        ));

        // Kafka tier: live cluster + offline mirror + warehouse loader.
        // The live cluster shares the site registry; the offline mirror
        // keeps a private one so identical broker/topic metric names from
        // the two datacenters never collide.
        let kafka_live =
            KafkaCluster::with_metrics(kafka_brokers, LogConfig::default(), clock.clone(), &metrics)
                .map_err(wrap)?;
        let kafka_offline =
            KafkaCluster::with_parts(kafka_brokers, LogConfig::default(), clock).map_err(wrap)?;
        for cluster in [&kafka_live, &kafka_offline] {
            cluster
                .create_topic(ACTIVITY_TOPIC, activity_partitions)
                .map_err(wrap)?;
            cluster.create_topic(AUDIT_TOPIC, 1).map_err(wrap)?;
        }
        let event_producer = AuditedProducer::new(
            Producer::new(kafka_live.clone()).with_batch_size(16),
            &kafka_live,
            "frontend-1",
            Duration::from_secs(60),
        );
        let mirror = MirrorMaker::new(
            kafka_live.clone(),
            kafka_offline.clone(),
            [ACTIVITY_TOPIC, AUDIT_TOPIC],
        )
        .map_err(wrap)?;
        let warehouse = WarehouseLoader::new(
            kafka_offline.clone(),
            [ACTIVITY_TOPIC],
            Duration::from_secs(10),
        );

        // Espresso tier: the profile documents' source-of-truth serving
        // store (the paper's migration target for member profiles), on
        // the same site-wide registry.
        let espresso =
            EspressoCluster::with_metrics(espresso_nodes, &metrics).map_err(wrap)?;
        let profile_schema = DatabaseSchema::new(
            PROFILE_DB,
            espresso_partitions,
            2.min(espresso_nodes as usize),
        )
        .with_table(
            TableSchema::new(PROFILE_TABLE, ["member"]),
            RecordSchema::new(
                PROFILE_TABLE,
                1,
                vec![Field::new("text", FieldType::Str)],
            )
            .map_err(wrap)?,
        )
        .map_err(wrap)?;
        espresso.create_database(profile_schema).map_err(wrap)?;
        let search = GlobalIndex::new(espresso.clone(), PROFILE_DB, PROFILE_TABLE, "text");

        Ok(DataPlatform {
            primary,
            relay,
            bootstrap,
            voldemort,
            kafka_live,
            kafka_offline,
            espresso,
            metrics,
            follow_cacher,
            search,
            event_producer,
            mirror,
            warehouse,
            activity_partitions,
            member_follows,
            company_followers,
            pymk: Mutex::new(None),
            pymk_client: OnceLock::new(),
        })
    }

    /// Starts push-style dispatch of the primary's change stream to its
    /// Databus subscriber, the follow cacher: the relay's SCN watch wakes
    /// a worker instead of the consumer polling. Safe alongside
    /// [`Self::pump`] / [`Self::pump_streams`] — the client serializes
    /// whole poll cycles, so no window is delivered twice. Stop (or drop)
    /// the returned dispatcher to shut the thread down and drain.
    pub fn start_stream_dispatch(&self) -> StreamDispatcher {
        StreamDispatcher::start(self.relay.clone(), vec![self.follow_cacher.clone()])
    }

    /// A user follows a company: one put-if-absent of a tiny edge row
    /// against the *primary*, whatever the follower count (following again
    /// commits nothing). Derived stores learn about it via Databus — never
    /// written directly: the follow cacher appends it to both cached lists.
    pub fn follow_company(&self, member: u64, company: u64) -> Result<(), PlatformError> {
        let (key, value) = follow_edge_row(member, company);
        match self.primary.put_if_etag(FOLLOW_EDGES_TABLE, key, 0, value, 1) {
            Ok(_) | Err(DbError::EtagMismatch { .. }) => Ok(()),
            Err(e) => Err(wrap(e)),
        }
    }

    /// Updates a member's profile text in Espresso, the one store of
    /// profiles: reads are served from it, and people search follows its
    /// update stream.
    pub fn update_profile(&self, member: u64, text: &str) -> Result<(), PlatformError> {
        self.espresso
            .put(
                PROFILE_DB,
                PROFILE_TABLE,
                member_row_key(member),
                &Record::new().with("text", Value::Str(text.into())),
            )
            .map_err(wrap)?;
        Ok(())
    }

    /// Serving read path for a member's profile text (from Espresso,
    /// routed to the partition master — timeline-consistent).
    pub fn profile(&self, member: u64) -> Result<Option<String>, PlatformError> {
        let doc = self
            .espresso
            .get(PROFILE_DB, PROFILE_TABLE, &member_row_key(member))
            .map_err(wrap)?;
        Ok(doc.and_then(profile_text))
    }

    /// Serving read path for many members' profile texts in one request:
    /// the Espresso router groups the keys by partition master against
    /// its watch-cached assignment and reads each master's keys in one
    /// pass. A PYMK page renders its recommendation cards through this —
    /// one routed request, not one per card. Results come back in
    /// `members` order.
    pub fn profiles(&self, members: &[u64]) -> Result<Vec<Option<String>>, PlatformError> {
        let keys = members.iter().map(|m| member_row_key(*m)).collect();
        let docs = self
            .espresso
            .multi_get(PROFILE_DB, PROFILE_TABLE, keys)
            .map_err(wrap)?;
        Ok(docs
            .into_iter()
            .map(|doc| doc.and_then(profile_text))
            .collect())
    }

    /// Batched write path for the population loader: lands one chunk of
    /// profile documents in Espresso through the router's multi-key
    /// fan-out (grouped per master node). Router request accounting is
    /// per document, so it never depends on how callers chunk. Each text
    /// is copied once, into its document's `Value::Str`.
    pub fn seed_profile_documents<'t>(
        &self,
        profiles: impl IntoIterator<Item = (u64, &'t str)>,
    ) -> Result<(), PlatformError> {
        let documents = profiles
            .into_iter()
            .map(|(member, text)| {
                (
                    member_row_key(member),
                    Record::new().with("text", Value::Str(text.to_owned())),
                )
            })
            .collect();
        self.espresso
            .multi_put(PROFILE_DB, PROFILE_TABLE, documents)
            .map_err(wrap)?;
        Ok(())
    }

    /// Starts an offline PYMK "Hadoop job run" (Figure II.3): the caller
    /// maps each `(key, value)` record into the returned job as it arrives
    /// ([`BuildJob::map`], keys as [`Self::pymk_recommendations`] looks
    /// them up), then [`Self::publish_pymk`] builds, pulls and swaps it.
    pub fn start_pymk_build(&self) -> Result<BuildJob, PlatformError> {
        let mut tier = self.pymk.lock();
        if tier.is_none() {
            let hdfs = ScratchDir::new("platform-pymk-hdfs").map_err(wrap)?;
            let local = ScratchDir::new("platform-pymk-local").map_err(wrap)?;
            let stores = self
                .voldemort
                .add_read_only_store(StoreDef::read_only(PYMK_STORE), local.path())
                .map_err(wrap)?;
            // Until the first swap below the stores serve no version, so a
            // lookup through this client finds nothing.
            let _ = self.pymk_client.set(self.voldemort.client(PYMK_STORE).map_err(wrap)?);
            *tier = Some(PymkTier {
                hdfs,
                _local: local,
                stores,
                version: 0,
            });
        }
        let def = self.voldemort.store_def(PYMK_STORE).map_err(wrap)?;
        Ok(ReadOnlyBuilder::new(self.voldemort.ring(), def.replication, 4).start())
    }

    /// Finishes a PYMK run begun by [`Self::start_pymk_build`]: reduce
    /// (sort and write the files) → pull (data before index) → atomic
    /// swap. Returns the swapped-in version.
    pub fn publish_pymk(&self, job: BuildJob) -> Result<u64, PlatformError> {
        let mut tier = self.pymk.lock();
        let tier = tier
            .as_mut()
            .ok_or_else(|| PlatformError("no PYMK build was started".into()))?;
        let version = tier.version + 1;
        let out = job.reduce(version, tier.hdfs.path()).map_err(wrap)?;
        for store in &tier.stores {
            store
                .pull(&out.node_dir(store.node()), version)
                .map_err(wrap)?;
        }
        for store in &tier.stores {
            store.swap(version).map_err(wrap)?;
        }
        tier.version = version;
        Ok(version)
    }

    /// PYMK lookup: the member's serialized recommendation list from the
    /// read-only store ([`li_workload::datasets::PymkRecord`] wire
    /// format). `None` when the member has no recommendations or no PYMK
    /// run has been loaded yet.
    pub fn pymk_recommendations(&self, member: u64) -> Result<Option<Bytes>, PlatformError> {
        let Some(client) = self.pymk_client.get() else {
            return Ok(None);
        };
        let key = member_key(member).into_bytes();
        let versions = client.get(&key).map_err(wrap)?;
        Ok(versions.into_iter().next().map(|v| v.value))
    }

    /// People search: the members whose profile text holds every word of
    /// `words`, as member keys in key order. The index follows Espresso's
    /// update stream, so an update is found once a pump has run.
    pub fn search_profiles(&self, words: &str) -> Vec<String> {
        self.search
            .query(words)
            .into_iter()
            .map(|key| key.to_string())
            .collect()
    }

    /// Cache read path: companies a member follows (from Voldemort).
    pub fn followed_companies(&self, member: u64) -> Result<Vec<u64>, PlatformError> {
        Self::cached_ids(&self.member_follows, &member_row_key(member))
    }

    /// Cache read path: a company's followers (from Voldemort).
    pub fn followers(&self, company: u64) -> Result<Vec<u64>, PlatformError> {
        Self::cached_ids(&self.company_followers, &company_row_key(company))
    }

    fn cached_ids(store: &StoreClient, key: &RowKey) -> Result<Vec<u64>, PlatformError> {
        let key = key.to_string();
        let versions = store.get(key.as_bytes()).map_err(wrap)?;
        union_ids(&versions).map_err(|e| PlatformError(format!("cached list {key}: {e}")))
    }

    /// Publishes an activity event to the live Kafka cluster (audited).
    pub fn track(&self, event: &str) -> Result<(), PlatformError> {
        self.event_producer.send(ACTIVITY_TOPIC, event).map_err(wrap)
    }

    /// Opens an online consumer over one activity partition (newsfeed,
    /// security, relevance — the §V.D online subscribers).
    pub fn activity_consumer(&self, partition: u32) -> Result<SimpleConsumer, PlatformError> {
        SimpleConsumer::new(self.kafka_live.clone(), ACTIVITY_TOPIC, partition).map_err(wrap)
    }

    /// Partition count of the activity topic.
    pub fn activity_partitions(&self) -> u32 {
        self.activity_partitions
    }

    /// Rows loaded into the warehouse so far.
    pub fn warehouse_rows(&self) -> usize {
        self.warehouse.row_count()
    }

    /// One pump of every asynchronous pipeline stage: the bootstrap
    /// server follows the relay, Voldemort probes banned nodes and
    /// replays hinted handoffs, the Databus subscriber catches up,
    /// Espresso replicates, people search follows Espresso's update
    /// stream, producers flush, the mirror copies, and the warehouse
    /// loader ticks. Production runs these continuously; examples and
    /// tests call it at interesting moments (determinism over threads).
    /// A failing stage does not stop the ones after it; the first error
    /// is returned once all have run.
    pub fn pump(&self) -> Result<(), PlatformError> {
        self.pump_stages(true)
    }

    /// [`Self::pump`] without the audit flush: only the data-tier streams
    /// (Databus subscriber, bootstrap, Voldemort recovery, Espresso
    /// replication, people search, mirror, warehouse). The closed-loop
    /// benchmark's background pump thread uses this — the audit producer buckets by
    /// wall-clock window, which would make a seeded run's metrics
    /// timing-dependent.
    pub fn pump_streams(&self) -> Result<(), PlatformError> {
        self.pump_stages(false)
    }

    /// The three stage groups in order, every one run: a cacher short of a
    /// quorum must not starve search, replication or the warehouse.
    fn pump_stages(&self, flush_audit: bool) -> Result<(), PlatformError> {
        let groups = [
            self.pump_primary_streams(),
            self.pump_espresso_streams(),
            self.pump_kafka_streams(flush_audit),
        ];
        groups.into_iter().collect()
    }

    /// The primary's streams: the bootstrap server follows the relay,
    /// Voldemort recovers, and the follow cacher catches up. Every stage
    /// runs; the first error is returned. The population loader pumps
    /// these alone while another thread drives Espresso's.
    pub(crate) fn pump_primary_streams(&self) -> Result<(), PlatformError> {
        // Bootstrap first: it is the fallen-behind escape hatch for every
        // subscriber, and it reads the relay directly (no drive lock). If
        // it ran after the subscriber catch-ups, a subscriber evicted off
        // the relay would cycle stale consolidated deltas while holding
        // the drive lock — and the pump, parked on that same lock, could
        // never advance the bootstrap to break the cycle.
        let bootstrap = self.bootstrap.catch_up_from(&self.relay).map(drop).map_err(wrap);
        self.bootstrap.apply_log();
        // Voldemort's asynchronous recovery (§II.B), ahead of the cacher
        // so a replica that is back rejoins before its quorum is needed.
        self.voldemort.run_failure_probes();
        self.voldemort.deliver_hints();
        let stages = [
            bootstrap,
            self.follow_cacher.catch_up().map(drop).map_err(wrap),
        ];
        stages.into_iter().collect()
    }

    /// Espresso's streams: slaves replicate from their masters' relays,
    /// then people search follows the update stream. Both run; the first
    /// error is returned.
    pub(crate) fn pump_espresso_streams(&self) -> Result<(), PlatformError> {
        let stages = [
            self.espresso.pump_replication().map(drop).map_err(wrap),
            self.search.pump().map(drop).map_err(wrap),
        ];
        stages.into_iter().collect()
    }

    /// Kafka's streams: the audit flush (when asked), the mirror, the
    /// warehouse loader. Every stage runs; the first error is returned.
    pub(crate) fn pump_kafka_streams(&self, flush_audit: bool) -> Result<(), PlatformError> {
        let stages = [
            if flush_audit {
                self.event_producer.publish_audit_and_flush().map_err(wrap)
            } else {
                Ok(())
            },
            self.mirror.pump().map(drop).map_err(wrap),
            self.warehouse.tick().map(drop).map_err(wrap),
        ];
        stages.into_iter().collect()
    }

    /// The migration tuning used by the platform facade: the same phase
    /// machine as [`MigrationConfig::default`], but with enough delta and
    /// verify rounds that live traffic racing the shadow comparator (a
    /// write landing between the source read and the target read shows as
    /// a transient divergence) converges instead of tripping a refusal.
    fn migration_config() -> MigrationConfig {
        MigrationConfig {
            max_delta_rounds: 32,
            verify_retries: 64,
            ..MigrationConfig::default()
        }
    }

    /// Live-migrates one Voldemort partition to `to` while serving
    /// traffic: snapshot copy → journal delta catch-up → dual-write with
    /// shadow-read verification → atomic cutover. No-op when `to` already
    /// owns the partition. Reads never block; an acked write is never
    /// lost across the flip (the client re-checks the topology epoch
    /// after every ack). Phase progress and counters land under
    /// `migration.` in the site registry.
    pub fn migrate_voldemort_partition(
        &self,
        partition: PartitionId,
        to: NodeId,
    ) -> Result<(), PlatformError> {
        let Some(driver) = self
            .voldemort
            .begin_partition_migration(partition, to)
            .map_err(wrap)?
        else {
            return Ok(());
        };
        let coordinator = MigrationCoordinator::new(&self.metrics, Self::migration_config());
        match coordinator.run(&driver, 256) {
            Ok(_) => Ok(()),
            Err(e) => {
                // Leave the cluster serviceable: drop the half-built
                // migration so the source stays authoritative.
                self.voldemort.abort_migration();
                Err(wrap(e))
            }
        }
    }

    /// Live-migrates one partition of the Espresso profile database to
    /// `to` (a live node not currently hosting it): snapshot bootstrap →
    /// binlog delta from the master's relay → shadow verification →
    /// Helix-driven mastership cutover.
    pub fn migrate_profile_partition(
        &self,
        partition: u32,
        to: NodeId,
    ) -> Result<(), PlatformError> {
        let driver = self
            .espresso
            .begin_partition_migration(PROFILE_DB, partition, to)
            .map_err(wrap)?;
        MigrationCoordinator::new(&self.metrics, Self::migration_config())
            .run(&driver, 256)
            .map_err(wrap)
    }

    /// Forces a warehouse load regardless of its period (tests).
    pub fn force_warehouse_load(&self) -> Result<usize, PlatformError> {
        self.warehouse.run_load().map_err(wrap)
    }

    /// The site-wide metrics registry: the primary store, the relay, the
    /// Voldemort cluster, and the live Kafka cluster all report here.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time snapshot of every site metric (render with
    /// [`MetricsSnapshot::to_text_table`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// Chaos-scheduler hooks for the assembled site: chaos node `i` is
/// Espresso storage node `i`, whose crash expires its Helix session and
/// fails its masterships over. Voldemort needs no hook — its whole fault
/// surface is the [`SimNetwork`] handed to [`DataPlatform::with_parts`],
/// which the scheduler already owns and crashes node `i` on itself — and
/// the two Kafka clusters are unreplicated, so a broker has no crash
/// surface here (broker failover is covered at crate level by the
/// replicated-Kafka chaos scenarios).
impl li_commons::chaos::FaultHooks for DataPlatform {
    fn crash(&self, node: NodeId) {
        self.espresso.crash(node);
    }

    fn restart(&self, node: NodeId) {
        self.espresso.restart(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_commons::sim::SimClock;

    #[test]
    fn follow_flow_reaches_caches() {
        let platform = DataPlatform::new(3, 1).unwrap();
        platform.follow_company(1, 100).unwrap();
        platform.follow_company(1, 200).unwrap();
        platform.follow_company(2, 100).unwrap();
        // Caches are async: empty until the pipeline pumps.
        assert!(platform.followed_companies(1).unwrap().is_empty());
        platform.pump().unwrap();
        assert_eq!(platform.followed_companies(1).unwrap(), vec![100, 200]);
        assert_eq!(platform.followers(100).unwrap(), vec![1, 2]);
        assert_eq!(platform.followers(999).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn inconsistent_caches_are_acceptable_and_converge() {
        // "Since it is used as cache, having inconsistent values across
        // stores is not a problem" — but they converge after the pipeline
        // catches up.
        let platform = DataPlatform::new(2, 1).unwrap();
        platform.follow_company(7, 42).unwrap();
        platform.pump().unwrap();
        platform.follow_company(8, 42).unwrap();
        // Before the pump, store 2 is stale.
        assert_eq!(platform.followers(42).unwrap(), vec![7]);
        platform.pump().unwrap();
        assert_eq!(platform.followers(42).unwrap(), vec![7, 8]);
    }

    #[test]
    fn profile_updates_feed_search() {
        let platform = DataPlatform::new(2, 1).unwrap();
        platform.update_profile(1, "distributed systems engineer").unwrap();
        platform.update_profile(2, "sales leader enterprise").unwrap();
        platform.pump().unwrap();
        assert_eq!(platform.search_profiles("distributed systems"), vec!["member:000000001"]);
        assert_eq!(platform.search_profiles("sales"), vec!["member:000000002"]);
        // Update re-indexes.
        platform.update_profile(1, "machine learning researcher").unwrap();
        platform.pump().unwrap();
        assert!(platform.search_profiles("distributed").is_empty());
        assert_eq!(platform.search_profiles("machine learning"), vec!["member:000000001"]);
    }

    #[test]
    fn profile_reads_serve_from_espresso() {
        let platform = DataPlatform::new(2, 1).unwrap();
        assert_eq!(platform.profile(5).unwrap(), None);
        platform.update_profile(5, "storage systems engineer").unwrap();
        // Espresso is the serving store: readable before any pump.
        assert_eq!(
            platform.profile(5).unwrap().as_deref(),
            Some("storage systems engineer")
        );
        // Search follows Espresso's update stream, so it finds the member
        // once a pump has run.
        assert!(platform.search_profiles("storage").is_empty());
        platform.pump().unwrap();
        assert_eq!(platform.search_profiles("storage"), vec!["member:000000005"]);
    }

    #[test]
    fn pymk_build_pull_swap_serves_lookups() {
        let platform = DataPlatform::new(3, 1).unwrap();
        assert_eq!(platform.pymk_recommendations(1).unwrap(), None);
        let run = |next: u64, score: &str| {
            let mut job = platform.start_pymk_build().unwrap();
            for m in 0..100u64 {
                let value = format!("{}:{score}", (m + next) % 100);
                job.map(member_key(m).as_bytes(), bytes::Bytes::from(value))
                    .unwrap();
            }
            platform.publish_pymk(job).unwrap()
        };
        assert_eq!(run(1, "0.9"), 1);
        assert_eq!(
            platform.pymk_recommendations(7).unwrap(),
            Some(bytes::Bytes::from("8:0.9"))
        );
        // A second "job run" swaps in new scores atomically.
        assert_eq!(run(2, "0.1"), 2);
        assert_eq!(
            platform.pymk_recommendations(7).unwrap(),
            Some(bytes::Bytes::from("9:0.1"))
        );
    }

    #[test]
    fn concurrent_follows_are_not_lost() {
        use std::sync::Arc;
        let platform = Arc::new(DataPlatform::new(2, 1).unwrap());
        let handles: Vec<_> = (0..8u64)
            .map(|member| {
                let platform = Arc::clone(&platform);
                std::thread::spawn(move || {
                    platform.follow_company(member, 1).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        platform.pump().unwrap();
        // Every acked follow appears exactly once: each is its own edge
        // row, not a shared list for racing writers to lose updates on.
        let mut followers = platform.followers(1).unwrap();
        followers.sort_unstable();
        assert_eq!(followers, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn stream_dispatch_replaces_polling() {
        let platform = DataPlatform::new(2, 1).unwrap();
        let dispatcher = platform.start_stream_dispatch();
        platform.follow_company(1, 100).unwrap();
        platform.follow_company(2, 100).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while platform.followers(100).unwrap().len() < 2
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        dispatcher.stop();
        // Both follows reached the Voldemort cache without any pump() call.
        let mut followers = platform.followers(100).unwrap();
        followers.sort_unstable();
        assert_eq!(followers, vec![1, 2]);
    }

    /// A default platform on a network and a virtual clock the test keeps.
    fn sim_platform() -> (DataPlatform, SimNetwork, SimClock) {
        let (network, clock) = (SimNetwork::reliable(), SimClock::new());
        let config = PlatformConfig::default();
        let platform =
            DataPlatform::with_parts(config, network.clone(), Arc::new(clock.clone())).unwrap();
        (platform, network, clock)
    }

    #[test]
    fn pump_readmits_a_banned_replica_that_is_back() {
        let (platform, network, clock) = sim_platform();
        network.crash(NodeId(0));
        // Ten failed deliveries in one detector window ban the node.
        for member in 0..40 {
            platform.follow_company(member, 7).unwrap();
        }
        platform.pump().unwrap();
        assert_eq!(platform.voldemort.detector().banned_nodes(), vec![NodeId(0)]);
        // Back up, but only a recovery probe readmits it — the pump's.
        network.restart(NodeId(0));
        clock.advance(Duration::from_secs(6));
        platform.pump().unwrap();
        assert!(platform.voldemort.detector().banned_nodes().is_empty());
        assert_eq!(platform.voldemort.pending_hints(), 0);
        // It serves again: the list's next append reads both replicas and
        // heals the one that missed 40 follows, whichever a read lands on.
        platform.follow_company(40, 7).unwrap();
        platform.pump().unwrap();
        assert_eq!(platform.followers(7).unwrap(), (0..=40).collect::<Vec<_>>());
    }

    #[test]
    fn a_failing_pump_stage_does_not_starve_the_stages_after_it() {
        let (platform, network, _clock) = sim_platform();
        // Both replicas of company 42's list are unreachable, so the
        // follow cacher cannot apply the follow below.
        let key = company_row_key(42).to_string();
        for replica in platform.voldemort.ring().preference_list(key.as_bytes(), 2).unwrap() {
            network.crash(replica);
        }
        platform.follow_company(1, 42).unwrap();
        platform.update_profile(1, "storage systems engineer").unwrap();
        platform.track("page_view member=1").unwrap();
        assert!(platform.pump().is_err());
        // Search, the audit flush, the mirror and the loader ran anyway.
        assert_eq!(platform.search_profiles("storage"), vec!["member:000000001"]);
        assert_eq!(platform.force_warehouse_load().unwrap(), 1);
        assert_eq!(platform.warehouse_rows(), 1);
    }

    #[test]
    fn events_flow_to_online_consumer_and_warehouse() {
        let platform = DataPlatform::new(2, 2).unwrap();
        for i in 0..32 {
            platform.track(&format!("page_view member={i}")).unwrap();
        }
        platform.pump().unwrap();
        // Online path: all 32 events readable from the live cluster.
        let mut online_total = 0;
        for p in 0..8 {
            let mut consumer = platform.activity_consumer(p).unwrap();
            online_total += consumer.poll().unwrap().len();
        }
        assert_eq!(online_total, 32);
        // Offline path: mirror + forced load lands the same 32.
        assert_eq!(platform.force_warehouse_load().unwrap(), 32);
        assert_eq!(platform.warehouse_rows(), 32);
    }
}
