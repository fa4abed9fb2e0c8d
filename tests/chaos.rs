//! Deterministic chaos scenarios: every system under a seeded fault
//! schedule, checked against cross-system invariants at quiesce.
//!
//! Each scenario is a pure function of its seed: the [`ChaosScheduler`]
//! owns the run's `SimClock` and seeded `SimNetwork`, the workload is a
//! deterministic op stream, and no code on the chaos path consults the
//! wall clock or OS RNG. A failing run prints a one-line repro naming its
//! one sweep test (`CHAOS_SEED=<seed> cargo test --test chaos
//! chaos_sweep_<scenario> -- --exact`, so no sibling scenario re-runs)
//! plus the event trace; re-running with that seed reproduces the run byte for
//! byte (asserted by `same_seed_yields_byte_identical_traces` below, and
//! exercised end-to-end by the planted-violation test).
//!
//! Each contract has one checker: the Espresso key timeline and the Kafka
//! log model live in `tests/contracts/`, shared with the random walks of
//! `tests/replication_walks.rs`, and each gate only chaos runs is one
//! function below, called by every scenario that checks it. A scenario's
//! own closures check only what is its alone.
//!
//! Default sweep is 5 seeds per scenario; CI widens it with
//! `CHAOS_SEEDS=20`, a repro pins one with `CHAOS_SEED=<n>`, and
//! `CHAOS_TRACE_DIR=<dir>` writes each sweep run's trace to
//! `<dir>/<scenario>-<seed>.trace`.

mod contracts;

use bytes::Bytes;
use contracts::{KeyModel, LogModel};
use li_bench::site::recorded_platform;
use li_commons::chaos::{sweep_seeds, ChaosConfig, ChaosFailure, ChaosScheduler, NetworkOnlyHooks};
use li_commons::clock::VectorClock;
use li_commons::failure::FailureDetectorConfig;
use li_commons::metrics::MetricsRegistry;
use li_commons::migrate::{MigrationConfig, MigrationCoordinator, MigrationDriver, MigrationPhase};
use li_commons::ring::{HashRing, NodeId, PartitionId};
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_commons::sim::SimClock;
use li_espresso::{DatabaseSchema, EspressoCluster, TableSchema};
use li_kafka::audit::AuditReconciler;
use li_kafka::log::LogConfig;
use li_kafka::mirror::MirrorMaker;
use li_kafka::{AckMode, KafkaCluster, MessageSet, ReplicatedCluster};
use li_sqlstore::{Database, RowKey};
use li_voldemort::{QuorumConfig, ReadFanOut, StoreClient, StoreDef, VoldemortCluster};
use li_workload::{SiteMix, SiteOp, SiteWorkload};
use linkedin_data_infra::consumers::{company_row_key, member_row_key, union_ids};
use linkedin_data_infra::platform::ACTIVITY_TOPIC;
use linkedin_data_infra::{DataPlatform, ShardMode, SiteBench, SiteBenchConfig};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A scheduler of crash/restart faults only, delivered through the hooks,
/// over `nodes` with at most `max_down` of them down at once.
fn hooks_only(seed: u64, nodes: Vec<NodeId>, max_down: usize) -> ChaosScheduler {
    let config = ChaosConfig {
        max_down,
        ..ChaosConfig::hooks_only()
    };
    ChaosScheduler::new(seed, nodes, config)
}

// ---------------------------------------------------------------------
// Voldemort: the shared harness and gates.
// ---------------------------------------------------------------------

/// A write the client saw acked: key, value and the write's clock.
type Acked = (String, Bytes, VectorClock);

/// A Voldemort cluster on the scheduler's network and clock, with one
/// store, `s`, at N=3, R=2, W=2.
fn quorum_store(sched: &ChaosScheduler, ring: HashRing) -> Arc<VoldemortCluster> {
    let cluster =
        VoldemortCluster::with_parts(ring, sched.network(), Arc::new(sched.clock())).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    cluster
}

/// Writes `value` to `key` the way an application retries:
/// `apply_update` re-reads at quorum and re-writes with a dominating
/// clock, so a success is W acks of the *current* write. Between attempts,
/// virtual time passes, the async recovery path (failure probes) runs and
/// the schedule steps. Returns the write if it was acked.
fn put_retrying(
    sched: &mut ChaosScheduler,
    cluster: &VoldemortCluster,
    client: &StoreClient,
    (key, value): (String, Bytes),
    attempts: usize,
) -> Option<Acked> {
    for _attempt in 0..attempts {
        match client.apply_update(key.as_bytes(), 5, &|_| Some(value.clone())) {
            Ok(write_clock) => return Some((key, value, write_clock)),
            Err(_) => {
                sched.clock().advance(Duration::from_secs(6));
                cluster.run_failure_probes();
                sched.step(cluster);
            }
        }
    }
    None
}

/// Twenty-four acked writes before any fault, so a migration's snapshot
/// phase has an image to copy.
fn preload(client: &StoreClient) -> Vec<Acked> {
    (0..24u32)
        .map(|i| {
            let (key, value) = (format!("k{i}"), Bytes::from(format!("seed-{i}")));
            let write_clock = client
                .apply_update(key.as_bytes(), 5, &|_| Some(value.clone()))
                .unwrap();
            (key, value, write_clock)
        })
        .collect()
}

/// Drains the recovery machinery after a heal: up to 40 rounds of six
/// virtual seconds, each probing banned nodes and replaying hints, until no
/// hint is pending and, with `until_unbanned`, no node is banned.
fn drain_recovery(sched: &ChaosScheduler, cluster: &VoldemortCluster, until_unbanned: bool) {
    for _ in 0..40 {
        sched.clock().advance(Duration::from_secs(6));
        cluster.run_failure_probes();
        cluster.deliver_hints();
        if cluster.pending_hints() == 0
            && (!until_unbanned || cluster.detector().banned_nodes().is_empty())
        {
            break;
        }
    }
}

/// quorum-durability: every acked write reads back non-empty, dominated by
/// a surviving version's clock, and with its own bytes at an equal clock.
fn acked_not_lost(client: &StoreClient, acked: &[Acked]) -> Result<(), String> {
    for (key, value, write_clock) in acked {
        let siblings = client
            .get(key.as_bytes())
            .map_err(|e| format!("read of acked `{key}` failed: {e}"))?;
        if siblings.is_empty() {
            return Err(format!("acked key `{key}` unreadable (write lost)"));
        }
        if !siblings.iter().any(|v| v.clock.descends_from(write_clock)) {
            return Err(format!(
                "acked write to `{key}` not covered by any surviving version"
            ));
        }
        if siblings
            .iter()
            .any(|v| v.clock == *write_clock && v.value != *value)
        {
            return Err(format!("acked key `{key}` returned wrong bytes"));
        }
    }
    Ok(())
}

/// hints-drained: no hint is still pending.
fn hints_drained(cluster: &VoldemortCluster) -> Result<(), String> {
    match cluster.pending_hints() {
        0 => Ok(()),
        n => Err(format!("{n} hints still pending after recovery")),
    }
}

/// Every preference-list owner of each acked key holds a version that
/// descends from the acked clock — with `only`, just that node, for the
/// keys it owns.
fn owners_hold(
    cluster: &VoldemortCluster,
    acked: &[Acked],
    only: Option<NodeId>,
) -> Result<(), String> {
    for (key, _, write_clock) in acked {
        let prefs = cluster
            .ring()
            .preference_list(key.as_bytes(), 3)
            .map_err(|e| e.to_string())?;
        for owner in prefs.into_iter().filter(|o| only.is_none_or(|n| n == *o)) {
            let held = cluster
                .node(owner)
                .map_err(|e| e.to_string())?
                .get("s", key.as_bytes())
                .map_err(|e| format!("owner {owner} read of `{key}`: {e}"))?;
            if !held.iter().any(|v| v.clock.descends_from(write_clock)) {
                return Err(format!("owner {owner} of `{key}` misses the acked write"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Online migration: the shared harness and gate.
// ---------------------------------------------------------------------

/// The phased coordinator with a generous verify budget: divergence while
/// an endpoint crash-loops or is cut off is lag, not corruption — refusal
/// is reserved for real divergence (see the planted shadow-mismatch test
/// in the voldemort crate).
fn migration_coordinator(metrics: &Arc<MetricsRegistry>) -> MigrationCoordinator {
    let config = MigrationConfig {
        verify_retries: 10_000,
        ..MigrationConfig::default()
    };
    MigrationCoordinator::new(metrics, config)
}

/// Steps an unfinished migration once and notes a phase change. A phase
/// that a crashed or cut-off endpoint fails is retried at the next op.
fn step_migration(
    sched: &mut ChaosScheduler,
    coordinator: &MigrationCoordinator,
    driver: &dyn MigrationDriver,
    phase: &mut MigrationPhase,
    i: u64,
) {
    if coordinator.phase() == MigrationPhase::Done {
        return;
    }
    if let Ok(next) = coordinator.step(driver) {
        if next != *phase {
            *phase = next;
            sched.note(format!("op {i}: migration phase -> {next}"));
        }
    }
}

/// After the heal, runs a migration the faults left unfinished to its end.
fn finish_migration(
    sched: &mut ChaosScheduler,
    coordinator: &MigrationCoordinator,
    driver: &dyn MigrationDriver,
) {
    if coordinator.phase() != MigrationPhase::Done {
        if let Err(e) = coordinator.run(driver, 10_000) {
            sched.note(format!("migration did not complete after heal: {e}"));
        }
    }
}

/// The migration is done with exactly one cutover flip and no refusal (lag
/// misread as corruption). Each scenario checks its own ownership.
fn migrated_once(
    coordinator: &MigrationCoordinator,
    metrics: &MetricsRegistry,
) -> Result<(), String> {
    if coordinator.phase() != MigrationPhase::Done {
        return Err(format!("migration stuck in phase {}", coordinator.phase()));
    }
    let snapshot = metrics.snapshot();
    match (
        snapshot.counter("migration.cutover_flips"),
        snapshot.counter("migration.cutover_refusals"),
    ) {
        (Some(1), Some(0)) => Ok(()),
        (flips, refusals) => Err(format!(
            "cutover flips {flips:?} and refusals {refusals:?}, want exactly 1 and 0"
        )),
    }
}

// ---------------------------------------------------------------------
// Espresso: the shared harness and gates.
// ---------------------------------------------------------------------

/// Albums acked through the router, each on its own key's timeline.
type Albums = Vec<(RowKey, KeyModel<Record>)>;

fn tiny_music(partitions: u32, replication: usize) -> DatabaseSchema {
    DatabaseSchema::new("Music", partitions, replication)
        .with_table(
            TableSchema::new("Album", ["artist", "album"]),
            RecordSchema::new("Album", 1, vec![Field::new("year", FieldType::Long)]).unwrap(),
        )
        .unwrap()
}

/// Puts album `i` through the router; an acked put starts its key's
/// timeline in `acked`.
fn put_album(sched: &mut ChaosScheduler, cluster: &EspressoCluster, acked: &mut Albums, i: u64) {
    let key = RowKey::new([format!("artist-{}", i % 7), format!("album-{i}")]);
    let album = Record::new().with("year", Value::Long(1990 + i as i64));
    match cluster.put("Music", "Album", key.clone(), &album) {
        Ok(_etag) => {
            let mut timeline = KeyModel::new();
            timeline.write(Some(album), true);
            acked.push((key, timeline));
        }
        Err(_) => sched.note(format!("put {i} rejected (no live master)")),
    }
}

/// Pumps every relay four times after a quiesce, failures ignored.
fn pump_espresso(cluster: &EspressoCluster) {
    for _ in 0..4 {
        let _ = cluster.pump_replication();
    }
}

/// acked-docs-readable: every acked album reads as its timeline allows.
fn acked_docs_readable(cluster: &EspressoCluster, acked: &Albums) -> Result<(), String> {
    for (key, timeline) in acked {
        let got = cluster
            .get("Music", "Album", key)
            .map_err(|e| format!("read of acked {key:?} failed: {e}"))?;
        timeline
            .check(&got.map(|(record, _row)| record), 0)
            .map_err(|e| format!("acked document {key:?}: {e}"))?;
    }
    Ok(())
}

/// single-master-per-partition: no partition of `Music` has two masters.
fn single_master(cluster: &EspressoCluster) -> Result<(), String> {
    let view = cluster
        .controller()
        .external_view("Music")
        .map_err(|e| format!("no external view: {e}"))?;
    for (p, states) in &view.partitions {
        let masters: Vec<&NodeId> = states
            .iter()
            .filter(|(_, &s)| s == li_helix::ReplicaState::Master)
            .map(|(n, _)| n)
            .collect();
        if masters.len() > 1 {
            return Err(format!("partition {} has multiple masters {masters:?}", p.0));
        }
    }
    Ok(())
}

/// relay-commit-order: every node's relay streams in strict commit (SCN)
/// order with no per-key etag regressions.
fn relay_commit_order(cluster: &EspressoCluster, nodes: u16) -> Result<(), String> {
    for i in 0..nodes {
        cluster
            .relay(NodeId(i))
            .map_err(|e| format!("relay {i}: {e}"))?
            .verify_commit_order()
            .map_err(|e| format!("relay {i}: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Kafka: the shared gates.
// ---------------------------------------------------------------------

/// log-contiguity: every broker's log of each partition of `topic` passes
/// the CRC frame walk with contiguous offsets.
fn logs_contiguous(cluster: &KafkaCluster, topic: &str, partitions: u32) -> Result<(), String> {
    for (b, broker) in cluster.brokers().iter().enumerate() {
        for p in 0..partitions {
            broker
                .log(topic, p)
                .map_err(|e| format!("broker {b} {topic}/{p}: {e}"))?
                .verify_contiguity()
                .map_err(|e| format!("broker {b} {topic}/{p}: {e}"))?;
        }
    }
    Ok(())
}

/// replica-byte-identity: every replica of each `events` partition is
/// byte-identical to its leader.
fn replicas_identical(rc: &ReplicatedCluster, partitions: u32) -> Result<(), String> {
    (0..partitions).try_for_each(|p| rc.verify_replica_identity("events", p))
}

/// Replicates until a pass copies nothing, at most ten passes.
fn replicate_to_fixpoint(rc: &ReplicatedCluster) {
    for _ in 0..10 {
        if rc.replicate().unwrap() == 0 {
            break;
        }
    }
}

/// The committed messages of `events/<partition>` from offset 0.
fn committed_log(rc: &ReplicatedCluster, partition: u32) -> Result<Vec<(u64, Bytes)>, String> {
    let (messages, _) = rc
        .fetch_committed("events", partition, 0, usize::MAX)
        .map_err(|e| format!("refetch events/{partition}: {e}"))?;
    Ok(messages.into_iter().map(|(o, m)| (o, m.payload)).collect())
}

// ---------------------------------------------------------------------
// Scenario 1: Voldemort quorum durability under the full fault menu.
// ---------------------------------------------------------------------

/// Drives a 5-node Voldemort cluster (N=3, R=2, W=2) through a seeded
/// fault schedule of crashes, partitions, asymmetric link blocks, drop
/// bursts, slow links and clock-skew bursts. Invariant: after quiesce +
/// recovery (probes, hinted handoff), every acknowledged write is still
/// readable and covered by a surviving version's clock.
///
/// With `plant_violation`, an acked key is deleted behind the client's
/// back after recovery — the harness must catch it and print a repro.
fn run_voldemort_quorum(seed: u64, plant_violation: bool) -> Result<String, ChaosFailure> {
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    let mut sched = ChaosScheduler::new(seed, nodes.clone(), ChaosConfig::default());
    let cluster = quorum_store(&sched, HashRing::balanced(16, &nodes).unwrap());
    let client = cluster.client("s").unwrap();

    let mut acked: Vec<Acked> = Vec::new();
    for i in 0..120u32 {
        sched.step(&*cluster);
        let write = (format!("k{i}"), Bytes::from(format!("v{i}")));
        acked.extend(put_retrying(&mut sched, &cluster, &client, write, 8));
        if i % 20 == 0 {
            sched.note(format!("op {i}: acked_total={}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    // Drain the recovery machinery: readmit banned nodes, replay hints.
    drain_recovery(&sched, &cluster, true);
    sched.note(format!(
        "drained: acked={} pending_hints={} banned={:?}",
        acked.len(),
        cluster.pending_hints(),
        cluster.detector().banned_nodes()
    ));

    if plant_violation {
        // Delete the first acked key on every node with a clock that
        // dominates anything the run could have produced — simulating a
        // durability bug the invariant checker must catch.
        if let Some((key, _, write_clock)) = acked.first() {
            let mut dominating = write_clock.clone();
            for writer in [0u16, 1, 2, 3, 4, u16::MAX] {
                for _ in 0..50 {
                    dominating.increment(writer);
                }
            }
            for id in cluster.node_ids() {
                let _ = cluster.node(id).unwrap().delete("s", key.as_bytes(), &dominating);
            }
            sched.note(format!("PLANT: deleted acked key `{key}` on every replica"));
        }
    }

    sched.check(
        &[
            ("quorum-durability", &|| acked_not_lost(&client, &acked)),
            ("hints-drained", &|| hints_drained(&cluster)),
        ],
        &repro("chaos_sweep_voldemort_quorum"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 1b: Voldemort fan-out tail latency under slow links.
// ---------------------------------------------------------------------

/// Drives a 5-node Voldemort cluster (N=3, R=2, W=2) whose reads fan out
/// to every replica through a seeded schedule of crashes and slow
/// node↔node links, while a deterministically rotating client→replica
/// link is made slow as well. Invariants at quiesce:
///
/// * **tail-bound** — every successful quorum read completed within the
///   R-th-fastest live replica's link latency (the whole point of fanning
///   out: one slow replica must not set the request's critical path);
/// * **quorum-durability** — every acked write is still covered;
/// * **hints-drained-to-owners** — after `heal_all` + recovery, no hint is
///   pending and every preference-list owner of every acked key holds a
///   version descending from the acked clock.
///
/// With `plant_violation`, one read goes out at quorum width while the
/// slow replica is among the first R: its latency is the slow link's, and
/// the tail-bound gate must catch it.
fn run_voldemort_tail_fanout(seed: u64, plant_violation: bool) -> Result<String, ChaosFailure> {
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    // Crash + slow-link faults only: a dropped reply would leave fewer than
    // R replies to bound, and partitions can leave no quorum to measure.
    let config = ChaosConfig {
        partitions: false,
        asym_links: false,
        drops: false,
        clock_skew: false,
        ..ChaosConfig::default()
    };
    let mut sched = ChaosScheduler::new(seed, nodes.clone(), config);
    let clock = sched.clock();
    let cluster = quorum_store(&sched, HashRing::balanced(16, &nodes).unwrap());
    // Replies are ranked by their simulated completion times, so which of
    // them form the quorum is decided by the fault schedule alone.
    let client = cluster.client("s").unwrap().with_quorum_config(QuorumConfig {
        read_fan_out: ReadFanOut::All,
        ..QuorumConfig::default()
    });
    let mut plant = plant_violation.then(|| cluster.client("s").unwrap());
    let required_reads = 2usize;

    // The scheduler only slows node↔node links; the client's own links are
    // rotated here from a seeded xorshift stream so the read path always
    // has a slow replica to mask.
    let mut link_rng = seed | 1;
    let mut slow_replica: Option<NodeId> = None;
    let mut acked: Vec<Acked> = Vec::new();
    let mut tail_violations: Vec<String> = Vec::new();
    for i in 0..60u32 {
        sched.step(&*cluster);
        if i % 8 == 0 {
            if let Some(old) = slow_replica.take() {
                cluster.network().set_link_latency(StoreClient::CLIENT_NODE, old, Duration::ZERO);
            }
            link_rng ^= link_rng << 13;
            link_rng ^= link_rng >> 7;
            link_rng ^= link_rng << 17;
            let node = NodeId((link_rng % 5) as u16);
            let ms = 10 + (link_rng >> 8) % 16;
            let latency = Duration::from_millis(ms);
            cluster.network().set_link_latency(StoreClient::CLIENT_NODE, node, latency);
            slow_replica = Some(node);
            sched.note(format!("client-slow: node {} {}ms", node.0, ms));
        }

        let key = format!("t{}", i % 12);
        let write = (key.clone(), Bytes::from(format!("v{i}")));
        acked.extend(put_retrying(&mut sched, &cluster, &client, write, 6));

        // Tail bound: the R-th smallest client→replica latency over live,
        // detector-available owners is the worst a fanned-out read may
        // report as its simulated critical path.
        let prefs = cluster.ring().preference_list(key.as_bytes(), 3).unwrap();
        let mut reachable: Vec<Duration> = prefs
            .iter()
            .filter(|&&p| cluster.detector().is_available(p))
            .filter_map(|&p| cluster.network().peek_latency(StoreClient::CLIENT_NODE, p).ok())
            .collect();
        reachable.sort();
        if let Some(&bound) = reachable.get(required_reads - 1) {
            // The plant reads at quorum width once every owner is live, so
            // the first R owners are the ones it contacts, and the slow
            // replica is among them while a fast third owner sets the bound.
            let slow_in_first_r = reachable.len() == prefs.len()
                && slow_replica.is_some_and(|slow| prefs[..required_reads].contains(&slow));
            let planted = plant.take_if(|_| slow_in_first_r);
            if planted.is_some() {
                sched.note(format!("PLANT: quorum-width read of `{key}` at op {i}"));
            }
            match planted
                .as_ref()
                .unwrap_or(&client)
                .get_with_stats(key.as_bytes())
            {
                Ok((_, stats)) => {
                    if stats.sim_latency > bound {
                        tail_violations.push(format!(
                            "op {i}: read of `{key}` took {:?}, R-th fastest replica is {:?}",
                            stats.sim_latency, bound
                        ));
                    }
                }
                Err(e) => sched.note(format!("op {i}: read failed under faults: {e}")),
            }
        }
        if i % 20 == 0 {
            sched.note(format!("op {i}: acked_total={}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    cluster.network().heal_all();
    drain_recovery(&sched, &cluster, true);
    // Let the detector's sample window expire so crash-epoch failure
    // samples can't combine with the first verification success into a
    // ratio ban mid-check.
    clock.advance(Duration::from_secs(30));
    sched.note(format!(
        "drained: acked={} pending_hints={} banned={:?}",
        acked.len(),
        cluster.pending_hints(),
        cluster.detector().banned_nodes()
    ));

    let tail_bound = || -> Result<(), String> {
        match tail_violations.first() {
            None => Ok(()),
            Some(first) => Err(format!(
                "{} reads exceeded the R-th-fastest-replica bound; first: {first}",
                tail_violations.len()
            )),
        }
    };
    sched.check(
        &[
            ("tail-bound", &tail_bound),
            ("quorum-durability", &|| acked_not_lost(&client, &acked)),
            // After quorum-durability, whose all-replica reads have
            // already read-repaired any owner the hint path could
            // legitimately miss (a hint that found no holder).
            ("hints-drained-to-owners", &|| {
                hints_drained(&cluster).and_then(|()| owners_hold(&cluster, &acked, None))
            }),
        ],
        &repro("chaos_sweep_voldemort_tail_fanout"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 2: Espresso mastership failover + commit-order.
// ---------------------------------------------------------------------

/// Drives a 3-node Espresso cluster (6 partitions, replication 2)
/// through crash/restart storms (hooks-only faults — Espresso's routing
/// is Helix state, not the SimNetwork). Invariants at quiesce: every
/// acknowledged document readable with its committed value, at most one
/// master per partition, and every relay's change stream in strict
/// commit (SCN) order with no per-key etag regressions.
///
/// With `plant_violation`, one acked document is deleted through the
/// router after the drain, without the delete being recorded.
fn run_espresso_failover(seed: u64, plant_violation: bool) -> Result<String, ChaosFailure> {
    let mut sched = hooks_only(seed, (0..3).map(NodeId).collect(), 1);
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(tiny_music(6, 2)).unwrap();

    let mut acked = Albums::new();
    for i in 0..120u64 {
        sched.step(&*cluster);
        put_album(&mut sched, &cluster, &mut acked, i);
        if i % 5 == 0 {
            let _ = cluster.pump_replication();
        }
        if i % 20 == 0 {
            sched.note(format!("op {i}: acked_total={}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    pump_espresso(&cluster);
    sched.note(format!("drained: acked={}", acked.len()));

    if plant_violation {
        let (key, _) = acked.first().expect("an acked document");
        cluster.delete("Music", "Album", key.clone()).unwrap();
        sched.note(format!("PLANT: deleted acked document {key:?} through the router"));
    }

    sched.check(
        &[
            ("acked-docs-readable", &|| acked_docs_readable(&cluster, &acked)),
            ("single-master-per-partition", &|| single_master(&cluster)),
            ("relay-commit-order", &|| relay_commit_order(&cluster, 3)),
        ],
        &repro("chaos_sweep_espresso_failover"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 3: Kafka replication + mirroring byte-identity.
// ---------------------------------------------------------------------

/// Drives a 3-broker replicated Kafka cluster (3 partitions, RF=3)
/// through broker fail/recover cycles while producing, replicating and
/// consuming committed offsets — plus a live→offline MirrorMaker pair
/// pumping in the background. Invariants at quiesce: every log passes
/// the CRC frame walk with contiguous offsets, all replicas of each
/// partition are byte-identical to the leader, committed reads were
/// never rolled back, and the mirror target is byte-identical to its
/// source.
fn run_kafka_replication_and_mirror(seed: u64) -> Result<String, ChaosFailure> {
    let mut sched = hooks_only(seed, (0..3).map(NodeId).collect(), 1);
    let live = KafkaCluster::new(3).unwrap();
    let replicated = ReplicatedCluster::new(live.clone());
    replicated.create_topic("events", 3, 3).unwrap();
    // The paper's live→offline pipeline: a mirror pair on the side.
    let source = KafkaCluster::new(1).unwrap();
    let target = KafkaCluster::new(1).unwrap();
    source.create_topic("tracking", 2).unwrap();
    target.create_topic("tracking", 2).unwrap();
    let mirror = MirrorMaker::new(source.clone(), target.clone(), ["tracking"]).unwrap();

    // Committed consumer reads per partition: (byte offset, payload).
    let mut consumed: Vec<Vec<(u64, Bytes)>> = vec![Vec::new(); 3];
    let mut next_offset = [0u64; 3];
    let mut produced_ok = 0u64;
    for i in 0..150u64 {
        sched.step(&replicated);
        let partition = (i % 3) as u32;
        let set = MessageSet::from_payloads([format!("m{i}")]);
        if replicated.produce_with_ack("events", partition, &set, AckMode::Leader).is_ok() {
            produced_ok += 1;
        }
        source
            .broker_for("tracking", (i % 2) as u32)
            .unwrap()
            .produce_frames_grouped(
                "tracking",
                (i % 2) as u32,
                set.encode(),
                1,
                set.payload_bytes(),
                AckMode::Leader,
            )
            .unwrap();
        if i % 4 == 0 {
            let _ = replicated.replicate();
        }
        if i % 7 == 0 {
            let _ = mirror.pump();
        }
        let p = partition as usize;
        if let Ok((messages, next)) =
            replicated.fetch_committed("events", partition, next_offset[p], usize::MAX)
        {
            for (offset, message) in messages {
                consumed[p].push((offset, message.payload.clone()));
            }
            next_offset[p] = next;
        }
        if i % 30 == 0 {
            sched.note(format!("op {i}: produced_ok={produced_ok}"));
        }
    }

    sched.quiesce(&replicated);
    replicate_to_fixpoint(&replicated);
    mirror.pump().unwrap();
    sched.note(format!(
        "drained: produced_ok={produced_ok} consumed={:?}",
        consumed.iter().map(Vec::len).collect::<Vec<_>>()
    ));

    let contiguity_all = || -> Result<(), String> {
        logs_contiguous(&live, "events", 3)?;
        logs_contiguous(&source, "tracking", 2).map_err(|e| format!("source {e}"))?;
        logs_contiguous(&target, "tracking", 2).map_err(|e| format!("target {e}"))
    };
    // Nothing a consumer saw below the high watermark may have been
    // rolled back: its reads agree with each other, and re-fetching from 0
    // replays the same bytes at the same offsets.
    let committed_stable = || -> Result<(), String> {
        for (p, reads) in (0..3u32).zip(&consumed) {
            let mut log = LogModel::default();
            log.observe(reads)
                .and_then(|()| log.check_stable(&committed_log(&replicated, p)?))
                .map_err(|e| format!("events/{p}: {e}"))?;
        }
        Ok(())
    };
    let fingerprint = |cluster: &KafkaCluster, p| {
        let log = cluster.brokers()[0].log("tracking", p).map_err(|e| e.to_string())?;
        Ok::<_, String>(log.content_fingerprint())
    };
    let mirror_identity = || -> Result<(), String> {
        for p in 0..2u32 {
            let (src, dst) = (fingerprint(&source, p)?, fingerprint(&target, p)?);
            if src != dst {
                return Err(format!(
                    "tracking/{p}: mirror target diverged from source ({src:#x} != {dst:#x})"
                ));
            }
        }
        Ok(())
    };
    sched.check(
        &[
            ("log-contiguity", &contiguity_all),
            ("replica-byte-identity", &|| replicas_identical(&replicated, 3)),
            ("committed-reads-stable", &committed_stable),
            ("mirror-byte-identity", &mirror_identity),
        ],
        &repro("chaos_sweep_kafka_replication_and_mirror"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 3b: Kafka ack-mode durability under leader crashes.
// ---------------------------------------------------------------------

const ACK_PARTITIONS: u32 = 2;

/// Crash hooks that snapshot, at the instant a *leader* broker dies, the
/// partition's high watermark and the current op index — exactly the
/// data needed to bound Leader-ack loss to the unshipped tail. The
/// snapshot is taken before `fail_broker` runs the election, so it
/// reflects what the dying leader had actually committed.
struct AckCrashHooks<'a> {
    rc: &'a ReplicatedCluster,
    op: &'a AtomicU64,
    /// (partition, op index at crash, high watermark at crash).
    crashes: Mutex<Vec<(u32, u64, u64)>>,
}

impl li_commons::chaos::FaultHooks for AckCrashHooks<'_> {
    fn crash(&self, node: NodeId) {
        for p in 0..ACK_PARTITIONS {
            if self.rc.leader_of("events", p) == Ok(node.0) {
                if let Ok(hw) = self.rc.high_watermark("events", p) {
                    self.crashes
                        .lock()
                        .push((p, self.op.load(Ordering::SeqCst), hw));
                }
            }
        }
        let _ = self.rc.fail_broker(node.0);
    }

    fn restart(&self, node: NodeId) {
        self.rc.recover_broker(node.0);
    }
}

/// Drives a 3-broker replicated cluster (RF=3) through leader
/// fail/recover cycles while producing under all three ack modes via the
/// group-commit queue, one producer at a time. Invariants at quiesce:
///
/// * **full-isr-durability** — every `FullIsr`-acked message survives
///   failover byte-identically at its acked offset.
/// * **leader-ack-loss-bounded** — a `Leader`-acked message may only be
///   lost (or overwritten by a divergent successor) if some leader crash
///   *after* its ack caught it above that crash's high watermark — the
///   unshipped tail. Nothing below any crash's watermark may vanish.
/// * replica byte-identity and CRC-walk contiguity, as everywhere else.
///
/// With `plant_violation`, every replica of `events/0` is reset after the
/// drain.
fn run_kafka_ack_durability(seed: u64, plant_violation: bool) -> Result<String, ChaosFailure> {
    let mut sched = hooks_only(seed, (0..3).map(NodeId).collect(), 1);
    let live =
        KafkaCluster::with_parts(3, LogConfig::default(), Arc::new(SimClock::new())).unwrap();
    let replicated = ReplicatedCluster::new(live.clone());
    replicated.create_topic("events", ACK_PARTITIONS, 3).unwrap();
    let op = AtomicU64::new(0);
    let hooks = AckCrashHooks {
        rc: &replicated,
        op: &op,
        crashes: Mutex::new(Vec::new()),
    };

    // What each partition's FullIsr produces were promised.
    let mut full_isr: Vec<LogModel<Bytes>> =
        (0..ACK_PARTITIONS).map(|_| LogModel::default()).collect();
    // (partition, acked offset, payload, op index of the ack).
    let mut leader_acked: Vec<(u32, u64, Bytes, u64)> = Vec::new();
    let (mut full_isr_acks, mut none_sent, mut rejected) = (0u64, 0u64, 0u64);
    let acks = [AckMode::Leader, AckMode::FullIsr, AckMode::None];
    for i in 0..150u64 {
        op.store(i, Ordering::SeqCst);
        sched.step(&hooks);
        let partition = (i % u64::from(ACK_PARTITIONS)) as u32;
        let payload = Bytes::from(format!("m{i}"));
        let set = MessageSet::from_payloads([payload.clone()]);
        let ack = acks[(i % 3) as usize];
        match replicated.produce_with_ack("events", partition, &set, ack) {
            Ok(receipt) => match ack {
                AckMode::FullIsr => {
                    let offset = receipt.base_offset.unwrap();
                    full_isr[partition as usize].ack_full_isr(offset, payload);
                    full_isr_acks += 1;
                }
                AckMode::Leader => {
                    leader_acked.push((partition, receipt.base_offset.unwrap(), payload, i));
                }
                AckMode::None => none_sent += 1,
            },
            Err(_) => rejected += 1,
        }
        if i % 5 == 0 {
            let _ = replicated.replicate();
        }
        if i % 30 == 0 {
            sched.note(format!(
                "op {i}: full_isr={} leader={} none={} rejected={}",
                full_isr_acks,
                leader_acked.len(),
                none_sent,
                rejected
            ));
        }
    }

    sched.quiesce(&hooks);
    replicated.flush_ingest();
    replicate_to_fixpoint(&replicated);
    let crashes = hooks.crashes.into_inner();
    sched.note(format!(
        "drained: full_isr={} leader={} crashes={crashes:?}",
        full_isr_acks,
        leader_acked.len()
    ));

    if plant_violation {
        for broker in live.brokers() {
            broker.reset_partition("events", 0);
        }
        sched.note("PLANT: reset every replica of events/0");
    }

    // Committed state per partition after full recovery.
    let committed: Vec<Vec<(u64, Bytes)>> = (0..ACK_PARTITIONS)
        .map(|p| committed_log(&replicated, p).unwrap())
        .collect();

    let full_isr_durability = || -> Result<(), String> {
        for (p, log) in full_isr.iter().enumerate() {
            log.check_full_isr(&committed[p])
                .map_err(|e| format!("events/{p}: {e}"))?;
        }
        Ok(())
    };
    let leader_loss_bounded = || -> Result<(), String> {
        for (p, offset, payload, op_i) in &leader_acked {
            let survived = matches!(
                committed[*p as usize].iter().find(|(o, _)| o == offset),
                Some((_, got)) if got == payload
            );
            if survived {
                continue;
            }
            // Loss is legitimate only above the watermark of a leader
            // crash that happened strictly after the ack.
            let excused = crashes
                .iter()
                .any(|(cp, cop, hw)| cp == p && cop > op_i && offset >= hw);
            if !excused {
                return Err(format!(
                    "events/{p} offset {offset} (op {op_i}): Leader-acked message lost \
                     below every subsequent crash watermark (crashes: {crashes:?})"
                ));
            }
        }
        Ok(())
    };
    sched.check(
        &[
            ("full-isr-durability", &full_isr_durability),
            ("leader-ack-loss-bounded", &leader_loss_bounded),
            ("replica-byte-identity", &|| replicas_identical(&replicated, ACK_PARTITIONS)),
            ("log-contiguity", &|| logs_contiguous(&live, "events", ACK_PARTITIONS)),
        ],
        &repro("chaos_sweep_kafka_ack_durability"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 4: sqlstore binlog replication equivalence.
// ---------------------------------------------------------------------

/// A primary database with two binlog-pulling replicas. Crashed
/// replicas stop applying; on restart they resume from their applied
/// SCN. Invariants at quiesce: both replicas converge to the primary's
/// exact state fingerprint, and recovering a fresh database from the
/// primary's binlog bytes reproduces that same state (replay
/// equivalence).
fn run_sqlstore_replication(seed: u64) -> Result<String, ChaosFailure> {
    let mut sched = hooks_only(seed, (0..3).map(NodeId).collect(), 2);
    let clock: Arc<dyn li_commons::sim::Clock> = Arc::new(sched.clock());
    let primary = Database::with_clock("member_db", clock);
    primary.create_table("members").unwrap();
    let replicas = [Database::new("replica-1"), Database::new("replica-2")];
    for replica in &replicas {
        replica.create_table("members").unwrap();
    }

    let hooks = NetworkOnlyHooks;
    for i in 0..200u64 {
        sched.step(&hooks);
        let mut txn = primary.begin();
        txn.put(
            "members",
            RowKey::new([format!("m{}", i % 40)]),
            Bytes::from(format!("profile-{i}")),
            1,
        );
        if i % 3 == 0 {
            txn.put(
                "members",
                RowKey::new([format!("m{}", (i + 1) % 40)]),
                Bytes::from(format!("side-effect-{i}")),
                1,
            );
        }
        if i % 17 == 0 {
            txn.delete("members", RowKey::new([format!("m{}", i % 40)]));
        }
        primary.commit(txn).unwrap();
        // Replica r rides on chaos node r+1 (node 0 is the primary);
        // while "crashed" it stops pulling the binlog.
        for (r, replica) in replicas.iter().enumerate() {
            let node = NodeId((r + 1) as u16);
            if sched.crashed_nodes().contains(&node) {
                continue;
            }
            for entry in primary.binlog_after(replica.applied_scn()) {
                replica.apply_replicated(&entry).unwrap();
            }
        }
        if i % 40 == 0 {
            sched.note(format!(
                "op {i}: primary_scn={} replica_scns=[{}, {}]",
                primary.last_scn(),
                replicas[0].applied_scn(),
                replicas[1].applied_scn()
            ));
        }
    }

    sched.quiesce(&hooks);
    for replica in &replicas {
        for entry in primary.binlog_after(replica.applied_scn()) {
            replica.apply_replicated(&entry).unwrap();
        }
    }
    sched.note(format!(
        "drained: primary_scn={} fingerprint={:#x}",
        primary.last_scn(),
        primary.state_fingerprint()
    ));

    let replicas_converge = || -> Result<(), String> {
        let want = primary.state_fingerprint();
        for (r, replica) in replicas.iter().enumerate() {
            let got = replica.state_fingerprint();
            if got != want {
                return Err(format!(
                    "replica {r} state {got:#x} != primary {want:#x} \
                     (applied_scn {} vs last_scn {})",
                    replica.applied_scn(),
                    primary.last_scn()
                ));
            }
        }
        Ok(())
    };
    let replay_equivalence = || primary.verify_replay_equivalence();
    let recover_matches = || -> Result<(), String> {
        let recovered = Database::recover("member_db", &primary.binlog_bytes());
        if recovered.state_fingerprint() != primary.state_fingerprint() {
            return Err("recovered-from-binlog state diverges from primary".to_string());
        }
        Ok(())
    };
    sched.check(
        &[
            ("replicas-converge", &replicas_converge),
            ("binlog-replay-equivalence", &replay_equivalence),
            ("recover-matches-primary", &recover_matches),
        ],
        &repro("chaos_sweep_sqlstore_replication"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 5: the assembled site under the full fault menu.
// ---------------------------------------------------------------------

/// The invariant scenario 5 breaks after its drain, to prove a gate.
#[derive(Debug, Clone, Copy)]
enum SitePlant {
    /// One acked cached follow list deleted from every replica.
    CachedList,
    /// Acked cached follow lists deleted from their first preference
    /// replica only, the one an R=1 serving read lands on: one list more
    /// than follow-serving-read-fresh lets go stale.
    ServingList,
    /// One member's superseded profile text back in people search.
    SupersededText,
}

/// The real [`DataPlatform`] — the recorded 3/2/3/8/4 shape at the follow
/// stores' N=2, R=W=1 — built on the scheduler's network and clock,
/// seeded by the one population loader, and driven by one seeded site op
/// stream while the scheduler injects crashes, partitions, link blocks,
/// drop bursts, slow links and clock-skew bursts. Chaos node `i` is
/// Voldemort node `i` (by network) and Espresso node `i` (by the
/// platform's hooks): one crash is a correlated host loss. Recovery is
/// the platform's own — after quiesce nothing runs but virtual time and
/// `pump()`. Gates after the drain:
///
/// * **recovery-drained** — no banned node, no pending hint, the relay at
///   the primary's SCN;
/// * **follow-serving-read-fresh** — an R=1 *serving* read returns the
///   primary-derived set for every cached list but at most one list per
///   hint that found no holder (`voldemort.client.put.hint_unplaced`):
///   every replica a put missed is owed a hint, delivered to it after
///   heal;
/// * **follow-no-acked-write-lost** — every cached list, as the union
///   over all its replicas, equals the primary-derived set, no id twice;
/// * **databus-lag-drained** — both subscribers at the relay's head;
/// * **profile-timeline** — every member reads as its profile's timeline
///   allows: its last acked text (the seeded one at first) or a later
///   attempt that was not acked (§IV timeline consistency across Espresso
///   failover);
/// * **search-converged** — people search, which follows Espresso's
///   update stream across the same failovers, finds every member by one
///   of the texts its timeline still allows, and no member by a word that
///   only a superseded text held;
/// * **pymk-serves** — every member's read-only record is served;
/// * **kafka-conserved** — tracked = consumed online = warehouse rows,
///   and every audit window reconciles on the offline mirror.
///
/// A [`SitePlant`] breaks one invariant after the drain, and its gate
/// must catch it.
fn run_site_closed_loop(seed: u64, plant: Option<SitePlant>) -> Result<String, ChaosFailure> {
    let config = ChaosConfig {
        max_down: 1,
        ..ChaosConfig::default()
    };
    let mut sched = ChaosScheduler::new(seed, (0..3).map(NodeId).collect(), config);
    let clock = sched.clock();

    let mut bench_config = SiteBenchConfig::smoke(120, 1, 0, seed);
    bench_config.platform = recorded_platform(ShardMode::Deterministic);
    let platform = DataPlatform::with_parts(
        bench_config.platform.clone(),
        sched.network(),
        Arc::new(clock.clone()),
    )
    .unwrap();
    let bench = SiteBench::prepare_on(platform, bench_config).unwrap();
    let (platform, graph) = (bench.platform(), bench.graph());
    let (members, companies) = (graph.member_count(), graph.company_count());

    // The primary-derived truth, by id: the seeded graph plus every acked
    // follow.
    let mut follows = vec![BTreeSet::new(); members as usize];
    let mut followers = vec![BTreeSet::new(); companies as usize];
    for member in 0..members {
        for &company in graph.follows_of(member) {
            follows[member as usize].insert(company);
            followers[company as usize].insert(member);
        }
    }
    // Each member's profile timeline, from its seeded text on: an update
    // that returned an error may have committed its Espresso half all the
    // same.
    let mut profiles: Vec<KeyModel<String>> = (0..members)
        .map(|m| {
            let mut timeline = KeyModel::new();
            timeline.write(Some(graph.profile_of(m).to_string()), true);
            timeline
        })
        .collect();

    let workload = SiteWorkload::new(
        members,
        companies,
        SiteMix {
            profile_reads: 0.15,
            pymk_reads: 0.15,
            follow_writes: 0.40,
            activity_events: 0.30,
        },
    );
    let (mut follows_acked, mut tracked, mut profile_ops) = (0u64, 0usize, 0u64);
    for (i, op) in workload.ops_for_driver(seed, 0, 160).iter().enumerate() {
        sched.step(&**platform);
        let outcome = match op {
            SiteOp::PymkRead(m) => platform
                .followed_companies(*m)
                .and_then(|_| platform.pymk_recommendations(*m))
                .map(drop),
            SiteOp::ProfileRead(m) => {
                profile_ops += 1;
                if profile_ops % 2 == 1 {
                    platform.profile(*m).map(drop)
                } else {
                    let text = format!("member {m} rewrote this at op {i}");
                    let outcome = platform.update_profile(*m, &text);
                    profiles[*m as usize].write(Some(text), outcome.is_ok());
                    outcome
                }
            }
            SiteOp::Follow { member, company } => {
                platform.follow_company(*member, *company).map(|()| {
                    follows[*member as usize].insert(*company);
                    followers[*company as usize].insert(*member);
                    follows_acked += 1;
                })
            }
            SiteOp::Activity { event, .. } => platform.track(event).map(|()| tracked += 1),
        };
        if let Err(e) = outcome {
            sched.note(format!("op {i}: {} failed under faults: {e}", op.tier()));
        }
        if i % 6 == 0 {
            // A stage can fail while a quorum is short or a master is
            // moving; checkpoints only advance on success and the
            // cacher's append-if-absent makes redelivery idempotent.
            if let Err(e) = platform.pump() {
                sched.note(format!("op {i}: pump deferred: {e}"));
            }
        }
        if i % 40 == 0 {
            sched.note(format!("op {i}: follows_acked={follows_acked} tracked={tracked}"));
        }
    }

    // Heal, then let the platform recover on its own: virtual time passes
    // and the pump runs — probes, hint replay, catch-up, mirror, loader.
    // A round is one failure-detector window: samples taken under faults
    // stop counting and a banned node comes due for its probe.
    sched.quiesce(&**platform);
    let voldemort = &platform.voldemort;
    let round = FailureDetectorConfig::default().window + Duration::from_secs(1);
    let mut last_pump = Ok(());
    for _ in 0..40 {
        clock.advance(round);
        last_pump = platform.pump();
        if last_pump.is_ok()
            && voldemort.detector().banned_nodes().is_empty()
            && voldemort.pending_hints() == 0
            && platform.warehouse_rows() == tracked
        {
            break;
        }
    }

    // What a serving read (R=1, so one replica) returns stale, against the
    // hints that found no holder: a replica that missed a write is owed a
    // hint, so only a hint that could not be parked leaves one behind.
    let served = |ids: Result<Vec<u64>, _>| ids.ok().map(BTreeSet::from_iter);
    let stale_lists = || {
        let stale_follows = (0..members)
            .filter(|m| served(platform.followed_companies(*m)).as_ref() != Some(&follows[*m as usize]));
        let stale_followers = (0..companies)
            .filter(|c| served(platform.followers(*c)).as_ref() != Some(&followers[*c as usize]));
        stale_follows.count() + stale_followers.count()
    };
    let unplaced = || {
        let snapshot = platform.metrics_snapshot();
        snapshot.counter("voldemort.client.put.hint_unplaced").unwrap_or_default()
    };
    let hinted = platform.metrics_snapshot().counter("voldemort.client.put.hinted");
    sched.note(format!(
        "drained: follows_acked={follows_acked} tracked={tracked} primary_scn={:?}; serving \
         reads at R=1 return {} of {} cached lists stale; hints parked {hinted:?}, unplaced {}",
        platform.primary.last_scn(),
        stale_lists(),
        members + companies,
        unplaced()
    ));

    match plant {
        None => {}
        Some(SitePlant::CachedList) => {
            let member = follows.iter().position(|set| !set.is_empty()).expect("a seeded follow");
            let key = member_row_key(member as u64).to_string();
            for id in voldemort.node_ids() {
                let node = voldemort.node(id).unwrap();
                for version in node.get("member-follows", key.as_bytes()).unwrap_or_default() {
                    let _ = node.delete("member-follows", key.as_bytes(), &version.clock);
                }
            }
            sched.note(format!("PLANT: deleted acked cached list `{key}` on every replica"));
        }
        Some(SitePlant::ServingList) => {
            let over = (unplaced() + 1).saturating_sub(stale_lists() as u64) as usize;
            let fresh = (0..members).filter(|m| {
                let expected = &follows[*m as usize];
                let read = served(platform.followed_companies(*m));
                !expected.is_empty() && read.as_ref() == Some(expected)
            });
            for member in fresh.take(over) {
                let key = member_row_key(member).to_string();
                let first = voldemort.ring().preference_list(key.as_bytes(), 2).unwrap()[0];
                let node = voldemort.node(first).unwrap();
                for version in node.get("member-follows", key.as_bytes()).unwrap_or_default() {
                    let _ = node.delete("member-follows", key.as_bytes(), &version.clock);
                }
                sched.note(format!("PLANT: deleted acked cached list `{key}` on {first} only"));
            }
        }
        Some(SitePlant::SupersededText) => {
            // Index the old text, then write the last acked one back
            // without a pump: Espresso serves an allowed text, search
            // holds a superseded one.
            let (member, old) = profiles
                .iter()
                .enumerate()
                .find_map(|(m, timeline)| Some((m, timeline.superseded().iter().flatten().next()?)))
                .expect("an acked update");
            let current = profiles[member].allowed()[0].as_ref().expect("an acked text");
            platform.update_profile(member as u64, old).unwrap();
            platform.pump().unwrap();
            platform.update_profile(member as u64, current).unwrap();
            sched.note(format!("PLANT: re-indexed member {member}'s superseded text {old:?}"));
        }
    }

    let recovery_drained = || -> Result<(), String> {
        let (banned, hints) = (voldemort.detector().banned_nodes(), voldemort.pending_hints());
        let (relay, primary) = (platform.relay.newest_scn(), platform.primary.last_scn());
        if banned.is_empty() && hints == 0 && relay == primary {
            return Ok(());
        }
        Err(format!(
            "banned {banned:?}, {hints} hints pending, relay at {relay:?}, primary at {primary:?}"
        ))
    };
    let read_all = |store: &str| {
        let client = voldemort.client(store).unwrap();
        let config = QuorumConfig {
            read_fan_out: ReadFanOut::All,
            ..client.quorum_config().clone()
        };
        client.with_quorum_config(config)
    };
    let follow_serving_read_fresh = || -> Result<(), String> {
        let (stale, unplaced) = (stale_lists() as u64, unplaced());
        if stale > unplaced {
            return Err(format!(
                "serving reads at R=1 return {stale} cached lists stale, but only {unplaced} \
                 hints found no holder"
            ));
        }
        Ok(())
    };
    let (member_lists, company_lists) = (read_all("member-follows"), read_all("company-followers"));
    let follow_no_acked_write_lost = || -> Result<(), String> {
        let check = |lists: &StoreClient, key: RowKey, expected: &BTreeSet<u64>| {
            let siblings = lists
                .get(key.to_string().as_bytes())
                .map_err(|e| format!("{key}: read failed: {e}"))?;
            let got = union_ids(&siblings).map_err(|e| format!("{key}: {e}"))?;
            let distinct: BTreeSet<u64> = got.iter().copied().collect();
            if distinct != *expected || got.len() != expected.len() {
                return Err(format!("{key}: replicas hold {got:?}, primary-derived {expected:?}"));
            }
            Ok(())
        };
        for member in 0..members {
            check(&member_lists, member_row_key(member), &follows[member as usize])?;
        }
        for company in 0..companies {
            check(&company_lists, company_row_key(company), &followers[company as usize])?;
        }
        Ok(())
    };
    let databus_drained = || -> Result<(), String> {
        if let Err(e) = &last_pump {
            return Err(format!("the last pump still failed: {e}"));
        }
        match platform.metrics_snapshot().gauge("databus.client.relay_lag_scns") {
            Some(0) => Ok(()),
            lag => Err(format!("subscriber lag {lag:?} scns behind the relay")),
        }
    };
    let profile_timeline = || -> Result<(), String> {
        for member in 0..members {
            let read = platform
                .profile(member)
                .map_err(|e| format!("member {member}: profile read failed: {e}"))?;
            profiles[member as usize]
                .check(&read, 0)
                .map_err(|e| format!("member {member}: {e}"))?;
        }
        Ok(())
    };
    let words = |text: &str| -> BTreeSet<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|word| !word.is_empty())
            .map(str::to_lowercase)
            .collect()
    };
    let search_converged = || -> Result<(), String> {
        for (member, timeline) in (0..members).zip(&profiles) {
            let key = member_row_key(member).to_string();
            let allowed: Vec<&String> = timeline.allowed().iter().flatten().collect();
            if !allowed.iter().any(|text| platform.search_profiles(text).contains(&key)) {
                return Err(format!("member {member}: found by none of its texts {allowed:?}"));
            }
            let current: BTreeSet<String> = allowed.iter().flat_map(|text| words(text)).collect();
            for text in timeline.superseded().iter().flatten() {
                for word in words(text).difference(&current) {
                    if platform.search_profiles(word).contains(&key) {
                        return Err(format!(
                            "member {member}: found by `{word}`, which only its superseded \
                             text {text:?} held"
                        ));
                    }
                }
            }
        }
        Ok(())
    };
    let pymk_serves = || -> Result<(), String> {
        for member in 0..members {
            let stored = platform
                .pymk_recommendations(member)
                .map_err(|e| format!("member {member}: PYMK read failed: {e}"))?;
            if stored.as_deref() != Some(&graph.pymk_of(member).to_bytes()[..]) {
                return Err(format!("member {member}: PYMK serves {stored:?}, not its record"));
            }
        }
        Ok(())
    };
    let kafka_conserved = || -> Result<(), String> {
        let mut consumed = 0;
        for partition in 0..platform.activity_partitions() {
            let mut consumer = platform.activity_consumer(partition).map_err(|e| e.to_string())?;
            while let Ok(batch @ [_, ..]) = consumer.poll().as_deref() {
                consumed += batch.len();
            }
        }
        let rows = platform.warehouse_rows();
        if consumed != tracked || rows != tracked {
            return Err(format!("tracked {tracked}, online {consumed}, warehouse rows {rows}"));
        }
        let audits = AuditReconciler::reconcile(&platform.kafka_offline, ACTIVITY_TOPIC)
            .map_err(|e| format!("audit reconcile: {e}"))?;
        match audits.iter().find(|w| !w.clean()) {
            Some(w) => Err(format!(
                "audit window {}: produced {}, mirrored {}",
                w.window, w.produced, w.consumed
            )),
            None => Ok(()),
        }
    };
    sched.check(
        &[
            ("recovery-drained", &recovery_drained),
            // Ahead of the read-all below, whose read repair would mend a
            // stale first replica before a serving read could see it.
            ("follow-serving-read-fresh", &follow_serving_read_fresh),
            ("follow-no-acked-write-lost", &follow_no_acked_write_lost),
            ("databus-lag-drained", &databus_drained),
            ("profile-timeline", &profile_timeline),
            ("search-converged", &search_converged),
            ("pymk-serves", &pymk_serves),
            ("kafka-conserved", &kafka_conserved),
        ],
        &repro("chaos_sweep_site_closed_loop"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 6: online partition migration racing donor/target crashes.
// ---------------------------------------------------------------------

/// Moves one Voldemort partition off its owner through the phased
/// coordinator (snapshot → delta catch-up → dual-write → cutover) while
/// the seeded scheduler crash-loops the two nodes that matter — the
/// donor and the target — and live writes keep flowing the whole time.
/// A crashed endpoint fails the current phase with a retryable driver
/// error (the admin reachability gate), never corrupts it. Invariants
/// at quiesce: the migration completed with exactly one cutover flip
/// and zero refusals, ownership moved, the routing state was torn down,
/// every acked write is still readable, and hints drained.
fn run_migration_vs_donor_crash(seed: u64) -> Result<String, ChaosFailure> {
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    let ring = HashRing::balanced(16, &nodes).unwrap();
    let partition = PartitionId(0);
    let donor = ring.owner_of(partition);
    let to = NodeId((donor.0 + 2) % 5);
    // Fault domain: only the migration's endpoints, so every scheduled
    // crash races the move itself.
    let mut sched = hooks_only(seed, vec![donor, to], 1);
    let cluster = quorum_store(&sched, ring);
    let client = cluster.client("s").unwrap();
    let mut acked = preload(&client);

    let driver = cluster
        .begin_partition_migration(partition, to)
        .unwrap()
        .expect("donor != target");
    let coordinator = migration_coordinator(cluster.metrics());
    sched.note(format!(
        "migrating p{} from node {} to node {}",
        partition.0, donor.0, to.0
    ));

    let mut phase = coordinator.phase();
    for i in 0..120u64 {
        sched.step(&*cluster);
        let write = (format!("k{}", i % 24), Bytes::from(format!("v{i}")));
        acked.extend(put_retrying(&mut sched, &cluster, &client, write, 8));
        step_migration(&mut sched, &coordinator, &driver, &mut phase, i);
        if i % 30 == 0 {
            sched.note(format!("op {i}: acked_total={} phase={phase}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    drain_recovery(&sched, &cluster, true);
    finish_migration(&mut sched, &coordinator, &driver);
    // The flip repoints hint delivery at the new owners; drain once more.
    drain_recovery(&sched, &cluster, false);
    sched.note(format!(
        "drained: acked={} phase={} owner=node{}",
        acked.len(),
        coordinator.phase(),
        cluster.ring().owner_of(partition).0
    ));

    let moved = || -> Result<(), String> {
        let owner = cluster.ring().owner_of(partition);
        if owner != to {
            return Err(format!(
                "partition owned by node {} after flip, want node {}",
                owner.0, to.0
            ));
        }
        if cluster.migration_in_flight().is_some() {
            return Err("migration routing state not torn down after cutover".into());
        }
        Ok(())
    };
    sched.check(
        &[
            ("quorum-durability", &|| acked_not_lost(&client, &acked)),
            ("migration-completes-once", &|| {
                migrated_once(&coordinator, cluster.metrics()).and_then(|()| moved())
            }),
            ("hints-drained", &|| hints_drained(&cluster)),
        ],
        &repro("chaos_sweep_migration_vs_donor_crash"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 7: cutover racing network partitions.
// ---------------------------------------------------------------------

/// Runs the same phased Voldemort migration under a network-only fault
/// menu — symmetric group partitions and asymmetric link blocks — with
/// the migration admin's virtual node enrolled in the fault domain. A
/// partition that isolates the admin from either endpoint stalls the
/// current phase (retryable), while client traffic — which rides
/// client→replica links outside every partition group — keeps landing
/// acked writes that the journal and dual-write must carry across the
/// flip. Invariants: the flip happened exactly once (one topology-epoch
/// bump, one `cutover_flips`), no refusals, every acked write survives,
/// and the target holds every acked key it now owns.
fn run_cutover_vs_network_partition(seed: u64) -> Result<String, ChaosFailure> {
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    let ring = HashRing::balanced(16, &nodes).unwrap();
    let partition = PartitionId(3);
    let donor = ring.owner_of(partition);
    let to = NodeId((donor.0 + 1) % 5);
    let config = ChaosConfig {
        crashes: false,
        pauses: false,
        partitions: true,
        asym_links: true,
        drops: false,
        slow_links: false,
        clock_skew: false,
        ..ChaosConfig::default()
    };
    let mut domain = nodes.clone();
    domain.push(li_voldemort::migrate::ADMIN_NODE);
    let mut sched = ChaosScheduler::new(seed, domain, config);
    let cluster = quorum_store(&sched, ring);
    let client = cluster.client("s").unwrap();
    let mut acked = preload(&client);

    let driver = cluster
        .begin_partition_migration(partition, to)
        .unwrap()
        .expect("donor != target");
    let epoch_before = cluster.topology_epoch();
    let coordinator = migration_coordinator(cluster.metrics());
    sched.note(format!(
        "migrating p{} from node {} to node {}",
        partition.0, donor.0, to.0
    ));

    let mut phase = coordinator.phase();
    for i in 0..120u64 {
        sched.step(&*cluster);
        let write = (format!("k{}", i % 24), Bytes::from(format!("v{i}")));
        acked.extend(put_retrying(&mut sched, &cluster, &client, write, 6));
        step_migration(&mut sched, &coordinator, &driver, &mut phase, i);
        if i % 30 == 0 {
            sched.note(format!("op {i}: acked_total={} phase={phase}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    drain_recovery(&sched, &cluster, true);
    finish_migration(&mut sched, &coordinator, &driver);
    sched.note(format!(
        "drained: acked={} phase={} epoch {}->{}",
        acked.len(),
        coordinator.phase(),
        epoch_before,
        cluster.topology_epoch()
    ));

    let flipped_once = || -> Result<(), String> {
        if cluster.ring().owner_of(partition) != to {
            return Err("ownership did not move to the target".into());
        }
        let epoch = cluster.topology_epoch();
        if epoch != epoch_before + 1 {
            return Err(format!(
                "topology epoch bumped {} times for one flip",
                epoch - epoch_before
            ));
        }
        Ok(())
    };
    sched.check(
        &[
            ("quorum-durability", &|| acked_not_lost(&client, &acked)),
            ("atomic-single-flip", &|| {
                migrated_once(&coordinator, cluster.metrics()).and_then(|()| flipped_once())
            }),
            // Every acked key the target now serves must actually be on
            // the target — an acked write either made it into the journal
            // before the final drain or mirrored synchronously during
            // dual-write.
            ("target-holds-moved-keys", &|| owners_hold(&cluster, &acked, Some(to))),
        ],
        &repro("chaos_sweep_cutover_vs_network_partition"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// Scenario 8: Espresso resharding racing master failovers.
// ---------------------------------------------------------------------

/// Migrates one Espresso partition (snapshot + relay delta catch-up +
/// Helix retarget flip) while the seeded scheduler crash-loops every
/// node *except* the migration source, so master failovers of other
/// partitions — and their Helix rebalances — race the migration's own
/// rebalance through the shared controller, stored view, and relays.
/// The source is excluded because a slave's applied windows do not
/// re-enter its own binlog: a mid-move mastership flip of the moving
/// partition would orphan the target's delta stream, which is exactly
/// why production reshardings drain through the donor's relay. The flip
/// itself waits for a fault-free moment (no flips during an active
/// incident); every other phase retries through crashes. Invariants:
/// acked documents readable with committed values, at most one master
/// per partition, relay commit order intact, and the migration
/// completed with one flip, zero refusals, and mastership on the
/// target.
fn run_espresso_rebalance_vs_failover(seed: u64) -> Result<String, ChaosFailure> {
    let cluster = EspressoCluster::new(4).unwrap();
    cluster.create_database(tiny_music(6, 2)).unwrap();
    let view = cluster.controller().external_view("Music").unwrap();
    let partition = PartitionId(0);
    let source = view.master_of(partition).expect("fresh db has a master");
    let hosts = view.partitions.get(&partition).cloned().unwrap_or_default();
    let to = (0..4u16)
        .map(NodeId)
        .find(|n| !hosts.contains_key(n))
        .expect("replication 2 on 4 nodes leaves a free node");
    let domain: Vec<NodeId> = (0..4u16).map(NodeId).filter(|n| *n != source).collect();
    let mut sched = hooks_only(seed, domain, 1);

    let driver = cluster
        .begin_partition_migration("Music", partition.0, to)
        .unwrap();
    let coordinator = migration_coordinator(cluster.metrics());
    sched.note(format!(
        "migrating Music/p{} from node {} to node {}",
        partition.0, source.0, to.0
    ));

    let mut acked = Albums::new();
    let mut phase = coordinator.phase();
    for i in 0..120u64 {
        sched.step(&*cluster);
        put_album(&mut sched, &cluster, &mut acked, i);
        if i % 5 == 0 {
            let _ = cluster.pump_replication();
        }
        if coordinator.phase() != MigrationPhase::DualWrite || sched.crashed_nodes().is_empty() {
            step_migration(&mut sched, &coordinator, &driver, &mut phase, i);
        }
        if i % 30 == 0 {
            sched.note(format!("op {i}: acked_total={} phase={phase}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    pump_espresso(&cluster);
    finish_migration(&mut sched, &coordinator, &driver);
    pump_espresso(&cluster);
    sched.note(format!(
        "drained: acked={} phase={}",
        acked.len(),
        coordinator.phase()
    ));

    let mastered_by_target = || -> Result<(), String> {
        let view = cluster
            .controller()
            .external_view("Music")
            .map_err(|e| e.to_string())?;
        if view.master_of(partition) != Some(to) {
            return Err(format!(
                "Music/p{} mastered by {:?} after flip, want node {}",
                partition.0,
                view.master_of(partition),
                to.0
            ));
        }
        Ok(())
    };
    sched.check(
        &[
            ("acked-docs-readable", &|| acked_docs_readable(&cluster, &acked)),
            ("single-master-per-partition", &|| single_master(&cluster)),
            ("relay-commit-order", &|| relay_commit_order(&cluster, 4)),
            ("migration-completes-once", &|| {
                migrated_once(&coordinator, cluster.metrics()).and_then(|()| mastered_by_target())
            }),
        ],
        &repro("chaos_sweep_espresso_rebalance_vs_failover"),
    )?;
    Ok(sched.trace_text())
}

// ---------------------------------------------------------------------
// The sweeps and the determinism contract, over one table of scenarios.
// ---------------------------------------------------------------------

type Scenario = fn(u64) -> Result<String, ChaosFailure>;

/// Declares the scenario table, each scenario unplanted under the name of
/// its `chaos_sweep_` test with the seeds its determinism check runs, and
/// that test.
macro_rules! scenarios {
    ($($test:ident $seeds:expr => $run:expr,)*) => {
        const SCENARIOS: [(&str, &[u64], Scenario); 10] = [$((stringify!($test), &$seeds, $run)),*];
        $(
            #[test]
            fn $test() {
                sweep(stringify!($test), $run);
            }
        )*
    };
}

scenarios! {
    chaos_sweep_voldemort_quorum [7, 23] => |seed| run_voldemort_quorum(seed, false),
    chaos_sweep_voldemort_tail_fanout [7, 23] => |seed| run_voldemort_tail_fanout(seed, false),
    chaos_sweep_espresso_failover [11] => |seed| run_espresso_failover(seed, false),
    chaos_sweep_kafka_replication_and_mirror [11] => run_kafka_replication_and_mirror,
    chaos_sweep_kafka_ack_durability [11] => |seed| run_kafka_ack_durability(seed, false),
    chaos_sweep_sqlstore_replication [11] => run_sqlstore_replication,
    chaos_sweep_site_closed_loop [11] => |seed| run_site_closed_loop(seed, None),
    chaos_sweep_migration_vs_donor_crash [11] => run_migration_vs_donor_crash,
    chaos_sweep_cutover_vs_network_partition [11] => run_cutover_vs_network_partition,
    chaos_sweep_espresso_rebalance_vs_failover [11] => run_espresso_rebalance_vs_failover,
}

/// The repro command of sweep test `test`: that test alone, whatever
/// other test names contain its name.
fn repro(test: &str) -> String {
    format!("cargo test --test chaos {test} -- --exact")
}

/// Runs sweep test `test`'s scenario `run` over the sweep's seeds and
/// panics with the first failure's repro line and trace. With
/// `CHAOS_TRACE_DIR=<dir>` set, every run's trace is also written to
/// `<dir>/<scenario>-<seed>.trace` (the test name without `chaos_sweep_`),
/// so a trace-identity check against another tree is `diff -r`.
fn sweep(test: &str, run: Scenario) {
    let scenario = test.trim_start_matches("chaos_sweep_");
    let trace_dir = std::env::var_os("CHAOS_TRACE_DIR").map(PathBuf::from);
    for seed in sweep_seeds(5) {
        let outcome = run(seed);
        if let Some(dir) = &trace_dir {
            let trace = outcome.as_ref().unwrap_or_else(|failure| &failure.trace);
            std::fs::create_dir_all(dir).unwrap();
            std::fs::write(dir.join(format!("{scenario}-{seed}.trace")), trace).unwrap();
        }
        if let Err(failure) = outcome {
            panic!("{failure}");
        }
    }
}

/// Running the same `(seed, scenario)` twice produces byte-identical
/// event traces — the property every repro line depends on.
#[test]
fn same_seed_yields_byte_identical_traces() {
    for (scenario, seeds, run) in SCENARIOS {
        for &seed in seeds {
            let a = run(seed).unwrap_or_else(|f| panic!("{f}"));
            let b = run(seed).unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(a, b, "{scenario} trace diverged for seed {seed}");
            assert!(!a.is_empty());
        }
    }
}

/// A deliberately planted invariant violation is caught, reported with
/// a `CHAOS_SEED=` repro line, and reproduces exactly when the seed is
/// parsed back out of that line and re-run — on one crate's cluster and
/// on the assembled platform.
#[test]
fn planted_violation_is_caught_and_reproduces_from_printed_seed() {
    type Planted = fn(u64, bool) -> Result<String, ChaosFailure>;
    let cases: [(Planted, &str, &str, &str); 7] = [
        (run_voldemort_quorum, "quorum-durability", "voldemort_quorum", "PLANT: deleted acked key"),
        (
            run_voldemort_tail_fanout,
            "tail-bound",
            "voldemort_tail_fanout",
            "PLANT: quorum-width read",
        ),
        (
            run_espresso_failover,
            "acked-docs-readable",
            "espresso_failover",
            "PLANT: deleted acked document",
        ),
        (
            run_kafka_ack_durability,
            "full-isr-durability",
            "kafka_ack_durability",
            "PLANT: reset every replica",
        ),
        (
            |seed, plant| run_site_closed_loop(seed, plant.then_some(SitePlant::CachedList)),
            "follow-no-acked-write-lost",
            "site_closed_loop",
            "PLANT: deleted acked cached list",
        ),
        (
            |seed, plant| run_site_closed_loop(seed, plant.then_some(SitePlant::ServingList)),
            "follow-serving-read-fresh",
            "site_closed_loop",
            "PLANT: deleted acked cached list",
        ),
        (
            |seed, plant| run_site_closed_loop(seed, plant.then_some(SitePlant::SupersededText)),
            "search-converged",
            "site_closed_loop",
            "PLANT: re-indexed member",
        ),
    ];
    for (run, invariant, scenario, plant) in cases {
        let failure = run(4242, true).expect_err("planted violation must be caught");
        let message = failure.to_string();
        assert!(
            message.contains(&format!("invariant `{invariant}` violated")),
            "unexpected report:\n{message}"
        );
        assert!(message.contains(plant), "trace missing:\n{message}");

        // Act like an engineer reading the failure: parse the seed and the
        // test out of the printed repro line and re-run. The line names
        // exactly the scenario's sweep test, and the violation must
        // reproduce with the identical trace.
        let line = message
            .lines()
            .find_map(|line| line.strip_prefix("repro: CHAOS_SEED="))
            .expect("a repro line");
        let [seed, "cargo", "test", "--test", "chaos", test, "--", "--exact"] =
            line.split_whitespace().collect::<Vec<_>>()[..]
        else {
            panic!("malformed repro line: {line}");
        };
        assert_eq!(test, format!("chaos_sweep_{scenario}"), "the scenario's own sweep");
        assert!(SCENARIOS.iter().any(|(name, ..)| *name == test), "{test} is a sweep test");
        let seed: u64 = seed.parse().expect("repro line carries a parseable seed");
        assert_eq!(seed, 4242);
        let again = run(seed, true).expect_err("repro run must fail identically");
        assert_eq!(failure.violations, again.violations);
        assert_eq!(failure.trace, again.trace);
    }
}
