//! Deterministic chaos scenarios: every system under a seeded fault
//! schedule, checked against cross-system invariants at quiesce.
//!
//! Each scenario is a pure function of its seed: the [`ChaosScheduler`]
//! owns the run's `SimClock` and seeded `SimNetwork`, the workload is a
//! deterministic op stream, and no code on the chaos path consults the
//! wall clock or OS RNG. A failing run prints a one-line repro
//! (`CHAOS_SEED=<seed> cargo test --test chaos <scenario>`) plus the
//! event trace; re-running with that seed reproduces the run byte for
//! byte (asserted by `same_seed_yields_byte_identical_traces` below, and
//! exercised end-to-end by the planted-violation test).
//!
//! Default sweep is 5 seeds per scenario; CI widens it with
//! `CHAOS_SEEDS=20` and a repro pins one with `CHAOS_SEED=<n>`.

use bytes::Bytes;
use li_bench::site::recorded_platform;
use li_commons::chaos::{sweep_seeds, ChaosConfig, ChaosFailure, ChaosScheduler, NetworkOnlyHooks};
use li_commons::clock::VectorClock;
use li_commons::failure::FailureDetectorConfig;
use li_commons::migrate::{MigrationConfig, MigrationCoordinator, MigrationPhase};
use li_commons::ring::{HashRing, NodeId, PartitionId};
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_commons::sim::SimClock;
use li_espresso::{DatabaseSchema, EspressoCluster, TableSchema};
use li_kafka::audit::AuditReconciler;
use li_kafka::log::LogConfig;
use li_kafka::mirror::MirrorMaker;
use li_kafka::{AckMode, KafkaCluster, MessageSet, ReplicatedCluster};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use li_sqlstore::{Database, RowKey};
use li_voldemort::{
    FanOutMode, QuorumConfig, ReadFanOut, StoreClient, StoreDef, VoldemortCluster,
};
use li_workload::{SiteMix, SiteOp, SiteWorkload};
use linkedin_data_infra::consumers::{company_row_key, member_row_key, union_ids};
use linkedin_data_infra::platform::ACTIVITY_TOPIC;
use linkedin_data_infra::{DataPlatform, ShardMode, SiteBench, SiteBenchConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

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
    let clock = sched.clock();
    let ring = HashRing::balanced(16, &nodes).unwrap();
    let cluster = VoldemortCluster::with_parts(ring, sched.network(), Arc::new(clock.clone()))
        .unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();

    let mut acked: Vec<(String, Bytes, VectorClock)> = Vec::new();
    for i in 0..120u32 {
        sched.step(&*cluster);
        let key = format!("k{i}");
        let value = Bytes::from(format!("v{i}"));
        // Retry like a real app: apply_update re-reads at quorum and
        // re-writes with a dominating clock, so a success is W acks of
        // the *current* write. Between attempts, virtual time passes and
        // the async recovery path (failure probes) runs.
        for _attempt in 0..8 {
            match client.apply_update(key.as_bytes(), 5, &|_| Some(value.clone())) {
                Ok(write_clock) => {
                    acked.push((key.clone(), value.clone(), write_clock));
                    break;
                }
                Err(_) => {
                    clock.advance(Duration::from_secs(6));
                    cluster.run_failure_probes();
                    sched.step(&*cluster);
                }
            }
        }
        if i % 20 == 0 {
            sched.note(format!("op {i}: acked_total={}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    // Drain the recovery machinery: readmit banned nodes, replay hints.
    for _ in 0..40 {
        clock.advance(Duration::from_secs(6));
        cluster.run_failure_probes();
        cluster.deliver_hints();
        if cluster.pending_hints() == 0 && cluster.detector().banned_nodes().is_empty() {
            break;
        }
    }
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

    let durability = || -> Result<(), String> {
        for (key, value, write_clock) in &acked {
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
            if let Some(v) = siblings.iter().find(|v| v.clock == *write_clock) {
                if v.value != *value {
                    return Err(format!("acked key `{key}` returned wrong bytes"));
                }
            }
        }
        Ok(())
    };
    let hints_drained = || -> Result<(), String> {
        match cluster.pending_hints() {
            0 => Ok(()),
            n => Err(format!("{n} hints still pending after recovery")),
        }
    };
    sched.check(
        &[
            ("quorum-durability", &durability),
            ("hints-drained", &hints_drained),
        ],
        "cargo test --test chaos voldemort",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_voldemort_quorum() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_voldemort_quorum(seed, false) {
            panic!("{failure}");
        }
    }
}

// ---------------------------------------------------------------------
// Scenario 1b: Voldemort parallel fan-out tail latency under slow links.
// ---------------------------------------------------------------------

/// Drives a 5-node Voldemort cluster (N=3, R=2, W=2) with the **parallel**
/// quorum path through a seeded schedule of crashes and slow node↔node
/// links, while a deterministically rotating client→replica link is made
/// slow as well. Invariants at quiesce:
///
/// * **tail-bound** — every successful quorum read completed within the
///   R-th-fastest live replica's link latency (the whole point of fanning
///   out: one slow replica must not set the request's critical path);
/// * **quorum-durability** — every acked write is still covered;
/// * **hints-drained-to-owners** — after `heal_all` + recovery, no hint is
///   pending and every preference-list owner of every acked key holds a
///   version descending from the acked clock.
fn run_voldemort_tail_fanout(seed: u64) -> Result<String, ChaosFailure> {
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    // Crash + slow-link faults only: drops would burn the shared network
    // RNG from pool threads in nondeterministic order, and partitions can
    // leave no quorum to measure.
    let config = ChaosConfig {
        partitions: false,
        asym_links: false,
        drops: false,
        clock_skew: false,
        ..ChaosConfig::default()
    };
    let mut sched = ChaosScheduler::new(seed, nodes.clone(), config);
    let clock = sched.clock();
    let ring = HashRing::balanced(16, &nodes).unwrap();
    let cluster =
        VoldemortCluster::with_parts(ring, sched.network(), Arc::new(clock.clone())).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    // `simulate_latency` makes pool threads actually sleep each link's
    // simulated latency, so completion order — and therefore which replies
    // form the quorum — is decided by the fault schedule, not by OS thread
    // scheduling. Injected latencies (10–25ms) dwarf scheduling jitter.
    let client = cluster.client("s").unwrap().with_quorum_config(QuorumConfig {
        mode: FanOutMode::Parallel,
        read_fan_out: ReadFanOut::All,
        simulate_latency: true,
        ..QuorumConfig::default()
    });
    let required_reads = 2usize;

    // The scheduler only slows node↔node links; the client's own links are
    // rotated here from a seeded xorshift stream so the read path always
    // has a slow replica to mask.
    let mut link_rng = seed | 1;
    let mut slow_replica: Option<NodeId> = None;
    let mut acked: Vec<(String, Bytes, VectorClock)> = Vec::new();
    let mut tail_violations: Vec<String> = Vec::new();
    for i in 0..60u32 {
        sched.step(&*cluster);
        if i % 8 == 0 {
            if let Some(old) = slow_replica.take() {
                cluster
                    .network()
                    .set_link_latency(li_voldemort::StoreClient::CLIENT_NODE, old, Duration::ZERO);
            }
            link_rng ^= link_rng << 13;
            link_rng ^= link_rng >> 7;
            link_rng ^= link_rng << 17;
            let node = NodeId((link_rng % 5) as u16);
            let ms = 10 + (link_rng >> 8) % 16;
            cluster.network().set_link_latency(
                li_voldemort::StoreClient::CLIENT_NODE,
                node,
                Duration::from_millis(ms),
            );
            slow_replica = Some(node);
            sched.note(format!("client-slow: node {} {}ms", node.0, ms));
        }

        let key = format!("t{}", i % 12);
        let value = Bytes::from(format!("v{i}"));
        for _attempt in 0..6 {
            match client.apply_update(key.as_bytes(), 5, &|_| Some(value.clone())) {
                Ok(write_clock) => {
                    acked.push((key.clone(), value.clone(), write_clock));
                    break;
                }
                Err(_) => {
                    clock.advance(Duration::from_secs(6));
                    cluster.run_failure_probes();
                    sched.step(&*cluster);
                }
            }
        }
        // Parallel puts ack at W and finish replicating on pool threads;
        // quiesce so the fault schedule (not thread timing) decides what
        // the next op observes, keeping the trace a pure function of seed.
        cluster.fan_out_pool().wait_idle();

        // Tail bound: the R-th smallest client→replica latency over live,
        // detector-available owners is the worst a fanned-out read may
        // report as its simulated critical path.
        let prefs = cluster.ring().preference_list(key.as_bytes(), 3).unwrap();
        let mut reachable: Vec<Duration> = prefs
            .iter()
            .filter(|&&p| cluster.detector().is_available(p))
            .filter_map(|&p| {
                cluster
                    .network()
                    .peek_latency(li_voldemort::StoreClient::CLIENT_NODE, p)
                    .ok()
            })
            .collect();
        reachable.sort();
        if let Some(&bound) = reachable.get(required_reads - 1) {
            match client.get_with_stats(key.as_bytes()) {
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
            cluster.fan_out_pool().wait_idle();
        }
        if i % 20 == 0 {
            sched.note(format!("op {i}: acked_total={}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    cluster.network().heal_all();
    for _ in 0..40 {
        clock.advance(Duration::from_secs(6));
        cluster.run_failure_probes();
        cluster.deliver_hints();
        if cluster.pending_hints() == 0 && cluster.detector().banned_nodes().is_empty() {
            break;
        }
    }
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
    let durability = || -> Result<(), String> {
        for (key, value, write_clock) in &acked {
            let siblings = client
                .get(key.as_bytes())
                .map_err(|e| format!("read of acked `{key}` failed: {e}"))?;
            if !siblings.iter().any(|v| v.clock.descends_from(write_clock)) {
                return Err(format!(
                    "acked write to `{key}` not covered by any surviving version"
                ));
            }
            if let Some(v) = siblings.iter().find(|v| v.clock == *write_clock) {
                if v.value != *value {
                    return Err(format!("acked key `{key}` returned wrong bytes"));
                }
            }
        }
        Ok(())
    };
    // Runs after `durability`, whose all-replica reads have already
    // read-repaired any owner the hint path could legitimately skip (a
    // banned owner with W live acks parks no hint).
    let hints_to_owners = || -> Result<(), String> {
        if cluster.pending_hints() != 0 {
            return Err(format!(
                "{} hints still pending after heal_all + recovery",
                cluster.pending_hints()
            ));
        }
        cluster.fan_out_pool().wait_idle();
        for (key, _, write_clock) in &acked {
            let prefs = cluster.ring().preference_list(key.as_bytes(), 3).unwrap();
            for owner in prefs {
                let held = cluster
                    .node(owner)
                    .map_err(|e| e.to_string())?
                    .get("s", key.as_bytes())
                    .map_err(|e| format!("owner {owner} read of `{key}`: {e}"))?;
                if !held.iter().any(|v| v.clock.descends_from(write_clock)) {
                    return Err(format!(
                        "owner {owner} of `{key}` missing the acked write after hint replay"
                    ));
                }
            }
        }
        Ok(())
    };
    sched.check(
        &[
            ("tail-bound", &tail_bound),
            ("quorum-durability", &durability),
            ("hints-drained-to-owners", &hints_to_owners),
        ],
        "cargo test --test chaos tail_fanout",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_voldemort_tail_fanout() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_voldemort_tail_fanout(seed) {
            panic!("{failure}");
        }
    }
}

// ---------------------------------------------------------------------
// Scenario 2: Espresso mastership failover + commit-order.
// ---------------------------------------------------------------------

fn tiny_music(partitions: u32, replication: usize) -> DatabaseSchema {
    DatabaseSchema::new("Music", partitions, replication)
        .with_table(
            TableSchema::new("Album", ["artist", "album"]),
            RecordSchema::new("Album", 1, vec![Field::new("year", FieldType::Long)]).unwrap(),
        )
        .unwrap()
}

/// Drives a 3-node Espresso cluster (6 partitions, replication 2)
/// through crash/restart storms (hooks-only faults — Espresso's routing
/// is Helix state, not the SimNetwork). Invariants at quiesce: every
/// acknowledged document readable with its committed value, at most one
/// master per partition, and every relay's change stream in strict
/// commit (SCN) order with no per-key etag regressions.
fn run_espresso_failover(seed: u64) -> Result<String, ChaosFailure> {
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
    let mut config = ChaosConfig::hooks_only();
    config.max_down = 1;
    let mut sched = ChaosScheduler::new(seed, nodes, config);
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(tiny_music(6, 2)).unwrap();
    let album = |year: i64| Record::new().with("year", Value::Long(year));

    let mut acked: Vec<(RowKey, i64)> = Vec::new();
    for i in 0..120u64 {
        sched.step(&*cluster);
        let key = RowKey::new([format!("artist-{}", i % 7), format!("album-{i}")]);
        let year = 1990 + i as i64;
        match cluster.put("Music", "Album", key.clone(), &album(year)) {
            Ok(_etag) => acked.push((key, year)),
            Err(_) => sched.note(format!("put {i} rejected (no live master)")),
        }
        if i % 5 == 0 {
            let _ = cluster.pump_replication();
        }
        if i % 20 == 0 {
            sched.note(format!("op {i}: acked_total={}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    for _ in 0..4 {
        let _ = cluster.pump_replication();
    }
    sched.note(format!("drained: acked={}", acked.len()));

    let readable = || -> Result<(), String> {
        for (key, year) in &acked {
            let got = cluster
                .get("Music", "Album", key)
                .map_err(|e| format!("read of acked {key:?} failed: {e}"))?;
            let Some((record, _row)) = got else {
                return Err(format!("acked document {key:?} lost"));
            };
            if record.get("year") != Some(&Value::Long(*year)) {
                return Err(format!("acked document {key:?} has wrong value"));
            }
        }
        Ok(())
    };
    let single_master = || -> Result<(), String> {
        let view = cluster
            .controller()
            .external_view("Music")
            .map_err(|e| format!("no external view: {e}"))?;
        for p in 0..6 {
            let masters: Vec<NodeId> = view
                .partitions
                .get(&PartitionId(p))
                .map(|states| {
                    states
                        .iter()
                        .filter(|(_, &s)| s == li_helix::ReplicaState::Master)
                        .map(|(&n, _)| n)
                        .collect()
                })
                .unwrap_or_default();
            if masters.len() > 1 {
                return Err(format!("partition {p} has multiple masters {masters:?}"));
            }
        }
        Ok(())
    };
    let commit_order = || -> Result<(), String> {
        for i in 0..3u16 {
            cluster
                .relay(NodeId(i))
                .map_err(|e| format!("relay {i}: {e}"))?
                .verify_commit_order()
                .map_err(|e| format!("relay {i}: {e}"))?;
        }
        Ok(())
    };
    sched.check(
        &[
            ("acked-docs-readable", &readable),
            ("single-master-per-partition", &single_master),
            ("relay-commit-order", &commit_order),
        ],
        "cargo test --test chaos espresso",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_espresso_failover() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_espresso_failover(seed) {
            panic!("{failure}");
        }
    }
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
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
    let mut config = ChaosConfig::hooks_only();
    config.max_down = 1;
    let mut sched = ChaosScheduler::new(seed, nodes, config);
    let live = KafkaCluster::new(3).unwrap();
    let replicated = ReplicatedCluster::new(live.clone());
    replicated.create_topic("events", 3, 3).unwrap();
    // The paper's live→offline pipeline: a mirror pair on the side.
    let source = KafkaCluster::new(1).unwrap();
    let target = KafkaCluster::new(1).unwrap();
    source.create_topic("tracking", 2).unwrap();
    target.create_topic("tracking", 2).unwrap();
    let mirror = MirrorMaker::new(source.clone(), target.clone(), ["tracking"]).unwrap();

    // Committed consumer state per partition: (byte offset, payload).
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
    for _ in 0..10 {
        if replicated.replicate().unwrap() == 0 {
            break;
        }
    }
    mirror.pump().unwrap();
    sched.note(format!(
        "drained: produced_ok={produced_ok} consumed={:?}",
        consumed.iter().map(Vec::len).collect::<Vec<_>>()
    ));

    let contiguity = || -> Result<(), String> {
        for broker in 0..3usize {
            for p in 0..3u32 {
                live.brokers()[broker]
                    .log("events", p)
                    .map_err(|e| format!("broker {broker} events/{p}: {e}"))?
                    .verify_contiguity()
                    .map_err(|e| format!("broker {broker} events/{p}: {e}"))?;
            }
        }
        for (name, cluster) in [("source", &source), ("target", &target)] {
            for p in 0..2u32 {
                cluster.brokers()[0]
                    .log("tracking", p)
                    .map_err(|e| format!("{name} tracking/{p}: {e}"))?
                    .verify_contiguity()
                    .map_err(|e| format!("{name} tracking/{p}: {e}"))?;
            }
        }
        Ok(())
    };
    let replica_identity = || -> Result<(), String> {
        for p in 0..3u32 {
            replicated.verify_replica_identity("events", p)?;
        }
        Ok(())
    };
    let committed_stable = || -> Result<(), String> {
        // Nothing a consumer saw below the high watermark may have been
        // rolled back: re-fetching from 0 must replay the same bytes at
        // the same offsets.
        for p in 0..3u32 {
            let (all, _) = replicated
                .fetch_committed("events", p, 0, usize::MAX)
                .map_err(|e| format!("refetch events/{p}: {e}"))?;
            for (offset, payload) in &consumed[p as usize] {
                let found = all.iter().find(|(o, _)| o == offset);
                match found {
                    Some((_, message)) if message.payload == *payload => {}
                    Some(_) => {
                        return Err(format!(
                            "events/{p} offset {offset}: committed read changed bytes"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "events/{p} offset {offset}: committed read rolled back"
                        ))
                    }
                }
            }
        }
        Ok(())
    };
    let mirror_identity = || -> Result<(), String> {
        for p in 0..2u32 {
            let src = source.brokers()[0]
                .log("tracking", p)
                .map_err(|e| e.to_string())?
                .content_fingerprint();
            let dst = target.brokers()[0]
                .log("tracking", p)
                .map_err(|e| e.to_string())?
                .content_fingerprint();
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
            ("log-contiguity", &contiguity),
            ("replica-byte-identity", &replica_identity),
            ("committed-reads-stable", &committed_stable),
            ("mirror-byte-identity", &mirror_identity),
        ],
        "cargo test --test chaos kafka",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_kafka_replication_and_mirror() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_kafka_replication_and_mirror(seed) {
            panic!("{failure}");
        }
    }
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
fn run_kafka_ack_durability(seed: u64) -> Result<String, ChaosFailure> {
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
    let mut config = ChaosConfig::hooks_only();
    config.max_down = 1;
    let mut sched = ChaosScheduler::new(seed, nodes, config);
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

    // (partition, acked offset, payload, op index of the ack).
    let mut full_isr_acked: Vec<(u32, u64, Bytes, u64)> = Vec::new();
    let mut leader_acked: Vec<(u32, u64, Bytes, u64)> = Vec::new();
    let mut none_sent = 0u64;
    let mut rejected = 0u64;
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
                    full_isr_acked.push((partition, receipt.base_offset.unwrap(), payload, i));
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
                full_isr_acked.len(),
                leader_acked.len(),
                none_sent,
                rejected
            ));
        }
    }

    sched.quiesce(&hooks);
    replicated.flush_ingest();
    for _ in 0..10 {
        if replicated.replicate().unwrap() == 0 {
            break;
        }
    }
    let crashes = hooks.crashes.into_inner();
    sched.note(format!(
        "drained: full_isr={} leader={} crashes={crashes:?}",
        full_isr_acked.len(),
        leader_acked.len()
    ));

    // Committed state per partition after full recovery.
    let committed: Vec<Vec<(u64, Bytes)>> = (0..ACK_PARTITIONS)
        .map(|p| {
            let (messages, _) = replicated.fetch_committed("events", p, 0, usize::MAX).unwrap();
            messages.into_iter().map(|(o, m)| (o, m.payload)).collect()
        })
        .collect();

    let full_isr_durability = || -> Result<(), String> {
        for (p, offset, payload, op_i) in &full_isr_acked {
            match committed[*p as usize].iter().find(|(o, _)| o == offset) {
                Some((_, got)) if got == payload => {}
                Some(_) => {
                    return Err(format!(
                        "events/{p} offset {offset} (op {op_i}): FullIsr-acked bytes changed"
                    ))
                }
                None => {
                    return Err(format!(
                        "events/{p} offset {offset} (op {op_i}): FullIsr-acked message lost"
                    ))
                }
            }
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
    let replica_identity = || -> Result<(), String> {
        for p in 0..ACK_PARTITIONS {
            replicated.verify_replica_identity("events", p)?;
        }
        Ok(())
    };
    let contiguity = || -> Result<(), String> {
        for broker in 0..3usize {
            for p in 0..ACK_PARTITIONS {
                live.brokers()[broker]
                    .log("events", p)
                    .map_err(|e| format!("broker {broker} events/{p}: {e}"))?
                    .verify_contiguity()
                    .map_err(|e| format!("broker {broker} events/{p}: {e}"))?;
            }
        }
        Ok(())
    };
    sched.check(
        &[
            ("full-isr-durability", &full_isr_durability),
            ("leader-ack-loss-bounded", &leader_loss_bounded),
            ("replica-byte-identity", &replica_identity),
            ("log-contiguity", &contiguity),
        ],
        "cargo test --test chaos kafka_ack",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_kafka_ack_durability() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_kafka_ack_durability(seed) {
            panic!("{failure}");
        }
    }
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
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
    let mut config = ChaosConfig::hooks_only();
    config.max_down = 2;
    let mut sched = ChaosScheduler::new(seed, nodes, config);
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
        "cargo test --test chaos sqlstore",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_sqlstore_replication() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_sqlstore_replication(seed) {
            panic!("{failure}");
        }
    }
}

// ---------------------------------------------------------------------
// Scenario 5: the assembled site under the full fault menu.
// ---------------------------------------------------------------------

/// The invariant scenario 5 breaks after its drain, to prove a gate.
#[derive(Debug, Clone, Copy)]
enum SitePlant {
    /// One acked cached follow list deleted from every replica.
    CachedList,
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
/// * **follow-no-acked-write-lost** — every cached list, as the union
///   over all its replicas, equals the primary-derived set, no id twice
///   (how many lists an R=1 *serving* read still returns stale is
///   recorded in the trace first, not asserted);
/// * **databus-lag-drained** — both subscribers at the relay's head;
/// * **profile-timeline** — an updated member reads its last acked text
///   or a later attempt that was not acked, every other member its
///   seeded text (§IV timeline consistency across Espresso failover);
/// * **search-converged** — people search, which follows Espresso's
///   update stream across the same failovers, finds every member by one
///   of the texts profile-timeline allows, and no member by a word that
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
    // The texts a member may read: the last acked one (the seeded one at
    // first) and every attempt since that returned an error — its
    // Espresso half may have committed all the same.
    let mut profiles: Vec<Vec<String>> =
        (0..members).map(|m| vec![graph.profile_of(m).to_string()]).collect();
    // The texts an acked update superseded: search must not find a member
    // by a word only these held.
    let mut superseded: Vec<BTreeSet<String>> = vec![BTreeSet::new(); members as usize];

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
                    match outcome {
                        Ok(()) => {
                            let before = std::mem::replace(&mut profiles[*m as usize], vec![text]);
                            superseded[*m as usize].extend(before);
                        }
                        Err(_) => profiles[*m as usize].push(text),
                    }
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

    // The PR 12 seam, measured: at W=1 a bounced replica is owed no hint,
    // so an R=1 serving read that lands on it is stale until the key's
    // next append or a read of every replica (the gate's own, below).
    let served = |ids: Result<Vec<u64>, _>| ids.ok().map(BTreeSet::from_iter);
    let stale = (0..members)
        .filter(|m| served(platform.followed_companies(*m)).as_ref() != Some(&follows[*m as usize]))
        .count()
        + (0..companies)
            .filter(|c| served(platform.followers(*c)).as_ref() != Some(&followers[*c as usize]))
            .count();
    sched.note(format!(
        "drained: follows_acked={follows_acked} tracked={tracked} primary_scn={:?}; serving \
         reads at R=1 return {stale} of {} cached lists stale",
        platform.primary.last_scn(),
        members + companies
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
        Some(SitePlant::SupersededText) => {
            // Index the old text, then write the last acked one back
            // without a pump: Espresso serves an allowed text, search
            // holds a superseded one.
            let member = superseded.iter().position(|texts| !texts.is_empty()).expect("an update");
            let old = superseded[member].first().expect("a superseded text").clone();
            let current = profiles[member][0].clone();
            platform.update_profile(member as u64, &old).unwrap();
            platform.pump().unwrap();
            platform.update_profile(member as u64, &current).unwrap();
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
            let allowed = &profiles[member as usize];
            if !read.as_ref().is_some_and(|text| allowed.contains(text)) {
                return Err(format!(
                    "member {member}: reads {read:?}, last acked then later attempts {allowed:?}"
                ));
            }
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
        for member in 0..members {
            let key = member_row_key(member).to_string();
            let allowed = &profiles[member as usize];
            if !allowed.iter().any(|text| platform.search_profiles(text).contains(&key)) {
                return Err(format!("member {member}: found by none of its texts {allowed:?}"));
            }
            let current: BTreeSet<String> = allowed.iter().flat_map(|text| words(text)).collect();
            for text in &superseded[member as usize] {
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
            ("follow-no-acked-write-lost", &follow_no_acked_write_lost),
            ("databus-lag-drained", &databus_drained),
            ("profile-timeline", &profile_timeline),
            ("search-converged", &search_converged),
            ("pymk-serves", &pymk_serves),
            ("kafka-conserved", &kafka_conserved),
        ],
        "cargo test --test chaos site_closed_loop",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_site_closed_loop() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_site_closed_loop(seed, None) {
            panic!("{failure}");
        }
    }
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
    let mut config = ChaosConfig::hooks_only();
    config.max_down = 1;
    let mut sched = ChaosScheduler::new(seed, vec![donor, to], config);
    let clock = sched.clock();
    let cluster =
        VoldemortCluster::with_parts(ring, sched.network(), Arc::new(clock.clone())).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();

    // Preload before faults so the snapshot phase has an image to copy.
    let mut acked: Vec<(String, Bytes, VectorClock)> = Vec::new();
    for i in 0..24u32 {
        let key = format!("k{i}");
        let value = Bytes::from(format!("seed-{i}"));
        let write_clock = client
            .apply_update(key.as_bytes(), 5, &|_| Some(value.clone()))
            .unwrap();
        acked.push((key, value, write_clock));
    }

    let driver = cluster
        .begin_partition_migration(partition, to)
        .unwrap()
        .expect("donor != target");
    // Generous verify budget: divergence while an endpoint crash-loops is
    // lag, not corruption — refusal is reserved for real divergence (see
    // the planted shadow-mismatch test in the voldemort crate).
    let coordinator = MigrationCoordinator::new(
        cluster.metrics(),
        MigrationConfig {
            verify_retries: 10_000,
            ..MigrationConfig::default()
        },
    );
    sched.note(format!(
        "migrating p{} from node {} to node {}",
        partition.0, donor.0, to.0
    ));

    let mut phase = coordinator.phase();
    for i in 0..120u32 {
        sched.step(&*cluster);
        let key = format!("k{}", i % 24);
        let value = Bytes::from(format!("v{i}"));
        for _attempt in 0..8 {
            match client.apply_update(key.as_bytes(), 5, &|_| Some(value.clone())) {
                Ok(write_clock) => {
                    acked.push((key.clone(), value.clone(), write_clock));
                    break;
                }
                Err(_) => {
                    clock.advance(Duration::from_secs(6));
                    cluster.run_failure_probes();
                    sched.step(&*cluster);
                }
            }
        }
        if coordinator.phase() != MigrationPhase::Done {
            match coordinator.step(&driver) {
                Ok(next) if next != phase => {
                    phase = next;
                    sched.note(format!("op {i}: migration phase -> {next}"));
                }
                Ok(_) => {}
                // A crashed endpoint fails the phase; retried next op.
                Err(_) => {}
            }
        }
        if i % 30 == 0 {
            sched.note(format!("op {i}: acked_total={} phase={phase}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    for _ in 0..40 {
        clock.advance(Duration::from_secs(6));
        cluster.run_failure_probes();
        cluster.deliver_hints();
        if cluster.pending_hints() == 0 && cluster.detector().banned_nodes().is_empty() {
            break;
        }
    }
    if coordinator.phase() != MigrationPhase::Done {
        if let Err(e) = coordinator.run(&driver, 10_000) {
            sched.note(format!("migration did not complete after heal: {e}"));
        }
    }
    // The flip repoints hint delivery at the new owners; drain once more.
    for _ in 0..40 {
        clock.advance(Duration::from_secs(6));
        cluster.run_failure_probes();
        cluster.deliver_hints();
        if cluster.pending_hints() == 0 {
            break;
        }
    }
    sched.note(format!(
        "drained: acked={} phase={} owner=node{}",
        acked.len(),
        coordinator.phase(),
        cluster.ring().owner_of(partition).0
    ));

    let durability = || -> Result<(), String> {
        for (key, value, write_clock) in &acked {
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
            if let Some(v) = siblings.iter().find(|v| v.clock == *write_clock) {
                if v.value != *value {
                    return Err(format!("acked key `{key}` returned wrong bytes"));
                }
            }
        }
        Ok(())
    };
    let migration_complete = || -> Result<(), String> {
        if coordinator.phase() != MigrationPhase::Done {
            return Err(format!("migration stuck in phase {}", coordinator.phase()));
        }
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
        let snapshot = cluster.metrics().snapshot();
        if snapshot.counter("migration.cutover_flips") != Some(1) {
            return Err(format!(
                "cutover flips {:?}, want exactly 1",
                snapshot.counter("migration.cutover_flips")
            ));
        }
        if snapshot.counter("migration.cutover_refusals") != Some(0) {
            return Err(format!(
                "{:?} cutover refusals under crash faults (lag misread as corruption)",
                snapshot.counter("migration.cutover_refusals")
            ));
        }
        Ok(())
    };
    let hints_drained = || -> Result<(), String> {
        match cluster.pending_hints() {
            0 => Ok(()),
            n => Err(format!("{n} hints still pending after recovery")),
        }
    };
    sched.check(
        &[
            ("quorum-durability", &durability),
            ("migration-completes-once", &migration_complete),
            ("hints-drained", &hints_drained),
        ],
        "cargo test --test chaos migration_vs_donor_crash",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_migration_vs_donor_crash() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_migration_vs_donor_crash(seed) {
            panic!("{failure}");
        }
    }
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
    let clock = sched.clock();
    let cluster =
        VoldemortCluster::with_parts(ring, sched.network(), Arc::new(clock.clone())).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    let client = cluster.client("s").unwrap();

    let mut acked: Vec<(String, Bytes, VectorClock)> = Vec::new();
    for i in 0..24u32 {
        let key = format!("k{i}");
        let value = Bytes::from(format!("seed-{i}"));
        let write_clock = client
            .apply_update(key.as_bytes(), 5, &|_| Some(value.clone()))
            .unwrap();
        acked.push((key, value, write_clock));
    }

    let driver = cluster
        .begin_partition_migration(partition, to)
        .unwrap()
        .expect("donor != target");
    let epoch_before = cluster.topology_epoch();
    let coordinator = MigrationCoordinator::new(
        cluster.metrics(),
        MigrationConfig {
            verify_retries: 10_000,
            ..MigrationConfig::default()
        },
    );
    sched.note(format!(
        "migrating p{} from node {} to node {}",
        partition.0, donor.0, to.0
    ));

    let mut phase = coordinator.phase();
    for i in 0..120u32 {
        sched.step(&*cluster);
        let key = format!("k{}", i % 24);
        let value = Bytes::from(format!("v{i}"));
        for _attempt in 0..6 {
            match client.apply_update(key.as_bytes(), 5, &|_| Some(value.clone())) {
                Ok(write_clock) => {
                    acked.push((key.clone(), value.clone(), write_clock));
                    break;
                }
                Err(_) => {
                    clock.advance(Duration::from_secs(6));
                    cluster.run_failure_probes();
                    sched.step(&*cluster);
                }
            }
        }
        if coordinator.phase() != MigrationPhase::Done {
            match coordinator.step(&driver) {
                Ok(next) if next != phase => {
                    phase = next;
                    sched.note(format!("op {i}: migration phase -> {next}"));
                }
                Ok(_) => {}
                // The admin is cut off from an endpoint; retried next op.
                Err(_) => {}
            }
        }
        if i % 30 == 0 {
            sched.note(format!("op {i}: acked_total={} phase={phase}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    for _ in 0..40 {
        clock.advance(Duration::from_secs(6));
        cluster.run_failure_probes();
        cluster.deliver_hints();
        if cluster.pending_hints() == 0 && cluster.detector().banned_nodes().is_empty() {
            break;
        }
    }
    if coordinator.phase() != MigrationPhase::Done {
        if let Err(e) = coordinator.run(&driver, 10_000) {
            sched.note(format!("migration did not complete after heal: {e}"));
        }
    }
    sched.note(format!(
        "drained: acked={} phase={} epoch {}->{}",
        acked.len(),
        coordinator.phase(),
        epoch_before,
        cluster.topology_epoch()
    ));

    let durability = || -> Result<(), String> {
        for (key, value, write_clock) in &acked {
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
            if let Some(v) = siblings.iter().find(|v| v.clock == *write_clock) {
                if v.value != *value {
                    return Err(format!("acked key `{key}` returned wrong bytes"));
                }
            }
        }
        Ok(())
    };
    let atomic_flip = || -> Result<(), String> {
        if coordinator.phase() != MigrationPhase::Done {
            return Err(format!("migration stuck in phase {}", coordinator.phase()));
        }
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
        let snapshot = cluster.metrics().snapshot();
        if snapshot.counter("migration.cutover_flips") != Some(1) {
            return Err(format!(
                "cutover flips {:?}, want exactly 1",
                snapshot.counter("migration.cutover_flips")
            ));
        }
        if snapshot.counter("migration.cutover_refusals") != Some(0) {
            return Err(format!(
                "{:?} refusals under network partitions (lag misread as corruption)",
                snapshot.counter("migration.cutover_refusals")
            ));
        }
        Ok(())
    };
    // Every acked key the target now serves must actually be on the
    // target — an acked write either made it into the journal before the
    // final drain or mirrored synchronously during dual-write.
    let target_coverage = || -> Result<(), String> {
        let ring = cluster.ring();
        for (key, _, write_clock) in &acked {
            let prefs = ring
                .preference_list(key.as_bytes(), 3)
                .map_err(|e| e.to_string())?;
            if !prefs.contains(&to) {
                continue;
            }
            let held = cluster
                .node(to)
                .map_err(|e| e.to_string())?
                .get("s", key.as_bytes())
                .map_err(|e| format!("target read of `{key}`: {e}"))?;
            if !held.iter().any(|v| v.clock.descends_from(write_clock)) {
                return Err(format!(
                    "target now owns `{key}` but misses the acked write"
                ));
            }
        }
        Ok(())
    };
    sched.check(
        &[
            ("quorum-durability", &durability),
            ("atomic-single-flip", &atomic_flip),
            ("target-holds-moved-keys", &target_coverage),
        ],
        "cargo test --test chaos cutover_vs_partition",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_cutover_vs_network_partition() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_cutover_vs_network_partition(seed) {
            panic!("{failure}");
        }
    }
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
    let mut config = ChaosConfig::hooks_only();
    config.max_down = 1;
    let mut sched = ChaosScheduler::new(seed, domain, config);

    let driver = cluster
        .begin_partition_migration("Music", partition.0, to)
        .unwrap();
    let coordinator = MigrationCoordinator::new(
        cluster.metrics(),
        MigrationConfig {
            verify_retries: 10_000,
            ..MigrationConfig::default()
        },
    );
    sched.note(format!(
        "migrating Music/p{} from node {} to node {}",
        partition.0, source.0, to.0
    ));

    let album = |year: i64| Record::new().with("year", Value::Long(year));
    let mut acked: Vec<(RowKey, i64)> = Vec::new();
    let mut phase = coordinator.phase();
    for i in 0..120u64 {
        sched.step(&*cluster);
        let key = RowKey::new([format!("artist-{}", i % 7), format!("album-{i}")]);
        let year = 1990 + i as i64;
        match cluster.put("Music", "Album", key.clone(), &album(year)) {
            Ok(_etag) => acked.push((key, year)),
            Err(_) => sched.note(format!("put {i} rejected (no live master)")),
        }
        if i % 5 == 0 {
            let _ = cluster.pump_replication();
        }
        let flip_ready = coordinator.phase() != MigrationPhase::DualWrite
            || sched.crashed_nodes().is_empty();
        if coordinator.phase() != MigrationPhase::Done && flip_ready {
            match coordinator.step(&driver) {
                Ok(next) if next != phase => {
                    phase = next;
                    sched.note(format!("op {i}: migration phase -> {next}"));
                }
                Ok(_) => {}
                Err(_) => {}
            }
        }
        if i % 30 == 0 {
            sched.note(format!("op {i}: acked_total={} phase={phase}", acked.len()));
        }
    }

    sched.quiesce(&*cluster);
    for _ in 0..4 {
        let _ = cluster.pump_replication();
    }
    if coordinator.phase() != MigrationPhase::Done {
        if let Err(e) = coordinator.run(&driver, 10_000) {
            sched.note(format!("migration did not complete after heal: {e}"));
        }
    }
    for _ in 0..4 {
        let _ = cluster.pump_replication();
    }
    sched.note(format!(
        "drained: acked={} phase={}",
        acked.len(),
        coordinator.phase()
    ));

    let readable = || -> Result<(), String> {
        for (key, year) in &acked {
            let got = cluster
                .get("Music", "Album", key)
                .map_err(|e| format!("read of acked {key:?} failed: {e}"))?;
            let Some((record, _row)) = got else {
                return Err(format!("acked document {key:?} lost"));
            };
            if record.get("year") != Some(&Value::Long(*year)) {
                return Err(format!("acked document {key:?} has wrong value"));
            }
        }
        Ok(())
    };
    let single_master = || -> Result<(), String> {
        let view = cluster
            .controller()
            .external_view("Music")
            .map_err(|e| format!("no external view: {e}"))?;
        for p in 0..6 {
            let masters: Vec<NodeId> = view
                .partitions
                .get(&PartitionId(p))
                .map(|states| {
                    states
                        .iter()
                        .filter(|(_, &s)| s == li_helix::ReplicaState::Master)
                        .map(|(&n, _)| n)
                        .collect()
                })
                .unwrap_or_default();
            if masters.len() > 1 {
                return Err(format!("partition {p} has multiple masters {masters:?}"));
            }
        }
        Ok(())
    };
    let commit_order = || -> Result<(), String> {
        for i in 0..4u16 {
            cluster
                .relay(NodeId(i))
                .map_err(|e| format!("relay {i}: {e}"))?
                .verify_commit_order()
                .map_err(|e| format!("relay {i}: {e}"))?;
        }
        Ok(())
    };
    let migration_complete = || -> Result<(), String> {
        if coordinator.phase() != MigrationPhase::Done {
            return Err(format!("migration stuck in phase {}", coordinator.phase()));
        }
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
        let snapshot = cluster.metrics().snapshot();
        if snapshot.counter("migration.cutover_flips") != Some(1) {
            return Err(format!(
                "cutover flips {:?}, want exactly 1",
                snapshot.counter("migration.cutover_flips")
            ));
        }
        if snapshot.counter("migration.cutover_refusals") != Some(0) {
            return Err(format!(
                "{:?} refusals while failovers raced the move",
                snapshot.counter("migration.cutover_refusals")
            ));
        }
        Ok(())
    };
    sched.check(
        &[
            ("acked-docs-readable", &readable),
            ("single-master-per-partition", &single_master),
            ("relay-commit-order", &commit_order),
            ("migration-completes-once", &migration_complete),
        ],
        "cargo test --test chaos espresso_rebalance",
    )?;
    Ok(sched.trace_text())
}

#[test]
fn chaos_sweep_espresso_rebalance_vs_failover() {
    for seed in sweep_seeds(5) {
        if let Err(failure) = run_espresso_rebalance_vs_failover(seed) {
            panic!("{failure}");
        }
    }
}

// ---------------------------------------------------------------------
// The determinism contract, asserted.
// ---------------------------------------------------------------------

/// Running the same `(seed, scenario)` twice produces byte-identical
/// event traces — the property every repro line depends on.
#[test]
fn same_seed_yields_byte_identical_traces() {
    for seed in [7u64, 23] {
        let a = run_voldemort_quorum(seed, false).unwrap_or_else(|f| panic!("{f}"));
        let b = run_voldemort_quorum(seed, false).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a, b, "voldemort trace diverged for seed {seed}");
        assert!(!a.is_empty());
    }
    for seed in [7u64, 23] {
        let a = run_voldemort_tail_fanout(seed).unwrap_or_else(|f| panic!("{f}"));
        let b = run_voldemort_tail_fanout(seed).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a, b, "voldemort tail-fanout trace diverged for seed {seed}");
        assert!(!a.is_empty());
    }
    let a = run_espresso_failover(11).unwrap_or_else(|f| panic!("{f}"));
    let b = run_espresso_failover(11).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "espresso trace diverged");
    let a = run_kafka_replication_and_mirror(11).unwrap_or_else(|f| panic!("{f}"));
    let b = run_kafka_replication_and_mirror(11).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "kafka trace diverged");
    let a = run_kafka_ack_durability(11).unwrap_or_else(|f| panic!("{f}"));
    let b = run_kafka_ack_durability(11).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "kafka ack-durability trace diverged");
    let a = run_sqlstore_replication(11).unwrap_or_else(|f| panic!("{f}"));
    let b = run_sqlstore_replication(11).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "sqlstore trace diverged");
    let a = run_site_closed_loop(11, None).unwrap_or_else(|f| panic!("{f}"));
    let b = run_site_closed_loop(11, None).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "site closed-loop trace diverged");
    let a = run_migration_vs_donor_crash(11).unwrap_or_else(|f| panic!("{f}"));
    let b = run_migration_vs_donor_crash(11).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "migration-vs-donor-crash trace diverged");
    let a = run_cutover_vs_network_partition(11).unwrap_or_else(|f| panic!("{f}"));
    let b = run_cutover_vs_network_partition(11).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "cutover-vs-partition trace diverged");
    let a = run_espresso_rebalance_vs_failover(11).unwrap_or_else(|f| panic!("{f}"));
    let b = run_espresso_rebalance_vs_failover(11).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(a, b, "espresso-rebalance trace diverged");
}

/// A deliberately planted invariant violation is caught, reported with
/// a `CHAOS_SEED=` repro line, and reproduces exactly when the seed is
/// parsed back out of that line and re-run — on one crate's cluster and
/// on the assembled platform.
#[test]
fn planted_violation_is_caught_and_reproduces_from_printed_seed() {
    type Scenario = fn(u64, bool) -> Result<String, ChaosFailure>;
    let cases: [(Scenario, &str, &str, &str); 3] = [
        (run_voldemort_quorum, "quorum-durability", "voldemort", "PLANT: deleted acked key"),
        (
            |seed, plant| run_site_closed_loop(seed, plant.then_some(SitePlant::CachedList)),
            "follow-no-acked-write-lost",
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
        assert!(
            message.contains(&format!("CHAOS_SEED=4242 cargo test --test chaos {scenario}")),
            "missing repro line:\n{message}"
        );
        assert!(message.contains(plant), "trace missing:\n{message}");

        // Act like an engineer reading the failure: parse the seed out of
        // the printed repro line and re-run. The violation must reproduce
        // with the identical trace.
        let seed: u64 = message
            .split("CHAOS_SEED=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("repro line carries a parseable seed");
        let again = run(seed, true).expect_err("repro run must fail identically");
        assert_eq!(failure.violations, again.violations);
        assert_eq!(failure.trace, again.trace);
    }
}
