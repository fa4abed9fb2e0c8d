//! Seeded random walks against a reference model, one per replicated tier.
//!
//! Each walk drives a small cluster through a random sequence of writes,
//! replication pumps, crashes and restarts over the tier's public API, and
//! after every step checks each read against the tier's model of what the
//! acked history allows (`tests/contracts/`, shared with the chaos
//! scenarios). A failing walk prints its seed and its step list, so
//! `WALK_SEED=<seed> cargo test --test replication_walks <tier>` replays
//! it alone; `WALK_SEEDS=<n>` widens every sweep.
//!
//! Fault budgets (DESIGN.md §5, "Random walks against a reference model"),
//! fixed before the walks ran:
//! * Espresso — 3 nodes, 4 partitions, replication 3, up to 2 nodes down at
//!   once, and no pump unless the walk draws one (1,000 seeds); a second
//!   sweep lets all 3 go down (300 seeds), where the election rule decides
//!   what a returning node may serve.
//! * Kafka — `ReplicatedCluster`, 3 brokers, 2 partitions, replication 3,
//!   up to 2 brokers down at once (1,000 seeds).

mod contracts;

use contracts::{KeyModel, LogModel};
use li_commons::chaos::seed_var;
use li_commons::ring::{NodeId, PartitionId};
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_commons::sim::SimClock;
use li_espresso::{DatabaseSchema, EspressoCluster, EspressoError, TableSchema};
use li_kafka::log::LogConfig;
use li_kafka::{AckMode, KafkaCluster, MessageSet, ReplicatedCluster};
use li_sqlstore::RowKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Nodes (or brokers) per walk, and the most of them down at once.
const NODES: u16 = 3;
const MAX_DOWN: usize = 2;

/// Runs `walk` over `seeds` seeds (or `WALK_SEEDS`, or the one
/// `WALK_SEED`), split over two threads, and fails with the number of
/// failing walks and the first one's seed and steps.
fn sweep(tier: &str, seeds: u64, walk: impl Fn(u64) -> Result<(), String> + Sync) {
    let seeds: Vec<u64> = match seed_var("WALK_SEED") {
        Some(seed) => vec![seed],
        None => (0..seed_var("WALK_SEEDS").unwrap_or(seeds)).collect(),
    };
    let failures: Vec<(u64, String)> = std::thread::scope(|scope| {
        let walk = &walk;
        let halves: Vec<_> = (0..2)
            .map(|half| {
                let seeds = seeds.iter().skip(half).step_by(2);
                let failed = move |&seed: &u64| walk(seed).err().map(|e| (seed, e));
                scope.spawn(move || seeds.filter_map(failed).collect::<Vec<_>>())
            })
            .collect();
        halves.into_iter().flat_map(|half| half.join().unwrap()).collect()
    });
    if let Some((_, first)) = failures.iter().min_by_key(|(seed, _)| *seed) {
        panic!(
            "{} of {} {tier} walks failed; the first:\n{first}\n\
             replay: WALK_SEED=<seed> cargo test --test replication_walks {tier}",
            failures.len(),
            seeds.len()
        );
    }
}

/// A walk's step list, printed with its seed when the walk fails.
struct Trace {
    seed: u64,
    steps: Vec<String>,
}

impl Trace {
    fn new(seed: u64) -> Self {
        Trace { seed, steps: Vec::new() }
    }

    fn step(&mut self, step: String) {
        self.steps.push(step);
    }

    fn fail(&self, what: String) -> String {
        let steps: Vec<String> =
            self.steps.iter().enumerate().map(|(i, s)| format!("  {i:>2}: {s}")).collect();
        format!("seed {}: {what}\n{}", self.seed, steps.join("\n"))
    }
}

// ---------------------------------------------------------------------
// Espresso
// ---------------------------------------------------------------------

const DB: &str = "Walk";
const TABLE: &str = "Doc";
const KEYS: usize = 3;
const ESPRESSO_STEPS: usize = 20;

fn espresso_cluster() -> Arc<EspressoCluster> {
    let schema = DatabaseSchema::new(DB, 4, 3)
        .with_table(
            TableSchema::new(TABLE, ["id"]),
            RecordSchema::new(TABLE, 1, vec![Field::new("text", FieldType::Str)]).unwrap(),
        )
        .unwrap();
    let cluster = EspressoCluster::new(NODES).unwrap();
    cluster.create_database(schema).unwrap();
    cluster
}

fn key(k: usize) -> RowKey {
    RowKey::new([format!("k{k}").as_str()])
}

fn doc(text: &str) -> Record {
    Record::new().with("text", Value::Str(text.into()))
}

/// The document's text as a routed read sees it.
fn read(cluster: &EspressoCluster, key: &RowKey) -> Result<Option<String>, EspressoError> {
    Ok(cluster.get(DB, TABLE, key)?.map(|(record, _)| match record.get("text") {
        Some(Value::Str(text)) => text.clone(),
        other => format!("{other:?}"),
    }))
}

/// One Espresso walk: put, delete, pump, crash (at most `max_down` down)
/// and restart, every key read after each step; then every node restarts,
/// two pumps, and every key must read an allowed value.
fn espresso_walk(seed: u64, max_down: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new(seed);
    let cluster = espresso_cluster();
    let mut model: Vec<KeyModel<String>> = (0..KEYS).map(|_| KeyModel::new()).collect();
    // Per key, the version the last read returned: no read goes back past it.
    let mut floors = [0; KEYS];
    let mut down: BTreeSet<u16> = BTreeSet::new();
    let mut written = 0;
    let check_all = |trace: &Trace, model: &[KeyModel<String>], floors: &mut [usize], strict| {
        for (k, (key_model, floor)) in model.iter().zip(floors).enumerate() {
            match read(&cluster, &key(k)) {
                Ok(got) => key_model.check(&got, *floor).map(|at| *floor = at),
                Err(e) if strict => Err(format!("read failed with every node up: {e}")),
                Err(_) => Ok(()),
            }
            .map_err(|e| trace.fail(format!("k{k}: {e}")))?;
        }
        Ok::<(), String>(())
    };
    for _ in 0..ESPRESSO_STEPS {
        let k = rng.random_range(0..KEYS);
        match rng.random_range(0..10u32) {
            0..=3 => {
                written += 1;
                let text = format!("v{written}");
                let acked = cluster.put(DB, TABLE, key(k), &doc(&text)).is_ok();
                trace.step(format!("put k{k}={text} -> {}", if acked { "ok" } else { "err" }));
                model[k].write(Some(text), acked);
            }
            4 => {
                let acked = cluster.delete(DB, TABLE, key(k)).is_ok();
                trace.step(format!("delete k{k} -> {}", if acked { "ok" } else { "err" }));
                model[k].write(None, acked);
            }
            7.. if down.len() < max_down && rng.random_bool(0.7) => {
                let up: Vec<u16> = (0..NODES).filter(|n| !down.contains(n)).collect();
                let node = up[rng.random_range(0..up.len())];
                trace.step(format!("crash {node}"));
                cluster.crash_node(NodeId(node)).map_err(|e| trace.fail(format!("crash: {e}")))?;
                down.insert(node);
            }
            7.. if !down.is_empty() => {
                let downed: Vec<u16> = down.iter().copied().collect();
                let node = downed[rng.random_range(0..downed.len())];
                trace.step(format!("restart {node}"));
                cluster
                    .restart_node(NodeId(node))
                    .map_err(|e| trace.fail(format!("restart: {e}")))?;
                down.remove(&node);
            }
            _ => {
                let pumped = cluster.pump_replication();
                trace.step(format!("pump -> {}", if pumped.is_ok() { "ok" } else { "err" }));
            }
        }
        check_all(&trace, &model, &mut floors, false)?;
    }
    for node in std::mem::take(&mut down) {
        trace.step(format!("restart {node}"));
        cluster.restart_node(NodeId(node)).map_err(|e| trace.fail(format!("restart: {e}")))?;
    }
    for _ in 0..2 {
        cluster.pump_replication().map_err(|e| trace.fail(format!("final pump: {e}")))?;
    }
    trace.step("pump; pump".into());
    check_all(&trace, &model, &mut floors, true)
}

#[test]
fn espresso_walk_keeps_every_acked_write_and_never_reads_back_in_time() {
    sweep("espresso", 1_000, |seed| espresso_walk(seed, MAX_DOWN));
}

/// With every node down at times, a partition whose caught-up replicas are
/// all down has no master: the returning stale replica is not elected.
#[test]
fn espresso_walk_with_all_nodes_down_at_times_still_serves_nothing_stale() {
    sweep("espresso_walk_with_all", 300, |seed| espresso_walk(seed, NODES as usize));
}

/// Node ids in the preference order of the partition `key` lands on.
fn preference(cluster: &EspressoCluster, key: &RowKey) -> Vec<NodeId> {
    let (partition, _) = cluster.route(DB, key.resource_id().unwrap()).unwrap();
    cluster.controller().preference_list(DB, PartitionId(partition)).unwrap()
}

#[test]
fn espresso_a_read_after_the_master_crashes_sees_the_acked_write() {
    let cluster = espresso_cluster();
    let k = key(0);
    cluster.put(DB, TABLE, k.clone(), &doc("v0")).unwrap();
    let (_, master) = cluster.route(DB, k.resource_id().unwrap()).unwrap();
    cluster.crash_node(master).unwrap();
    assert_eq!(read(&cluster, &k).unwrap(), Some("v0".to_string()));
}

#[test]
fn espresso_a_stale_replica_is_not_elected_while_the_caught_up_one_is_down() {
    let cluster = espresso_cluster();
    let k = (0..64)
        .map(|i| RowKey::new([format!("m{i}").as_str()]))
        .find(|k| preference(&cluster, k) == [NodeId(0), NodeId(1), NodeId(2)])
        .expect("a key whose partition prefers nodes 0, 1, 2");
    cluster.put(DB, TABLE, k.clone(), &doc("v0")).unwrap();
    cluster.pump_replication().unwrap();
    cluster.crash_node(NodeId(2)).unwrap();
    cluster.crash_node(NodeId(0)).unwrap();
    cluster.put(DB, TABLE, k.clone(), &doc("v1")).unwrap();
    assert_eq!(cluster.route(DB, k.resource_id().unwrap()).unwrap().1, NodeId(1));
    cluster.crash_node(NodeId(1)).unwrap();
    // Node 2 holds only v0, and node 1, which holds v1, is down: no master.
    cluster.restart_node(NodeId(2)).unwrap();
    let got = read(&cluster, &k);
    assert!(matches!(got, Err(EspressoError::NoMaster { .. })), "node 2 served {got:?}");
    cluster.restart_node(NodeId(1)).unwrap();
    assert_eq!(read(&cluster, &k).unwrap(), Some("v1".to_string()));
}

#[test]
fn espresso_a_slave_fallen_off_the_crashed_masters_relay_is_not_elected() {
    let cluster = espresso_cluster();
    let keys: Vec<RowKey> = (0..)
        .map(|i| RowKey::new([format!("e{i}").as_str()]))
        .filter(|k| cluster.route(DB, k.resource_id().unwrap()).unwrap().1 == NodeId(0))
        .take(12)
        .collect();
    // 768 KB documents past node 0's 8 MB relay, with nothing pumped: the
    // slaves' streams fall off it, and draining needs node 0's image.
    let filler = "x".repeat(768 << 10);
    for key in &keys {
        cluster.put(DB, TABLE, key.clone(), &doc(&filler)).unwrap();
    }
    assert!(cluster.relay(NodeId(0)).unwrap().oldest_scn() > 1, "nothing was evicted");
    cluster.crash_node(NodeId(0)).unwrap();
    let got = read(&cluster, &keys[0]);
    assert!(matches!(got, Err(EspressoError::NoMaster { .. })), "served {got:?}");
    cluster.restart_node(NodeId(0)).unwrap();
    assert_eq!(read(&cluster, &keys[0]).unwrap(), Some(filler));
}

// ---------------------------------------------------------------------
// Kafka
// ---------------------------------------------------------------------

const TOPIC: &str = "walk";
const PARTITIONS: u32 = 2;
const KAFKA_STEPS: usize = 40;

fn replicated() -> ReplicatedCluster {
    let cluster =
        KafkaCluster::with_parts(NODES, LogConfig::default(), Arc::new(SimClock::new())).unwrap();
    let rc = ReplicatedCluster::new(cluster);
    rc.create_topic(TOPIC, PARTITIONS, NODES as usize).unwrap();
    rc
}

/// The committed messages of `partition` as a committed fetch returns
/// them, or `None` while its leader is down.
fn committed(rc: &ReplicatedCluster, partition: u32) -> Option<Vec<(u64, String)>> {
    let (messages, _) = rc.fetch_committed(TOPIC, partition, 0, usize::MAX).ok()?;
    let text = |m: &li_kafka::Message| String::from_utf8_lossy(&m.payload).into_owned();
    Some(messages.iter().map(|(offset, m)| (*offset, text(m))).collect())
}

/// One Kafka walk: produce at `Leader` or `FullIsr`, replicate, fail and
/// recover brokers (at most `MAX_DOWN` down), every partition's committed
/// log read after each step; then every broker recovers, replication runs
/// to a fixpoint, and every offset read before and every `FullIsr`-acked
/// message must be committed at its offset.
fn kafka_walk(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::new(seed);
    let rc = replicated();
    let mut model: Vec<LogModel<String>> = (0..PARTITIONS).map(|_| LogModel::default()).collect();
    let mut down: BTreeSet<u16> = BTreeSet::new();
    let check_all = |trace: &Trace, model: &mut [LogModel<String>]| {
        for (p, log) in model.iter_mut().enumerate() {
            if let Some(messages) = committed(&rc, p as u32) {
                log.observe(&messages).map_err(|e| trace.fail(format!("p{p}: {e}")))?;
            }
        }
        Ok::<(), String>(())
    };
    for step in 0..KAFKA_STEPS {
        let p = rng.random_range(0..PARTITIONS);
        match rng.random_range(0..10u32) {
            0..=4 => {
                let (ack, name) = match rng.random_bool(0.5) {
                    true => (AckMode::FullIsr, "full-isr"),
                    false => (AckMode::Leader, "leader"),
                };
                let message = format!("m{step}");
                let set = MessageSet::from_payloads([message.clone()]);
                let acked = rc.produce_with_ack(TOPIC, p, &set, ack);
                trace.step(format!("produce p{p} {message} at {name} -> {}", acked.is_ok()));
                if let (Ok(receipt), AckMode::FullIsr) = (acked, ack) {
                    let offset = receipt.base_offset.expect("an acked produce has an offset");
                    model[p as usize].ack_full_isr(offset, message);
                }
            }
            7.. if down.len() < MAX_DOWN && rng.random_bool(0.6) => {
                let up: Vec<u16> = (0..NODES).filter(|b| !down.contains(b)).collect();
                let broker = up[rng.random_range(0..up.len())];
                trace.step(format!("fail {broker}"));
                rc.fail_broker(broker).map_err(|e| trace.fail(format!("fail: {e}")))?;
                down.insert(broker);
            }
            7.. if !down.is_empty() => {
                let downed: Vec<u16> = down.iter().copied().collect();
                let broker = downed[rng.random_range(0..downed.len())];
                rc.recover_broker(broker);
                down.remove(&broker);
                trace.step(format!("recover {broker}"));
            }
            _ => {
                let copied = rc.replicate().map_err(|e| trace.fail(format!("replicate: {e}")))?;
                trace.step(format!("replicate -> {copied}"));
            }
        }
        check_all(&trace, &mut model)?;
    }
    for broker in std::mem::take(&mut down) {
        rc.recover_broker(broker);
        trace.step(format!("recover {broker}"));
    }
    while rc.replicate().map_err(|e| trace.fail(format!("replicate: {e}")))? > 0 {}
    trace.step("replicate to a fixpoint".into());
    check_all(&trace, &mut model)?;
    for (p, log) in model.iter().enumerate() {
        let messages = committed(&rc, p as u32)
            .ok_or_else(|| trace.fail(format!("p{p} has no leader with every broker up")))?;
        log.check_stable(&messages)
            .and_then(|()| log.check_full_isr(&messages))
            .map_err(|e| trace.fail(format!("p{p}: {e}")))?;
    }
    Ok(())
}

#[test]
fn kafka_walk_never_rewrites_a_committed_offset_or_loses_a_full_isr_ack() {
    sweep("kafka", 1_000, kafka_walk);
}

#[test]
fn a_second_full_isr_ack_at_one_offset_fails_the_log_model() {
    let mut log = LogModel::default();
    log.ack_full_isr(0, "m0");
    log.ack_full_isr(0, "m1");
    assert!(log.check_full_isr(&[(0, "m1")]).is_err(), "the rewritten m0 must fail");
}
