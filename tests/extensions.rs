//! Integration tests for the future-work features the paper names and
//! this reproduction implements (see DESIGN.md §"Extensions"), and for the
//! optional mechanisms beside the site's own paths: relay chaining, Kafka
//! ack modes and ZooKeeper data/exists watches, each through its crate's
//! public API.

use bytes::Bytes;
use li_commons::ring::NodeId;
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_espresso::{DatabaseSchema, EspressoCluster, GlobalIndex, TableSchema};
use li_kafka::{AckMode, KafkaCluster, MessageSet, ReplicatedCluster};
use li_sqlstore::RowKey;
use std::sync::Arc;

#[test]
fn kafka_replication_under_rolling_broker_failures() {
    // §V.D future work: intra-cluster replication. Roll a failure through
    // every broker; committed messages must survive every election.
    let cluster = KafkaCluster::new(3).unwrap();
    let rc = ReplicatedCluster::new(cluster);
    rc.create_topic("events", 2, 3).unwrap();

    let mut committed: Vec<String> = Vec::new();
    for round in 0..3u16 {
        for p in 0..2 {
            let payload = format!("round-{round}-p{p}");
            let set = MessageSet::from_payloads([payload.clone()]);
            rc.produce_with_ack("events", p, &set, AckMode::Leader).unwrap();
            committed.push(payload);
        }
        rc.replicate().unwrap();
        let victim = rc.leader_of("events", 0).unwrap();
        rc.fail_broker(victim).unwrap();
        // All committed messages still served (from new leaders).
        let mut seen = Vec::new();
        for p in 0..2 {
            let (messages, _) = rc.fetch_committed("events", p, 0, usize::MAX).unwrap();
            seen.extend(
                messages
                    .iter()
                    .map(|(_, m)| String::from_utf8_lossy(&m.payload).into_owned()),
            );
        }
        let mut expected = committed.clone();
        expected.sort();
        seen.sort();
        assert_eq!(seen, expected, "loss after failing broker in round {round}");
        rc.recover_broker(victim);
        rc.replicate().unwrap();
    }
}

#[test]
fn espresso_global_index_survives_storage_failover() {
    let schema = DatabaseSchema::new("Music", 6, 2)
        .with_table(
            TableSchema::new("Song", ["artist", "album", "song"]),
            RecordSchema::new("Song", 1, vec![Field::new("lyrics", FieldType::Str)]).unwrap(),
        )
        .unwrap();
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(schema).unwrap();
    let global = GlobalIndex::new(cluster.clone(), "Music", "Song", "lyrics");

    cluster
        .put(
            "Music",
            "Song",
            RowKey::new(["ArtistA", "Album", "One"]),
            &Record::new().with("lyrics", Value::Str("golden sun rises".into())),
        )
        .unwrap();
    cluster.pump_replication().unwrap();
    global.pump().unwrap();

    // Fail whichever node masters ArtistA; a different master takes over
    // and new writes flow through *its* relay — the global listener covers
    // all relays, so it keeps indexing.
    let (_, master) = cluster.route("Music", "ArtistA").unwrap();
    cluster.crash_node(master).unwrap();
    cluster
        .put(
            "Music",
            "Song",
            RowKey::new(["ArtistB", "Album", "Two"]),
            &Record::new().with("lyrics", Value::Str("sun goes down".into())),
        )
        .unwrap();
    global.pump().unwrap();
    let hits = global.query("sun");
    assert_eq!(hits.len(), 2, "{hits:?}");
}

/// People search held to a model: after a seeded population, seeded
/// random profile updates and a pump, searching any profile word finds
/// exactly the members whose current Espresso text holds it.
/// `tests/inverted_index_props.rs` pins the index; this pins what feeds
/// it.
#[test]
fn people_search_finds_exactly_the_current_profile_texts() {
    use linkedin_data_infra::consumers::member_row_key;
    use linkedin_data_infra::{SiteBench, SiteBenchConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    // Seeded profiles hold `member <id>` and four words of the
    // population's vocabulary; updates mix some of it with new words.
    const WORDS: &[&str] = &["member", "engineer", "storage", "streams", "kafka", "espresso"];
    let bench = SiteBench::prepare(SiteBenchConfig::smoke(2_000, 1, 0, 31)).unwrap();
    let platform = bench.platform();
    let members = bench.graph().member_count();
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..600 {
        let member = rng.random_range(0..members);
        let words: Vec<&str> = (0..3).map(|_| WORDS[rng.random_range(0..WORDS.len())]).collect();
        platform.update_profile(member, &words.join(" ")).unwrap();
    }
    platform.pump().unwrap();

    let all: Vec<u64> = (0..members).collect();
    let mut holders: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (member, text) in all.iter().zip(platform.profiles(&all).unwrap()) {
        let text = text.expect("every member has a profile");
        for word in text.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
            let key = member_row_key(*member).to_string();
            holders.entry(word.to_lowercase()).or_default().insert(key);
        }
    }
    assert!(holders.len() > 1_000, "member ids are words too: {}", holders.len());
    for (word, expected) in &holders {
        let expected: Vec<String> = expected.iter().cloned().collect();
        assert_eq!(platform.search_profiles(word), expected, "search `{word}`");
    }
}

#[test]
fn readonly_update_stream_drives_a_dependent_cache() {
    use li_commons::ring::HashRing;
    use li_voldemort::readonly::{ReadOnlyBuilder, ReadOnlyStore, ScratchDir, StoreEvent};

    let hdfs = ScratchDir::new("ext-hdfs").unwrap();
    let local = ScratchDir::new("ext-local").unwrap();
    let ring = HashRing::balanced(8, &[NodeId(0)]).unwrap();
    let store = Arc::new(
        ReadOnlyStore::open(local.path(), NodeId(0), ring.clone(), 1).unwrap(),
    );
    let events = store.subscribe();
    let builder = ReadOnlyBuilder::new(ring, 1, 2);

    // A "dependent cache" invalidates itself whenever the dataset version
    // changes — the use case the update stream exists for.
    let mut cache_version: Option<u64> = None;
    for version in 1..=2u64 {
        let records = vec![(
            Bytes::from_static(b"member:1"),
            Bytes::from(format!("v{version}")),
        )];
        let out = builder.build(records, version, hdfs.path()).unwrap();
        store.pull(&out.node_dir(NodeId(0)), version, None).unwrap();
        store.swap(version).unwrap();
        match events.try_recv().unwrap() {
            StoreEvent::Swapped { version } => cache_version = Some(version),
            StoreEvent::RolledBack { version } => cache_version = Some(version),
        }
    }
    assert_eq!(cache_version, Some(2));
    store.rollback().unwrap();
    assert_eq!(
        events.try_recv().unwrap(),
        StoreEvent::RolledBack { version: 1 }
    );
}

#[test]
fn databus_transformation_feeds_a_sanitized_replica() {
    use li_databus::{
        ConsumerCallback, DatabusClient, LogShippingAdapter, Relay, TransformRule, Transformation,
        Window,
    };
    use li_sqlstore::{Database, Op};
    use parking_lot::Mutex;

    // Primary with PII; the analytics replica may see row *shapes* but not
    // salary values, and must not see the auth table at all.
    let primary = Database::new("primary");
    primary.create_table("salary").unwrap();
    primary.create_table("auth_tokens").unwrap();
    primary.create_table("profile").unwrap();
    let relay = Arc::new(Relay::new("primary", 1 << 20));
    LogShippingAdapter::attach(&primary, relay.clone());

    #[derive(Default)]
    struct Replica {
        rows: Mutex<Vec<(String, String)>>,
    }
    impl ConsumerCallback for Replica {
        fn on_window(&self, window: &Window) -> Result<(), String> {
            for change in &window.changes {
                if let Op::Put(row) = &change.op {
                    self.rows.lock().push((
                        change.table.clone(),
                        String::from_utf8_lossy(&row.value).into_owned(),
                    ));
                }
            }
            Ok(())
        }
    }

    let replica = Arc::new(Replica::default());
    let client = DatabusClient::new(relay, None, replica.clone()).with_transformation(
        Transformation::new()
            .with(TransformRule::RedactValues {
                table: "salary".into(),
            })
            .with(TransformRule::DropTable {
                table: "auth_tokens".into(),
            }),
    );

    primary
        .put_one("salary", RowKey::single("m1"), &b"250000"[..], 1)
        .unwrap();
    primary
        .put_one("auth_tokens", RowKey::single("m1"), &b"secret-token"[..], 1)
        .unwrap();
    primary
        .put_one("profile", RowKey::single("m1"), &b"public bio"[..], 1)
        .unwrap();
    client.catch_up().unwrap();

    let rows = replica.rows.lock();
    assert_eq!(rows.len(), 2, "auth_tokens dropped entirely");
    assert!(rows.iter().any(|(t, v)| t == "salary" && v == "<redacted>"));
    assert!(rows.iter().any(|(t, v)| t == "profile" && v == "public bio"));
    assert!(!rows.iter().any(|(_, v)| v.contains("secret")));
}

#[test]
fn helix_health_reflects_espresso_cluster_state() {
    use li_helix::{check_health, Severity, SlaConfig};

    let schema = DatabaseSchema::new("Music", 4, 2)
        .with_table(
            TableSchema::new("Album", ["artist", "album"]),
            RecordSchema::new("Album", 1, vec![Field::new("year", FieldType::Long)]).unwrap(),
        )
        .unwrap();
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(schema).unwrap();
    let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();

    let report = check_health(
        &SlaConfig::default(),
        &nodes,
        &cluster.controller().live_nodes().unwrap(),
        4,
        &cluster.controller().external_view("Music").unwrap(),
    );
    assert!(report.healthy(), "{:?}", report.alerts);

    cluster.crash_node(NodeId(0)).unwrap();
    let report = check_health(
        &SlaConfig::default(),
        &nodes,
        &cluster.controller().live_nodes().unwrap(),
        4,
        &cluster.controller().external_view("Music").unwrap(),
    );
    assert!(!report.healthy());
    assert!(report.masterless.is_empty(), "failover kept all masters");
    assert!(report
        .alerts
        .iter()
        .all(|a| a.severity == Severity::Warning), "degraded but serving: {:?}", report.alerts);
}

#[test]
fn databus_chained_relay_serves_the_upstream_windows() {
    use li_databus::{LogShippingAdapter, Relay, ServerFilter, WindowView};
    use li_sqlstore::Database;

    // §III.C: relays are "connected directly to the database, or to other
    // relays to provide replicated availability of the change stream".
    let primary = Database::new("primary");
    primary.create_table("member").unwrap();
    let upstream = Arc::new(Relay::new("primary", 1 << 20));
    LogShippingAdapter::attach(&primary, upstream.clone());
    for i in 0..20 {
        primary
            .put_one("member", RowKey::single(format!("{i}")), &b"v"[..], 1)
            .unwrap();
    }
    let chained = Relay::new("primary", 1 << 20);
    assert_eq!(chained.chain_from(&upstream).unwrap(), 20);
    assert_eq!(chained.chain_from(&upstream).unwrap(), 0, "idempotent");
    let all = ServerFilter::all();
    let served = upstream.events_after_shared(0, 100, &all).unwrap();
    let relayed = chained.events_after_shared(0, 100, &all).unwrap();
    assert_eq!(served, relayed);
    // Zero-copy: both buffers hold the same frozen windows.
    for (a, b) in served.iter().zip(&relayed) {
        let (WindowView::Shared(a), WindowView::Shared(b)) = (a, b) else {
            panic!("pass-all views are shared");
        };
        assert!(Arc::ptr_eq(a, b), "chained relays share window memory");
    }
    // Later commits follow incrementally.
    primary
        .put_one("member", RowKey::single("late"), &b"v"[..], 1)
        .unwrap();
    assert_eq!(chained.chain_from(&upstream).unwrap(), 1);
    assert_eq!(chained.newest_scn(), 21);
}

#[test]
fn databus_restarted_relay_resumes_at_its_watermark() {
    use li_databus::{Relay, RelayError, Window};
    use li_sqlstore::Database;

    let primary = Database::new("primary");
    primary.create_table("member").unwrap();
    for i in 0..8 {
        primary
            .put_one("member", RowKey::single(format!("{i}")), &b"v"[..], 1)
            .unwrap();
    }
    let binlog = primary.binlog_after(0);
    let window = |scn: u64| Window::from_binlog("primary", &binlog[scn as usize - 1]);
    // The relay captured through SCN 5 before it crashed; restarted empty,
    // it must not open a hole when the source has moved on.
    let restarted = Relay::new("primary", 1 << 20);
    restarted.resume_expecting(6);
    assert_eq!(
        restarted.ingest(window(8)).unwrap_err(),
        RelayError::OutOfOrder { got: 8, expected: 6 }
    );
    for scn in 6..=8 {
        restarted.ingest(window(scn)).unwrap();
    }
    assert_eq!(restarted.newest_scn(), 8);
}

#[test]
fn kafka_ack_modes_trade_waiting_for_durability() {
    use li_kafka::{Producer, SimpleConsumer};

    // A producer that does not wait for acks: its sends are visible once
    // it flushes on close.
    let cluster = KafkaCluster::new(2).unwrap();
    cluster.create_topic("events", 1).unwrap();
    let producer = Producer::new(cluster.clone())
        .with_ack_mode(AckMode::None)
        .with_batch_size(4);
    for i in 0..16 {
        producer.send("events", format!("f{i}")).unwrap();
    }
    producer.flush().unwrap();
    let mut consumer = SimpleConsumer::new(cluster, "events", 0).unwrap();
    assert_eq!(consumer.poll().unwrap().len(), 16);

    // On a replicated partition, `None` returns without an offset and
    // `FullIsr` waits for every in-sync replica, which shrinks when a
    // follower fails.
    let rc = ReplicatedCluster::new(KafkaCluster::new(3).unwrap());
    rc.create_topic("t", 1, 3).unwrap();
    let fire = MessageSet::from_payloads(["fire"]);
    assert_eq!(rc.produce_with_ack("t", 0, &fire, AckMode::None).unwrap().base_offset, None);
    rc.flush_ingest();
    assert_eq!(rc.isr_of("t", 0).unwrap(), vec![0, 1, 2]);
    let leader = rc.leader_of("t", 0).unwrap();
    let follower = (0..3).find(|&b| b != leader).unwrap();
    rc.fail_broker(follower).unwrap();
    assert!(!rc.isr_of("t", 0).unwrap().contains(&follower));
    let durable = MessageSet::from_payloads(["durable"]);
    let receipt = rc.produce_with_ack("t", 0, &durable, AckMode::FullIsr).unwrap();
    let offset = receipt.base_offset.expect("FullIsr reports where it appended");
    // Committed the moment the call returns, with no replication pump.
    let (messages, _) = rc.fetch_committed("t", 0, offset, usize::MAX).unwrap();
    assert_eq!(messages.len(), 1);
    assert_eq!(messages[0].1.payload.as_ref(), b"durable");
}

#[test]
fn zk_data_and_exists_watches_fire_once() {
    use li_zk::{CreateMode, WatchEventKind, ZooKeeper};

    let zk = ZooKeeper::new();
    let s = zk.connect();
    // A data watch needs the node and fires on its next change only.
    assert!(s.watch_data("/n").is_err());
    s.create("/n", b"".as_slice(), CreateMode::Persistent).unwrap();
    let data = s.watch_data("/n").unwrap();
    s.set("/n", b"1".as_slice(), None).unwrap();
    assert_eq!(data.try_recv().unwrap().kind, WatchEventKind::NodeDataChanged);
    s.set("/n", b"2".as_slice(), None).unwrap();
    assert!(data.try_recv().is_err(), "one-shot");
    // An exists watch may precede the node, and sees creation and deletion.
    let created = s.watch_exists("/future").unwrap();
    s.create("/future", b"".as_slice(), CreateMode::Persistent).unwrap();
    assert_eq!(created.try_recv().unwrap().kind, WatchEventKind::NodeCreated);
    let deleted = s.watch_exists("/future").unwrap();
    s.delete("/future", None).unwrap();
    assert_eq!(deleted.try_recv().unwrap().kind, WatchEventKind::NodeDeleted);
}
