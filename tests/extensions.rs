//! Integration tests for the future-work features the paper names and
//! this reproduction implements (see DESIGN.md §"Extensions").

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
            RecordSchema::new(
                "Song",
                1,
                vec![Field::new("lyrics", FieldType::Str).indexed()],
            )
            .unwrap(),
        )
        .unwrap();
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(schema).unwrap();
    let global = GlobalIndex::new(cluster.clone(), "Music", vec![NodeId(0), NodeId(1), NodeId(2)]);

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
    let hits = global.query("Song", "lyrics", "sun");
    assert_eq!(hits.len(), 2, "{hits:?}");
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
