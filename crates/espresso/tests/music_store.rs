//! End-to-end Espresso tests built around the paper's Music database
//! example (Figures IV.2/IV.3): Artist, Album, and Song tables sharing the
//! artist name as `resource_id`.

use li_commons::ring::{NodeId, PartitionId};
use li_commons::schema::{Field, FieldType, Record, RecordSchema, Value};
use li_espresso::{DatabaseSchema, EspressoCluster, EspressoError, TableSchema};
use li_sqlstore::RowKey;
use std::sync::Arc;

fn artist_schema() -> RecordSchema {
    RecordSchema::new(
        "Artist",
        1,
        vec![Field::new("genre", FieldType::Str).indexed()],
    )
    .unwrap()
}

fn album_schema() -> RecordSchema {
    RecordSchema::new(
        "Album",
        1,
        vec![
            Field::new("year", FieldType::Long).indexed(),
            Field::new("label", FieldType::Optional(Box::new(FieldType::Str))),
        ],
    )
    .unwrap()
}

fn song_schema() -> RecordSchema {
    RecordSchema::new(
        "Song",
        1,
        vec![Field::new("lyrics", FieldType::Str).indexed()],
    )
    .unwrap()
}

fn music_db(partitions: u32, replication: usize) -> DatabaseSchema {
    DatabaseSchema::new("Music", partitions, replication)
        .with_table(TableSchema::new("Artist", ["artist"]), artist_schema())
        .unwrap()
        .with_table(TableSchema::new("Album", ["artist", "album"]), album_schema())
        .unwrap()
        .with_table(
            TableSchema::new("Song", ["artist", "album", "song"]),
            song_schema(),
        )
        .unwrap()
}

fn album(year: i64) -> Record {
    Record::new()
        .with("year", Value::Long(year))
        .with("label", Value::Null)
}

fn song(lyrics: &str) -> Record {
    Record::new().with("lyrics", Value::Str(lyrics.into()))
}

fn cluster(nodes: u16, partitions: u32, replication: usize) -> Arc<EspressoCluster> {
    let cluster = EspressoCluster::new(nodes).unwrap();
    cluster.create_database(music_db(partitions, replication)).unwrap();
    cluster
}

/// Seeds the paper's Album table (Figure IV.2).
fn seed_albums(cluster: &EspressoCluster) {
    for (artist, title, year) in [
        ("Akon", "Trouble", 2004),
        ("Akon", "Stadium", 2011),
        ("Babyface", "Lovers", 1986),
        ("Babyface", "A_Closer_Look", 1991),
        ("Babyface", "Face2Face", 2001),
        ("Coolio", "Steal_Hear", 2008),
    ] {
        cluster
            .put("Music", "Album", RowKey::new([artist, title]), &album(year))
            .unwrap();
    }
}

#[test]
fn document_crud_via_uris() {
    let cluster = cluster(3, 8, 2);
    seed_albums(&cluster);

    // Singleton GET.
    let hits = cluster.get_uri("/Music/Album/Akon/Trouble").unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].1.get("year"), Some(&Value::Long(2004)));

    // Collection GET: all albums by Babyface, in key order.
    let hits = cluster.get_uri("/Music/Album/Babyface").unwrap();
    assert_eq!(hits.len(), 3);
    assert_eq!(hits[0].0, RowKey::new(["Babyface", "A_Closer_Look"]));

    // Overwrite and delete.
    cluster
        .put("Music", "Album", RowKey::new(["Coolio", "Steal_Hear"]), &album(2009))
        .unwrap();
    let hits = cluster.get_uri("/Music/Album/Coolio/Steal_Hear").unwrap();
    assert_eq!(hits[0].1.get("year"), Some(&Value::Long(2009)));
    cluster
        .delete("Music", "Album", RowKey::new(["Coolio", "Steal_Hear"]))
        .unwrap();
    assert!(cluster.get_uri("/Music/Album/Coolio/Steal_Hear").unwrap().is_empty());
}

#[test]
fn secondary_index_free_text_query() {
    let cluster = cluster(3, 8, 2);
    cluster
        .put(
            "Music",
            "Song",
            RowKey::new(["The_Beatles", "Sgt._Pepper", "Lucy_in_the_Sky_with_Diamonds"]),
            &song("Picture yourself in a boat on a river... Lucy in the sky with diamonds"),
        )
        .unwrap();
    cluster
        .put(
            "Music",
            "Song",
            RowKey::new(["The_Beatles", "Magical_Mystery_Tour", "I_am_the_Walrus"]),
            &song("I am he as you are he... goo goo g'joob"),
        )
        .unwrap();

    // The paper's example query.
    let hits = cluster
        .get_uri("/Music/Song/The_Beatles?query=lyrics:\"Lucy in the sky\"")
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(
        hits[0].0,
        RowKey::new(["The_Beatles", "Sgt._Pepper", "Lucy_in_the_Sky_with_Diamonds"])
    );
}

#[test]
fn index_reflects_updates_and_deletes() {
    let cluster = cluster(2, 4, 1);
    let key = RowKey::new(["Akon", "Trouble", "Locked_Up"]);
    cluster
        .put("Music", "Song", key.clone(), &song("im locked up they wont let me out"))
        .unwrap();
    assert_eq!(
        cluster.get_uri("/Music/Song/Akon?query=lyrics:locked").unwrap().len(),
        1
    );
    cluster
        .put("Music", "Song", key.clone(), &song("different words now"))
        .unwrap();
    assert!(cluster.get_uri("/Music/Song/Akon?query=lyrics:locked").unwrap().is_empty());
    assert_eq!(
        cluster.get_uri("/Music/Song/Akon?query=lyrics:different").unwrap().len(),
        1
    );
    cluster.delete("Music", "Song", key).unwrap();
    assert!(cluster.get_uri("/Music/Song/Akon?query=lyrics:different").unwrap().is_empty());
}

#[test]
fn transactional_multi_table_post() {
    let cluster = cluster(3, 8, 2);
    // Post a new album and its songs in one transaction (the paper's
    // example for the wildcard-table POST).
    let docs = vec![
        (
            "Album".to_string(),
            RowKey::new(["Etta_James", "Gold"]),
            album(2007),
        ),
        (
            "Song".to_string(),
            RowKey::new(["Etta_James", "Gold", "At_Last"]),
            song("At last my love has come along"),
        ),
        (
            "Song".to_string(),
            RowKey::new(["Etta_James", "Gold", "Sunday_Kind_Of_Love"]),
            song("I want a Sunday kind of love"),
        ),
    ];
    cluster.post_transactional("Music", docs).unwrap();
    assert_eq!(cluster.get_uri("/Music/Song/Etta_James/Gold").unwrap().len(), 2);
    assert_eq!(cluster.get_uri("/Music/Album/Etta_James").unwrap().len(), 1);

    // Mixed resource ids are rejected: they may hash to different
    // partitions, so no transactional guarantee is possible.
    let err = cluster
        .post_transactional(
            "Music",
            vec![
                ("Album".to_string(), RowKey::new(["A", "x"]), album(2000)),
                ("Album".to_string(), RowKey::new(["B", "y"]), album(2001)),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, EspressoError::BadRequest(_)));
}

#[test]
fn conditional_requests_use_etags() {
    let cluster = cluster(2, 4, 1);
    let key = RowKey::new(["Akon", "Trouble"]);
    // If-None-Match (etag 0): create.
    let etag = cluster
        .put_if_match("Music", "Album", key.clone(), 0, &album(2004))
        .unwrap();
    // If-Match with the right etag: update.
    let etag2 = cluster
        .put_if_match("Music", "Album", key.clone(), etag, &album(2005))
        .unwrap();
    assert!(etag2 > etag);
    // Stale etag: precondition failed.
    let err = cluster
        .put_if_match("Music", "Album", key.clone(), etag, &album(2006))
        .unwrap_err();
    assert!(matches!(err, EspressoError::PreconditionFailed { .. }));
}

#[test]
fn partitioning_matches_application_view() {
    // Figure IV.2 vs IV.3: the client sees one logical table; rows are
    // hash-distributed by artist across partition masters.
    let cluster = cluster(4, 16, 2);
    seed_albums(&cluster);
    let schema = cluster.schema("Music").unwrap();
    let view = cluster.controller().external_view("Music").unwrap();
    for artist in ["Akon", "Babyface", "Coolio"] {
        let p = schema.read().partition_of(artist);
        let (partition, master) = cluster.route("Music", artist).unwrap();
        assert_eq!(partition, p);
        assert_eq!(view.master_of(PartitionId(p)), Some(master));
        // All documents of one artist live wholly on that master.
        let node = cluster.node(master).unwrap();
        let docs = node
            .get_collection("Music", "Album", &RowKey::single(artist))
            .unwrap();
        assert!(!docs.is_empty());
    }
}

#[test]
fn replication_is_timeline_consistent_and_failover_preserves_data() {
    let cluster = cluster(3, 6, 2);
    seed_albums(&cluster);
    cluster.pump_replication().unwrap();

    // Pick the master of Akon's partition and kill it.
    let (_partition, master) = cluster.route("Music", "Akon").unwrap();
    // More writes after the pump — these must survive via the relay drain.
    cluster
        .put("Music", "Album", RowKey::new(["Akon", "Konvicted"]), &album(2006))
        .unwrap();
    cluster.crash_node(master).unwrap();

    // A new master answers, with ALL committed data.
    let (_, new_master) = cluster.route("Music", "Akon").unwrap();
    assert_ne!(new_master, master);
    let albums = cluster.get_uri("/Music/Album/Akon").unwrap();
    let titles: Vec<&str> = albums.iter().map(|(k, _)| k.0[1].as_str()).collect();
    assert!(titles.contains(&"Trouble"));
    assert!(titles.contains(&"Stadium"));
    assert!(
        titles.contains(&"Konvicted"),
        "post-pump write lost in failover: {titles:?}"
    );

    // Writes keep flowing on the new master.
    cluster
        .put("Music", "Album", RowKey::new(["Akon", "Freedom"]), &album(2008))
        .unwrap();
    assert_eq!(cluster.get_uri("/Music/Album/Akon").unwrap().len(), 4);
}

#[test]
fn restart_rejoins_and_recovers_replication() {
    let cluster = cluster(3, 6, 2);
    seed_albums(&cluster);
    cluster.pump_replication().unwrap();
    let (_, master) = cluster.route("Music", "Babyface").unwrap();
    cluster.crash_node(master).unwrap();
    cluster
        .put("Music", "Album", RowKey::new(["Babyface", "The_Day"]), &album(1996))
        .unwrap();
    cluster.restart_node(master).unwrap();
    cluster.pump_replication().unwrap();
    // Cluster fully serves everything.
    assert_eq!(cluster.get_uri("/Music/Album/Babyface").unwrap().len(), 4);
}

#[test]
fn cluster_expansion_moves_partitions_without_data_loss() {
    let cluster = cluster(2, 8, 2);
    seed_albums(&cluster);
    cluster.pump_replication().unwrap();

    cluster.add_node(NodeId(2)).unwrap();
    // The newcomer hosts replicas now.
    let view = cluster.controller().external_view("Music").unwrap();
    assert!(
        !view.partitions_on(NodeId(2)).is_empty(),
        "new node hosts nothing"
    );
    // Every document still retrievable.
    for (artist, count) in [("Akon", 2), ("Babyface", 3), ("Coolio", 1)] {
        assert_eq!(
            cluster.get_uri(&format!("/Music/Album/{artist}")).unwrap().len(),
            count,
            "{artist}"
        );
    }
    // And writes route correctly post-expansion.
    cluster
        .put("Music", "Album", RowKey::new(["Akon", "Freedom"]), &album(2008))
        .unwrap();
    assert_eq!(cluster.get_uri("/Music/Album/Akon").unwrap().len(), 3);
}

#[test]
fn schema_evolution_reads_old_documents() {
    let cluster = cluster(2, 4, 1);
    let key = RowKey::new(["Akon", "Trouble"]);
    cluster.put("Music", "Album", key.clone(), &album(2004)).unwrap();

    // Evolve: add a rating field with a default.
    {
        let schema = cluster.schema("Music").unwrap();
        let mut schema = schema.write();
        let mut fields = album_schema().fields;
        fields.push(Field::new("rating", FieldType::Long).with_default(Value::Long(0)));
        let v2 = RecordSchema::new("Album", 2, fields).unwrap();
        schema.evolve_document_schema(v2).unwrap();
    }

    // Old document resolves under the new schema with the default.
    let hits = cluster.get_uri("/Music/Album/Akon/Trouble").unwrap();
    assert_eq!(hits[0].1.get("rating"), Some(&Value::Long(0)));

    // New writes carry the new version and can set the field.
    let v2_doc = album(2004).with("rating", Value::Long(5));
    cluster.put("Music", "Album", key, &v2_doc).unwrap();
    let hits = cluster.get_uri("/Music/Album/Akon/Trouble").unwrap();
    assert_eq!(hits[0].1.get("rating"), Some(&Value::Long(5)));
}

#[test]
fn document_schema_definable_in_json() {
    // "Schemas are represented in JSON in the format specified by Avro" —
    // define the Album document schema exactly as it would be POSTed to
    // the schema URI.
    let json = r#"{
        "name": "Album",
        "version": 1,
        "fields": [
            { "name": "year", "type": "long", "indexed": true },
            { "name": "label", "type": { "optional": "str" } }
        ]
    }"#;
    let parsed = RecordSchema::from_json(json).unwrap();
    let db = DatabaseSchema::new("Music", 4, 1)
        .with_table(TableSchema::new("Album", ["artist", "album"]), parsed)
        .unwrap();
    let cluster = EspressoCluster::new(2).unwrap();
    cluster.create_database(db).unwrap();
    cluster
        .put("Music", "Album", RowKey::new(["Akon", "Trouble"]), &album(2004))
        .unwrap();
    // The indexed annotation from JSON drives secondary-index queries.
    let hits = cluster.get_uri("/Music/Album/Akon?query=year:2004").unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn writes_to_non_master_rejected() {
    let cluster = cluster(3, 6, 2);
    seed_albums(&cluster);
    let (partition, master) = cluster.route("Music", "Akon").unwrap();
    // Find a node that is NOT the master for Akon's partition.
    let other = (0..3)
        .map(NodeId)
        .find(|&id| id != master)
        .unwrap();
    let node = cluster.node(other).unwrap();
    let err = node
        .put_document("Music", "Album", RowKey::new(["Akon", "X"]), &album(2000))
        .unwrap_err();
    match err {
        EspressoError::NotMaster { partition: p } => assert_eq!(p, partition),
        other => panic!("expected NotMaster, got {other}"),
    }
}

#[test]
fn unpartitioned_database_serves_from_single_partition() {
    // "the only supported partitioning strategies are hash-based
    // partitioning or un-partitioned" — the un-partitioned variant routes
    // every resource to partition 0.
    let mut schema = music_db(4, 2);
    schema.strategy = li_espresso::PartitionStrategy::Unpartitioned;
    let cluster = EspressoCluster::new(3).unwrap();
    cluster.create_database(schema).unwrap();
    seed_albums(&cluster);
    let (p_akon, master_akon) = cluster.route("Music", "Akon").unwrap();
    let (p_cool, master_cool) = cluster.route("Music", "Coolio").unwrap();
    assert_eq!(p_akon, 0);
    assert_eq!(p_cool, 0);
    assert_eq!(master_akon, master_cool, "one master serves everything");
    assert_eq!(cluster.get_uri("/Music/Album/Babyface").unwrap().len(), 3);
}

#[test]
fn downstream_cdc_consumers_see_all_changes() {
    // Espresso "provides a Change Data Capture pipeline to downstream
    // consumers": anything written is observable on the nodes' relays.
    let cluster = cluster(2, 4, 1);
    seed_albums(&cluster);
    let mut total_changes = 0;
    for id in [NodeId(0), NodeId(1)] {
        let relay = cluster.relay(id).unwrap();
        let windows = relay
            .events_after_shared(0, usize::MAX, &li_databus::ServerFilter::all())
            .unwrap();
        total_changes += windows.iter().map(|w| w.changes.len()).sum::<usize>();
    }
    assert_eq!(total_changes, 6, "every document write visible via CDC");
}
