//! Cross-system observability: one shared registry watches a
//! Voldemort → Databus → Kafka pipeline end to end, and every assertion
//! here goes through the *public metrics API only* — no private counters,
//! no reaching into system internals. If the metrics layer misreports,
//! these tests fail.

use bytes::Bytes;
use li_commons::metrics::MetricsRegistry;
use li_commons::ring::{HashRing, NodeId};
use li_commons::sim::{RealClock, SimNetwork};
use li_databus::{ConsumerCallback, DatabusClient, LogShippingAdapter, Relay, Window};
use li_kafka::{KafkaCluster, Producer, SimpleConsumer};
use li_sqlstore::{Database, RowKey};
use li_voldemort::{StoreDef, VoldemortCluster};
use std::sync::Arc;

const TOPIC: &str = "row-changes";
const WRITES: usize = 40;

/// Databus subscriber that republishes every row change into Kafka — the
/// paper's "changes flow from the primary out to the streams tier".
struct KafkaForwarder {
    producer: Producer,
}

impl ConsumerCallback for KafkaForwarder {
    fn on_window(&self, window: &Window) -> Result<(), String> {
        for change in &window.changes {
            self.producer
                .send(TOPIC, format!("scn={} key={}", window.scn, change.key))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Builds the whole pipeline over ONE registry and pushes `WRITES` user
/// writes through it: each write is acked by Voldemort (cache tier) and
/// committed to the primary (source of truth), relayed by Databus, and
/// republished into Kafka.
fn run_pipeline(registry: &Arc<MetricsRegistry>) -> (DatabusClient, Arc<KafkaCluster>) {
    // Voldemort cache tier (2 nodes, N=2 replication by default store def).
    let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
    let voldemort = VoldemortCluster::with_metrics(
        HashRing::balanced(16, &nodes).unwrap(),
        SimNetwork::reliable(),
        Arc::new(RealClock::new()),
        registry,
    )
    .unwrap();
    voldemort.add_store(StoreDef::read_write("cache")).unwrap();
    let cache = voldemort.client("cache").unwrap();

    // Primary + Databus tier.
    let primary = Arc::new(Database::with_metrics(
        "primary",
        Arc::new(RealClock::new()),
        registry,
    ));
    primary.create_table("t").unwrap();
    let relay = Arc::new(Relay::with_metrics("primary", 1 << 20, registry));
    LogShippingAdapter::attach(&primary, relay.clone());

    // Kafka tier, fed by a Databus subscriber.
    let kafka = KafkaCluster::with_metrics(
        1,
        li_kafka::log::LogConfig::default(),
        Arc::new(RealClock::new()),
        registry,
    )
    .unwrap();
    kafka.create_topic(TOPIC, 1).unwrap();
    let forwarder = Arc::new(KafkaForwarder {
        producer: Producer::new(kafka.clone()),
    });
    let client = DatabusClient::new(relay, None, forwarder);

    let mut acked = 0;
    for i in 0..WRITES {
        let key = format!("member:{i}");
        cache
            .put_initial(key.as_bytes(), Bytes::from(format!("profile {i}")))
            .unwrap();
        primary
            .put_one("t", RowKey::single(key), format!("profile {i}").into_bytes(), 1)
            .unwrap();
        acked += 1;
        // Relay lag must never go negative, at any point mid-run.
        client.catch_up().unwrap();
        let lag = registry
            .snapshot()
            .gauge("databus.client.relay_lag_scns")
            .expect("relay lag gauge");
        assert!(lag >= 0, "relay lag went negative: {lag}");
    }
    assert_eq!(acked, WRITES);
    (client, kafka)
}

#[test]
fn acked_writes_equal_counted_writes_at_every_tier() {
    let registry = MetricsRegistry::new();
    let (_client, _kafka) = run_pipeline(&registry);
    let snapshot = registry.snapshot();

    // Voldemort: every acked client put is counted, none hinted or failed.
    assert_eq!(
        snapshot.counter("voldemort.client.put.ok"),
        Some(WRITES as u64)
    );
    assert_eq!(
        snapshot.counter("voldemort.client.quorum.write_failures"),
        Some(0)
    );
    // Replication factor 2 over 2 nodes: the node-side put counts must sum
    // to exactly acked * replicas — a write the client acked but a node
    // never counted (or vice versa) breaks this.
    let node_puts = snapshot.counter_sum("voldemort.node0.put.count")
        + snapshot.counter_sum("voldemort.node1.put.count");
    assert_eq!(node_puts, 2 * WRITES as u64);

    // Primary: one commit per write, SCN agrees with the commit count.
    assert_eq!(
        snapshot.counter("sqlstore.db.primary.commits"),
        Some(WRITES as u64)
    );
    assert_eq!(
        snapshot.gauge("sqlstore.db.primary.last_scn"),
        Some(WRITES as i64)
    );

    // Databus: every commit became exactly one relayed window.
    assert_eq!(
        snapshot.counter("databus.client.windows_processed"),
        Some(WRITES as u64)
    );
    assert_eq!(
        snapshot.counter("databus.relay.primary.windows_ingested"),
        Some(WRITES as u64)
    );
    assert_eq!(
        snapshot.gauge("databus.relay.primary.newest_scn"),
        Some(WRITES as i64)
    );

    // Kafka: every relayed change was produced to the broker.
    assert_eq!(
        snapshot.counter("kafka.broker0.produce.messages"),
        Some(WRITES as u64)
    );
    assert_eq!(snapshot.counter("kafka.producer.requests"), Some(WRITES as u64));
}

#[test]
fn consumer_lag_rises_then_drains_to_zero() {
    let registry = MetricsRegistry::new();
    let (_client, kafka) = run_pipeline(&registry);

    // A consumer that has not polled yet sees the full backlog.
    let mut consumer = SimpleConsumer::new(kafka.clone(), TOPIC, 0).unwrap();
    let lag_name = format!("kafka.consumer.{TOPIC}.0.lag");
    consumer.seek(0); // refreshes the gauge without consuming
    let backlog = registry.snapshot().gauge(&lag_name).expect("lag gauge");
    assert!(backlog > 0, "expected a backlog, lag={backlog}");

    // Drain; the first-class lag gauge must return exactly to zero.
    let mut seen = 0;
    loop {
        let batch = consumer.poll().unwrap();
        if batch.is_empty() {
            break;
        }
        seen += batch.len();
    }
    assert_eq!(seen, WRITES);
    assert_eq!(registry.snapshot().gauge(&lag_name), Some(0));
}

#[test]
fn interval_delta_isolates_second_half_of_the_run() {
    // Snapshot deltas answer "what happened since the last scrape" — the
    // per-interval view a monitoring poller needs.
    let registry = MetricsRegistry::new();
    let counter = registry.counter("pipeline.events");
    counter.add(30);
    let at_t = registry.snapshot();
    counter.add(12);
    let now = registry.snapshot();
    assert_eq!(now.counter("pipeline.events"), Some(42));
    assert_eq!(now.delta(&at_t).counter("pipeline.events"), Some(12));
}

/// The patterns of DESIGN.md §7's catalog. Every backticked string in the
/// table's Metrics column is one: a `{a, b}` list stands for one name per
/// item, and `<...>` for the part of a dotted segment that holds an id.
fn catalog_patterns() -> Vec<String> {
    let design = include_str!("../DESIGN.md");
    let table = design.split("**Catalog**").nth(1).expect("catalog heading");
    let mut patterns = Vec::new();
    for row in table
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
    {
        let cell = row.split('|').nth(2).expect("a Metrics column");
        for quoted in cell.split('`').skip(1).step_by(2) {
            match quoted.split_once('{') {
                Some((prefix, list)) => {
                    let (items, suffix) = list.split_once('}').expect("closed brace list");
                    patterns.extend(
                        items.split(',').map(|item| format!("{prefix}{}{suffix}", item.trim())),
                    );
                }
                None => patterns.push(quoted.to_string()),
            }
        }
    }
    patterns
}

fn matches(pattern: &str, name: &str) -> bool {
    let (pattern, name): (Vec<&str>, Vec<&str>) =
        (pattern.split('.').collect(), name.split('.').collect());
    pattern.len() == name.len()
        && pattern.iter().zip(&name).all(|(p, n)| match p.split_once('<') {
            Some((head, id)) => {
                let tail = id.split_once('>').expect("closed placeholder").1;
                n.len() > head.len() + tail.len() && n.starts_with(head) && n.ends_with(tail)
            }
            None => p == n,
        })
}

/// Catalog names no site run registers, each with its reason.
const NOT_IN_A_SITE_RUN: &[(&str, &str)] = &[
    (
        "helix.<cluster>.transitions_fired",
        "Espresso builds its controller with Controller::new: a private registry",
    ),
    ("helix.<cluster>.rebalances", "as above"),
];

/// The catalog and the registry of a site run (one partition migrating)
/// list the same names, so an added metric and a deleted one both fail.
#[test]
fn design_catalog_lists_exactly_the_live_metric_names() {
    use li_bench::site::{recorded_platform, run, RunOptions};
    use linkedin_data_infra::{ShardMode, SiteBench, SiteBenchConfig};

    let mut config = SiteBenchConfig::smoke(300, 2, 60, 7);
    config.platform = recorded_platform(ShardMode::Parallel);
    let options = RunOptions {
        migrate_partitions: 1,
        ..RunOptions::smoke()
    };
    let report = run(SiteBench::prepare(config).unwrap(), &options).unwrap();
    let live: Vec<&str> = report.snapshot.iter().map(|(name, _)| name).collect();
    let catalog = catalog_patterns();
    assert!(catalog.len() > 50, "parsed only {} patterns", catalog.len());

    for name in &live {
        assert!(
            catalog.iter().any(|pattern| matches(pattern, name)),
            "{name} is live but not in the DESIGN.md catalog"
        );
    }
    for pattern in &catalog {
        let is_live = live.iter().any(|name| matches(pattern, name));
        match NOT_IN_A_SITE_RUN.iter().find(|(absent, _)| absent == pattern) {
            Some((_, reason)) => assert!(!is_live, "{pattern} is live after all ({reason})"),
            None => assert!(is_live, "{pattern} is in the catalog but no site run creates it"),
        }
    }
    for (absent, _) in NOT_IN_A_SITE_RUN {
        assert!(catalog.iter().any(|pattern| pattern == absent), "{absent} left the catalog");
    }
}
