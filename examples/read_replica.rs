//! Read replicas over Databus — §III.A: "Among these applications are ...
//! Read Replicas", and §III.B's motivation: "in the case of replication
//! for read scaling, pipeline latency can lead to higher front-end
//! latencies since more traffic will go to the master for the freshest
//! results."
//!
//! A primary database fans out through one relay to several replica
//! databases; a stale replica that falls off the relay catches up through
//! the bootstrap server's consolidated delta; and a declarative
//! transformation feeds a *sanitized* replica for analytics.
//!
//! Run with: `cargo run --example read_replica`

use li_databus::{
    BootstrapServer, ConsumerCallback, DatabusClient, LogShippingAdapter, Relay, TransformRule,
    Transformation, Window,
};
use li_sqlstore::{Database, RowKey};
use parking_lot::Mutex;
use std::sync::Arc;

/// A replica database maintained by a Databus consumer.
struct ReplicaConsumer {
    db: Arc<Database>,
    windows: Mutex<u64>,
}

impl ReplicaConsumer {
    fn new(name: &str, tables: &[&str]) -> Arc<Self> {
        let db = Arc::new(Database::new(name));
        for t in tables {
            db.create_table(*t).unwrap();
        }
        Arc::new(ReplicaConsumer {
            db,
            windows: Mutex::new(0),
        })
    }
}

impl ConsumerCallback for ReplicaConsumer {
    fn on_window(&self, window: &Window) -> Result<(), String> {
        self.db
            .apply_changes(&window.changes)
            .map_err(|e| e.to_string())?;
        *self.windows.lock() += 1;
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Primary + relay + bootstrap.
    let primary = Database::new("primary");
    primary.create_table("member_profile")?;
    primary.create_table("salary")?;
    let relay = Arc::new(Relay::new("primary", 128 * 1024)); // small: evicts
    LogShippingAdapter::attach(&primary, relay.clone());
    let bootstrap = Arc::new(BootstrapServer::new());

    // Replica 1: full read replica (serves read traffic near the edge).
    let replica = ReplicaConsumer::new("read-replica-1", &["member_profile", "salary"]);
    let replica_client = DatabusClient::new("replica", relay.clone(), Some(bootstrap.clone()), replica.clone());

    // Replica 2: analytics replica behind a privacy transformation.
    let analytics = ReplicaConsumer::new("analytics", &["member_profile", "salary"]);
    let analytics_client = DatabusClient::new("analytics", relay.clone(), Some(bootstrap.clone()), analytics.clone())
        .with_transformation(Transformation::new().with(TransformRule::RedactValues {
            table: "salary".into(),
        }));

    // Write a first wave and replicate.
    for i in 0..500u32 {
        primary.put_one(
            "member_profile",
            RowKey::single(format!("m{i}")),
            format!("profile text {i}").into_bytes(),
            1,
        )?;
        primary.put_one(
            "salary",
            RowKey::single(format!("m{i}")),
            format!("{}", 100_000 + i).into_bytes(),
            1,
        )?;
        bootstrap.catch_up_from(&relay)?;
    }
    bootstrap.apply_log();
    replica_client.catch_up()?;
    analytics_client.catch_up()?;
    println!(
        "replica-1: {} rows in member_profile, {} in salary",
        replica.db.row_count("member_profile")?,
        replica.db.row_count("salary")?
    );
    let salary = analytics.db.get("salary", &RowKey::single("m7"))?.unwrap();
    println!(
        "analytics salary for m7: {:?} (redacted by the declarative transform)",
        String::from_utf8_lossy(&salary.value)
    );
    assert_eq!(salary.value.as_ref(), b"<redacted>");

    // Replica 1 goes down for maintenance; the primary keeps committing
    // until the relay has evicted what the replica missed.
    let stall_at = replica_client.checkpoint();
    for i in 500..3_000u32 {
        primary.put_one(
            "member_profile",
            RowKey::single(format!("m{}", i % 700)),
            format!("updated text {i} ").repeat(12).into_bytes(),
            1,
        )?;
        bootstrap.catch_up_from(&relay)?;
    }
    bootstrap.apply_log();
    assert!(relay.oldest_scn() > stall_at + 1, "relay evicted the gap");

    // Catch-up goes through the bootstrap server's consolidated delta —
    // "fast playback" instead of replaying 2.5K raw events.
    replica_client.catch_up()?;
    let stats = replica_client.stats();
    println!(
        "replica-1 recovered via bootstrap: {} consolidated delta(s), {} relay windows total",
        stats.deltas, stats.windows_from_relay
    );
    assert_eq!(stats.deltas, 1);

    // Replica now agrees with the primary on a spot-checked row.
    let primary_row = primary.get("member_profile", &RowKey::single("m100"))?.unwrap();
    let replica_row = replica
        .db
        .get("member_profile", &RowKey::single("m100"))?
        .unwrap();
    assert_eq!(primary_row.value, replica_row.value);
    println!("replica-1 row m100 matches primary after fast playback");

    println!("\nread_replica OK");
    Ok(())
}
