//! Quickstart: the whole data infrastructure in thirty lines.
//!
//! Builds the Figure I.1 platform — primary DB, Databus, Voldemort cache,
//! search index, two Kafka clusters — and pushes one user action and one
//! activity event through every pipeline.
//!
//! Run with: `cargo run --example quickstart`

use linkedin_data_infra::DataPlatform;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 4 Voldemort nodes, 2 Kafka brokers per cluster.
    let platform = DataPlatform::new(4, 2)?;

    // A member follows two companies: one OLTP transaction on the primary.
    platform.follow_company(42, 1001)?;
    platform.follow_company(42, 1002)?;
    platform.follow_company(77, 1001)?;

    // A profile edit and some activity events.
    platform.update_profile(42, "staff engineer, distributed systems")?;
    platform.track("event=page_view member=42 page=/in/profile")?;
    platform.track("event=click member=77 page=/company/1001")?;

    // Run the asynchronous pipelines (Databus consumers, Kafka mirror...).
    platform.pump()?;

    // Derived systems now agree with the primary:
    println!("member 42 follows      : {:?}", platform.followed_companies(42)?);
    println!("company 1001 followers : {:?}", platform.followers(1001)?);
    println!(
        "search 'distributed'   : {:?}",
        platform.search_profiles("distributed")
    );

    // The activity events reached the live cluster...
    let mut online_events = 0;
    for partition in 0..8 {
        online_events += platform.activity_consumer(partition)?.poll()?.len();
    }
    println!("online activity events : {online_events}");

    // ...and the mirrored offline cluster's warehouse.
    let loaded = platform.force_warehouse_load()?;
    println!("warehouse rows loaded  : {loaded}");

    assert_eq!(platform.followed_companies(42)?, vec![1001, 1002]);
    assert_eq!(platform.followers(1001)?, vec![42, 77]);
    println!("\nquickstart OK");
    Ok(())
}
