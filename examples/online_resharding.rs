//! Online resharding under live traffic (claim C-25).
//!
//! The paper's serving systems assume static partition maps; this run
//! moves partitions *while the closed-loop site workload hammers every
//! tier*: two Voldemort partitions and one Espresso profile partition
//! migrate off node 0 mid-load through the phased coordinator —
//! snapshot copy → delta catch-up → dual-write + shadow-read
//! verification → atomic cutover flip — and every SLO/conservation
//! gate must stay green: reads never block, acked writes are never
//! lost, and each started migration cuts over exactly once with zero
//! shadow-verification refusals.
//!
//! Run with: `cargo run --release --example online_resharding`

use li_bench::site::{run, RunOptions};
use linkedin_data_infra::{SiteBench, SiteBenchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SiteBenchConfig::smoke(1500, 3, 400, 42);
    let options = RunOptions {
        migrate_partitions: 2,
        ..RunOptions::smoke()
    };

    println!(
        "preparing: {} members, {} drivers x {} ops, {} Voldemort partition moves + 1 Espresso move in flight",
        config.graph.members, config.drivers, config.ops_per_driver, options.migrate_partitions
    );
    let bench = SiteBench::prepare(config)?;
    let report = run(bench, &options)?;

    println!("\n{}", report.summary());

    println!("migration phases (cluster-lifetime counters):");
    for name in [
        "migration.snapshot_items",
        "migration.delta_items",
        "migration.delta_rounds",
        "migration.shadow_reads",
        "migration.shadow_mismatch",
        "migration.cutover_flips",
        "migration.cutover_refusals",
    ] {
        println!(
            "  {name:<28} {}",
            report.snapshot.counter(name).unwrap_or(0)
        );
    }

    if !report.all_gates_pass() {
        return Err("a gate failed with migration in flight".into());
    }
    println!("\nall gates green with 3 live partition moves mid-load");
    Ok(())
}
