//! Property tests on the site-bench population generator
//! (`li_workload::site`): the graph the closed-loop benchmark drives must
//! be structurally sound, statistically Zipf-shaped, and a pure function
//! of its seed — the benchmark's determinism and conservation gates all
//! sit on these properties.
//!
//! Case count defaults to 32; `PROPTEST_CASES` overrides it.

use li_workload::site::{SiteGraph, SiteGraphChunks, SiteGraphConfig, SiteMix, SiteOp, SiteWorkload};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SiteGraphConfig> {
    (50u64..400, 4u64..40, 2usize..24, 1usize..8, any::<u64>()).prop_map(
        |(members, companies, max_follows, recs, seed)| SiteGraphConfig {
            members,
            companies,
            max_follows,
            recs_per_member: recs,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Self-consistency for every shape and seed: no dangling member or
    /// company ids, follow lists sorted and deduplicated, every member
    /// carrying a full PYMK record.
    #[test]
    fn generated_graph_is_self_consistent(config in arb_config()) {
        let graph = SiteGraph::generate(&config);
        prop_assert!(graph.verify_consistency().is_ok(),
            "{:?}", graph.verify_consistency());
        // The degree cap holds.
        for member in 0..config.members {
            prop_assert!(graph.follows_of(member).len() <= config.max_follows);
        }
    }

    /// Seed determinism: the same config generates the identical graph;
    /// changing only the seed changes it.
    #[test]
    fn generation_is_a_pure_function_of_the_seed(config in arb_config()) {
        let a = SiteGraph::generate(&config);
        let b = SiteGraph::generate(&config);
        prop_assert_eq!(&a, &b);
        let mut reseeded = config.clone();
        reseeded.seed = config.seed.wrapping_add(1);
        let c = SiteGraph::generate(&reseeded);
        prop_assert_ne!(&a, &c);
    }

    /// Zipf shape within tolerance: with enough members for the statistics
    /// to settle, the most-followed decile of companies holds well more
    /// than its uniform share of edges (uniform would give it 10%; YCSB
    /// Zipf at theta 0.99 concentrates far harder). Checked loosely at
    /// > 35% so the property holds across seeds, not just lucky ones.
    #[test]
    fn follower_counts_are_zipf_shaped(seed in any::<u64>()) {
        let graph = SiteGraph::generate(&SiteGraphConfig {
            members: 1500,
            companies: 150,
            max_follows: 20,
            recs_per_member: 2,
            seed,
        });
        let mut counts = graph.follower_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        prop_assert!(total > 0);
        let head: usize = counts.iter().take(counts.len() / 10).sum();
        let share = head as f64 / total as f64;
        prop_assert!(share > 0.35,
            "top decile holds only {share:.2} of edges (uniform share would be 0.10)");
    }

    /// Streaming generator equivalence: chunked generation at *any* chunk
    /// size reassembles into exactly the bulk graph. This is the contract
    /// the pipelined `SiteBench::prepare` rides on — the population a
    /// million-member run streams in must be the same population the
    /// small-scale deterministic smoke materializes at once.
    #[test]
    fn chunked_generation_is_chunk_size_invariant(
        config in arb_config(),
        chunk_members in 1usize..500,
    ) {
        let bulk = SiteGraph::generate(&config);
        let chunks = SiteGraphChunks::new(&config, chunk_members);
        let mut yielded = 0u64;
        let mut collected = Vec::new();
        for chunk in chunks {
            prop_assert_eq!(chunk.first_member, yielded);
            prop_assert!(chunk.len() <= chunk_members);
            yielded += chunk.len() as u64;
            collected.push(chunk);
        }
        prop_assert_eq!(yielded, config.members);
        let streamed = SiteGraph::from_chunks(&config, collected);
        prop_assert_eq!(&bulk, &streamed);
    }

    /// Per-driver op streams: deterministic per (seed, driver), mutually
    /// decorrelated, and every generated op references the configured
    /// population (ids the platform actually seeded).
    #[test]
    fn driver_streams_are_deterministic_and_in_range(
        seed in any::<u64>(),
        drivers in 1u64..6,
    ) {
        let members = 300u64;
        let companies = 30u64;
        let workload = SiteWorkload::new(members, companies, SiteMix::site_default());
        let mut streams = Vec::new();
        for driver in 0..drivers {
            let ops = workload.ops_for_driver(seed, driver, 250);
            prop_assert_eq!(&ops, &workload.ops_for_driver(seed, driver, 250));
            for op in &ops {
                match op {
                    SiteOp::ProfileRead(m) | SiteOp::PymkRead(m) => {
                        prop_assert!(*m < members);
                    }
                    SiteOp::Follow { member, company } => {
                        prop_assert!(*member < members);
                        prop_assert!(*company < companies);
                    }
                    SiteOp::Activity { member, .. } => prop_assert!(*member < members),
                }
            }
            streams.push(ops);
        }
        if drivers > 1 {
            // Streams must be decorrelated, not copies of one stream.
            prop_assert_ne!(&streams[0], &streams[1]);
        }
    }
}
