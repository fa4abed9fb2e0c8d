//! Property tests on the streaming population loader: pipelined
//! `SiteBench::prepare` (generator thread + chunked loads) must build the
//! byte-identical platform state at any chunk size as it does from one
//! chunk holding the whole population, in both shard modes, and the
//! population it streams must be the one `SiteGraph::generate` builds in
//! one piece. The primary store's logical fingerprint pins the commit
//! stream (content and SCN of every seeded row; wall-clock timestamps
//! excluded, since two separately built platforms never share a clock),
//! and the Espresso router's request counter pins the fan-out accounting
//! the conservation fingerprint rides on — if either ever becomes a
//! function of chunk boundaries, same-seed benchmark runs at different
//! `chunk_members` would diverge. Espresso's half of the load runs on
//! the generator thread, so every Espresso node's document count and
//! people search's answers for words of the generated profiles are
//! pinned too, as is every member's record in the PYMK read-only store,
//! whose build maps each record as its chunk arrives.
//!
//! Every case builds four full platforms, so the case count stays small
//! (six; `PROPTEST_CASES` overrides it).

use li_workload::site::SiteGraph;
use linkedin_data_infra::commons::ring::NodeId;
use linkedin_data_infra::platform::{PROFILE_DB, PROFILE_TABLE};
use linkedin_data_infra::{DataPlatform, PlatformConfig, ShardMode, SiteBench, SiteBenchConfig};
use proptest::prelude::*;

fn small_config(members: u64, seed: u64, chunk_members: usize, mode: ShardMode) -> SiteBenchConfig {
    let mut config = SiteBenchConfig::smoke(members, 1, 0, seed);
    config.chunk_members = chunk_members;
    config.platform = PlatformConfig {
        voldemort_nodes: 2,
        kafka_brokers: 1,
        espresso_nodes: 2,
        espresso_partitions: 4,
        activity_partitions: 2,
        shard_mode: mode,
    };
    config
}

fn router_requests(bench: &SiteBench) -> u64 {
    bench
        .platform()
        .metrics_snapshot()
        .counter("espresso.router.requests")
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Prepare at any chunk size == prepare from a single chunk, in both
    /// shard modes: same primary commit stream (replay fingerprint), same
    /// per-document router accounting, same seeded graph.
    #[test]
    fn prepare_is_invariant_under_chunk_size(
        members in 40u64..120,
        seed in any::<u64>(),
        chunk_members in 1usize..96,
    ) {
        for mode in [ShardMode::Deterministic, ShardMode::Parallel] {
            let config = small_config(members, seed, chunk_members, mode);

            let streamed = SiteBench::prepare(config.clone()).unwrap();
            let expected_chunks = (members as usize).div_ceil(chunk_members);
            prop_assert_eq!(streamed.prepare_stats().chunks, expected_chunks);

            let single =
                SiteBench::prepare(small_config(members, seed, members as usize, mode)).unwrap();
            prop_assert_eq!(single.prepare_stats().chunks, 1);

            // The streamed population is the population generated whole.
            prop_assert_eq!(&**streamed.graph(), &SiteGraph::generate(&config.graph));
            prop_assert_eq!(streamed.graph(), single.graph());
            // The primary saw the identical transaction stream: the
            // logical fingerprint covers every committed row and the SCN
            // (etag) each landed at, and the commit counters pin the
            // transaction boundaries.
            prop_assert_eq!(
                streamed.platform().primary.logical_fingerprint(),
                single.platform().primary.logical_fingerprint(),
                "primary commit stream depends on chunk size (mode {:?}, chunk {})",
                mode,
                chunk_members
            );
            for counter in ["sqlstore.db.primary.commits", "sqlstore.db.primary.last_scn"] {
                let s = streamed.platform().metrics_snapshot();
                let b = single.platform().metrics_snapshot();
                prop_assert_eq!(
                    s.counter(counter).or_else(|| s.gauge(counter).map(|g| g as u64)),
                    b.counter(counter).or_else(|| b.gauge(counter).map(|g| g as u64)),
                    "{} depends on chunk size (mode {:?})",
                    counter,
                    mode
                );
            }
            // Router accounting is per-document, so batching profiles
            // into chunk-sized multi-puts must not change the counter the
            // conservation fingerprint carries.
            prop_assert_eq!(
                router_requests(&streamed),
                router_requests(&single),
                "espresso.router.requests depends on chunk size (mode {:?})",
                mode
            );
            // Espresso's half loads on the `site-gen` thread: every node,
            // master and slave, holds the same documents, and people
            // search finds the same members, whatever the chunk size.
            let (s, b) = (streamed.platform(), single.platform());
            for node in 0..config.platform.espresso_nodes {
                let docs = |platform: &DataPlatform| {
                    let node = platform.espresso.node(NodeId(node)).unwrap();
                    node.doc_count(PROFILE_DB, PROFILE_TABLE).unwrap()
                };
                prop_assert_eq!(
                    docs(s),
                    docs(b),
                    "Espresso node {} doc count depends on chunk size (mode {:?})",
                    node,
                    mode
                );
            }
            // The PYMK build maps each member's record as its chunk
            // arrives and reduces after the join: every stored record is
            // the same whatever the chunk size.
            for member in 0..members {
                let stored = s.pymk_recommendations(member).unwrap();
                prop_assert!(stored.is_some(), "member {} has no PYMK record", member);
                prop_assert_eq!(
                    stored,
                    b.pymk_recommendations(member).unwrap(),
                    "PYMK record of member {} depends on chunk size (mode {:?})",
                    member,
                    mode
                );
            }
            let graph = streamed.graph();
            let words: Vec<&str> = [0, members / 2, members - 1]
                .into_iter()
                .flat_map(|m| {
                    let text = graph.profile_of(m);
                    let mut words = text.split_whitespace();
                    [words.next(), text.split_whitespace().last()]
                })
                .flatten()
                .collect();
            for word in words {
                let found = s.search_profiles(word);
                prop_assert!(!found.is_empty(), "{:?} finds nothing (mode {:?})", word, mode);
                prop_assert_eq!(
                    found,
                    b.search_profiles(word),
                    "search for {:?} depends on chunk size (mode {:?})",
                    word,
                    mode
                );
            }
        }
    }
}
