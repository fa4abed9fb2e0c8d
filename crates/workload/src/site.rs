//! Site-scale population synthesis: an LDBC-SNB-shaped social graph and
//! the closed-loop query mix that drives the whole platform through it.
//!
//! The LDBC Social Network Benchmark (PAPERS.md, arXiv 2001.02299) is the
//! template: a member population whose connectivity is heavily skewed
//! (Zipfian follower counts — a few companies/profiles attract most of the
//! edges), read traffic concentrated on hot profiles, and write traffic
//! with power-law skew (a minority of members generate most follows and
//! activity). [`SiteGraph`] generates that population deterministically
//! from one seed; [`SiteWorkload`] turns it into per-driver operation
//! streams for the closed-loop `li_bench::site` harness.
//!
//! # Determinism contract
//!
//! Everything here is a pure function of `(config, seed)`:
//!
//! * [`SiteGraph::generate`] derives one RNG per member via
//!   [`split_seed`], so the graph is identical run to run *and*
//!   independent of generation order.
//! * [`SiteWorkload::ops_for_driver`] derives one RNG per `(seed,
//!   driver)` pair — concurrent drivers never share a cursor, so adding
//!   or removing drivers cannot skew another driver's mix (the shared-RNG
//!   ratio-skew bug the regression tests in `driver.rs` pin down).

use rand::{Rng, SeedableRng};

use crate::datasets::PymkRecord;
use crate::zipf::{zipf_size, Zipfian};

/// Derives an independent stream seed from `(seed, stream)` via one
/// splitmix64 round — the standard way to split one run seed into many
/// decorrelated per-member / per-driver RNG streams.
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shape parameters of a generated site population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteGraphConfig {
    /// Member population size.
    pub members: u64,
    /// Company population size (follow targets).
    pub companies: u64,
    /// Cap on one member's initial follow-list length.
    pub max_follows: usize,
    /// PYMK recommendations per member.
    pub recs_per_member: usize,
    /// The population seed (profiles, edges, and PYMK scores all derive
    /// from it).
    pub seed: u64,
}

impl SiteGraphConfig {
    /// A small, fast population for smoke tests.
    pub fn smoke(members: u64, seed: u64) -> Self {
        SiteGraphConfig {
            members,
            companies: (members / 10).max(4),
            max_follows: 16,
            recs_per_member: 5,
            seed,
        }
    }
}

/// Vocabulary for profile text (deterministic, small — enough token
/// diversity that the search index has real work to do).
const PROFILE_WORDS: &[&str] = &[
    "engineer", "manager", "designer", "scientist", "analyst", "recruiter",
    "distributed", "systems", "storage", "streams", "search", "graph",
    "learning", "product", "sales", "enterprise", "mobile", "security",
];

/// The generated population: per-member profile text, deduplicated
/// member→company follow edges with Zipfian company popularity, and a
/// PYMK recommendation list per member.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteGraph {
    config: SiteGraphConfig,
    /// Per member: followed company ids, sorted and deduplicated.
    follows: Vec<Vec<u64>>,
    /// Per member: profile text.
    profiles: Vec<String>,
    /// Per member: the PYMK record.
    pymk: Vec<PymkRecord>,
}

/// One contiguous batch of generated members: the unit the streaming
/// loader moves between the generator thread and the platform-seeding
/// loader. Row `i` of every vector describes member `first_member + i`.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteChunk {
    /// Id of the first member in this chunk.
    pub first_member: u64,
    /// Per member: followed company ids, sorted and deduplicated.
    pub follows: Vec<Vec<u64>>,
    /// Per member: profile text.
    pub profiles: Vec<String>,
    /// Per member: the PYMK record.
    pub pymk: Vec<PymkRecord>,
}

impl SiteChunk {
    /// Members in this chunk.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when the chunk holds no members.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Iterates `(member_id, follows, profile, pymk)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (u64, &Vec<u64>, &str, &PymkRecord)> {
        (0..self.len()).map(move |i| {
            (
                self.first_member + i as u64,
                &self.follows[i],
                self.profiles[i].as_str(),
                &self.pymk[i],
            )
        })
    }
}

/// Streaming population generator: yields the same members as
/// [`SiteGraph::generate`] — byte for byte, in member order — but in
/// bounded [`SiteChunk`]s produced on demand, so a million-member
/// population never has to be materialized before the first batch can be
/// loaded. Because each member derives its own RNG via [`split_seed`],
/// the chunking is invisible: any chunk size produces the identical
/// population (proptest-pinned in `tests/site_graph_props.rs`).
#[derive(Debug, Clone)]
pub struct SiteGraphChunks {
    config: SiteGraphConfig,
    degree_zipf: Zipfian,
    company_zipf: Zipfian,
    next_member: u64,
    chunk_members: usize,
}

impl SiteGraphChunks {
    /// A chunked generator over `config`'s population, `chunk_members`
    /// members per chunk (clamped to at least 1).
    pub fn new(config: &SiteGraphConfig, chunk_members: usize) -> Self {
        assert!(config.members > 0, "empty member population");
        assert!(config.companies > 0, "empty company population");
        SiteGraphChunks {
            config: config.clone(),
            degree_zipf: Zipfian::ycsb(config.members),
            company_zipf: Zipfian::ycsb(config.companies),
            next_member: 0,
            chunk_members: chunk_members.max(1),
        }
    }

    /// Total chunks this generator will yield.
    pub fn chunk_count(&self) -> usize {
        (self.config.members as usize).div_ceil(self.chunk_members)
    }

    /// Generates one member. Pure function of `(config, member)`.
    fn generate_member(&self, member: u64) -> (Vec<u64>, String, PymkRecord) {
        let config = &self.config;
        let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(config.seed, member));
        // Degree: a Zipf-distributed list size (power-law out-degree),
        // capped by the company space.
        let cap = config.max_follows.min(config.companies as usize);
        let degree = zipf_size(&self.degree_zipf, &mut rng, cap);
        // Targets: Zipfian company popularity — hot companies collect
        // follower lists orders of magnitude longer than the tail.
        let mut list = std::collections::BTreeSet::new();
        let mut attempts = 0;
        while list.len() < degree && attempts < degree * 8 {
            list.insert(self.company_zipf.sample(&mut rng));
            attempts += 1;
        }
        let follows: Vec<u64> = list.into_iter().collect();

        let words: Vec<&str> = (0..4)
            .map(|_| PROFILE_WORDS[rng.random_range(0..PROFILE_WORDS.len() as u64) as usize])
            .collect();
        let profile = format!("member {member} {}", words.join(" "));

        let mut recommendations: Vec<(u64, f32)> = (0..config.recs_per_member)
            .map(|_| (rng.random_range(0..config.members), rng.random::<f32>()))
            .collect();
        recommendations
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        (
            follows,
            profile,
            PymkRecord {
                member,
                recommendations,
            },
        )
    }
}

impl Iterator for SiteGraphChunks {
    type Item = SiteChunk;

    fn next(&mut self) -> Option<SiteChunk> {
        if self.next_member >= self.config.members {
            return None;
        }
        let first_member = self.next_member;
        let end = (first_member + self.chunk_members as u64).min(self.config.members);
        let count = (end - first_member) as usize;
        let mut chunk = SiteChunk {
            first_member,
            follows: Vec::with_capacity(count),
            profiles: Vec::with_capacity(count),
            pymk: Vec::with_capacity(count),
        };
        for member in first_member..end {
            let (follows, profile, pymk) = self.generate_member(member);
            chunk.follows.push(follows);
            chunk.profiles.push(profile);
            chunk.pymk.push(pymk);
        }
        self.next_member = end;
        Some(chunk)
    }
}

impl SiteGraph {
    /// Generates the population. Pure function of `config` (including its
    /// seed): one RNG per member, derived via [`split_seed`]. Implemented
    /// over the chunked generator, so the bulk and streaming paths cannot
    /// drift apart.
    pub fn generate(config: &SiteGraphConfig) -> SiteGraph {
        Self::from_chunks(
            config,
            SiteGraphChunks::new(config, config.members.max(1) as usize),
        )
    }

    /// Assembles a graph from generated chunks (they must arrive in member
    /// order and cover the whole population — the streaming loader's
    /// accumulation path).
    pub fn from_chunks(
        config: &SiteGraphConfig,
        chunks: impl IntoIterator<Item = SiteChunk>,
    ) -> SiteGraph {
        let mut follows = Vec::with_capacity(config.members as usize);
        let mut profiles = Vec::with_capacity(config.members as usize);
        let mut pymk = Vec::with_capacity(config.members as usize);
        for chunk in chunks {
            assert_eq!(
                chunk.first_member,
                follows.len() as u64,
                "chunks must arrive in member order, gap-free"
            );
            follows.extend(chunk.follows);
            profiles.extend(chunk.profiles);
            pymk.extend(chunk.pymk);
        }
        assert_eq!(
            follows.len() as u64,
            config.members,
            "chunks must cover the whole population"
        );
        SiteGraph {
            config: config.clone(),
            follows,
            profiles,
            pymk,
        }
    }

    /// The config this graph was generated from.
    pub fn config(&self) -> &SiteGraphConfig {
        &self.config
    }

    /// Member population size.
    pub fn member_count(&self) -> u64 {
        self.config.members
    }

    /// Company population size.
    pub fn company_count(&self) -> u64 {
        self.config.companies
    }

    /// The companies `member` initially follows (sorted, deduplicated).
    pub fn follows_of(&self, member: u64) -> &[u64] {
        &self.follows[member as usize]
    }

    /// The profile text of `member`.
    pub fn profile_of(&self, member: u64) -> &str {
        &self.profiles[member as usize]
    }

    /// The PYMK record of `member`.
    pub fn pymk_of(&self, member: u64) -> &PymkRecord {
        &self.pymk[member as usize]
    }

    /// Total follow edges.
    pub fn edge_count(&self) -> usize {
        self.follows.iter().map(Vec::len).sum()
    }

    /// Per-company follower counts (index = company id).
    pub fn follower_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.companies as usize];
        for list in &self.follows {
            for &company in list {
                counts[company as usize] += 1;
            }
        }
        counts
    }

    /// Structural self-consistency: every followed company id is in range,
    /// every list is sorted and duplicate-free, and every member has a
    /// profile and a PYMK record whose recommendations stay in the member
    /// id space.
    pub fn verify_consistency(&self) -> Result<(), String> {
        if self.follows.len() != self.config.members as usize
            || self.profiles.len() != self.config.members as usize
            || self.pymk.len() != self.config.members as usize
        {
            return Err("per-member vectors disagree with member count".into());
        }
        for (member, list) in self.follows.iter().enumerate() {
            for pair in list.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!(
                        "member {member}: follow list unsorted or duplicated at {pair:?}"
                    ));
                }
            }
            if let Some(&company) = list.last() {
                if company >= self.config.companies {
                    return Err(format!(
                        "member {member}: dangling company id {company}"
                    ));
                }
            }
        }
        for record in &self.pymk {
            if record.recommendations.len() != self.config.recs_per_member {
                return Err(format!(
                    "member {}: PYMK list has {} recs, want {}",
                    record.member,
                    record.recommendations.len(),
                    self.config.recs_per_member
                ));
            }
            if record.recommendations.iter().any(|&(id, _)| id >= self.config.members) {
                return Err(format!("member {}: dangling PYMK member id", record.member));
            }
        }
        Ok(())
    }
}

/// The closed-loop traffic mix over the four serving paths. Fractions are
/// normalized at construction; the defaults follow the paper's
/// read-dominated site profile.
#[derive(Debug, Clone, Copy)]
pub struct SiteMix {
    /// Profile document reads (Espresso).
    pub profile_reads: f64,
    /// PYMK lookups (Voldemort read-only store).
    pub pymk_reads: f64,
    /// Follow-edge writes (primary sqlstore → Databus → caches).
    pub follow_writes: f64,
    /// Activity events (Kafka).
    pub activity_events: f64,
}

impl SiteMix {
    /// The default site profile: read-heavy with a visible write stream.
    pub fn site_default() -> Self {
        SiteMix {
            profile_reads: 0.50,
            pymk_reads: 0.20,
            follow_writes: 0.10,
            activity_events: 0.20,
        }
    }

    fn normalized(&self) -> [f64; 4] {
        let total =
            self.profile_reads + self.pymk_reads + self.follow_writes + self.activity_events;
        assert!(total > 0.0, "mix must have positive mass");
        [
            self.profile_reads / total,
            self.pymk_reads / total,
            self.follow_writes / total,
            self.activity_events / total,
        ]
    }
}

/// One operation against the site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteOp {
    /// Read a member's profile document (Espresso).
    ProfileRead(u64),
    /// Look up a member's PYMK recommendations (Voldemort RO).
    PymkRead(u64),
    /// `member` follows `company` (primary store write).
    Follow {
        /// Acting member.
        member: u64,
        /// Followed company.
        company: u64,
    },
    /// An activity event emitted by `member` (Kafka).
    Activity {
        /// Acting member.
        member: u64,
        /// Event payload text.
        event: String,
    },
}

impl SiteOp {
    /// The serving tier this op exercises (histogram/counter key).
    pub fn tier(&self) -> &'static str {
        match self {
            SiteOp::ProfileRead(_) => "profile_read",
            SiteOp::PymkRead(_) => "pymk_read",
            SiteOp::Follow { .. } => "follow_write",
            SiteOp::Activity { .. } => "activity",
        }
    }
}

/// The per-driver operation generator: hot-profile read skew, power-law
/// write skew, Zipfian follow targets.
#[derive(Debug, Clone)]
pub struct SiteWorkload {
    mix: [f64; 4],
    /// Read skew: hot profiles draw most of the read traffic.
    hot_members: Zipfian,
    /// Write skew: a flatter power law — active members write most.
    active_members: Zipfian,
    /// Follow-target skew (hot companies).
    companies: Zipfian,
    members: u64,
}

impl SiteWorkload {
    /// Builds the workload over a population of `members` × `companies`.
    pub fn new(members: u64, companies: u64, mix: SiteMix) -> Self {
        SiteWorkload {
            mix: mix.normalized(),
            hot_members: Zipfian::ycsb(members),
            active_members: Zipfian::new(members, 0.7),
            companies: Zipfian::ycsb(companies),
            members,
        }
    }

    /// Draws the next operation from `rng`.
    pub fn next_op(&self, rng: &mut impl Rng) -> SiteOp {
        let pick: f64 = rng.random();
        if pick < self.mix[0] {
            SiteOp::ProfileRead(self.hot_members.sample(rng))
        } else if pick < self.mix[0] + self.mix[1] {
            SiteOp::PymkRead(self.hot_members.sample(rng))
        } else if pick < self.mix[0] + self.mix[1] + self.mix[2] {
            SiteOp::Follow {
                member: self.active_members.sample(rng),
                company: self.companies.sample(rng),
            }
        } else {
            let member = self.active_members.sample(rng);
            let page = rng.random_range(0..64u64);
            SiteOp::Activity {
                member,
                event: format!("event=page_view member={member} page=/feed/{page}"),
            }
        }
    }

    /// The deterministic op stream of one driver: an independent RNG per
    /// `(seed, driver)` via [`split_seed`], so concurrent drivers cannot
    /// skew each other's mix and any driver's stream replays exactly.
    pub fn ops_for_driver(&self, seed: u64, driver: u64, count: usize) -> Vec<SiteOp> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(seed, driver));
        (0..count).map(|_| self.next_op(&mut rng)).collect()
    }

    /// Member population size.
    pub fn member_count(&self) -> u64 {
        self.members
    }
}

/// Folds driver op streams into the expected downstream follow state:
/// member → set of companies that must each appear **exactly once** in the
/// member's cached follow list after the pipeline drains (the write-
/// conservation gate's oracle). `initial` contributes each member's
/// seeded edges.
pub fn expected_follow_sets(
    initial: &SiteGraph,
    streams: &[Vec<SiteOp>],
) -> std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> {
    let mut expected: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    for stream in streams {
        for op in stream {
            if let SiteOp::Follow { member, company } = op {
                expected
                    .entry(*member)
                    .or_insert_with(|| {
                        initial.follows_of(*member).iter().copied().collect()
                    })
                    .insert(*company);
            }
        }
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        let config = SiteGraphConfig::smoke(300, 7);
        let a = SiteGraph::generate(&config);
        let b = SiteGraph::generate(&config);
        assert_eq!(a, b);
        let c = SiteGraph::generate(&SiteGraphConfig::smoke(300, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn chunked_generation_matches_bulk_at_any_chunk_size() {
        let config = SiteGraphConfig::smoke(317, 11);
        let bulk = SiteGraph::generate(&config);
        for chunk_members in [1usize, 2, 7, 64, 317, 1000] {
            let chunks = SiteGraphChunks::new(&config, chunk_members);
            let streamed = SiteGraph::from_chunks(&config, chunks);
            assert_eq!(bulk, streamed, "chunk size {chunk_members} diverged");
        }
    }

    #[test]
    fn chunk_rows_cover_the_population_in_order() {
        let config = SiteGraphConfig::smoke(100, 4);
        let mut seen = 0u64;
        let mut total_chunks = 0usize;
        let chunks = SiteGraphChunks::new(&config, 13);
        assert_eq!(chunks.chunk_count(), 8);
        for chunk in chunks {
            assert!(chunk.len() <= 13 && !chunk.is_empty());
            for (member, follows, profile, pymk) in chunk.rows() {
                assert_eq!(member, seen);
                assert_eq!(pymk.member, member);
                assert!(profile.starts_with(&format!("member {member} ")));
                assert!(follows.windows(2).all(|w| w[0] < w[1]));
                seen += 1;
            }
            total_chunks += 1;
        }
        assert_eq!(seen, config.members);
        assert_eq!(total_chunks, 8);
    }

    #[test]
    fn graph_is_self_consistent() {
        let graph = SiteGraph::generate(&SiteGraphConfig::smoke(500, 3));
        graph.verify_consistency().unwrap();
        assert!(graph.edge_count() > 0);
    }

    #[test]
    fn follower_counts_are_zipf_skewed() {
        let graph = SiteGraph::generate(&SiteGraphConfig {
            members: 2000,
            companies: 200,
            max_follows: 24,
            recs_per_member: 3,
            seed: 5,
        });
        let mut counts = graph.follower_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = counts.iter().sum();
        let head: usize = counts.iter().take(counts.len() / 10).sum();
        assert!(
            head as f64 > total as f64 * 0.4,
            "top-10% companies hold {head}/{total} edges — not Zipf-shaped"
        );
    }

    #[test]
    fn mix_fractions_hold_per_driver() {
        let workload = SiteWorkload::new(1000, 100, SiteMix::site_default());
        for driver in 0..4u64 {
            let ops = workload.ops_for_driver(9, driver, 4000);
            let reads = ops
                .iter()
                .filter(|o| matches!(o, SiteOp::ProfileRead(_)))
                .count();
            let ratio = reads as f64 / ops.len() as f64;
            assert!(
                (0.45..=0.55).contains(&ratio),
                "driver {driver}: profile-read ratio {ratio}"
            );
        }
    }

    #[test]
    fn driver_streams_are_independent_and_deterministic() {
        let workload = SiteWorkload::new(500, 50, SiteMix::site_default());
        let a = workload.ops_for_driver(1, 0, 200);
        assert_eq!(a, workload.ops_for_driver(1, 0, 200));
        assert_ne!(a, workload.ops_for_driver(1, 1, 200));
        assert_ne!(a, workload.ops_for_driver(2, 0, 200));
    }

    #[test]
    fn expected_follow_sets_union_initial_and_ops() {
        let graph = SiteGraph::generate(&SiteGraphConfig::smoke(50, 1));
        let streams = vec![
            vec![
                SiteOp::Follow {
                    member: 3,
                    company: 1,
                },
                SiteOp::ProfileRead(3),
            ],
            vec![SiteOp::Follow {
                member: 3,
                company: 1,
            }],
        ];
        let expected = expected_follow_sets(&graph, &streams);
        let set = &expected[&3];
        assert!(set.contains(&1));
        for company in graph.follows_of(3) {
            assert!(set.contains(company));
        }
        // Members with no follow ops are absent (their seeded state is
        // checked via the graph directly).
        assert!(!expected.contains_key(&0) || !graph.follows_of(0).is_empty());
    }

    #[test]
    fn split_seed_decorrelates_streams() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..1000 {
            assert!(seen.insert(split_seed(42, stream)));
        }
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
    }
}
