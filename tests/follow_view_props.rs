//! Property tests on the Company Follow materialised view: the two
//! Voldemort list stores, maintained from packed load-time list rows plus
//! one append-if-absent per follow-edge row, must equal the set-union of
//! the loaded lists and the follow ops — every id exactly once — however
//! the stream reaches the cacher:
//!
//! * live, window by window, with duplicate follows and re-follows of
//!   loaded edges in the op sequence;
//! * with a suffix of the stream delivered a second time;
//! * as a bootstrap snapshot (a fresh consumer, after the relay evicted
//!   its head), which carries list rows and edge rows in `(table, key)`
//!   order rather than commit order;
//! * as a consolidated delta (a consumer that fell behind mid-load),
//!   which carries edge rows *before* the member list rows they extend.
//!
//! * with a Voldemort replica down for part of the stream (N=2, R=W=1: the
//!   writes it misses park no hint), then back: nothing is lost, a key's
//!   replicas agree again at its next append, and a replayed stream leaves
//!   every replica equal to the model.
//!
//! The reference is the in-test set model. Each case runs twice — once
//! with the live consumer caught up inline, once fed from push-dispatch
//! threads while the follows commit — and both runs must issue the same
//! number of replica puts per Voldemort node in every one of the three
//! consumers (one append per edge event, no coalescing). The replica-down
//! cases run once, on the inline path.
//!
//! Every view's stores run on log-structured engines the test holds, and
//! wherever a view is checked each replica's log must replay to what the
//! replica serves — appends logged as suffix records, hint replay, read
//! repair and the sibling-union put included.
//!
//! Case count: 24 (CI runs 64 with `PROPTEST_CASES=64`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use li_commons::metrics::MetricsRegistry;
use li_commons::ring::{HashRing, NodeId};
use li_commons::sim::{RealClock, SimNetwork};
use li_databus::{BootstrapServer, DatabusClient, LogShippingAdapter, Relay, StreamDispatcher};
use li_sqlstore::{Database, DbError, RowKey};
use bytes::Bytes;
use li_commons::clock::Versioned;
use li_voldemort::engine::{BdbLikeEngine, StorageEngine};
use li_voldemort::{StoreDef, VoldemortCluster};
use linkedin_data_infra::DataPlatform;
use linkedin_data_infra::consumers::{
    company_row_key, decode_ids, encode_ids, follow_edge_row, member_row_key, union_ids,
    CompanyFollowCacher, FOLLOW_EDGES_TABLE,
};
use proptest::prelude::*;

const MEMBERS: u64 = 12;
const COMPANIES: u64 = 6;
const NODES: u16 = 3;

type Lists = BTreeMap<u64, BTreeSet<u64>>;

/// One consumer of the follow stream: its own Voldemort cluster and the
/// Databus client that keeps the two list stores there.
struct View {
    cluster: Arc<VoldemortCluster>,
    registry: Arc<MetricsRegistry>,
    client: Arc<DatabusClient>,
    /// The engine of each store on each node.
    engines: Vec<Arc<BdbLikeEngine>>,
}

impl View {
    fn new(relay: &Arc<Relay>, bootstrap: &Arc<BootstrapServer>) -> View {
        let registry = MetricsRegistry::new();
        let nodes: Vec<NodeId> = (0..NODES).map(NodeId).collect();
        let cluster = VoldemortCluster::with_metrics(
            HashRing::balanced(8, &nodes).unwrap(),
            SimNetwork::reliable(),
            Arc::new(RealClock::new()),
            &registry,
        )
        .unwrap();
        let mut engines = Vec::new();
        for store in ["member-follows", "company-followers"] {
            cluster.add_store(StoreDef::read_write(store)).unwrap();
            // The same engine kind, but one the test can ask for its log.
            for id in &nodes {
                let node = cluster.node(*id).unwrap();
                let engine = Arc::new(BdbLikeEngine::new());
                node.remove_store(store).unwrap();
                node.add_store(store, engine.clone()).unwrap();
                engines.push(engine);
            }
        }
        let cacher = CompanyFollowCacher::new(
            cluster.client("member-follows").unwrap(),
            cluster.client("company-followers").unwrap(),
        );
        let client = DatabusClient::new("follow-cacher", relay.clone(), Some(bootstrap.clone()), Arc::new(cacher));
        View {
            cluster,
            registry,
            client: Arc::new(client.with_batch(1)),
            engines,
        }
    }

    /// A crash of any replica now loses nothing: its log replays to exactly
    /// what it serves.
    fn check_logs(&self) -> Result<(), String> {
        for engine in &self.engines {
            let recovered = BdbLikeEngine::recover(&engine.log_bytes());
            if recovered.entries() != engine.entries() {
                return Err(format!(
                    "a log replays to {:?}, its engine serves {:?}",
                    recovered.entries(),
                    engine.entries()
                ));
            }
        }
        Ok(())
    }

    /// The cached list under every key of `want`, each id exactly once.
    fn check(&self, store: &str, key_of: fn(u64) -> RowKey, want: &Lists) -> Result<(), String> {
        let reader = self.cluster.client(store).unwrap();
        for (entity, expected) in want {
            let key = key_of(*entity).to_string();
            let versions = reader.get(key.as_bytes()).map_err(|e| e.to_string())?;
            one_list_equal_to(&versions, expected).map_err(|e| format!("{store} {key}: {e}"))?;
        }
        Ok(())
    }

    /// [`Self::check`], asked of each replica's engine instead of a client.
    fn check_replicas(&self, store: &str, key_of: fn(u64) -> RowKey, want: &Lists) -> Result<(), String> {
        for (entity, expected) in want {
            let key = key_of(*entity).to_string();
            for node in self.cluster.ring().preference_list(key.as_bytes(), 2).unwrap() {
                let versions = self.cluster.node(node).unwrap().get(store, key.as_bytes()).unwrap();
                one_list_equal_to(&versions, expected)
                    .map_err(|e| format!("{store} {key} on {node}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Brings `node` back: the network link, and the detector's verdict as
    /// its probe thread would restore it.
    fn restart(&self, node: NodeId) {
        self.cluster.network().restart(node);
        self.cluster.detector().probe_result(node, true);
        self.cluster.deliver_hints();
    }

    fn check_both(&self, follows: &Lists, followers: &Lists) -> Result<(), String> {
        self.check("member-follows", member_row_key, follows)?;
        self.check("company-followers", company_row_key, followers)?;
        self.check_logs()
    }

    fn puts_per_node(&self) -> Vec<u64> {
        let snapshot = self.registry.snapshot();
        (0..NODES)
            .map(|n| snapshot.counter(&format!("voldemort.node{n}.put.count")).unwrap_or(0))
            .collect()
    }
}

fn one_list_equal_to(versions: &[Versioned<Bytes>], expected: &BTreeSet<u64>) -> Result<(), String> {
    let [version] = versions else {
        return Err(format!("{} versions", versions.len()));
    };
    let got = decode_ids(&version.value)?;
    let distinct: BTreeSet<u64> = got.iter().copied().collect();
    if distinct.len() != got.len() || distinct != *expected {
        return Err(format!("cached {got:?}, model {expected:?}"));
    }
    Ok(())
}

/// The primary with the three follow tables, its relay and a bootstrap
/// server behind it.
fn stream(relay_bytes: usize) -> (Database, Arc<Relay>, Arc<BootstrapServer>) {
    let primary = Database::with_clock("primary", Arc::new(RealClock::new()));
    for table in ["member_follows", "company_followers", FOLLOW_EDGES_TABLE] {
        primary.create_table(table).unwrap();
    }
    let relay = Arc::new(Relay::new("primary", relay_bytes));
    relay.set_eviction_floor(0);
    LogShippingAdapter::attach_with_backlog(&primary, relay.clone(), 0).unwrap();
    (primary, relay, Arc::new(BootstrapServer::new()))
}

/// What `DataPlatform::follow_company` does to the primary.
fn follow(primary: &Database, member: u64, company: u64) -> Result<(), String> {
    let (key, value) = follow_edge_row(member, company);
    match primary.put_if_etag(FOLLOW_EDGES_TABLE, key, 0, value, 1) {
        Ok(_) | Err(DbError::EtagMismatch { .. }) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs one case with the live consumer fed inline or by the push
/// dispatcher; the replica puts per node of the live, fresh and
/// fallen-behind consumers.
fn run_case(
    push_dispatch: bool,
    loaded: &BTreeSet<(u64, u64)>,
    ops: &[(u64, u64)],
    pump_every: usize,
    redeliver_from: proptest::sample::Index,
) -> Result<Vec<Vec<u64>>, String> {
    // A one-byte relay keeps only what the bootstrap has not linked yet:
    // every pump below evicts the consumed head, so a late consumer must
    // come through the bootstrap server.
    let (primary, relay, bootstrap) = stream(1);
    let pump_bootstrap = || {
        bootstrap.catch_up_from(&relay).unwrap();
        bootstrap.apply_log();
    };

    // The model, and the load: company lists commit first, member lists
    // second, so the consumer that stops after one window later receives
    // the member lists in a delta *behind* the edges that extend them.
    let (mut follows, mut followers) = (Lists::new(), Lists::new());
    for &(member, company) in loaded {
        follows.entry(member).or_default().insert(company);
        followers.entry(company).or_default().insert(member);
    }
    let pack = |ids: &BTreeSet<u64>| encode_ids(&ids.iter().copied().collect::<Vec<_>>());
    let mut txn = primary.begin();
    for (company, members) in &followers {
        txn.put("company_followers", company_row_key(*company), pack(members), 1);
    }
    primary.commit(txn).unwrap();
    let mut txn = primary.begin();
    for (member, companies) in &follows {
        txn.put("member_follows", member_row_key(*member), pack(companies), 1);
    }
    primary.commit(txn).unwrap();

    let live = View::new(&relay, &bootstrap);
    let behind = View::new(&relay, &bootstrap);
    assert_eq!(behind.client.poll_once().unwrap(), 1, "the company lists only");
    live.client.catch_up().unwrap();
    pump_bootstrap();

    let dispatcher =
        push_dispatch.then(|| StreamDispatcher::start(relay.clone(), vec![live.client.clone()]));
    for (i, &(member, company)) in ops.iter().enumerate() {
        follow(&primary, member, company)?;
        follows.entry(member).or_default().insert(company);
        followers.entry(company).or_default().insert(member);
        if (i + 1) % pump_every == 0 {
            pump_bootstrap();
            if dispatcher.is_none() {
                live.client.catch_up().map_err(|e| e.to_string())?;
            }
        }
    }
    pump_bootstrap();
    if let Some(dispatcher) = dispatcher {
        let stats = dispatcher.stop();
        if stats.errors > 0 {
            return Err(format!("{} dispatch errors", stats.errors));
        }
    }
    live.client.catch_up().map_err(|e| e.to_string())?;
    live.check_both(&follows, &followers).map_err(|e| format!("live: {e}"))?;
    let live_puts = live.puts_per_node();

    // A suffix of the stream (or all of it, as a snapshot, from 0) again.
    let last = primary.last_scn();
    live.client.set_checkpoint(redeliver_from.index(last as usize + 1) as u64);
    live.client.catch_up().map_err(|e| e.to_string())?;
    live.check_both(&follows, &followers).map_err(|e| format!("redelivered: {e}"))?;

    let fresh = View::new(&relay, &bootstrap);
    fresh.client.catch_up().map_err(|e| e.to_string())?;
    fresh.check_both(&follows, &followers).map_err(|e| format!("fresh: {e}"))?;
    behind.client.catch_up().map_err(|e| e.to_string())?;
    behind.check_both(&follows, &followers).map_err(|e| format!("behind: {e}"))?;
    if relay.oldest_scn() > 2 {
        // The head is gone, so neither was served window by window.
        assert_eq!(fresh.client.stats().snapshots, 1);
        assert_eq!(behind.client.stats().deltas, 1);
    }
    for view in [&live, &fresh, &behind] {
        assert_eq!(view.client.checkpoint(), last);
    }
    Ok(vec![live_puts, fresh.puts_per_node(), behind.puts_per_node()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn both_views_equal_the_set_union_however_the_stream_arrives(
        loaded in proptest::collection::btree_set((0..MEMBERS, 0..COMPANIES), 1..24),
        ops in proptest::collection::vec((0..MEMBERS, 0..COMPANIES), 0..48),
        pump_every in 1usize..9,
        redeliver_from in any::<proptest::sample::Index>(),
    ) {
        let run = |push| run_case(push, &loaded, &ops, pump_every, redeliver_from);
        let inline = run(false).map_err(TestCaseError::fail)?;
        let pushed = run(true).map_err(TestCaseError::fail)?;
        prop_assert_eq!(inline, pushed, "replica puts per node differ between inline and push delivery");
    }
}

// The same view behind the assembled platform.

#[test]
fn duplicate_follow_assigns_no_new_scn() {
    let platform = DataPlatform::new(2, 1).unwrap();
    platform.follow_company(1, 100).unwrap();
    let scn = platform.primary.last_scn();
    platform.follow_company(1, 100).unwrap();
    assert_eq!(platform.primary.last_scn(), scn);
    platform.pump().unwrap();
    assert_eq!(platform.followers(100).unwrap(), vec![1]);
}

#[test]
fn follow_cost_does_not_grow_with_the_follower_list() {
    let platform = DataPlatform::new(2, 1).unwrap();
    // A loaded 50K-follower company, as the population loader packs it.
    let followers: Vec<u64> = (0..50_000).collect();
    platform
        .primary
        .put_one("company_followers", company_row_key(7), encode_ids(&followers), 1)
        .unwrap();
    platform.pump().unwrap();
    let etag = |p: &DataPlatform| {
        let row = p.primary.get("company_followers", &company_row_key(7)).unwrap();
        row.unwrap().etag
    };
    let (etag_before, buffered_before) = (etag(&platform), platform.relay.buffered_bytes());
    // Every replica's engine log, of both list stores.
    let logged = |p: &DataPlatform| -> i64 {
        let snapshot = p.metrics_snapshot();
        let names = snapshot.iter().map(|(name, _)| name);
        names
            .filter(|name| name.starts_with("voldemort.node") && name.ends_with(".log_bytes"))
            .filter_map(|name| snapshot.gauge(name))
            .sum()
    };

    platform.follow_company(50_000, 7).unwrap();
    let grew = platform.relay.buffered_bytes() - buffered_before;
    assert!(grew < 256, "one follow put {grew} B on the relay");
    assert_eq!(etag(&platform), etag_before, "the packed row is not rewritten");
    let logged_before = logged(&platform);
    assert!(logged_before > 2 * 400_000, "the loaded list, on two replicas");
    platform.pump().unwrap();
    // Two replicas of the 400 KB list take a suffix record each, two of the
    // member's new list a first write.
    let grew = logged(&platform) - logged_before;
    assert!((1..1024).contains(&grew), "one follow logged {grew} B");

    // Re-following a loaded edge commits an edge row but appends nothing.
    platform.follow_company(3, 7).unwrap();
    platform.pump().unwrap();
    let cached = platform.followers(7).unwrap();
    assert_eq!(cached.len(), 50_001);
    assert_eq!(cached.last(), Some(&50_000));
}

#[test]
fn a_torn_cached_list_is_an_error_not_a_shorter_list() {
    let platform = DataPlatform::new(2, 1).unwrap();
    let key = company_row_key(9).to_string();
    let store = platform.voldemort.client("company-followers").unwrap();
    store
        .put_initial(key.as_bytes(), Bytes::from_static(&[1, 0, 0, 0, 0, 0, 0, 0, 2]))
        .unwrap();
    let err = platform.followers(9).unwrap_err();
    assert!(err.0.contains("not a multiple of 8"), "{err}");
}

/// The counter-example to an append that trusts one replica's list:
/// follow 1, prefs[0] down, follow 2, prefs[0] back, follows 3, 4, 5.
#[test]
fn a_bounced_replica_heals_at_the_next_follow_of_its_key() {
    let (primary, relay, bootstrap) = stream(1 << 20);
    let view = View::new(&relay, &bootstrap);
    let key = company_row_key(7).to_string();
    let prefs = view.cluster.ring().preference_list(key.as_bytes(), 2).unwrap();
    let follow_and_pump = |member| {
        follow(&primary, member, 7).unwrap();
        view.client.catch_up().unwrap();
    };
    follow_and_pump(1);
    view.cluster.network().crash(prefs[0]);
    follow_and_pump(2);
    view.restart(prefs[0]);
    let healed = view.cluster.node(prefs[0]).unwrap().get("company-followers", key.as_bytes());
    assert_eq!(decode_ids(&healed.unwrap()[0].value).unwrap(), [1, 2], "the hint landed");
    for member in 3..=5 {
        follow_and_pump(member);
    }
    let followers = Lists::from([(7, (1..=5).collect())]);
    view.check_replicas("company-followers", company_row_key, &followers).unwrap();
    view.check("company-followers", company_row_key, &followers).unwrap();
    view.check_logs().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each op follows, after crashing a replica (when all are up) or
    /// restarting the one that is down.
    #[test]
    fn replicas_down_for_part_of_the_stream_lose_nothing(
        loaded in proptest::collection::btree_set((0..MEMBERS, 0..COMPANIES), 1..12),
        ops in proptest::collection::vec((0..MEMBERS, 0..COMPANIES, 0..NODES * 3), 1..48),
    ) {
        let (primary, relay, bootstrap) = stream(1 << 20);
        let (mut follows, mut followers) = (Lists::new(), Lists::new());
        let mut txn = primary.begin();
        for &(member, company) in &loaded {
            follows.entry(member).or_default().insert(company);
            followers.entry(company).or_default().insert(member);
        }
        let pack = |ids: &BTreeSet<u64>| encode_ids(&ids.iter().copied().collect::<Vec<_>>());
        for (company, members) in &followers {
            txn.put("company_followers", company_row_key(*company), pack(members), 1);
        }
        for (member, companies) in &follows {
            txn.put("member_follows", member_row_key(*member), pack(companies), 1);
        }
        primary.commit(txn).unwrap();

        let view = View::new(&relay, &bootstrap);
        let mut down: Option<NodeId> = None;
        for &(member, company, fault) in &ops {
            match (down, fault) {
                (None, node) if node < NODES => {
                    view.cluster.network().crash(NodeId(node));
                    down = Some(NodeId(node));
                }
                (Some(node), fault) if fault < NODES => {
                    view.restart(node);
                    down = None;
                }
                _ => {}
            }
            follow(&primary, member, company).map_err(TestCaseError::fail)?;
            follows.entry(member).or_default().insert(company);
            followers.entry(company).or_default().insert(member);
            view.client.catch_up().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        if let Some(node) = down {
            view.restart(node);
        }
        view.check_logs().map_err(TestCaseError::fail)?;

        // Nothing is lost: whatever the replicas hold between them unions
        // to the model. (A serving read at R=1 may still see one replica's
        // shorter list until that key is next written.)
        for (store, key_of, want) in [
            ("member-follows", member_row_key as fn(u64) -> RowKey, &follows),
            ("company-followers", company_row_key, &followers),
        ] {
            for (entity, expected) in want {
                let key = key_of(*entity).to_string();
                let mut held = Vec::new();
                for node in view.cluster.ring().preference_list(key.as_bytes(), 2).unwrap() {
                    held.extend(view.cluster.node(node).unwrap().get(store, key.as_bytes()).unwrap());
                }
                let union: BTreeSet<u64> = union_ids(&held).unwrap().into_iter().collect();
                prop_assert_eq!(&union, expected, "{} {}", store, key);
            }
        }

        // The stream again, from the start: every key is written once more
        // and every replica of it ends up holding exactly the model.
        bootstrap.catch_up_from(&relay).unwrap();
        bootstrap.apply_log();
        view.client.set_checkpoint(0);
        view.client.catch_up().map_err(|e| TestCaseError::fail(e.to_string()))?;
        view.check_replicas("member-follows", member_row_key, &follows).map_err(TestCaseError::fail)?;
        view.check_replicas("company-followers", company_row_key, &followers).map_err(TestCaseError::fail)?;
        view.check_logs().map_err(TestCaseError::fail)?;
    }
}
