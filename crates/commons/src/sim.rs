//! Deterministic in-process cluster harness.
//!
//! The paper's systems run on datacenter networks where "frequent transient
//! and short-term failures ... are very prevalent" (§II.A, citing
//! [FLP+10]). Reproducing quorum reads, hinted handoff, failover, and
//! bootstrap switchover requires injecting exactly those failures on
//! demand. This module provides:
//!
//! * [`Clock`] — a time source abstraction with a real implementation and a
//!   manually-advanced [`SimClock`], so retention policies, failure
//!   detectors, and SLA windows are testable without sleeping.
//! * [`SimNetwork`] — a link-state model between [`NodeId`]s: per-link
//!   latency, seeded probabilistic drops, explicit partitions, and downed
//!   nodes. Servers consult the network before serving a "remote" call, so
//!   every protocol sees the same failure surface it would on a real
//!   network, but deterministically.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::ring::NodeId;

/// A monotonic time source in nanoseconds.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds since an arbitrary epoch.
    fn now_nanos(&self) -> u64;

    /// Current time as a [`Duration`] since the epoch.
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_nanos())
    }
}

/// Wall-clock time (monotonic) for production-like runs.
#[derive(Debug)]
pub struct RealClock {
    start: std::time::Instant,
}

impl RealClock {
    /// Creates a clock anchored at construction time.
    pub fn new() -> Self {
        RealClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Manually-advanced virtual clock. Cloning shares the underlying time.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    nanos: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances time by `d`.
    pub fn advance(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }

    /// Sets the absolute time (must not go backwards in tests that care).
    pub fn set(&self, d: Duration) {
        self.nanos.store(d.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }
}

/// Why a simulated delivery failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The destination node is down (crashed or stopped).
    NodeDown,
    /// The two nodes are on different sides of a partition.
    Partitioned,
    /// The message was dropped (transient loss).
    Dropped,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NodeDown => write!(f, "destination node down"),
            NetError::Partitioned => write!(f, "network partition"),
            NetError::Dropped => write!(f, "message dropped"),
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug)]
struct NetState {
    default_latency: Duration,
    link_latency: HashMap<(NodeId, NodeId), Duration>,
    drop_probability: f64,
    down: HashSet<NodeId>,
    /// Partition group of each node; nodes in different groups can't talk.
    /// Empty map = fully connected.
    partition_group: HashMap<NodeId, u32>,
    /// Directed links that are blocked (asymmetric partitions): `(from,
    /// to)` present means `from` cannot reach `to`, while `to -> from` may
    /// still work — the one-way failure mode real switches produce.
    blocked_links: HashSet<(NodeId, NodeId)>,
    rng: StdRng,
}

/// Shared, thread-safe network model. Cloning shares state.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    state: Arc<Mutex<NetState>>,
}

impl SimNetwork {
    /// A fully connected, lossless, zero-latency network (deterministic,
    /// seeded for when loss is later enabled).
    pub fn reliable() -> Self {
        Self::with_seed(0)
    }

    /// A reliable network whose RNG (used once drops are enabled) is seeded.
    pub fn with_seed(seed: u64) -> Self {
        SimNetwork {
            state: Arc::new(Mutex::new(NetState {
                default_latency: Duration::ZERO,
                link_latency: HashMap::new(),
                drop_probability: 0.0,
                down: HashSet::new(),
                partition_group: HashMap::new(),
                blocked_links: HashSet::new(),
                rng: StdRng::seed_from_u64(seed),
            })),
        }
    }

    /// Sets the latency applied to every link without an override.
    pub fn set_default_latency(&self, latency: Duration) {
        self.state.lock().default_latency = latency;
    }

    /// Sets the latency for the directed link `from -> to`.
    pub fn set_link_latency(&self, from: NodeId, to: NodeId, latency: Duration) {
        self.state.lock().link_latency.insert((from, to), latency);
    }

    /// Sets the probability in \[0,1\] that any delivery is dropped.
    pub fn set_drop_probability(&self, p: f64) {
        self.state.lock().drop_probability = p.clamp(0.0, 1.0);
    }

    /// Marks `node` as crashed: every delivery to it fails with
    /// [`NetError::NodeDown`].
    pub fn crash(&self, node: NodeId) {
        self.state.lock().down.insert(node);
    }

    /// Restores a crashed node.
    pub fn restart(&self, node: NodeId) {
        self.state.lock().down.remove(&node);
    }

    /// Splits the cluster: nodes in `groups[i]` can only reach nodes in the
    /// same group. Nodes not mentioned remain reachable from everyone.
    pub fn partition(&self, groups: &[&[NodeId]]) {
        let mut state = self.state.lock();
        state.partition_group.clear();
        for (i, group) in groups.iter().enumerate() {
            for &node in *group {
                state.partition_group.insert(node, i as u32);
            }
        }
    }

    /// Removes any partition.
    pub fn heal(&self) {
        self.state.lock().partition_group.clear();
    }

    /// Blocks the directed link `from -> to` (asymmetric partition):
    /// deliveries that way fail with [`NetError::Partitioned`] while the
    /// reverse direction is unaffected.
    pub fn block_link(&self, from: NodeId, to: NodeId) {
        self.state.lock().blocked_links.insert((from, to));
    }

    /// Unblocks the directed link `from -> to`.
    pub fn unblock_link(&self, from: NodeId, to: NodeId) {
        self.state.lock().blocked_links.remove(&(from, to));
    }

    /// Clears all link, partition, loss, and latency faults in one step
    /// (the chaos scheduler's quiesce). Downed nodes are *not* restarted —
    /// crash state belongs to whoever crashed them.
    pub fn heal_all(&self) {
        let mut state = self.state.lock();
        state.partition_group.clear();
        state.blocked_links.clear();
        state.drop_probability = 0.0;
        state.link_latency.clear();
    }

    /// Attempts a delivery `from -> to`; on success returns the simulated
    /// one-way latency (the caller decides whether to sleep or account it
    /// against a virtual clock).
    pub fn deliver(&self, from: NodeId, to: NodeId) -> Result<Duration, NetError> {
        let mut state = self.state.lock();
        if state.down.contains(&to) {
            return Err(NetError::NodeDown);
        }
        match (
            state.partition_group.get(&from),
            state.partition_group.get(&to),
        ) {
            (Some(a), Some(b)) if a != b => return Err(NetError::Partitioned),
            _ => {}
        }
        if state.blocked_links.contains(&(from, to)) {
            return Err(NetError::Partitioned);
        }
        if state.drop_probability > 0.0 {
            let roll: f64 = state.rng.random();
            if roll < state.drop_probability {
                return Err(NetError::Dropped);
            }
        }
        Ok(state
            .link_latency
            .get(&(from, to))
            .copied()
            .unwrap_or(state.default_latency))
    }

    /// Read-only variant of [`SimNetwork::deliver`]: reports whether the
    /// link currently works and its latency *without* consuming the drop
    /// RNG (a peek never rolls the dice), so invariant checkers can compute
    /// latency bounds without perturbing a seeded replay.
    pub fn peek_latency(&self, from: NodeId, to: NodeId) -> Result<Duration, NetError> {
        let state = self.state.lock();
        if state.down.contains(&to) {
            return Err(NetError::NodeDown);
        }
        match (
            state.partition_group.get(&from),
            state.partition_group.get(&to),
        ) {
            (Some(a), Some(b)) if a != b => return Err(NetError::Partitioned),
            _ => {}
        }
        if state.blocked_links.contains(&(from, to)) {
            return Err(NetError::Partitioned);
        }
        Ok(state
            .link_latency
            .get(&(from, to))
            .copied()
            .unwrap_or(state.default_latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);
    const C: NodeId = NodeId(2);

    #[test]
    fn sim_clock_advances() {
        let clock = SimClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(5));
        let shared = clock.clone();
        shared.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(10), "clones share time");
    }

    #[test]
    fn real_clock_monotonic() {
        let clock = RealClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn reliable_network_delivers() {
        let net = SimNetwork::reliable();
        assert_eq!(net.deliver(A, B), Ok(Duration::ZERO));
    }

    #[test]
    fn latency_overrides() {
        let net = SimNetwork::reliable();
        net.set_default_latency(Duration::from_micros(100));
        net.set_link_latency(A, C, Duration::from_millis(50)); // cross-DC link
        assert_eq!(net.deliver(A, B), Ok(Duration::from_micros(100)));
        assert_eq!(net.deliver(A, C), Ok(Duration::from_millis(50)));
        assert_eq!(net.deliver(C, A), Ok(Duration::from_micros(100)), "directed");
    }

    #[test]
    fn crash_and_restart() {
        let net = SimNetwork::reliable();
        net.crash(B);
        assert_eq!(net.deliver(A, B), Err(NetError::NodeDown));
        assert!(net.deliver(B, A).is_ok(), "a down node can still send in model");
        net.restart(B);
        assert!(net.deliver(A, B).is_ok());
    }

    #[test]
    fn partition_and_heal() {
        let net = SimNetwork::reliable();
        net.partition(&[&[A], &[B, C]]);
        assert_eq!(net.deliver(A, B), Err(NetError::Partitioned));
        assert!(net.deliver(B, C).is_ok());
        net.heal();
        assert!(net.deliver(A, B).is_ok());
    }

    #[test]
    fn unmentioned_nodes_stay_connected() {
        let net = SimNetwork::reliable();
        net.partition(&[&[A], &[B]]);
        assert!(net.deliver(A, C).is_ok());
        assert!(net.deliver(C, B).is_ok());
    }

    #[test]
    fn blocked_links_are_asymmetric() {
        let net = SimNetwork::reliable();
        net.block_link(A, B);
        assert_eq!(net.deliver(A, B), Err(NetError::Partitioned));
        assert!(net.deliver(B, A).is_ok(), "reverse direction unaffected");
        assert!(net.deliver(A, C).is_ok(), "other links unaffected");
        net.unblock_link(A, B);
        assert!(net.deliver(A, B).is_ok());
    }

    #[test]
    fn heal_all_clears_faults_but_not_crashes() {
        let net = SimNetwork::reliable();
        net.partition(&[&[A], &[B]]);
        net.block_link(B, C);
        net.set_drop_probability(1.0);
        net.set_link_latency(A, C, Duration::from_secs(9));
        net.crash(C);
        net.heal_all();
        assert!(net.deliver(A, B).is_ok());
        assert!(net.deliver(B, A).is_ok());
        assert_eq!(net.deliver(B, C), Err(NetError::NodeDown), "crash survives heal_all");
        net.restart(C);
        assert_eq!(net.deliver(A, C), Ok(Duration::ZERO), "latency override cleared");
    }

    #[test]
    fn peek_latency_matches_deliver_without_consuming_rng() {
        let net = SimNetwork::with_seed(7);
        net.set_link_latency(A, B, Duration::from_millis(3));
        assert_eq!(net.peek_latency(A, B), Ok(Duration::from_millis(3)));
        net.crash(B);
        assert_eq!(net.peek_latency(A, B), Err(NetError::NodeDown));
        net.restart(B);
        net.block_link(A, B);
        assert_eq!(net.peek_latency(A, B), Err(NetError::Partitioned));
        net.unblock_link(A, B);
        // With drops enabled, peeking must not advance the RNG: the
        // deliver sequence is identical whether or not we peeked first.
        net.set_drop_probability(0.5);
        let baseline: Vec<bool> = {
            let control = SimNetwork::with_seed(123);
            control.set_drop_probability(0.5);
            (0..50).map(|_| control.deliver(A, B).is_ok()).collect()
        };
        let peeked = SimNetwork::with_seed(123);
        peeked.set_drop_probability(0.5);
        let outcomes: Vec<bool> = (0..50)
            .map(|_| {
                let _ = peeked.peek_latency(A, B);
                peeked.deliver(A, B).is_ok()
            })
            .collect();
        assert_eq!(baseline, outcomes);
    }

    #[test]
    fn drops_are_probabilistic_and_seeded() {
        let net = SimNetwork::with_seed(42);
        net.set_drop_probability(0.5);
        let outcomes: Vec<bool> = (0..100).map(|_| net.deliver(A, B).is_ok()).collect();
        let delivered = outcomes.iter().filter(|&&ok| ok).count();
        assert!((20..=80).contains(&delivered), "delivered {delivered}/100");
        // Same seed reproduces the exact sequence.
        let net2 = SimNetwork::with_seed(42);
        net2.set_drop_probability(0.5);
        let outcomes2: Vec<bool> = (0..100).map(|_| net2.deliver(A, B).is_ok()).collect();
        assert_eq!(outcomes, outcomes2);
    }
}
