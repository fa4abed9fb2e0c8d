//! Success-ratio failure detector.
//!
//! Paper §II.B (Failure Detector): "the most commonly used one marks a node
//! as down when its 'success ratio' i.e. ratio of successful operations to
//! total, falls below a pre-configured threshold. Once marked down the node
//! is considered online only when an asynchronous thread is able to contact
//! it again."
//!
//! The detector therefore has two halves: a per-node windowed success-ratio
//! accumulator fed by every routed request, and a ban list drained only by
//! recovery probes. Marking down on ratio (not on a single failure) rides
//! out the "frequent transient errors" the paper designs for, while the
//! async-probe-only recovery prevents a flapping node from oscillating in
//! and out of the preference list.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::ring::NodeId;
use crate::sim::Clock;

/// Tuning for [`FailureDetector`].
#[derive(Debug, Clone)]
pub struct FailureDetectorConfig {
    /// A node is banned when its windowed success ratio drops below this.
    pub threshold: f64,
    /// Observations are aggregated over windows of this length.
    pub window: Duration,
    /// Minimum observations in a window before the ratio is trusted.
    pub min_samples: u64,
    /// How long after banning before a recovery probe is attempted.
    pub probe_interval: Duration,
}

impl Default for FailureDetectorConfig {
    fn default() -> Self {
        FailureDetectorConfig {
            threshold: 0.8,
            window: Duration::from_secs(10),
            min_samples: 10,
            probe_interval: Duration::from_secs(5),
        }
    }
}

#[derive(Debug, Default, Clone)]
struct WindowCounts {
    window_start: Duration,
    successes: u64,
    failures: u64,
}

#[derive(Debug, Clone)]
enum NodeState {
    Available(WindowCounts),
    Banned { since: Duration, last_probe: Duration },
}

/// Thread-safe failure detector keyed by [`NodeId`]. Cloning shares state —
/// the routing pipeline and the async recovery thread hold the same view.
#[derive(Clone)]
pub struct FailureDetector {
    inner: Arc<Mutex<HashMap<NodeId, NodeState>>>,
    config: FailureDetectorConfig,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureDetector")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl FailureDetector {
    /// Creates a detector over the given clock.
    pub fn new(config: FailureDetectorConfig, clock: Arc<dyn Clock>) -> Self {
        FailureDetector {
            inner: Arc::new(Mutex::new(HashMap::new())),
            config,
            clock,
        }
    }

    /// Records a successful operation against `node`; never bans it.
    pub fn record_success(&self, node: NodeId) {
        self.record(node, true);
    }

    /// Records a failed operation against `node`; may ban it.
    pub fn record_failure(&self, node: NodeId) {
        self.record(node, false);
    }

    fn record(&self, node: NodeId, success: bool) {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let state = inner
            .entry(node)
            .or_insert_with(|| NodeState::Available(WindowCounts::default()));
        let NodeState::Available(counts) = state else {
            // Operations against a banned node don't change its state;
            // only a probe can restore it.
            return;
        };
        if now.saturating_sub(counts.window_start) > self.config.window {
            counts.window_start = now;
            counts.successes = 0;
            counts.failures = 0;
        }
        if success {
            // A success only raises the ratio: judging it here would let
            // a healed node's first success ban it for failures taken
            // while it was down.
            counts.successes += 1;
            return;
        }
        counts.failures += 1;
        let total = counts.successes + counts.failures;
        if total >= self.config.min_samples {
            let ratio = counts.successes as f64 / total as f64;
            if ratio < self.config.threshold {
                *state = NodeState::Banned {
                    since: now,
                    last_probe: now,
                };
            }
        }
    }

    /// True when `node` may be routed to. Unknown nodes are available.
    pub fn is_available(&self, node: NodeId) -> bool {
        !matches!(self.inner.lock().get(&node), Some(NodeState::Banned { .. }))
    }

    /// Nodes that are banned and due for a recovery probe, in [`NodeId`]
    /// order (sorted so probe order — and anything downstream of it, like
    /// a seeded network's drop sequence — is deterministic). Calling this
    /// also stamps the probe time so the same node isn't probed in a tight
    /// loop — this is the method the async recovery thread polls.
    pub fn nodes_due_for_probe(&self) -> Vec<NodeId> {
        let now = self.clock.now();
        let mut due = Vec::new();
        let mut inner = self.inner.lock();
        for (&node, state) in inner.iter_mut() {
            if let NodeState::Banned { last_probe, .. } = state {
                if now.saturating_sub(*last_probe) >= self.config.probe_interval {
                    *last_probe = now;
                    due.push(node);
                }
            }
        }
        due.sort_unstable();
        due
    }

    /// Reports the outcome of a recovery probe. A success restores the node
    /// to the available pool with a fresh window.
    pub fn probe_result(&self, node: NodeId, success: bool) {
        if !success {
            return;
        }
        let now = self.clock.now();
        self.inner.lock().insert(
            node,
            NodeState::Available(WindowCounts {
                window_start: now,
                ..Default::default()
            }),
        );
    }

    /// When `node` was banned, if it is currently banned.
    pub fn banned_since(&self, node: NodeId) -> Option<Duration> {
        match self.inner.lock().get(&node) {
            Some(NodeState::Banned { since, .. }) => Some(*since),
            _ => None,
        }
    }

    /// All currently banned nodes, in [`NodeId`] order.
    pub fn banned_nodes(&self) -> Vec<NodeId> {
        let mut banned: Vec<NodeId> = self
            .inner
            .lock()
            .iter()
            .filter_map(|(&n, s)| matches!(s, NodeState::Banned { .. }).then_some(n))
            .collect();
        banned.sort_unstable();
        banned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimClock;

    const N1: NodeId = NodeId(1);

    fn detector(clock: &SimClock) -> FailureDetector {
        FailureDetector::new(
            FailureDetectorConfig {
                threshold: 0.8,
                window: Duration::from_secs(10),
                min_samples: 10,
                probe_interval: Duration::from_secs(5),
            },
            Arc::new(clock.clone()),
        )
    }

    #[test]
    fn unknown_node_is_available() {
        let clock = SimClock::new();
        assert!(detector(&clock).is_available(N1));
    }

    #[test]
    fn few_failures_do_not_ban() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        // 9 failures < min_samples: ratio not yet trusted.
        for _ in 0..9 {
            fd.record_failure(N1);
        }
        assert!(fd.is_available(N1));
    }

    #[test]
    fn low_success_ratio_bans() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        for _ in 0..7 {
            fd.record_success(N1);
        }
        for _ in 0..3 {
            fd.record_failure(N1);
        }
        // 7/10 = 0.7 < 0.8 → banned.
        assert!(!fd.is_available(N1));
        assert_eq!(fd.banned_nodes(), vec![N1]);
    }

    #[test]
    fn a_success_never_bans() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        // Nine failures under a fault, then the node heals: its first
        // success is the tenth sample at a 0.1 ratio, and must not ban it.
        for _ in 0..9 {
            fd.record_failure(N1);
        }
        fd.record_success(N1);
        assert!(fd.is_available(N1));
        // The ratio is judged at the next failure.
        fd.record_failure(N1);
        assert!(!fd.is_available(N1));
    }

    #[test]
    fn high_success_ratio_survives_transient_failures() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        for i in 0..100 {
            if i % 10 == 0 {
                fd.record_failure(N1); // 10% transient errors
            } else {
                fd.record_success(N1);
            }
        }
        assert!(fd.is_available(N1));
    }

    #[test]
    fn window_expiry_resets_counts() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        for _ in 0..5 {
            fd.record_failure(N1);
        }
        clock.advance(Duration::from_secs(11));
        // Old failures fell out of the window; these 9 successes + 1 failure
        // stay above threshold.
        for _ in 0..9 {
            fd.record_success(N1);
        }
        fd.record_failure(N1);
        assert!(fd.is_available(N1));
    }

    #[test]
    fn banned_node_only_restored_by_probe() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        for _ in 0..10 {
            fd.record_failure(N1);
        }
        assert!(!fd.is_available(N1));
        // Successful operations while banned don't restore it (the paper's
        // "considered online only when an asynchronous thread is able to
        // contact it again").
        for _ in 0..100 {
            fd.record_success(N1);
        }
        assert!(!fd.is_available(N1));
        fd.probe_result(N1, true);
        assert!(fd.is_available(N1));
    }

    #[test]
    fn flapping_node_stays_banned_until_probe_succeeds() {
        // A node oscillating around the success-ratio threshold: once
        // banned, windows of perfect successes must NOT readmit it — only
        // an asynchronous probe can ("once marked down the node is
        // considered online only when an asynchronous thread is able to
        // contact it again"). Ratio alone never re-enters the preference
        // list.
        let clock = SimClock::new();
        let fd = detector(&clock);
        // Flap below threshold: 7/10 = 0.7 < 0.8 → banned.
        for _ in 0..7 {
            fd.record_success(N1);
        }
        for _ in 0..3 {
            fd.record_failure(N1);
        }
        assert!(!fd.is_available(N1));
        let banned_at = fd.banned_since(N1).unwrap();

        // The node "recovers" and flaps healthy for many windows: floods
        // of successes, window expiries, failed probes in between.
        for window in 0..5 {
            clock.advance(Duration::from_secs(11)); // window expiry
            for _ in 0..50 {
                fd.record_success(N1); // would be 100% ratio if trusted
            }
            assert!(
                !fd.is_available(N1),
                "window {window}: ratio alone readmitted a banned node"
            );
            assert_eq!(
                fd.banned_since(N1),
                Some(banned_at),
                "ban epoch must be stable across windows"
            );
            // The async prober fires but the node answers sick.
            for node in fd.nodes_due_for_probe() {
                fd.probe_result(node, false);
            }
            assert!(!fd.is_available(N1), "failed probe keeps the ban");
        }

        // Only a successful async probe restores it.
        clock.advance(Duration::from_secs(5));
        assert_eq!(fd.nodes_due_for_probe(), vec![N1]);
        fd.probe_result(N1, true);
        assert!(fd.is_available(N1));
        assert!(fd.banned_since(N1).is_none());

        // And the restored window is fresh: it takes min_samples new
        // observations to re-ban the still-flapping node.
        for _ in 0..9 {
            fd.record_failure(N1);
        }
        assert!(fd.is_available(N1), "fresh window, ratio not yet trusted");
        fd.record_failure(N1);
        assert!(!fd.is_available(N1), "flapped straight back out");
    }

    #[test]
    fn probe_and_ban_listings_are_sorted() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        // Ban a spread of nodes in scrambled insertion order.
        for id in [9u16, 3, 7, 1, 5] {
            for _ in 0..10 {
                fd.record_failure(NodeId(id));
            }
        }
        assert_eq!(
            fd.banned_nodes(),
            vec![NodeId(1), NodeId(3), NodeId(5), NodeId(7), NodeId(9)]
        );
        clock.advance(Duration::from_secs(5));
        assert_eq!(
            fd.nodes_due_for_probe(),
            vec![NodeId(1), NodeId(3), NodeId(5), NodeId(7), NodeId(9)]
        );
    }

    #[test]
    fn probes_rate_limited_by_interval() {
        let clock = SimClock::new();
        let fd = detector(&clock);
        for _ in 0..10 {
            fd.record_failure(N1);
        }
        assert!(fd.nodes_due_for_probe().is_empty(), "too soon");
        clock.advance(Duration::from_secs(5));
        assert_eq!(fd.nodes_due_for_probe(), vec![N1]);
        assert!(fd.nodes_due_for_probe().is_empty(), "stamped, not due again");
        clock.advance(Duration::from_secs(5));
        assert_eq!(fd.nodes_due_for_probe(), vec![N1]);
        fd.probe_result(N1, false);
        assert!(!fd.is_available(N1), "failed probe keeps the ban");
        clock.advance(Duration::from_secs(5));
        fd.probe_result(N1, true);
        assert!(fd.is_available(N1));
    }
}
