//! Deterministic chaos harness: seeded fault schedules, replayable runs.
//!
//! The paper's systems are designed for datacenters where "frequent
//! transient and short-term failures ... are very prevalent" (§II.A). The
//! [`sim`](crate::sim) module provides the failure *surface* (lossy links,
//! partitions, crashed nodes, a virtual clock); this module provides the
//! failure *generator*: a [`ChaosScheduler`] that derives a whole fault
//! schedule — link drops, asymmetric partitions, crash/restart, clock-skew
//! bursts, slow links — from a single `u64` seed, interleaves it with a
//! workload, and records a compact event trace.
//!
//! The determinism contract (see DESIGN.md §"Determinism"): every run is a
//! pure function of `(seed, scenario, workload)`. The scheduler owns its
//! own [`SimClock`] and a [`SimNetwork`] seeded from the run seed; nothing
//! on the chaos path may consult the wall clock or the OS RNG. Running the
//! same seed twice therefore produces byte-identical traces, and any
//! invariant violation reproduces from the one-line repro the harness
//! prints (`CHAOS_SEED=<seed> cargo test ...`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

use crate::ring::NodeId;
use crate::sim::{Clock, SimClock, SimNetwork};

/// Crash/restart hooks a system under test exposes to the scheduler.
///
/// The network-level half of a fault (marking the node down in the
/// [`SimNetwork`]) is handled by the scheduler itself; these hooks are the
/// *system*-level half — expiring a Helix session, failing a broker,
/// halting a replica's apply loop. Systems that have no extra state to
/// tear down can leave the bodies empty.
pub trait FaultHooks {
    /// Take the node down (process death).
    fn crash(&self, node: NodeId);
    /// Bring a crashed node back (process restart + rejoin).
    fn restart(&self, node: NodeId);
    /// Pause background work on the node (GC pause / stalled thread).
    /// Default: no-op.
    fn pause(&self, node: NodeId) {
        let _ = node;
    }
    /// Resume a paused node. Default: no-op.
    fn resume(&self, node: NodeId) {
        let _ = node;
    }
}

/// No-op hooks for scenarios where the network model is the whole story.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkOnlyHooks;

impl FaultHooks for NetworkOnlyHooks {
    fn crash(&self, _node: NodeId) {}
    fn restart(&self, _node: NodeId) {}
}

/// Which fault classes a scenario enables and how aggressively.
///
/// Scenarios whose systems do not consult the [`SimNetwork`] (Kafka,
/// Espresso) should disable the network-only fault classes so every
/// scheduled fault is observable.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Per-step probability of injecting a new fault.
    pub fault_probability: f64,
    /// Per-step probability of healing one active fault.
    pub heal_probability: f64,
    /// Maximum nodes crashed at once (keep quorums viable).
    pub max_down: usize,
    /// Enable node crash/restart faults.
    pub crashes: bool,
    /// Enable symmetric two-group partitions.
    pub partitions: bool,
    /// Enable asymmetric (one-directional) link blocks.
    pub asym_links: bool,
    /// Enable probabilistic message-drop bursts.
    pub drops: bool,
    /// Enable slow-link latency injection.
    pub slow_links: bool,
    /// Enable clock-skew bursts (large forward jumps of the shared clock).
    pub clock_skew: bool,
    /// Enable pause/resume faults (delivered through the hooks only).
    pub pauses: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            fault_probability: 0.25,
            heal_probability: 0.35,
            max_down: 1,
            crashes: true,
            partitions: true,
            asym_links: true,
            drops: true,
            slow_links: true,
            clock_skew: true,
            pauses: false,
        }
    }
}

impl ChaosConfig {
    /// A config with every network-level fault disabled — for systems
    /// wired only to the crash/restart (and pause) hooks.
    pub fn hooks_only() -> Self {
        ChaosConfig {
            partitions: false,
            asym_links: false,
            drops: false,
            slow_links: false,
            ..Self::default()
        }
    }
}

/// The fault classes the scheduler draws from (internal tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    Crash,
    Partition,
    AsymLink,
    DropBurst,
    SlowLink,
    Pause,
}

/// An invariant violation plus everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Seed of the failing run.
    pub seed: u64,
    /// Names and details of every violated invariant.
    pub violations: Vec<(String, String)>,
    /// The one-line repro command.
    pub repro: String,
    /// The full event trace of the failing run.
    pub trace: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, detail) in &self.violations {
            writeln!(f, "invariant `{name}` violated: {detail}")?;
        }
        writeln!(f, "repro: CHAOS_SEED={} {}", self.seed, self.repro)?;
        writeln!(f, "trace:")?;
        for line in self.trace.lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ChaosFailure {}

/// A named invariant check: returns `Err(detail)` on violation.
pub type InvariantCheck<'a> = (&'a str, &'a dyn Fn() -> Result<(), String>);

/// Seeded fault scheduler. One instance drives one run.
///
/// The scheduler owns the run's [`SimClock`] and [`SimNetwork`] (seeded
/// from the run seed) so that the entire failure surface — fault choice,
/// fault timing, message loss — is a function of the seed. A scenario
/// builds its cluster on [`ChaosScheduler::network`] and
/// [`ChaosScheduler::clock`], then alternates workload operations with
/// [`ChaosScheduler::step`], and finally calls
/// [`ChaosScheduler::quiesce`] before checking invariants with
/// [`ChaosScheduler::check`].
pub struct ChaosScheduler {
    seed: u64,
    rng: StdRng,
    clock: SimClock,
    network: SimNetwork,
    nodes: Vec<NodeId>,
    config: ChaosConfig,
    step: u64,
    crashed: Vec<NodeId>,
    paused: Vec<NodeId>,
    partitioned: bool,
    blocked: Vec<(NodeId, NodeId)>,
    slowed: Vec<(NodeId, NodeId)>,
    dropping: bool,
    trace: Vec<String>,
}

impl ChaosScheduler {
    /// Creates a scheduler for a run over `nodes`, fully determined by
    /// `seed`.
    pub fn new(seed: u64, nodes: Vec<NodeId>, config: ChaosConfig) -> Self {
        assert!(!nodes.is_empty(), "chaos needs at least one node");
        ChaosScheduler {
            seed,
            rng: StdRng::seed_from_u64(seed),
            clock: SimClock::new(),
            // Distinct stream from the scheduler's own RNG so adding a
            // scheduler decision never shifts the network's drop pattern.
            network: SimNetwork::with_seed(seed ^ 0x9E37_79B9_7F4A_7C15),
            nodes,
            config,
            step: 0,
            crashed: Vec::new(),
            paused: Vec::new(),
            partitioned: false,
            blocked: Vec::new(),
            slowed: Vec::new(),
            dropping: false,
            trace: Vec::new(),
        }
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The run's virtual clock (clones share time).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The run's network model (clones share state).
    pub fn network(&self) -> SimNetwork {
        self.network.clone()
    }

    /// Nodes currently crashed, in crash order.
    pub fn crashed_nodes(&self) -> &[NodeId] {
        &self.crashed
    }

    /// Appends a scenario-authored line to the event trace, stamped with
    /// the current step and virtual time. Trace content must itself be
    /// deterministic — never include wall-clock times or map-iteration
    /// output that has not been sorted.
    pub fn note(&mut self, message: impl AsRef<str>) {
        let line = format!(
            "[{:>4} t={}us] {}",
            self.step,
            self.clock.now_nanos() / 1_000,
            message.as_ref()
        );
        self.trace.push(line);
    }

    /// One scheduler step: advances the virtual clock by a seeded jitter
    /// (occasionally a skew burst), then maybe injects one fault and maybe
    /// heals one. Call between workload operations.
    pub fn step(&mut self, hooks: &dyn FaultHooks) {
        self.step += 1;
        let mut advance_ms = self.rng.random_range(1..=20u64);
        if self.config.clock_skew && self.rng.random::<f64>() < 0.03 {
            // Clock-skew burst: the kind of jump that expires sessions and
            // detector windows all at once.
            advance_ms = self.rng.random_range(5_000..=30_000u64);
            self.note(format!("clock-skew burst +{advance_ms}ms"));
        }
        self.clock.advance(Duration::from_millis(advance_ms));

        let inject = self.rng.random::<f64>() < self.config.fault_probability;
        if inject {
            self.inject_one(hooks);
        }
        let heal = self.rng.random::<f64>() < self.config.heal_probability;
        if heal {
            self.heal_one(hooks);
        }
    }

    fn enabled_kinds(&self) -> Vec<FaultKind> {
        let mut kinds = Vec::new();
        if self.config.crashes && self.crashed.len() < self.config.max_down {
            kinds.push(FaultKind::Crash);
        }
        if self.config.partitions && !self.partitioned {
            kinds.push(FaultKind::Partition);
        }
        if self.config.asym_links {
            kinds.push(FaultKind::AsymLink);
        }
        if self.config.drops && !self.dropping {
            kinds.push(FaultKind::DropBurst);
        }
        if self.config.slow_links {
            kinds.push(FaultKind::SlowLink);
        }
        if self.config.pauses && self.paused.len() + self.crashed.len() < self.config.max_down + 1 {
            kinds.push(FaultKind::Pause);
        }
        kinds
    }

    fn pick_node(&mut self, exclude_crashed: bool) -> Option<NodeId> {
        let candidates: Vec<NodeId> = self
            .nodes
            .iter()
            .copied()
            .filter(|n| !exclude_crashed || (!self.crashed.contains(n) && !self.paused.contains(n)))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let i = self.rng.random_range(0..candidates.len());
        Some(candidates[i])
    }

    fn inject_one(&mut self, hooks: &dyn FaultHooks) {
        let kinds = self.enabled_kinds();
        if kinds.is_empty() {
            return;
        }
        let kind = kinds[self.rng.random_range(0..kinds.len())];
        match kind {
            FaultKind::Crash => {
                if let Some(node) = self.pick_node(true) {
                    self.network.crash(node);
                    hooks.crash(node);
                    self.crashed.push(node);
                    self.note(format!("crash {node:?}"));
                }
            }
            FaultKind::Partition => {
                // Split off a seeded minority group.
                let mut shuffled = self.nodes.clone();
                for i in (1..shuffled.len()).rev() {
                    let j = self.rng.random_range(0..=i);
                    shuffled.swap(i, j);
                }
                let cut = 1 + self.rng.random_range(0..shuffled.len().div_ceil(2));
                let (minority, majority) = shuffled.split_at(cut.min(shuffled.len() - 1));
                self.network.partition(&[minority, majority]);
                self.partitioned = true;
                self.note(format!("partition minority={minority:?}"));
            }
            FaultKind::AsymLink => {
                if self.nodes.len() >= 2 {
                    let a = self.nodes[self.rng.random_range(0..self.nodes.len())];
                    let mut b = self.nodes[self.rng.random_range(0..self.nodes.len())];
                    if a == b {
                        b = self.nodes[(self.nodes.iter().position(|&n| n == a).unwrap() + 1)
                            % self.nodes.len()];
                    }
                    self.network.block_link(a, b);
                    self.blocked.push((a, b));
                    self.note(format!("block-link {a:?}->{b:?}"));
                }
            }
            FaultKind::DropBurst => {
                let p = self.rng.random_range(5..=30) as f64 / 100.0;
                self.network.set_drop_probability(p);
                self.dropping = true;
                self.note(format!("drop-burst p={p:.2}"));
            }
            FaultKind::SlowLink => {
                if self.nodes.len() >= 2 {
                    let a = self.nodes[self.rng.random_range(0..self.nodes.len())];
                    let b = self.nodes[self.rng.random_range(0..self.nodes.len())];
                    let ms = self.rng.random_range(50..=500u64);
                    self.network
                        .set_link_latency(a, b, Duration::from_millis(ms));
                    self.slowed.push((a, b));
                    self.note(format!("slow-link {a:?}->{b:?} +{ms}ms"));
                }
            }
            FaultKind::Pause => {
                if let Some(node) = self.pick_node(true) {
                    hooks.pause(node);
                    self.paused.push(node);
                    self.note(format!("pause {node:?}"));
                }
            }
        }
    }

    fn heal_one(&mut self, hooks: &dyn FaultHooks) {
        // Collect active fault categories, pick one, undo it.
        let mut active = Vec::new();
        if !self.crashed.is_empty() {
            active.push(FaultKind::Crash);
        }
        if self.partitioned {
            active.push(FaultKind::Partition);
        }
        if !self.blocked.is_empty() {
            active.push(FaultKind::AsymLink);
        }
        if self.dropping {
            active.push(FaultKind::DropBurst);
        }
        if !self.slowed.is_empty() {
            active.push(FaultKind::SlowLink);
        }
        if !self.paused.is_empty() {
            active.push(FaultKind::Pause);
        }
        if active.is_empty() {
            return;
        }
        match active[self.rng.random_range(0..active.len())] {
            FaultKind::Crash => {
                let node = self.crashed.remove(0);
                self.network.restart(node);
                hooks.restart(node);
                self.note(format!("restart {node:?}"));
            }
            FaultKind::Partition => {
                self.network.heal();
                self.partitioned = false;
                self.note("heal partition");
            }
            FaultKind::AsymLink => {
                let (a, b) = self.blocked.remove(0);
                self.network.unblock_link(a, b);
                self.note(format!("unblock-link {a:?}->{b:?}"));
            }
            FaultKind::DropBurst => {
                self.network.set_drop_probability(0.0);
                self.dropping = false;
                self.note("drop-burst over");
            }
            FaultKind::SlowLink => {
                let (a, b) = self.slowed.remove(0);
                self.network.set_link_latency(a, b, Duration::ZERO);
                self.note(format!("fast-link {a:?}->{b:?}"));
            }
            FaultKind::Pause => {
                let node = self.paused.remove(0);
                hooks.resume(node);
                self.note(format!("resume {node:?}"));
            }
        }
    }

    /// Ends the fault schedule: clears every network fault, resumes every
    /// paused node, and restarts every crashed node. After this the
    /// scenario drains its recovery machinery (probes, hints, replication
    /// pumps) and then checks invariants.
    pub fn quiesce(&mut self, hooks: &dyn FaultHooks) {
        self.network.heal_all();
        self.partitioned = false;
        self.blocked.clear();
        self.slowed.clear();
        self.dropping = false;
        for node in std::mem::take(&mut self.paused) {
            hooks.resume(node);
        }
        for node in std::mem::take(&mut self.crashed) {
            self.network.restart(node);
            hooks.restart(node);
        }
        self.note("quiesce: all faults healed");
    }

    /// The full event trace so far, one event per line. Byte-identical
    /// across runs with the same `(seed, scenario, workload)`.
    pub fn trace_text(&self) -> String {
        self.trace.join("\n")
    }

    /// Runs every invariant check; on any violation returns a
    /// [`ChaosFailure`] carrying the `CHAOS_SEED=…` repro line (pass the
    /// test's `cargo test` invocation as `repro`) and the event trace.
    pub fn check(&mut self, invariants: &[InvariantCheck<'_>], repro: &str) -> Result<(), ChaosFailure> {
        let mut violations = Vec::new();
        for (name, check) in invariants {
            match check() {
                Ok(()) => self.note(format!("invariant `{name}` ok")),
                Err(detail) => {
                    self.note(format!("invariant `{name}` VIOLATED: {detail}"));
                    violations.push((name.to_string(), detail));
                }
            }
        }
        if violations.is_empty() {
            return Ok(());
        }
        Err(ChaosFailure {
            seed: self.seed,
            violations,
            repro: repro.to_string(),
            trace: self.trace_text(),
        })
    }
}

/// Seeds for a sweep. `CHAOS_SEED=<n>` pins a single seed (the repro
/// path); otherwise `CHAOS_SEEDS=<k>` widens the sweep to `k` seeds (CI
/// runs 20); otherwise `default_count` seeds. Seeds are `1..=k` — the
/// diversity comes from the splitmix64 seeding inside `StdRng`.
pub fn sweep_seeds(default_count: u64) -> Vec<u64> {
    match (seed_var("CHAOS_SEED"), seed_var("CHAOS_SEEDS")) {
        (Some(seed), _) => vec![seed],
        (None, count) => (1..=count.unwrap_or(default_count).max(1)).collect(),
    }
}

/// The seed setting `name` from the environment, `None` when unset.
pub fn seed_var(name: &str) -> Option<u64> {
    let value = std::env::var_os(name)?;
    Some(parse_seed(name, &value.to_string_lossy()))
}

/// A value that is not a `u64` panics with the setting's name and value:
/// a mistyped repro line must fail, not quietly run another sweep.
fn parse_seed(name: &str, value: &str) -> u64 {
    value
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{name}={value:?} is not a seed (a u64)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// Hooks that record calls, proving the scheduler drives them.
    #[derive(Default)]
    struct RecordingHooks {
        calls: parking_lot::Mutex<Vec<String>>,
    }

    impl FaultHooks for RecordingHooks {
        fn crash(&self, node: NodeId) {
            self.calls.lock().push(format!("crash {}", node.0));
        }
        fn restart(&self, node: NodeId) {
            self.calls.lock().push(format!("restart {}", node.0));
        }
        fn pause(&self, node: NodeId) {
            self.calls.lock().push(format!("pause {}", node.0));
        }
        fn resume(&self, node: NodeId) {
            self.calls.lock().push(format!("resume {}", node.0));
        }
    }

    fn run_schedule(seed: u64) -> (String, Vec<String>) {
        let hooks = RecordingHooks::default();
        let mut sched = ChaosScheduler::new(
            seed,
            nodes(5),
            ChaosConfig {
                pauses: true,
                ..ChaosConfig::default()
            },
        );
        for i in 0..200 {
            sched.step(&hooks);
            if i % 10 == 0 {
                sched.note(format!("workload tick {i}"));
            }
        }
        sched.quiesce(&hooks);
        (sched.trace_text(), hooks.calls.into_inner())
    }

    #[test]
    fn same_seed_same_trace_and_hook_calls() {
        let (trace_a, calls_a) = run_schedule(7);
        let (trace_b, calls_b) = run_schedule(7);
        assert_eq!(trace_a, trace_b, "trace must be byte-identical");
        assert_eq!(calls_a, calls_b);
        assert!(!trace_a.is_empty());
    }

    #[test]
    fn different_seeds_diverge() {
        let (trace_a, _) = run_schedule(1);
        let (trace_b, _) = run_schedule(2);
        assert_ne!(trace_a, trace_b);
    }

    #[test]
    fn quiesce_restarts_every_crashed_node() {
        let hooks = RecordingHooks::default();
        let mut sched = ChaosScheduler::new(3, nodes(4), ChaosConfig::default());
        for _ in 0..300 {
            sched.step(&hooks);
        }
        sched.quiesce(&hooks);
        assert!(sched.crashed_nodes().is_empty());
        let calls = hooks.calls.into_inner();
        let crashes = calls.iter().filter(|c| c.starts_with("crash")).count();
        let restarts = calls.iter().filter(|c| c.starts_with("restart")).count();
        assert!(crashes > 0, "300 steps at p=0.25 must crash something");
        assert_eq!(crashes, restarts, "every crash matched by a restart");
        // And the network agrees: every node reachable again.
        let net = sched.network();
        for n in nodes(4) {
            assert!(net.deliver(NodeId(99), n).is_ok());
        }
    }

    #[test]
    fn max_down_respected() {
        let hooks = RecordingHooks::default();
        let mut sched = ChaosScheduler::new(
            11,
            nodes(3),
            ChaosConfig {
                max_down: 1,
                heal_probability: 0.0,
                ..ChaosConfig::default()
            },
        );
        for _ in 0..200 {
            sched.step(&hooks);
            assert!(sched.crashed_nodes().len() <= 1);
        }
    }

    #[test]
    fn check_reports_seed_and_trace() {
        let mut sched = ChaosScheduler::new(42, nodes(3), ChaosConfig::default());
        sched.note("something happened");
        let fail_check: &dyn Fn() -> Result<(), String> =
            &|| Err("key k1 lost".to_string());
        let ok_check: &dyn Fn() -> Result<(), String> = &|| Ok(());
        let err = sched
            .check(
                &[("durability", fail_check), ("order", ok_check)],
                "cargo test --test chaos some_scenario",
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("CHAOS_SEED=42 cargo test --test chaos some_scenario"));
        assert!(msg.contains("invariant `durability` violated: key k1 lost"));
        assert!(msg.contains("something happened"));
        assert!(!msg.contains("`order` violated"));
    }

    #[test]
    fn sweep_seed_env_override() {
        // Not set in the test environment: default count applies.
        if std::env::var("CHAOS_SEED").is_err() && std::env::var("CHAOS_SEEDS").is_err() {
            assert_eq!(sweep_seeds(3), vec![1, 2, 3]);
        }
    }

    #[test]
    fn seed_settings_parse_or_name_the_bad_value() {
        assert_eq!(parse_seed("CHAOS_SEED", "42"), 42);
        assert_eq!(parse_seed("WALK_SEEDS", " 7\n"), 7);
        for bad in ["abc", "", "-1", "4.2"] {
            let panic = std::panic::catch_unwind(|| parse_seed("CHAOS_SEED", bad)).unwrap_err();
            let message = panic.downcast_ref::<String>().unwrap();
            assert_eq!(*message, format!("CHAOS_SEED={bad:?} is not a seed (a u64)"));
        }
    }
}
