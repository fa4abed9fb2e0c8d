//! Cluster health monitoring and SLA alerts.
//!
//! Paper §IV.B, Helix feature list: "Health check: It monitors cluster
//! health and provides alerts on SLA violations." This module watches two
//! things the rest of the crate produces:
//!
//! * **liveness SLA** — fraction of configured nodes alive;
//! * **replication SLA** — fraction of partitions at full replica count
//!   (and whether every partition has a master at all).

use li_commons::ring::{NodeId, PartitionId};
use std::collections::BTreeSet;

use crate::model::Assignment;

/// Severity of an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Degraded but serving (e.g. under-replicated partitions).
    Warning,
    /// Data unavailable (e.g. masterless partitions).
    Critical,
}

/// One SLA violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

/// SLA thresholds.
#[derive(Debug, Clone)]
pub struct SlaConfig {
    /// Minimum fraction of configured nodes that must be live.
    pub min_live_fraction: f64,
    /// Target replicas per partition.
    pub target_replicas: usize,
}

impl Default for SlaConfig {
    fn default() -> Self {
        SlaConfig {
            min_live_fraction: 0.5,
            target_replicas: 2,
        }
    }
}

/// A health report over one resource's external view.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Live nodes / configured nodes.
    pub live_fraction: f64,
    /// Partitions with a master.
    pub mastered_partitions: u32,
    /// Partitions below the replica target.
    pub under_replicated: Vec<PartitionId>,
    /// Partitions with no master (unavailable for writes).
    pub masterless: Vec<PartitionId>,
    /// Raised alerts, most severe first.
    pub alerts: Vec<Alert>,
}

impl HealthReport {
    /// True when no alert was raised.
    pub fn healthy(&self) -> bool {
        self.alerts.is_empty()
    }
}

/// Evaluates the health of a resource.
pub fn check_health(
    config: &SlaConfig,
    configured_nodes: &[NodeId],
    live_nodes: &BTreeSet<NodeId>,
    num_partitions: u32,
    view: &Assignment,
) -> HealthReport {
    let live_fraction = if configured_nodes.is_empty() {
        0.0
    } else {
        configured_nodes
            .iter()
            .filter(|n| live_nodes.contains(n))
            .count() as f64
            / configured_nodes.len() as f64
    };

    let mut under_replicated = Vec::new();
    let mut masterless = Vec::new();
    let mut mastered = 0u32;
    for p in 0..num_partitions {
        let pid = PartitionId(p);
        let replicas = view
            .partitions
            .get(&pid)
            .map(|nodes| nodes.len())
            .unwrap_or(0);
        if view.master_of(pid).is_some() {
            mastered += 1;
        } else {
            masterless.push(pid);
        }
        if replicas < config.target_replicas {
            under_replicated.push(pid);
        }
    }

    let mut alerts = Vec::new();
    if !masterless.is_empty() {
        alerts.push(Alert {
            severity: Severity::Critical,
            message: format!("{} partition(s) have no master", masterless.len()),
        });
    }
    if live_fraction < config.min_live_fraction {
        alerts.push(Alert {
            severity: Severity::Critical,
            message: format!(
                "only {:.0}% of nodes live (SLA {:.0}%)",
                live_fraction * 100.0,
                config.min_live_fraction * 100.0
            ),
        });
    }
    if !under_replicated.is_empty() {
        alerts.push(Alert {
            severity: Severity::Warning,
            message: format!(
                "{} partition(s) under-replicated (< {})",
                under_replicated.len(),
                config.target_replicas
            ),
        });
    }
    alerts.sort_by_key(|a| std::cmp::Reverse(a.severity));

    HealthReport {
        live_fraction,
        mastered_partitions: mastered,
        under_replicated,
        masterless,
        alerts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{best_possible_state, ideal_state};
    use crate::model::ResourceConfig;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn live(ids: &[u16]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn fully_up_cluster_is_healthy() {
        let config = ResourceConfig::new("db", 8, 2);
        let (prefs, _) = ideal_state(&config, &nodes(4));
        let view = best_possible_state(&prefs, &live(&[0, 1, 2, 3]), |_, _| true);
        let report = check_health(
            &SlaConfig::default(),
            &nodes(4),
            &live(&[0, 1, 2, 3]),
            8,
            &view,
        );
        assert!(report.healthy(), "{:?}", report.alerts);
        assert_eq!(report.mastered_partitions, 8);
        assert_eq!(report.live_fraction, 1.0);
    }

    #[test]
    fn one_node_down_warns_under_replication() {
        let config = ResourceConfig::new("db", 8, 2);
        let (prefs, _) = ideal_state(&config, &nodes(4));
        let view = best_possible_state(&prefs, &live(&[0, 1, 2]), |_, _| true);
        let report = check_health(
            &SlaConfig::default(),
            &nodes(4),
            &live(&[0, 1, 2]),
            8,
            &view,
        );
        assert!(!report.healthy());
        assert!(report.masterless.is_empty(), "still fully mastered");
        assert!(!report.under_replicated.is_empty());
        assert_eq!(report.alerts[0].severity, Severity::Warning);
    }

    #[test]
    fn majority_loss_is_critical() {
        let config = ResourceConfig::new("db", 4, 2);
        let (prefs, _) = ideal_state(&config, &nodes(4));
        let view = best_possible_state(&prefs, &live(&[0]), |_, _| true);
        let report = check_health(&SlaConfig::default(), &nodes(4), &live(&[0]), 4, &view);
        assert!(report
            .alerts
            .iter()
            .any(|a| a.severity == Severity::Critical));
        assert!(report.live_fraction < 0.5);
    }

    #[test]
    fn total_loss_flags_masterless_partitions() {
        let config = ResourceConfig::new("db", 4, 2);
        let (prefs, _) = ideal_state(&config, &nodes(2));
        let view = best_possible_state(&prefs, &BTreeSet::new(), |_, _| true);
        let report = check_health(&SlaConfig::default(), &nodes(2), &BTreeSet::new(), 4, &view);
        assert_eq!(report.masterless.len(), 4);
        assert_eq!(report.mastered_partitions, 0);
        assert_eq!(report.alerts[0].severity, Severity::Critical);
    }
}
