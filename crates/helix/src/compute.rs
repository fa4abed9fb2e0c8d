//! Pure state-machine computations: IDEALSTATE, BESTPOSSIBLESTATE, and the
//! ordered transition plan between cluster states.

use li_commons::ring::{NodeId, PartitionId};
use std::collections::BTreeSet;

use crate::model::{Assignment, PartitionAssignment, ReplicaState, ResourceConfig, Transition};

/// Computes the IDEALSTATE for a resource over `nodes`: per-partition
/// preference lists dealt round-robin (partition `p`'s replicas start at
/// node `p % n`), plus the assignment they imply when every node is up
/// (first preference = master, rest slaves).
///
/// The preference lists are stable metadata: BESTPOSSIBLESTATE is always
/// derived from them, so replicas don't wander between nodes as liveness
/// flaps (Helix's "optimized rebalancing" property).
pub fn ideal_state(
    config: &ResourceConfig,
    nodes: &[NodeId],
) -> (Vec<PartitionAssignment>, Assignment) {
    assert!(!nodes.is_empty(), "ideal state needs at least one node");
    let replicas = config.replicas.min(nodes.len());
    let mut preference_lists = Vec::with_capacity(config.num_partitions as usize);
    let mut assignment = Assignment::new();
    for p in 0..config.num_partitions {
        let mut prefs = Vec::with_capacity(replicas);
        for r in 0..replicas {
            prefs.push(nodes[(p as usize + r) % nodes.len()]);
        }
        let partition = PartitionId(p);
        for (i, &node) in prefs.iter().enumerate() {
            let state = if i == 0 {
                ReplicaState::Master
            } else {
                ReplicaState::Slave
            };
            assignment.set_state(partition, node, state);
        }
        preference_lists.push(prefs);
    }
    (preference_lists, assignment)
}

/// Computes the BESTPOSSIBLESTATE: for each partition, the first *live*
/// node in its preference list that `electable` accepts masters it and the
/// other live nodes slave it. With every node live and electable this
/// equals the ideal assignment; with none electable the partition has no
/// master, and with none live it is unassigned.
pub fn best_possible_state(
    preference_lists: &[PartitionAssignment],
    live: &BTreeSet<NodeId>,
    electable: impl Fn(PartitionId, NodeId) -> bool,
) -> Assignment {
    let mut assignment = Assignment::new();
    for (p, prefs) in preference_lists.iter().enumerate() {
        let partition = PartitionId(p as u32);
        let mut placed_master = false;
        for &node in prefs.iter().filter(|node| live.contains(node)) {
            let state = if !placed_master && electable(partition, node) {
                placed_master = true;
                ReplicaState::Master
            } else {
                ReplicaState::Slave
            };
            assignment.set_state(partition, node, state);
        }
    }
    assignment
}

/// Computes the target partition map for a single-partition move: the
/// preference lists with `from` replaced (in place, keeping its slot) by
/// `to` in `partition`'s list. Every other partition's list is untouched,
/// so the move is surgical — replicas elsewhere don't wander. Moving the
/// master slot hands `to` mastership once the rebalance promotes it;
/// moving a slave slot just re-homes that replica.
pub fn retarget_preference_lists(
    preference_lists: &[PartitionAssignment],
    partition: PartitionId,
    from: NodeId,
    to: NodeId,
) -> Result<Vec<PartitionAssignment>, String> {
    let idx = partition.0 as usize;
    let Some(prefs) = preference_lists.get(idx) else {
        return Err(format!(
            "partition {partition} out of range (resource has {} partitions)",
            preference_lists.len()
        ));
    };
    if !prefs.contains(&from) {
        return Err(format!("{from} does not host {partition}"));
    }
    if prefs.contains(&to) {
        return Err(format!("{to} already hosts {partition}"));
    }
    let mut next = preference_lists.to_vec();
    next[idx] = prefs
        .iter()
        .map(|&n| if n == from { to } else { n })
        .collect();
    Ok(next)
}

/// Computes the ordered list of single-step transitions taking `current`
/// to `target` for `resource`.
///
/// Steps are emitted in four safety phases:
/// 1. `Master → Slave` (demote old masters first — never two masters),
/// 2. `Slave → Offline` (drops),
/// 3. `Offline → Slave` (bootstraps),
/// 4. `Slave → Master` (promotions last, after demotions freed the slot).
///
/// Multi-step paths (e.g. `Offline → Master`) are decomposed into their
/// legal single steps across the phases.
pub fn compute_transitions(
    resource: &str,
    current: &Assignment,
    target: &Assignment,
) -> Vec<Transition> {
    // Union of (partition, node) pairs present in either assignment.
    let mut pairs: BTreeSet<(PartitionId, NodeId)> = BTreeSet::new();
    for (&p, nodes) in &current.partitions {
        for &n in nodes.keys() {
            pairs.insert((p, n));
        }
    }
    for (&p, nodes) in &target.partitions {
        for &n in nodes.keys() {
            pairs.insert((p, n));
        }
    }

    let mut phases: [Vec<Transition>; 4] = Default::default();
    for (partition, node) in pairs {
        let from = current.state_of(partition, node);
        let to = target.state_of(partition, node);
        let mut cursor = from;
        for step in from.path_to(to) {
            let phase = match (cursor, step) {
                (ReplicaState::Master, ReplicaState::Slave) => 0,
                (ReplicaState::Slave, ReplicaState::Offline) => 1,
                (ReplicaState::Offline, ReplicaState::Slave) => 2,
                (ReplicaState::Slave, ReplicaState::Master) => 3,
                _ => unreachable!("path_to yields only legal steps"),
            };
            phases[phase].push(Transition {
                resource: resource.to_string(),
                partition,
                node,
                from: cursor,
                to: step,
            });
            cursor = step;
        }
    }
    phases.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn live(ids: &[u16]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn ideal_state_balances_masters() {
        let config = ResourceConfig::new("db", 12, 3);
        let (prefs, assignment) = ideal_state(&config, &nodes(4));
        assert_eq!(prefs.len(), 12);
        // Each node masters 3 of 12 partitions.
        let mut master_counts = std::collections::BTreeMap::new();
        for p in 0..12 {
            let m = assignment.master_of(PartitionId(p)).unwrap();
            *master_counts.entry(m).or_insert(0) += 1;
            assert_eq!(assignment.slaves_of(PartitionId(p)).len(), 2);
        }
        assert!(master_counts.values().all(|&c| c == 3), "{master_counts:?}");
    }

    #[test]
    fn replicas_capped_at_node_count() {
        let config = ResourceConfig::new("db", 4, 3);
        let (prefs, _) = ideal_state(&config, &nodes(2));
        assert!(prefs.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn best_possible_equals_ideal_when_all_live() {
        let config = ResourceConfig::new("db", 8, 2);
        let (prefs, ideal) = ideal_state(&config, &nodes(4));
        let best = best_possible_state(&prefs, &live(&[0, 1, 2, 3]), |_, _| true);
        assert_eq!(best, ideal);
    }

    #[test]
    fn dead_master_replaced_by_preference_slave() {
        let config = ResourceConfig::new("db", 4, 2);
        let (prefs, ideal) = ideal_state(&config, &nodes(4));
        // Find a partition mastered by node 0 and note its slave.
        let p = (0..4)
            .map(PartitionId)
            .find(|&p| ideal.master_of(p) == Some(NodeId(0)))
            .unwrap();
        let slave = ideal.slaves_of(p)[0];
        let best = best_possible_state(&prefs, &live(&[1, 2, 3]), |_, _| true);
        assert_eq!(best.master_of(p), Some(slave));
        assert_eq!(best.state_of(p, NodeId(0)), ReplicaState::Offline);
    }

    #[test]
    fn an_unelectable_first_preference_is_passed_over_for_the_next() {
        let config = ResourceConfig::new("db", 1, 3);
        let (prefs, _) = ideal_state(&config, &nodes(3));
        let best = best_possible_state(&prefs, &live(&[0, 1, 2]), |_, node| node != NodeId(0));
        let p = PartitionId(0);
        assert_eq!(best.master_of(p), Some(NodeId(1)));
        assert_eq!(best.slaves_of(p), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn no_electable_node_means_no_master() {
        let config = ResourceConfig::new("db", 1, 3);
        let (prefs, _) = ideal_state(&config, &nodes(3));
        let best = best_possible_state(&prefs, &live(&[1, 2]), |_, node| node == NodeId(0));
        let p = PartitionId(0);
        assert_eq!(best.master_of(p), None);
        assert_eq!(best.slaves_of(p), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn no_live_nodes_means_unassigned() {
        let config = ResourceConfig::new("db", 2, 2);
        let (prefs, _) = ideal_state(&config, &nodes(2));
        let best = best_possible_state(&prefs, &BTreeSet::new(), |_, _| true);
        assert!(best.partitions.is_empty());
    }

    #[test]
    fn transitions_for_failover_demote_before_promote() {
        let config = ResourceConfig::new("db", 1, 2);
        let (prefs, ideal) = ideal_state(&config, &nodes(2));
        let best = best_possible_state(&prefs, &live(&[1]), |_, _| true);
        let plan = compute_transitions("db", &ideal, &best);
        // Node 0 (dead master): Master->Slave then Slave->Offline.
        // Node 1: Slave->Master.
        assert_eq!(plan.len(), 3);
        assert_eq!(
            (plan[0].node, plan[0].from, plan[0].to),
            (NodeId(0), ReplicaState::Master, ReplicaState::Slave)
        );
        assert_eq!(
            (plan[1].node, plan[1].from, plan[1].to),
            (NodeId(0), ReplicaState::Slave, ReplicaState::Offline)
        );
        assert_eq!(
            (plan[2].node, plan[2].from, plan[2].to),
            (NodeId(1), ReplicaState::Slave, ReplicaState::Master)
        );
    }

    #[test]
    fn retarget_swaps_one_slot_only() {
        let config = ResourceConfig::new("db", 4, 2);
        let (prefs, _) = ideal_state(&config, &nodes(3));
        let p = PartitionId(1);
        let from = prefs[1][0];
        let to = nodes(3)
            .into_iter()
            .find(|n| !prefs[1].contains(n))
            .unwrap();
        let next = retarget_preference_lists(&prefs, p, from, to).unwrap();
        assert_eq!(next[1][0], to, "target takes the vacated (master) slot");
        assert_eq!(next[1][1..], prefs[1][1..], "other replicas keep slots");
        for (i, list) in next.iter().enumerate() {
            if i != 1 {
                assert_eq!(list, &prefs[i], "partition {i} untouched");
            }
        }
        // Rejections: out-of-range partition, non-hosting donor, and a
        // target that already hosts the partition.
        assert!(retarget_preference_lists(&prefs, PartitionId(99), from, to).is_err());
        assert!(retarget_preference_lists(&prefs, p, to, from).is_err());
        assert!(retarget_preference_lists(&prefs, p, from, prefs[1][1]).is_err());
    }

    #[test]
    fn empty_plan_when_states_match() {
        let config = ResourceConfig::new("db", 8, 3);
        let (_, ideal) = ideal_state(&config, &nodes(4));
        assert!(compute_transitions("db", &ideal, &ideal).is_empty());
    }

    /// Applies a plan step-by-step, asserting every step is legal and that
    /// no partition ever has two masters.
    fn simulate(plan: &[Transition], start: &Assignment) -> Assignment {
        let mut state = start.clone();
        for step in plan {
            let actual = state.state_of(step.partition, step.node);
            assert_eq!(actual, step.from, "step from-state mismatch: {step}");
            assert!(actual.can_step_to(step.to), "illegal step {step}");
            state.set_state(step.partition, step.node, step.to);
            let masters = state
                .partitions
                .get(&step.partition)
                .map(|nodes| {
                    nodes
                        .values()
                        .filter(|&&s| s == ReplicaState::Master)
                        .count()
                })
                .unwrap_or(0);
            assert!(masters <= 1, "two masters after {step}");
        }
        state
    }

    proptest! {
        #[test]
        fn prop_plan_reaches_target_safely(
            num_partitions in 1u32..16,
            node_count in 1u16..8,
            replicas in 1usize..4,
            dead in proptest::collection::btree_set(0u16..8, 0..8),
            unelectable in proptest::collection::btree_set((0u32..16, 0u16..8), 0..32),
        ) {
            let config = ResourceConfig::new("db", num_partitions, replicas);
            let all = nodes(node_count);
            let (prefs, ideal) = ideal_state(&config, &all);
            let live: BTreeSet<NodeId> = all
                .iter()
                .copied()
                .filter(|n| !dead.contains(&n.0))
                .collect();
            let electable = |p: PartitionId, n: NodeId| !unelectable.contains(&(p.0, n.0));
            let best = best_possible_state(&prefs, &live, electable);
            for (&p, states) in &best.partitions {
                for (&n, &state) in states {
                    prop_assert!(state != ReplicaState::Master || electable(p, n));
                }
            }
            let plan = compute_transitions("db", &ideal, &best);
            let reached = simulate(&plan, &ideal);
            prop_assert_eq!(reached, best);
        }

        #[test]
        fn prop_recovery_plan_is_safe_too(
            num_partitions in 1u32..12,
            node_count in 2u16..6,
            dead_then_back in 0u16..6,
        ) {
            // Down then up: ideal -> degraded -> ideal again.
            let config = ResourceConfig::new("db", num_partitions, 2);
            let all = nodes(node_count);
            let dead = dead_then_back % node_count;
            let (prefs, ideal) = ideal_state(&config, &all);
            let degraded_live: BTreeSet<NodeId> =
                all.iter().copied().filter(|n| n.0 != dead).collect();
            let degraded = best_possible_state(&prefs, &degraded_live, |_, _| true);
            let down_plan = compute_transitions("db", &ideal, &degraded);
            let mid = simulate(&down_plan, &ideal);
            prop_assert_eq!(&mid, &degraded);
            let full_live: BTreeSet<NodeId> = all.iter().copied().collect();
            let restored = best_possible_state(&prefs, &full_live, |_, _| true);
            let up_plan = compute_transitions("db", &degraded, &restored);
            let end = simulate(&up_plan, &degraded);
            prop_assert_eq!(end, restored);
        }
    }
}
