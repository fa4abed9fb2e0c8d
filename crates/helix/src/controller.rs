//! The controller runtime and participant glue, backed by `li-zk`.
//!
//! Layout in the coordination service (per cluster):
//!
//! ```text
//! /helix/<cluster>/live/<node-id>          ephemeral, created by participants
//! /helix/<cluster>/resources/<name>        JSON: config + preference lists
//! /helix/<cluster>/externalview/<name>     JSON: the published Assignment
//! ```
//!
//! The controller derives BESTPOSSIBLESTATE from live instances, diffs it
//! against the last published view (its CURRENTSTATE approximation — in
//! this in-process reproduction a handler failure is the only way they can
//! diverge, and those replicas are retried on the next rebalance), drives
//! the transition tasks through each node's [`TransitionHandler`], and
//! publishes the resulting external view for routers.

use parking_lot::Mutex;
use serde::{get_field, object, DeError, Deserialize, JsonValue, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use li_commons::metrics::{Counter, MetricsRegistry};
use li_commons::ring::NodeId;
use li_commons::watch;
use li_zk::{CreateMode, Session, SessionId, WatchEvent, ZooKeeper};

use crate::compute::{best_possible_state, compute_transitions, ideal_state};
use crate::model::{Assignment, HelixError, PartitionAssignment, ResourceConfig, Transition};

/// Callback a participant registers to execute transition tasks. Returning
/// `Err` tells the controller the replica is not in the target state.
pub type TransitionHandler = Arc<dyn Fn(&Transition) -> Result<(), String> + Send + Sync>;

struct ResourceMeta {
    config: ResourceConfig,
    preference_lists: Vec<PartitionAssignment>,
}

impl Serialize for ResourceMeta {
    fn to_json_value(&self) -> JsonValue {
        object(vec![
            ("config", self.config.to_json_value()),
            ("preference_lists", self.preference_lists.to_json_value()),
        ])
    }
}

impl Deserialize for ResourceMeta {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(ResourceMeta {
            config: get_field(value, "config")?,
            preference_lists: get_field(value, "preference_lists")?,
        })
    }
}

/// A node participating in a managed cluster. Its liveness is an ephemeral
/// znode; losing the session (crash) removes it and triggers rebalancing.
pub struct Participant {
    session: Session,
    node: NodeId,
    cluster: String,
}

impl Participant {
    /// Joins `cluster` as `node`, announcing liveness.
    pub fn join(zk: &ZooKeeper, cluster: &str, node: NodeId) -> Result<Self, HelixError> {
        let session = zk.connect();
        session.create_recursive(
            &format!("/helix/{cluster}/live/{}", node.0),
            node.0.to_string().into_bytes(),
            CreateMode::Ephemeral,
        )?;
        Ok(Participant {
            session,
            node,
            cluster: cluster.to_string(),
        })
    }

    /// This participant's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The underlying session id (expire it to simulate a crash).
    pub fn session_id(&self) -> SessionId {
        self.session.id()
    }

    /// Gracefully leaves the cluster (deletes the liveness node).
    pub fn leave(&self) -> Result<(), HelixError> {
        self.session
            .delete(&format!("/helix/{}/live/{}", self.cluster, self.node.0), None)?;
        Ok(())
    }
}

/// Controller observability under `helix.<cluster>`: state transitions
/// fired on participants and rebalance passes run.
struct ControllerMetrics {
    transitions_fired: Counter,
    rebalances: Counter,
}

impl ControllerMetrics {
    fn new(registry: &Arc<MetricsRegistry>, cluster: &str) -> Self {
        let scope = registry.scope(format!("helix.{cluster}"));
        ControllerMetrics {
            transitions_fired: scope.counter("transitions_fired"),
            rebalances: scope.counter("rebalances"),
        }
    }
}

/// The cluster controller.
pub struct Controller {
    session: Session,
    cluster: String,
    handlers: Mutex<HashMap<NodeId, TransitionHandler>>,
    /// Per-resource external-view watch channels: each rebalance publishes
    /// the achieved view here as well as to the coordination service, so
    /// routers hold a locally cached copy instead of doing a ZK get + JSON
    /// parse per request.
    view_watch: Mutex<HashMap<String, watch::Sender<Arc<Assignment>>>>,
    registry: Arc<MetricsRegistry>,
    metrics: ControllerMetrics,
}

impl Controller {
    /// Creates a controller for `cluster`, laying out the base znodes.
    pub fn new(zk: &ZooKeeper, cluster: &str) -> Result<Self, HelixError> {
        Self::with_metrics(zk, cluster, &MetricsRegistry::new())
    }

    /// Creates a controller that reports into a shared metrics registry
    /// (under `helix.<cluster>`).
    pub fn with_metrics(
        zk: &ZooKeeper,
        cluster: &str,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Self, HelixError> {
        let session = zk.connect();
        for dir in ["live", "resources", "externalview"] {
            match session.create_recursive(
                &format!("/helix/{cluster}/{dir}"),
                Vec::new(),
                CreateMode::Persistent,
            ) {
                Ok(_) | Err(li_zk::ZkError::NodeExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(Controller {
            session,
            cluster: cluster.to_string(),
            handlers: Mutex::new(HashMap::new()),
            view_watch: Mutex::new(HashMap::new()),
            registry: Arc::clone(registry),
            metrics: ControllerMetrics::new(registry, cluster),
        })
    }

    /// The metrics registry this controller reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Registers the transition handler for `node`. In a networked
    /// deployment this dispatch would be an RPC; in-process it is a direct
    /// call into the participant's state machine.
    pub fn register_handler(&self, node: NodeId, handler: TransitionHandler) {
        self.handlers.lock().insert(node, handler);
    }

    /// Adds a managed resource over `nodes` (its configured node set) and
    /// performs the initial rebalance.
    pub fn add_resource(
        &self,
        config: ResourceConfig,
        nodes: &[NodeId],
    ) -> Result<(), HelixError> {
        let (preference_lists, _) = ideal_state(&config, nodes);
        let meta = ResourceMeta {
            config,
            preference_lists,
        };
        let path = format!("/helix/{}/resources/{}", self.cluster, meta.config.name);
        let json = serde_json::to_vec(&meta)
            .map_err(|e| HelixError::Coordination(e.to_string()))?;
        self.session.create(&path, json, CreateMode::Persistent)?;
        self.rebalance(&meta.config.name)?;
        Ok(())
    }

    /// Expands a resource to a new configured node set: recomputes the
    /// preference lists (the paper's partition migration during cluster
    /// expansion) and rebalances.
    pub fn expand_resource(&self, name: &str, nodes: &[NodeId]) -> Result<(), HelixError> {
        let path = format!("/helix/{}/resources/{name}", self.cluster);
        let (data, stat) = self.session.get(&path)?;
        let meta: ResourceMeta = serde_json::from_slice(&data)
            .map_err(|e| HelixError::Coordination(e.to_string()))?;
        let (preference_lists, _) = ideal_state(&meta.config, nodes);
        let next = ResourceMeta {
            config: meta.config,
            preference_lists,
        };
        let json = serde_json::to_vec(&next)
            .map_err(|e| HelixError::Coordination(e.to_string()))?;
        self.session.set(&path, json, Some(stat.version))?;
        self.rebalance(name)?;
        Ok(())
    }

    /// The stored preference list of one partition of `resource` (position
    /// 0 is the intended master).
    pub fn preference_list(
        &self,
        resource: &str,
        partition: li_commons::ring::PartitionId,
    ) -> Result<PartitionAssignment, HelixError> {
        let path = format!("/helix/{}/resources/{resource}", self.cluster);
        let (data, _) = self
            .session
            .get(&path)
            .map_err(|_| HelixError::UnknownResource(resource.to_string()))?;
        let meta: ResourceMeta = serde_json::from_slice(&data)
            .map_err(|e| HelixError::Coordination(e.to_string()))?;
        meta.preference_lists
            .get(partition.0 as usize)
            .cloned()
            .ok_or_else(|| HelixError::Retarget(format!("partition {partition} out of range")))
    }

    /// Computes and installs the target partition map for moving one
    /// replica of `partition` from `from` to `to`, then rebalances. The
    /// external view — and every [`Controller::watch_external_view`]
    /// subscriber — flips to the new owner through the normal safety
    /// phases: the donor demotes and drops first, the newcomer bootstraps
    /// `Offline → Slave`, and any mastership lands via a final
    /// `Slave → Master` promotion (which is where Espresso's
    /// drain-the-relay-before-mastering hook runs).
    pub fn retarget_partition(
        &self,
        resource: &str,
        partition: li_commons::ring::PartitionId,
        from: NodeId,
        to: NodeId,
    ) -> Result<Vec<Transition>, HelixError> {
        let path = format!("/helix/{}/resources/{resource}", self.cluster);
        let (data, stat) = self
            .session
            .get(&path)
            .map_err(|_| HelixError::UnknownResource(resource.to_string()))?;
        let meta: ResourceMeta = serde_json::from_slice(&data)
            .map_err(|e| HelixError::Coordination(e.to_string()))?;
        let preference_lists =
            crate::compute::retarget_preference_lists(&meta.preference_lists, partition, from, to)
                .map_err(HelixError::Retarget)?;
        let next = ResourceMeta {
            config: meta.config,
            preference_lists,
        };
        let json = serde_json::to_vec(&next)
            .map_err(|e| HelixError::Coordination(e.to_string()))?;
        self.session.set(&path, json, Some(stat.version))?;
        self.rebalance(resource)
    }

    /// Names of managed resources.
    pub fn resources(&self) -> Result<Vec<String>, HelixError> {
        Ok(self
            .session
            .children(&format!("/helix/{}/resources", self.cluster))?)
    }

    /// Currently live node ids (from ephemeral liveness znodes).
    pub fn live_nodes(&self) -> Result<BTreeSet<NodeId>, HelixError> {
        let children = self
            .session
            .children(&format!("/helix/{}/live", self.cluster))?;
        Ok(children
            .iter()
            .filter_map(|name| name.parse::<u16>().ok().map(NodeId))
            .collect())
    }

    /// The last published external view for `resource` (empty if never
    /// published).
    pub fn external_view(&self, resource: &str) -> Result<Assignment, HelixError> {
        let path = format!("/helix/{}/externalview/{resource}", self.cluster);
        match self.session.get(&path) {
            Ok((data, _)) => Assignment::from_json(
                std::str::from_utf8(&data)
                    .map_err(|e| HelixError::BadExternalView(e.to_string()))?,
            ),
            Err(li_zk::ZkError::NoNode(_)) => Ok(Assignment::new()),
            Err(e) => Err(e.into()),
        }
    }

    /// Subscribes to `resource`'s external view: the receiver's
    /// [`watch::Receiver::get`] is always the latest published assignment
    /// (seeded from the coordination service on first subscription), and
    /// every subsequent [`Controller::rebalance`] pushes the new view
    /// without the subscriber polling ZK.
    pub fn watch_external_view(
        &self,
        resource: &str,
    ) -> Result<watch::Receiver<Arc<Assignment>>, HelixError> {
        let mut watches = self.view_watch.lock();
        if let Some(sender) = watches.get(resource) {
            return Ok(sender.subscribe());
        }
        let current = self.external_view(resource)?;
        let (tx, rx) = watch::channel(Arc::new(current));
        watches.insert(resource.to_string(), tx);
        Ok(rx)
    }

    /// Recomputes BESTPOSSIBLESTATE for `resource`, executes the transition
    /// plan, and publishes the achieved external view. Returns the
    /// transitions that were successfully executed.
    pub fn rebalance(&self, resource: &str) -> Result<Vec<Transition>, HelixError> {
        let meta_path = format!("/helix/{}/resources/{resource}", self.cluster);
        let (data, _) = self
            .session
            .get(&meta_path)
            .map_err(|_| HelixError::UnknownResource(resource.to_string()))?;
        let meta: ResourceMeta = serde_json::from_slice(&data)
            .map_err(|e| HelixError::Coordination(e.to_string()))?;

        self.metrics.rebalances.inc();
        let live = self.live_nodes()?;
        let current = self.external_view(resource)?;
        let target = best_possible_state(&meta.preference_lists, &live);
        let plan = compute_transitions(resource, &current, &target);

        let mut achieved = current;
        let mut executed = Vec::with_capacity(plan.len());
        let handlers = self.handlers.lock().clone();
        for step in plan {
            let outcome = match handlers.get(&step.node) {
                // A dead node can't execute anything; its replicas just
                // drop out of the view.
                Some(handler) if live.contains(&step.node) => handler(&step),
                _ => Ok(()),
            };
            match outcome {
                Ok(()) => {
                    self.metrics.transitions_fired.inc();
                    achieved.set_state(step.partition, step.node, step.to);
                    executed.push(step);
                }
                Err(msg) => {
                    // Leave the replica where it was; the next rebalance
                    // will retry. Surface the failure to the caller.
                    return Err(HelixError::TransitionFailed(format!("{step}: {msg}")));
                }
            }
        }

        let view_path = format!("/helix/{}/externalview/{resource}", self.cluster);
        let json = achieved.to_json().into_bytes();
        match self.session.set(&view_path, json.clone(), None) {
            Ok(_) => {}
            Err(li_zk::ZkError::NoNode(_)) => {
                self.session
                    .create(&view_path, json, CreateMode::Persistent)?;
            }
            Err(e) => return Err(e.into()),
        }
        if let Some(sender) = self.view_watch.lock().get(resource) {
            sender.send(Arc::new(achieved));
        }
        Ok(executed)
    }

    /// Rebalances every managed resource (the controller's reaction to a
    /// membership change).
    pub fn rebalance_all(&self) -> Result<(), HelixError> {
        for resource in self.resources()? {
            self.rebalance(&resource)?;
        }
        Ok(())
    }

    /// Registers a one-shot watch on cluster membership; the caller calls
    /// [`Controller::rebalance_all`] when it fires and re-arms.
    pub fn watch_membership(
        &self,
    ) -> Result<crossbeam::channel::Receiver<WatchEvent>, HelixError> {
        Ok(self
            .session
            .watch_children(&format!("/helix/{}/live", self.cluster))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ReplicaState;
    use li_commons::ring::PartitionId;
    use parking_lot::Mutex as PMutex;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// Records transitions per node for assertions.
    fn recording_handler(log: Arc<PMutex<Vec<Transition>>>) -> TransitionHandler {
        Arc::new(move |t: &Transition| {
            log.lock().push(t.clone());
            Ok(())
        })
    }

    fn cluster_with(
        n: u16,
    ) -> (
        ZooKeeper,
        Controller,
        Vec<Participant>,
        Arc<PMutex<Vec<Transition>>>,
    ) {
        let zk = ZooKeeper::new();
        let controller = Controller::new(&zk, "espresso").unwrap();
        let log = Arc::new(PMutex::new(Vec::new()));
        let participants: Vec<Participant> = nodes(n)
            .into_iter()
            .map(|node| {
                let p = Participant::join(&zk, "espresso", node).unwrap();
                controller.register_handler(node, recording_handler(log.clone()));
                p
            })
            .collect();
        (zk, controller, participants, log)
    }

    #[test]
    fn initial_rebalance_reaches_ideal() {
        let (_zk, controller, _parts, _log) = cluster_with(4);
        controller
            .add_resource(ResourceConfig::new("db", 8, 2), &nodes(4))
            .unwrap();
        let view = controller.external_view("db").unwrap();
        for p in 0..8 {
            assert!(view.master_of(PartitionId(p)).is_some(), "p{p} has master");
            assert_eq!(view.slaves_of(PartitionId(p)).len(), 1);
        }
    }

    #[test]
    fn crash_promotes_slave_and_recovery_restores() {
        let (zk, controller, parts, log) = cluster_with(3);
        controller
            .add_resource(ResourceConfig::new("db", 6, 2), &nodes(3))
            .unwrap();
        let before = controller.external_view("db").unwrap();
        let victim = parts[0].node();
        let victim_partitions: Vec<PartitionId> = (0..6)
            .map(PartitionId)
            .filter(|&p| before.master_of(p) == Some(victim))
            .collect();
        assert!(!victim_partitions.is_empty());

        log.lock().clear();
        zk.expire(parts[0].session_id());
        controller.rebalance_all().unwrap();

        let after = controller.external_view("db").unwrap();
        for &p in &victim_partitions {
            let new_master = after.master_of(p).expect("promoted");
            assert_ne!(new_master, victim);
            assert!(
                before.slaves_of(p).contains(&new_master),
                "promoted from the old slave set"
            );
            assert_eq!(after.state_of(p, victim), ReplicaState::Offline);
        }
        // Promotions went through Slave->Master only.
        assert!(log
            .lock()
            .iter()
            .all(|t| t.from.can_step_to(t.to)));

        // Node rejoins; view converges back to ideal (every partition has
        // full replica count again).
        let p0 = Participant::join(&zk, "espresso", victim).unwrap();
        controller.register_handler(victim, recording_handler(log.clone()));
        controller.rebalance_all().unwrap();
        let restored = controller.external_view("db").unwrap();
        for p in 0..6 {
            assert_eq!(
                restored.slaves_of(PartitionId(p)).len() + 1,
                2,
                "full replication restored for p{p}"
            );
        }
        drop(p0);
    }

    #[test]
    fn graceful_leave_triggers_same_recovery() {
        let (_zk, controller, parts, _log) = cluster_with(2);
        controller
            .add_resource(ResourceConfig::new("db", 2, 2), &nodes(2))
            .unwrap();
        parts[1].leave().unwrap();
        controller.rebalance_all().unwrap();
        let view = controller.external_view("db").unwrap();
        for p in 0..2 {
            assert_eq!(view.master_of(PartitionId(p)), Some(parts[0].node()));
            assert!(view.slaves_of(PartitionId(p)).is_empty());
        }
    }

    #[test]
    fn expansion_moves_partitions_to_new_node() {
        let (zk, controller, _parts, log) = cluster_with(2);
        controller
            .add_resource(ResourceConfig::new("db", 8, 2), &nodes(2))
            .unwrap();
        // Add a third node and expand the resource onto it.
        let newbie = NodeId(2);
        let _p = Participant::join(&zk, "espresso", newbie).unwrap();
        controller.register_handler(newbie, recording_handler(log.clone()));
        log.lock().clear();
        controller.expand_resource("db", &nodes(3)).unwrap();
        let view = controller.external_view("db").unwrap();
        let hosted = view.partitions_on(newbie);
        assert!(!hosted.is_empty(), "new node hosts replicas");
        // The new node never jumps straight to Master: its first transition
        // per partition is always the Offline->Slave bootstrap, and any
        // mastership comes via a later Slave->Master step (the paper's
        // "bootstrap from snapshot, catch up, then hand off mastership").
        let steps = log.lock();
        let mut first_step_per_partition: std::collections::BTreeMap<PartitionId, &Transition> =
            std::collections::BTreeMap::new();
        for t in steps.iter().filter(|t| t.node == newbie) {
            first_step_per_partition.entry(t.partition).or_insert(t);
        }
        assert!(!first_step_per_partition.is_empty());
        for (p, t) in first_step_per_partition {
            assert_eq!(
                (t.from, t.to),
                (ReplicaState::Offline, ReplicaState::Slave),
                "partition {p} first step on new node"
            );
        }
    }

    #[test]
    fn failed_transition_surfaces_and_view_not_corrupted() {
        let zk = ZooKeeper::new();
        let controller = Controller::new(&zk, "c").unwrap();
        let _p0 = Participant::join(&zk, "c", NodeId(0)).unwrap();
        controller.register_handler(
            NodeId(0),
            Arc::new(|_t: &Transition| Err("disk full".into())),
        );
        let err = controller
            .add_resource(ResourceConfig::new("db", 1, 1), &nodes(1))
            .unwrap_err();
        assert!(matches!(err, HelixError::TransitionFailed(_)));
        // Nothing published as mastered.
        let view = controller.external_view("db").unwrap();
        assert_eq!(view.master_of(PartitionId(0)), None);
    }

    #[test]
    fn membership_watch_fires_on_crash() {
        let (zk, controller, parts, _log) = cluster_with(2);
        let rx = controller.watch_membership().unwrap();
        zk.expire(parts[1].session_id());
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn external_view_watch_tracks_rebalances_without_polling() {
        let (zk, controller, parts, _log) = cluster_with(3);
        controller
            .add_resource(ResourceConfig::new("db", 6, 2), &nodes(3))
            .unwrap();
        let rx = controller.watch_external_view("db").unwrap();
        // Seeded from the published view.
        assert_eq!(*rx.get(), controller.external_view("db").unwrap());
        // A crash + rebalance pushes the new view into the cached copy.
        zk.expire(parts[0].session_id());
        controller.rebalance_all().unwrap();
        assert_eq!(*rx.get(), controller.external_view("db").unwrap());
        assert!(
            (0..6).all(|p| rx.get().master_of(PartitionId(p)) != Some(parts[0].node())),
            "crashed node no longer mastered in the cached view"
        );
    }

    #[test]
    fn retarget_moves_mastership_through_safety_phases() {
        let (_zk, controller, _parts, log) = cluster_with(3);
        controller
            .add_resource(ResourceConfig::new("db", 3, 2), &nodes(3))
            .unwrap();
        let p = PartitionId(0);
        let before = controller.external_view("db").unwrap();
        let donor = before.master_of(p).unwrap();
        let target = nodes(3)
            .into_iter()
            .find(|&n| before.state_of(p, n) == ReplicaState::Offline)
            .unwrap();

        log.lock().clear();
        let rx = controller.watch_external_view("db").unwrap();
        controller.retarget_partition("db", p, donor, target).unwrap();

        let after = controller.external_view("db").unwrap();
        assert_eq!(after.master_of(p), Some(target), "mastership moved");
        assert_eq!(after.state_of(p, donor), ReplicaState::Offline);
        assert_eq!(*rx.get(), after, "watch subscribers saw the flip");
        // The newcomer passed through Slave before mastering, and the donor
        // demoted before the promotion happened.
        let steps = log.lock();
        let target_steps: Vec<_> = steps.iter().filter(|t| t.node == target).collect();
        assert_eq!(
            (target_steps[0].from, target_steps[0].to),
            (ReplicaState::Offline, ReplicaState::Slave)
        );
        let demote_at = steps
            .iter()
            .position(|t| t.node == donor && t.to == ReplicaState::Slave)
            .expect("donor demoted");
        let promote_at = steps
            .iter()
            .position(|t| t.node == target && t.to == ReplicaState::Master)
            .expect("target promoted");
        assert!(demote_at < promote_at, "never two masters");
        drop(steps);

        // Stored preference list reflects the move.
        let prefs = controller.preference_list("db", p).unwrap();
        assert!(prefs.contains(&target) && !prefs.contains(&donor));
        // Invalid move rejected without disturbing the view.
        assert!(matches!(
            controller.retarget_partition("db", p, donor, target),
            Err(HelixError::Retarget(_))
        ));
        assert_eq!(controller.external_view("db").unwrap(), after);
    }

    #[test]
    fn unknown_resource_rejected() {
        let zk = ZooKeeper::new();
        let controller = Controller::new(&zk, "c").unwrap();
        assert!(matches!(
            controller.rebalance("nope"),
            Err(HelixError::UnknownResource(_))
        ));
    }
}
