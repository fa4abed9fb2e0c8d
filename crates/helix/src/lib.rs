//! # li-helix — generic cluster manager (Helix analog)
//!
//! Paper §IV.B: "The cluster manager, Helix, is a generic platform for
//! managing a cluster of nodes ... Helix is modelled as state machine"
//! with three states of the world:
//!
//! * **IDEALSTATE** — "the state when all configured nodes are up and
//!   running";
//! * **CURRENTSTATE** — what each node actually hosts right now;
//! * **BESTPOSSIBLESTATE** — "the state closest to the IDEALSTATE given the
//!   set of available nodes".
//!
//! "Helix generates tasks to transform the CURRENTSTATE of the cluster to
//! the BESTPOSSIBLESTATE", assigning each task (a replica state transition)
//! to a node. Espresso delegates failover and rebalancing to exactly this
//! machinery: partitions run the **MasterSlave** state model
//! (`Offline ↔ Slave ↔ Master`), a dead master is replaced by promoting a
//! live slave, and cluster expansion moves partitions by bootstrapping new
//! slaves before mastership handoff.
//!
//! The crate splits into a pure core and a coordination shell:
//!
//! * [`model`] — replica states, legal transitions, resource configuration;
//! * [`compute`] — pure functions: ideal state, best-possible state, and
//!   the safely-ordered transition plan between two states (property-tested
//!   invariants: never two masters, demotions before promotions);
//! * [`controller`] — the runtime: participants announce liveness as
//!   ephemeral znodes in [`li_zk`], the controller reacts to membership
//!   changes, drives transitions through registered handlers, and publishes
//!   the external view (the routing table Espresso's routers consult).
//!
//! ```
//! use li_commons::ring::{NodeId, PartitionId};
//! use li_helix::{Controller, Participant, ResourceConfig};
//! use li_zk::ZooKeeper;
//! use std::sync::Arc;
//!
//! let zk = ZooKeeper::new();
//! let controller = Controller::new(&zk, "demo")?;
//! let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
//! let _participants: Vec<Participant> = nodes
//!     .iter()
//!     .map(|&n| {
//!         controller.register_handler(n, Arc::new(|_t| Ok(())));
//!         Participant::join(&zk, "demo", n).unwrap()
//!     })
//!     .collect();
//! controller.add_resource(ResourceConfig::new("db", 8, 2), &nodes)?;
//! let view = controller.external_view("db")?;
//! assert!(view.master_of(PartitionId(0)).is_some());
//! # Ok::<(), li_helix::HelixError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod controller;
pub mod health;
pub mod model;

pub use compute::{
    best_possible_state, compute_transitions, ideal_state, retarget_preference_lists,
};
pub use controller::{Controller, ElectionTest, Participant, TransitionHandler};
pub use health::{check_health, Alert, HealthReport, Severity, SlaConfig};
pub use model::{
    Assignment, HelixError, PartitionAssignment, ReplicaState, ResourceConfig, Transition,
};
