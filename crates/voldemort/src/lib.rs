//! # li-voldemort — Project Voldemort reproduction
//!
//! Paper §II: "Project Voldemort is a highly available, low-latency
//! distributed data store ... best categorized as a distributed hash table
//! (DHT) ... heavily inspired by Amazon's Dynamo."
//!
//! The pluggable architecture of Figure II.1 maps onto this crate's
//! modules, each implementing the same code interface so modules can be
//! interchanged and mocked, exactly as the paper prescribes:
//!
//! * [`client`] — the client API of Figure II.2: vector-clocked `get`/`put`
//!   (with optional server-side **transforms** that save a round trip),
//!   `apply_update` optimistic-locking retry loops, quorum coordination
//!   (N/R/W), **read repair**, and **hinted handoff**.
//! * [`routing`] — O(1) consistent-hash routing over the full replicated
//!   topology, the zone-aware multi-datacenter variant, and a Chord-style
//!   O(log N) finger-table baseline used by the benchmarks to reproduce the
//!   paper's routing claim.
//! * [`engine`] — the pluggable `StorageEngine` trait with the in-memory
//!   engine and the BDB-JE-analog log-structured engine (read-write
//!   traffic).
//! * [`readonly`] — the custom read-only engine and its three-phase
//!   build → pull → swap data cycle from Hadoop (Figure II.3), including
//!   MD5-keyed sorted index files, binary search, versioned directories,
//!   instantaneous rollback, and index-after-data fetch
//!   ordering.
//! * [`cluster`] / [`server`] — the node runtime: per-store engines, a
//!   success-ratio failure detector with async recovery probes, hint
//!   storage, and the admin service (store add/delete, rebalancing with
//!   request redirection).
//!
//! Everything runs over the deterministic [`li_commons::sim`] harness, so
//! quorum and failover behaviour is testable under injected crashes,
//! partitions, and message loss.
//!
//! ```
//! use li_voldemort::{StoreDef, VoldemortCluster};
//! use bytes::Bytes;
//!
//! // A 3-node cluster; one store with N=2 replicas, R=W=1.
//! let cluster = VoldemortCluster::new(32, 3)?;
//! cluster.add_store(StoreDef::read_write("profiles"))?;
//! let client = cluster.client("profiles")?;
//!
//! // Figure II.2's API: vector-clocked get/put with optimistic locking.
//! let clock = client.put_initial(b"member:42", Bytes::from_static(b"v1"))?;
//! client.put(b"member:42", &clock, Bytes::from_static(b"v2"))?;
//! let versions = client.get(b"member:42")?;
//! assert_eq!(versions[0].value.as_ref(), b"v2");
//! # Ok::<(), li_voldemort::VoldemortError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod migrate;
pub mod readonly;
pub mod routing;
pub mod server;
pub mod store;

pub use client::{
    HedgeConfig, QuorumConfig, QuorumStats, ReadFanOut, RoutingMode, StoreClient, Transform,
    UpdateAction,
};
pub use cluster::VoldemortCluster;
pub use error::VoldemortError;
pub use migrate::PartitionMigration;
pub use store::{EngineKind, StoreDef};
