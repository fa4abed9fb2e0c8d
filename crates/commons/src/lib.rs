//! # li-commons
//!
//! Shared substrates for the reproduction of *Data Infrastructure at
//! LinkedIn* (ICDE 2012). Every system in the paper — Voldemort, Databus,
//! Espresso, Kafka — leans on a common set of distributed-systems
//! primitives. This crate provides them, implemented from scratch:
//!
//! * [`clock`] — vector clocks (\[LAM78\] in the paper) used by Voldemort to
//!   version tuples and detect concurrent writes.
//! * [`ring`] — the non-order-preserving consistent hash ring with fixed
//!   logical partitions and zone-aware replica selection.
//! * [`schema`] — an Avro-analog self-describing binary record codec with
//!   writer-schema versioning and compatible evolution, used by Databus and
//!   Espresso for source-independent change serialization.
//! * [`compress`] — an LZ77-family compressor used by Kafka producers to
//!   reproduce the paper's ~2/3 bandwidth-saving claim.
//! * [`failure`] — the success-ratio failure detector with asynchronous
//!   recovery probing described in the Voldemort section.
//! * [`sim`] — a deterministic in-process cluster harness: virtual clock,
//!   lossy/partitionable network, crashable nodes. All protocol state
//!   machines are exercised through it.
//! * [`chaos`] — the seeded chaos scheduler over [`sim`]: generates whole
//!   fault schedules from a `u64` seed, records replayable event traces,
//!   and reports invariant violations with a one-line repro.
//! * [`md5`], [`crc32`], [`fnv`], [`varint`] — the low-level codecs the
//!   paper's systems assume (MD5-keyed read-only indexes, CRC-framed log
//!   entries, hash routing, compact integer framing).
//! * [`exec`] — a bounded fan-out executor (worker pool + quorum waiter
//!   with hedging) behind Voldemort's parallel quorum I/O, with a
//!   deterministic inline mode for chaos replays.
//! * [`hist`] — a latency histogram for the benchmark harness.
//! * [`metrics`] — the unified metrics registry (counters, gauges,
//!   histograms) every system exports its observability through.
//! * [`shard`] — hash-striped locks with ordered multi-stripe acquisition
//!   (the partitioned-state substrate behind the sharded serving runtime).
//! * [`watch`] — a single-value watch channel for config/external-view and
//!   high-water-mark propagation instead of polling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bufio;
pub mod chaos;
pub mod clock;
pub mod compress;
pub mod crc32;
pub mod exec;
pub mod failure;
pub mod fnv;
pub mod hist;
pub mod md5;
pub mod metrics;
pub mod migrate;
pub mod ring;
pub mod schema;
pub mod shard;
pub mod sim;
pub mod varint;
pub mod watch;

pub use clock::{Occurred, VectorClock, Versioned};
pub use ring::{HashRing, NodeId, PartitionId, ZoneId};
