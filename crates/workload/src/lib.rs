//! # li-workload — workload synthesis for the benchmark harness
//!
//! The paper characterizes its production workloads by distribution rather
//! than by trace: the Company Follow stores "have a Zipfian distribution
//! for their data size"; Kafka ingests self-similar activity-log text
//! ("user activity events corresponding to logins, page-views, clicks...").
//! This crate generates synthetic workloads with exactly those shapes (the
//! substitution for LinkedIn's production traces, per DESIGN.md; the
//! read-write cluster's "about 60% reads and 40% writes" stream lives with
//! its one bench, in `li_bench::mixed`):
//!
//! * [`zipf`] — a Zipfian sampler (Gray et al. rejection-free method, the
//!   same construction YCSB uses).
//! * [`keys`] — uniform/Zipfian key streams over formatted key spaces.
//! * [`events`] — activity-event text with realistic redundancy for the
//!   compression experiments.
//! * [`datasets`] — the two application datasets §II.C describes:
//!   Company Follow (two association stores with Zipfian list sizes) and
//!   People You May Know (per-member scored recommendation lists).
//! * [`site`] — the site-scale closed-loop population: an LDBC-shaped
//!   social graph (Zipfian follower counts, hot profiles, power-law write
//!   skew) plus per-driver-seeded mixed site traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod events;
pub mod keys;
pub mod site;
pub mod zipf;

pub use site::{
    SiteChunk, SiteGraph, SiteGraphChunks, SiteGraphConfig, SiteMix, SiteOp, SiteWorkload,
};
pub use zipf::Zipfian;
