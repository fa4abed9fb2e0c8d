//! The site benchmark: five named workloads over the assembled
//! `DataPlatform`, p50/p95 per serving path, and an outside-in traced run
//! per crate. See `README.md` for the metrics and how they interact.

pub mod client;
pub mod host;
pub mod ops;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod rng;
pub mod run;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;
