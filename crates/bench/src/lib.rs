//! Benchmark harness support (targets live in benches/): the site load
//! harness, and the baselines and models that exist only to be measured
//! against. No library crate calls them.
//!
//! * [`site`] — the closed-loop site driver over a prepared
//!   `DataPlatform`: SLO and conservation gates, the run report (C-24,
//!   C-25; `benches/site_scale.rs`, `tests/site_scale.rs`).
//! * [`sched`] — the M:N scheduler multiplexing [`site`]'s logical
//!   drivers onto a bounded set of scoped worker threads.
//! * [`chord`] — a Chord-style finger-table overlay, the O(log N) side of
//!   C-4 (`benches/routing.rs`).
//! * [`traditional_mq`] — a conventional message queue (per-message ids,
//!   broker-side ack state), the other side of C-12 (`benches/kafka.rs`).
//! * [`net`] — the `sendfile` zero-copy vs 4-copy send-path model of C-15
//!   (`benches/kafka.rs`).
//! * [`mixed`] — the 60/40 read/write operation stream of C-1
//!   (`benches/voldemort_serving.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chord;
pub mod mixed;
pub mod net;
pub mod sched;
pub mod site;
pub mod traditional_mq;
