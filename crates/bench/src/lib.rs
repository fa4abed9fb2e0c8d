//! Benchmark harness support (targets live in benches/): the baselines and
//! models that exist only to be measured against. No library crate calls
//! them; each serves one comparison in the evaluation.
//!
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
pub mod traditional_mq;
