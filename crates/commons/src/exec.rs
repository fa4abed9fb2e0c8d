//! What is left of the library's fan-out executor: the name of a choice
//! that nothing makes any more.
//!
//! Espresso's multi-key reads and writes run on the calling thread, one
//! master node after another, and Voldemort's quorum client orders
//! replica replies by their simulated completion times on one thread
//! (`li_voldemort::client`), so the library hands no work to a pool.
//! [`FanOutMode`] stays only because the site benchmark, which builds
//! against this library from outside the workspace, imports it to call
//! `EspressoCluster::set_fan_out_mode`, which selects nothing.

/// How the library runs a multi-key request: inline, in submission
/// order, the only way it has. See the module docs for why the name is
/// still here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanOutMode {
    /// Inline, submission-ordered execution.
    Deterministic,
}
