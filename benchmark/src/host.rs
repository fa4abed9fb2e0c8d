//! How slow the host's memory system is right now.
//!
//! The benchmark runs on a few virtual cores of a shared host. What the
//! other guests do to the shared caches and memory moves every timing of
//! this memory-bound program together: by 10-15% from one quarter of a
//! minute to the next, and by a factor of 1.4 and more for half an hour
//! when the host goes from its quiet state to its busy one. No run of
//! half a minute averages that out, and ten runs in one state have a
//! median a quarter off ten runs in the other. So the benchmark measures
//! it: between the slices of a run it walks a chain of dependent loads
//! from memory, and every time it gates is divided by the slowdown the
//! walks on either side of it saw.
//!
//! What that buys, measured on the host this was built on (README,
//! "Reference numbers"): over 40 processes each of `read_heavy` and
//! `follow_storm`, run in turn while the host swung by a factor of 2.8,
//! throughput, p50 and p95 followed such a walk with a log-log correlation
//! of 0.90-0.97 and a slope of 0.8-1.4, and their quartile spread fell
//! from 33-46% to 8-16%; from the quiet state to the busy one the walk
//! slowed by 1.3-1.5 and the workloads by 1.4-1.6. In a steady state the
//! walk explains little of what is left (page faults on fresh memory, where
//! a process's pages land), and adjusted and measured spread alike.
//!
//! The probe is the benchmark's own code and touches nothing of the
//! program, so a change to the program moves an adjusted time exactly as
//! it moves the measured one; only what the host does is divided out. Both
//! are printed and recorded.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the table: 64 MiB of `u32`, several times any cache it
/// could share, so that a step is a load from memory.
const ENTRIES: usize = 1 << 24;
/// Steps of one probe: about 4 ms on a quiet host.
const STEPS: usize = 1 << 15;
/// What a step takes on the reference host in its quiet state (2 vCPUs of
/// a Xeon at 2.1 GHz in a Firecracker guest, 4 KiB pages), in nanoseconds:
/// the fastest of 216 processes' median probes took 195, a tenth of them
/// under 217. A constant, so that adjusted times of different runs
/// compare; on another host every adjusted time is off by one common
/// factor.
pub const REFERENCE_STEP_NS: f64 = 200.0;

pub struct HostProbe {
    /// `next[i]` is where the walk goes from `i`. The map `i -> a*i + c`
    /// modulo a power of two with `a = 1 (mod 4)` and `c` odd is one cycle
    /// through every entry, and its jumps have no stride to prefetch.
    next: Vec<u32>,
    at: u32,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    pub fn new() -> Self {
        let mask = (ENTRIES - 1) as u32;
        let next = (0..ENTRIES as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B1).wrapping_add(0x7F4A_7C15) & mask)
            .collect();
        HostProbe { next, at: 0 }
    }

    /// Walks `STEPS` dependent loads. Returns the slowdown: the time of a
    /// step over the reference's, above 1 when the host is slower.
    pub fn slowdown(&mut self) -> f64 {
        let started = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        started.elapsed().as_nanos() as f64 / STEPS as f64 / REFERENCE_STEP_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_through_every_entry() {
        let probe = HostProbe::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = probe.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
    }

    #[test]
    fn a_probe_reads_a_positive_slowdown_and_moves_on() {
        let mut probe = HostProbe::new();
        assert!(probe.slowdown() > 0.0);
        assert_ne!(probe.at, 0);
    }
}
