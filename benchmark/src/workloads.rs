//! The five named workloads. Later issues cite these names; the shapes
//! are part of the ruler and change only in a PR of their own.
//! `BENCHMARK.json` gates the four of one client; the concurrent one is run
//! by hand.

use crate::ops::Mix;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Shares of profile_read, pymk_page, follow_write, followers_read,
    /// profile_update, activity_send.
    pub mix: Mix,
    /// Client threads. One client drives the stream tier inline and reads
    /// many keys on its own thread; more than one run beside a pump thread,
    /// push dispatch and Espresso's fan-out pool.
    pub clients: usize,
    /// Ops between two turns of the stream tier (inline workloads).
    pub pump_every: usize,
    /// After each chunk, empty the online activity consumers and, after
    /// the pump, load the warehouse: the whole Kafka path is then inside
    /// the wall and evenly spread, whenever the platform's own ten-second
    /// warehouse timer happens to fire.
    pub consume_inline: bool,
    /// Ops after which `peak_rss_mb` is read. A fixed amount of work, so
    /// that a faster program is not charged for the extra state it had
    /// time to build; about half of what a three-second process reaches on
    /// the host's slow days. A run that ends before the mark says so.
    pub rss_mark_ops: u64,
    /// Ops at which the measured segment ends even if `--seconds` have not
    /// passed: what the program keeps per op (every message, every
    /// rewritten hot row) must fit in memory, and the gates must finish,
    /// however fast the program gets. Only the firehose reaches its cap
    /// today.
    pub max_ops: u64,
}

const SITE_MIX: Mix = [48, 20, 10, 0, 2, 20];

pub const WORKLOADS: [Workload; 5] = [
    // The paper's read-dominated site with its write stream: every crate
    // works, so a read-path gain that costs the write path shows here.
    Workload {
        name: "site_mix",
        mix: SITE_MIX,
        clients: 1,
        pump_every: 64,
        consume_inline: false,
        rss_mark_ops: 12_000,
        max_ops: 1_000_000,
    },
    // Espresso and the Voldemort read-only store do all the work; sqlstore,
    // Databus and Kafka idle, so a write-path change must leave it unchanged.
    Workload {
        name: "read_heavy",
        mix: [70, 30, 0, 0, 0, 0],
        clients: 1,
        pump_every: 1024,
        consume_inline: false,
        rss_mark_ops: 40_000,
        max_ops: 4_000_000,
    },
    // sqlstore commit, binlog, relay, follow cacher and Voldemort puts do all
    // the work beside cache reads of the same hot lists; Espresso and Kafka idle.
    Workload {
        name: "follow_storm",
        mix: [0, 0, 90, 10, 0, 0],
        clients: 1,
        pump_every: 64,
        consume_inline: false,
        rss_mark_ops: 2_500,
        max_ops: 100_000,
    },
    // Kafka only: producer batching, broker append, online fetch, mirror and
    // warehouse, with produce and fetch on the same partition logs.
    Workload {
        name: "activity_firehose",
        mix: [0, 0, 0, 0, 0, 100],
        clients: 1,
        pump_every: 4096,
        consume_inline: true,
        rss_mark_ops: 1_500_000,
        max_ops: 6_000_000,
    },
    // site_mix from two client threads beside a pump thread and push dispatch:
    // a global lock or a lost wakeup shows here and nowhere else.
    Workload {
        name: "site_mix_mt",
        mix: SITE_MIX,
        clients: 2,
        pump_every: 64,
        consume_inline: false,
        rss_mark_ops: 20_000,
        max_ops: 1_000_000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
