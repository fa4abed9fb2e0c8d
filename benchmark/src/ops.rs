//! The benchmark's vocabulary: six op classes, and a seeded generator
//! that draws them with the three key skews the site uses — YCSB-Zipf hot
//! members for reads, a flatter theta=0.7 power law of active members for
//! writes, YCSB-Zipf companies as follow targets.

use bytes::Bytes;
use linkedin_data_infra::consumers::member_row_key;

use crate::rng::{split_seed, Rng, Zipf};

/// One timed closed-loop turn against the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    ProfileRead,
    PymkPage,
    FollowWrite,
    FollowersRead,
    ProfileUpdate,
    ActivitySend,
}

impl OpClass {
    pub const ALL: [OpClass; 6] = [
        OpClass::ProfileRead,
        OpClass::PymkPage,
        OpClass::FollowWrite,
        OpClass::FollowersRead,
        OpClass::ProfileUpdate,
        OpClass::ActivitySend,
    ];

    /// The classes a member waits for, whose percentiles are reported
    /// one by one as `core.<class>_*`. An activity send is a buffered
    /// append; its percentiles are `kafka.send_*`.
    pub const SERVING: [OpClass; 5] = [
        OpClass::ProfileRead,
        OpClass::PymkPage,
        OpClass::FollowWrite,
        OpClass::FollowersRead,
        OpClass::ProfileUpdate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpClass::ProfileRead => "profile_read",
            OpClass::PymkPage => "pymk_page",
            OpClass::FollowWrite => "follow_write",
            OpClass::FollowersRead => "followers_read",
            OpClass::ProfileUpdate => "profile_update",
            OpClass::ActivitySend => "activity_send",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    ProfileRead(u64),
    PymkPage(u64),
    FollowWrite {
        member: u64,
        company: u64,
    },
    FollowersRead(u64),
    ProfileUpdate {
        member: u64,
        text: String,
    },
    /// Key and payload are built here, outside the timed turn: the turn
    /// is the producer call alone.
    ActivitySend {
        member: u64,
        key: String,
        event: Bytes,
    },
}

impl Op {
    pub fn class(&self) -> OpClass {
        match self {
            Op::ProfileRead(_) => OpClass::ProfileRead,
            Op::PymkPage(_) => OpClass::PymkPage,
            Op::FollowWrite { .. } => OpClass::FollowWrite,
            Op::FollowersRead(_) => OpClass::FollowersRead,
            Op::ProfileUpdate { .. } => OpClass::ProfileUpdate,
            Op::ActivitySend { .. } => OpClass::ActivitySend,
        }
    }

    fn digest_into(&self, digest: &mut Fnv64) {
        digest.u64(self.class() as u64);
        match self {
            Op::ProfileRead(m) | Op::PymkPage(m) | Op::FollowersRead(m) => digest.u64(*m),
            Op::FollowWrite { member, company } => {
                digest.u64(*member);
                digest.u64(*company);
            }
            Op::ProfileUpdate { member, text } => {
                digest.u64(*member);
                digest.bytes(text.as_bytes());
            }
            Op::ActivitySend { member, event, .. } => {
                digest.u64(*member);
                digest.bytes(event);
            }
        }
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

/// Shares of the six classes, in `OpClass::ALL` order; they sum to 100.
pub type Mix = [u32; 6];

/// The three key skews over one population.
#[derive(Debug, Clone)]
pub struct Skews {
    hot_members: Zipf,
    active_members: Zipf,
    companies: Zipf,
}

impl Skews {
    pub fn new(members: u64, companies: u64) -> Self {
        Skews {
            hot_members: Zipf::new(members, 0.99),
            active_members: Zipf::new(members, 0.7),
            companies: Zipf::new(companies, 0.99),
        }
    }
}

const PROFILE_WORDS: [&str; 12] = [
    "engineer",
    "manager",
    "designer",
    "scientist",
    "analyst",
    "recruiter",
    "storage",
    "streams",
    "search",
    "graph",
    "product",
    "security",
];

/// One seeded op stream. The program sees only the ops it yields.
#[derive(Debug, Clone)]
pub struct OpGen<'a> {
    skews: &'a Skews,
    rng: Rng,
    mix: Mix,
    stream: u64,
    issued: u64,
}

impl<'a> OpGen<'a> {
    pub fn new(skews: &'a Skews, mix: Mix, seed: u64, stream: u64) -> Self {
        assert_eq!(mix.iter().sum::<u32>(), 100, "mix shares must sum to 100");
        OpGen {
            skews,
            rng: Rng::from_seed(split_seed(seed, stream)),
            mix,
            stream,
            issued: 0,
        }
    }

    /// The next op of the mix.
    pub fn next_op(&mut self) -> Op {
        let mut pick = self.rng.below(100) as u32;
        for class in OpClass::ALL {
            let share = self.mix[class as usize];
            if pick < share {
                return self.next_of(class);
            }
            pick -= share;
        }
        unreachable!("mix shares sum to 100")
    }

    /// The next op, of a given class. Reads go to hot members, writes
    /// come from active ones.
    pub fn next_of(&mut self, class: OpClass) -> Op {
        let members = match class {
            OpClass::ProfileRead | OpClass::PymkPage => &self.skews.hot_members,
            _ => &self.skews.active_members,
        };
        let member = members.sample(&mut self.rng);
        let company = self.skews.companies.sample(&mut self.rng);
        self.issued += 1;
        match class {
            OpClass::ProfileRead => Op::ProfileRead(member),
            OpClass::PymkPage => Op::PymkPage(member),
            OpClass::FollowWrite => Op::FollowWrite { member, company },
            OpClass::FollowersRead => Op::FollowersRead(company),
            OpClass::ProfileUpdate => {
                let mut word =
                    || PROFILE_WORDS[self.rng.below(PROFILE_WORDS.len() as u64) as usize];
                let (a, b, c) = (word(), word(), word());
                // Stream and sequence make every text distinct, so "the
                // last text written" is checkable.
                let text = format!(
                    "member {member} rev {}-{} {a} {b} {c}",
                    self.stream, self.issued
                );
                Op::ProfileUpdate { member, text }
            }
            OpClass::ActivitySend => {
                let page = self.rng.below(64);
                Op::ActivitySend {
                    member,
                    key: member_row_key(member).to_string(),
                    event: Bytes::from(format!(
                        "event=page_view member={member} page=/feed/{page}"
                    )),
                }
            }
        }
    }
}

/// Ops of each client stream that the digest covers. A prefix pins the
/// whole stream: the generator has no other input.
const DIGEST_CLIENT_OPS: usize = 4096;

/// FNV-64 over the head of every client stream of this mix.
pub fn ops_digest(skews: &Skews, mix: Mix, clients: u64, seed: u64) -> u64 {
    let mut digest = Fnv64::default();
    for client in 0..clients {
        let mut gen = OpGen::new(skews, mix, seed, client);
        for _ in 0..DIGEST_CLIENT_OPS {
            gen.next_op().digest_into(&mut digest);
        }
    }
    digest.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITE_MIX: Mix = [48, 20, 10, 0, 2, 20];

    #[test]
    fn same_seed_same_digest_and_clients_differ() {
        let skews = Skews::new(2_000, 200);
        let digest = |seed| ops_digest(&skews, SITE_MIX, 2, seed);
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(43));
        let head = |stream| {
            let mut gen = OpGen::new(&skews, SITE_MIX, 42, stream);
            (0..64).map(|_| gen.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(head(0), head(0));
        assert_ne!(head(0), head(1), "client 1 must not replay client 0");
    }

    #[test]
    fn mix_shares_hold() {
        let skews = Skews::new(2_000, 200);
        let mut gen = OpGen::new(&skews, SITE_MIX, 7, 0);
        let mut counts = [0u32; 6];
        for _ in 0..20_000 {
            counts[gen.next_op().class() as usize] += 1;
        }
        for class in OpClass::ALL {
            let share = f64::from(counts[class as usize]) / 200.0;
            let want = f64::from(SITE_MIX[class as usize]);
            assert!(
                (share - want).abs() < 1.5,
                "{}: {share}% vs {want}%",
                class.name()
            );
        }
    }

    #[test]
    fn profile_update_texts_are_distinct() {
        let skews = Skews::new(50, 5);
        let mut gen = OpGen::new(&skews, SITE_MIX, 7, 0);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            if let Op::ProfileUpdate { text, .. } = gen.next_of(OpClass::ProfileUpdate) {
                assert!(seen.insert(text));
            }
        }
    }
}
