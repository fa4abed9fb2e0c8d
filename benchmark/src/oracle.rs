//! What the stores must hold once the streams have drained, folded from
//! the benchmark's own op streams, and the gates that compare it with
//! what the platform serves.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use linkedin_data_infra::{DataPlatform, SiteBench};

use crate::ops::Op;

#[derive(Debug, Default, Clone)]
pub struct Oracle {
    /// Member -> companies its follow ops named.
    follows: BTreeMap<u64, BTreeSet<u64>>,
    /// Member -> texts one of which must be the profile: the last text of
    /// each client that updated it (clients run side by side, so which of
    /// their last writes landed last is not the benchmark's to say).
    texts: BTreeMap<u64, Vec<String>>,
}

impl Oracle {
    /// Records an op that is about to be issued.
    pub fn note(&mut self, op: &Op) {
        match op {
            Op::FollowWrite { member, company } => {
                self.follows.entry(*member).or_default().insert(*company);
            }
            Op::ProfileUpdate { member, text } => {
                self.texts.insert(*member, vec![text.clone()]);
            }
            _ => {}
        }
    }

    /// Folds in the ops of a client that ran beside this one.
    pub fn merge(&mut self, peer: Oracle) {
        for (member, companies) in peer.follows {
            self.follows.entry(member).or_default().extend(companies);
        }
        for (member, texts) in peer.texts {
            self.texts.entry(member).or_default().extend(texts);
        }
    }

    /// Every `(member, company)` of the follow ops, once in the member's
    /// cached list and once in the company's, beside the seeded edges.
    pub fn check_follows(&self, bench: &SiteBench) -> Result<String, String> {
        let platform = bench.platform();
        let graph = bench.graph();
        let mut by_company: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (&member, added) in &self.follows {
            let mut want: BTreeSet<u64> = graph.follows_of(member).iter().copied().collect();
            want.extend(added);
            let got = platform
                .followed_companies(member)
                .map_err(|e| e.to_string())?;
            let distinct: BTreeSet<u64> = got.iter().copied().collect();
            if distinct.len() != got.len() {
                return Err(format!("member {member}: a company is cached twice"));
            }
            if distinct != want {
                return Err(format!(
                    "member {member}: cache has {} follows, expected {}",
                    got.len(),
                    want.len()
                ));
            }
            for &company in added {
                by_company.entry(company).or_default().push(member);
            }
        }
        for (&company, members) in &by_company {
            let got = platform.followers(company).map_err(|e| e.to_string())?;
            let mut times: HashMap<u64, u32> = HashMap::with_capacity(got.len());
            for follower in got {
                *times.entry(follower).or_default() += 1;
            }
            if let Some(member) = members.iter().find(|m| times.get(m) != Some(&1)) {
                return Err(format!(
                    "company {company}: member {member} is cached {} times",
                    times.get(member).copied().unwrap_or(0)
                ));
            }
        }
        Ok(format!(
            "{} members and {} companies hold every follow exactly once",
            self.follows.len(),
            by_company.len()
        ))
    }

    /// Each updated member's profile is the last text written to it.
    pub fn check_profiles(&self, platform: &DataPlatform) -> Result<String, String> {
        for (&member, texts) in &self.texts {
            let got = platform.profile(member).map_err(|e| e.to_string())?;
            if !got.as_ref().is_some_and(|text| texts.contains(text)) {
                return Err(format!(
                    "member {member}: profile is {got:?}, last written {texts:?}"
                ));
            }
        }
        Ok(format!(
            "{} updated profiles read back their last text",
            self.texts.len()
        ))
    }
}

/// One correctness gate's verdict.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Gate {
    pub fn of(name: &'static str, verdict: Result<String, String>) -> Gate {
        let passed = verdict.is_ok();
        Gate {
            name,
            passed,
            detail: verdict.unwrap_or_else(|e| e),
        }
    }

    pub fn check(name: &'static str, passed: bool, detail: String) -> Gate {
        Gate {
            name,
            passed,
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn follow(member: u64, company: u64) -> Op {
        Op::FollowWrite { member, company }
    }

    fn update(member: u64, text: &str) -> Op {
        Op::ProfileUpdate {
            member,
            text: text.into(),
        }
    }

    #[test]
    fn folds_follows_and_last_texts() {
        let mut oracle = Oracle::default();
        for op in [
            follow(1, 10),
            follow(1, 10),
            follow(1, 11),
            update(1, "a"),
            update(1, "b"),
            Op::ProfileRead(1),
        ] {
            oracle.note(&op);
        }
        assert_eq!(oracle.follows[&1], BTreeSet::from([10, 11]));
        assert_eq!(oracle.texts[&1], vec!["b".to_string()]);

        let mut peer = Oracle::default();
        for op in [follow(1, 12), follow(2, 10), update(1, "c")] {
            peer.note(&op);
        }
        oracle.merge(peer);
        assert_eq!(oracle.follows[&1], BTreeSet::from([10, 11, 12]));
        assert_eq!(oracle.follows[&2], BTreeSet::from([10]));
        assert_eq!(oracle.texts[&1], vec!["b".to_string(), "c".to_string()]);

        // A later write from one thread supersedes both clients' texts.
        oracle.note(&update(1, "d"));
        assert_eq!(oracle.texts[&1], vec!["d".to_string()]);
    }

    #[test]
    fn follow_and_profile_gates_are_red_until_the_write_lands() {
        let bench = crate::setup::set_up(200, 5, true).unwrap().bench;
        let platform = bench.platform();
        let mut oracle = Oracle::default();
        let fresh = (0..bench.graph().company_count())
            .find(|c| !bench.graph().follows_of(7).contains(c))
            .unwrap();
        oracle.note(&follow(7, fresh));
        // Not yet written: the gate must be red.
        assert!(oracle.check_follows(&bench).is_err());
        platform.follow_company(7, fresh).unwrap();
        platform.pump_streams().unwrap();
        assert!(oracle.check_follows(&bench).is_ok());

        oracle.note(&update(7, "member 7 rev x"));
        assert!(oracle.check_profiles(platform).is_err());
        platform.update_profile(7, "member 7 rev x").unwrap();
        assert!(oracle.check_profiles(platform).is_ok());
    }
}
