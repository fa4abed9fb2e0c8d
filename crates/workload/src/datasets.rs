//! Application dataset synthesizers for the two Voldemort case studies of
//! §II.C: Company Follow and People You May Know.

use rand::Rng;

use crate::keys::{company_key, member_key};
use crate::zipf::{zipf_size, Zipfian};

/// One member→companies association (the first Company Follow store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberFollows {
    /// The member key.
    pub key: Vec<u8>,
    /// Serialized list of followed company ids.
    pub value: Vec<u8>,
}

/// One company→members association (the second Company Follow store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompanyFollowers {
    /// The company key.
    pub key: Vec<u8>,
    /// Serialized list of follower member ids.
    pub value: Vec<u8>,
}

/// Builds the Company Follow dataset: "both the stores have a Zipfian
/// distribution for their data size" — a few companies have huge follower
/// lists, a few members follow very many companies.
pub fn company_follow_dataset(
    rng: &mut impl Rng,
    members: u64,
    companies: u64,
    max_list: usize,
) -> (Vec<MemberFollows>, Vec<CompanyFollowers>) {
    let member_zipf = Zipfian::ycsb(members);
    let company_zipf = Zipfian::ycsb(companies);

    let member_rows = (0..members)
        .map(|m| {
            let list_len = zipf_size(&member_zipf, rng, max_list.min(companies as usize));
            let list: Vec<String> = (0..list_len)
                .map(|_| company_zipf.sample(rng).to_string())
                .collect();
            MemberFollows {
                key: member_key(m),
                value: list.join(",").into_bytes(),
            }
        })
        .collect();

    let company_rows = (0..companies)
        .map(|c| {
            let list_len = zipf_size(&company_zipf, rng, max_list);
            let list: Vec<String> = (0..list_len)
                .map(|_| rng.random_range(0..members).to_string())
                .collect();
            CompanyFollowers {
                key: company_key(c),
                value: list.join(",").into_bytes(),
            }
        })
        .collect();

    (member_rows, company_rows)
}

/// One PYMK record: "for every member id, a list of recommended member
/// ids, along with a score."
#[derive(Debug, Clone, PartialEq)]
pub struct PymkRecord {
    /// The member.
    pub member: u64,
    /// `(recommended member, score)` pairs, best first.
    pub recommendations: Vec<(u64, f32)>,
}

impl PymkRecord {
    /// Serializes as the read-only store value: `id:score` pairs joined
    /// by commas, each score written as `{score:.4}` writes it.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::io::Write;
        let mut out = Vec::with_capacity(self.recommendations.len() * 16);
        for (i, &(id, score)) in self.recommendations.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            // An `f32` times 10⁴ is exact in an `f64` (24 + 14 bits of
            // mantissa), so rounding it half to even is what `{:.4}` does
            // to the exact value, at a fifth of the cost. Negative,
            // non-finite and huge scores take the formatter.
            let units = (f64::from(score) * 10_000.0).round_ties_even();
            if score.is_sign_negative() || !(0.0..1e15).contains(&units) {
                write!(out, "{id}:{score:.4}")
            } else {
                let units = units as u64;
                write!(out, "{id}:{}.{:04}", units / 10_000, units % 10_000)
            }
            .expect("writing to a Vec cannot fail");
        }
        out
    }

    /// Parses a stored value.
    pub fn from_bytes(member: u64, data: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(data).ok()?;
        let recommendations = if text.is_empty() {
            Vec::new()
        } else {
            text.split(',')
                .map(|pair| {
                    let (id, score) = pair.split_once(':')?;
                    Some((id.parse().ok()?, score.parse().ok()?))
                })
                .collect::<Option<Vec<_>>>()?
        };
        Some(PymkRecord {
            member,
            recommendations,
        })
    }
}

/// Builds a PYMK dataset: `recs_per_member` scored recommendations per
/// member. "Due to continuous iterations on the prediction algorithm and
/// the rapidly changing social graph, most of the scores change between
/// runs" — pass a different `run_seed` component via the RNG per run.
pub fn pymk_dataset(
    rng: &mut impl Rng,
    members: u64,
    recs_per_member: usize,
) -> Vec<PymkRecord> {
    (0..members)
        .map(|member| {
            let mut recommendations: Vec<(u64, f32)> = (0..recs_per_member)
                .map(|_| (rng.random_range(0..members), rng.random::<f32>()))
                .collect();
            recommendations
                .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            PymkRecord {
                member,
                recommendations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The score encoding equals `{score:.4}`: at the ties (`m/32` for odd
    /// `m` is exactly halfway between two fourth decimals), across `[0, 1]`
    /// and its neighbours, and for the values that take the formatter.
    #[test]
    fn to_bytes_writes_scores_as_the_formatter_does() {
        let ties = (1..64u32).step_by(2).map(|m| m as f32 / 32.0);
        let sweep = (0..=1u32 << 20).map(|i| f32::from_bits(i * 1021));
        let others = [
            -0.0,
            -0.00004,
            -0.5,
            1.0,
            0.99995,
            123_456.78,
            3.0e20,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NAN,
        ];
        for score in ties.chain(sweep).chain(others) {
            let record = PymkRecord {
                member: 0,
                recommendations: vec![(7, score)],
            };
            let expected = format!("7:{score:.4}");
            assert_eq!(String::from_utf8(record.to_bytes()).unwrap(), expected);
        }
    }

    #[test]
    fn company_follow_sizes_are_zipfian() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (members, companies) = company_follow_dataset(&mut rng, 500, 100, 1000);
        assert_eq!(members.len(), 500);
        assert_eq!(companies.len(), 100);
        let sizes: Vec<usize> = companies.iter().map(|c| c.value.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let median = {
            let mut s = sizes.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(max > median * 3, "skew expected: max {max}, median {median}");
        let min = *sizes.iter().min().unwrap();
        assert!(max > min * 20, "long tail expected: max {max}, min {min}");
    }

    #[test]
    fn pymk_round_trip_and_sorted_scores() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let dataset = pymk_dataset(&mut rng, 50, 10);
        assert_eq!(dataset.len(), 50);
        for record in &dataset {
            assert_eq!(record.recommendations.len(), 10);
            for pair in record.recommendations.windows(2) {
                assert!(pair[0].1 >= pair[1].1, "scores sorted desc");
            }
            let bytes = record.to_bytes();
            let parsed = PymkRecord::from_bytes(record.member, &bytes).unwrap();
            assert_eq!(parsed.recommendations.len(), 10);
            assert_eq!(parsed.recommendations[0].0, record.recommendations[0].0);
        }
    }

    #[test]
    fn scores_change_between_runs() {
        let mut run1 = rand::rngs::StdRng::seed_from_u64(10);
        let mut run2 = rand::rngs::StdRng::seed_from_u64(11);
        let a = pymk_dataset(&mut run1, 20, 5);
        let b = pymk_dataset(&mut run2, 20, 5);
        assert_ne!(a[0].recommendations, b[0].recommendations);
    }

    #[test]
    fn pymk_wire_form_is_comma_joined_id_colon_score() {
        let record = PymkRecord {
            member: 3,
            recommendations: vec![(17, 0.5), (4, 0.123_456), (900_001, 1e-5)],
        };
        assert_eq!(record.to_bytes(), b"17:0.5000,4:0.1235,900001:0.0000");
        let empty = PymkRecord {
            member: 3,
            recommendations: Vec::new(),
        };
        assert_eq!(empty.to_bytes(), b"");
    }

    #[test]
    fn empty_pymk_value_parses() {
        let parsed = PymkRecord::from_bytes(7, b"").unwrap();
        assert!(parsed.recommendations.is_empty());
    }
}
