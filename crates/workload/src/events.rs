//! Activity-event synthesis.
//!
//! Kafka's input is "user activity events corresponding to logins,
//! page-views, clicks, 'likes', sharing, comments, and search queries"
//! (§V). Real activity logs are highly self-similar (repeated event names,
//! URL prefixes, field keys), which is what makes the paper's "save about
//! 2/3 of the network bandwidth with compression" possible. The generator
//! reproduces that text shape.

use rand::Rng;

use crate::zipf::Zipfian;

const EVENT_TYPES: [&str; 7] = [
    "page_view", "login", "click", "like", "share", "comment", "search",
];

const PAGES: [&str; 8] = [
    "/in/profile",
    "/feed/updates",
    "/jobs/search",
    "/company/follow",
    "/groups/discussion",
    "/people/pymk",
    "/inbox/messages",
    "/settings/privacy",
];

/// Generates a batch of events with a Zipfian member distribution (a few
/// very active members), the shape online consumers see.
pub fn activity_batch(rng: &mut impl Rng, zipf: &Zipfian, count: usize) -> Vec<String> {
    (0..count)
        .map(|_| {
            let member = zipf.sample(rng);
            let event = EVENT_TYPES[rng.random_range(0..EVENT_TYPES.len())];
            let page = PAGES[rng.random_range(0..PAGES.len())];
            format!(
                "event={event} member={member:09} page={page} ua=browser/linkedin-web dc=ela4"
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn events_have_the_expected_fields() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for line in activity_batch(&mut rng, &Zipfian::ycsb(1000), 10) {
            for field in ["event=", "member=", "page=", "dc="] {
                assert!(line.contains(field), "{line}");
            }
        }
    }

    #[test]
    fn batches_compress_about_3x() {
        // The property the Kafka compression experiment relies on.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let zipf = Zipfian::ycsb(100_000);
        let batch = activity_batch(&mut rng, &zipf, 500).join("\n");
        let packed = li_commons::compress::compress(batch.as_bytes());
        let ratio = batch.len() as f64 / packed.len() as f64;
        assert!(ratio > 2.5, "compression ratio {ratio:.2}");
    }

    #[test]
    fn zipfian_batch_has_hot_members() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let zipf = Zipfian::ycsb(10_000);
        let batch = activity_batch(&mut rng, &zipf, 2000);
        let hot = batch
            .iter()
            .filter(|l| l.contains("member=000000000"))
            .count();
        assert!(hot > 50, "hottest member appears {hot} times");
    }
}
