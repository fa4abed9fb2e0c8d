//! Databus consumers that maintain derived data systems — the subscriber
//! side of the paper's replication layer ("the social graph, search, and
//! recommendation systems subscribe to the feed of profile changes",
//! §I.A).

use bytes::Bytes;
use std::collections::HashSet;

use li_commons::clock::Versioned;
use li_databus::{ConsumerCallback, Window};
use li_sqlstore::{Op, RowKey};
use li_voldemort::{Rewrite, StoreClient, Transform};

/// Primary table of follow edges: one [`follow_edge_row`] per follow. The
/// two list tables (`member_follows`, `company_followers`) hold only the
/// bulk-loaded population, as packed [`encode_ids`] rows.
pub const FOLLOW_EDGES_TABLE: &str = "follow_edges";

/// The Company Follow list codec, shared by the population loader, the
/// cacher and both cache read paths: fixed-width little-endian `u64`s.
pub fn encode_ids(ids: &[u64]) -> Vec<u8> {
    ids.iter().flat_map(|id| id.to_le_bytes()).collect()
}

/// Decodes an [`encode_ids`] list; a torn list is an error, never a
/// silently shorter one.
pub fn decode_ids(list: &[u8]) -> Result<Vec<u64>, String> {
    let words = list.chunks_exact(8);
    if !words.remainder().is_empty() {
        return Err(format!("id list of {} bytes is not a multiple of 8", list.len()));
    }
    Ok(words
        .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")))
        .collect())
}

/// Whether an [`encode_ids`] list holds `id` (a torn tail holds none).
/// The scan takes a block of eight ids a step and folds their compares
/// with `|`, no branch per id, so each step compiles to vector compares:
/// a hot company's list is tens of kilobytes, scanned at every follow.
pub fn contains_id(list: &[u8], id: u64) -> bool {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    let mut blocks = list.chunks_exact(64);
    let in_block = |block: &[u8]| {
        let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
        (0..8).fold(false, |hit, i| hit | (word(&block[i * 8..i * 8 + 8]) == id))
    };
    blocks.by_ref().any(in_block) || blocks.remainder().chunks_exact(8).any(|w| word(w) == id)
}

/// The ids of a cached list as read from Voldemort. Replicas that diverged
/// while one was down answer with siblings; lists only grow, so the list
/// is their union (first-seen order, each id once).
pub fn union_ids(siblings: &[Versioned<Bytes>]) -> Result<Vec<u64>, String> {
    if let [list] = siblings {
        return decode_ids(&list.value);
    }
    let (mut seen, mut ids) = (HashSet::new(), Vec::new());
    for list in siblings {
        ids.extend(decode_ids(&list.value)?.into_iter().filter(|id| seen.insert(*id)));
    }
    Ok(ids)
}

/// The paper's "transformed put to append an entity to a list" (§II.B),
/// run by the coordinating replica on what it holds. The input is one
/// [`encode_ids`] id. A list that holds it is kept, any other single list
/// gets it as a suffix, and siblings (replicas diverged while one was
/// down) are replaced by their union with it.
struct AppendId;

impl Transform for AppendId {
    fn on_get(&self, value: &[u8]) -> Bytes {
        Bytes::copy_from_slice(value)
    }

    fn on_put(&self, held: &[Versioned<Bytes>], input: &Bytes) -> Rewrite {
        let id = u64::from_le_bytes(input[..].try_into().expect("AppendId's input is one id"));
        match held {
            [list] if contains_id(&list.value, id) => Rewrite::Keep,
            [] | [_] => Rewrite::Append(input.clone()),
            siblings => match union_ids(siblings) {
                Ok(mut ids) => {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                    Rewrite::Value(encode_ids(&ids).into())
                }
                // A torn sibling stays for the read path to report: a
                // torn list is an error, never a silently shorter one.
                Err(_) => Rewrite::Keep,
            },
        }
    }
}

/// A packed list row's value, stored in place of whatever the key holds.
struct ReplaceList;

impl Transform for ReplaceList {
    fn on_get(&self, value: &[u8]) -> Bytes {
        Bytes::copy_from_slice(value)
    }

    fn on_put(&self, _held: &[Versioned<Bytes>], input: &Bytes) -> Rewrite {
        Rewrite::Value(input.clone())
    }
}

/// Keeps the two Company Follow Voldemort stores in sync with the primary
/// database — §II.C: "two stores to maintain a cache-like interface on top
/// of our primary storage Oracle ... Both stores are fed by a Databus
/// relay and are populated whenever a user follows a new company."
///
/// Every change is one transformed put, the read-modify-write run by the
/// coordinating replica: a packed list row (the loaded population) replaces
/// the list, and a follow-edge row appends one id to each store's list
/// unless it holds it. The cacher never reads: redelivered windows and
/// re-follows of loaded edges find the id present, and nothing is written.
pub struct CompanyFollowCacher {
    member_store: StoreClient,
    company_store: StoreClient,
}

impl CompanyFollowCacher {
    /// Wires the cacher to the two stores. A replica that missed writes
    /// while down is owed a hint for each, delivered to it once it is back.
    pub fn new(member_store: StoreClient, company_store: StoreClient) -> Self {
        CompanyFollowCacher {
            member_store,
            company_store,
        }
    }

    /// One transformed put of `input` to the list under `key`.
    fn write(
        store: &StoreClient,
        key: &RowKey,
        input: Bytes,
        transform: &dyn Transform,
    ) -> Result<(), String> {
        let key = key.to_string();
        store
            .put_with_transform(key.as_bytes(), input, transform)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

impl ConsumerCallback for CompanyFollowCacher {
    fn on_window(&self, window: &Window) -> Result<(), String> {
        // Snapshots and consolidated deltas arrive in (table, key) order, not
        // commit order; lists are only loaded before edges: lists first.
        for change in &window.changes {
            let store = match change.table.as_str() {
                "member_follows" => &self.member_store,
                "company_followers" => &self.company_store,
                _ => continue,
            };
            // A deleted list row caches as the empty list, which every read
            // path serves as a key that is absent.
            let list = match &change.op {
                Op::Put(row) => row.value.clone(),
                Op::Delete => Bytes::new(),
            };
            Self::write(store, &change.key, list, &ReplaceList)?;
        }
        for change in &window.changes {
            if change.table != FOLLOW_EDGES_TABLE {
                continue;
            }
            let Op::Put(row) = &change.op else {
                return Err(format!("unfollow of {} is not supported", change.key));
            };
            let [member, company] = decode_ids(&row.value)?[..] else {
                return Err(format!("edge row {} is not a (member, company) pair", change.key));
            };
            let id = |id: u64| Bytes::copy_from_slice(&id.to_le_bytes());
            Self::write(&self.member_store, &member_row_key(member), id(company), &AppendId)?;
            Self::write(&self.company_store, &company_row_key(company), id(member), &AppendId)?;
        }
        Ok(())
    }
}

/// Helper: the row key used for members in the primary store.
pub fn member_row_key(member: u64) -> RowKey {
    RowKey::single(member_key(member))
}

/// The one element of [`member_row_key`], `member:` and the id in at
/// least nine digits, built without the formatting machinery: every
/// profile read and PYMK lookup starts here.
pub(crate) fn member_key(member: u64) -> String {
    const PREFIX: &str = "member:";
    // `u64::MAX` has 20 digits; the buffer starts as zeros, the padding.
    let mut digits = [b'0'; 20];
    let mut rest = member;
    let mut start = digits.len();
    while rest > 0 {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    let start = start.min(digits.len() - 9);
    let mut key = String::with_capacity(PREFIX.len() + digits.len() - start);
    key.push_str(PREFIX);
    key.extend(digits[start..].iter().copied().map(char::from));
    key
}

/// Helper: the row key used for companies in the primary store.
pub fn company_row_key(company: u64) -> RowKey {
    RowKey::single(format!("company:{company:07}"))
}

/// Helper: the primary-store row of one follow edge — a composite
/// `(member, company)` key and the two ids as an [`encode_ids`] pair.
pub fn follow_edge_row(member: u64, company: u64) -> (RowKey, Vec<u8>) {
    let key = RowKey::new([
        member_row_key(member).to_string(),
        company_row_key(company).to_string(),
    ]);
    (key, encode_ids(&[member, company]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_key_pads_to_nine_digits_like_format() {
        for member in [
            0,
            5,
            42,
            999_999_999,
            1_000_000_000,
            123_456_789_012,
            u64::MAX,
        ] {
            assert_eq!(member_key(member), format!("member:{member:09}"));
        }
    }
}
