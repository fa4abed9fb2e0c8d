//! Databus consumers that maintain derived data systems — the subscriber
//! side of the paper's replication layer ("the social graph, search, and
//! recommendation systems subscribe to the feed of profile changes",
//! §I.A).

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

use li_commons::clock::{VectorClock, Versioned};
use li_databus::{ConsumerCallback, Window};
use li_espresso::InvertedIndex;
use li_sqlstore::{Op, RowKey};
use li_voldemort::{QuorumConfig, ReadFanOut, StoreClient, Transform, VoldemortError};

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

/// Whether an [`encode_ids`] list holds `id`.
pub fn contains_id(list: &[u8], id: u64) -> bool {
    list.chunks_exact(8).any(|w| w == id.to_le_bytes())
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

/// The paper's "transformed put to append an entity to a list" (§II.B).
struct AppendId;

impl Transform for AppendId {
    fn on_get(&self, value: &[u8]) -> Bytes {
        Bytes::copy_from_slice(value)
    }

    fn on_put(&self, current: Option<&[u8]>, input: &[u8]) -> Bytes {
        [current.unwrap_or_default(), input].concat().into()
    }
}

/// Keeps the two Company Follow Voldemort stores in sync with the primary
/// database — §II.C: "two stores to maintain a cache-like interface on top
/// of our primary storage Oracle ... Both stores are fed by a Databus
/// relay and are populated whenever a user follows a new company."
///
/// Packed list rows (the loaded population) land as full-value puts; a
/// follow-edge row lands as one append-if-absent per store. Redelivered
/// windows and re-follows of loaded edges find the id present and skip.
pub struct CompanyFollowCacher {
    member_store: StoreClient,
    company_store: StoreClient,
}

impl CompanyFollowCacher {
    /// Wires the cacher to the two stores. As the view's writer it reads
    /// every available replica (serving reads stay at R), so a replica that
    /// missed appends while down is read-repaired at its key's next append.
    pub fn new(member_store: StoreClient, company_store: StoreClient) -> Self {
        let read_all = |store: StoreClient| {
            let config = QuorumConfig {
                read_fan_out: ReadFanOut::All,
                ..store.quorum_config().clone()
            };
            store.with_quorum_config(config)
        };
        CompanyFollowCacher {
            member_store: read_all(member_store),
            company_store: read_all(company_store),
        }
    }

    /// Applies one packed list row: a full-value put, or a cache delete
    /// that drops every current version.
    fn apply_list(store: &StoreClient, key: &[u8], op: &Op) -> Result<(), VoldemortError> {
        match op {
            Op::Put(row) => store
                .apply_update(key, 8, &|_siblings| Some(row.value.clone()))
                .map(|_| ()),
            Op::Delete => match store.get(key)?.first() {
                Some(latest) => store.delete(key, &latest.clock).map(|_| ()),
                None => Ok(()),
            },
        }
    }

    /// Appends `id` to the list under `key`, or issues no put at all when
    /// the cached list holds it. A lost optimistic lock is not retried
    /// here: the error redelivers the window.
    fn append_if_absent(store: &StoreClient, key: &RowKey, id: u64) -> Result<(), String> {
        let key = key.to_string().into_bytes();
        let siblings = store.get(&key).map_err(|e| e.to_string())?;
        let put = match &siblings[..] {
            [list] if contains_id(&list.value, id) => return Ok(()),
            [] | [_] => {
                let clock = siblings.first().map(|v| v.clock.clone()).unwrap_or_default();
                let input = Bytes::copy_from_slice(&id.to_le_bytes());
                store.put_with_transform(&key, &clock, input, &AppendId)
            }
            // Replicas diverged while one was down: write the union back.
            diverged => {
                let mut ids = union_ids(diverged)?;
                if !ids.contains(&id) {
                    ids.push(id);
                }
                let clock = diverged
                    .iter()
                    .fold(VectorClock::new(), |acc, v| acc.merged(&v.clock));
                store.put(&key, &clock, encode_ids(&ids).into())
            }
        };
        put.map(|_| ()).map_err(|e| e.to_string())
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
            Self::apply_list(store, change.key.to_string().as_bytes(), &change.op)
                .map_err(|e| e.to_string())?;
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
            Self::append_if_absent(&self.member_store, &member_row_key(member), company)?;
            Self::append_if_absent(&self.company_store, &company_row_key(company), member)?;
        }
        Ok(())
    }
}

/// A people-search indexer fed by profile changes (the People Search Index
/// subscriber of §III.A), built on the same inverted-index substrate as
/// Espresso's local indexes.
#[derive(Default)]
pub struct SearchIndexer {
    index: Mutex<InvertedIndex>,
}

impl SearchIndexer {
    /// Creates an empty indexer.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Members whose profile text matches every token of `term`.
    pub fn search(&self, term: &str) -> Vec<String> {
        self.index
            .lock()
            .query("profile", term, None)
            .into_iter()
            .map(|key| key.to_string())
            .collect()
    }

    /// Number of indexed profiles.
    pub fn indexed_count(&self) -> usize {
        self.index.lock().doc_count()
    }
}

impl ConsumerCallback for SearchIndexer {
    fn on_window(&self, window: &Window) -> Result<(), String> {
        for change in &window.changes {
            if change.table != "member_profile" {
                continue;
            }
            match &change.op {
                Op::Put(row) => {
                    let text = String::from_utf8_lossy(&row.value).into_owned();
                    self.index.lock().index_document(
                        &change.key,
                        [(
                            "profile",
                            &li_commons::schema::Value::Str(text),
                        )],
                    );
                }
                Op::Delete => self.index.lock().remove_document(&change.key),
            }
        }
        Ok(())
    }

    fn on_snapshot_start(&self) {
        *self.index.lock() = InvertedIndex::new();
    }
}

/// Helper: the row key used for members in the primary store.
pub fn member_row_key(member: u64) -> RowKey {
    RowKey::single(format!("member:{member:09}"))
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
