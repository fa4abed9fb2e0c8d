//! Local secondary index — the Lucene analog.
//!
//! "Fields within the document schema may be annotated with indexing
//! constraints, indicating that documents should be indexed for retrieval
//! via the field's value. HTTP query parameters allow retrieval of
//! documents via these secondary indexes. ... Queries first consult a local
//! secondary index then return the matching documents from the local data
//! store" (§IV.A/B). The index is *local*: it only answers within one
//! partition's documents, which is why "indexed access is limited to
//! collection resources accessed via a common resource_id".

use li_commons::schema::Value;
use li_sqlstore::RowKey;
use std::collections::{BTreeSet, HashMap};

/// An inverted index over one table's documents (per storage node). Both
/// maps are only probed by key, so they are hashed; a posting set stays
/// ordered because a query intersects the sets and returns keys in order.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// (field, token) -> document keys.
    postings: HashMap<(String, String), BTreeSet<RowKey>>,
    /// Reverse map for unindexing on update/delete.
    by_doc: HashMap<RowKey, Vec<(String, String)>>,
}

/// Lowercases and splits on non-alphanumerics — free-text tokenization for
/// the paper's `lyrics:"Lucy in the sky"` example.
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_lowercase)
        .collect()
}

fn tokens_for(value: &Value) -> Vec<String> {
    match value {
        Value::Str(s) => tokenize(s),
        Value::Long(v) => vec![v.to_string()],
        Value::Double(v) => vec![v.to_string()],
        Value::Bool(b) => vec![b.to_string()],
        Value::Array(items) => items.iter().flat_map(tokens_for).collect(),
        Value::Bytes(_) | Value::Null => Vec::new(),
    }
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes (or re-indexes) a document's indexed fields.
    pub fn index_document<'a>(
        &mut self,
        key: &RowKey,
        fields: impl IntoIterator<Item = (&'a str, &'a Value)>,
    ) {
        self.remove_document(key);
        let mut entries = Vec::new();
        for (field, value) in fields {
            for token in tokens_for(value) {
                let posting = (field.to_string(), token);
                self.postings
                    .entry(posting.clone())
                    .or_default()
                    .insert(key.clone());
                entries.push(posting);
            }
        }
        if !entries.is_empty() {
            self.by_doc.insert(key.clone(), entries);
        }
    }

    /// Removes a document from the index.
    pub fn remove_document(&mut self, key: &RowKey) {
        if let Some(entries) = self.by_doc.remove(key) {
            for posting in entries {
                if let Some(set) = self.postings.get_mut(&posting) {
                    set.remove(key);
                    if set.is_empty() {
                        self.postings.remove(&posting);
                    }
                }
            }
        }
    }

    /// Documents whose `field` contains every token of `term` (free-text
    /// AND query), optionally restricted to keys under `collection`.
    pub fn query(&self, field: &str, term: &str, collection: Option<&RowKey>) -> Vec<RowKey> {
        let tokens = tokenize(term);
        if tokens.is_empty() {
            return Vec::new();
        }
        let mut result: Option<BTreeSet<RowKey>> = None;
        for token in tokens {
            let posting = self
                .postings
                .get(&(field.to_string(), token))
                .cloned()
                .unwrap_or_default();
            result = Some(match result {
                None => posting,
                Some(acc) => acc.intersection(&posting).cloned().collect(),
            });
            if result.as_ref().is_some_and(BTreeSet::is_empty) {
                return Vec::new();
            }
        }
        result
            .unwrap_or_default()
            .into_iter()
            .filter(|key| collection.is_none_or(|prefix| key.starts_with(prefix)))
            .collect()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.by_doc.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn song(artist: &str, album: &str, title: &str) -> RowKey {
        RowKey::new([artist, album, title])
    }

    #[test]
    fn free_text_query_matches_all_tokens() {
        let mut index = InvertedIndex::new();
        let lucy = song("The_Beatles", "Sgt_Pepper", "Lucy_in_the_Sky");
        let walrus = song("The_Beatles", "Magical_Mystery_Tour", "I_am_the_Walrus");
        index.index_document(
            &lucy,
            [("lyrics", &Value::Str("Lucy in the sky with diamonds".into()))],
        );
        index.index_document(
            &walrus,
            [("lyrics", &Value::Str("I am the walrus, in the sky goo goo".into()))],
        );
        // The paper's query: all tokens must match.
        let hits = index.query("lyrics", "Lucy in the sky", None);
        assert_eq!(hits, vec![lucy.clone()]);
        // Single shared token matches both.
        let hits = index.query("lyrics", "sky", None);
        assert_eq!(hits.len(), 2);
        // Case-insensitive.
        assert_eq!(index.query("lyrics", "LUCY", None), vec![lucy]);
    }

    #[test]
    fn collection_restriction() {
        let mut index = InvertedIndex::new();
        let beatles = song("The_Beatles", "A", "X");
        let stones = song("Rolling_Stones", "B", "Y");
        index.index_document(&beatles, [("genre", &Value::Str("rock".into()))]);
        index.index_document(&stones, [("genre", &Value::Str("rock".into()))]);
        let all = index.query("genre", "rock", None);
        assert_eq!(all.len(), 2);
        let collection = RowKey::single("The_Beatles");
        let scoped = index.query("genre", "rock", Some(&collection));
        assert_eq!(scoped, vec![beatles]);
    }

    #[test]
    fn reindex_replaces_old_postings() {
        let mut index = InvertedIndex::new();
        let key = song("A", "B", "C");
        index.index_document(&key, [("genre", &Value::Str("jazz".into()))]);
        assert_eq!(index.query("genre", "jazz", None).len(), 1);
        index.index_document(&key, [("genre", &Value::Str("blues".into()))]);
        assert!(index.query("genre", "jazz", None).is_empty());
        assert_eq!(index.query("genre", "blues", None).len(), 1);
        assert_eq!(index.doc_count(), 1);
    }

    #[test]
    fn remove_unindexes() {
        let mut index = InvertedIndex::new();
        let key = song("A", "B", "C");
        index.index_document(&key, [("genre", &Value::Str("soul".into()))]);
        index.remove_document(&key);
        assert!(index.query("genre", "soul", None).is_empty());
        assert_eq!(index.doc_count(), 0);
        // Idempotent.
        index.remove_document(&key);
    }

    #[test]
    fn numeric_and_array_fields_indexed() {
        let mut index = InvertedIndex::new();
        let key = song("A", "B", "C");
        index.index_document(
            &key,
            [
                ("year", &Value::Long(2004)),
                (
                    "tags",
                    &Value::Array(vec![Value::Str("live".into()), Value::Str("remaster".into())]),
                ),
            ],
        );
        assert_eq!(index.query("year", "2004", None).len(), 1);
        assert_eq!(index.query("tags", "remaster", None).len(), 1);
        assert!(index.query("tags", "studio", None).is_empty());
    }

    #[test]
    fn unknown_field_or_empty_term() {
        let index = InvertedIndex::new();
        assert!(index.query("nope", "x", None).is_empty());
        assert!(index.query("nope", "  ", None).is_empty());
    }
}
