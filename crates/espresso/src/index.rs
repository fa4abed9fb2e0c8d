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
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// An inverted index over one table's documents (per storage node).
///
/// Lucene-style, it works on document numbers: each key and each
/// (field, token) term is stored once and numbered, postings are ordered
/// sets of document numbers (a term one document holds keeps its number
/// inline), and a document's reverse entry lists term numbers. A removed document's number and key, and a term no document
/// holds any more, are released for reuse. Keys are sorted only where a
/// query's matches leave the index.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// Document number -> the document's key and term numbers.
    docs: Slots<Doc>,
    /// Key -> document number; shares each key with `docs` and with the
    /// row it indexes.
    doc_numbers: HashMap<RowKey, u32>,
    /// Field number -> the field's name and its token -> term number map.
    fields: Vec<(String, HashMap<Arc<str>, u32>)>,
    /// Term number -> the term and its posting.
    terms: Slots<Posting>,
}

#[derive(Debug, Clone)]
struct Doc {
    key: RowKey,
    /// Sorted and distinct, so each posting is left once on removal.
    terms: Box<[u32]>,
}

#[derive(Debug, Clone)]
struct Posting {
    field: u32,
    token: Arc<str>,
    /// Numbers of the documents whose field holds the token.
    docs: DocSet,
}

/// A posting's document numbers. Many terms belong to one document (each
/// profile's member number is a token no other profile has), so that
/// document's number is held inline, and the ordered set starts at the
/// second document. Never empty: a term goes when its last document does.
#[derive(Debug, Clone)]
enum DocSet {
    One(u32),
    /// Two documents or more.
    Many(BTreeSet<u32>),
}

impl DocSet {
    fn insert(&mut self, doc: u32) {
        match self {
            DocSet::One(held) if *held == doc => {}
            DocSet::One(held) => *self = DocSet::Many(BTreeSet::from([*held, doc])),
            DocSet::Many(docs) => {
                docs.insert(doc);
            }
        }
    }

    /// Removes `doc`; whether that left no document.
    fn remove(&mut self, doc: u32) -> bool {
        match self {
            DocSet::One(held) => *held == doc,
            DocSet::Many(docs) => {
                docs.remove(&doc);
                if let (1, Some(&last)) = (docs.len(), docs.iter().next()) {
                    *self = DocSet::One(last);
                }
                false
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            DocSet::One(_) => 1,
            DocSet::Many(docs) => docs.len(),
        }
    }

    fn contains(&self, doc: u32) -> bool {
        match self {
            DocSet::One(held) => *held == doc,
            DocSet::Many(docs) => docs.contains(&doc),
        }
    }

    /// The numbers in ascending order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (one, many) = match self {
            DocSet::One(held) => (Some(*held), None),
            DocSet::Many(docs) => (None, Some(docs.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// Values addressed by dense `u32` numbers; a removed value's number is
/// handed out again by the next insert.
#[derive(Debug, Clone)]
struct Slots<T> {
    items: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            items: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(number) => {
                self.items[number as usize] = Some(item);
                number
            }
            None => {
                self.items.push(Some(item));
                u32::try_from(self.items.len() - 1).expect("more than u32::MAX index entries")
            }
        }
    }

    fn remove(&mut self, number: u32) -> T {
        let item = self.items[number as usize].take().expect("removed a free number");
        self.free.push(number);
        item
    }

    fn get(&self, number: u32) -> &T {
        self.items[number as usize].as_ref().expect("read a free number")
    }

    fn get_mut(&mut self, number: u32) -> &mut T {
        self.items[number as usize].as_mut().expect("wrote a free number")
    }
}

/// Splits on non-alphanumerics and lowercases — free-text tokenization
/// for the paper's `lyrics:"Lucy in the sky"` example, the one tokenizer
/// of both indexing and queries. A token already in lower-case ASCII is
/// borrowed from `text`; only another token is lowercased into a `String`.
fn tokenize(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| {
            if t.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()) {
                Cow::Borrowed(t)
            } else {
                Cow::Owned(t.to_lowercase())
            }
        })
}

/// Calls `each` with every token of `value`.
fn for_each_token<'v>(value: &'v Value, each: &mut impl FnMut(Cow<'v, str>)) {
    match value {
        Value::Str(s) => tokenize(s).for_each(each),
        Value::Long(v) => each(Cow::Owned(v.to_string())),
        Value::Double(v) => each(Cow::Owned(v.to_string())),
        Value::Bool(b) => each(Cow::Owned(b.to_string())),
        Value::Array(items) => items.iter().for_each(|item| for_each_token(item, each)),
        Value::Bytes(_) | Value::Null => {}
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
        let doc = self.docs.insert(Doc {
            key: key.clone(),
            terms: Box::default(),
        });
        let mut terms = Vec::new();
        for (field, value) in fields {
            let field = self.field_number(field);
            for_each_token(value, &mut |token| terms.push(self.post(field, &token, doc)));
        }
        if terms.is_empty() {
            self.docs.remove(doc);
            return;
        }
        terms.sort_unstable();
        terms.dedup();
        self.docs.get_mut(doc).terms = terms.into_boxed_slice();
        self.doc_numbers.insert(key.clone(), doc);
    }

    /// The number of `field`, which is numbered on first sight.
    fn field_number(&mut self, field: &str) -> u32 {
        let number = match self.fields.iter().position(|(name, _)| name == field) {
            Some(number) => number,
            None => {
                self.fields.push((field.to_string(), HashMap::new()));
                self.fields.len() - 1
            }
        };
        number as u32
    }

    /// Posts `doc` under the term (`field`, `token`), which is numbered on
    /// first sight; the term's number.
    fn post(&mut self, field: u32, token: &str, doc: u32) -> u32 {
        let by_token = &mut self.fields[field as usize].1;
        if let Some(&term) = by_token.get(token) {
            self.terms.get_mut(term).docs.insert(doc);
            return term;
        }
        let token: Arc<str> = token.into();
        let term = self.terms.insert(Posting {
            field,
            token: token.clone(),
            docs: DocSet::One(doc),
        });
        by_token.insert(token, term);
        term
    }

    /// Removes a document from the index.
    pub fn remove_document(&mut self, key: &RowKey) {
        let Some(doc) = self.doc_numbers.remove(key) else {
            return;
        };
        for &term in self.docs.remove(doc).terms.iter() {
            if self.terms.get_mut(term).docs.remove(doc) {
                let Posting { field, token, .. } = self.terms.remove(term);
                self.fields[field as usize].1.remove(&token);
            }
        }
    }

    /// Documents whose `field` contains every token of `term` (free-text
    /// AND query), optionally restricted to keys under `collection`, in
    /// key order.
    pub fn query(&self, field: &str, term: &str, collection: Option<&RowKey>) -> Vec<RowKey> {
        let Some((_, by_token)) = self.fields.iter().find(|(name, _)| name == field) else {
            return Vec::new();
        };
        let mut postings = Vec::new();
        for token in tokenize(term) {
            match by_token.get(&*token) {
                Some(&term) => postings.push(&self.terms.get(term).docs),
                None => return Vec::new(),
            }
        }
        // Start from the smallest posting and probe the others, smallest
        // first, for the documents still matching.
        postings.sort_unstable_by_key(|posting| posting.len());
        let Some((smallest, others)) = postings.split_first() else {
            return Vec::new();
        };
        let mut docs: Vec<u32> = smallest.iter().collect();
        for posting in others {
            docs.retain(|&doc| posting.contains(doc));
        }
        let mut keys: Vec<RowKey> = docs
            .into_iter()
            .map(|doc| &self.docs.get(doc).key)
            .filter(|key| collection.is_none_or(|prefix| key.starts_with(prefix)))
            .cloned()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_numbers.len()
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

    #[test]
    fn query_intersects_in_key_order_whatever_the_token_order() {
        // Postings of 100, 50 and 20 documents, where the smallest is not
        // inside the next ("rare" holds odd numbers), named in either order.
        // Indexed backwards, so document numbers run against key order.
        let mut index = InvertedIndex::new();
        for i in (0..100).rev() {
            let even = if i % 2 == 0 { " even" } else { "" };
            let rare = if i % 5 == 0 { " rare" } else { "" };
            let text = Value::Str(format!("common{even}{rare}"));
            index.index_document(&RowKey::single(format!("{i:03}")), [("text", &text)]);
        }
        let tens: Vec<RowKey> = (0..100)
            .step_by(10)
            .map(|i| RowKey::single(format!("{i:03}")))
            .collect();
        assert_eq!(index.query("text", "common even rare", None), tens);
        assert_eq!(index.query("text", "rare common even", None), tens);
        assert_eq!(index.query("text", "even common", None).len(), 50);
    }

    /// The one tokenizer, borrowing lower-case ASCII tokens, against a
    /// reference that lowercases every token with `str::to_lowercase`:
    /// the same tokens, and so the same query answers, for mixed-case
    /// ASCII, non-ASCII letters whose lowercase differs in length or
    /// spelling, digits and punctuation.
    #[test]
    fn the_tokenizer_matches_lowercasing_every_token() {
        fn reference(text: &str) -> Vec<String> {
            text.split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(str::to_lowercase)
                .collect()
        }
        let texts = [
            "Lucy in the SKY with Diamonds",
            "ÉCOLE école Ecole",
            "Straße STRASSE strasse",
            "İstanbul istanbul ISTANBUL",
            "route66 R2D2, c-3po; x86_64 (v1.2)",
            "ΣΊΣΥΦΟΣ ΣΟΦΌΣ",
            "   ...!!! ",
            "naïve café déjà-vu ÆSIR",
        ];
        let mut index = InvertedIndex::new();
        for (i, text) in texts.iter().enumerate() {
            let tokens: Vec<String> = tokenize(text).map(Cow::into_owned).collect();
            assert_eq!(tokens, reference(text), "{text:?}");
            let value = Value::Str(text.to_string());
            index.index_document(&RowKey::single(i.to_string()), [("text", &value)]);
        }
        // Every word of every text, in its own case and as typed above
        // upper-cased, finds exactly the texts the reference's tokens say.
        let words = texts
            .iter()
            .flat_map(|text| text.split_whitespace())
            .flat_map(|word| [word.to_string(), word.to_uppercase()]);
        for word in words {
            let query = reference(&word);
            let mut expected: Vec<RowKey> = texts
                .iter()
                .enumerate()
                .filter(|(_, text)| {
                    let tokens = reference(text);
                    !query.is_empty() && query.iter().all(|t| tokens.contains(t))
                })
                .map(|(i, _)| RowKey::single(i.to_string()))
                .collect();
            expected.sort_unstable();
            assert_eq!(index.query("text", &word, None), expected, "{word:?}");
        }
    }

    #[test]
    fn a_term_one_document_holds_keeps_its_number_inline() {
        let sets = |index: &InvertedIndex| {
            let postings = index.terms.items.iter().flatten();
            postings.filter(|p| matches!(p.docs, DocSet::Many(_))).count()
        };
        let mut index = InvertedIndex::new();
        let (a, b) = (song("A", "B", "1"), song("A", "B", "2"));
        index.index_document(&a, [("text", &Value::Str("shared 1001 1001".into()))]);
        assert_eq!(sets(&index), 0, "one document, no set");
        index.index_document(&b, [("text", &Value::Str("shared 1002".into()))]);
        assert_eq!(sets(&index), 1, "`shared` alone has two documents");
        assert_eq!(index.query("text", "shared", None), [a.clone(), b.clone()]);
        assert_eq!(index.query("text", "shared 1002", None), std::slice::from_ref(&b));
        index.remove_document(&a);
        assert_eq!(sets(&index), 0, "back to one document");
        assert_eq!(index.query("text", "shared", None), [b]);
        assert!(index.query("text", "1001", None).is_empty());
    }

    #[test]
    fn removed_numbers_and_terms_are_reused() {
        // Every text has a token of its own, as a profile's member id does.
        const KEYS: usize = 50;
        let mut index = InvertedIndex::new();
        for round in 0..4 {
            for i in 0..KEYS {
                let text = Value::Str(format!("shared r{round}k{i}"));
                index.index_document(&song("A", "B", &i.to_string()), [("text", &text)]);
            }
            for i in (0..KEYS).step_by(3) {
                index.remove_document(&song("A", "B", &i.to_string()));
            }
            assert!(index.docs.items.len() <= KEYS, "round {round}: {}", index.docs.items.len());
            // "shared" plus one term per live document.
            assert!(index.terms.items.len() <= KEYS + 1, "round {round}");
        }
        for i in 0..KEYS {
            index.remove_document(&song("A", "B", &i.to_string()));
        }
        assert_eq!(index.doc_count(), 0);
        assert!(index.fields.iter().all(|(_, by_token)| by_token.is_empty()));
        assert_eq!(index.docs.free.len(), index.docs.items.len());
        assert_eq!(index.terms.free.len(), index.terms.items.len());
    }
}
