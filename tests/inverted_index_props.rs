//! Property tests on Espresso's inverted index (`li_espresso::InvertedIndex`,
//! the structure behind every local index, `GlobalIndex` and the people
//! search): it must answer exactly what a naive model answers.
//!
//! The model is `BTreeMap<RowKey, BTreeSet<(field, token)>>`: a document's
//! set of terms, tokenized in-test, and no entry for a document with no
//! term. A case is a random sequence of index (a fresh key or a re-index),
//! remove and query ops over
//!
//! * one- and two-element keys whose elements are prefixes of each other
//!   as strings but not as keys (`a`, `ab`, `a/x`, `ab/x`), so a collection
//!   prefix must match element by element;
//! * collections `None`, the empty key, one element and two elements;
//! * strings with repeated, mixed-case and punctuated tokens, and strings
//!   with no token at all, in two fields;
//! * `Long` (negative ones tokenize differently from their text), `Bool`,
//!   `Null` and `Array` values nesting any of these.
//!
//! After every op `doc_count` agrees, every query returns the model's keys
//! in key order, and at the end every word of the vocabulary, and every
//! pair of words, is queried in every field under every collection.
//!
//! Case count: 24 (CI runs 64 with `PROPTEST_CASES=64`).

use li_commons::schema::Value;
use li_espresso::InvertedIndex;
use li_sqlstore::RowKey;
use proptest::prelude::*;
use proptest::sample::Index;
use std::collections::{BTreeMap, BTreeSet};

const FIELDS: [&str; 2] = ["lyrics", "tags"];

/// Words of the documents and the queries; "SKY" and "sky," are the token
/// "sky", "a-b" is two tokens, and the last two strings are none.
const WORDS: [&str; 12] = [
    "lucy", "in", "the", "sky", "SKY", "sky,", "diamonds", "7", "-3", "a-b", "", " ,",
];

fn keys() -> Vec<RowKey> {
    vec![
        RowKey::new(["a"]),
        RowKey::new(["ab"]),
        RowKey::new(["a", "x"]),
        RowKey::new(["a", "y"]),
        RowKey::new(["ab", "x"]),
        RowKey::new(["b", "x"]),
    ]
}

fn collections() -> Vec<Option<RowKey>> {
    vec![
        None,
        Some(RowKey::default()),
        Some(RowKey::new(["a"])),
        Some(RowKey::new(["ab"])),
        Some(RowKey::new(["a", "x"])),
    ]
}

#[derive(Debug, Clone)]
enum Field {
    Text(Vec<Index>),
    Long(i64),
    Bool(bool),
    Null,
    Array(Vec<Field>),
}

#[derive(Debug, Clone)]
enum Op {
    Index { key: Index, fields: Vec<(Index, Field)> },
    Remove { key: Index },
    Query { field: Index, words: Vec<Index>, collection: Index },
}

fn words() -> impl Strategy<Value = Vec<Index>> {
    proptest::collection::vec(any::<Index>(), 0..5)
}

fn scalar() -> impl Strategy<Value = Field> {
    // `prop_oneof!` is uniform: listed twice, half of all scalars are text.
    prop_oneof![
        words().prop_map(Field::Text),
        words().prop_map(Field::Text),
        (-9..10i64).prop_map(Field::Long),
        any::<bool>().prop_map(Field::Bool),
        Just(Field::Null),
    ]
}

fn field() -> impl Strategy<Value = Field> {
    prop_oneof![
        scalar(),
        scalar(),
        scalar(),
        proptest::collection::vec(scalar(), 0..4).prop_map(Field::Array),
    ]
}

/// Four index ops in eight, two removes, two queries.
fn op() -> impl Strategy<Value = Op> {
    (
        0..8u8,
        any::<Index>(),
        proptest::collection::vec((any::<Index>(), field()), 0..3),
        words(),
        any::<Index>(),
    )
        .prop_map(|(kind, key, fields, words, collection)| match kind {
            0 | 1 => Op::Remove { key },
            2 | 3 => Op::Query { field: key, words, collection },
            _ => Op::Index { key, fields },
        })
}

fn text(words: &[Index]) -> String {
    words
        .iter()
        .map(|word| WORDS[word.index(WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

fn value(field: &Field) -> Value {
    match field {
        Field::Text(words) => Value::Str(text(words)),
        Field::Long(v) => Value::Long(*v),
        Field::Bool(b) => Value::Bool(*b),
        Field::Null => Value::Null,
        Field::Array(items) => Value::Array(items.iter().map(value).collect()),
    }
}

/// The model's tokenizer, written apart from the index's.
fn tokens(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|token| !token.is_empty())
        .map(String::from)
        .collect()
}

fn model_tokens(field: &Field) -> Vec<String> {
    match field {
        Field::Text(words) => tokens(&text(words)),
        Field::Long(v) => vec![v.to_string()],
        Field::Bool(b) => vec![b.to_string()],
        Field::Null => Vec::new(),
        Field::Array(items) => items.iter().flat_map(model_tokens).collect(),
    }
}

type Model = BTreeMap<RowKey, BTreeSet<(String, String)>>;

fn model_query(model: &Model, field: &str, term: &str, collection: Option<&RowKey>) -> Vec<RowKey> {
    let wanted = tokens(term);
    if wanted.is_empty() {
        return Vec::new();
    }
    model
        .iter()
        .filter(|(key, terms)| {
            collection.is_none_or(|prefix| key.parts().starts_with(prefix.parts()))
                && wanted
                    .iter()
                    .all(|token| terms.contains(&(field.to_string(), token.clone())))
        })
        .map(|(key, _)| key.clone())
        .collect()
}

fn run(ops: &[Op]) -> TestCaseResult {
    let keys = keys();
    let collections = collections();
    let mut index = InvertedIndex::new();
    let mut model = Model::new();
    for (at, op) in ops.iter().enumerate() {
        match op {
            Op::Index { key, fields } => {
                let key = &keys[key.index(keys.len())];
                let fields: Vec<(&str, Field)> = fields
                    .iter()
                    .map(|(name, field)| (FIELDS[name.index(FIELDS.len())], field.clone()))
                    .collect();
                let values: Vec<Value> = fields.iter().map(|(_, field)| value(field)).collect();
                index.index_document(
                    key,
                    fields.iter().zip(&values).map(|((name, _), value)| (*name, value)),
                );
                let terms: BTreeSet<(String, String)> = fields
                    .iter()
                    .flat_map(|(name, field)| {
                        model_tokens(field).into_iter().map(|token| (name.to_string(), token))
                    })
                    .collect();
                if terms.is_empty() {
                    model.remove(key);
                } else {
                    model.insert(key.clone(), terms);
                }
            }
            Op::Remove { key } => {
                let key = &keys[key.index(keys.len())];
                index.remove_document(key);
                model.remove(key);
            }
            Op::Query { field, words, collection } => {
                let field = FIELDS[field.index(FIELDS.len())];
                let term = text(words);
                let collection = collections[collection.index(collections.len())].as_ref();
                prop_assert_eq!(
                    index.query(field, &term, collection),
                    model_query(&model, field, &term, collection),
                    "op {}: query {}:{:?} under {:?}",
                    at,
                    field,
                    term,
                    collection
                );
            }
        }
        prop_assert_eq!(index.doc_count(), model.len(), "op {}: doc_count", at);
    }
    let pairs = WORDS
        .iter()
        .flat_map(|first| WORDS.iter().map(move |second| format!("{first} {second}")));
    for term in WORDS.iter().map(|word| word.to_string()).chain(pairs) {
        for field in FIELDS {
            for collection in &collections {
                prop_assert_eq!(
                    index.query(field, &term, collection.as_ref()),
                    model_query(&model, field, &term, collection.as_ref()),
                    "end: query {}:{:?} under {:?}",
                    field,
                    term,
                    collection
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn the_index_answers_what_the_model_answers(
        ops in proptest::collection::vec(op(), 1..96),
    ) {
        run(&ops)?;
    }
}
