//! Database, table, and document schemas.
//!
//! "In Espresso, a database is a container of tables. A table is a
//! container of documents. Each database, table, and document has an
//! associated schema. Schemas are represented in JSON in the format
//! specified by Avro. A database schema defines how the database is
//! partitioned. ... A table schema defines how documents within the table
//! are referenced. ... The document schema defines the structure of the
//! documents stored within a table. Document schemas are freely evolvable."
//! (§IV.A)

use li_commons::schema::{RecordSchema, SchemaError, SchemaRegistry, SchemaVersion};
use serde::{get_field, object, DeError, Deserialize, JsonValue, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How a database's documents spread over partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// `hash(resource_id) % num_partitions` — "at present, the only
    /// supported partitioning strategies are hash-based partitioning or
    /// un-partitioned".
    Hash,
    /// Every document on every node.
    Unpartitioned,
}

/// JSON form (serde's externally-tagged unit variants): a bare string
/// with the variant name.
impl Serialize for PartitionStrategy {
    fn to_json_value(&self) -> JsonValue {
        let tag = match self {
            PartitionStrategy::Hash => "Hash",
            PartitionStrategy::Unpartitioned => "Unpartitioned",
        };
        JsonValue::Str(tag.into())
    }
}

impl Deserialize for PartitionStrategy {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        match value.as_str() {
            Some("Hash") => Ok(PartitionStrategy::Hash),
            Some("Unpartitioned") => Ok(PartitionStrategy::Unpartitioned),
            _ => Err(DeError::expected("partition strategy", value)),
        }
    }
}

/// Schema of one table: how documents are keyed beneath the resource id.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Table name (`Artist`, `Album`, `Song`).
    pub name: String,
    /// Names of the URI path elements that key a document, starting with
    /// the resource id: `["artist"]` for a singleton-resource table,
    /// `["artist", "album", "song"]` for nested collections.
    pub key_elements: Vec<String>,
}

impl Serialize for TableSchema {
    fn to_json_value(&self) -> JsonValue {
        object(vec![
            ("name", self.name.to_json_value()),
            ("key_elements", self.key_elements.to_json_value()),
        ])
    }
}

impl Deserialize for TableSchema {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(TableSchema {
            name: get_field(value, "name")?,
            key_elements: get_field(value, "key_elements")?,
        })
    }
}

impl TableSchema {
    /// Creates a table schema.
    pub fn new<I, S>(name: impl Into<String>, key_elements: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TableSchema {
            name: name.into(),
            key_elements: key_elements.into_iter().map(Into::into).collect(),
        }
    }

    /// Depth of a full document key.
    pub fn key_depth(&self) -> usize {
        self.key_elements.len()
    }
}

/// Schema of a database: partitioning + tables + per-table document schema
/// histories.
#[derive(Debug, Clone)]
pub struct DatabaseSchema {
    /// Database name (`Music`).
    pub name: String,
    /// Partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Number of partitions (ignored for unpartitioned databases).
    pub num_partitions: u32,
    /// Replicas per partition ("each partition is replicated n ways within
    /// the cluster. The replication factor is specified in the schema for
    /// the database").
    pub replication: usize,
    /// Tables by name.
    pub tables: BTreeMap<String, TableSchema>,
    /// Document schema version history per table.
    pub documents: SchemaRegistry,
}

impl DatabaseSchema {
    /// Creates a hash-partitioned database schema.
    pub fn new(name: impl Into<String>, num_partitions: u32, replication: usize) -> Self {
        DatabaseSchema {
            name: name.into(),
            strategy: PartitionStrategy::Hash,
            num_partitions: num_partitions.max(1),
            replication: replication.max(1),
            tables: BTreeMap::new(),
            documents: SchemaRegistry::new(),
        }
    }

    /// Adds a table with its initial (version 1) document schema. The
    /// document schema is registered under the table name.
    pub fn with_table(
        mut self,
        table: TableSchema,
        document_schema: RecordSchema,
    ) -> Result<Self, EspressoError> {
        if document_schema.name != table.name {
            return Err(EspressoError::Schema(SchemaError::Invalid(format!(
                "document schema `{}` must be named after table `{}`",
                document_schema.name, table.name
            ))));
        }
        if table.key_elements.is_empty() {
            return Err(EspressoError::Schema(SchemaError::Invalid(format!(
                "table `{}` needs at least one key element",
                table.name
            ))));
        }
        self.documents.register(document_schema)?;
        self.tables.insert(table.name.clone(), table);
        Ok(self)
    }

    /// Evolves a table's document schema to a new version ("to evolve a
    /// document schema, one simply posts a new version to the schema URI.
    /// New document schemas must be compatible").
    pub fn evolve_document_schema(
        &mut self,
        schema: RecordSchema,
    ) -> Result<SchemaVersion, EspressoError> {
        if !self.tables.contains_key(&schema.name) {
            return Err(EspressoError::UnknownTable(schema.name));
        }
        Ok(self.documents.register(schema)?)
    }

    /// The table schema for `table`.
    pub fn table(&self, table: &str) -> Result<&TableSchema, EspressoError> {
        self.tables
            .get(table)
            .ok_or_else(|| EspressoError::UnknownTable(table.into()))
    }

    /// Partition of a resource id.
    pub fn partition_of(&self, resource_id: &str) -> u32 {
        match self.strategy {
            PartitionStrategy::Hash => {
                (li_commons::fnv::fnv1a(resource_id.as_bytes()) % u64::from(self.num_partitions))
                    as u32
            }
            PartitionStrategy::Unpartitioned => 0,
        }
    }
}

/// Errors from the Espresso layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EspressoError {
    /// Schema definition / evolution / codec failure.
    Schema(SchemaError),
    /// Unknown database.
    UnknownDatabase(String),
    /// Unknown table within a database.
    UnknownTable(String),
    /// A URI could not be parsed or doesn't match the table schema.
    BadRequest(String),
    /// The document does not exist.
    NotFound(String),
    /// Conditional request failed (etag mismatch).
    PreconditionFailed {
        /// Expected etag.
        expected: u64,
        /// Actual etag.
        actual: u64,
    },
    /// The routed-to node is not master for the partition (stale routing
    /// table or mid-failover).
    NotMaster {
        /// The partition involved.
        partition: u32,
    },
    /// No master is currently assigned (mid-failover).
    NoMaster {
        /// The partition involved.
        partition: u32,
    },
    /// Storage-layer failure.
    Storage(String),
    /// Replication/relay failure.
    Replication(String),
    /// Cluster-manager failure.
    Cluster(String),
}

impl fmt::Display for EspressoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EspressoError::Schema(e) => write!(f, "schema error: {e}"),
            EspressoError::UnknownDatabase(name) => write!(f, "unknown database `{name}`"),
            EspressoError::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            EspressoError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EspressoError::NotFound(uri) => write!(f, "not found: {uri}"),
            EspressoError::PreconditionFailed { expected, actual } => {
                write!(f, "precondition failed: etag expected {expected}, actual {actual}")
            }
            EspressoError::NotMaster { partition } => {
                write!(f, "not master for partition {partition}")
            }
            EspressoError::NoMaster { partition } => {
                write!(f, "no master for partition {partition}")
            }
            EspressoError::Storage(msg) => write!(f, "storage error: {msg}"),
            EspressoError::Replication(msg) => write!(f, "replication error: {msg}"),
            EspressoError::Cluster(msg) => write!(f, "cluster error: {msg}"),
        }
    }
}

impl std::error::Error for EspressoError {}

impl From<SchemaError> for EspressoError {
    fn from(e: SchemaError) -> Self {
        EspressoError::Schema(e)
    }
}

impl From<li_sqlstore::DbError> for EspressoError {
    fn from(e: li_sqlstore::DbError) -> Self {
        match e {
            li_sqlstore::DbError::EtagMismatch { expected, actual } => {
                EspressoError::PreconditionFailed { expected, actual }
            }
            other => EspressoError::Storage(other.to_string()),
        }
    }
}

impl From<li_databus::DatabusError> for EspressoError {
    fn from(e: li_databus::DatabusError) -> Self {
        EspressoError::Replication(e.to_string())
    }
}

impl From<li_helix::HelixError> for EspressoError {
    fn from(e: li_helix::HelixError) -> Self {
        EspressoError::Cluster(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_commons::schema::{Field, FieldType, Value};

    fn album_doc_schema(version: u16) -> RecordSchema {
        RecordSchema::new(
            "Album",
            version,
            vec![
                Field::new("year", FieldType::Long),
                Field::new("genre", FieldType::Str).indexed(),
            ],
        )
        .unwrap()
    }

    fn music() -> DatabaseSchema {
        DatabaseSchema::new("Music", 8, 2)
            .with_table(
                TableSchema::new("Album", ["artist", "album"]),
                album_doc_schema(1),
            )
            .unwrap()
    }

    #[test]
    fn table_registration_and_lookup() {
        let db = music();
        assert_eq!(db.table("Album").unwrap().key_depth(), 2);
        assert!(matches!(
            db.table("Song"),
            Err(EspressoError::UnknownTable(_))
        ));
    }

    #[test]
    fn document_schema_must_match_table_name() {
        let err = DatabaseSchema::new("Music", 8, 2)
            .with_table(
                TableSchema::new("Album", ["artist", "album"]),
                RecordSchema::new("Wrong", 1, vec![]).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, EspressoError::Schema(_)));
    }

    #[test]
    fn hash_partitioning_spreads_and_is_stable() {
        let db = music();
        let p = db.partition_of("Akon");
        assert_eq!(p, db.partition_of("Akon"));
        let distinct: std::collections::HashSet<u32> =
            (0..100).map(|i| db.partition_of(&format!("artist-{i}"))).collect();
        assert!(distinct.len() > 4, "uses many partitions");
        assert!(distinct.iter().all(|&p| p < 8));
    }

    #[test]
    fn unpartitioned_maps_everything_to_zero() {
        let mut db = music();
        db.strategy = PartitionStrategy::Unpartitioned;
        assert_eq!(db.partition_of("anything"), 0);
    }

    #[test]
    fn schema_evolution_via_registry() {
        let mut db = music();
        let mut fields = album_doc_schema(1).fields;
        fields.push(Field::new("label", FieldType::Str).with_default(Value::Str("".into())));
        let v2 = RecordSchema::new("Album", 2, fields).unwrap();
        assert_eq!(db.evolve_document_schema(v2).unwrap(), 2);
        assert_eq!(db.documents.latest("Album").unwrap().version, 2);
        // Unknown table rejected.
        let stray = RecordSchema::new("Nope", 1, vec![]).unwrap();
        assert!(matches!(
            db.evolve_document_schema(stray),
            Err(EspressoError::UnknownTable(_))
        ));
    }
}
