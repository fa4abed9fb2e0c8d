//! Self-describing, evolvable binary record serialization (Avro analog).
//!
//! Databus "chose Avro because it is an open format with multiple language
//! bindings \[and\] allows serialization in the relay without generation of
//! source-schema specific code" (§III.C); Espresso stores "a binary
//! serialized version of the document along with the schema version needed
//! to deserialize the stored document", with schemas "freely evolvable ...
//! according to the Avro schema resolution rules" (§IV.A).
//!
//! This module reproduces those semantics rather than the Avro wire format:
//!
//! * [`RecordSchema`] — a named, versioned list of typed fields with
//!   optional defaults, definable in JSON (like the paper's schemas).
//! * [`encode`]/[`decode`] — compact binary codec driven entirely by the
//!   schema value at runtime (no generated code).
//! * [`RecordSchema::check_evolution`] — the compatibility rules: a new
//!   version may add fields *with defaults*, drop fields, widen `Long` to
//!   `Double`, and make required fields optional. Incompatible changes are
//!   rejected at registration time.
//! * [`resolve`] — reads a record written with an older (or newer) writer
//!   schema into the shape of the reader schema, filling defaults.
//! * [`SchemaRegistry`] — per-source version history, the piece the Databus
//!   relay and Espresso storage nodes share.

use serde::{get_field, get_field_or_default, object, DeError, Deserialize, JsonValue, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::varint;
use bytes::Buf;

/// Version number of a schema within its source's history (1-based).
pub type SchemaVersion = u16;

/// The type of a record field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer (covers the paper's int/long/bigint columns).
    Long,
    /// 64-bit float.
    Double,
    /// UTF-8 string.
    Str,
    /// Raw bytes (serialized documents, blobs).
    Bytes,
    /// Nullable wrapper.
    Optional(Box<FieldType>),
    /// Homogeneous list.
    Array(Box<FieldType>),
}

/// JSON form (serde's externally-tagged enum with lowercase names): unit
/// variants are bare strings (`"long"`), wrapping variants are one-entry
/// objects (`{"optional": "str"}`).
impl Serialize for FieldType {
    fn to_json_value(&self) -> JsonValue {
        match self {
            FieldType::Bool => JsonValue::Str("bool".into()),
            FieldType::Long => JsonValue::Str("long".into()),
            FieldType::Double => JsonValue::Str("double".into()),
            FieldType::Str => JsonValue::Str("str".into()),
            FieldType::Bytes => JsonValue::Str("bytes".into()),
            FieldType::Optional(inner) => object(vec![("optional", inner.to_json_value())]),
            FieldType::Array(inner) => object(vec![("array", inner.to_json_value())]),
        }
    }
}

impl Deserialize for FieldType {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        match value {
            JsonValue::Str(tag) => match tag.as_str() {
                "bool" => Ok(FieldType::Bool),
                "long" => Ok(FieldType::Long),
                "double" => Ok(FieldType::Double),
                "str" => Ok(FieldType::Str),
                "bytes" => Ok(FieldType::Bytes),
                other => Err(DeError(format!("unknown field type `{other}`"))),
            },
            JsonValue::Object(entries) if entries.len() == 1 => {
                let (tag, inner) = &entries[0];
                let inner = Box::new(FieldType::from_json_value(inner)?);
                match tag.as_str() {
                    "optional" => Ok(FieldType::Optional(inner)),
                    "array" => Ok(FieldType::Array(inner)),
                    other => Err(DeError(format!("unknown field type `{other}`"))),
                }
            }
            other => Err(DeError::expected("field type", other)),
        }
    }
}

impl FieldType {
    /// True when a value written as `writer` may be read as `self`,
    /// possibly via promotion (Long → Double) or optional-widening.
    fn accepts(&self, writer: &FieldType) -> bool {
        if self == writer {
            return true;
        }
        match (self, writer) {
            (FieldType::Double, FieldType::Long) => true,
            (FieldType::Optional(r), FieldType::Optional(w)) => r.accepts(w),
            (FieldType::Optional(inner), w) => inner.accepts(w),
            (FieldType::Array(r), FieldType::Array(w)) => r.accepts(w),
            _ => false,
        }
    }
}

/// A dynamically-typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null (only valid for `Optional` fields).
    Null,
    /// Boolean value.
    Bool(bool),
    /// Integer value.
    Long(i64),
    /// Float value.
    Double(f64),
    /// String value.
    Str(String),
    /// Byte-array value.
    Bytes(Vec<u8>),
    /// Array value.
    Array(Vec<Value>),
}

/// JSON form (serde's untagged representation): the payload alone, with
/// deserialization trying variants in declaration order — so an array of
/// byte-sized integers parses as `Bytes`, any other array as `Array`.
impl Serialize for Value {
    fn to_json_value(&self) -> JsonValue {
        match self {
            Value::Null => JsonValue::Null,
            Value::Bool(v) => JsonValue::Bool(*v),
            Value::Long(v) => JsonValue::Int(*v),
            Value::Double(v) => JsonValue::Float(*v),
            Value::Str(v) => JsonValue::Str(v.clone()),
            Value::Bytes(v) => {
                JsonValue::Array(v.iter().map(|b| JsonValue::Int(*b as i64)).collect())
            }
            Value::Array(items) => {
                JsonValue::Array(items.iter().map(Serialize::to_json_value).collect())
            }
        }
    }
}

impl Deserialize for Value {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        match value {
            JsonValue::Null => Ok(Value::Null),
            JsonValue::Bool(v) => Ok(Value::Bool(*v)),
            JsonValue::Int(_) | JsonValue::UInt(_) => value
                .as_i64()
                .map(Value::Long)
                .ok_or_else(|| DeError::expected("i64 value", value)),
            JsonValue::Float(v) => Ok(Value::Double(*v)),
            JsonValue::Str(v) => Ok(Value::Str(v.clone())),
            JsonValue::Array(items) => {
                let bytes: Option<Vec<u8>> = items
                    .iter()
                    .map(|item| item.as_u64().and_then(|v| u8::try_from(v).ok()))
                    .collect();
                match bytes {
                    Some(bytes) => Ok(Value::Bytes(bytes)),
                    None => items
                        .iter()
                        .map(Value::from_json_value)
                        .collect::<Result<Vec<_>, _>>()
                        .map(Value::Array),
                }
            }
            other => Err(DeError::expected("value", other)),
        }
    }
}

impl Value {
    fn conforms_to(&self, ty: &FieldType) -> bool {
        match (self, ty) {
            (Value::Null, FieldType::Optional(_)) => true,
            (v, FieldType::Optional(inner)) => v.conforms_to(inner),
            (Value::Bool(_), FieldType::Bool) => true,
            (Value::Long(_), FieldType::Long) => true,
            (Value::Double(_), FieldType::Double) => true,
            (Value::Long(_), FieldType::Double) => true, // promotable literal
            (Value::Str(_), FieldType::Str) => true,
            (Value::Bytes(_), FieldType::Bytes) => true,
            (Value::Array(items), FieldType::Array(inner)) => {
                items.iter().all(|v| v.conforms_to(inner))
            }
            _ => false,
        }
    }

    /// Widens a Long into a Double when the target field type requires it.
    fn promote(self, ty: &FieldType) -> Value {
        match (self, ty) {
            (Value::Long(v), FieldType::Double) => Value::Double(v as f64),
            (v, FieldType::Optional(inner)) if v != Value::Null => v.promote(inner),
            (v, _) => v,
        }
    }
}

/// One field of a record schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (unique within the schema).
    pub name: String,
    /// Field type (serialized under the key `type`).
    pub ty: FieldType,
    /// Default used when a reader's field is absent from the writer schema.
    pub default: Option<Value>,
    /// Whether this field carries a secondary-index annotation (Espresso's
    /// "fields ... annotated with indexing constraints").
    pub indexed: bool,
}

/// JSON form: `ty` is renamed to `type`; `default` and `indexed` are
/// omitted when `None`/`false` and default-filled when absent.
impl Serialize for Field {
    fn to_json_value(&self) -> JsonValue {
        let mut entries = vec![
            ("name", self.name.to_json_value()),
            ("type", self.ty.to_json_value()),
        ];
        if self.default.is_some() {
            entries.push(("default", self.default.to_json_value()));
        }
        if self.indexed {
            entries.push(("indexed", self.indexed.to_json_value()));
        }
        object(entries)
    }
}

impl Deserialize for Field {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(Field {
            name: get_field(value, "name")?,
            ty: get_field(value, "type")?,
            default: get_field_or_default(value, "default")?,
            indexed: get_field_or_default(value, "indexed")?,
        })
    }
}

impl Field {
    /// A plain required field.
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        Field {
            name: name.into(),
            ty,
            default: None,
            indexed: false,
        }
    }

    /// Adds a default value (required for evolution-added fields).
    pub fn with_default(mut self, default: Value) -> Self {
        self.default = Some(default);
        self
    }

    /// Marks the field as secondary-indexed.
    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }
}

/// Errors from schema definition, encoding, decoding, or evolution.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// A record value doesn't match the schema.
    TypeMismatch {
        /// Field (or value description) that failed.
        field: String,
        /// The type the schema expected.
        expected: String,
    },
    /// A required field is missing from a record (and has no default).
    MissingField(String),
    /// Binary data can't be decoded.
    Decode(String),
    /// An evolution rule was violated.
    Incompatible(String),
    /// Schema/version lookup failed.
    UnknownSchema(String),
    /// The schema definition itself is invalid.
    Invalid(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::TypeMismatch { field, expected } => {
                write!(f, "field `{field}` does not conform to type {expected}")
            }
            SchemaError::MissingField(name) => write!(f, "missing field `{name}`"),
            SchemaError::Decode(msg) => write!(f, "decode error: {msg}"),
            SchemaError::Incompatible(msg) => write!(f, "incompatible evolution: {msg}"),
            SchemaError::UnknownSchema(msg) => write!(f, "unknown schema: {msg}"),
            SchemaError::Invalid(msg) => write!(f, "invalid schema: {msg}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<varint::VarintError> for SchemaError {
    fn from(e: varint::VarintError) -> Self {
        SchemaError::Decode(e.to_string())
    }
}

/// A named, versioned record schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSchema {
    /// Record name, e.g. `"member_profile"`.
    pub name: String,
    /// Version within the source's history.
    pub version: SchemaVersion,
    /// Ordered field list; binary encoding follows this order.
    pub fields: Vec<Field>,
}

impl Serialize for RecordSchema {
    fn to_json_value(&self) -> JsonValue {
        object(vec![
            ("name", self.name.to_json_value()),
            ("version", self.version.to_json_value()),
            ("fields", self.fields.to_json_value()),
        ])
    }
}

impl Deserialize for RecordSchema {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(RecordSchema {
            name: get_field(value, "name")?,
            version: get_field(value, "version")?,
            fields: get_field(value, "fields")?,
        })
    }
}

impl RecordSchema {
    /// Creates a schema, validating field-name uniqueness and that defaults
    /// conform to their field types.
    pub fn new(
        name: impl Into<String>,
        version: SchemaVersion,
        fields: Vec<Field>,
    ) -> Result<Self, SchemaError> {
        let schema = RecordSchema {
            name: name.into(),
            version,
            fields,
        };
        let mut seen = std::collections::HashSet::new();
        for field in &schema.fields {
            if !seen.insert(&field.name) {
                return Err(SchemaError::Invalid(format!(
                    "duplicate field `{}`",
                    field.name
                )));
            }
            if let Some(default) = &field.default {
                if !default.conforms_to(&field.ty) {
                    return Err(SchemaError::Invalid(format!(
                        "default for `{}` does not conform to its type",
                        field.name
                    )));
                }
            }
        }
        Ok(schema)
    }

    /// Parses a schema from its JSON definition (the representation the
    /// paper specifies for Espresso schemas).
    pub fn from_json(json: &str) -> Result<Self, SchemaError> {
        let schema: RecordSchema =
            serde_json::from_str(json).map_err(|e| SchemaError::Invalid(e.to_string()))?;
        RecordSchema::new(schema.name, schema.version, schema.fields)
    }

    /// Serializes the schema definition to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schema serializes")
    }

    /// Returns the field named `name`.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Names of fields annotated as indexed.
    pub fn indexed_fields(&self) -> impl Iterator<Item = &Field> {
        self.fields.iter().filter(|f| f.indexed)
    }

    /// Checks that `next` is a compatible evolution of `self`:
    /// * fields present in both must have accepting types (same, widened,
    ///   or made optional);
    /// * fields added in `next` must carry defaults;
    /// * fields dropped from `self` are always fine (readers of old data
    ///   use [`resolve`]);
    /// * versions must increase by exactly one.
    pub fn check_evolution(&self, next: &RecordSchema) -> Result<(), SchemaError> {
        if next.name != self.name {
            return Err(SchemaError::Incompatible(format!(
                "schema name changed from `{}` to `{}`",
                self.name, next.name
            )));
        }
        if next.version != self.version + 1 {
            return Err(SchemaError::Incompatible(format!(
                "version must advance from {} to {}, got {}",
                self.version,
                self.version + 1,
                next.version
            )));
        }
        for field in &next.fields {
            match self.field(&field.name) {
                Some(old) => {
                    if !field.ty.accepts(&old.ty) {
                        return Err(SchemaError::Incompatible(format!(
                            "field `{}` narrowed or changed type",
                            field.name
                        )));
                    }
                }
                None => {
                    if field.default.is_none() && !matches!(field.ty, FieldType::Optional(_)) {
                        return Err(SchemaError::Incompatible(format!(
                            "new field `{}` has no default",
                            field.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A record instance: field name → value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    /// Field values by name.
    pub fields: BTreeMap<String, Value>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style field setter.
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Self {
        self.fields.insert(name.into(), value);
        self
    }

    /// Sets a field value.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        self.fields.insert(name.into(), value);
    }

    /// Gets a field value.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.get(name)
    }
}

fn encode_value(out: &mut Vec<u8>, value: &Value, ty: &FieldType) -> Result<(), SchemaError> {
    match ty {
        FieldType::Optional(inner) => match value {
            Value::Null => out.push(0),
            v => {
                out.push(1);
                encode_value(out, v, inner)?;
            }
        },
        FieldType::Bool => match value {
            Value::Bool(b) => out.push(u8::from(*b)),
            _ => return type_err(value, ty),
        },
        FieldType::Long => match value {
            Value::Long(v) => varint::write_i64(out, *v),
            _ => return type_err(value, ty),
        },
        FieldType::Double => match value {
            Value::Double(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::Long(v) => out.extend_from_slice(&(*v as f64).to_le_bytes()),
            _ => return type_err(value, ty),
        },
        FieldType::Str => match value {
            Value::Str(s) => varint::write_bytes(out, s.as_bytes()),
            _ => return type_err(value, ty),
        },
        FieldType::Bytes => match value {
            Value::Bytes(b) => varint::write_bytes(out, b),
            _ => return type_err(value, ty),
        },
        FieldType::Array(inner) => match value {
            Value::Array(items) => {
                varint::write_u64(out, items.len() as u64);
                for item in items {
                    encode_value(out, item, inner)?;
                }
            }
            _ => return type_err(value, ty),
        },
    }
    Ok(())
}

fn type_err(value: &Value, ty: &FieldType) -> Result<(), SchemaError> {
    Err(SchemaError::TypeMismatch {
        field: format!("{value:?}"),
        expected: format!("{ty:?}"),
    })
}

fn decode_value(buf: &mut &[u8], ty: &FieldType) -> Result<Value, SchemaError> {
    Ok(match ty {
        FieldType::Optional(inner) => {
            if !buf.has_remaining() {
                return Err(SchemaError::Decode("truncated optional".into()));
            }
            let tag = buf.get_u8();
            match tag {
                0 => Value::Null,
                1 => decode_value(buf, inner)?,
                other => return Err(SchemaError::Decode(format!("bad optional tag {other}"))),
            }
        }
        FieldType::Bool => {
            if !buf.has_remaining() {
                return Err(SchemaError::Decode("truncated bool".into()));
            }
            Value::Bool(buf.get_u8() != 0)
        }
        FieldType::Long => Value::Long(varint::read_i64(buf)?),
        FieldType::Double => {
            if buf.remaining() < 8 {
                return Err(SchemaError::Decode("truncated double".into()));
            }
            let mut raw = [0u8; 8];
            buf.copy_to_slice(&mut raw);
            Value::Double(f64::from_le_bytes(raw))
        }
        FieldType::Str => {
            let raw = varint::read_bytes(buf)?;
            Value::Str(
                String::from_utf8(raw).map_err(|e| SchemaError::Decode(e.to_string()))?,
            )
        }
        FieldType::Bytes => Value::Bytes(varint::read_bytes(buf)?),
        FieldType::Array(inner) => {
            let n = varint::read_u64(buf)? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_value(buf, inner)?);
            }
            Value::Array(items)
        }
    })
}

/// Encodes `record` under `schema`. Missing fields fall back to the
/// schema default (or `Null` for optionals); a missing required field
/// without a default is an error.
pub fn encode(schema: &RecordSchema, record: &Record) -> Result<Vec<u8>, SchemaError> {
    let mut out = Vec::with_capacity(64);
    for field in &schema.fields {
        let owned;
        let value = match record.get(&field.name) {
            Some(v) => v,
            None => match (&field.default, &field.ty) {
                (Some(default), _) => default,
                (None, FieldType::Optional(_)) => {
                    owned = Value::Null;
                    &owned
                }
                (None, _) => return Err(SchemaError::MissingField(field.name.clone())),
            },
        };
        if !value.conforms_to(&field.ty) {
            return Err(SchemaError::TypeMismatch {
                field: field.name.clone(),
                expected: format!("{:?}", field.ty),
            });
        }
        encode_value(&mut out, value, &field.ty)?;
    }
    Ok(out)
}

/// Decodes bytes produced by [`encode`] under the same (writer) schema.
pub fn decode(schema: &RecordSchema, mut data: &[u8]) -> Result<Record, SchemaError> {
    let mut record = Record::new();
    for field in &schema.fields {
        let value = decode_value(&mut data, &field.ty)?;
        record.set(field.name.clone(), value);
    }
    if !data.is_empty() {
        return Err(SchemaError::Decode(format!(
            "{} trailing bytes",
            data.len()
        )));
    }
    Ok(record)
}

/// Reads binary data written under `writer` into the shape of `reader`:
/// fields the reader lacks are dropped, fields the writer lacks take the
/// reader's default, and Long→Double promotion is applied. When writer
/// and reader are the same schema, the decoded record is the answer.
pub fn resolve(
    writer: &RecordSchema,
    reader: &RecordSchema,
    data: &[u8],
) -> Result<Record, SchemaError> {
    let mut raw = decode(writer, data)?;
    if std::ptr::eq(writer, reader) {
        return Ok(raw);
    }
    let mut record = Record::new();
    for field in &reader.fields {
        let value = match raw.fields.remove(&field.name) {
            Some(v) => v.promote(&field.ty),
            None => match (&field.default, &field.ty) {
                (Some(d), _) => d.clone(),
                (None, FieldType::Optional(_)) => Value::Null,
                (None, _) => return Err(SchemaError::MissingField(field.name.clone())),
            },
        };
        if !value.conforms_to(&field.ty) {
            return Err(SchemaError::TypeMismatch {
                field: field.name.clone(),
                expected: format!("{:?}", field.ty),
            });
        }
        record.set(field.name.clone(), value);
    }
    Ok(record)
}

/// Versioned schema history for a set of named sources. Thread-safe via
/// external locking (callers wrap in a lock or use one per thread).
#[derive(Debug, Default, Clone)]
pub struct SchemaRegistry {
    sources: BTreeMap<String, Vec<Arc<RecordSchema>>>,
}

impl SchemaRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a schema. The first version for a source must be version
    /// 1; later versions must pass [`RecordSchema::check_evolution`]
    /// against the latest registered version.
    pub fn register(&mut self, schema: RecordSchema) -> Result<SchemaVersion, SchemaError> {
        let history = self.sources.entry(schema.name.clone()).or_default();
        match history.last() {
            None => {
                if schema.version != 1 {
                    return Err(SchemaError::Incompatible(format!(
                        "first version of `{}` must be 1, got {}",
                        schema.name, schema.version
                    )));
                }
            }
            Some(latest) => latest.check_evolution(&schema)?,
        }
        let version = schema.version;
        history.push(Arc::new(schema));
        Ok(version)
    }

    /// Latest schema for `source`.
    pub fn latest(&self, source: &str) -> Result<Arc<RecordSchema>, SchemaError> {
        self.sources
            .get(source)
            .and_then(|h| h.last())
            .cloned()
            .ok_or_else(|| SchemaError::UnknownSchema(source.into()))
    }

    /// Specific version of `source`'s schema.
    pub fn get(&self, source: &str, version: SchemaVersion) -> Result<Arc<RecordSchema>, SchemaError> {
        self.sources
            .get(source)
            .and_then(|h| h.iter().find(|s| s.version == version))
            .cloned()
            .ok_or_else(|| {
                SchemaError::UnknownSchema(format!("{source} v{version}"))
            })
    }

    /// All registered source names.
    pub fn sources(&self) -> impl Iterator<Item = &str> {
        self.sources.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_v1() -> RecordSchema {
        RecordSchema::new(
            "member_profile",
            1,
            vec![
                Field::new("member_id", FieldType::Long),
                Field::new("name", FieldType::Str).indexed(),
                Field::new("score", FieldType::Double),
                Field::new(
                    "headline",
                    FieldType::Optional(Box::new(FieldType::Str)),
                ),
                Field::new(
                    "company_ids",
                    FieldType::Array(Box::new(FieldType::Long)),
                ),
            ],
        )
        .unwrap()
    }

    fn sample() -> Record {
        Record::new()
            .with("member_id", Value::Long(12345))
            .with("name", Value::Str("Jay".into()))
            .with("score", Value::Double(0.75))
            .with("headline", Value::Str("Infrastructure".into()))
            .with(
                "company_ids",
                Value::Array(vec![Value::Long(1), Value::Long(9)]),
            )
    }

    #[test]
    fn encode_decode_round_trip() {
        let schema = profile_v1();
        let record = sample();
        let bytes = encode(&schema, &record).unwrap();
        let decoded = decode(&schema, &bytes).unwrap();
        assert_eq!(decoded, record);
        // Same schema on both sides, and an equal one built apart.
        assert_eq!(resolve(&schema, &schema, &bytes).unwrap(), decoded);
        assert_eq!(resolve(&schema, &profile_v1(), &bytes).unwrap(), decoded);
    }

    #[test]
    fn optional_null_and_missing_fields() {
        let schema = profile_v1();
        let mut record = sample();
        record.fields.remove("headline"); // omitted optional → Null
        let bytes = encode(&schema, &record).unwrap();
        let decoded = decode(&schema, &bytes).unwrap();
        assert_eq!(decoded.get("headline"), Some(&Value::Null));
    }

    #[test]
    fn missing_required_field_errors() {
        let schema = profile_v1();
        let mut record = sample();
        record.fields.remove("member_id");
        assert!(matches!(
            encode(&schema, &record),
            Err(SchemaError::MissingField(f)) if f == "member_id"
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let schema = profile_v1();
        let record = sample().with("member_id", Value::Str("oops".into()));
        assert!(matches!(
            encode(&schema, &record),
            Err(SchemaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn truncated_data_rejected() {
        let schema = profile_v1();
        let bytes = encode(&schema, &sample()).unwrap();
        assert!(decode(&schema, &bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let schema = profile_v1();
        let mut bytes = encode(&schema, &sample()).unwrap();
        bytes.push(0xAA);
        assert!(matches!(
            decode(&schema, &bytes),
            Err(SchemaError::Decode(_))
        ));
    }

    #[test]
    fn json_definition_round_trip() {
        let schema = profile_v1();
        let json = schema.to_json();
        let parsed = RecordSchema::from_json(&json).unwrap();
        assert_eq!(parsed, schema);
        assert_eq!(
            parsed.indexed_fields().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["name"]
        );
    }

    #[test]
    fn evolution_add_field_with_default_ok() {
        let v1 = profile_v1();
        let mut fields = v1.fields.clone();
        fields.push(Field::new("connections", FieldType::Long).with_default(Value::Long(0)));
        let v2 = RecordSchema::new("member_profile", 2, fields).unwrap();
        v1.check_evolution(&v2).unwrap();

        // Old bytes resolve under the new schema with the default filled in.
        let bytes = encode(&v1, &sample()).unwrap();
        let resolved = resolve(&v1, &v2, &bytes).unwrap();
        assert_eq!(resolved.get("connections"), Some(&Value::Long(0)));
        assert_eq!(resolved.get("member_id"), Some(&Value::Long(12345)));
    }

    #[test]
    fn evolution_add_field_without_default_rejected() {
        let v1 = profile_v1();
        let mut fields = v1.fields.clone();
        fields.push(Field::new("connections", FieldType::Long));
        let v2 = RecordSchema::new("member_profile", 2, fields).unwrap();
        assert!(matches!(
            v1.check_evolution(&v2),
            Err(SchemaError::Incompatible(_))
        ));
    }

    #[test]
    fn evolution_drop_field_ok_and_resolve_drops_value() {
        let v1 = profile_v1();
        let fields: Vec<Field> = v1
            .fields
            .iter()
            .filter(|f| f.name != "score")
            .cloned()
            .collect();
        let v2 = RecordSchema::new("member_profile", 2, fields).unwrap();
        v1.check_evolution(&v2).unwrap();
        let bytes = encode(&v1, &sample()).unwrap();
        let resolved = resolve(&v1, &v2, &bytes).unwrap();
        assert!(resolved.get("score").is_none());
    }

    #[test]
    fn evolution_long_to_double_promotion() {
        let v1 = RecordSchema::new("counts", 1, vec![Field::new("n", FieldType::Long)]).unwrap();
        let v2 = RecordSchema::new("counts", 2, vec![Field::new("n", FieldType::Double)]).unwrap();
        v1.check_evolution(&v2).unwrap();
        let bytes = encode(&v1, &Record::new().with("n", Value::Long(42))).unwrap();
        let resolved = resolve(&v1, &v2, &bytes).unwrap();
        assert_eq!(resolved.get("n"), Some(&Value::Double(42.0)));
    }

    #[test]
    fn evolution_narrowing_rejected() {
        let v1 = RecordSchema::new("counts", 1, vec![Field::new("n", FieldType::Double)]).unwrap();
        let v2 = RecordSchema::new("counts", 2, vec![Field::new("n", FieldType::Long)]).unwrap();
        assert!(v1.check_evolution(&v2).is_err());
    }

    #[test]
    fn evolution_version_must_step_by_one() {
        let v1 = profile_v1();
        let v3 = RecordSchema::new("member_profile", 3, v1.fields.clone()).unwrap();
        assert!(v1.check_evolution(&v3).is_err());
    }

    #[test]
    fn registry_enforces_history() {
        let mut registry = SchemaRegistry::new();
        registry.register(profile_v1()).unwrap();
        // re-registering version 1 fails (evolution check vs latest)
        assert!(registry.register(profile_v1()).is_err());
        let mut fields = profile_v1().fields;
        fields.push(Field::new("connections", FieldType::Long).with_default(Value::Long(0)));
        let v2 = RecordSchema::new("member_profile", 2, fields).unwrap();
        registry.register(v2).unwrap();
        assert_eq!(registry.latest("member_profile").unwrap().version, 2);
        assert_eq!(registry.get("member_profile", 1).unwrap().version, 1);
        assert!(registry.get("member_profile", 9).is_err());
        assert!(registry.latest("nope").is_err());
    }

    #[test]
    fn duplicate_field_rejected() {
        assert!(RecordSchema::new(
            "bad",
            1,
            vec![
                Field::new("x", FieldType::Long),
                Field::new("x", FieldType::Str),
            ],
        )
        .is_err());
    }

    #[test]
    fn bad_default_rejected() {
        assert!(RecordSchema::new(
            "bad",
            1,
            vec![Field::new("x", FieldType::Long).with_default(Value::Str("no".into()))],
        )
        .is_err());
    }
}
