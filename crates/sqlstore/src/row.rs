//! Rows, composite keys, and change records.

use bytes::Bytes;
use li_commons::varint::{self, VarintError};
use std::sync::Arc;

/// Commit sequence number: the position of a transaction in the database's
/// total commit order. Databus's entire consistency story hangs off this
/// ("the data source ... generates a commit sequence number with each
/// transaction", §III.D).
pub type Scn = u64;

/// A composite primary key, modelled as ordered string path elements —
/// exactly how Espresso keys documents (`artist`, `album`, `song` in the
/// paper's Song table). Ordering is lexicographic by element, which keeps
/// a prefix scan's rows ("all albums by artist X") together once sorted.
///
/// The parts are immutable and held behind one `Arc`, so a clone is a
/// refcount bump: the table, the binlog, a relay window, the bootstrap
/// snapshot and an Espresso slave all share one allocation per key.
/// Equality, ordering and hashing are those of the slice of parts, so
/// stripe placement and scan order depend only on the key's elements.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowKey(Arc<[String]>);

impl RowKey {
    /// Builds a key from path elements, collected straight into the
    /// shared allocation.
    pub fn new<I, S>(parts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        RowKey(parts.into_iter().map(Into::into).collect())
    }

    /// Single-element key.
    pub fn single(part: impl Into<String>) -> Self {
        RowKey(Arc::new([part.into()]))
    }

    /// The key's path elements, in order.
    pub fn parts(&self) -> &[String] {
        &self.0
    }

    /// True when `self` begins with all elements of `prefix`.
    pub fn starts_with(&self, prefix: &RowKey) -> bool {
        self.0.starts_with(&prefix.0)
    }

    /// The first path element, if any (Espresso's `resource_id`, which
    /// determines the partition).
    pub fn resource_id(&self) -> Option<&str> {
        self.0.first().map(String::as_str)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.0.len() as u64);
        for part in self.0.iter() {
            varint::write_bytes(out, part.as_bytes());
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, VarintError> {
        let n = varint::read_u64(buf)? as usize;
        let mut parts = Vec::with_capacity(n.min(16));
        for _ in 0..n {
            let raw = varint::read_bytes(buf)?;
            parts.push(String::from_utf8(raw).map_err(|_| VarintError::UnexpectedEof)?);
        }
        Ok(RowKey::new(parts))
    }
}

impl std::fmt::Display for RowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.join("/"))
    }
}

/// A stored row: the serialized document plus the metadata columns of the
/// paper's Table IV.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Serialized document bytes (`val blob`).
    pub value: Bytes,
    /// Version of the schema needed to deserialize `value`.
    pub schema_version: u16,
    /// Entity tag for conditional requests; set to the committing SCN.
    pub etag: u64,
    /// Commit timestamp in nanoseconds.
    pub timestamp: u64,
}

impl Row {
    /// Creates a row with zeroed metadata (filled in at commit).
    pub fn new(value: impl Into<Bytes>, schema_version: u16) -> Self {
        Row {
            value: value.into(),
            schema_version,
            etag: 0,
            timestamp: 0,
        }
    }
}

/// The kind of change applied to a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert-or-update with the new row image.
    Put(Row),
    /// Row removal.
    Delete,
}

/// One row change within a transaction, as recorded in the binlog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChange {
    /// Table the change applies to.
    pub table: String,
    /// Primary key of the affected row.
    pub key: RowKey,
    /// The change itself.
    pub op: Op,
}

impl RowChange {
    /// Serializes the change into `out` (varint-framed, schema-free).
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_bytes(out, self.table.as_bytes());
        self.key.encode(out);
        match &self.op {
            Op::Put(row) => {
                out.push(0);
                varint::write_bytes(out, &row.value);
                varint::write_u64(out, u64::from(row.schema_version));
                varint::write_u64(out, row.etag);
                varint::write_u64(out, row.timestamp);
            }
            Op::Delete => out.push(1),
        }
    }

    /// Decodes a change produced by [`RowChange::encode`].
    pub fn decode(buf: &mut &[u8]) -> Result<Self, VarintError> {
        let table_raw = varint::read_bytes(buf)?;
        let table = String::from_utf8(table_raw).map_err(|_| VarintError::UnexpectedEof)?;
        let key = RowKey::decode(buf)?;
        if buf.is_empty() {
            return Err(VarintError::UnexpectedEof);
        }
        let tag = buf[0];
        *buf = &buf[1..];
        let op = match tag {
            0 => {
                let value = varint::read_bytes(buf)?;
                let schema_version = varint::read_u64(buf)? as u16;
                let etag = varint::read_u64(buf)?;
                let timestamp = varint::read_u64(buf)?;
                Op::Put(Row {
                    value: Bytes::from(value),
                    schema_version,
                    etag,
                    timestamp,
                })
            }
            1 => Op::Delete,
            _ => return Err(VarintError::UnexpectedEof),
        };
        Ok(RowChange { table, key, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_prefix_semantics() {
        let song = RowKey::new(["Etta_James", "Gold", "At_Last"]);
        let artist = RowKey::single("Etta_James");
        let other = RowKey::single("Doris_Day");
        assert!(song.starts_with(&artist));
        assert!(!song.starts_with(&other));
        assert!(song.starts_with(&song));
        assert!(!artist.starts_with(&song));
        assert_eq!(song.resource_id(), Some("Etta_James"));
    }

    #[test]
    fn key_ordering_groups_prefixes() {
        let mut keys = vec![
            RowKey::new(["b", "2"]),
            RowKey::new(["a", "9"]),
            RowKey::new(["a"]),
            RowKey::new(["a", "1"]),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                RowKey::new(["a"]),
                RowKey::new(["a", "1"]),
                RowKey::new(["a", "9"]),
                RowKey::new(["b", "2"]),
            ]
        );
    }

    #[test]
    fn change_codec_round_trip() {
        let put = RowChange {
            table: "Album".into(),
            key: RowKey::new(["Akon", "Trouble"]),
            op: Op::Put(Row {
                value: Bytes::from_static(b"{\"year\":2004}"),
                schema_version: 3,
                etag: 17,
                timestamp: 1_000_000,
            }),
        };
        let delete = RowChange {
            table: "Album".into(),
            key: RowKey::new(["Akon", "Stadium"]),
            op: Op::Delete,
        };
        let mut buf = Vec::new();
        put.encode(&mut buf);
        delete.encode(&mut buf);
        let mut cursor = &buf[..];
        assert_eq!(RowChange::decode(&mut cursor).unwrap(), put);
        assert_eq!(RowChange::decode(&mut cursor).unwrap(), delete);
        assert!(cursor.is_empty());
    }

    #[test]
    fn change_codec_rejects_truncation() {
        let change = RowChange {
            table: "T".into(),
            key: RowKey::single("k"),
            op: Op::Put(Row::new(&b"value"[..], 1)),
        };
        let mut buf = Vec::new();
        change.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut cursor = &buf[..cut];
            assert!(RowChange::decode(&mut cursor).is_err(), "cut at {cut}");
        }
    }
}
