//! Store definitions — the per-table configuration of Figure II.1.

use serde::{get_field, object, DeError, Deserialize, JsonValue, Serialize};

/// Which storage engine backs a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Volatile in-memory engine (tests, caches).
    Memory,
    /// Log-structured read-write engine, the BerkeleyDB-JE analog.
    BdbLike,
    /// The custom read-only engine fed by the build/pull/swap pipeline.
    ReadOnly,
}

/// Configuration of one store (a "database table" in the paper's terms):
/// "Every store has its set of configurations, including — replication
/// factor (N), required number of nodes which should participate in read
/// (R) and writes (W) and finally a schema."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDef {
    /// Store name.
    pub name: String,
    /// Replication factor N.
    pub replication: usize,
    /// Read quorum R.
    pub required_reads: usize,
    /// Write quorum W.
    pub required_writes: usize,
    /// Zones that must be covered by the preference list (1 = single-DC).
    pub zones_required: usize,
    /// Backing engine.
    pub engine: EngineKind,
}

/// JSON form (serde's externally-tagged unit variants): a bare string
/// with the variant name.
impl Serialize for EngineKind {
    fn to_json_value(&self) -> JsonValue {
        let tag = match self {
            EngineKind::Memory => "Memory",
            EngineKind::BdbLike => "BdbLike",
            EngineKind::ReadOnly => "ReadOnly",
        };
        JsonValue::Str(tag.into())
    }
}

impl Deserialize for EngineKind {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        match value.as_str() {
            Some("Memory") => Ok(EngineKind::Memory),
            Some("BdbLike") => Ok(EngineKind::BdbLike),
            Some("ReadOnly") => Ok(EngineKind::ReadOnly),
            _ => Err(DeError::expected("engine kind", value)),
        }
    }
}

impl Serialize for StoreDef {
    fn to_json_value(&self) -> JsonValue {
        object(vec![
            ("name", self.name.to_json_value()),
            ("replication", self.replication.to_json_value()),
            ("required_reads", self.required_reads.to_json_value()),
            ("required_writes", self.required_writes.to_json_value()),
            ("zones_required", self.zones_required.to_json_value()),
            ("engine", self.engine.to_json_value()),
        ])
    }
}

impl Deserialize for StoreDef {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(StoreDef {
            name: get_field(value, "name")?,
            replication: get_field(value, "replication")?,
            required_reads: get_field(value, "required_reads")?,
            required_writes: get_field(value, "required_writes")?,
            zones_required: get_field(value, "zones_required")?,
            engine: get_field(value, "engine")?,
        })
    }
}

impl StoreDef {
    /// A store with N=2, R=1, W=1 on the BDB-like engine — the shape of the
    /// paper's read-write clusters.
    pub fn read_write(name: impl Into<String>) -> Self {
        StoreDef {
            name: name.into(),
            replication: 2,
            required_reads: 1,
            required_writes: 1,
            zones_required: 1,
            engine: EngineKind::BdbLike,
        }
    }

    /// A read-only store (N=2, R=1) fed by the offline pipeline.
    pub fn read_only(name: impl Into<String>) -> Self {
        StoreDef {
            name: name.into(),
            replication: 2,
            required_reads: 1,
            required_writes: 1,
            zones_required: 1,
            engine: EngineKind::ReadOnly,
        }
    }

    /// Builder: sets N/R/W.
    #[must_use]
    pub fn with_quorum(mut self, n: usize, r: usize, w: usize) -> Self {
        self.replication = n;
        self.required_reads = r;
        self.required_writes = w;
        self
    }

    /// Builder: sets the zone-count requirement.
    #[must_use]
    pub fn with_zones(mut self, zones: usize) -> Self {
        self.zones_required = zones;
        self
    }

    /// Builder: sets the engine.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Validates the quorum arithmetic (R ≤ N, W ≤ N, both ≥ 1).
    pub fn validate(&self) -> Result<(), String> {
        if self.replication == 0 {
            return Err("replication factor must be >= 1".into());
        }
        if self.required_reads == 0 || self.required_reads > self.replication {
            return Err(format!(
                "required_reads {} out of range 1..={}",
                self.required_reads, self.replication
            ));
        }
        if self.required_writes == 0 || self.required_writes > self.replication {
            return Err(format!(
                "required_writes {} out of range 1..={}",
                self.required_writes, self.replication
            ));
        }
        if self.zones_required == 0 {
            return Err("zones_required must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(StoreDef::read_write("s").validate().is_ok());
        assert!(StoreDef::read_only("s").validate().is_ok());
    }

    #[test]
    fn invalid_quorums_rejected() {
        assert!(StoreDef::read_write("s").with_quorum(0, 1, 1).validate().is_err());
        assert!(StoreDef::read_write("s").with_quorum(2, 3, 1).validate().is_err());
        assert!(StoreDef::read_write("s").with_quorum(2, 1, 3).validate().is_err());
        assert!(StoreDef::read_write("s").with_quorum(2, 0, 1).validate().is_err());
        assert!(StoreDef::read_write("s").with_zones(0).validate().is_err());
    }
}
