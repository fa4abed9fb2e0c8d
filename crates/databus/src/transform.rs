//! Declarative data transformations — the paper's stated future work.
//!
//! §III.E: "Future work includes ... supporting declarative data
//! transformations and multi-tenancy." A consumer often wants the change
//! stream in a different shape than the source: renamed tables (schema
//! migration consumers), redacted columns (privacy boundaries), or routed
//! key prefixes (multi-tenant fan-in). Rules are declared as data, applied
//! by the client library between the relay and the consumer callback.

use bytes::Bytes;
use li_sqlstore::{Op, RowChange, RowKey};

use crate::event::Window;

/// One declarative rule. Rules match by table name and rewrite the change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformRule {
    /// Renames a table in-flight (`from` → `to`).
    RenameTable {
        /// Source table name.
        from: String,
        /// Name the consumer sees.
        to: String,
    },
    /// Drops all changes to a table (negative filtering, e.g. PII tables).
    DropTable {
        /// Table to suppress.
        table: String,
    },
    /// Replaces the value payload of a table's rows with a fixed
    /// redaction marker, preserving keys and ordering (privacy boundary:
    /// downstream learns *that* a row changed, not its contents).
    RedactValues {
        /// Table to redact.
        table: String,
    },
    /// Prefixes every key of a table with a tenant label (multi-tenancy
    /// fan-in: several sources share one consumer namespace).
    PrefixKeys {
        /// Table to rewrite.
        table: String,
        /// Prefix path element to prepend.
        prefix: String,
    },
}

/// Redaction marker used by [`TransformRule::RedactValues`].
pub const REDACTED: &[u8] = b"<redacted>";

/// An ordered rule pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transformation {
    rules: Vec<TransformRule>,
}

impl Transformation {
    /// An empty (identity) transformation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a rule (builder style). Rules apply in declaration order.
    #[must_use]
    pub fn with(mut self, rule: TransformRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True when no rules are declared.
    pub fn is_identity(&self) -> bool {
        self.rules.is_empty()
    }

    fn apply_change(&self, mut change: RowChange) -> Option<RowChange> {
        for rule in &self.rules {
            match rule {
                TransformRule::RenameTable { from, to } => {
                    if change.table == *from {
                        change.table = to.clone();
                    }
                }
                TransformRule::DropTable { table } => {
                    if change.table == *table {
                        return None;
                    }
                }
                TransformRule::RedactValues { table } => {
                    if change.table == *table {
                        if let Op::Put(row) = &mut change.op {
                            row.value = Bytes::from_static(REDACTED);
                        }
                    }
                }
                TransformRule::PrefixKeys { table, prefix } => {
                    if change.table == *table {
                        let parts = std::iter::once(prefix).chain(change.key.parts());
                        change.key = RowKey::new(parts.cloned());
                    }
                }
            }
        }
        Some(change)
    }

    /// Applies the pipeline to a window, preserving its SCN (checkpoints
    /// must keep advancing even when every change is dropped).
    pub fn apply(&self, window: &Window) -> Window {
        if self.is_identity() {
            return window.clone();
        }
        Window {
            source_db: window.source_db.clone(),
            scn: window.scn,
            timestamp: window.timestamp,
            changes: window
                .changes
                .iter()
                .filter_map(|c| self.apply_change(c.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_sqlstore::Row;

    fn put(table: &str, key: &str, value: &str) -> RowChange {
        RowChange {
            table: table.into(),
            key: RowKey::single(key),
            op: Op::Put(Row::new(Bytes::copy_from_slice(value.as_bytes()), 1)),
        }
    }

    fn window(changes: Vec<RowChange>) -> Window {
        Window {
            source_db: "primary".into(),
            scn: 7,
            timestamp: 70,
            changes,
        }
    }

    #[test]
    fn identity_is_a_clone() {
        let w = window(vec![put("t", "k", "v")]);
        assert_eq!(Transformation::new().apply(&w), w);
    }

    #[test]
    fn rename_and_drop() {
        let t = Transformation::new()
            .with(TransformRule::RenameTable {
                from: "member".into(),
                to: "member_v2".into(),
            })
            .with(TransformRule::DropTable {
                table: "internal_audit".into(),
            });
        let w = window(vec![put("member", "k", "v"), put("internal_audit", "k", "v")]);
        let out = t.apply(&w);
        assert_eq!(out.changes.len(), 1);
        assert_eq!(out.changes[0].table, "member_v2");
        assert_eq!(out.scn, 7, "scn preserved");
    }

    #[test]
    fn redaction_keeps_keys_hides_values() {
        let t = Transformation::new().with(TransformRule::RedactValues {
            table: "salary".into(),
        });
        let w = window(vec![put("salary", "member:1", "250000")]);
        let out = t.apply(&w);
        match &out.changes[0].op {
            Op::Put(row) => assert_eq!(row.value.as_ref(), REDACTED),
            Op::Delete => panic!("op kind must be preserved"),
        }
        assert_eq!(out.changes[0].key, RowKey::single("member:1"));
    }

    #[test]
    fn key_prefixing_for_multi_tenancy() {
        let t = Transformation::new().with(TransformRule::PrefixKeys {
            table: "events".into(),
            prefix: "tenant-a".into(),
        });
        let w = window(vec![put("events", "e1", "v")]);
        let out = t.apply(&w);
        assert_eq!(out.changes[0].key, RowKey::new(["tenant-a", "e1"]));
    }

    #[test]
    fn rules_compose_in_order() {
        // Rename first, then redact under the *new* name: order matters.
        let t = Transformation::new()
            .with(TransformRule::RenameTable {
                from: "a".into(),
                to: "b".into(),
            })
            .with(TransformRule::RedactValues { table: "b".into() });
        let out = t.apply(&window(vec![put("a", "k", "secret")]));
        match &out.changes[0].op {
            Op::Put(row) => assert_eq!(row.value.as_ref(), REDACTED),
            Op::Delete => unreachable!(),
        }
        // Reversed order would not redact.
        let t_rev = Transformation::new()
            .with(TransformRule::RedactValues { table: "b".into() })
            .with(TransformRule::RenameTable {
                from: "a".into(),
                to: "b".into(),
            });
        let out = t_rev.apply(&window(vec![put("a", "k", "secret")]));
        match &out.changes[0].op {
            Op::Put(row) => assert_eq!(row.value.as_ref(), b"secret"),
            Op::Delete => unreachable!(),
        }
    }

    #[test]
    fn deletes_pass_through_rules() {
        let t = Transformation::new().with(TransformRule::RedactValues {
            table: "t".into(),
        });
        let delete = RowChange {
            table: "t".into(),
            key: RowKey::single("k"),
            op: Op::Delete,
        };
        let out = t.apply(&window(vec![delete.clone()]));
        assert_eq!(out.changes[0], delete);
    }
}
