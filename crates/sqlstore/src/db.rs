//! The database instance: tables, transactions, commit pipeline.
//!
//! State is sharded per table-partition (PR 7): row storage is striped
//! over [`ShardedLock`] stripes keyed by `(table, row key)`, so
//! transactions touching disjoint rows commit concurrently. What stays
//! single-point is SCN assignment: a short commit-point lock covers
//! binlog append + semi-sync ship, so commit order == ship order == SCN
//! order and the Databus relay's stream remains timeline-consistent.
//! Lock order is fixed — row stripes in ascending index order first, the
//! commit point last — which keeps arbitrary multi-row transactions
//! deadlock-free.

use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use li_commons::metrics::{Counter, Gauge, MetricsRegistry};
use li_commons::shard::ShardedLock;
use li_commons::sim::{Clock, RealClock};

use crate::binlog::{Binlog, BinlogEntry};
use crate::replication::{ShipError, Shipper};
use crate::row::{Op, Row, RowChange, RowKey, Scn};
use crate::table::Table;

/// Row stripes per database. Sized for the closed-loop site bench:
/// comfortably above the driver counts that matter (8–32) so two random
/// rows rarely collide, small enough that whole-state operations (scans,
/// fingerprints) stay cheap.
const ROW_STRIPES: usize = 32;

/// Errors from database operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The named table does not exist.
    UnknownTable(String),
    /// A table with that name already exists.
    DuplicateTable(String),
    /// Conditional write failed: the row's etag didn't match.
    EtagMismatch {
        /// Expected etag supplied by the caller.
        expected: u64,
        /// Actual etag of the stored row (0 when the row is absent).
        actual: u64,
    },
    /// Semi-synchronous shipping failed; the transaction was rolled back.
    ShipFailed(String),
    /// The transaction contains no changes.
    EmptyTransaction,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            DbError::DuplicateTable(t) => write!(f, "table `{t}` already exists"),
            DbError::EtagMismatch { expected, actual } => {
                write!(f, "etag mismatch: expected {expected}, actual {actual}")
            }
            DbError::ShipFailed(msg) => write!(f, "semi-sync ship failed: {msg}"),
            DbError::EmptyTransaction => write!(f, "empty transaction"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ShipError> for DbError {
    fn from(e: ShipError) -> Self {
        DbError::ShipFailed(e.to_string())
    }
}

/// Trigger callback, invoked once per committed transaction with the full
/// binlog entry — the paper's trigger-based capture hook.
pub type TriggerFn = Arc<dyn Fn(&BinlogEntry) + Send + Sync>;

/// A buffered transaction. Changes are invisible until
/// [`Database::commit`]; aborting is just dropping the value.
#[derive(Debug, Default)]
pub struct Transaction {
    changes: Vec<RowChange>,
}

impl Transaction {
    /// Buffers an insert-or-update.
    pub fn put(
        &mut self,
        table: impl Into<String>,
        key: RowKey,
        value: impl Into<Bytes>,
        schema_version: u16,
    ) -> &mut Self {
        self.changes.push(RowChange {
            table: table.into(),
            key,
            op: Op::Put(Row::new(value, schema_version)),
        });
        self
    }

    /// Buffers a delete.
    pub fn delete(&mut self, table: impl Into<String>, key: RowKey) -> &mut Self {
        self.changes.push(RowChange {
            table: table.into(),
            key,
            op: Op::Delete,
        });
        self
    }

    /// Number of buffered changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// The single-point tail of the commit pipeline: SCN assignment, binlog
/// append, semi-sync ship. Held briefly; never while waiting on a row
/// stripe (stripes are acquired first — see the module doc's lock order).
struct CommitPoint {
    binlog: Binlog,
    /// Highest SCN applied from a replication stream (slave role).
    applied_scn: Scn,
}

/// Storage-node observability under `sqlstore.db.<name>`: binlog commits
/// and the newest committed SCN.
struct DbMetrics {
    commits: Counter,
    last_scn: Gauge,
}

impl DbMetrics {
    fn new(registry: &Arc<MetricsRegistry>, name: &str) -> Self {
        let scope = registry.scope(format!("sqlstore.db.{name}"));
        DbMetrics {
            commits: scope.counter("commits"),
            last_scn: scope.gauge("last_scn"),
        }
    }
}

/// A database instance — the analog of one MySQL server (or the Oracle
/// primary). Thread-safe; share via `Arc`.
pub struct Database {
    name: String,
    /// Table registry (DDL): names only; row data lives in the stripes.
    tables: RwLock<BTreeSet<String>>,
    /// Row storage, striped by `(table, key)` hash. Each stripe maps
    /// table name → the subset of that table's rows hashing to it.
    rows: ShardedLock<HashMap<String, Table>>,
    commit_point: Mutex<CommitPoint>,
    triggers: Mutex<Vec<TriggerFn>>,
    shipper: Mutex<Option<Arc<dyn Shipper>>>,
    clock: Arc<dyn Clock>,
    registry: Arc<MetricsRegistry>,
    metrics: DbMetrics,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("tables", &self.tables.read().iter().collect::<Vec<_>>())
            .field("last_scn", &self.commit_point.lock().binlog.last_scn())
            .finish()
    }
}

impl Database {
    /// Creates an empty database using the real clock.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_clock(name, Arc::new(RealClock::new()))
    }

    /// Creates a database with an injected clock (deterministic tests).
    pub fn with_clock(name: impl Into<String>, clock: Arc<dyn Clock>) -> Self {
        Self::with_metrics(name, clock, &MetricsRegistry::new())
    }

    /// Creates a database that reports into a shared metrics registry
    /// (under `sqlstore.db.<name>`).
    pub fn with_metrics(
        name: impl Into<String>,
        clock: Arc<dyn Clock>,
        registry: &Arc<MetricsRegistry>,
    ) -> Self {
        let name = name.into();
        let metrics = DbMetrics::new(registry, &name);
        Database {
            name,
            tables: RwLock::new(BTreeSet::new()),
            rows: ShardedLock::new(ROW_STRIPES, HashMap::new),
            commit_point: Mutex::new(CommitPoint {
                binlog: Binlog::new(),
                applied_scn: 0,
            }),
            triggers: Mutex::new(Vec::new()),
            shipper: Mutex::new(None),
            clock,
            registry: Arc::clone(registry),
            metrics,
        }
    }

    /// The metrics registry this database reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a table.
    pub fn create_table(&self, name: impl Into<String>) -> Result<(), DbError> {
        let name = name.into();
        let mut tables = self.tables.write();
        if !tables.insert(name.clone()) {
            return Err(DbError::DuplicateTable(name));
        }
        Ok(())
    }

    /// Lists table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().iter().cloned().collect()
    }

    fn validate_tables(&self, changes: &[RowChange]) -> Result<(), DbError> {
        let tables = self.tables.read();
        for change in changes {
            if !tables.contains(&change.table) {
                return Err(DbError::UnknownTable(change.table.clone()));
            }
        }
        Ok(())
    }

    /// The stripe a row lives in. The hash input is always the
    /// `(&str, &RowKey)` pair so every code path agrees.
    fn stripe_of(&self, table: &str, key: &RowKey) -> usize {
        self.rows.stripe_of(&(table, key))
    }

    /// Registers a commit trigger (capture hook). Triggers fire after the
    /// transaction is durable and visible, in registration order.
    pub fn register_trigger(&self, trigger: TriggerFn) {
        self.triggers.lock().push(trigger);
    }

    /// Installs the semi-synchronous shipper. Subsequent commits block
    /// until the shipper acknowledges the binlog entry; a shipping failure
    /// aborts the commit. This is the paper's "each change is written to
    /// two places before being committed" guarantee.
    pub fn set_shipper(&self, shipper: Arc<dyn Shipper>) {
        *self.shipper.lock() = Some(shipper);
    }

    /// Begins a transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::default()
    }

    /// Commits a transaction: assigns the next SCN, stamps row metadata,
    /// appends to the binlog, ships semi-synchronously (if configured),
    /// applies to tables, then fires triggers. Returns the commit SCN.
    ///
    /// Concurrency: the transaction's row stripes are held from before
    /// SCN assignment until after apply, so per-row visibility follows
    /// SCN order; transactions on disjoint stripes overlap everywhere
    /// except the short commit-point section (append + ship).
    pub fn commit(&self, txn: Transaction) -> Result<Scn, DbError> {
        if txn.is_empty() {
            return Err(DbError::EmptyTransaction);
        }
        let timestamp = self.clock.now_nanos();
        let shipper = self.shipper.lock().clone();
        self.validate_tables(&txn.changes)?;

        // Row stripes first (ascending — the global lock order), commit
        // point last.
        let stripe_ids = self
            .rows
            .stripe_set(txn.changes.iter().map(|c| (c.table.as_str(), &c.key)));
        let mut guards = self.rows.lock_many(&stripe_ids);

        let entry = {
            let mut commit = self.commit_point.lock();
            let scn = commit.binlog.last_scn() + 1;
            let changes: Vec<RowChange> = txn
                .changes
                .into_iter()
                .map(|mut change| {
                    if let Op::Put(row) = &mut change.op {
                        row.etag = scn;
                        row.timestamp = timestamp;
                    }
                    change
                })
                .collect();
            let entry = BinlogEntry {
                scn,
                timestamp,
                changes,
            };
            commit.binlog.append(entry.clone());

            // Semi-sync: the entry must reach its second home before the
            // transaction becomes visible. We hold the commit point across
            // the ship so commit order == ship order == SCN order, which is
            // what makes the relay's stream timeline-consistent.
            if let Some(shipper) = &shipper {
                if let Err(e) = shipper.ship(&self.name, &entry) {
                    commit.binlog.pop();
                    return Err(e.into());
                }
            }
            // Publish the high-water gauge while still holding the commit
            // point: published after the lock, two stripe-disjoint commits
            // can land their `set`s out of SCN order and leave the gauge
            // permanently one behind — which reads as a phantom lag
            // against the relay's (ship-order-serialized) newest_scn.
            self.metrics.last_scn.set(scn as i64);
            entry
        };

        // Apply under the still-held row stripes; the commit point is
        // already free for the next transaction's SCN.
        for change in &entry.changes {
            let stripe = self.stripe_of(&change.table, &change.key);
            let slot = stripe_ids.binary_search(&stripe).expect("stripe acquired");
            let table = guards[slot].entry(change.table.clone()).or_default();
            match &change.op {
                Op::Put(row) => {
                    table.put(change.key.clone(), row.clone());
                }
                Op::Delete => {
                    table.delete(&change.key);
                }
            }
        }
        drop(guards);

        self.metrics.commits.inc();
        for trigger in self.triggers.lock().iter() {
            trigger(&entry);
        }
        Ok(entry.scn)
    }

    /// Single-change convenience: upsert one row in its own transaction.
    pub fn put_one(
        &self,
        table: &str,
        key: RowKey,
        value: impl Into<Bytes>,
        schema_version: u16,
    ) -> Result<Scn, DbError> {
        let mut txn = self.begin();
        txn.put(table, key, value, schema_version);
        self.commit(txn)
    }

    /// Single-change convenience: delete one row in its own transaction.
    pub fn delete_one(&self, table: &str, key: RowKey) -> Result<Scn, DbError> {
        let mut txn = self.begin();
        txn.delete(table, key);
        self.commit(txn)
    }

    /// Conditional upsert: succeeds only when the stored row's etag equals
    /// `expected_etag` (0 = "row must not exist"). Implements the
    /// optimistic concurrency behind Espresso's conditional HTTP requests.
    pub fn put_if_etag(
        &self,
        table: &str,
        key: RowKey,
        expected_etag: u64,
        value: impl Into<Bytes>,
        schema_version: u16,
    ) -> Result<Scn, DbError> {
        {
            let actual = self
                .get(table, &key)?
                .map_or(0, |row| row.etag);
            if actual != expected_etag {
                return Err(DbError::EtagMismatch {
                    expected: expected_etag,
                    actual,
                });
            }
        }
        // Benign race with another writer is resolved by commit order; the
        // second writer's etag check will fail on retry semantics at the
        // caller. For the in-process reproduction this check-then-commit is
        // adequate (one writer per partition master in Espresso).
        self.put_one(table, key, value, schema_version)
    }

    /// Point read of the committed row image.
    pub fn get(&self, table: &str, key: &RowKey) -> Result<Option<Row>, DbError> {
        if !self.tables.read().contains(table) {
            return Err(DbError::UnknownTable(table.into()));
        }
        let stripe = self.rows.lock(&(table, key));
        Ok(stripe.get(table).and_then(|t| t.get(key)).cloned())
    }

    /// Prefix scan returning cloned rows in key order (gathered across
    /// all stripes, then merged).
    pub fn scan_prefix(&self, table: &str, prefix: &RowKey) -> Result<Vec<(RowKey, Row)>, DbError> {
        if !self.tables.read().contains(table) {
            return Err(DbError::UnknownTable(table.into()));
        }
        let guards = self.rows.lock_all();
        let mut rows: Vec<(RowKey, Row)> = guards
            .iter()
            .filter_map(|g| g.get(table))
            .flat_map(|t| t.scan_prefix(prefix).map(|(k, r)| (k.clone(), r.clone())))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(rows)
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize, DbError> {
        if !self.tables.read().contains(table) {
            return Err(DbError::UnknownTable(table.into()));
        }
        Ok(self
            .rows
            .lock_all()
            .iter()
            .filter_map(|g| g.get(table))
            .map(Table::len)
            .sum())
    }

    /// SCN of the last committed transaction.
    pub fn last_scn(&self) -> Scn {
        self.commit_point.lock().binlog.last_scn()
    }

    /// Copies binlog entries with `scn > after_scn` (capture interface).
    pub fn binlog_after(&self, after_scn: Scn) -> Vec<BinlogEntry> {
        self.commit_point
            .lock()
            .binlog
            .entries_after(after_scn)
            .to_vec()
    }

    /// Serializes the binlog for durable storage.
    pub fn binlog_bytes(&self) -> Vec<u8> {
        self.commit_point.lock().binlog.to_bytes()
    }

    /// Applies a replicated transaction (slave role): mutates tables and
    /// tracks `applied_scn`, but does *not* append to the local binlog or
    /// re-ship — a slave's changes come from its master's log. Entries must
    /// arrive in SCN order; stale or duplicate entries are ignored (idempotent
    /// at-least-once application).
    pub fn apply_replicated(&self, entry: &BinlogEntry) -> Result<bool, DbError> {
        self.validate_tables(&entry.changes)?;
        let stripe_ids = self
            .rows
            .stripe_set(entry.changes.iter().map(|c| (c.table.as_str(), &c.key)));
        let mut guards = self.rows.lock_many(&stripe_ids);
        {
            // Stripes before commit point — the one global lock order.
            let mut commit = self.commit_point.lock();
            if entry.scn <= commit.applied_scn {
                return Ok(false);
            }
            commit.applied_scn = entry.scn;
        }
        for change in &entry.changes {
            let stripe = self.stripe_of(&change.table, &change.key);
            let slot = stripe_ids.binary_search(&stripe).expect("stripe acquired");
            let table = guards[slot].entry(change.table.clone()).or_default();
            match &change.op {
                Op::Put(row) => {
                    table.put(change.key.clone(), row.clone());
                }
                Op::Delete => {
                    table.delete(&change.key);
                }
            }
        }
        Ok(true)
    }

    /// Highest SCN applied via [`Database::apply_replicated`].
    pub fn applied_scn(&self) -> Scn {
        self.commit_point.lock().applied_scn
    }

    /// Applies raw row changes without SCN tracking, logging, or shipping.
    /// This is the slave-side apply path for consumers that track their own
    /// per-source progress (Espresso tracks a checkpoint per
    /// `(source node, partition)` because each storage node's binlog has an
    /// independent SCN space). Application must be idempotent at the caller
    /// (puts overwrite, deletes are no-ops when absent — both hold here).
    pub fn apply_changes(&self, changes: &[RowChange]) -> Result<(), DbError> {
        self.validate_tables(changes)?;
        let stripe_ids = self
            .rows
            .stripe_set(changes.iter().map(|c| (c.table.as_str(), &c.key)));
        let mut guards = self.rows.lock_many(&stripe_ids);
        for change in changes {
            let stripe = self.stripe_of(&change.table, &change.key);
            let slot = stripe_ids.binary_search(&stripe).expect("stripe acquired");
            let table = guards[slot].entry(change.table.clone()).or_default();
            match &change.op {
                Op::Put(row) => {
                    table.put(change.key.clone(), row.clone());
                }
                Op::Delete => {
                    table.delete(&change.key);
                }
            }
        }
        Ok(())
    }

    /// Deterministic fingerprint of all table contents (FNV-1a over table
    /// names, keys, and full row images in sorted order). Two databases
    /// with the same fingerprint hold identical visible state — the
    /// comparison primitive behind the chaos harness's replica-convergence
    /// and binlog-replay-equivalence invariants. Stripe layout is
    /// invisible: rows are gathered across stripes and emitted in global
    /// key order, so deterministic and parallel instances holding the
    /// same data produce the same fingerprint.
    pub fn state_fingerprint(&self) -> u64 {
        self.fingerprint(true)
    }

    /// Timestamp-insensitive variant of [`Self::state_fingerprint`]:
    /// hashes table names, keys, row values, schema versions, and etags
    /// but skips the wall-clock commit timestamps. Since the etag is the
    /// commit SCN, two databases match iff they executed the same logical
    /// commit stream — possibly at different wall times, which is exactly
    /// the comparison the streaming-vs-bulk population loader equivalence
    /// needs (two separately-built instances can never agree on
    /// `RealClock` readings).
    pub fn logical_fingerprint(&self) -> u64 {
        self.fingerprint(false)
    }

    fn fingerprint(&self, include_timestamps: bool) -> u64 {
        let names = self.table_names();
        let guards = self.rows.lock_all();
        let mut bytes = Vec::new();
        for name in names {
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(0);
            let mut rows: Vec<(&RowKey, &Row)> = guards
                .iter()
                .filter_map(|g| g.get(&name))
                .flat_map(Table::iter)
                .collect();
            rows.sort_by(|a, b| a.0.cmp(b.0));
            for (key, row) in rows {
                for part in &key.0 {
                    bytes.extend_from_slice(part.as_bytes());
                    bytes.push(0);
                }
                bytes.push(1);
                bytes.extend_from_slice(&row.value);
                bytes.extend_from_slice(&row.schema_version.to_le_bytes());
                bytes.extend_from_slice(&row.etag.to_le_bytes());
                if include_timestamps {
                    bytes.extend_from_slice(&row.timestamp.to_le_bytes());
                }
            }
        }
        li_commons::fnv::fnv1a(&bytes)
    }

    /// Chaos invariant checker — binlog replay equivalence: recovering a
    /// fresh database from this one's serialized binlog must reproduce the
    /// exact table state. Holds only for databases whose every change went
    /// through [`Database::commit`] (a slave applying via
    /// [`Database::apply_changes`] has no binlog of its own).
    pub fn verify_replay_equivalence(&self) -> Result<(), String> {
        let replayed = Database::recover(self.name.clone(), &self.binlog_bytes());
        let (got, want) = (replayed.state_fingerprint(), self.state_fingerprint());
        if got != want {
            return Err(format!(
                "binlog replay of `{}` diverged: fingerprint {got:#x} != live {want:#x}",
                self.name
            ));
        }
        Ok(())
    }

    /// Rebuilds a database (tables + state) by replaying a serialized
    /// binlog — crash recovery. Tables named in the log are auto-created.
    pub fn recover(name: impl Into<String>, binlog_bytes: &[u8]) -> Self {
        let db = Database::new(name);
        let (log, _) = Binlog::recover(binlog_bytes);
        {
            let mut tables = db.tables.write();
            for entry in log.entries_after(0) {
                for change in &entry.changes {
                    tables.insert(change.table.clone());
                    let mut stripe = db.rows.lock(&(change.table.as_str(), &change.key));
                    let table = stripe.entry(change.table.clone()).or_default();
                    match &change.op {
                        Op::Put(row) => {
                            table.put(change.key.clone(), row.clone());
                        }
                        Op::Delete => {
                            table.delete(&change.key);
                        }
                    }
                }
            }
        }
        db.commit_point.lock().binlog = log;
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    fn db() -> Database {
        let db = Database::new("primary");
        db.create_table("member").unwrap();
        db.create_table("mailbox").unwrap();
        db
    }

    #[test]
    fn commit_assigns_dense_scns_and_metadata() {
        let db = db();
        let scn1 = db.put_one("member", RowKey::single("1"), &b"alice"[..], 1).unwrap();
        let scn2 = db.put_one("member", RowKey::single("2"), &b"bob"[..], 1).unwrap();
        assert_eq!((scn1, scn2), (1, 2));
        let row = db.get("member", &RowKey::single("1")).unwrap().unwrap();
        assert_eq!(row.etag, 1);
        assert_eq!(row.value.as_ref(), b"alice");
    }

    #[test]
    fn multi_table_transaction_is_atomic_in_binlog() {
        // The paper's example: "an insert into a member's mailbox and
        // update on the member's mailbox unread count" must share a txn.
        let db = db();
        let mut txn = db.begin();
        txn.put("mailbox", RowKey::new(["42", "msg-1"]), &b"hello"[..], 1);
        txn.put("member", RowKey::single("42"), &b"unread:1"[..], 1);
        let scn = db.commit(txn).unwrap();
        let entries = db.binlog_after(0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].scn, scn);
        assert_eq!(entries[0].changes.len(), 2, "boundary preserved");
    }

    #[test]
    fn unknown_table_aborts_whole_transaction() {
        let db = db();
        let mut txn = db.begin();
        txn.put("member", RowKey::single("1"), &b"x"[..], 1);
        txn.put("nope", RowKey::single("1"), &b"y"[..], 1);
        assert!(matches!(db.commit(txn), Err(DbError::UnknownTable(_))));
        // Nothing applied, nothing logged.
        assert_eq!(db.get("member", &RowKey::single("1")).unwrap(), None);
        assert_eq!(db.last_scn(), 0);
    }

    #[test]
    fn empty_transaction_rejected() {
        let db = db();
        assert_eq!(db.commit(db.begin()), Err(DbError::EmptyTransaction));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = db();
        assert!(matches!(
            db.create_table("member"),
            Err(DbError::DuplicateTable(_))
        ));
    }

    #[test]
    fn delete_round_trip() {
        let db = db();
        let key = RowKey::single("1");
        db.put_one("member", key.clone(), &b"x"[..], 1).unwrap();
        db.delete_one("member", key.clone()).unwrap();
        assert_eq!(db.get("member", &key).unwrap(), None);
        assert_eq!(db.last_scn(), 2, "delete is a logged transaction");
    }

    #[test]
    fn conditional_put_enforces_etag() {
        let db = db();
        let key = RowKey::single("1");
        // 0 = must not exist
        db.put_if_etag("member", key.clone(), 0, &b"v1"[..], 1).unwrap();
        let etag = db.get("member", &key).unwrap().unwrap().etag;
        db.put_if_etag("member", key.clone(), etag, &b"v2"[..], 1).unwrap();
        let err = db
            .put_if_etag("member", key.clone(), etag, &b"v3"[..], 1)
            .unwrap_err();
        assert!(matches!(err, DbError::EtagMismatch { .. }));
        assert_eq!(
            db.get("member", &key).unwrap().unwrap().value.as_ref(),
            b"v2"
        );
    }

    #[test]
    fn triggers_fire_per_commit_with_boundaries() {
        let db = db();
        let seen: Arc<PMutex<Vec<(Scn, usize)>>> = Arc::new(PMutex::new(Vec::new()));
        let sink = seen.clone();
        db.register_trigger(Arc::new(move |entry| {
            sink.lock().push((entry.scn, entry.changes.len()));
        }));
        db.put_one("member", RowKey::single("1"), &b"x"[..], 1).unwrap();
        let mut txn = db.begin();
        txn.put("member", RowKey::single("2"), &b"y"[..], 1);
        txn.delete("member", RowKey::single("1"));
        db.commit(txn).unwrap();
        assert_eq!(*seen.lock(), vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn recovery_replays_binlog() {
        let db = db();
        db.put_one("member", RowKey::single("1"), &b"v1"[..], 1).unwrap();
        db.put_one("member", RowKey::single("2"), &b"v2"[..], 1).unwrap();
        db.delete_one("member", RowKey::single("1")).unwrap();
        let bytes = db.binlog_bytes();

        let recovered = Database::recover("primary", &bytes);
        assert_eq!(recovered.last_scn(), 3);
        assert_eq!(recovered.get("member", &RowKey::single("1")).unwrap(), None);
        assert_eq!(
            recovered
                .get("member", &RowKey::single("2"))
                .unwrap()
                .unwrap()
                .value
                .as_ref(),
            b"v2"
        );
    }

    #[test]
    fn recovery_survives_torn_tail() {
        let db = db();
        db.put_one("member", RowKey::single("1"), &b"v1"[..], 1).unwrap();
        db.put_one("member", RowKey::single("2"), &b"v2"[..], 1).unwrap();
        let mut bytes = db.binlog_bytes();
        bytes.truncate(bytes.len() - 4);
        let recovered = Database::recover("primary", &bytes);
        assert_eq!(recovered.last_scn(), 1);
        assert!(recovered.get("member", &RowKey::single("2")).unwrap().is_none());
    }

    #[test]
    fn replicated_application_is_idempotent_and_ordered() {
        let primary = db();
        let replica = Database::new("replica");
        replica.create_table("member").unwrap();
        replica.create_table("mailbox").unwrap();

        primary.put_one("member", RowKey::single("1"), &b"v1"[..], 1).unwrap();
        primary.put_one("member", RowKey::single("1"), &b"v2"[..], 1).unwrap();
        let entries = primary.binlog_after(0);
        assert!(replica.apply_replicated(&entries[0]).unwrap());
        assert!(replica.apply_replicated(&entries[1]).unwrap());
        // Duplicate delivery (at-least-once) is a no-op.
        assert!(!replica.apply_replicated(&entries[1]).unwrap());
        assert_eq!(replica.applied_scn(), 2);
        assert_eq!(
            replica
                .get("member", &RowKey::single("1"))
                .unwrap()
                .unwrap()
                .value
                .as_ref(),
            b"v2"
        );
        // The replica's own binlog stays empty — it is not a source.
        assert_eq!(replica.last_scn(), 0);
    }

    #[test]
    fn concurrent_commits_serialize_with_dense_scns() {
        let db = Arc::new(db());
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    db.put_one(
                        "member",
                        RowKey::single(format!("{t}-{i}")),
                        &b"v"[..],
                        1,
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.last_scn(), 400);
        let entries = db.binlog_after(0);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.scn, i as u64 + 1, "SCNs dense and ordered");
        }
    }

    #[test]
    fn disjoint_row_commits_overlap_outside_commit_point() {
        // A held row stripe must not block a commit on a different stripe:
        // take the stripe for key A directly, then commit key B (different
        // stripe) from another thread — it must complete while A is held.
        let db = Arc::new(db());
        let key_a = RowKey::single("a");
        let key_b = (0..1000u32)
            .map(|i| RowKey::single(format!("b{i}")))
            .find(|k| {
                db.rows.stripe_of(&("member", k)) != db.rows.stripe_of(&("member", &key_a))
            })
            .expect("a key in another stripe");
        let guard = db.rows.lock(&("member", &key_a));
        let db2 = db.clone();
        let h = std::thread::spawn(move || {
            db2.put_one("member", key_b, &b"v"[..], 1).unwrap();
        });
        h.join().unwrap();
        drop(guard);
        assert_eq!(db.last_scn(), 1);
    }
}
