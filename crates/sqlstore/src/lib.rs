//! # li-sqlstore — the primary-database substrate
//!
//! The paper's pipelines start at "LinkedIn primary databases" — Oracle and
//! MySQL (§III.A). Databus consumes their transaction logs; Espresso
//! "stores documents in MySQL as the local data store" (§IV.B) and uses
//! "the semi-synchronous feature of MySQL replication" for durability. None
//! of that requires SQL itself: what the downstream systems program against
//! is
//!
//! 1. **primary-keyed tables** with point lookups and prefix scans,
//! 2. **multi-table transactions** with atomic commit,
//! 3. a **binlog**: a replayable, CRC-framed log of committed transactions,
//!    each stamped with a commit sequence number (SCN) and carrying its
//!    transaction boundary,
//! 4. **semi-synchronous shipping**: a commit is acknowledged only after
//!    the binlog entry reaches a second home (the Databus relay), and
//! 5. **triggers**: user callbacks invoked with each committed change
//!    (the paper's alternative capture path for Oracle).
//!
//! This crate implements exactly that contract (see the substitution table
//! in DESIGN.md). Rows carry the metadata columns of the paper's
//! Table IV.1 — `timestamp`, `etag`, `val`, `schema_version` — so Espresso
//! can implement conditional HTTP requests on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binlog;
mod db;
mod replication;
mod row;
mod table;

pub use binlog::{Binlog, BinlogEntry};
pub use db::{Database, DbError, Transaction, TriggerFn};
pub use replication::{ShipError, Shipper};
pub use row::{Op, Row, RowChange, RowKey, Scn};
pub use table::Table;
