//! Semi-synchronous binlog shipping.

use std::fmt;

use crate::binlog::BinlogEntry;

/// Failure to ship a binlog entry to its second home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipError(pub String);

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ship error: {}", self.0)
    }
}

impl std::error::Error for ShipError {}

/// Destination of semi-synchronous binlog shipping. In the paper this is
/// "MySQL replication to publish the binlog of all master partitions on a
/// storage node to the Databus relay" (§IV.B); `li-databus` implements this
/// trait on its relay.
pub trait Shipper: Send + Sync {
    /// Delivers one committed entry from database `source`. Returning an
    /// error aborts the commit (the transaction never becomes visible).
    fn ship(&self, source: &str, entry: &BinlogEntry) -> Result<(), ShipError>;

    /// Delivers a run of committed entries at once. Destinations that can
    /// amortize per-delivery cost (e.g. one buffer-lock acquisition per
    /// batch instead of per entry) override this; the default preserves
    /// one-at-a-time semantics, stopping at the first failure.
    fn ship_batch(&self, source: &str, entries: &[BinlogEntry]) -> Result<(), ShipError> {
        for entry in entries {
            self.ship(source, entry)?;
        }
        Ok(())
    }
}

/// Blanket impl so closures can act as shippers in tests and examples.
impl<F> Shipper for F
where
    F: Fn(&str, &BinlogEntry) -> Result<(), ShipError> + Send + Sync,
{
    fn ship(&self, source: &str, entry: &BinlogEntry) -> Result<(), ShipError> {
        self(source, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{Database, DbError};
    use crate::row::RowKey;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    fn primary() -> Database {
        let db = Database::new("primary");
        db.create_table("t").unwrap();
        db
    }

    #[test]
    fn semi_sync_ships_before_visibility() {
        let db = primary();
        let shipped = Arc::new(AtomicU64::new(0));
        let counter = shipped.clone();
        db.set_shipper(Arc::new(move |_: &str, entry: &BinlogEntry| {
            counter.store(entry.scn, Ordering::SeqCst);
            Ok(())
        }));
        db.put_one("t", RowKey::single("k"), &b"v"[..], 1).unwrap();
        assert_eq!(shipped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn ship_failure_aborts_commit() {
        let db = primary();
        let fail = Arc::new(AtomicBool::new(true));
        let flag = fail.clone();
        db.set_shipper(Arc::new(move |_: &str, _: &BinlogEntry| {
            if flag.load(Ordering::SeqCst) {
                Err(ShipError("relay unreachable".into()))
            } else {
                Ok(())
            }
        }));
        let err = db.put_one("t", RowKey::single("k"), &b"v"[..], 1).unwrap_err();
        assert!(matches!(err, DbError::ShipFailed(_)));
        // Not visible, not logged.
        assert_eq!(db.get("t", &RowKey::single("k")).unwrap(), None);
        assert_eq!(db.last_scn(), 0);
        // Relay back: the same write succeeds with SCN 1 (no gap).
        fail.store(false, Ordering::SeqCst);
        assert_eq!(db.put_one("t", RowKey::single("k"), &b"v"[..], 1).unwrap(), 1);
    }
}
