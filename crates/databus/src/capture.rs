//! Capture adapters: how changes get from the source database into a relay.
//!
//! "At LinkedIn, we employ two capture approaches, triggers or consuming
//! from the database replication log" (§III.C). Both adapters speak to the
//! `li-sqlstore` substrate through its replayable binlog: log shipping as a
//! semi-synchronous shipper, and polling as the trigger path's analog.

use std::sync::Arc;

use li_sqlstore::{Database, Scn};
use parking_lot::Mutex;

use crate::event::Window;
use crate::relay::{Relay, RelayError};

/// Log-shipping capture: registers the relay as the database's
/// semi-synchronous shipper, so every commit lands in the relay before it
/// is acknowledged (the MySQL-replication path; also what Espresso uses for
/// durability).
pub struct LogShippingAdapter;

impl LogShippingAdapter {
    /// Wires `relay` as `db`'s semi-sync shipping destination.
    pub fn attach(db: &Database, relay: Arc<Relay>) {
        db.set_shipper(relay);
    }

    /// Wires `relay` as `db`'s shipper after first draining the binlog
    /// backlog past `from_scn` into it via batched shipping (one relay
    /// lock acquisition, one encode per entry) — attaching a fresh relay
    /// to a database that already has history. On error the shipper is
    /// not installed. Returns backlog windows shipped.
    pub fn attach_with_backlog(
        db: &Database,
        relay: Arc<Relay>,
        from_scn: Scn,
    ) -> Result<usize, li_sqlstore::ShipError> {
        use li_sqlstore::Shipper;
        let backlog = db.binlog_after(from_scn);
        relay.ship_batch(db.name(), &backlog)?;
        db.set_shipper(relay.clone());
        Ok(backlog.len())
    }
}

/// Polling capture (the trigger/log-mining path for the Oracle analog):
/// periodically drains `binlog_after(last_seen)` into the relay.
pub struct PollingAdapter {
    relay: Arc<Relay>,
    last_scn: Mutex<Scn>,
}

impl PollingAdapter {
    /// Creates an adapter that feeds `relay`, starting after `from_scn`.
    pub fn new(relay: Arc<Relay>, from_scn: Scn) -> Self {
        PollingAdapter {
            relay,
            last_scn: Mutex::new(from_scn),
        }
    }

    /// Pulls any new committed transactions from `db` into the relay as
    /// one batch: each entry is encoded once and the relay lock is taken
    /// once per poll, not per transaction. Entries the relay already has
    /// (shipped ahead by a [`LogShippingAdapter`]) are reconciled away by the
    /// relay's SCN watermark. The batch is atomic — on error nothing is
    /// ingested and the capture position does not advance, so the next
    /// poll retries the same run. Returns the number of windows shipped.
    pub fn poll(&self, db: &Database) -> Result<usize, RelayError> {
        let mut last = self.last_scn.lock();
        let entries = db.binlog_after(*last);
        let Some(newest) = entries.last().map(|e| e.scn) else {
            return Ok(0);
        };
        let expected = self.relay.expected_next_scn();
        let windows: Vec<Window> = entries
            .iter()
            .filter(|e| expected == 0 || e.scn >= expected)
            .map(|e| Window::from_binlog(db.name(), e))
            .collect();
        let shipped = self.relay.ingest_batch(windows)?;
        *last = newest;
        Ok(shipped)
    }

    /// The SCN up to which the source has been captured.
    pub fn last_scn(&self) -> Scn {
        *self.last_scn.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ServerFilter;
    use li_sqlstore::RowKey;

    fn source() -> Database {
        let db = Database::new("primary");
        db.create_table("member").unwrap();
        db
    }

    #[test]
    fn log_shipping_is_semi_sync() {
        let db = source();
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        LogShippingAdapter::attach(&db, relay.clone());
        db.put_one("member", RowKey::single("1"), &b"v"[..], 1).unwrap();
        // The commit only returned after the relay had the window.
        assert_eq!(relay.newest_scn(), 1);
        let windows = relay.events_after_shared(0, 10, &ServerFilter::all()).unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].changes.len(), 1);
    }

    #[test]
    fn attach_with_backlog_ships_history_then_follows() {
        let db = source();
        for i in 0..4 {
            db.put_one("member", RowKey::single(format!("{i}")), &b"v"[..], 1).unwrap();
        }
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        // History lands as one batch, then the shipper follows live.
        assert_eq!(
            LogShippingAdapter::attach_with_backlog(&db, relay.clone(), 0).unwrap(),
            4
        );
        assert_eq!(relay.newest_scn(), 4);
        db.put_one("member", RowKey::single("live"), &b"v"[..], 1).unwrap();
        assert_eq!(relay.newest_scn(), 5, "semi-sync after attach");
    }

    #[test]
    fn polling_adapter_drains_incrementally() {
        let db = source();
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        let adapter = PollingAdapter::new(relay.clone(), 0);

        for i in 0..5 {
            db.put_one("member", RowKey::single(format!("{i}")), &b"v"[..], 1).unwrap();
        }
        assert_eq!(adapter.poll(&db).unwrap(), 5);
        assert_eq!(adapter.poll(&db).unwrap(), 0, "nothing new");
        db.put_one("member", RowKey::single("9"), &b"v"[..], 1).unwrap();
        assert_eq!(adapter.poll(&db).unwrap(), 1);
        assert_eq!(adapter.last_scn(), 6);
        assert_eq!(relay.newest_scn(), 6);
    }

    #[test]
    fn polling_after_shipping_does_not_duplicate() {
        let db = source();
        let relay = Arc::new(Relay::new("primary", 1 << 20));
        LogShippingAdapter::attach(&db, relay.clone());
        let adapter = PollingAdapter::new(relay.clone(), 0);
        db.put_one("member", RowKey::single("1"), &b"v"[..], 1).unwrap();
        // Poll sees scn 1 already relayed; the relay's SCN watermark
        // reconciles the duplicate away and the stream stays clean.
        assert_eq!(adapter.poll(&db).unwrap(), 0);
        assert_eq!(relay.window_count(), 1);
        assert_eq!(adapter.last_scn(), 1, "capture position advances past duplicates");
    }
}
