//! # li-databus — change data capture pipeline (Databus reproduction)
//!
//! Paper §III: "Databus, a system for change data capture (CDC), that is
//! being used to enable complex online and near-line computations under
//! strict latency bounds. It provides a common pipeline for transporting
//! CDC events from LinkedIn primary databases to various applications."
//!
//! The three components of Figure III.2:
//!
//! * [`relay`] — captures changes from the source database, serializes them
//!   to a source-independent format, and buffers them in an in-memory
//!   circular buffer with an SCN index and server-side filters. Serving
//!   from the buffer is the "default serving path with very low latency":
//!   windows are frozen once at ingest ([`event::FrozenWindow`]) and every
//!   consumer gets zero-copy shared views ([`event::WindowView`]) located
//!   under a range-lookup-only lock. A client that has fallen off the
//!   buffer's tail gets [`relay::RelayError::ScnNotFound`] and must
//!   bootstrap.
//! * [`bootstrap`] — "listen\[s\] to the stream of Databus events and
//!   provide\[s\] long-term storage for them". The two query types of
//!   Figure III.3 are one read of snapshot storage, which keeps each row's
//!   last event with its SCN: **consolidated delta since T** (the rows
//!   changed after T — "fast playback") and **consistent snapshot** (the
//!   same read at T = 0, live rows only), each followed by a replay of
//!   what landed during the scan.
//! * [`client`] — the client library: consumer callbacks with transaction-
//!   window granularity, progress checkpointing, automatic
//!   relay → bootstrap → relay switchover, and bounded retry on consumer
//!   failure.
//!
//! [`capture`] holds the two capture adapters the paper describes: binlog
//! shipping (MySQL-style, also the semi-sync hook Espresso uses) and
//! polling (trigger/log-mining style for the Oracle analog).
//!
//! Timeline consistency: events travel in **windows** — one window per
//! source transaction, carrying the commit SCN — so subscribers see
//! transaction boundaries, commit order, and all changes, the three
//! requirements of §III.B.
//!
//! ```
//! use li_databus::{ConsumerCallback, DatabusClient, LogShippingAdapter, Relay, Window};
//! use li_sqlstore::{Database, RowKey};
//! use std::sync::{Arc, atomic::{AtomicUsize, Ordering}};
//!
//! // Source database -> relay (semi-sync capture).
//! let db = Database::new("primary");
//! db.create_table("member")?;
//! let relay = Arc::new(Relay::new("primary", 1 << 20));
//! LogShippingAdapter::attach(&db, relay.clone());
//!
//! // A consumer counting change events.
//! struct Counter(AtomicUsize);
//! impl ConsumerCallback for Counter {
//!     fn on_window(&self, w: &Window) -> Result<(), String> {
//!         self.0.fetch_add(w.changes.len(), Ordering::Relaxed);
//!         Ok(())
//!     }
//! }
//! let counter = Arc::new(Counter(AtomicUsize::new(0)));
//! let client = DatabusClient::new(relay, None, counter.clone());
//!
//! db.put_one("member", RowKey::single("42"), &b"profile"[..], 1)?;
//! client.catch_up().unwrap();
//! assert_eq!(counter.0.load(Ordering::Relaxed), 1);
//! # Ok::<(), li_sqlstore::DbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod capture;
pub mod client;
pub mod dispatch;
pub mod event;
pub mod relay;
pub mod transform;

pub use bootstrap::BootstrapServer;
pub use capture::{LogShippingAdapter, PollingAdapter};
pub use client::{ConsumerCallback, DatabusClient, DatabusError};
pub use dispatch::{DispatchStats, StreamDispatcher};
pub use event::{FilterSummary, FrozenWindow, ServerFilter, SharedWindow, Window, WindowView};
pub use relay::{Relay, RelayError};
pub use transform::{TransformRule, Transformation};
