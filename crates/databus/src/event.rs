//! Databus events: transaction windows, shared immutable views, and
//! server-side filters.

use li_commons::fnv::fnv1a;
use li_sqlstore::{BinlogEntry, RowChange, Scn};
use std::ops::Deref;
use std::sync::Arc;

/// One transaction's worth of change events — the unit of delivery.
///
/// "Each change is represented by a Databus CDC event which contains a
/// sequence number in the commit order of the source database, metadata,
/// and payload with the serialized change" (§III.C). Grouping the events
/// of one commit into a window is what preserves the §III.B requirements:
/// transaction boundaries, commit order, and all changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Name of the source database.
    pub source_db: String,
    /// Commit sequence number (position in the source's commit order).
    pub scn: Scn,
    /// Commit timestamp (nanoseconds).
    pub timestamp: u64,
    /// The row changes of the transaction, in statement order.
    pub changes: Vec<RowChange>,
}

impl Window {
    /// Builds a window from a source binlog entry.
    pub fn from_binlog(source_db: &str, entry: &BinlogEntry) -> Self {
        Window {
            source_db: source_db.to_string(),
            scn: entry.scn,
            timestamp: entry.timestamp,
            changes: entry.changes.clone(),
        }
    }

    /// Converts back to a binlog entry (what an Espresso slave applies).
    pub fn to_binlog(&self) -> BinlogEntry {
        BinlogEntry {
            scn: self.scn,
            timestamp: self.timestamp,
            changes: self.changes.clone(),
        }
    }

    /// Serialized size estimate in bytes (buffer accounting).
    pub fn size_estimate(&self) -> usize {
        let changes: usize = self
            .changes
            .iter()
            .map(|c| {
                let key: usize = c.key.0.iter().map(String::len).sum();
                let value = match &c.op {
                    li_sqlstore::Op::Put(row) => row.value.len() + 24,
                    li_sqlstore::Op::Delete => 0,
                };
                c.table.len() + key + value + 8
            })
            .sum();
        self.source_db.len() + 16 + changes
    }

    /// Number of change events in the window.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when the transaction carried no changes (possible after
    /// server-side filtering).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// Per-window filter summary, computed once at ingest (freeze time) so a
/// filtered consumer can decide whether a window *could* contain matching
/// changes without touching the change payloads at all. Hash collisions can
/// only produce false positives (the real per-change filter still runs for
/// windows that pass), never false negatives — equal strings always hash
/// equal, so no matching change is ever skipped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterSummary {
    /// Sorted, deduplicated FNV-1a hashes of the table names in the window.
    tables: Vec<u64>,
    /// Sorted, deduplicated FNV-1a hashes of the resource ids (the
    /// partitioning axis) in the window.
    resources: Vec<u64>,
}

impl FilterSummary {
    /// Builds the summary for a window's changes.
    pub fn of(changes: &[RowChange]) -> Self {
        let mut tables: Vec<u64> = changes.iter().map(|c| fnv1a(c.table.as_bytes())).collect();
        tables.sort_unstable();
        tables.dedup();
        let mut resources: Vec<u64> = changes
            .iter()
            .map(|c| fnv1a(c.key.resource_id().map(str::as_bytes).unwrap_or(b"")))
            .collect();
        resources.sort_unstable();
        resources.dedup();
        FilterSummary { tables, resources }
    }

    /// True when `filter` could match at least one change in the summarized
    /// window. A `false` here is definitive (O(1)-skip the window); a
    /// `true` means the per-change filter must run.
    pub fn may_match(&self, filter: &ServerFilter) -> bool {
        if let Some(tables) = &filter.tables {
            if !tables
                .iter()
                .any(|t| self.tables.binary_search(&fnv1a(t.as_bytes())).is_ok())
            {
                return false;
            }
        }
        if let Some((num_partitions, ids)) = &filter.partitions {
            let n = u64::from((*num_partitions).max(1));
            if !self
                .resources
                .iter()
                .any(|h| ids.contains(&((h % n) as u32)))
            {
                return false;
            }
        }
        true
    }
}

/// A window frozen at ingest: the immutable event data plus everything the
/// serving path needs precomputed (size for buffer accounting, filter
/// summary for O(1) window skipping). The relay buffer, bootstrap log, and
/// every served view share one `Arc<FrozenWindow>` allocation — freezing is
/// a move, serving is a refcount bump.
#[derive(Debug, PartialEq, Eq)]
pub struct FrozenWindow {
    window: Window,
    summary: FilterSummary,
    size: usize,
}

impl FrozenWindow {
    /// Freezes a window, computing its size estimate and filter summary
    /// once. This is the single encode point of the capture path: every
    /// downstream destination (relay buffer, chained relays, bootstrap log,
    /// served consumer views) shares the result.
    pub fn freeze(window: Window) -> SharedWindow {
        let size = window.size_estimate();
        let summary = FilterSummary::of(&window.changes);
        Arc::new(FrozenWindow {
            window,
            summary,
            size,
        })
    }

    /// The immutable event data.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// Cached serialized-size estimate (buffer accounting).
    pub fn size_estimate(&self) -> usize {
        self.size
    }

    /// The ingest-time filter summary.
    pub fn summary(&self) -> &FilterSummary {
        &self.summary
    }
}

impl Deref for FrozenWindow {
    type Target = Window;

    fn deref(&self) -> &Window {
        &self.window
    }
}

/// A frozen window shared between the relay buffer and its consumers.
pub type SharedWindow = Arc<FrozenWindow>;

/// A served view of one transaction window. The unfiltered fast path hands
/// out `Shared` views that alias the relay's buffer memory (zero per-change
/// work, zero copies); filtering that actually drops changes produces an
/// `Owned` trimmed window whose surviving payload `Bytes` still alias the
/// buffer. Derefs to [`Window`], so consumers read `view.scn`,
/// `view.changes`, … unchanged.
#[derive(Debug, Clone)]
pub enum WindowView {
    /// Direct shared view of relay buffer memory.
    Shared(SharedWindow),
    /// Filter-trimmed (possibly emptied) window; payloads still share the
    /// buffer's `Bytes` allocations.
    Owned(Window),
}

impl WindowView {
    /// The window data, wherever it lives.
    pub fn as_window(&self) -> &Window {
        match self {
            WindowView::Shared(shared) => shared.window(),
            WindowView::Owned(window) => window,
        }
    }

    /// Materializes an owned window: a clone of the shared data, or the
    /// trimmed window itself.
    pub fn into_window(self) -> Window {
        match self {
            WindowView::Shared(shared) => shared.window().clone(),
            WindowView::Owned(window) => window,
        }
    }

    /// The shared frozen window, when the view is untrimmed.
    pub fn into_shared(self) -> Option<SharedWindow> {
        match self {
            WindowView::Shared(shared) => Some(shared),
            WindowView::Owned(_) => None,
        }
    }

    /// True when the view aliases relay buffer memory wholesale (the
    /// zero-copy fast path).
    pub fn is_shared(&self) -> bool {
        matches!(self, WindowView::Shared(_))
    }
}

impl Deref for WindowView {
    type Target = Window;

    fn deref(&self) -> &Window {
        self.as_window()
    }
}

impl PartialEq for WindowView {
    fn eq(&self, other: &Self) -> bool {
        self.as_window() == other.as_window()
    }
}

impl Eq for WindowView {}

impl PartialEq<Window> for WindowView {
    fn eq(&self, other: &Window) -> bool {
        self.as_window() == other
    }
}

/// The partition of a row change: a stable hash of the key's first path
/// element (the partitioning axis — Espresso's `resource_id`), mod the
/// subscriber group's partition count.
pub fn partition_of(change: &RowChange, num_partitions: u32) -> u32 {
    let basis = change
        .key
        .resource_id()
        .map(str::as_bytes)
        .unwrap_or(b"");
    (fnv1a(basis) % u64::from(num_partitions.max(1))) as u32
}

/// Server-side filter: pushed down to the relay (and bootstrap server) so
/// "multiple partitioning schemes" can be served without shipping
/// irrelevant events to the client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerFilter {
    /// Restrict to these source tables (None = all).
    pub tables: Option<Vec<String>>,
    /// Restrict to these partitions under a `(num_partitions, ids)` mod
    /// scheme (None = all).
    pub partitions: Option<(u32, Vec<u32>)>,
}

impl ServerFilter {
    /// The pass-everything filter.
    pub fn all() -> Self {
        Self::default()
    }

    /// Filter to a set of tables.
    pub fn for_tables<I, S>(tables: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ServerFilter {
            tables: Some(tables.into_iter().map(Into::into).collect()),
            partitions: None,
        }
    }

    /// Filter to partition `id` of `num_partitions` (mod partitioning).
    pub fn for_partition(num_partitions: u32, id: u32) -> Self {
        ServerFilter {
            tables: None,
            partitions: Some((num_partitions, vec![id])),
        }
    }

    /// True when the filter passes everything (the unfiltered fast path:
    /// serving does zero per-change work).
    pub fn is_pass_all(&self) -> bool {
        self.tables.is_none() && self.partitions.is_none()
    }

    /// True when `change` passes the filter.
    pub fn matches(&self, change: &RowChange) -> bool {
        if let Some(tables) = &self.tables {
            if !tables.iter().any(|t| t == &change.table) {
                return false;
            }
        }
        if let Some((num_partitions, ids)) = &self.partitions {
            let p = partition_of(change, *num_partitions);
            if !ids.contains(&p) {
                return false;
            }
        }
        true
    }

    /// Applies the filter to a window, preserving the window (and its SCN)
    /// even when all changes are filtered out — consumers still need the
    /// checkpoint to advance.
    pub fn apply(&self, window: &Window) -> Window {
        if self.is_pass_all() {
            return window.clone();
        }
        Window {
            source_db: window.source_db.clone(),
            scn: window.scn,
            timestamp: window.timestamp,
            changes: window
                .changes
                .iter()
                .filter(|c| self.matches(c))
                .cloned()
                .collect(),
        }
    }

    /// Applies the filter to a frozen window, producing the cheapest view
    /// that is event-for-event equivalent to [`ServerFilter::apply`]:
    ///
    /// * pass-all filter → `Shared` (one `Arc` clone, zero per-change work);
    /// * summary says no change can match → `Owned` empty window without
    ///   touching a single change (the O(1) filter-skip path);
    /// * every change matches → `Shared` (the trim would be the identity);
    /// * otherwise → `Owned` trimmed window whose surviving payloads still
    ///   alias the buffer's `Bytes`.
    pub fn apply_view(&self, shared: &SharedWindow) -> WindowView {
        if self.is_pass_all() {
            return WindowView::Shared(Arc::clone(shared));
        }
        let window = shared.window();
        if !shared.summary().may_match(self) {
            return WindowView::Owned(Window {
                source_db: window.source_db.clone(),
                scn: window.scn,
                timestamp: window.timestamp,
                changes: Vec::new(),
            });
        }
        if window.changes.iter().all(|c| self.matches(c)) {
            return WindowView::Shared(Arc::clone(shared));
        }
        WindowView::Owned(Window {
            source_db: window.source_db.clone(),
            scn: window.scn,
            timestamp: window.timestamp,
            changes: window
                .changes
                .iter()
                .filter(|c| self.matches(c))
                .cloned()
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use li_sqlstore::{Op, Row, RowKey};

    fn change(table: &str, resource: &str) -> RowChange {
        RowChange {
            table: table.into(),
            key: RowKey::new([resource, "sub"]),
            op: Op::Put(Row::new(Bytes::from_static(b"v"), 1)),
        }
    }

    fn window(scn: Scn, changes: Vec<RowChange>) -> Window {
        Window {
            source_db: "primary".into(),
            scn,
            timestamp: scn * 10,
            changes,
        }
    }

    #[test]
    fn binlog_round_trip() {
        let entry = BinlogEntry {
            scn: 5,
            timestamp: 50,
            changes: vec![change("member", "42")],
        };
        let w = Window::from_binlog("primary", &entry);
        assert_eq!(w.scn, 5);
        assert_eq!(w.to_binlog(), entry);
    }

    #[test]
    fn table_filter() {
        let f = ServerFilter::for_tables(["member"]);
        assert!(f.matches(&change("member", "a")));
        assert!(!f.matches(&change("company", "a")));
        let w = window(1, vec![change("member", "a"), change("company", "b")]);
        let filtered = f.apply(&w);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.scn, 1, "scn preserved");
    }

    #[test]
    fn partition_filter_is_stable_and_disjoint() {
        let changes: Vec<RowChange> = (0..100)
            .map(|i| change("t", &format!("resource-{i}")))
            .collect();
        let k = 4u32;
        let mut seen = vec![0usize; k as usize];
        for c in &changes {
            let p = partition_of(c, k);
            assert_eq!(p, partition_of(c, k), "stable");
            seen[p as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "all partitions used: {seen:?}");
        // Disjoint group coverage: each change matches exactly one of the
        // k partition filters.
        for c in &changes {
            let matches = (0..k)
                .filter(|&id| ServerFilter::for_partition(k, id).matches(c))
                .count();
            assert_eq!(matches, 1);
        }
    }

    #[test]
    fn same_resource_same_partition() {
        // All sub-resources of one resource land in one partition — the
        // property that lets a partitioned consumer group preserve
        // per-resource ordering.
        let a = RowChange {
            table: "album".into(),
            key: RowKey::new(["Akon", "Trouble"]),
            op: Op::Delete,
        };
        let b = RowChange {
            table: "song".into(),
            key: RowKey::new(["Akon", "Trouble", "Locked_Up"]),
            op: Op::Delete,
        };
        assert_eq!(partition_of(&a, 16), partition_of(&b, 16));
    }

    #[test]
    fn filter_can_empty_a_window_but_keeps_scn() {
        let f = ServerFilter::for_tables(["nothing"]);
        let w = window(9, vec![change("member", "a")]);
        let filtered = f.apply(&w);
        assert!(filtered.is_empty());
        assert_eq!(filtered.scn, 9);
    }

    #[test]
    fn size_estimate_positive_and_monotonic() {
        let small = window(1, vec![change("t", "a")]);
        let big = window(1, (0..10).map(|i| change("t", &format!("r{i}"))).collect());
        assert!(small.size_estimate() > 0);
        assert!(big.size_estimate() > small.size_estimate());
    }
}
