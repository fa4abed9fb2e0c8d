//! The znode tree, sessions, and watch plumbing.

use crossbeam::channel::{unbounded, Receiver, Sender};
use li_commons::metrics::{Counter, Gauge, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Identifier of a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// How a znode is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    /// Survives session expiry.
    Persistent,
    /// Deleted when the creating session expires.
    Ephemeral,
    /// Persistent with a monotonic suffix appended to the name.
    PersistentSequential,
    /// Ephemeral with a monotonic suffix appended to the name.
    EphemeralSequential,
}

impl CreateMode {
    fn is_ephemeral(self) -> bool {
        matches!(self, CreateMode::Ephemeral | CreateMode::EphemeralSequential)
    }

    fn is_sequential(self) -> bool {
        matches!(
            self,
            CreateMode::PersistentSequential | CreateMode::EphemeralSequential
        )
    }
}

/// Metadata returned with reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Data version, incremented on every `set`.
    pub version: u64,
    /// Transaction id of the last modification (global order).
    pub mzxid: u64,
    /// Owning session for ephemerals.
    pub ephemeral_owner: Option<SessionId>,
    /// Number of children.
    pub num_children: usize,
}

/// What happened to a watched znode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEventKind {
    /// The node was created.
    NodeCreated,
    /// The node's data changed.
    NodeDataChanged,
    /// The node was deleted.
    NodeDeleted,
    /// The node's child set changed.
    NodeChildrenChanged,
}

/// A fired watch notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Path the watch was registered on.
    pub path: String,
    /// The kind of change.
    pub kind: WatchEventKind,
}

/// Errors from znode operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZkError {
    /// The node does not exist.
    NoNode(String),
    /// A node already exists at the path.
    NodeExists(String),
    /// The parent of the path does not exist.
    NoParent(String),
    /// The node still has children (delete refused).
    NotEmpty(String),
    /// Compare-and-swap version mismatch.
    BadVersion {
        /// Path of the znode.
        path: String,
        /// Version the caller expected.
        expected: u64,
        /// Actual current version.
        actual: u64,
    },
    /// The path is syntactically invalid.
    BadPath(String),
    /// The session has expired.
    SessionExpired,
}

impl fmt::Display for ZkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZkError::NoNode(p) => write!(f, "no node at {p}"),
            ZkError::NodeExists(p) => write!(f, "node exists at {p}"),
            ZkError::NoParent(p) => write!(f, "no parent for {p}"),
            ZkError::NotEmpty(p) => write!(f, "node {p} has children"),
            ZkError::BadVersion { path, expected, actual } => {
                write!(f, "bad version on {path}: expected {expected}, actual {actual}")
            }
            ZkError::BadPath(p) => write!(f, "bad path {p}"),
            ZkError::SessionExpired => write!(f, "session expired"),
        }
    }
}

impl std::error::Error for ZkError {}

#[derive(Debug)]
struct Znode {
    data: Vec<u8>,
    version: u64,
    mzxid: u64,
    ephemeral_owner: Option<SessionId>,
    children: BTreeSet<String>,
    /// Counter for sequential child names.
    cseq: u64,
}

#[derive(Default)]
struct Watches {
    data: HashMap<String, Vec<Sender<WatchEvent>>>,
    exists: HashMap<String, Vec<Sender<WatchEvent>>>,
    children: HashMap<String, Vec<Sender<WatchEvent>>>,
}

/// Coordination-service observability under `zk.`: live znode count
/// (including the root), live session count, and watch events delivered.
struct ZkMetrics {
    znodes: Gauge,
    sessions: Gauge,
    watch_events_fired: Counter,
}

impl ZkMetrics {
    fn new(registry: &Arc<MetricsRegistry>) -> Self {
        let scope = registry.scope("zk");
        ZkMetrics {
            znodes: scope.gauge("znodes"),
            sessions: scope.gauge("sessions"),
            watch_events_fired: scope.counter("watch_events_fired"),
        }
    }
}

struct State {
    nodes: BTreeMap<String, Znode>,
    watches: Watches,
    sessions: BTreeSet<SessionId>,
    next_session: u64,
    zxid: u64,
    metrics: ZkMetrics,
}

impl State {
    fn fire(
        watchers: &mut HashMap<String, Vec<Sender<WatchEvent>>>,
        path: &str,
        kind: WatchEventKind,
    ) -> u64 {
        let mut fired = 0;
        if let Some(list) = watchers.remove(path) {
            for sender in list {
                // Receiver may be gone; one-shot send, ignore disconnects.
                let _ = sender.send(WatchEvent {
                    path: path.to_string(),
                    kind,
                });
                fired += 1;
            }
        }
        fired
    }

    fn fire_node_event(&mut self, path: &str, kind: WatchEventKind) {
        let fired = Self::fire(&mut self.watches.data, path, kind)
            + Self::fire(&mut self.watches.exists, path, kind);
        self.metrics.watch_events_fired.add(fired);
    }

    fn fire_children_event(&mut self, parent: &str) {
        let fired = Self::fire(
            &mut self.watches.children,
            parent,
            WatchEventKind::NodeChildrenChanged,
        );
        self.metrics.watch_events_fired.add(fired);
    }

    fn delete_node(&mut self, path: &str) {
        self.zxid += 1;
        self.nodes.remove(path);
        self.metrics.znodes.set(self.nodes.len() as i64);
        if let Some(parent) = parent_of(path) {
            let name = path.rsplit('/').next().unwrap_or_default().to_string();
            if let Some(parent_node) = self.nodes.get_mut(&parent) {
                parent_node.children.remove(&name);
            }
            self.fire_node_event(path, WatchEventKind::NodeDeleted);
            self.fire_children_event(&parent);
        } else {
            self.fire_node_event(path, WatchEventKind::NodeDeleted);
        }
    }
}

fn parent_of(path: &str) -> Option<String> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/".to_string()),
        Some(idx) => Some(path[..idx].to_string()),
        None => None,
    }
}

fn validate_path(path: &str) -> Result<(), ZkError> {
    if !path.starts_with('/') {
        return Err(ZkError::BadPath(format!("{path}: must start with /")));
    }
    if path.len() > 1 && path.ends_with('/') {
        return Err(ZkError::BadPath(format!("{path}: trailing slash")));
    }
    if path.contains("//") {
        return Err(ZkError::BadPath(format!("{path}: empty segment")));
    }
    Ok(())
}

/// The coordination service. Cloning shares the same tree.
#[derive(Clone)]
pub struct ZooKeeper {
    state: Arc<Mutex<State>>,
    registry: Arc<MetricsRegistry>,
}

impl Default for ZooKeeper {
    fn default() -> Self {
        Self::new()
    }
}

impl ZooKeeper {
    /// Creates a service with an empty tree (just the root `/`).
    pub fn new() -> Self {
        Self::with_metrics(&MetricsRegistry::new())
    }

    /// Creates a service that reports into a shared metrics registry
    /// (under `zk.`).
    pub fn with_metrics(registry: &Arc<MetricsRegistry>) -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            "/".to_string(),
            Znode {
                data: Vec::new(),
                version: 0,
                mzxid: 0,
                ephemeral_owner: None,
                children: BTreeSet::new(),
                cseq: 0,
            },
        );
        let metrics = ZkMetrics::new(registry);
        metrics.znodes.set(nodes.len() as i64);
        ZooKeeper {
            state: Arc::new(Mutex::new(State {
                nodes,
                watches: Watches::default(),
                sessions: BTreeSet::new(),
                next_session: 1,
                zxid: 0,
                metrics,
            })),
            registry: Arc::clone(registry),
        }
    }

    /// The metrics registry this service reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Opens a new session.
    pub fn connect(&self) -> Session {
        let mut state = self.state.lock();
        let id = SessionId(state.next_session);
        state.next_session += 1;
        state.sessions.insert(id);
        state.metrics.sessions.set(state.sessions.len() as i64);
        Session {
            zk: self.clone(),
            id,
        }
    }

    /// Expires a session: its ephemeral nodes are deleted and the
    /// corresponding watches fire — the crash-detection signal the paper's
    /// consumers rely on.
    pub fn expire(&self, session: SessionId) {
        let mut state = self.state.lock();
        state.sessions.remove(&session);
        state.metrics.sessions.set(state.sessions.len() as i64);
        let doomed: Vec<String> = state
            .nodes
            .iter()
            .filter(|(_, n)| n.ephemeral_owner == Some(session))
            .map(|(p, _)| p.clone())
            .collect();
        for path in doomed {
            state.delete_node(&path);
        }
    }
}

/// A client handle; all operations are performed in the context of a
/// session (ephemeral ownership, expiry checks).
#[derive(Clone)]
pub struct Session {
    zk: ZooKeeper,
    id: SessionId,
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    fn check_alive(&self, state: &State) -> Result<(), ZkError> {
        if state.sessions.contains(&self.id) {
            Ok(())
        } else {
            Err(ZkError::SessionExpired)
        }
    }

    /// Creates a znode; returns the actual path (which differs from the
    /// requested one for sequential modes).
    pub fn create(
        &self,
        path: &str,
        data: impl Into<Vec<u8>>,
        mode: CreateMode,
    ) -> Result<String, ZkError> {
        validate_path(path)?;
        if path == "/" {
            return Err(ZkError::NodeExists("/".into()));
        }
        let mut state = self.zk.state.lock();
        self.check_alive(&state)?;
        let parent = parent_of(path).ok_or_else(|| ZkError::BadPath(path.into()))?;
        if !state.nodes.contains_key(&parent) {
            return Err(ZkError::NoParent(path.into()));
        }
        if let Some(parent_node) = state.nodes.get(&parent) {
            if parent_node.ephemeral_owner.is_some() {
                // ZooKeeper semantics: ephemerals cannot have children.
                return Err(ZkError::BadPath(format!(
                    "{path}: parent is ephemeral"
                )));
            }
        }

        let actual = if mode.is_sequential() {
            let parent_node = state.nodes.get_mut(&parent).expect("checked");
            let seq = parent_node.cseq;
            parent_node.cseq += 1;
            format!("{path}{seq:010}")
        } else {
            path.to_string()
        };
        if state.nodes.contains_key(&actual) {
            return Err(ZkError::NodeExists(actual));
        }

        state.zxid += 1;
        let mzxid = state.zxid;
        state.nodes.insert(
            actual.clone(),
            Znode {
                data: data.into(),
                version: 0,
                mzxid,
                ephemeral_owner: mode.is_ephemeral().then_some(self.id),
                children: BTreeSet::new(),
                cseq: 0,
            },
        );
        let name = actual.rsplit('/').next().unwrap_or_default().to_string();
        state
            .nodes
            .get_mut(&parent)
            .expect("checked")
            .children
            .insert(name);
        let live_znodes = state.nodes.len() as i64;
        state.metrics.znodes.set(live_znodes);
        state.fire_node_event(&actual, WatchEventKind::NodeCreated);
        state.fire_children_event(&parent);
        Ok(actual)
    }

    /// Creates all missing persistent ancestors, then the node itself.
    pub fn create_recursive(
        &self,
        path: &str,
        data: impl Into<Vec<u8>>,
        mode: CreateMode,
    ) -> Result<String, ZkError> {
        validate_path(path)?;
        let mut ancestors = Vec::new();
        let mut cursor = parent_of(path);
        while let Some(p) = cursor {
            if p == "/" {
                break;
            }
            cursor = parent_of(&p);
            ancestors.push(p);
        }
        for ancestor in ancestors.into_iter().rev() {
            match self.create(&ancestor, Vec::new(), CreateMode::Persistent) {
                Ok(_) | Err(ZkError::NodeExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.create(path, data, mode)
    }

    /// Reads a znode's data and stat.
    pub fn get(&self, path: &str) -> Result<(Vec<u8>, Stat), ZkError> {
        let state = self.zk.state.lock();
        self.check_alive(&state)?;
        let node = state
            .nodes
            .get(path)
            .ok_or_else(|| ZkError::NoNode(path.into()))?;
        Ok((
            node.data.clone(),
            Stat {
                version: node.version,
                mzxid: node.mzxid,
                ephemeral_owner: node.ephemeral_owner,
                num_children: node.children.len(),
            },
        ))
    }

    /// Writes a znode's data. With `Some(v)`, fails unless the current data
    /// version is exactly `v` (compare-and-swap).
    pub fn set(
        &self,
        path: &str,
        data: impl Into<Vec<u8>>,
        expected_version: Option<u64>,
    ) -> Result<Stat, ZkError> {
        let mut state = self.zk.state.lock();
        self.check_alive(&state)?;
        state.zxid += 1;
        let zxid = state.zxid;
        let node = state
            .nodes
            .get_mut(path)
            .ok_or_else(|| ZkError::NoNode(path.into()))?;
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(ZkError::BadVersion {
                    path: path.into(),
                    expected,
                    actual: node.version,
                });
            }
        }
        node.data = data.into();
        node.version += 1;
        node.mzxid = zxid;
        let stat = Stat {
            version: node.version,
            mzxid: node.mzxid,
            ephemeral_owner: node.ephemeral_owner,
            num_children: node.children.len(),
        };
        state.fire_node_event(path, WatchEventKind::NodeDataChanged);
        Ok(stat)
    }

    /// Deletes a childless znode, optionally guarded by version.
    pub fn delete(&self, path: &str, expected_version: Option<u64>) -> Result<(), ZkError> {
        let mut state = self.zk.state.lock();
        self.check_alive(&state)?;
        let node = state
            .nodes
            .get(path)
            .ok_or_else(|| ZkError::NoNode(path.into()))?;
        if !node.children.is_empty() {
            return Err(ZkError::NotEmpty(path.into()));
        }
        if let Some(expected) = expected_version {
            if node.version != expected {
                return Err(ZkError::BadVersion {
                    path: path.into(),
                    expected,
                    actual: node.version,
                });
            }
        }
        state.delete_node(path);
        Ok(())
    }

    /// True when a node exists at `path`.
    pub fn exists(&self, path: &str) -> Result<bool, ZkError> {
        let state = self.zk.state.lock();
        self.check_alive(&state)?;
        Ok(state.nodes.contains_key(path))
    }

    /// Child names (not full paths) of `path`, sorted.
    pub fn children(&self, path: &str) -> Result<Vec<String>, ZkError> {
        let state = self.zk.state.lock();
        self.check_alive(&state)?;
        let node = state
            .nodes
            .get(path)
            .ok_or_else(|| ZkError::NoNode(path.into()))?;
        Ok(node.children.iter().cloned().collect())
    }

    /// Registers a one-shot watch fired on the next data change or deletion
    /// of `path`. The node must exist.
    pub fn watch_data(&self, path: &str) -> Result<Receiver<WatchEvent>, ZkError> {
        let mut state = self.zk.state.lock();
        self.check_alive(&state)?;
        if !state.nodes.contains_key(path) {
            return Err(ZkError::NoNode(path.into()));
        }
        let (tx, rx) = unbounded();
        state.watches.data.entry(path.into()).or_default().push(tx);
        Ok(rx)
    }

    /// Registers a one-shot watch fired when `path` is created, changed, or
    /// deleted. The node need not exist (ZooKeeper's `exists` watch).
    pub fn watch_exists(&self, path: &str) -> Result<Receiver<WatchEvent>, ZkError> {
        validate_path(path)?;
        let mut state = self.zk.state.lock();
        self.check_alive(&state)?;
        let (tx, rx) = unbounded();
        state.watches.exists.entry(path.into()).or_default().push(tx);
        Ok(rx)
    }

    /// Registers a one-shot watch fired on the next change to the child set
    /// of `path`.
    pub fn watch_children(&self, path: &str) -> Result<Receiver<WatchEvent>, ZkError> {
        let mut state = self.zk.state.lock();
        self.check_alive(&state)?;
        if !state.nodes.contains_key(path) {
            return Err(ZkError::NoNode(path.into()));
        }
        let (tx, rx) = unbounded();
        state
            .watches
            .children
            .entry(path.into())
            .or_default()
            .push(tx);
        Ok(rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zk_and_session() -> (ZooKeeper, Session) {
        let zk = ZooKeeper::new();
        let session = zk.connect();
        (zk, session)
    }

    #[test]
    fn create_get_set_delete_cycle() {
        let (_zk, s) = zk_and_session();
        s.create("/brokers", b"".as_slice(), CreateMode::Persistent).unwrap();
        let (data, stat) = s.get("/brokers").unwrap();
        assert!(data.is_empty());
        assert_eq!(stat.version, 0);
        let stat = s.set("/brokers", b"meta".as_slice(), None).unwrap();
        assert_eq!(stat.version, 1);
        let (data, _) = s.get("/brokers").unwrap();
        assert_eq!(data, b"meta");
        s.delete("/brokers", None).unwrap();
        assert!(!s.exists("/brokers").unwrap());
    }

    #[test]
    fn create_requires_parent() {
        let (_zk, s) = zk_and_session();
        assert!(matches!(
            s.create("/a/b", b"".as_slice(), CreateMode::Persistent),
            Err(ZkError::NoParent(_))
        ));
        s.create_recursive("/a/b/c", b"x".as_slice(), CreateMode::Persistent).unwrap();
        assert!(s.exists("/a/b").unwrap());
        assert_eq!(s.get("/a/b/c").unwrap().0, b"x");
    }

    #[test]
    fn duplicate_create_rejected() {
        let (_zk, s) = zk_and_session();
        s.create("/x", b"".as_slice(), CreateMode::Persistent).unwrap();
        assert!(matches!(
            s.create("/x", b"".as_slice(), CreateMode::Persistent),
            Err(ZkError::NodeExists(_))
        ));
    }

    #[test]
    fn bad_paths_rejected() {
        let (_zk, s) = zk_and_session();
        for bad in ["x", "/x/", "//x", ""] {
            assert!(matches!(
                s.create(bad, b"".as_slice(), CreateMode::Persistent),
                Err(ZkError::BadPath(_)) | Err(ZkError::NodeExists(_))
            ), "{bad}");
        }
    }

    #[test]
    fn sequential_names_are_monotonic_and_padded() {
        let (_zk, s) = zk_and_session();
        s.create("/queue", b"".as_slice(), CreateMode::Persistent).unwrap();
        let a = s.create("/queue/item-", b"".as_slice(), CreateMode::PersistentSequential).unwrap();
        let b = s.create("/queue/item-", b"".as_slice(), CreateMode::PersistentSequential).unwrap();
        assert_eq!(a, "/queue/item-0000000000");
        assert_eq!(b, "/queue/item-0000000001");
        assert!(a < b);
    }

    #[test]
    fn cas_set_and_delete() {
        let (_zk, s) = zk_and_session();
        s.create("/offsets", b"0".as_slice(), CreateMode::Persistent).unwrap();
        s.set("/offsets", b"10".as_slice(), Some(0)).unwrap();
        // Stale CAS fails.
        let err = s.set("/offsets", b"20".as_slice(), Some(0)).unwrap_err();
        assert!(matches!(err, ZkError::BadVersion { actual: 1, .. }));
        assert!(matches!(
            s.delete("/offsets", Some(0)),
            Err(ZkError::BadVersion { .. })
        ));
        s.delete("/offsets", Some(1)).unwrap();
    }

    #[test]
    fn delete_with_children_refused() {
        let (_zk, s) = zk_and_session();
        s.create_recursive("/a/b", b"".as_slice(), CreateMode::Persistent).unwrap();
        assert!(matches!(s.delete("/a", None), Err(ZkError::NotEmpty(_))));
    }

    #[test]
    fn children_listing_sorted() {
        let (_zk, s) = zk_and_session();
        s.create("/topics", b"".as_slice(), CreateMode::Persistent).unwrap();
        for name in ["news", "ads", "metrics"] {
            s.create(&format!("/topics/{name}"), b"".as_slice(), CreateMode::Persistent).unwrap();
        }
        assert_eq!(s.children("/topics").unwrap(), vec!["ads", "metrics", "news"]);
    }

    #[test]
    fn children_watch_fires_on_membership_change() {
        let (_zk, s) = zk_and_session();
        s.create("/group", b"".as_slice(), CreateMode::Persistent).unwrap();
        let rx = s.watch_children("/group").unwrap();
        s.create("/group/consumer-1", b"".as_slice(), CreateMode::Ephemeral).unwrap();
        assert_eq!(
            rx.try_recv().unwrap().kind,
            WatchEventKind::NodeChildrenChanged
        );
        let rx = s.watch_children("/group").unwrap();
        s.delete("/group/consumer-1", None).unwrap();
        assert_eq!(
            rx.try_recv().unwrap().kind,
            WatchEventKind::NodeChildrenChanged
        );
    }

    #[test]
    fn session_expiry_removes_ephemerals_and_fires_watches() {
        let (zk, s1) = zk_and_session();
        let s2 = zk.connect();
        s1.create("/consumers", b"".as_slice(), CreateMode::Persistent).unwrap();
        s1.create("/consumers/c1", b"".as_slice(), CreateMode::Ephemeral).unwrap();
        s1.create("/persistent-data", b"keep".as_slice(), CreateMode::Persistent).unwrap();
        let rx = s2.watch_children("/consumers").unwrap();
        zk.expire(s1.id());
        assert!(!s2.exists("/consumers/c1").unwrap());
        assert!(s2.exists("/persistent-data").unwrap(), "persistents survive");
        assert_eq!(
            rx.try_recv().unwrap().kind,
            WatchEventKind::NodeChildrenChanged
        );
        // The expired session can no longer operate.
        assert!(matches!(s1.exists("/"), Err(ZkError::SessionExpired)));
    }

    #[test]
    fn ephemeral_cannot_have_children() {
        let (_zk, s) = zk_and_session();
        s.create("/e", b"".as_slice(), CreateMode::Ephemeral).unwrap();
        assert!(matches!(
            s.create("/e/child", b"".as_slice(), CreateMode::Persistent),
            Err(ZkError::BadPath(_))
        ));
    }

    #[test]
    fn ephemeral_owner_visible_in_stat() {
        let (_zk, s) = zk_and_session();
        s.create("/e", b"".as_slice(), CreateMode::Ephemeral).unwrap();
        let (_, stat) = s.get("/e").unwrap();
        assert_eq!(stat.ephemeral_owner, Some(s.id()));
    }

    #[test]
    fn sessions_are_independent() {
        let (zk, s1) = zk_and_session();
        let s2 = zk.connect();
        s1.create("/a", b"".as_slice(), CreateMode::Ephemeral).unwrap();
        s2.create("/b", b"".as_slice(), CreateMode::Ephemeral).unwrap();
        zk.expire(s1.id());
        assert!(s2.exists("/b").unwrap());
        assert!(!s2.exists("/a").unwrap());
    }

    #[test]
    fn ephemeral_sequential_cleared_on_expiry_and_counter_monotonic() {
        let (zk, s1) = zk_and_session();
        let s2 = zk.connect();
        s1.create("/locks", b"".as_slice(), CreateMode::Persistent).unwrap();
        let a = s1
            .create("/locks/lock-", b"".as_slice(), CreateMode::EphemeralSequential)
            .unwrap();
        let b = s2
            .create("/locks/lock-", b"".as_slice(), CreateMode::EphemeralSequential)
            .unwrap();
        assert!(a < b, "sequence orders contenders: {a} vs {b}");
        // The classic lock recipe: lowest sequence holds the lock. Expire
        // the holder; the successor observes the release.
        let watch = s2.watch_exists(&a).unwrap();
        zk.expire(s1.id());
        assert_eq!(watch.try_recv().unwrap().kind, WatchEventKind::NodeDeleted);
        // Counter never reuses suffixes, even after deletions.
        let c = s2
            .create("/locks/lock-", b"".as_slice(), CreateMode::EphemeralSequential)
            .unwrap();
        assert!(c > b);
    }

    #[test]
    fn mzxid_strictly_increases() {
        let (_zk, s) = zk_and_session();
        s.create("/a", b"".as_slice(), CreateMode::Persistent).unwrap();
        let (_, stat_a) = s.get("/a").unwrap();
        s.create("/b", b"".as_slice(), CreateMode::Persistent).unwrap();
        let (_, stat_b) = s.get("/b").unwrap();
        assert!(stat_b.mzxid > stat_a.mzxid);
        let stat_a2 = s.set("/a", b"x".as_slice(), None).unwrap();
        assert!(stat_a2.mzxid > stat_b.mzxid);
    }
}
