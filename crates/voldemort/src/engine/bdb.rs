//! Log-structured read-write engine — the BerkeleyDB JE analog.
//!
//! The paper's read-write stores run on "BerkeleyDB Java Edition (BDB)
//! \[OBS99\]" (§II.B). BDB JE is itself a log-structured store: every write
//! appends to a sequential log and an in-memory btree indexes the latest
//! entries. This engine reproduces that shape — sequential append on
//! write, indexed lookup on read, recovery by log replay, and periodic
//! compaction — which is what gives the paper's read-write clusters their
//! write-throughput/read-latency profile (benchmarked against the
//! read-only engine in `li-bench`).
//!
//! # The log
//!
//! A sequence of CRC frames ([`li_commons::bufio`]), each one record:
//!
//! ```text
//! OP_PUT     key clock value            a whole version
//! OP_DELETE  key clock                  drop the versions `<= clock`
//! OP_APPEND  key clock base_len suffix  the one version held, extended
//! ```
//!
//! `put` picks the record from what it sees under its own mutex. When the
//! slot holds exactly one version, the incoming clock strictly dominates
//! that version's, and the incoming bytes are longer than and start with
//! the held bytes, the new version *is* the held one plus a suffix, whoever
//! produced it (a transformed put that appends to a list, a replica wave,
//! a replayed hint, a read repair), and the log gets the suffix alone:
//! what is framed and CRC'd no longer grows with the value. Every other
//! put logs the whole value. The index always holds the materialised
//! value, so nothing outside this module can tell the two records apart.
//!
//! Replay is deterministic: a rejected put is not logged and a delete only
//! when it removed something, so the slot a record meets on replay is the
//! slot it met when written. A suffix record that does not find its base
//! (one version, `base_len` bytes long, under a clock the record's
//! dominates) therefore marks a damaged log, and recovery stops there as
//! at a torn frame: the record is never skipped and never applied to
//! another version.

use bytes::Bytes;
use li_commons::bufio::{self, FrameBounds};
use li_commons::clock::{Occurred, VectorClock, Versioned};
use li_commons::metrics::{Gauge, MetricsRegistry, MetricsScope};
use li_commons::varint;
use parking_lot::Mutex;
use std::collections::BTreeMap;

use super::{slot_delete, slot_put, StorageEngine};
use crate::error::VoldemortError;

const OP_PUT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_APPEND: u8 = 2;

#[derive(Debug, Default)]
struct Inner {
    index: BTreeMap<Vec<u8>, Vec<Versioned<Bytes>>>,
    log: Vec<u8>,
}

/// Log-structured engine with an in-memory index over an append-only log.
#[derive(Debug)]
pub struct BdbLikeEngine {
    inner: Mutex<Inner>,
    /// `<scope>.log_bytes`: the log's size, set under `inner`'s lock.
    log_gauge: Gauge,
}

impl Default for BdbLikeEngine {
    fn default() -> Self {
        Self::new()
    }
}

fn encode_put(out: &mut Vec<u8>, key: &[u8], value: &Versioned<Bytes>) {
    out.push(OP_PUT);
    varint::write_bytes(out, key);
    value.clock.encode(out);
    varint::write_bytes(out, &value.value);
}

fn encode_delete(out: &mut Vec<u8>, key: &[u8], clock: &VectorClock) {
    out.push(OP_DELETE);
    varint::write_bytes(out, key);
    clock.encode(out);
}

fn encode_append(out: &mut Vec<u8>, key: &[u8], value: &Versioned<Bytes>, base_len: usize) {
    out.push(OP_APPEND);
    varint::write_bytes(out, key);
    value.clock.encode(out);
    varint::write_u64(out, base_len as u64);
    varint::write_bytes(out, &value.value[base_len..]);
}

/// The length of the one version in `slot` that `value` extends, when the
/// log may carry `value` as a suffix record (module doc, "The log").
fn extended_base(slot: &[Versioned<Bytes>], value: &Versioned<Bytes>) -> Option<usize> {
    let [held] = slot else {
        return None;
    };
    let extends = value.value.len() > held.value.len()
        && held.clock.compare(&value.clock) == Occurred::Before
        && value.value.starts_with(&held.value);
    extends.then_some(held.value.len())
}

/// A length-prefixed slice of `cursor`, borrowed rather than copied.
fn read_slice<'a>(cursor: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = usize::try_from(varint::read_u64(cursor).ok()?).ok()?;
    if cursor.len() < len {
        return None;
    }
    let (slice, rest) = cursor.split_at(len);
    *cursor = rest;
    Some(slice)
}

/// The index as replay builds it: values in growable buffers, so a chain
/// of suffix records extends its base in place (amortised O(suffix) each)
/// and replay stays linear in log bytes.
type ReplayIndex = BTreeMap<Vec<u8>, Vec<Versioned<Vec<u8>>>>;

/// Applies one log record to `index`; `None` when it cannot be decoded or,
/// for a suffix record, does not find its base.
fn replay(index: &mut ReplayIndex, mut record: &[u8]) -> Option<()> {
    let (&op, rest) = record.split_first()?;
    record = rest;
    let key = read_slice(&mut record)?;
    let clock = VectorClock::decode(&mut record).ok()?;
    match op {
        OP_PUT => {
            let version = Versioned::new(clock, read_slice(&mut record)?.to_vec());
            match index.get_mut(key) {
                // Replay ignores obsolescence: the log is history.
                Some(slot) => {
                    let _ = slot_put(slot, version);
                }
                None => {
                    index.insert(key.to_vec(), vec![version]);
                }
            }
        }
        OP_APPEND => {
            let base_len = varint::read_u64(&mut record).ok()?;
            let suffix = read_slice(&mut record)?;
            let [held] = index.get_mut(key)?.as_mut_slice() else {
                return None;
            };
            if held.value.len() as u64 != base_len
                || held.clock.compare(&clock) != Occurred::Before
            {
                return None;
            }
            held.value.extend_from_slice(suffix);
            held.clock = clock;
        }
        OP_DELETE => {
            if let Some(slot) = index.get_mut(key) {
                slot_delete(slot, &clock);
                if slot.is_empty() {
                    index.remove(key);
                }
            }
        }
        _ => return None,
    }
    Some(())
}

impl BdbLikeEngine {
    /// Creates an empty engine reporting into a private metrics registry.
    /// Cluster-managed engines use [`BdbLikeEngine::with_metrics`].
    pub fn new() -> Self {
        Self::with_metrics(&MetricsRegistry::new().scope("voldemort.engine"))
    }

    /// Creates an empty engine publishing its log size as the gauge
    /// `<scope>.log_bytes`.
    pub fn with_metrics(scope: &MetricsScope) -> Self {
        BdbLikeEngine {
            inner: Mutex::default(),
            log_gauge: scope.gauge("log_bytes"),
        }
    }

    /// Serialized log bytes (the durable artifact).
    pub fn log_bytes(&self) -> Vec<u8> {
        self.inner.lock().log.clone()
    }

    /// Current log size in bytes.
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Rebuilds an engine by replaying a log (crash recovery). Replay stops
    /// at the first frame that is torn, fails its CRC or holds a record
    /// that cannot be applied, and the recovered log ends there too: bytes
    /// no recovery will get past are not kept in front of new writes.
    pub fn recover(log: &[u8]) -> Self {
        let mut index = ReplayIndex::new();
        let mut replayed = 0;
        while let FrameBounds::Record { start, end } = bufio::frame_at(log, replayed) {
            if replay(&mut index, &log[start..end]).is_none() {
                break;
            }
            replayed = end;
        }
        let index = index
            .into_iter()
            .map(|(key, slot)| {
                let slot = slot.into_iter().map(|v| v.map(Bytes::from)).collect();
                (key, slot)
            })
            .collect();
        let engine = Self::new();
        *engine.inner.lock() = Inner {
            index,
            log: log[..replayed].to_vec(),
        };
        engine.log_gauge.set(replayed as i64);
        engine
    }

    /// Rewrites the log to contain only live versions, reclaiming space
    /// from superseded writes (BDB JE's cleaner). The rewrite materialises:
    /// a compacted log holds one whole-value record per live version and no
    /// suffix records, which is what bounds the replay work of a long
    /// chain of appends.
    pub fn compact(&self) {
        let mut inner = self.inner.lock();
        let mut fresh = Vec::with_capacity(inner.log.len() / 2);
        for (key, slot) in &inner.index {
            for version in slot {
                bufio::write_frame_with(&mut fresh, |out| encode_put(out, key, version));
            }
        }
        inner.log = fresh;
        self.log_gauge.set(inner.log.len() as i64);
    }
}

impl StorageEngine for BdbLikeEngine {
    fn get(&self, key: &[u8]) -> Result<Vec<Versioned<Bytes>>, VoldemortError> {
        Ok(self.inner.lock().index.get(key).cloned().unwrap_or_default())
    }

    fn put(&self, key: &[u8], value: Versioned<Bytes>) -> Result<(), VoldemortError> {
        let mut guard = self.inner.lock();
        let Inner { index, log } = &mut *guard;
        // The index holds no empty slot: a put to a held key cannot empty
        // one and a first write cannot be obsolete, so neither branch
        // allocates a key it would not keep.
        match index.get_mut(key) {
            Some(slot) => {
                let base_len = extended_base(slot, &value);
                slot_put(slot, value.clone())?;
                // Framed in place: the bytes are copied once, into the log.
                bufio::write_frame_with(log, |out| match base_len {
                    Some(base_len) => encode_append(out, key, &value, base_len),
                    None => encode_put(out, key, &value),
                });
            }
            None => {
                bufio::write_frame_with(log, |out| encode_put(out, key, &value));
                index.insert(key.to_vec(), vec![value]);
            }
        }
        self.log_gauge.set(log.len() as i64);
        Ok(())
    }

    fn delete(&self, key: &[u8], clock: &VectorClock) -> Result<bool, VoldemortError> {
        let mut inner = self.inner.lock();
        let Some(slot) = inner.index.get_mut(key) else {
            return Ok(false);
        };
        let removed = slot_delete(slot, clock);
        if slot.is_empty() {
            inner.index.remove(key);
        }
        if removed {
            bufio::write_frame_with(&mut inner.log, |out| encode_delete(out, key, clock));
            self.log_gauge.set(inner.log.len() as i64);
        }
        Ok(removed)
    }

    fn entries(&self) -> Vec<(Bytes, Vec<Versioned<Bytes>>)> {
        self.inner
            .lock()
            .index
            .iter()
            .map(|(k, v)| (Bytes::copy_from_slice(k), v.clone()))
            .collect()
    }

    fn key_count(&self) -> usize {
        self.inner.lock().index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforms_to_engine_contract() {
        crate::engine::conformance::run_all(|| Box::new(BdbLikeEngine::new()));
    }

    fn versioned(n: u64, value: &str) -> Versioned<Bytes> {
        Versioned::new(VectorClock::with(1, n), Bytes::copy_from_slice(value.as_bytes()))
    }

    #[test]
    fn recovery_replays_log() {
        let engine = BdbLikeEngine::new();
        engine.put(b"a", versioned(1, "v1")).unwrap();
        engine.put(b"a", versioned(2, "v2")).unwrap();
        engine.put(b"b", versioned(1, "x")).unwrap();
        engine.delete(b"b", &VectorClock::with(1, 1)).unwrap();
        let log = engine.log_bytes();

        let recovered = BdbLikeEngine::recover(&log);
        let a = recovered.get(b"a").unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].value.as_ref(), b"v2");
        assert!(recovered.get(b"b").unwrap().is_empty());
        assert_eq!(recovered.key_count(), 1);
    }

    #[test]
    fn recovery_truncates_torn_write() {
        let engine = BdbLikeEngine::new();
        engine.put(b"a", versioned(1, "v1")).unwrap();
        let keep = engine.log_len();
        engine.put(b"b", versioned(1, "v2")).unwrap();
        let mut log = engine.log_bytes();
        log.truncate(keep + 5); // tear the second frame
        let recovered = BdbLikeEngine::recover(&log);
        assert_eq!(recovered.key_count(), 1);
        assert!(!recovered.get(b"a").unwrap().is_empty());
        assert!(recovered.get(b"b").unwrap().is_empty());
    }

    #[test]
    fn compaction_shrinks_log_preserves_data() {
        let engine = BdbLikeEngine::new();
        for i in 1..=100u64 {
            engine.put(b"hot", versioned(i, &format!("v{i}"))).unwrap();
        }
        let before = engine.log_len();
        engine.compact();
        let after = engine.log_len();
        assert!(after < before / 10, "compaction {before} -> {after}");
        // Data intact, including through recovery of the compacted log.
        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.get(b"hot").unwrap()[0].value.as_ref(), b"v100");
    }

    #[test]
    fn obsolete_puts_do_not_pollute_log() {
        let engine = BdbLikeEngine::new();
        engine.put(b"k", versioned(5, "new")).unwrap();
        let len = engine.log_len();
        assert!(engine.put(b"k", versioned(1, "old")).is_err());
        assert_eq!(engine.log_len(), len, "rejected write not logged");
    }

    #[test]
    fn compaction_preserves_concurrent_siblings() {
        let engine = BdbLikeEngine::new();
        let base = VectorClock::with(1, 1);
        engine
            .put(b"k", Versioned::new(base.incremented(2), Bytes::from_static(b"left")))
            .unwrap();
        engine
            .put(b"k", Versioned::new(base.incremented(3), Bytes::from_static(b"right")))
            .unwrap();
        engine.compact();
        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.get(b"k").unwrap().len(), 2, "both siblings survive");
    }

    #[test]
    fn concurrent_writers_never_corrupt_log() {
        use std::sync::Arc;
        let engine = Arc::new(BdbLikeEngine::new());
        let mut handles = Vec::new();
        for t in 0..4u16 {
            let engine = engine.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let key = format!("t{t}-k{i}");
                    engine
                        .put(
                            key.as_bytes(),
                            Versioned::new(VectorClock::with(t, 1), Bytes::from_static(b"v")),
                        )
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.key_count(), 400);
        // The log is a valid frame sequence end to end.
        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.key_count(), 400);
    }

    /// An `encode_ids`-shaped list of `n` ids.
    fn id_list(n: u64) -> Vec<u8> {
        (0..n).flat_map(u64::to_le_bytes).collect()
    }

    /// Puts `value` under `key` at clock `{1: n}`; the bytes the log grew by.
    fn put_growth(engine: &BdbLikeEngine, key: &[u8], n: u64, value: &[u8]) -> usize {
        let before = engine.log_len();
        let value = Versioned::new(VectorClock::with(1, n), Bytes::copy_from_slice(value));
        engine.put(key, value).unwrap();
        engine.log_len() - before
    }

    #[test]
    fn an_append_logs_its_suffix_whatever_the_length_of_the_list() {
        let engine = BdbLikeEngine::new();
        let lists = [(&b"company:small"[..], 2), (b"company:large", 50_000)];
        let [small, large] = lists.map(|(key, ids)| {
            let mut list = id_list(ids);
            put_growth(&engine, key, 1, &list);
            list.extend_from_slice(&u64::MAX.to_le_bytes());
            let grown = put_growth(&engine, key, 2, &list);
            assert_eq!(engine.get(key).unwrap()[0].value.as_ref(), &list[..]);
            grown
        });
        // The 400 KB list's base_len is two varint bytes longer; nothing else.
        assert!(large - small <= 2, "16 B list {small} B, 400 KB list {large} B");
        assert!(large < 128, "one appended id logged {large} B");
        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.entries(), engine.entries());
    }

    #[test]
    fn only_a_dominating_extension_of_the_one_version_held_logs_a_suffix() {
        // The bytes the log grows by for a put that is accepted, and what a
        // whole-value record of it takes.
        let grown_and_whole = |engine: &BdbLikeEngine, clock: VectorClock, value: &[u8]| {
            let value = Versioned::new(clock, Bytes::copy_from_slice(value));
            let mut frame = Vec::new();
            bufio::write_frame_with(&mut frame, |out| encode_put(out, b"k", &value));
            let before = engine.log_len();
            engine.put(b"k", value).unwrap();
            (engine.log_len() - before, frame.len())
        };
        let engine = BdbLikeEngine::new();
        let at = |n| VectorClock::with(1, n);
        let list = id_list(64);
        let mut other = list.clone();
        other[0] ^= 1;
        other.extend_from_slice(&[7; 8]);
        for (n, value, case) in [
            (1, &list[..], "first write"),
            (2, &list, "equal-length re-put"),
            (3, &other, "longer, but not an extension"),
            (4, &other[..256], "a prefix of the held value"),
        ] {
            let (grown, whole) = grown_and_whole(&engine, at(n), value);
            assert_eq!(grown, whole, "{case}");
        }

        // An extension under a concurrent clock is a new sibling, and an
        // extension of one of two siblings has no single base: whole values.
        let held = engine.get(b"k").unwrap().remove(0);
        let mut longer = held.value.to_vec();
        longer.extend_from_slice(&[9; 8]);
        let concurrent = VectorClock::with(2, 1);
        let (grown, whole) = grown_and_whole(&engine, concurrent.clone(), &longer);
        assert_eq!(engine.get(b"k").unwrap().len(), 2);
        assert_eq!(grown, whole, "concurrent sibling");
        longer.extend_from_slice(&[9; 8]);
        let merged = held.clock.merged(&concurrent).incremented(1);
        let (grown, whole) = grown_and_whole(&engine, merged.clone(), &longer);
        assert_eq!(engine.get(b"k").unwrap().len(), 1);
        assert_eq!(grown, whole, "extension of one of two siblings");

        // The rule itself, once: now one version is held again.
        longer.extend_from_slice(&[9; 8]);
        let (grown, whole) = grown_and_whole(&engine, merged.incremented(1), &longer);
        assert!(grown < whole - 256, "a suffix record: {grown} B against {whole} B");

        let recovered = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(recovered.entries(), engine.entries());
    }

    #[test]
    fn a_suffix_record_without_its_base_ends_recovery() {
        let first = Versioned::new(VectorClock::with(1, 1), Bytes::from(id_list(4)));
        let second = Versioned::new(VectorClock::with(1, 2), Bytes::from(id_list(5)));
        let third = Versioned::new(VectorClock::with(1, 3), Bytes::from(id_list(6)));
        // (key, clock, base_len) of the suffix frame; the true ones are
        // ("k", {1: 2}, 32).
        for (key, clock, base_len, applies) in [
            (&b"k"[..], &second.clock, 32, true),
            (b"k", &second.clock, 24, false),
            (b"k", &second.clock, 40, false),
            (b"k", &first.clock, 32, false),
            (b"other", &second.clock, 32, false),
        ] {
            let mut log = Vec::new();
            bufio::write_frame_with(&mut log, |out| encode_put(out, b"k", &first));
            let keep = log.len();
            let suffix = Versioned::new(clock.clone(), second.value.clone());
            bufio::write_frame_with(&mut log, |out| encode_append(out, key, &suffix, base_len));
            bufio::write_frame_with(&mut log, |out| encode_append(out, b"k", &third, 40));
            let recovered = BdbLikeEngine::recover(&log);
            let held = recovered.get(b"k").unwrap();
            if applies {
                assert_eq!(held, std::slice::from_ref(&third));
                assert_eq!(recovered.log_len(), log.len());
            } else {
                assert_eq!(held, std::slice::from_ref(&first), "base_len {base_len}");
                assert_eq!(recovered.log_len(), keep);
            }
        }
    }

    #[test]
    fn recovery_drops_the_bytes_it_refused_to_replay() {
        let mut log = Vec::new();
        bufio::write_frame_with(&mut log, |out| encode_put(out, b"a", &versioned(1, "v1")));
        let keep = log.len();
        // CRC-valid, but no record this engine knows.
        bufio::write_frame_with(&mut log, |out| {
            out.push(0x7f);
            varint::write_bytes(out, b"b");
            VectorClock::with(1, 1).encode(out);
        });
        bufio::write_frame_with(&mut log, |out| encode_put(out, b"b", &versioned(1, "v2")));

        let recovered = BdbLikeEngine::recover(&log);
        assert_eq!(recovered.key_count(), 1);
        assert_eq!(recovered.log_len(), keep, "the log ends where replay did");
        recovered.put(b"c", versioned(1, "v3")).unwrap();
        let again = BdbLikeEngine::recover(&recovered.log_bytes());
        assert_eq!(again.get(b"c").unwrap(), [versioned(1, "v3")], "an acked write survives");
        assert_eq!(again.entries(), recovered.entries());
    }

    #[test]
    fn a_compacted_chain_recovers_from_one_record() {
        let engine = BdbLikeEngine::new();
        let mut list = Vec::new();
        for n in 1..=2_000u64 {
            list.extend_from_slice(&n.to_le_bytes());
            put_growth(&engine, b"company:7", n, &list);
        }
        let chained = BdbLikeEngine::recover(&engine.log_bytes());
        assert_eq!(chained.entries(), engine.entries(), "replayed from 1,999 suffix records");

        engine.compact();
        let log = engine.log_bytes();
        let FrameBounds::Record { start, end } = bufio::frame_at(&log, 0) else {
            panic!("a compacted log starts with a frame");
        };
        assert_eq!(end, log.len(), "one record");
        assert_eq!(log[start], OP_PUT, "and it is a whole value");
        assert_eq!(BdbLikeEngine::recover(&log).entries(), engine.entries());
        // The chain goes on from the materialised base.
        list.extend_from_slice(&[0; 8]);
        assert!(put_growth(&engine, b"company:7", 2_001, &list) < 128);
        assert_eq!(BdbLikeEngine::recover(&engine.log_bytes()).entries(), engine.entries());
    }

    #[test]
    fn replaying_a_long_chain_does_not_recopy_its_base() {
        // 20,000 suffix records on a 4 MB base, framed by hand from slices
        // of one buffer. Replay in place moves the log's 5 MB; re-copying
        // the base for every record would move 80 GB.
        const BASE: usize = 4 << 20;
        let whole = Bytes::from((0..BASE + 20_000 * 8).map(|i| i as u8).collect::<Vec<u8>>());
        let mut log = Vec::new();
        let base = Versioned::new(VectorClock::with(1, 1), whole.slice(..BASE));
        bufio::write_frame_with(&mut log, |out| encode_put(out, b"company:7", &base));
        for n in 0..20_000 {
            let base_len = BASE + n * 8;
            let clock = VectorClock::with(1, n as u64 + 2);
            let value = Versioned::new(clock, whole.slice(..base_len + 8));
            bufio::write_frame_with(&mut log, |out| {
                encode_append(out, b"company:7", &value, base_len)
            });
        }
        let started = std::time::Instant::now();
        let recovered = BdbLikeEngine::recover(&log);
        let took = started.elapsed();
        let held = recovered.get(b"company:7").unwrap();
        assert_eq!(held, [Versioned::new(VectorClock::with(1, 20_001), whole)]);
        assert!(took.as_secs() < 4, "replay of {} B took {took:?}", log.len());
    }

    /// What a cleaner could reclaim once appends are suffix records, beside
    /// what the same appends leave in a whole-value log: run with
    /// `--nocapture` for the figures EXPERIMENTS.md C-28 records.
    #[test]
    fn garbage_share_after_an_append_storm() {
        let engine = BdbLikeEngine::new();
        let mut lists: Vec<Vec<u8>> = vec![Vec::new(); 500];
        let mut whole_value_log = Vec::new();
        for n in 0..20_000u64 {
            let at = (n % 500) as usize;
            let key = format!("member:{at}");
            lists[at].extend_from_slice(&n.to_le_bytes());
            put_growth(&engine, key.as_bytes(), n / 500 + 1, &lists[at]);
            let whole = engine.get(key.as_bytes()).unwrap().remove(0);
            bufio::write_frame_with(&mut whole_value_log, |out| {
                encode_put(out, key.as_bytes(), &whole)
            });
        }
        let log_len = engine.log_len();
        engine.compact();
        let live = engine.log_len();
        let share = |log: usize| 1.0 - live as f64 / log as f64;
        println!(
            "20,000 appends over 500 keys: live {live} B; suffix log {log_len} B, garbage \
             share {:.3}; whole-value log {} B, garbage share {:.3}",
            share(log_len),
            whole_value_log.len(),
            share(whole_value_log.len()),
        );
        assert!(live < log_len && log_len < whole_value_log.len());
        assert_eq!(BdbLikeEngine::recover(&engine.log_bytes()).entries(), engine.entries());
    }

    #[test]
    fn the_log_size_gauge_follows_the_log() {
        let registry = MetricsRegistry::new();
        let engine = BdbLikeEngine::with_metrics(&registry.scope("voldemort.node0.s"));
        let gauge = || registry.snapshot().gauge("voldemort.node0.s.log_bytes").unwrap();
        assert_eq!(gauge(), 0);
        engine.put(b"k", versioned(1, "v1")).unwrap();
        engine.put(b"k", versioned(2, "v2")).unwrap();
        assert_eq!(gauge(), engine.log_len() as i64);
        engine.delete(b"k", &VectorClock::with(1, 1)).unwrap();
        assert_eq!(gauge(), engine.log_len() as i64, "a delete that removed nothing");
        engine.compact();
        assert_eq!(gauge(), engine.log_len() as i64);
        engine.delete(b"k", &VectorClock::with(1, 2)).unwrap();
        assert_eq!(gauge(), engine.log_len() as i64);
    }

    #[test]
    fn writes_are_sequential_appends() {
        let engine = BdbLikeEngine::new();
        let mut last = 0;
        for i in 0..50u64 {
            engine
                .put(format!("k{i}").as_bytes(), versioned(1, "value"))
                .unwrap();
            let len = engine.log_len();
            assert!(len > last, "log only grows");
            last = len;
        }
    }
}
