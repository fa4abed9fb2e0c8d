//! Group-commit produce path: many producers, one lock acquisition.
//!
//! The paper credits Kafka's ingest throughput to batching away
//! per-message work (§V.B), and the ingestion study in PAPERS.md ("How
//! Fast Can We Insert?") shows the broker-side cost that batching cannot
//! amortize from the client alone: every arriving batch still takes the
//! partition lock, runs the flush policy, and wakes consumers once *per
//! arrival*. Under `N` concurrent producers that is `N` mutex round-trips
//! and `N` condvar broadcasts per unit of data — the serialization this
//! module removes.
//!
//! ## Protocol
//!
//! Producers enqueue pre-encoded frame groups into a per-partition
//! [`GroupQueue`] and then try to become the partition's **drainer**. At
//! most one drainer is active per partition: it claims *every* pending
//! group, commits them with a single [`IngestSink::append_groups`] call
//! (one partition-lock acquisition, one flush-policy check, one consumer
//! wakeup — see `PartitionLog::append_frames_multi`), ships the batch to
//! replicas at most once, completes each group's [`GroupSlot`], and loops
//! while more groups arrived during the commit. Producers that lost the
//! drainer race block on their slot according to their [`AckMode`] — so
//! the many-producers/one-append collapse is exactly the classic group
//! commit from write-ahead-logging databases, applied to a Kafka
//! partition.
//!
//! ## Ack modes
//!
//! [`AckMode`] is the produce-side durability dial (Kafka's `acks=0/1/all`):
//! `None` returns without waiting for the commit, `Leader` returns once
//! the leader's local append holds the bytes, and `FullIsr` returns only
//! after every in-sync replica holds them — the contracts the chaos
//! scenario `chaos_sweep_kafka_ack_durability` kills leaders to verify.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

use crate::message::KafkaError;

/// Producer-requested durability level for a produce call — the
/// reproduction of Kafka's `acks` setting, threaded from [`crate::Producer`]
/// through [`crate::Broker`] / [`crate::ReplicatedCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AckMode {
    /// Fire-and-forget: the call returns without waiting for the group
    /// commit. The message is still guaranteed to be appended by some
    /// drainer (enqueue never silently drops), but the caller learns
    /// neither the offset nor about append failures.
    None,
    /// Ack after the leader's local append — the default. Survives
    /// everything except a leader crash before the next replication ship
    /// (the bounded "unshipped tail" loss the chaos suite measures).
    #[default]
    Leader,
    /// Ack only after every in-sync replica holds the bytes. A
    /// FullIsr-acked message survives any single failover byte-identically.
    /// On an unreplicated [`crate::Broker`] there are no followers, so this
    /// degenerates to `Leader`.
    FullIsr,
}

/// What a grouped produce call learns once its [`AckMode`] condition is
/// met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProduceReceipt {
    /// Base offset of the group's first message in the partition log.
    /// `None` exactly when the caller used [`AckMode::None`] — it did not
    /// wait to find out.
    pub base_offset: Option<u64>,
}

/// One drained group as handed to an [`IngestSink`]: the pre-encoded wire
/// frames plus the counts the sink needs for metrics.
#[derive(Debug)]
pub struct GroupFrames<'a> {
    /// Pre-encoded `[len][crc][attributes][payload]` frames, back-to-back.
    pub frames: &'a [u8],
    /// Number of messages in `frames`.
    pub messages: u64,
    /// Sum of payload bytes across those messages.
    pub payload_bytes: u64,
}

/// Where a drained batch of groups goes. [`crate::Broker`] implements this
/// over one partition log; [`crate::ReplicatedCluster`] implements it over
/// the partition's current leader plus a replication ship.
pub trait IngestSink {
    /// Appends the groups' frame buffers back-to-back under **one**
    /// partition-lock acquisition, returning the base offset of the first
    /// buffer. An error must leave the log unmutated (the whole batch is
    /// rejected atomically).
    fn append_groups(&self, groups: &[GroupFrames<'_>]) -> Result<u64, KafkaError>;

    /// Pushes every byte appended so far out to all in-sync replicas.
    /// Called at most once per drained batch, and only when at least one
    /// group in the batch asked for [`AckMode::FullIsr`]. The default is a
    /// no-op: a single unreplicated broker has no followers, so FullIsr
    /// degenerates to Leader there.
    fn ship(&self) -> Result<(), KafkaError> {
        Ok(())
    }
}

/// Per-group completion state, observed by the producer that enqueued it.
#[derive(Debug, Clone)]
enum SlotState {
    /// Enqueued, not yet committed by a drainer.
    Pending,
    /// Locally appended at this base offset — the [`AckMode::Leader`]
    /// release point.
    Appended(u64),
    /// Held by every in-sync replica — the [`AckMode::FullIsr`] release
    /// point.
    Shipped(u64),
    /// The drainer could not commit (or ship) this group.
    Failed(KafkaError),
}

/// The rendezvous between a producer and the drainer that committed its
/// group.
struct GroupSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl GroupSlot {
    fn new() -> Self {
        GroupSlot {
            state: Mutex::new(SlotState::Pending),
            done: Condvar::new(),
        }
    }

    fn set(&self, state: SlotState) {
        *self.state.lock() = state;
        self.done.notify_all();
    }

    /// Blocks until the group is at least locally appended.
    fn wait_appended(&self) -> Result<u64, KafkaError> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                SlotState::Pending => self.done.wait(&mut state),
                SlotState::Appended(base) | SlotState::Shipped(base) => return Ok(*base),
                SlotState::Failed(err) => return Err(err.clone()),
            }
        }
    }

    /// Blocks until the group is held by every in-sync replica.
    fn wait_shipped(&self) -> Result<u64, KafkaError> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                SlotState::Pending | SlotState::Appended(_) => self.done.wait(&mut state),
                SlotState::Shipped(base) => return Ok(*base),
                SlotState::Failed(err) => return Err(err.clone()),
            }
        }
    }
}

/// A group waiting in the queue for a drainer.
struct PendingGroup {
    frames: Vec<u8>,
    messages: u64,
    payload_bytes: u64,
    ack: AckMode,
    slot: Arc<GroupSlot>,
}

struct QueueInner {
    pending: VecDeque<PendingGroup>,
    pending_bytes: usize,
    /// True while some producer thread is committing a claimed batch.
    draining: bool,
}

/// What one [`GroupQueue::drain_with`] call did — surfaced so the broker
/// can record groups-per-drain distribution metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainStats {
    /// Drained batches committed (lock acquisitions on the partition log).
    pub commits: u64,
    /// Groups across those batches.
    pub groups: u64,
}

/// The sharded per-partition append queue behind group commit. One lives
/// next to each partition log; producers [`GroupQueue::produce`] into it
/// and the winning drainer commits every waiting group in one shot.
pub struct GroupQueue {
    capacity_bytes: usize,
    inner: Mutex<QueueInner>,
    /// Signaled when queue space frees up *and* when a drainer finishes —
    /// both "re-check your admission / drainer race" events.
    vacancy: Condvar,
}

impl std::fmt::Debug for GroupQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("GroupQueue")
            .field("pending", &inner.pending.len())
            .field("pending_bytes", &inner.pending_bytes)
            .field("draining", &inner.draining)
            .finish()
    }
}

impl GroupQueue {
    /// An empty queue. `capacity_bytes` bounds the waiting groups'
    /// combined frame bytes; producers past it block (backpressure, not
    /// load shedding) with a one-group overshoot allowance so a single
    /// oversized batch can always land.
    pub fn new(capacity_bytes: usize) -> Self {
        GroupQueue {
            capacity_bytes: capacity_bytes.max(1),
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                pending_bytes: 0,
                draining: false,
            }),
            vacancy: Condvar::new(),
        }
    }

    /// Groups currently waiting for a drainer (diagnostics / tests).
    pub fn pending_groups(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Enqueues one pre-encoded frame group and drives the group-commit
    /// protocol: become the drainer if none is active, then block per
    /// `ack`. Returns once the ack contract is satisfied.
    pub fn produce(
        &self,
        sink: &dyn IngestSink,
        frames: Vec<u8>,
        messages: u64,
        payload_bytes: u64,
        ack: AckMode,
    ) -> Result<ProduceReceipt, KafkaError> {
        let slot = Arc::new(GroupSlot::new());
        self.admit(PendingGroup {
            frames,
            messages,
            payload_bytes,
            ack,
            slot: slot.clone(),
        });
        self.drain_with(sink);
        match ack {
            AckMode::None => Ok(ProduceReceipt { base_offset: None }),
            AckMode::Leader => slot.wait_appended().map(|base| ProduceReceipt {
                base_offset: Some(base),
            }),
            AckMode::FullIsr => slot.wait_shipped().map(|base| ProduceReceipt {
                base_offset: Some(base),
            }),
        }
    }

    /// Blocking admission. Invariant: a producer only waits while a
    /// drainer is active, and an active drainer always signals `vacancy`
    /// both when it claims a batch and when it retires — so every waiter
    /// has a guaranteed future wakeup and re-checks admission then. When
    /// no drainer is active the group is admitted even past the byte cap
    /// (the caller's own `drain_with` is the next progress step, and
    /// blocking here with nobody committed to waking us would wedge).
    fn admit(&self, group: PendingGroup) {
        let len = group.frames.len();
        let mut inner = self.inner.lock();
        loop {
            let fits = inner.pending_bytes + len <= self.capacity_bytes;
            if fits || inner.pending.is_empty() || !inner.draining {
                inner.pending.push_back(group);
                inner.pending_bytes += len;
                return;
            }
            self.vacancy.wait(&mut inner);
        }
    }

    /// Runs the drainer protocol until no groups are pending or another
    /// thread holds the drainer role. Returns what this call committed.
    /// Each iteration claims every pending group — the group commit.
    pub fn drain_with(&self, sink: &dyn IngestSink) -> DrainStats {
        let mut stats = DrainStats::default();
        let mut inner = self.inner.lock();
        loop {
            // The active drainer re-checks `pending` before it retires,
            // so our groups are its problem now.
            if inner.draining || inner.pending.is_empty() {
                return stats;
            }
            inner.draining = true;
            inner.pending_bytes = 0;
            let batch: Vec<PendingGroup> = inner.pending.drain(..).collect();
            // Space freed: wake blocked admitters.
            self.vacancy.notify_all();
            drop(inner);

            Self::commit(sink, &batch);
            stats.commits += 1;
            stats.groups += batch.len() as u64;

            inner = self.inner.lock();
            inner.draining = false;
            // Wake admission waiters; then loop — more groups may have
            // arrived while we were committing, and nobody else will take
            // them.
            self.vacancy.notify_all();
        }
    }

    /// Commits one claimed batch: one sink append for the whole batch,
    /// per-group base offsets by prefix sums, at most one ship, and every
    /// slot completed or failed.
    fn commit(sink: &dyn IngestSink, batch: &[PendingGroup]) {
        let frames: Vec<GroupFrames<'_>> = batch
            .iter()
            .map(|g| GroupFrames {
                frames: &g.frames,
                messages: g.messages,
                payload_bytes: g.payload_bytes,
            })
            .collect();
        let base = match sink.append_groups(&frames) {
            Ok(base) => base,
            Err(err) => {
                for group in batch {
                    group.slot.set(SlotState::Failed(err.clone()));
                }
                return;
            }
        };
        let mut offset = base;
        let mut offsets = Vec::with_capacity(batch.len());
        for group in batch {
            offsets.push(offset);
            offset += group.frames.len() as u64;
        }
        // Leader / None contracts are met by the local append alone.
        let mut needs_ship = false;
        for (group, &base_offset) in batch.iter().zip(&offsets) {
            if group.ack == AckMode::FullIsr {
                needs_ship = true;
            } else {
                group.slot.set(SlotState::Appended(base_offset));
            }
        }
        if !needs_ship {
            return;
        }
        // One ship covers every FullIsr group in the batch.
        match sink.ship() {
            Ok(()) => {
                for (group, &base_offset) in batch.iter().zip(&offsets) {
                    if group.ack == AckMode::FullIsr {
                        group.slot.set(SlotState::Shipped(base_offset));
                    }
                }
            }
            Err(err) => {
                for group in batch {
                    if group.ack == AckMode::FullIsr {
                        group.slot.set(SlotState::Failed(err.clone()));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogConfig, PartitionLog};
    use crate::message::MessageSet;
    use li_commons::sim::SimClock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Sink over a bare partition log, counting appends and ships.
    struct LogSink {
        log: PartitionLog,
        appends: AtomicU64,
        ships: AtomicU64,
        /// When set, `append_groups` parks until the channel delivers —
        /// lets tests wedge the drainer to observe backpressure.
        gate: Option<Mutex<mpsc::Receiver<()>>>,
    }

    impl LogSink {
        fn new() -> Self {
            LogSink {
                log: PartitionLog::new(LogConfig::default(), Arc::new(SimClock::new())),
                appends: AtomicU64::new(0),
                ships: AtomicU64::new(0),
                gate: None,
            }
        }
    }

    impl IngestSink for LogSink {
        fn append_groups(&self, groups: &[GroupFrames<'_>]) -> Result<u64, KafkaError> {
            if let Some(gate) = &self.gate {
                gate.lock().recv().expect("gate sender alive");
            }
            self.appends.fetch_add(1, Ordering::SeqCst);
            let buffers: Vec<&[u8]> = groups.iter().map(|g| g.frames).collect();
            self.log.append_frames_multi(&buffers)
        }

        fn ship(&self) -> Result<(), KafkaError> {
            self.ships.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    fn encode(payloads: &[&str]) -> Vec<u8> {
        MessageSet::from_payloads(payloads.iter().map(|p| p.as_bytes().to_vec())).encode()
    }

    #[test]
    fn one_producer_commits_inline_and_gets_its_offset() {
        let queue = GroupQueue::new(1 << 20);
        let sink = LogSink::new();
        let r1 = queue
            .produce(&sink, encode(&["a"]), 1, 1, AckMode::Leader)
            .unwrap();
        let r2 = queue
            .produce(&sink, encode(&["bb"]), 1, 2, AckMode::Leader)
            .unwrap();
        assert_eq!(r1.base_offset, Some(0));
        assert_eq!(r2.base_offset, Some(encode(&["a"]).len() as u64));
        assert_eq!(sink.appends.load(Ordering::SeqCst), 2);
        assert_eq!(sink.ships.load(Ordering::SeqCst), 0, "no FullIsr group");
        assert_eq!(queue.pending_groups(), 0);
    }

    #[test]
    fn empty_group_commits_cleanly() {
        let queue = GroupQueue::new(1 << 20);
        let sink = LogSink::new();
        let receipt = queue
            .produce(&sink, Vec::new(), 0, 0, AckMode::Leader)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(0));
        assert_eq!(sink.log.log_end(), 0);
        // And an empty group after real data reports the current end.
        queue
            .produce(&sink, encode(&["x"]), 1, 1, AckMode::Leader)
            .unwrap();
        let end = sink.log.log_end();
        let receipt = queue
            .produce(&sink, Vec::new(), 0, 0, AckMode::Leader)
            .unwrap();
        assert_eq!(receipt.base_offset, Some(end));
    }

    #[test]
    fn none_ack_returns_without_offset_but_still_lands() {
        let queue = GroupQueue::new(1 << 20);
        let sink = LogSink::new();
        let receipt = queue
            .produce(&sink, encode(&["fire", "forget"]), 2, 10, AckMode::None)
            .unwrap();
        assert_eq!(receipt.base_offset, None);
        // Single-threaded: the caller was its own drainer, so the bytes
        // are already in the log (flush-on-close has nothing left to do).
        assert_eq!(queue.pending_groups(), 0);
        assert_eq!(sink.log.log_end(), encode(&["fire", "forget"]).len() as u64);
    }

    #[test]
    fn full_isr_ships_once_per_drained_batch() {
        let queue = GroupQueue::new(1 << 20);
        let sink = LogSink::new();
        queue
            .produce(&sink, encode(&["d"]), 1, 1, AckMode::FullIsr)
            .unwrap();
        assert_eq!(sink.ships.load(Ordering::SeqCst), 1);
        queue
            .produce(&sink, encode(&["e"]), 1, 1, AckMode::Leader)
            .unwrap();
        assert_eq!(sink.ships.load(Ordering::SeqCst), 1, "Leader batch does not ship");
    }

    #[test]
    fn torn_group_fails_its_producer_without_wedging_the_queue() {
        let queue = GroupQueue::new(1 << 20);
        let sink = LogSink::new();
        let mut torn = encode(&["torn"]);
        torn.truncate(torn.len() - 1);
        let err = queue.produce(&sink, torn, 1, 4, AckMode::Leader);
        assert!(err.is_err());
        // Queue still serves the next producer.
        let ok = queue
            .produce(&sink, encode(&["fine"]), 1, 4, AckMode::Leader)
            .unwrap();
        assert_eq!(ok.base_offset, Some(0), "failed group left no bytes behind");
    }

    #[test]
    fn concurrent_producers_group_into_fewer_appends() {
        // Wedge the drainer on the first append; the groups piling up
        // behind it must then commit in ONE append_groups call.
        let queue = Arc::new(GroupQueue::new(1 << 20));
        let (gate_tx, gate_rx) = mpsc::channel();
        let mut sink = LogSink::new();
        sink.gate = Some(Mutex::new(gate_rx));
        let sink = Arc::new(sink);

        let mut handles = Vec::new();
        let spawn_producer = |i: usize| {
            let queue = queue.clone();
            let sink = sink.clone();
            std::thread::spawn(move || {
                queue
                    .produce(
                        &*sink,
                        encode(&[&format!("msg-{i}")]),
                        1,
                        5,
                        AckMode::Leader,
                    )
                    .unwrap()
            })
        };
        // First producer becomes the drainer and wedges inside append
        // with its own group claimed...
        handles.push(spawn_producer(0));
        while !queue.inner.lock().draining {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...then three more pile up behind it. Open the gate for the
        // wedged append and the grouped follow-up.
        for i in 1..4 {
            handles.push(spawn_producer(i));
        }
        while queue.pending_groups() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate_tx.send(()).unwrap(); // first (wedged) drain: 1 group
        gate_tx.send(()).unwrap(); // second drain: the remaining 3 as one batch
        let receipts: Vec<ProduceReceipt> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_eq!(sink.appends.load(Ordering::SeqCst), 2, "4 producers, 2 appends");
        // All four landed, at distinct offsets, log contiguous.
        let mut offsets: Vec<u64> = receipts.iter().map(|r| r.base_offset.unwrap()).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), 4);
        assert_eq!(sink.log.verify_contiguity().unwrap(), 4);
    }

    #[test]
    fn queue_full_backpressure_blocks_then_admits() {
        // Capacity of one small group; wedge the drainer so a second
        // producer's admission must wait for the drain to free space.
        let group = encode(&["block"]);
        let queue = Arc::new(GroupQueue::new(group.len()));
        let (gate_tx, gate_rx) = mpsc::channel();
        let mut sink = LogSink::new();
        sink.gate = Some(Mutex::new(gate_rx));
        let sink = Arc::new(sink);

        // Producer A: becomes the drainer, wedges inside append.
        let a = {
            let (queue, sink, group) = (queue.clone(), sink.clone(), group.clone());
            std::thread::spawn(move || queue.produce(&*sink, group, 1, 5, AckMode::Leader))
        };
        while !queue.inner.lock().draining {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Producer B: fills the queue to capacity (admitted: queue empty).
        let b = {
            let (queue, sink, group) = (queue.clone(), sink.clone(), group.clone());
            std::thread::spawn(move || queue.produce(&*sink, group, 1, 5, AckMode::Leader))
        };
        while queue.pending_groups() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Producer C: queue full + drainer active → must block in admit.
        let c = {
            let (queue, sink, group) = (queue.clone(), sink.clone(), group.clone());
            std::thread::spawn(move || queue.produce(&*sink, group, 1, 5, AckMode::Leader))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            queue.pending_groups(),
            1,
            "C is blocked in admission while the queue is full"
        );
        // Open the gate: A's append completes, the drainer claims B's
        // group (freeing space, admitting C) and commits until dry.
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        drop(gate_tx);
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
        c.join().unwrap().unwrap();
        assert_eq!(sink.log.verify_contiguity().unwrap(), 3, "all three landed");
    }

    #[test]
    fn one_producer_at_a_time_commits_one_group_per_append() {
        let queue = GroupQueue::new(1 << 20);
        let sink = LogSink::new();
        for i in 0..5 {
            queue
                .produce(&sink, encode(&[&format!("d-{i}")]), 1, 3, AckMode::Leader)
                .unwrap();
        }
        assert_eq!(
            sink.appends.load(Ordering::SeqCst),
            5,
            "each drain claims only its caller's group"
        );
        assert_eq!(sink.log.verify_contiguity().unwrap(), 5);
    }

    #[test]
    fn flush_on_close_drain_leaves_nothing_pending() {
        // drain_with on an idle queue is a no-op; after interleaved
        // produces it reports zero pending regardless of ack mode.
        let queue = GroupQueue::new(1 << 20);
        let sink = LogSink::new();
        for ack in [AckMode::None, AckMode::Leader, AckMode::FullIsr] {
            queue.produce(&sink, encode(&["z"]), 1, 1, ack).unwrap();
        }
        let stats = queue.drain_with(&sink);
        assert_eq!(stats.commits, 0, "nothing left for the closing drain");
        assert_eq!(queue.pending_groups(), 0);
        assert_eq!(sink.log.verify_contiguity().unwrap(), 3);
    }
}
