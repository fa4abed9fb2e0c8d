//! Partition logs: segments, logical offsets, flush policy, retention.
//!
//! "Each partition of a topic corresponds to a logical log. Physically, a
//! log is implemented as a set of segment files of approximately the same
//! size. Every time a producer publishes a message to a partition, the
//! broker simply appends the message to the last segment file. For better
//! performance, we flush the segment files to disk only after a
//! configurable number of messages have been published or a certain amount
//! of time has elapsed. A message is only exposed to the consumers after
//! it is flushed. ... each message is addressed by its logical offset in
//! the log. ... For every partition in a topic, a broker keeps in memory
//! the initial offset of each segment file" (§V.B).
//!
//! ## Zero-copy data path
//!
//! A segment is a list of frozen, immutable [`Bytes`] chunks plus a plain
//! `Vec<u8>` append tail. Appends go into the tail under the partition
//! mutex; a flush (or a segment roll) *freezes* the tail into a shared
//! `Bytes` chunk — a move, not a copy. [`PartitionLog::read_chunks`] then
//! only computes `(segment, chunk, range)` under the lock and returns
//! cheap `Bytes` views of those chunks; frame walking, decoding, and
//! decompression all happen outside the mutex, and consumer-visible
//! payloads are `Bytes::slice` sub-views of the segment allocation — the
//! in-process analog of serving straight from the page cache via
//! `sendfile` (§V.B "avoids byte copying").

use bytes::Bytes;
use li_commons::bufio;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

use li_commons::sim::Clock;

use crate::message::{FetchChunk, KafkaError, Message, MessageSet};

/// Log tuning knobs.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Roll to a new segment after the active one exceeds this.
    pub segment_bytes: usize,
    /// Flush after this many appended messages.
    pub flush_interval_messages: u64,
    /// Flush after this much time since the last flush.
    pub flush_interval: Duration,
    /// Delete segments not appended to for this long — "a message is
    /// automatically deleted if it has been retained in the broker longer
    /// than a certain period (e.g., 7 days)".
    pub retention: Duration,
    /// Byte capacity of the per-partition group-commit queue: producers
    /// enqueueing past this block until the drainer frees space
    /// (backpressure, not load shedding). One in-flight group may
    /// overshoot the cap so a single oversized batch can always land.
    pub ingest_queue_bytes: usize,
    /// Simulated stable-storage latency charged once per flush (the
    /// in-memory log is otherwise free to "fsync", which hides exactly
    /// the cost group commit exists to amortize). `ZERO` by default —
    /// no behavior change anywhere but benchmarks that opt in. The
    /// sleep happens under the log lock, like a real fsync blocking
    /// that partition's writers, and it yields the CPU so concurrent
    /// producers can queue behind it — which is how commit groups form.
    pub flush_latency: Duration,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 1 << 20,
            flush_interval_messages: 1,
            flush_interval: Duration::from_millis(100),
            retention: Duration::from_secs(7 * 24 * 3600),
            ingest_queue_bytes: 4 << 20,
            flush_latency: Duration::ZERO,
        }
    }
}

#[derive(Debug)]
struct Segment {
    base_offset: u64,
    /// Frozen frame-aligned chunks as `(start byte relative to
    /// base_offset, data)`; starts are strictly increasing.
    chunks: Vec<(usize, Bytes)>,
    /// Total bytes across `chunks`.
    frozen_len: usize,
    /// Append tail not yet frozen; only the newest segment has one.
    active: Vec<u8>,
    last_append: Duration,
}

impl Segment {
    fn new(base_offset: u64, now: Duration) -> Self {
        Segment {
            base_offset,
            chunks: Vec::new(),
            frozen_len: 0,
            active: Vec::new(),
            last_append: now,
        }
    }

    fn len(&self) -> usize {
        self.frozen_len + self.active.len()
    }

    /// Freezes the append tail into an immutable shared chunk (a move of
    /// the `Vec`'s allocation — no bytes are copied). Invariant: every
    /// consumer-visible byte is frozen, so reads never touch `active`.
    fn freeze_active(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let start = self.frozen_len;
        self.frozen_len += self.active.len();
        self.chunks.push((start, Bytes::from(std::mem::take(&mut self.active))));
    }
}

#[derive(Debug)]
struct LogInner {
    segments: Vec<Segment>,
    /// Absolute offset one past the last appended byte.
    log_end: u64,
    /// Absolute offset one past the last *flushed* (consumer-visible) byte.
    visible_end: u64,
    unflushed_messages: u64,
    last_flush: Duration,
}

/// One topic-partition's log.
pub struct PartitionLog {
    config: LogConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<LogInner>,
    data_ready: Condvar,
}

impl std::fmt::Debug for PartitionLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PartitionLog")
            .field("segments", &inner.segments.len())
            .field("log_end", &inner.log_end)
            .field("visible_end", &inner.visible_end)
            .finish()
    }
}

impl PartitionLog {
    /// Creates an empty log.
    pub fn new(config: LogConfig, clock: Arc<dyn Clock>) -> Self {
        let now = clock.now();
        PartitionLog {
            config,
            clock,
            inner: Mutex::new(LogInner {
                segments: vec![Segment::new(0, now)],
                log_end: 0,
                visible_end: 0,
                unflushed_messages: 0,
                last_flush: now,
            }),
            data_ready: Condvar::new(),
        }
    }

    /// Appends one message, returning its logical offset. Visibility waits
    /// for the flush policy.
    pub fn append(&self, message: &Message) -> u64 {
        let mut frames = Vec::with_capacity(message.framed_len());
        message.encode(&mut frames);
        self.append_frames(&frames)
            .expect("freshly encoded frame is structurally valid")
    }

    /// Appends a whole message set under **one** lock acquisition,
    /// returning the offset of its first message (== the log end when the
    /// set is empty). The set is encoded once, outside the lock.
    pub fn append_set(&self, set: &MessageSet) -> u64 {
        let frames = set.encode();
        self.append_frames(&frames)
            .expect("freshly encoded set is structurally valid")
    }

    /// Appends pre-framed messages (a producer wire buffer, a mirrored or
    /// replicated chunk) verbatim under one lock acquisition, returning
    /// the base offset. Frame structure is validated and messages are
    /// counted *before* the lock is taken; torn or misaligned input is
    /// rejected without mutating the log.
    pub fn append_frames(&self, frames: &[u8]) -> Result<u64, KafkaError> {
        let messages = Self::validate_frames(frames)?;
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let offset = self.append_one_locked(&mut inner, frames, messages, now);
        self.flush_if_due_locked(&mut inner, now);
        Ok(offset)
    }

    /// Appends several pre-framed buffers — one producer group's worth —
    /// under **one** lock acquisition, returning the base offset of the
    /// first buffer. This is the group-commit primitive: each buffer is
    /// validated outside the lock exactly like [`Self::append_frames`],
    /// then all of them land in the log back-to-back with a single flush
    /// policy check at the end, so `N` concurrent producers cost one mutex
    /// round-trip, one flush, and one `data_ready` broadcast instead of
    /// `N` of each. Byte content and the final visible end are identical
    /// to appending the buffers sequentially; only mid-drain visibility
    /// differs (intermediate flush points are skipped). Any torn buffer
    /// rejects the whole group without mutating the log.
    pub fn append_frames_multi(&self, buffers: &[&[u8]]) -> Result<u64, KafkaError> {
        let mut messages = 0u64;
        for buffer in buffers {
            messages += Self::validate_frames(buffer)?;
        }
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let base = inner.log_end;
        for buffer in buffers {
            // Message counts were validated up front; charge them once below.
            self.append_one_locked(&mut inner, buffer, 0, now);
        }
        inner.unflushed_messages += messages;
        if !buffers.is_empty() {
            self.flush_if_due_locked(&mut inner, now);
        }
        Ok(base)
    }

    /// Structural validation of a frame buffer (no lock): returns the
    /// message count or rejects torn/misaligned input.
    fn validate_frames(frames: &[u8]) -> Result<u64, KafkaError> {
        let mut messages = 0u64;
        let mut pos = 0usize;
        while pos < frames.len() {
            match bufio::frame_bounds(frames, pos) {
                bufio::FrameBounds::Record { end, .. } => {
                    pos = end;
                    messages += 1;
                }
                _ => {
                    return Err(KafkaError::Corrupt(format!(
                        "torn frame at byte {pos} of appended set"
                    )))
                }
            }
        }
        Ok(messages)
    }

    /// Appends one validated buffer under an already-held lock: roll
    /// check, tail extend, offset advance. Returns the buffer's base
    /// offset. Flush policy is the caller's job.
    fn append_one_locked(
        &self,
        inner: &mut LogInner,
        frames: &[u8],
        messages: u64,
        now: Duration,
    ) -> u64 {
        let offset = inner.log_end;
        let roll = inner
            .segments
            .last()
            .is_none_or(|s| s.len() >= self.config.segment_bytes);
        if roll {
            if let Some(sealed) = inner.segments.last_mut() {
                sealed.freeze_active();
            }
            inner.segments.push(Segment::new(offset, now));
        }
        let active = inner.segments.last_mut().expect("active segment");
        active.active.extend_from_slice(frames);
        active.last_append = now;
        inner.log_end = offset + frames.len() as u64;
        inner.unflushed_messages += messages;
        offset
    }

    fn flush_if_due_locked(&self, inner: &mut LogInner, now: Duration) {
        let flush_due = inner.unflushed_messages >= self.config.flush_interval_messages
            || now.saturating_sub(inner.last_flush) >= self.config.flush_interval;
        if flush_due {
            self.flush_locked(inner, now);
        }
    }

    fn flush_locked(&self, inner: &mut LogInner, now: Duration) {
        if self.config.flush_latency > Duration::ZERO {
            std::thread::sleep(self.config.flush_latency);
        }
        if let Some(active) = inner.segments.last_mut() {
            active.freeze_active();
        }
        inner.visible_end = inner.log_end;
        inner.unflushed_messages = 0;
        inner.last_flush = now;
        self.data_ready.notify_all();
    }

    /// Forces a flush (shutdown / time-policy tick).
    pub fn flush(&self) {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner, now);
    }

    /// Smallest valid offset (moves forward as retention deletes segments).
    pub fn log_start(&self) -> u64 {
        self.inner.lock().segments.first().map_or(0, |s| s.base_offset)
    }

    /// One past the last appended byte.
    pub fn log_end(&self) -> u64 {
        self.inner.lock().log_end
    }

    /// One past the last consumer-visible byte.
    pub fn visible_end(&self) -> u64 {
        self.inner.lock().visible_end
    }

    /// Chaos invariant checker: walks every visible byte from
    /// [`PartitionLog::log_start`], verifying the log is one contiguous,
    /// CRC-valid frame sequence — no holes between chunks, no torn or
    /// corrupt frames, and the walk ends exactly at
    /// [`PartitionLog::visible_end`]. Returns the number of messages.
    pub fn verify_contiguity(&self) -> Result<u64, String> {
        let start = self.log_start();
        let (chunks, next) = self
            .read_chunks(start, usize::MAX)
            .map_err(|e| format!("read_chunks failed: {e}"))?;
        let mut expected = start;
        let mut messages = 0u64;
        for chunk in &chunks {
            if chunk.base_offset != expected {
                return Err(format!(
                    "hole in log: chunk at offset {} but expected {expected}",
                    chunk.base_offset
                ));
            }
            let mut pos = 0usize;
            loop {
                match bufio::frame_at(&chunk.data, pos) {
                    bufio::FrameBounds::Record { end, .. } => {
                        pos = end;
                        messages += 1;
                    }
                    bufio::FrameBounds::End => break,
                    bufio::FrameBounds::Corrupt => {
                        return Err(format!(
                            "corrupt frame at offset {}",
                            chunk.base_offset + pos as u64
                        ));
                    }
                }
            }
            expected += chunk.data.len() as u64;
        }
        if expected != next || next != self.visible_end() {
            return Err(format!(
                "walk ended at {expected}, read_chunks next {next}, visible_end {}",
                self.visible_end()
            ));
        }
        Ok(messages)
    }

    /// Fingerprint of every visible byte (FNV-1a over the stored frames).
    /// Two logs with equal fingerprints and equal
    /// [`PartitionLog::log_start`] hold byte-identical data — the
    /// mirror/replica byte-identity invariant.
    pub fn content_fingerprint(&self) -> u64 {
        let start = self.log_start();
        let (chunks, _) = self
            .read_chunks(start, usize::MAX)
            .unwrap_or((Vec::new(), start));
        let mut bytes = Vec::new();
        for chunk in &chunks {
            bytes.extend_from_slice(&chunk.data);
        }
        li_commons::fnv::fnv1a(&bytes)
    }

    /// FNV-1a fingerprint of the visible bytes below `end`. This is the
    /// byte-prefix test behind divergent-replica detection: a crashed
    /// leader can rejoin holding an uncommitted tail that its successor
    /// overwrote with different records of the same framed length, so
    /// comparing log lengths alone cannot spot the divergence.
    pub fn prefix_fingerprint(&self, end: u64) -> u64 {
        let start = self.log_start();
        let (chunks, _) = self
            .read_chunks(start, usize::MAX)
            .unwrap_or((Vec::new(), start));
        let mut bytes = Vec::new();
        for chunk in &chunks {
            if chunk.base_offset >= end {
                break;
            }
            let take = ((end - chunk.base_offset) as usize).min(chunk.data.len());
            bytes.extend_from_slice(&chunk.data[..take]);
        }
        li_commons::fnv::fnv1a(&bytes)
    }

    /// Chunk-based fetch, the zero-copy read path: views of the stored
    /// frames starting at `offset`, up to `max_bytes` of framed data ("each
    /// pull request contains the offset of the message from which the
    /// consumption begins and a maximum number of bytes to fetch"), plus
    /// the offset to resume from. Under a short lock hold this only
    /// *locates* the data — binary search for the segment,
    /// then for the frozen chunk holding `offset` — and snapshots cheap
    /// `Bytes` views clamped to the flush horizon. The lock is dropped
    /// before any frame is examined; the returned chunks are then trimmed
    /// to `max_bytes` at a message boundary by walking frame length
    /// prefixes (structural validation only — no CRC, no payload copies,
    /// see [`FetchChunk`]).
    ///
    /// At least one message is returned when any is visible, even if it
    /// alone exceeds `max_bytes` (the paper's pull-request contract).
    pub fn read_chunks(
        &self,
        offset: u64,
        max_bytes: usize,
    ) -> Result<(Vec<FetchChunk>, u64), KafkaError> {
        // Phase 1 (locked): locate and snapshot chunk views.
        let mut views: Vec<(u64, Bytes)> = Vec::new();
        {
            let inner = self.inner.lock();
            let log_start = inner.segments.first().map_or(0, |s| s.base_offset);
            if offset < log_start || offset > inner.visible_end {
                return Err(KafkaError::OffsetOutOfRange {
                    requested: offset,
                    log_start,
                    log_end: inner.visible_end,
                });
            }
            if offset == inner.visible_end {
                return Ok((Vec::new(), offset));
            }
            let seg_idx = match inner
                .segments
                .binary_search_by(|s| s.base_offset.cmp(&offset))
            {
                Ok(idx) => idx,
                Err(idx) => idx - 1,
            };
            // Conservative byte estimate of what the trim walk can use:
            // stop snapshotting one chunk past the budget (the walk trims
            // the overshoot to a frame boundary outside the lock).
            let mut taken = 0usize;
            'collect: for segment in &inner.segments[seg_idx..] {
                if segment.base_offset >= inner.visible_end {
                    break;
                }
                let rel = offset.saturating_sub(segment.base_offset) as usize;
                let first_chunk = match segment
                    .chunks
                    .binary_search_by(|(start, _)| start.cmp(&rel))
                {
                    Ok(idx) => idx,
                    Err(idx) => idx.saturating_sub(1),
                };
                for (chunk_start, data) in &segment.chunks[first_chunk..] {
                    if taken >= max_bytes {
                        break 'collect;
                    }
                    let abs = segment.base_offset + *chunk_start as u64;
                    if abs >= inner.visible_end {
                        break 'collect;
                    }
                    // Never serve past the flush horizon (frame-aligned
                    // by construction: flushes land on message bounds).
                    let visible_len =
                        ((inner.visible_end - abs) as usize).min(data.len());
                    let skip = rel.saturating_sub(*chunk_start);
                    if skip >= visible_len {
                        continue; // chunk entirely before `offset`
                    }
                    let view = if visible_len == data.len() {
                        data.clone()
                    } else {
                        data.slice(..visible_len)
                    };
                    views.push((abs, view));
                    taken += visible_len - skip;
                }
            }
        }

        // Phase 2 (unlocked): frame-walk each view — align to `offset`,
        // take whole frames while under budget, trim the tail.
        let mut chunks = Vec::new();
        let mut budget_used = 0usize;
        let mut next = offset;
        'walk: for (abs, data) in &views {
            let target = offset.saturating_sub(*abs) as usize;
            let mut pos = 0usize;
            while pos < target {
                match bufio::frame_bounds(data, pos) {
                    bufio::FrameBounds::Record { end, .. } => pos = end,
                    _ => break,
                }
            }
            if pos != target {
                return Err(KafkaError::Corrupt(format!(
                    "offset {offset} is not at a message boundary"
                )));
            }
            let start = pos;
            let mut messages = 0u64;
            while pos < data.len() && budget_used < max_bytes {
                match bufio::frame_bounds(data, pos) {
                    bufio::FrameBounds::Record { end, .. } => {
                        budget_used += end - pos;
                        pos = end;
                        messages += 1;
                    }
                    _ => {
                        return Err(KafkaError::Corrupt(format!(
                            "torn frame at offset {} in stored chunk",
                            *abs + pos as u64
                        )))
                    }
                }
            }
            if pos > start {
                let slice = if start == 0 && pos == data.len() {
                    data.clone()
                } else {
                    data.slice(start..pos)
                };
                chunks.push(FetchChunk {
                    base_offset: *abs + start as u64,
                    data: slice,
                    messages,
                });
                next = *abs + pos as u64;
            }
            if budget_used >= max_bytes {
                break 'walk;
            }
        }
        Ok((chunks, next))
    }

    /// Blocks until data past `offset` is visible, or `timeout` elapses.
    /// Returns true when data is available. This is what makes the
    /// consumer's "iterator never terminates" blocking semantics work.
    pub fn wait_for_data(&self, offset: u64, timeout: Duration) -> bool {
        let mut inner = self.inner.lock();
        if inner.visible_end > offset {
            return true;
        }
        self.data_ready.wait_for(&mut inner, timeout);
        inner.visible_end > offset
    }

    /// Applies the time-based retention SLA: whole segments whose last
    /// append is older than the retention period are deleted. Returns
    /// deleted segment count. The (possibly empty) newest segment always
    /// survives so `log_end` stays meaningful.
    pub fn enforce_retention(&self) -> usize {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let mut deleted = 0;
        while inner.segments.len() > 1 {
            let expired = now.saturating_sub(inner.segments[0].last_append) > self.config.retention;
            if !expired {
                break;
            }
            inner.segments.remove(0);
            deleted += 1;
        }
        // A single expired segment is truncated in place by rolling.
        if inner.segments.len() == 1 {
            let expired = now.saturating_sub(inner.segments[0].last_append) > self.config.retention
                && inner.segments[0].len() != 0;
            if expired {
                let end = inner.log_end;
                inner.segments[0] = Segment::new(end, now);
                deleted += 1;
            }
        }
        deleted
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use li_commons::sim::SimClock;

    fn log_with(config: LogConfig) -> (PartitionLog, SimClock) {
        let clock = SimClock::new();
        (PartitionLog::new(config, Arc::new(clock.clone())), clock)
    }

    fn msg(text: &str) -> Message {
        Message::new(text.as_bytes().to_vec())
    }

    /// `read_chunks`, decoded by [`FetchChunk`] iteration.
    fn read(
        log: &PartitionLog,
        offset: u64,
        max_bytes: usize,
    ) -> Result<(Vec<(u64, Message)>, u64), KafkaError> {
        let (chunks, next) = log.read_chunks(offset, max_bytes)?;
        let messages = chunks.iter().flatten().collect::<Result<_, _>>()?;
        Ok((messages, next))
    }

    #[test]
    fn append_read_round_trip_with_offsets() {
        let (log, _) = log_with(LogConfig::default());
        let o1 = log.append(&msg("a"));
        let o2 = log.append(&msg("bb"));
        let o3 = log.append(&msg("ccc"));
        assert_eq!(o1, 0);
        assert_eq!(o2, msg("a").framed_len() as u64);
        assert_eq!(o3, o2 + msg("bb").framed_len() as u64);
        let (messages, next) = read(&log, 0, usize::MAX).unwrap();
        assert_eq!(messages.len(), 3);
        assert_eq!(messages[1].0, o2);
        assert_eq!(messages[2].1.payload.as_ref(), b"ccc");
        assert_eq!(next, log.log_end());
        // Resume from the middle.
        let (tail, _) = read(&log, o2, usize::MAX).unwrap();
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn max_bytes_bounds_the_fetch() {
        let (log, _) = log_with(LogConfig::default());
        for i in 0..100 {
            log.append(&msg(&format!("event-{i}")));
        }
        let (messages, next) = read(&log, 0, 100).unwrap();
        assert!(messages.len() < 100 && !messages.is_empty());
        // Continue from next.
        let (more, _) = read(&log, next, usize::MAX).unwrap();
        assert_eq!(messages.len() + more.len(), 100);
    }

    #[test]
    fn unflushed_messages_invisible() {
        let (log, _) = log_with(LogConfig {
            flush_interval_messages: 10,
            flush_interval: Duration::from_secs(3600),
            ..LogConfig::default()
        });
        for _ in 0..5 {
            log.append(&msg("x"));
        }
        assert_eq!(log.visible_end(), 0);
        let (messages, next) = read(&log, 0, usize::MAX).unwrap();
        assert!(messages.is_empty());
        assert_eq!(next, 0);
        // 10th message triggers the count-based flush.
        for _ in 0..5 {
            log.append(&msg("x"));
        }
        assert_eq!(log.visible_end(), log.log_end());
        assert_eq!(read(&log, 0, usize::MAX).unwrap().0.len(), 10);
    }

    #[test]
    fn flush_latency_is_charged_per_flush_not_per_message() {
        let (log, _) = log_with(LogConfig {
            flush_interval_messages: 4,
            flush_interval: Duration::from_secs(3600),
            flush_latency: Duration::from_millis(5),
            ..LogConfig::default()
        });
        // Three appends stay under the flush threshold: no latency paid.
        let started = std::time::Instant::now();
        for _ in 0..3 {
            log.append(&msg("x"));
        }
        assert!(started.elapsed() < Duration::from_millis(5));
        // The fourth append flushes once, sleeping at least the latency.
        let started = std::time::Instant::now();
        log.append(&msg("x"));
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(log.visible_end(), log.log_end());
    }

    #[test]
    fn time_based_flush() {
        let (log, clock) = log_with(LogConfig {
            flush_interval_messages: 1000,
            flush_interval: Duration::from_millis(50),
            ..LogConfig::default()
        });
        log.append(&msg("x"));
        assert_eq!(log.visible_end(), 0);
        clock.advance(Duration::from_millis(60));
        log.append(&msg("y")); // append past the interval flushes
        assert_eq!(log.visible_end(), log.log_end());
    }

    #[test]
    fn segments_roll_and_offsets_span_them() {
        let (log, _) = log_with(LogConfig {
            segment_bytes: 64,
            ..LogConfig::default()
        });
        let mut offsets = Vec::new();
        for i in 0..50 {
            offsets.push(log.append(&msg(&format!("event-{i}"))));
        }
        assert!(log.segment_count() > 1);
        // Reads work across segment boundaries from any starting offset.
        for (i, &offset) in offsets.iter().enumerate() {
            let (messages, _) = read(&log, offset, usize::MAX).unwrap();
            assert_eq!(messages.len(), 50 - i, "from offset {offset}");
        }
    }

    #[test]
    fn out_of_range_offsets_rejected() {
        let (log, _) = log_with(LogConfig::default());
        log.append(&msg("x"));
        let err = read(&log, log.log_end() + 1, 100).unwrap_err();
        assert!(matches!(err, KafkaError::OffsetOutOfRange { .. }));
        // Mid-message offsets are detected as corrupt rather than served.
        assert!(read(&log, 3, 100).is_err());
    }

    #[test]
    fn rewind_and_reconsume() {
        // "A consumer can deliberately rewind back to an old offset and
        // re-consume data."
        let (log, _) = log_with(LogConfig::default());
        for i in 0..10 {
            log.append(&msg(&format!("{i}")));
        }
        let (first, _) = read(&log, 0, usize::MAX).unwrap();
        let (again, _) = read(&log, 0, usize::MAX).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn retention_deletes_old_segments() {
        let (log, clock) = log_with(LogConfig {
            segment_bytes: 64,
            retention: Duration::from_secs(100),
            ..LogConfig::default()
        });
        for i in 0..30 {
            log.append(&msg(&format!("old-{i}")));
        }
        let old_end = log.log_end();
        clock.advance(Duration::from_secs(200));
        for i in 0..5 {
            log.append(&msg(&format!("new-{i}")));
        }
        let deleted = log.enforce_retention();
        assert!(deleted > 0);
        assert!(log.log_start() > 0);
        // Old offsets now out of range; new data still readable.
        assert!(read(&log, 0, 100).is_err());
        let (messages, _) = read(&log, old_end, usize::MAX).unwrap();
        assert_eq!(messages.len(), 5);
    }

    #[test]
    fn retention_with_single_expired_segment_truncates() {
        let (log, clock) = log_with(LogConfig {
            retention: Duration::from_secs(10),
            ..LogConfig::default()
        });
        log.append(&msg("doomed"));
        clock.advance(Duration::from_secs(60));
        assert_eq!(log.enforce_retention(), 1);
        assert_eq!(log.log_start(), log.log_end());
        assert!(read(&log, log.log_end(), 100).unwrap().0.is_empty());
    }

    #[test]
    fn append_set_returns_base_offset_and_matches_singles() {
        let (batched, _) = log_with(LogConfig::default());
        let (single, _) = log_with(LogConfig::default());
        let set = MessageSet {
            messages: vec![msg("a"), msg("bb"), msg("ccc")],
        };
        let base = batched.append_set(&set);
        assert_eq!(base, 0);
        let base2 = batched.append_set(&set);
        assert_eq!(base2, batched.log_end() / 2);
        for m in set.messages.iter().chain(set.messages.iter()) {
            single.append(m);
        }
        assert_eq!(batched.log_end(), single.log_end());
        let a = read(&batched, 0, usize::MAX).unwrap();
        let b = read(&single, 0, usize::MAX).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn append_frames_multi_matches_sequential_appends() {
        for segment_bytes in [64usize, 1 << 20] {
            let (grouped, _) = log_with(LogConfig {
                segment_bytes,
                ..LogConfig::default()
            });
            let (single, _) = log_with(LogConfig {
                segment_bytes,
                ..LogConfig::default()
            });
            let buffers: Vec<Vec<u8>> = (0..7)
                .map(|i| {
                    MessageSet::from_payloads(
                        (0..=i).map(|j| format!("m-{i}-{j}").into_bytes()),
                    )
                    .encode()
                })
                .collect();
            let views: Vec<&[u8]> = buffers.iter().map(|b| b.as_slice()).collect();
            let base = grouped.append_frames_multi(&views).unwrap();
            assert_eq!(base, 0);
            for buffer in &buffers {
                single.append_frames(buffer).unwrap();
            }
            grouped.flush();
            single.flush();
            assert_eq!(grouped.log_end(), single.log_end());
            assert_eq!(grouped.content_fingerprint(), single.content_fingerprint());
            assert_eq!(
                grouped.verify_contiguity().unwrap(),
                single.verify_contiguity().unwrap()
            );
        }
    }

    #[test]
    fn append_frames_multi_empty_group_is_a_no_op() {
        let (log, _) = log_with(LogConfig::default());
        log.append(&msg("x"));
        let end = log.log_end();
        assert_eq!(log.append_frames_multi(&[]).unwrap(), end);
        assert_eq!(log.log_end(), end);
    }

    #[test]
    fn append_frames_multi_rejects_any_torn_buffer_atomically() {
        let (log, _) = log_with(LogConfig::default());
        let good = MessageSet { messages: vec![msg("good")] }.encode();
        let mut torn = MessageSet { messages: vec![msg("torn")] }.encode();
        torn.truncate(torn.len() - 2);
        assert!(log.append_frames_multi(&[&good, &torn]).is_err());
        assert_eq!(log.log_end(), 0, "whole group rejected");
    }

    #[test]
    fn append_frames_rejects_torn_input_without_mutating() {
        let (log, _) = log_with(LogConfig::default());
        let mut frames = MessageSet { messages: vec![msg("whole")] }.encode();
        frames.truncate(frames.len() - 2);
        assert!(log.append_frames(&frames).is_err());
        assert_eq!(log.log_end(), 0);
    }

    #[test]
    fn fetched_chunks_alias_segment_memory() {
        // The zero-copy proof at the log layer: the Bytes handed to a
        // reader share the frozen chunk's allocation with a later read of
        // the same range — no copy was made for either.
        let (log, _) = log_with(LogConfig::default());
        for i in 0..8 {
            log.append(&msg(&format!("payload-{i}")));
        }
        let (first, _) = log.read_chunks(0, usize::MAX).unwrap();
        let (again, _) = log.read_chunks(0, usize::MAX).unwrap();
        assert!(!first.is_empty());
        for (a, b) in first.iter().zip(again.iter()) {
            assert!(a.data.shares_allocation(&b.data));
        }
        // Lazily decoded payloads alias the chunk too.
        for chunk in &first {
            for item in chunk {
                let (_, message) = item.unwrap();
                assert!(message.payload.shares_allocation(&chunk.data));
            }
        }
    }

    #[test]
    fn chunk_reads_resume_mid_chunk_and_trim_to_budget() {
        let (log, _) = log_with(LogConfig::default());
        let mut offsets = Vec::new();
        for i in 0..20 {
            offsets.push(log.append(&msg(&format!("event-{i}"))));
        }
        // Resume from each message boundary: whole frames are served while
        // the budget is not yet spent (so at least one), and `next` is
        // where the last served frame ends.
        for (first, &offset) in offsets.iter().enumerate() {
            for max_bytes in [1usize, 33, 100, usize::MAX] {
                let (messages, next) = read(&log, offset, max_bytes).unwrap();
                let mut used = 0usize;
                let mut want = Vec::new();
                for (i, &at) in offsets.iter().enumerate().skip(first) {
                    if used >= max_bytes {
                        break;
                    }
                    let message = msg(&format!("event-{i}"));
                    used += message.framed_len();
                    want.push((at, message));
                }
                assert_eq!(messages, want);
                assert_eq!(next, offset + used as u64);
            }
        }
    }

    #[test]
    fn wait_for_data_blocks_until_flush() {
        let (log, _) = log_with(LogConfig {
            flush_interval_messages: 1,
            ..LogConfig::default()
        });
        assert!(!log.wait_for_data(0, Duration::from_millis(10)), "times out");
        let log = Arc::new(log);
        let waiter = {
            let log = log.clone();
            std::thread::spawn(move || log.wait_for_data(0, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        log.append(&msg("wake up"));
        assert!(waiter.join().unwrap());
    }
}
