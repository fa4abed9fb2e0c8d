//! Property tests for the group-commit ingest path (C-26's invariants).
//!
//! The tentpole claim: routing produce through the per-partition
//! [`GroupQueue`] changes *how often* the partition lock is taken, never
//! *what lands in the log*. Under random producer counts, batch splits,
//! and key distributions, the grouped path must be byte-identical to
//! appending the same frame buffers one by one to a bare `PartitionLog` —
//! same `content_fingerprint`, same offsets. A second property drives
//! real concurrent producer threads and checks conservation, contiguity,
//! and per-thread FIFO order.
//!
//! Case count defaults to 24; CI raises it with `PROPTEST_CASES=64`.

use li_commons::sim::SimClock;
use li_kafka::log::{LogConfig, PartitionLog};
use li_kafka::message::MessageSet;
use li_kafka::{AckMode, KafkaCluster};
use proptest::prelude::*;
use std::sync::Arc;

fn cluster_with(config: &LogConfig, partitions: u32) -> Arc<KafkaCluster> {
    let cluster = KafkaCluster::with_parts(1, config.clone(), Arc::new(SimClock::new())).unwrap();
    cluster.create_topic("ingest", partitions).unwrap();
    cluster
}

/// One producer-visible batch: which partition it targets and the
/// payloads it carries (already split the way the producer would split).
#[derive(Debug, Clone)]
struct SendBatch {
    partition: u32,
    payloads: Vec<Vec<u8>>,
}

fn batches_strategy(partitions: u32) -> impl Strategy<Value = Vec<SendBatch>> {
    proptest::collection::vec(
        (
            0..partitions,
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 1..12),
        )
            .prop_map(|(partition, payloads)| SendBatch { partition, payloads }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grouped produce ≡ sequential appends, byte for byte. The same
    /// random batch sequence is replayed against bare partition logs
    /// (`PartitionLog::append_frames`, one buffer at a time) and a
    /// single-broker cluster's grouped path, and every partition must end
    /// with identical `log_end`, `content_fingerprint`, and per-batch
    /// base offsets.
    #[test]
    fn prop_grouped_produce_matches_sequential_bytes_and_offsets(
        partitions in 1u32..5,
        flush_every in 1u64..5,
        segment_bytes in prop_oneof![Just(1usize << 20), 128usize..1024],
        batches in (1u32..5).prop_flat_map(batches_strategy),
    ) {
        let config = LogConfig {
            flush_interval_messages: flush_every,
            flush_interval: std::time::Duration::from_secs(3600),
            segment_bytes,
            ..LogConfig::default()
        };
        let bare: Vec<PartitionLog> = (0..partitions)
            .map(|_| PartitionLog::new(config.clone(), Arc::new(SimClock::new())))
            .collect();
        let grouped = cluster_with(&config, partitions);

        for batch in &batches {
            let partition = batch.partition % partitions;
            let set = MessageSet::from_payloads(batch.payloads.clone());
            let frames = set.encode();
            let messages = set.messages.len() as u64;
            let payload_bytes = set.payload_bytes();

            let bare_offset = bare[partition as usize].append_frames(&frames).unwrap();
            let receipt = grouped
                .broker_for("ingest", partition).unwrap()
                .produce_frames_grouped(
                    "ingest", partition, frames, messages, payload_bytes,
                    AckMode::Leader,
                )
                .unwrap();
            // Leader ack always reports the append offset — and it matches
            // the sequential append exactly (single-threaded, so the
            // grouped drainer commits inline in arrival order).
            prop_assert_eq!(receipt.base_offset, Some(bare_offset));
        }

        bare.iter().for_each(PartitionLog::flush);
        grouped.flush_all();
        for p in 0..partitions {
            let bare_log = &bare[p as usize];
            let log = grouped.broker_for("ingest", p).unwrap().log("ingest", p).unwrap();
            prop_assert_eq!(log.log_end(), bare_log.log_end(), "partition {}", p);
            prop_assert_eq!(
                log.content_fingerprint(),
                bare_log.content_fingerprint(),
                "grouped path diverged on partition {}", p
            );
            prop_assert!(log.verify_contiguity().is_ok());
        }
    }

    /// Real concurrent producers against the grouped path: no
    /// message lost or duplicated, the log stays contiguous, and each
    /// thread's sends land in its own send order within each partition
    /// (admission order is commit order — the queue is FIFO).
    #[test]
    fn prop_concurrent_grouped_produce_conserves_and_orders(
        threads in 1usize..6,
        per_thread in 1usize..30,
        partitions in 1u32..4,
        ack_seed in any::<u8>(),
    ) {
        let config = LogConfig {
            flush_interval_messages: 1,
            flush_interval: std::time::Duration::from_secs(3600),
            ..LogConfig::default()
        };
        let cluster = cluster_with(&config, partitions);
        let acks = [AckMode::Leader, AckMode::FullIsr, AckMode::None];

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cluster = cluster.clone();
                std::thread::spawn(move || {
                    let mut offsets: Vec<(u32, u64)> = Vec::new();
                    for seq in 0..per_thread {
                        let partition = ((t + seq) as u32) % partitions;
                        let set = MessageSet::from_payloads([format!("t{t}-s{seq}")]);
                        let frames = set.encode();
                        let payload_bytes = set.payload_bytes();
                        let ack = acks[(ack_seed as usize + t + seq) % acks.len()];
                        let receipt = cluster
                            .broker_for("ingest", partition).unwrap()
                            .produce_frames_grouped(
                                "ingest", partition, frames, 1, payload_bytes, ack,
                            )
                            .unwrap();
                        prop_assert_eq!(receipt.base_offset.is_none(), ack == AckMode::None);
                        if let Some(offset) = receipt.base_offset {
                            offsets.push((partition, offset));
                        }
                    }
                    Ok(offsets)
                })
            })
            .collect();
        let mut acked: Vec<Vec<(u32, u64)>> = Vec::new();
        for handle in handles {
            acked.push(handle.join().unwrap()?);
        }

        cluster.flush_all();
        let mut landed = 0usize;
        let mut per_thread_seen: Vec<Vec<Vec<usize>>> =
            vec![vec![Vec::new(); partitions as usize]; threads];
        for p in 0..partitions {
            let log = cluster.broker_for("ingest", p).unwrap().log("ingest", p).unwrap();
            prop_assert!(log.verify_contiguity().is_ok());
            let (chunks, _) = log.read_chunks(0, usize::MAX).unwrap();
            for item in chunks.iter().flatten() {
                let (_, message) = item.unwrap();
                landed += 1;
                let text = String::from_utf8(message.payload.to_vec()).unwrap();
                let (t, s) = text[1..].split_once("-s").unwrap();
                per_thread_seen[t.parse::<usize>().unwrap()][p as usize]
                    .push(s.parse::<usize>().unwrap());
            }
        }
        // Conservation: every send landed exactly once.
        prop_assert_eq!(landed, threads * per_thread);
        // Per-thread FIFO within each partition.
        for rows in &per_thread_seen {
            for seqs in rows {
                prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
            }
        }
        // Acked offsets per thread+partition strictly increase too.
        for offsets in &acked {
            for p in 0..partitions {
                let mine: Vec<u64> = offsets
                    .iter()
                    .filter(|(part, _)| *part == p)
                    .map(|(_, o)| *o)
                    .collect();
                prop_assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
            }
        }
    }
}
