//! Property tests for the sharded serving runtime (DESIGN.md "serving
//! runtime"): striping row locks over multiple stripes is a pure
//! concurrency optimization. For any seeded workload the striped database
//! must equal a plain map of the same program — same values, same etags,
//! a dense SCN sequence, and a binlog that recovers to the byte-identical
//! state fingerprint (which hashes full row images including etags and
//! timestamps) — and an instance driven by concurrent lanes must end in
//! the same state as the same lanes replayed from one thread.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use li_commons::sim::SimClock;
use li_sqlstore::{Database, RowKey};
use proptest::prelude::*;

/// One randomly generated workload operation against a keyed row space
/// wide enough (64 keys) that stripes actually share and split keys.
#[derive(Debug, Clone)]
enum WorkloadOp {
    Put { key: u8, value: Vec<u8> },
    Delete { key: u8 },
    Multi { keys: Vec<u8> },
}

fn arb_op() -> impl Strategy<Value = WorkloadOp> {
    prop_oneof![
        (0u8..64, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(key, value)| WorkloadOp::Put { key, value }),
        (0u8..64).prop_map(|key| WorkloadOp::Delete { key }),
        proptest::collection::vec(0u8..64, 1..5).prop_map(|keys| WorkloadOp::Multi { keys }),
    ]
}

fn db() -> Database {
    let db = Database::with_clock("props", Arc::new(SimClock::new()));
    db.create_table("t").unwrap();
    db
}

/// Applies the ops in program order, one transaction each.
fn apply(db: &Database, ops: &[WorkloadOp]) {
    for (i, op) in ops.iter().enumerate() {
        let mut txn = db.begin();
        match op {
            WorkloadOp::Put { key, value } => {
                txn.put("t", RowKey::new([format!("k{key}")]), Bytes::from(value.clone()), 1);
            }
            WorkloadOp::Delete { key } => {
                txn.delete("t", RowKey::new([format!("k{key}")]));
            }
            WorkloadOp::Multi { keys } => {
                for key in keys {
                    txn.put(
                        "t",
                        RowKey::new([format!("k{key}")]),
                        Bytes::from(format!("multi-{i}")),
                        1,
                    );
                }
            }
        }
        db.commit(txn).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stripe layout must be invisible to every observer — replication,
    /// recovery and chaos trace comparison all ride on this: the striped
    /// database holds exactly what a map fed the same program holds (the
    /// etag being the SCN of a row's last write), assigns one dense SCN
    /// per commit, and its binlog recovers to the identical fingerprint.
    #[test]
    fn striped_database_matches_a_map_and_recovers_from_its_binlog(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let sharded = db();
        apply(&sharded, &ops);

        // key -> (value, SCN of the commit that wrote it).
        let mut model: BTreeMap<u8, (Vec<u8>, u64)> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            let scn = i as u64 + 1;
            match op {
                WorkloadOp::Put { key, value } => {
                    model.insert(*key, (value.clone(), scn));
                }
                WorkloadOp::Delete { key } => {
                    model.remove(key);
                }
                WorkloadOp::Multi { keys } => {
                    for key in keys {
                        model.insert(*key, (format!("multi-{i}").into_bytes(), scn));
                    }
                }
            }
        }
        for key in 0u8..64 {
            let got = sharded
                .get("t", &RowKey::new([format!("k{key}")]))
                .unwrap()
                .map(|row| (row.value.to_vec(), row.etag));
            prop_assert_eq!(got.as_ref(), model.get(&key), "key k{} diverged", key);
        }
        prop_assert_eq!(sharded.row_count("t").unwrap(), model.len());

        // One dense SCN per commit, deletes of absent rows included.
        let scns: Vec<u64> = sharded.binlog_after(0).iter().map(|e| e.scn).collect();
        prop_assert_eq!(scns, (1..=ops.len() as u64).collect::<Vec<_>>());
        prop_assert_eq!(sharded.last_scn(), ops.len() as u64);

        sharded.verify_replay_equivalence().map_err(TestCaseError::fail)?;
    }

    /// Concurrent lanes over disjoint key ranges: a database driven by
    /// one thread per lane ends in exactly the state of a replay of the
    /// lanes from one thread — SCNs stay dense (no commit lost or
    /// double-assigned under striped locking) and replaying the
    /// concurrent binlog reproduces the concurrent state.
    #[test]
    fn concurrent_disjoint_lanes_match_serial_replay(
        lanes in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..16, proptest::collection::vec(any::<u8>(), 0..12)),
                1..12,
            ),
            2..5,
        ),
    ) {
        // Lane l owns keys l*16..(l+1)*16 — no cross-lane row contention,
        // so final state is independent of commit interleaving.
        let keyed: Vec<Vec<(String, Vec<u8>)>> = lanes
            .iter()
            .enumerate()
            .map(|(l, lane)| {
                lane.iter()
                    .map(|(k, v)| (format!("k{}", l * 16 + *k as usize), v.clone()))
                    .collect()
            })
            .collect();
        let total: u64 = keyed.iter().map(|lane| lane.len() as u64).sum();

        let concurrent = Arc::new(db());
        let handles: Vec<_> = keyed
            .iter()
            .cloned()
            .map(|lane| {
                let db = Arc::clone(&concurrent);
                std::thread::spawn(move || {
                    for (key, value) in lane {
                        let mut txn = db.begin();
                        txn.put("t", RowKey::new([key]), Bytes::from(value), 1);
                        db.commit(txn).unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let serial = db();
        for lane in &keyed {
            for (key, value) in lane {
                let mut txn = serial.begin();
                txn.put("t", RowKey::new([key.clone()]), Bytes::from(value.clone()), 1);
                serial.commit(txn).unwrap();
            }
        }

        // Dense SCNs: every commit got exactly one slot.
        prop_assert_eq!(concurrent.last_scn(), total);
        let scns: Vec<u64> = concurrent.binlog_after(0).iter().map(|e| e.scn).collect();
        prop_assert_eq!(scns, (1..=total).collect::<Vec<_>>());
        // Per-key program order is lane-internal, so every key's final
        // *value* matches the serial replay. (Etags are SCNs and SCN
        // assignment across lanes is interleaving-dependent, so whole-row
        // fingerprints are only compared in the property above.)
        for lane in &keyed {
            for (key, _) in lane {
                let got = concurrent
                    .get("t", &RowKey::new([key.clone()]))
                    .unwrap()
                    .map(|row| row.value.clone());
                let want = serial
                    .get("t", &RowKey::new([key.clone()]))
                    .unwrap()
                    .map(|row| row.value.clone());
                prop_assert_eq!(got, want, "key {} diverged", key);
            }
        }
        // And the concurrent binlog replays to the concurrent state.
        concurrent.verify_replay_equivalence().unwrap();
    }
}
