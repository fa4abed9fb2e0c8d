//! Property tests for online partition migration (DESIGN.md "online
//! resharding"): moving a partition through the phased coordinator —
//! snapshot → delta catch-up → dual-write + shadow verification → atomic
//! cutover — is a pure placement change. For any seeded write/delete
//! stream interleaved with migration steps at arbitrary points (so the
//! cutover lands at a random position in the traffic), the migrated
//! cluster must end byte-identical (`state_fingerprint`) to a
//! never-migrated twin that saw the same traffic, with zero acked-write
//! loss across the flip and zero shadow-verification refusals.
//!
//! Case count defaults to 24; CI raises it with `PROPTEST_CASES=64`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use li_commons::clock::VectorClock;
use li_commons::migrate::{MigrationConfig, MigrationCoordinator, MigrationPhase};
use li_commons::ring::{NodeId, PartitionId};
use li_voldemort::migrate::ADMIN_NODE;
use li_voldemort::{StoreClient, StoreDef, VoldemortCluster};
use proptest::prelude::*;

const NODES: u16 = 5;
const PARTITIONS: u32 = 16;
/// Key space wide enough that some keys move with the partition and some
/// don't (the ack hook must be a no-op for unaffected keys).
const KEYS: u8 = 48;

/// One step of the interleaved program: live traffic or one unit of
/// migration work. `Step` placement is what randomizes the cutover point
/// relative to the write stream.
#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, tag: u16 },
    Delete { key: u8 },
    Step,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..KEYS, any::<u16>()).prop_map(|(key, tag)| Op::Put { key, tag }),
        (0u8..KEYS).prop_map(|key| Op::Delete { key }),
        Just(Op::Step),
        Just(Op::Step),
    ]
}

/// Put-only variant for the abort property: an aborted attempt leaves
/// already-copied versions on the target, which is safe for re-migration
/// only while every residue version stays an ancestor of the live image
/// (deletes break that — see `abort_leaves_no_trace_and_is_restartable`).
fn arb_put() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..KEYS, any::<u16>()).prop_map(|(key, tag)| Op::Put { key, tag }),
        Just(Op::Step),
        Just(Op::Step),
    ]
}

fn cluster() -> Arc<VoldemortCluster> {
    let cluster = VoldemortCluster::new(PARTITIONS, NODES).unwrap();
    cluster
        .add_store(StoreDef::read_write("s").with_quorum(3, 2, 2))
        .unwrap();
    cluster
}

/// Applies one traffic op and records the latest acked state per key
/// (`Some(value, clock)` after a put, `None` after a delete). The same
/// op applied to the twin keeps both histories identical; clocks differ
/// between clusters (coordinator stamping depends on routing history),
/// which is exactly why `state_fingerprint` hashes values only.
fn apply(
    client: &StoreClient,
    op: &Op,
    latest: Option<&mut BTreeMap<String, Option<(Bytes, VectorClock)>>>,
) {
    match op {
        Op::Put { key, tag } => {
            let k = format!("k{key}");
            let value = Bytes::from(format!("v-{key}-{tag}"));
            let clock = client
                .apply_update(k.as_bytes(), 5, &|_| Some(value.clone()))
                .unwrap();
            if let Some(latest) = latest {
                latest.insert(k, Some((value, clock)));
            }
        }
        Op::Delete { key } => {
            let k = format!("k{key}");
            let siblings = client.get(k.as_bytes()).unwrap();
            if siblings.is_empty() {
                return;
            }
            let clock = siblings
                .iter()
                .fold(VectorClock::default(), |acc, s| acc.merged(&s.clock));
            client.delete(k.as_bytes(), &clock).unwrap();
            if let Some(latest) = latest {
                latest.insert(k, None);
            }
        }
        Op::Step => {}
    }
}

/// Zero acked-write loss: every key's latest acked put is still served
/// (covered by a surviving version that descends the ack's clock, with
/// the acked bytes), and every acked delete stayed deleted.
fn assert_no_acked_loss(
    client: &StoreClient,
    latest: &BTreeMap<String, Option<(Bytes, VectorClock)>>,
) -> Result<(), TestCaseError> {
    for (key, state) in latest {
        let siblings = client.get(key.as_bytes()).unwrap();
        match state {
            Some((value, clock)) => {
                prop_assert!(
                    siblings.iter().any(|v| v.clock.descends_from(clock)),
                    "acked write to `{}` not covered by any surviving version",
                    key
                );
                prop_assert!(
                    siblings.iter().any(|v| v.value == *value),
                    "acked bytes for `{}` no longer served",
                    key
                );
            }
            None => prop_assert!(
                siblings.is_empty(),
                "deleted key `{}` resurrected with {} versions",
                key,
                siblings.len()
            ),
        }
    }
    Ok(())
}

fn assert_flipped_once(
    cluster: &VoldemortCluster,
    partition: PartitionId,
    to: NodeId,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(cluster.ring().owner_of(partition), to);
    prop_assert!(cluster.migration_in_flight().is_none());
    let snapshot = cluster.metrics().snapshot();
    prop_assert_eq!(snapshot.counter("migration.cutover_flips"), Some(1));
    prop_assert_eq!(snapshot.counter("migration.cutover_refusals"), Some(0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The equivalence contract itself: random traffic interleaved with
    /// migration steps at random points (so snapshot, delta rounds,
    /// dual-write, and the cutover each land at arbitrary positions in
    /// the write stream) ends byte-identical to a never-migrated twin,
    /// with every acked write surviving the flip.
    #[test]
    fn migrated_state_is_byte_identical_to_never_migrated_twin(
        ops in proptest::collection::vec(arb_op(), 1..80),
        partition in 0u32..PARTITIONS,
        target_offset in 1u16..NODES,
        preload in 1u8..32,
    ) {
        let migrated = cluster();
        let twin = cluster();
        let mclient = migrated.client("s").unwrap();
        let tclient = twin.client("s").unwrap();
        let mut latest = BTreeMap::new();

        // Preload so the snapshot phase has an image to bulk-copy.
        for i in 0..preload {
            let op = Op::Put { key: i % KEYS, tag: u16::MAX };
            apply(&mclient, &op, Some(&mut latest));
            apply(&tclient, &op, None);
        }

        let partition = PartitionId(partition);
        let donor = migrated.ring().owner_of(partition);
        let to = NodeId((donor.0 + target_offset) % NODES);
        let driver = migrated
            .begin_partition_migration(partition, to)
            .unwrap()
            .expect("offset in 1..NODES never picks the donor");
        let coordinator = MigrationCoordinator::new(
            migrated.metrics(),
            MigrationConfig { verify_retries: 10_000, ..MigrationConfig::default() },
        );

        for op in &ops {
            if matches!(op, Op::Step) {
                if coordinator.phase() != MigrationPhase::Done {
                    // No faults in this property: every step must advance.
                    prop_assert!(coordinator.step(&driver).is_ok());
                }
            } else {
                apply(&mclient, op, Some(&mut latest));
                apply(&tclient, op, None);
            }
        }
        if coordinator.phase() != MigrationPhase::Done {
            coordinator.run(&driver, 10_000).unwrap();
        }

        assert_flipped_once(&migrated, partition, to)?;
        assert_no_acked_loss(&mclient, &latest)?;
        prop_assert_eq!(
            migrated.state_fingerprint(),
            twin.state_fingerprint(),
            "migrated cluster diverged from the never-migrated twin"
        );
    }

    /// Random fault timings against the migration machinery: admin-link
    /// blocks between the migration service and the donor/target make
    /// whole phases fail at arbitrary points (a failed phase is retried,
    /// never half-applied). Client traffic rides different links, so the
    /// twin equivalence must still hold exactly, the flip must still
    /// happen exactly once after healing, and transient divergence while
    /// faulted must never be misread as corruption (zero refusals).
    #[test]
    fn faulted_phases_retry_without_losing_equivalence(
        ops in proptest::collection::vec(
            prop_oneof![
                arb_op().prop_map(FaultedOp::Traffic),
                arb_op().prop_map(FaultedOp::Traffic),
                Just(FaultedOp::BlockDonor),
                Just(FaultedOp::BlockTarget),
                Just(FaultedOp::Heal),
            ],
            1..80,
        ),
        partition in 0u32..PARTITIONS,
        target_offset in 1u16..NODES,
        preload in 1u8..32,
    ) {
        let migrated = cluster();
        let twin = cluster();
        let mclient = migrated.client("s").unwrap();
        let tclient = twin.client("s").unwrap();
        let mut latest = BTreeMap::new();

        for i in 0..preload {
            let op = Op::Put { key: i % KEYS, tag: u16::MAX };
            apply(&mclient, &op, Some(&mut latest));
            apply(&tclient, &op, None);
        }

        let partition = PartitionId(partition);
        let donor = migrated.ring().owner_of(partition);
        let to = NodeId((donor.0 + target_offset) % NODES);
        let driver = migrated
            .begin_partition_migration(partition, to)
            .unwrap()
            .expect("offset in 1..NODES never picks the donor");
        let coordinator = MigrationCoordinator::new(
            migrated.metrics(),
            MigrationConfig { verify_retries: 10_000, ..MigrationConfig::default() },
        );

        let mut faulted_steps = 0u32;
        for op in &ops {
            match op {
                FaultedOp::Traffic(Op::Step) => {
                    if coordinator.phase() != MigrationPhase::Done
                        && coordinator.step(&driver).is_err()
                    {
                        // Phase unchanged; the same step retries later.
                        faulted_steps += 1;
                    }
                }
                FaultedOp::Traffic(op) => {
                    apply(&mclient, op, Some(&mut latest));
                    apply(&tclient, op, None);
                }
                FaultedOp::BlockDonor => migrated.network().block_link(ADMIN_NODE, donor),
                FaultedOp::BlockTarget => migrated.network().block_link(ADMIN_NODE, to),
                FaultedOp::Heal => {
                    migrated.network().unblock_link(ADMIN_NODE, donor);
                    migrated.network().unblock_link(ADMIN_NODE, to);
                }
            }
        }
        // Heal and finish: every faulted step must have left the machine
        // in a retryable state.
        migrated.network().unblock_link(ADMIN_NODE, donor);
        migrated.network().unblock_link(ADMIN_NODE, to);
        if coordinator.phase() != MigrationPhase::Done {
            coordinator.run(&driver, 10_000).unwrap();
        }
        // (faulted_steps is workload-dependent; it only matters that any
        // such step was absorbed, which completion itself proves.)
        let _ = faulted_steps;

        assert_flipped_once(&migrated, partition, to)?;
        assert_no_acked_loss(&mclient, &latest)?;
        prop_assert_eq!(
            migrated.state_fingerprint(),
            twin.state_fingerprint(),
            "faulted migration diverged from the never-migrated twin"
        );
    }

    /// Aborting mid-migration at a random point is invisible: the donor
    /// stays authoritative and the cluster stays byte-identical to the
    /// twin. A fresh migration of the same partition to the same target
    /// then completes over the aborted attempt's residue (put-only
    /// traffic keeps every residue version an ancestor of the live
    /// image, so the snapshot's idempotent re-copy converges).
    #[test]
    fn abort_leaves_no_trace_and_is_restartable(
        ops in proptest::collection::vec(arb_put(), 1..60),
        cut in 0usize..60,
        partition in 0u32..PARTITIONS,
        target_offset in 1u16..NODES,
        preload in 1u8..32,
    ) {
        let migrated = cluster();
        let twin = cluster();
        let mclient = migrated.client("s").unwrap();
        let tclient = twin.client("s").unwrap();
        let mut latest = BTreeMap::new();

        for i in 0..preload {
            let op = Op::Put { key: i % KEYS, tag: u16::MAX };
            apply(&mclient, &op, Some(&mut latest));
            apply(&tclient, &op, None);
        }

        let partition = PartitionId(partition);
        let donor = migrated.ring().owner_of(partition);
        let to = NodeId((donor.0 + target_offset) % NODES);
        let driver = migrated
            .begin_partition_migration(partition, to)
            .unwrap()
            .expect("offset in 1..NODES never picks the donor");
        let coordinator = MigrationCoordinator::new(
            migrated.metrics(),
            MigrationConfig { verify_retries: 10_000, ..MigrationConfig::default() },
        );

        let cut = cut.min(ops.len());
        let mut flipped_before_abort = false;
        for op in &ops[..cut] {
            if matches!(op, Op::Step) {
                if coordinator.phase() != MigrationPhase::Done {
                    prop_assert!(coordinator.step(&driver).is_ok());
                }
            } else {
                apply(&mclient, op, Some(&mut latest));
                apply(&tclient, op, None);
            }
        }
        if coordinator.phase() == MigrationPhase::Done {
            // The random cut landed after completion; nothing to abort —
            // the first property already covers this shape, so just
            // check final equivalence below against the flipped owner.
            flipped_before_abort = true;
        } else {
            migrated.abort_migration();
            prop_assert_eq!(migrated.ring().owner_of(partition), donor, "abort must not flip");
            prop_assert!(migrated.migration_in_flight().is_none());
        }

        // Traffic continues after the abort, then a fresh migration runs
        // the whole phased machine over the residue.
        for op in &ops[cut..] {
            if matches!(op, Op::Step) {
                continue;
            }
            apply(&mclient, op, Some(&mut latest));
            apply(&tclient, op, None);
        }
        if !flipped_before_abort {
            migrated.migrate_partition(partition, to).unwrap();
        }

        prop_assert_eq!(migrated.ring().owner_of(partition), to);
        prop_assert!(migrated.migration_in_flight().is_none());
        let snapshot = migrated.metrics().snapshot();
        prop_assert_eq!(snapshot.counter("migration.cutover_flips"), Some(1));
        prop_assert_eq!(snapshot.counter("migration.cutover_refusals"), Some(0));
        assert_no_acked_loss(&mclient, &latest)?;
        prop_assert_eq!(
            migrated.state_fingerprint(),
            twin.state_fingerprint(),
            "abort + re-migration diverged from the never-migrated twin"
        );
    }
}

/// Second-property op: traffic, or a fault against the migration
/// admin's links (client links are never touched, so acks — and the
/// twin comparison — stay exact).
#[derive(Debug, Clone)]
enum FaultedOp {
    Traffic(Op),
    BlockDonor,
    BlockTarget,
    Heal,
}
