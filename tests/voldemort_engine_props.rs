//! Property tests on the log of Voldemort's BDB-like engine: a log that
//! carries appends as suffix records must replay to what a log of whole
//! values replays to, and both to what an engine without a log holds.
//!
//! A case is a random sequence, over three keys and three writers, of
//! puts whose value extends a version held (the follow-shaped append),
//! cuts one to a prefix or is unrelated, under a clock derived from a
//! version held, from any clock the key has seen (so obsolete, equal and
//! concurrent clocks all occur) or from every sibling at once; of
//! `force_put`s of the same; of deletes at such clocks; and of `compact`s.
//! A [`BdbLikeEngine`] and a [`MemoryEngine`] — the reference — are fed the
//! same ops, and an in-test encoder writes the accepted ones as whole-value
//! frames. Then:
//!
//! * live `entries()` equal the reference's after every op, and every
//!   outcome (`ObsoleteVersion`, what a delete removed) agrees;
//! * `recover(log_bytes())` equals live at the end and after every
//!   `compact`;
//! * the whole-value log recovers to the same entries;
//! * without compaction, the log cut at any byte recovers to the reference
//!   as it stood after the last op whose frame fits inside the cut, and the
//!   recovered log ends at that frame.
//!
//! Case count: 24 (CI runs 64 with `PROPTEST_CASES=64`).

use bytes::Bytes;
use li_commons::bufio;
use li_commons::clock::{VectorClock, Versioned};
use li_commons::varint;
use li_voldemort::engine::{BdbLikeEngine, MemoryEngine, StorageEngine};
use proptest::prelude::*;
use proptest::sample::Index;

const KEYS: [&[u8]; 3] = [b"member:1", b"company:7", b"k"];

type Entries = Vec<(Bytes, Vec<Versioned<Bytes>>)>;

/// The clock an op starts from, resolved against the key's state when the
/// op runs.
#[derive(Debug, Clone)]
enum Base {
    /// That of a version held (the empty clock when none is).
    Held(Index),
    /// Any clock accepted under the key so far, or the empty clock.
    Seen(Index),
    /// The merge of every version held: what a reconciling writer sends.
    AllHeld,
}

#[derive(Debug, Clone)]
enum Value {
    /// The bytes of a version held, and these after them.
    Extend(Index, Vec<u8>),
    /// The bytes of a version held cut to a prefix, all of them included.
    Prefix(Index, Index),
    Fresh(Vec<u8>),
}

#[derive(Debug, Clone)]
enum Op {
    Put { key: Index, base: Base, writer: u16, value: Value, force: bool },
    Delete { key: Index, at: Base },
    Compact,
}

fn base() -> impl Strategy<Value = Base> {
    prop_oneof![
        any::<Index>().prop_map(Base::Held),
        any::<Index>().prop_map(Base::Seen),
        Just(Base::AllHeld),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    let bytes = |len| proptest::collection::vec(any::<u8>(), len);
    // `prop_oneof!` is uniform: listed twice, half of all puts extend.
    prop_oneof![
        (any::<Index>(), bytes(1..9)).prop_map(|(of, suffix)| Value::Extend(of, suffix)),
        (any::<Index>(), bytes(1..9)).prop_map(|(of, suffix)| Value::Extend(of, suffix)),
        (any::<Index>(), any::<Index>()).prop_map(|(of, cut)| Value::Prefix(of, cut)),
        bytes(0..12).prop_map(Value::Fresh),
    ]
}

/// Six puts in eight, one delete, one compact (or a seventh put).
fn op(compacts: bool) -> impl Strategy<Value = Op> {
    (0..8u8, any::<Index>(), base(), 1..4u16, value(), any::<bool>()).prop_map(
        move |(kind, key, base, writer, value, force)| match kind {
            0 => Op::Delete { key, at: base },
            1 if compacts => Op::Compact,
            _ => Op::Put { key, base, writer, value, force },
        },
    )
}

fn resolve(base: &Base, held: &[Versioned<Bytes>], seen: &[VectorClock]) -> VectorClock {
    match base {
        Base::Held(_) if held.is_empty() => VectorClock::new(),
        Base::Held(of) => held[of.index(held.len())].clock.clone(),
        Base::Seen(of) => seen[of.index(seen.len())].clone(),
        Base::AllHeld => held
            .iter()
            .fold(VectorClock::new(), |acc, v| acc.merged(&v.clock)),
    }
}

fn bytes_of(value: &Value, held: &[Versioned<Bytes>]) -> Bytes {
    let of = |of: &Index| match held {
        [] => &[][..],
        held => &held[of.index(held.len())].value[..],
    };
    match value {
        Value::Extend(base, suffix) => [of(base), suffix].concat().into(),
        Value::Prefix(base, cut) => {
            let whole = of(base);
            Bytes::copy_from_slice(&whole[..cut.index(whole.len() + 1)])
        }
        Value::Fresh(bytes) => Bytes::copy_from_slice(bytes),
    }
}

/// The whole-value log's encoder: the engine's `OP_PUT` and `OP_DELETE`
/// records, written from outside it.
fn frame_put(log: &mut Vec<u8>, key: &[u8], version: &Versioned<Bytes>) {
    bufio::write_frame_with(log, |out| {
        out.push(0);
        varint::write_bytes(out, key);
        version.clock.encode(out);
        varint::write_bytes(out, &version.value);
    });
}

fn frame_delete(log: &mut Vec<u8>, key: &[u8], clock: &VectorClock) {
    bufio::write_frame_with(log, |out| {
        out.push(1);
        varint::write_bytes(out, key);
        clock.encode(out);
    });
}

/// What a run leaves behind for the end-of-case checks.
struct Run {
    engine: BdbLikeEngine,
    reference: MemoryEngine,
    whole_value_log: Vec<u8>,
    /// After each op: where the engine's log ended and what the reference
    /// held.
    history: Vec<(usize, Entries)>,
}

fn run(ops: &[Op]) -> Result<Run, TestCaseError> {
    let (engine, reference) = (BdbLikeEngine::new(), MemoryEngine::new());
    let mut whole_value_log = Vec::new();
    let mut seen = vec![vec![VectorClock::new()]; KEYS.len()];
    let mut history = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Put { key, base, writer, value, force } => {
                let at = key.index(KEYS.len());
                let held = reference.get(KEYS[at]).unwrap();
                let clock = resolve(base, &held, &seen[at]).incremented(*writer);
                let version = Versioned::new(clock, bytes_of(value, &held));
                let outcome = reference.put(KEYS[at], version.clone());
                if *force {
                    prop_assert_eq!(engine.force_put(KEYS[at], version.clone()), Ok(()));
                } else {
                    prop_assert_eq!(engine.put(KEYS[at], version.clone()), outcome);
                }
                if outcome.is_ok() {
                    frame_put(&mut whole_value_log, KEYS[at], &version);
                    seen[at].push(version.clock);
                }
            }
            Op::Delete { key, at: clock } => {
                let at = key.index(KEYS.len());
                let clock = resolve(clock, &reference.get(KEYS[at]).unwrap(), &seen[at]);
                let removed = reference.delete(KEYS[at], &clock).unwrap();
                prop_assert_eq!(engine.delete(KEYS[at], &clock), Ok(removed));
                if removed {
                    frame_delete(&mut whole_value_log, KEYS[at], &clock);
                }
            }
            Op::Compact => {
                engine.compact();
                let recovered = BdbLikeEngine::recover(&engine.log_bytes());
                prop_assert_eq!(recovered.entries(), reference.entries(), "compacted log");
            }
        }
        prop_assert_eq!(engine.entries(), reference.entries(), "live, after {:?}", op);
        history.push((engine.log_len(), reference.entries()));
    }
    Ok(Run { engine, reference, whole_value_log, history })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn suffix_log_replay_equals_whole_value_replay_equals_the_reference(
        ops in proptest::collection::vec(op(true), 1..64),
    ) {
        let run = run(&ops)?;
        let live = run.reference.entries();
        let replayed = BdbLikeEngine::recover(&run.engine.log_bytes());
        prop_assert_eq!(replayed.entries(), live, "the engine's own log");
        prop_assert_eq!(replayed.log_len(), run.engine.log_len(), "all of it replays");
        let whole = BdbLikeEngine::recover(&run.whole_value_log);
        prop_assert_eq!(whole.entries(), live, "the whole-value log");
    }

    #[test]
    fn a_log_cut_at_any_byte_recovers_to_the_last_whole_frame(
        ops in proptest::collection::vec(op(false), 1..64),
        cuts in proptest::collection::vec(any::<Index>(), 8..9),
    ) {
        let run = run(&ops)?;
        let log = run.engine.log_bytes();
        for cut in cuts {
            let cut = cut.index(log.len() + 1);
            let (end, expected) = run
                .history
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut)
                .cloned()
                .unwrap_or_default();
            let recovered = BdbLikeEngine::recover(&log[..cut]);
            prop_assert_eq!(recovered.entries(), expected, "cut at {} of {}", cut, log.len());
            prop_assert_eq!(recovered.log_len(), end, "cut at {} of {}", cut, log.len());
        }
    }
}
