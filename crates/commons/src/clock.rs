//! Vector clocks and versioned values.
//!
//! Voldemort "uses vector clocks \[LAM78\] to version our tuples and delegate
//! conflict resolution of concurrent versions to the application"
//! (paper §II.B). Any replica can accept a write, so divergent version
//! histories can form during failures or partitions; the vector clock's
//! partial order is what lets the system tell *stale* apart from
//! *concurrent*. The paper's optimistic-locking behaviour — a put with an
//! already-written clock fails with a special error — is implemented in
//! `li-voldemort` on top of [`Occurred`].

use serde::{get_field, object, DeError, Deserialize, JsonKey, JsonValue, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::varint;
use bytes::Buf;

/// Identifier of the node that performed a write (Voldemort node id).
pub type WriterId = u16;

/// Result of comparing two vector clocks under the happens-before partial
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurred {
    /// `self` happened strictly before the other clock (self is stale).
    Before,
    /// `self` happened strictly after the other clock (self supersedes it).
    After,
    /// The clocks are identical.
    Equal,
    /// Neither dominates: the writes were concurrent and both versions must
    /// be kept as siblings until the application reconciles them.
    Concurrent,
}

/// A vector clock: a map from writer node id to a monotonically increasing
/// counter of writes that node has coordinated for the tuple.
///
/// Stored as a flat array of `(writer, counter)` pairs, sorted by writer
/// with each writer once, so serialization is canonical — two equal clocks
/// always serialize to identical bytes, which Voldemort's read-repair
/// relies on when comparing replica responses. A clock names a handful of
/// writers, so one small array (one allocation, none when empty) holds it
/// more cheaply than a tree, and every stored version carries one.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: Vec<(WriterId, u64)>,
}

impl Serialize for VectorClock {
    fn to_json_value(&self) -> JsonValue {
        let entries = self
            .entries
            .iter()
            .map(|(writer, counter)| (writer.to_key(), counter.to_json_value()))
            .collect();
        object(vec![("entries", JsonValue::Object(entries))])
    }
}

impl Deserialize for VectorClock {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        // Read through a map, so a non-canonical object is made canonical
        // exactly as the map-backed clock made it.
        let map: BTreeMap<WriterId, u64> = get_field(value, "entries")?;
        Ok(VectorClock {
            entries: map.into_iter().collect(),
        })
    }
}

impl VectorClock {
    /// Creates an empty clock (the version of a never-written tuple).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a clock with a single entry, convenient in tests.
    pub fn with(writer: WriterId, counter: u64) -> Self {
        VectorClock {
            entries: vec![(writer, counter)],
        }
    }

    /// The counter slot of `writer`, inserted at zero in writer order when
    /// the clock has none.
    fn slot(&mut self, writer: WriterId) -> &mut u64 {
        let at = match self.entries.binary_search_by_key(&writer, |&(w, _)| w) {
            Ok(at) => at,
            Err(at) => {
                self.entries.insert(at, (writer, 0));
                at
            }
        };
        &mut self.entries[at].1
    }

    /// Records one more write coordinated by `writer`, returning the
    /// incremented clock. The original is untouched so callers can keep the
    /// pre-image for optimistic-lock comparison.
    #[must_use]
    pub fn incremented(&self, writer: WriterId) -> Self {
        let mut next = self.clone();
        next.increment(writer);
        next
    }

    /// Increments this clock in place.
    pub fn increment(&mut self, writer: WriterId) {
        *self.slot(writer) += 1;
    }

    /// Number of distinct writers recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for the clock of a never-written tuple.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compares `self` against `other` under happens-before.
    pub fn compare(&self, other: &VectorClock) -> Occurred {
        let mut self_bigger = false;
        let mut other_bigger = false;
        let mut self_iter = self.entries.iter().peekable();
        let mut other_iter = other.entries.iter().peekable();
        loop {
            match (self_iter.peek(), other_iter.peek()) {
                (None, None) => break,
                (Some(_), None) => {
                    self_bigger = true;
                    break;
                }
                (None, Some(_)) => {
                    other_bigger = true;
                    break;
                }
                (Some((sk, sv)), Some((ok, ov))) => match sk.cmp(ok) {
                    std::cmp::Ordering::Less => {
                        self_bigger = true;
                        self_iter.next();
                    }
                    std::cmp::Ordering::Greater => {
                        other_bigger = true;
                        other_iter.next();
                    }
                    std::cmp::Ordering::Equal => {
                        match sv.cmp(ov) {
                            std::cmp::Ordering::Less => other_bigger = true,
                            std::cmp::Ordering::Greater => self_bigger = true,
                            std::cmp::Ordering::Equal => {}
                        }
                        self_iter.next();
                        other_iter.next();
                    }
                },
            }
            if self_bigger && other_bigger {
                return Occurred::Concurrent;
            }
        }
        match (self_bigger, other_bigger) {
            (true, true) => Occurred::Concurrent,
            (true, false) => Occurred::After,
            (false, true) => Occurred::Before,
            (false, false) => Occurred::Equal,
        }
    }

    /// True when `self` strictly or trivially dominates `other`
    /// (i.e. writing `self` over `other` loses nothing).
    pub fn descends_from(&self, other: &VectorClock) -> bool {
        matches!(self.compare(other), Occurred::After | Occurred::Equal)
    }

    /// Pointwise maximum of the two clocks — used to merge siblings after
    /// the application resolves a conflict, so the merged write dominates
    /// both inputs.
    #[must_use]
    pub fn merged(&self, other: &VectorClock) -> Self {
        let mut merged = self.clone();
        for &(writer, counter) in &other.entries {
            let slot = merged.slot(writer);
            *slot = (*slot).max(counter);
        }
        merged
    }

    /// Serializes the clock to a compact canonical byte form.
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.entries.len() as u64);
        for &(writer, counter) in &self.entries {
            varint::write_u64(out, u64::from(writer));
            varint::write_u64(out, counter);
        }
    }

    /// Decodes a clock produced by [`VectorClock::encode`]. Input that is
    /// not canonical is made so: writers are sorted, and a writer named
    /// twice keeps its last counter.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, varint::VarintError> {
        let n = varint::read_u64(buf)? as usize;
        let mut clock = VectorClock {
            entries: Vec::with_capacity(n.min(16)),
        };
        for _ in 0..n {
            let writer = varint::read_u64(buf)? as WriterId;
            let counter = varint::read_u64(buf)?;
            *clock.slot(writer) = counter;
        }
        Ok(clock)
    }

    /// Iterates over `(writer, counter)` pairs in writer order.
    pub fn iter(&self) -> impl Iterator<Item = (WriterId, u64)> + '_ {
        self.entries.iter().copied()
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (writer, counter)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{writer}:{counter}")?;
        }
        write!(f, "}}")
    }
}

/// A value tagged with the vector clock that versions it — the unit
/// Voldemort's client API traffics in (`VectorClock<V> get(K key)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned<V> {
    /// The version of this value.
    pub clock: VectorClock,
    /// The value payload.
    pub value: V,
}

impl<V: Serialize> Serialize for Versioned<V> {
    fn to_json_value(&self) -> JsonValue {
        object(vec![
            ("clock", self.clock.to_json_value()),
            ("value", self.value.to_json_value()),
        ])
    }
}

impl<V: Deserialize> Deserialize for Versioned<V> {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(Versioned {
            clock: get_field(value, "clock")?,
            value: get_field(value, "value")?,
        })
    }
}

impl<V> Versioned<V> {
    /// Wraps `value` at version `clock`.
    pub fn new(clock: VectorClock, value: V) -> Self {
        Versioned { clock, value }
    }

    /// Wraps `value` at the zero version (first write of a tuple).
    pub fn initial(value: V) -> Self {
        Versioned {
            clock: VectorClock::new(),
            value,
        }
    }

    /// Maps the payload while preserving the version.
    pub fn map<U>(self, f: impl FnOnce(V) -> U) -> Versioned<U> {
        Versioned {
            clock: self.clock,
            value: f(self.value),
        }
    }
}

/// Inserts `candidate` into a sibling set, dropping any versions it
/// supersedes and rejecting it if an existing version supersedes *it*.
///
/// Returns `true` if the candidate was added (it was new or concurrent with
/// everything kept). This is the core maintenance routine for the multi-
/// version storage slots in Voldemort's engines.
pub fn resolve_siblings<V>(siblings: &mut Vec<Versioned<V>>, candidate: Versioned<V>) -> bool {
    let mut obsolete = false;
    siblings.retain(|existing| match existing.clock.compare(&candidate.clock) {
        Occurred::Before => false,
        Occurred::After | Occurred::Equal => {
            obsolete = true;
            true
        }
        Occurred::Concurrent => true,
    });
    if obsolete {
        return false;
    }
    siblings.push(candidate);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_clocks_are_equal() {
        assert_eq!(VectorClock::new().compare(&VectorClock::new()), Occurred::Equal);
    }

    #[test]
    fn increment_dominates_parent() {
        let parent = VectorClock::with(1, 3);
        let child = parent.incremented(1);
        assert_eq!(child.compare(&parent), Occurred::After);
        assert_eq!(parent.compare(&child), Occurred::Before);
        assert!(child.descends_from(&parent));
        assert!(!parent.descends_from(&child));
    }

    #[test]
    fn divergent_writers_are_concurrent() {
        let base = VectorClock::with(1, 1);
        let left = base.incremented(2);
        let right = base.incremented(3);
        assert_eq!(left.compare(&right), Occurred::Concurrent);
        assert_eq!(right.compare(&left), Occurred::Concurrent);
    }

    #[test]
    fn missing_entry_counts_as_zero() {
        let a = VectorClock::with(1, 1);
        let mut b = VectorClock::with(1, 1);
        b.increment(9);
        assert_eq!(a.compare(&b), Occurred::Before);
        assert_eq!(b.compare(&a), Occurred::After);
    }

    #[test]
    fn merge_dominates_both() {
        let base = VectorClock::with(1, 1);
        let left = base.incremented(2);
        let right = base.incremented(3);
        let merged = left.merged(&right);
        assert!(merged.descends_from(&left));
        assert!(merged.descends_from(&right));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut clock = VectorClock::with(3, 7);
        clock.increment(1);
        clock.increment(65_535);
        let mut buf = Vec::new();
        clock.encode(&mut buf);
        let decoded = VectorClock::decode(&mut &buf[..]).unwrap();
        assert_eq!(decoded, clock);
    }

    #[test]
    fn sibling_resolution_keeps_concurrent_drops_stale() {
        let base = VectorClock::with(1, 1);
        let left = base.incremented(2);
        let right = base.incremented(3);

        let mut siblings = vec![Versioned::new(base.clone(), "base")];
        assert!(resolve_siblings(&mut siblings, Versioned::new(left.clone(), "left")));
        // base was superseded by left
        assert_eq!(siblings.len(), 1);
        assert!(resolve_siblings(&mut siblings, Versioned::new(right, "right")));
        // left and right are concurrent siblings
        assert_eq!(siblings.len(), 2);
        // re-putting something stale is rejected
        assert!(!resolve_siblings(&mut siblings, Versioned::new(base, "stale")));
        assert_eq!(siblings.len(), 2);
        // a clock descending from both replaces the whole set
        let winner = left.merged(&siblings[1].clock).incremented(1);
        assert!(resolve_siblings(&mut siblings, Versioned::new(winner, "resolved")));
        assert_eq!(siblings.len(), 1);
        assert_eq!(siblings[0].value, "resolved");
    }

    fn arb_clock() -> impl Strategy<Value = VectorClock> {
        proptest::collection::btree_map(0u16..8, 0u64..16, 0..6).prop_map(|entries| VectorClock {
            entries: entries.into_iter().collect(),
        })
    }

    /// The map-backed clock this one replaced, kept as the reference
    /// model: `incremented`, `merged`, `encode` and the JSON value are the
    /// old code over a `BTreeMap`, and `compare` is happens-before spelled
    /// pointwise over the union of writers.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct ModelClock(BTreeMap<WriterId, u64>);

    impl ModelClock {
        fn incremented(&self, writer: WriterId) -> Self {
            let mut next = self.clone();
            *next.0.entry(writer).or_insert(0) += 1;
            next
        }

        fn merged(&self, other: &ModelClock) -> Self {
            let mut merged = self.clone();
            for (&writer, &counter) in &other.0 {
                let entry = merged.0.entry(writer).or_insert(0);
                *entry = (*entry).max(counter);
            }
            merged
        }

        fn compare(&self, other: &ModelClock) -> Occurred {
            // A writer one side names and the other does not counts for
            // the side naming it, even at counter 0.
            let mut self_bigger = false;
            let mut other_bigger = false;
            let writers: std::collections::BTreeSet<_> =
                self.0.keys().chain(other.0.keys()).collect();
            for writer in writers {
                match (self.0.get(writer), other.0.get(writer)) {
                    (Some(_), None) => self_bigger = true,
                    (None, Some(_)) => other_bigger = true,
                    (Some(a), Some(b)) => {
                        self_bigger |= a > b;
                        other_bigger |= a < b;
                    }
                    (None, None) => unreachable!("writer drawn from one side"),
                }
            }
            match (self_bigger, other_bigger) {
                (true, true) => Occurred::Concurrent,
                (true, false) => Occurred::After,
                (false, true) => Occurred::Before,
                (false, false) => Occurred::Equal,
            }
        }

        fn encode(&self, out: &mut Vec<u8>) {
            varint::write_u64(out, self.0.len() as u64);
            for (&writer, &counter) in &self.0 {
                varint::write_u64(out, u64::from(writer));
                varint::write_u64(out, counter);
            }
        }

        fn to_json_value(&self) -> JsonValue {
            object(vec![("entries", self.0.to_json_value())])
        }
    }

    /// One step of a random history over three clocks.
    #[derive(Debug, Clone)]
    enum ClockOp {
        Increment(usize, WriterId),
        Merge(usize, usize),
    }

    fn arb_history() -> impl Strategy<Value = Vec<ClockOp>> {
        proptest::collection::vec(
            prop_oneof![
                (0usize..3, 0u16..6).prop_map(|(at, writer)| ClockOp::Increment(at, writer)),
                (0usize..3, 0usize..3).prop_map(|(at, from)| ClockOp::Merge(at, from)),
            ],
            0..24,
        )
    }

    /// Checks `clock` against `model` on every observable: entries, the
    /// encoded bytes, the JSON value and its round trip.
    fn assert_matches_model(clock: &VectorClock, model: &ModelClock) -> TestCaseResult {
        let entries: Vec<(WriterId, u64)> = model.0.iter().map(|(&w, &c)| (w, c)).collect();
        prop_assert_eq!(clock.iter().collect::<Vec<_>>(), entries);
        prop_assert_eq!(clock.len(), model.0.len());
        let (mut bytes, mut model_bytes) = (Vec::new(), Vec::new());
        clock.encode(&mut bytes);
        model.encode(&mut model_bytes);
        prop_assert_eq!(&bytes, &model_bytes);
        let json = clock.to_json_value();
        prop_assert_eq!(&json, &model.to_json_value());
        prop_assert_eq!(&VectorClock::from_json_value(&json).unwrap(), clock);
        let text = serde_json::to_string(clock).unwrap();
        prop_assert_eq!(&serde_json::from_str::<VectorClock>(&text).unwrap(), clock);
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_compare_antisymmetric(a in arb_clock(), b in arb_clock()) {
            let ab = a.compare(&b);
            let ba = b.compare(&a);
            let expected = match ab {
                Occurred::Before => Occurred::After,
                Occurred::After => Occurred::Before,
                Occurred::Equal => Occurred::Equal,
                Occurred::Concurrent => Occurred::Concurrent,
            };
            prop_assert_eq!(ba, expected);
        }

        #[test]
        fn prop_equal_iff_same_entries(a in arb_clock(), b in arb_clock()) {
            prop_assert_eq!(a.compare(&b) == Occurred::Equal, a == b);
        }

        #[test]
        fn prop_merge_is_upper_bound(a in arb_clock(), b in arb_clock()) {
            let m = a.merged(&b);
            prop_assert!(m.descends_from(&a));
            prop_assert!(m.descends_from(&b));
        }

        #[test]
        fn prop_increment_strictly_after(a in arb_clock(), w in 0u16..8) {
            prop_assert_eq!(a.incremented(w).compare(&a), Occurred::After);
        }

        #[test]
        fn prop_codec_round_trip(a in arb_clock()) {
            let mut buf = Vec::new();
            a.encode(&mut buf);
            prop_assert_eq!(VectorClock::decode(&mut &buf[..]).unwrap(), a);
        }

        #[test]
        fn prop_transitivity_of_descends(a in arb_clock(), w1 in 0u16..8, w2 in 0u16..8) {
            let b = a.incremented(w1);
            let c = b.incremented(w2);
            prop_assert!(c.descends_from(&a));
        }

        // Merge is a join (least upper bound) on the version lattice: the
        // laws below are what quorum read-repair and apply_update lean on
        // when they fold sibling clocks into a single base clock.

        #[test]
        fn prop_merge_associative(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
            prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        }

        #[test]
        fn prop_merge_commutative(a in arb_clock(), b in arb_clock()) {
            prop_assert_eq!(a.merged(&b), b.merged(&a));
        }

        #[test]
        fn prop_merge_idempotent(a in arb_clock(), b in arb_clock()) {
            let m = a.merged(&b);
            prop_assert_eq!(m.merged(&b), m.clone());
            prop_assert_eq!(m.merged(&a), m);
        }

        #[test]
        fn prop_happens_before_antisymmetric(a in arb_clock(), b in arb_clock()) {
            // Mutual dominance collapses to equality: two distinct clocks
            // can never each descend from the other.
            if a.descends_from(&b) && b.descends_from(&a) {
                prop_assert_eq!(a, b);
            }
        }

        #[test]
        fn prop_concurrent_iff_neither_descends(a in arb_clock(), b in arb_clock()) {
            let concurrent = a.compare(&b) == Occurred::Concurrent;
            prop_assert_eq!(concurrent, !a.descends_from(&b) && !b.descends_from(&a));
        }

        #[test]
        fn prop_matches_map_model_over_random_histories(history in arb_history()) {
            let mut clocks = vec![VectorClock::new(); 3];
            let mut models = vec![ModelClock::default(); 3];
            for op in history {
                match op {
                    ClockOp::Increment(at, writer) => {
                        let next = clocks[at].incremented(writer);
                        let model_next = models[at].incremented(writer);
                        assert_matches_model(&next, &model_next)?;
                        clocks[at].increment(writer);
                        prop_assert_eq!(&clocks[at], &next);
                        models[at] = model_next;
                    }
                    ClockOp::Merge(at, from) => {
                        clocks[at] = clocks[at].merged(&clocks[from]);
                        models[at] = models[at].merged(&models[from]);
                    }
                }
                for (clock, model) in clocks.iter().zip(&models) {
                    assert_matches_model(clock, model)?;
                }
                for a in 0..3 {
                    for b in 0..3 {
                        prop_assert_eq!(clocks[a].compare(&clocks[b]), models[a].compare(&models[b]));
                    }
                }
            }
        }

        #[test]
        fn prop_decode_canonicalizes_like_map_insert(
            raw in proptest::collection::vec((0u16..6, 0u64..16), 0..10)
        ) {
            // Unsorted, possibly repeated writers: the map-backed decoder
            // sorted them and kept each writer's last counter.
            let mut bytes = Vec::new();
            varint::write_u64(&mut bytes, raw.len() as u64);
            for &(writer, counter) in &raw {
                varint::write_u64(&mut bytes, u64::from(writer));
                varint::write_u64(&mut bytes, counter);
            }
            let decoded = VectorClock::decode(&mut &bytes[..]).unwrap();
            let model = ModelClock(raw.into_iter().collect());
            assert_matches_model(&decoded, &model)?;
            // Zeros must round-trip too: a named writer at 0 is not absent.
            let mut reencoded = Vec::new();
            decoded.encode(&mut reencoded);
            prop_assert_eq!(VectorClock::decode(&mut &reencoded[..]).unwrap(), decoded);
        }

        #[test]
        fn prop_merge_of_concurrent_dominates_both_strictly(a in arb_clock(), b in arb_clock()) {
            if a.compare(&b) == Occurred::Concurrent {
                let m = a.merged(&b);
                prop_assert_eq!(m.compare(&a), Occurred::After);
                prop_assert_eq!(m.compare(&b), Occurred::After);
            }
        }
    }
}
