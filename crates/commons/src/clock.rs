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

use serde::{get_field, object, DeError, Deserialize, JsonValue, Serialize};
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
/// Stored as a sorted map so serialization is canonical — two equal clocks
/// always serialize to identical bytes, which Voldemort's read-repair
/// relies on when comparing replica responses.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: BTreeMap<WriterId, u64>,
}

impl Serialize for VectorClock {
    fn to_json_value(&self) -> JsonValue {
        object(vec![("entries", self.entries.to_json_value())])
    }
}

impl Deserialize for VectorClock {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        Ok(VectorClock {
            entries: get_field(value, "entries")?,
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
        let mut clock = Self::new();
        clock.entries.insert(writer, counter);
        clock
    }

    /// Records one more write coordinated by `writer`, returning the
    /// incremented clock. The original is untouched so callers can keep the
    /// pre-image for optimistic-lock comparison.
    #[must_use]
    pub fn incremented(&self, writer: WriterId) -> Self {
        let mut next = self.clone();
        *next.entries.entry(writer).or_insert(0) += 1;
        next
    }

    /// Increments this clock in place.
    pub fn increment(&mut self, writer: WriterId) {
        *self.entries.entry(writer).or_insert(0) += 1;
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
        for (&writer, &counter) in &other.entries {
            let entry = merged.entries.entry(writer).or_insert(0);
            *entry = (*entry).max(counter);
        }
        merged
    }

    /// Serializes the clock to a compact canonical byte form.
    pub fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.entries.len() as u64);
        for (&writer, &counter) in &self.entries {
            varint::write_u64(out, u64::from(writer));
            varint::write_u64(out, counter);
        }
    }

    /// Decodes a clock produced by [`VectorClock::encode`].
    pub fn decode(buf: &mut impl Buf) -> Result<Self, varint::VarintError> {
        let n = varint::read_u64(buf)? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let writer = varint::read_u64(buf)? as WriterId;
            let counter = varint::read_u64(buf)?;
            entries.insert(writer, counter);
        }
        Ok(VectorClock { entries })
    }

    /// Iterates over `(writer, counter)` pairs in writer order.
    pub fn iter(&self) -> impl Iterator<Item = (WriterId, u64)> + '_ {
        self.entries.iter().map(|(&w, &c)| (w, c))
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
        proptest::collection::btree_map(0u16..8, 0u64..16, 0..6)
            .prop_map(|entries| VectorClock { entries })
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
        fn prop_merge_of_concurrent_dominates_both_strictly(a in arb_clock(), b in arb_clock()) {
            if a.compare(&b) == Occurred::Concurrent {
                let m = a.merged(&b);
                prop_assert_eq!(m.compare(&a), Occurred::After);
                prop_assert_eq!(m.compare(&b), Occurred::After);
            }
        }
    }
}
