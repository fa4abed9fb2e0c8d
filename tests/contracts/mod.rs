//! One reference model per replication contract, shared by the chaos
//! scenarios (`tests/chaos.rs`) and the random walks
//! (`tests/replication_walks.rs`):
//!
//! * [`KeyModel`] — one key's timeline on a timeline-consistent store
//!   (Espresso, §IV): a read returns the last acked write or a later
//!   failed one, and never goes back past what an earlier read returned;
//! * [`LogModel`] — one replicated partition log (Kafka): a committed
//!   offset never changes its message, and every `FullIsr`-acked message
//!   is committed at its acked offset once every broker has recovered.

use std::collections::BTreeMap;
use std::fmt::Debug;

/// One key's history. Version 0 is "absent"; every write adds a version.
/// Values name their write uniquely, so a read names its version.
pub struct KeyModel<T> {
    /// Each version's value, `None` for a delete.
    versions: Vec<Option<T>>,
    /// The last acked version. Every later version is a write that failed
    /// and may have applied all the same.
    acked: usize,
}

impl<T: PartialEq + Debug> KeyModel<T> {
    pub fn new() -> Self {
        KeyModel {
            versions: vec![None],
            acked: 0,
        }
    }

    pub fn write(&mut self, value: Option<T>, acked: bool) {
        self.versions.push(value);
        if acked {
            self.acked = self.versions.len() - 1;
        }
    }

    /// The values a read may return, oldest first: the last acked one and
    /// every later attempt.
    pub fn allowed(&self) -> &[Option<T>] {
        &self.versions[self.acked..]
    }

    /// The values an acked write superseded: a read never returns one.
    pub fn superseded(&self) -> &[Option<T>] {
        &self.versions[..self.acked]
    }

    /// Checks a read that may not go back past version `floor` (the one an
    /// earlier read returned, 0 for none) and returns the version it read.
    pub fn check(&self, got: &Option<T>, floor: usize) -> Result<usize, String> {
        let from = self.acked.max(floor);
        let allowed = &self.allowed()[from - self.acked..];
        match allowed.iter().position(|value| value == got) {
            Some(at) => Ok(from + at),
            None => Err(format!(
                "read {got:?}; allowed {allowed:?}, superseded {:?}",
                self.superseded()
            )),
        }
    }
}

/// What a reader has seen of one partition and what it was promised.
#[derive(Default)]
pub struct LogModel<M> {
    /// Every committed offset read so far and its message.
    seen: BTreeMap<u64, M>,
    /// The offset and message of every `FullIsr`-acked produce, in ack
    /// order: a second ack at one offset means the first was rewritten.
    full_isr_acked: Vec<(u64, M)>,
}

impl<M: PartialEq + Debug + Clone> LogModel<M> {
    /// Records a committed read: an offset read before keeps its message.
    pub fn observe(&mut self, read: &[(u64, M)]) -> Result<(), String> {
        for (offset, message) in read {
            let was = self.seen.entry(*offset).or_insert_with(|| message.clone());
            if was != message {
                return Err(format!(
                    "committed offset {offset} read {was:?}, now {message:?}"
                ));
            }
        }
        Ok(())
    }

    pub fn ack_full_isr(&mut self, offset: u64, message: M) {
        self.full_isr_acked.push((offset, message));
    }

    /// Checks the whole committed log after recovery: every offset read
    /// before is still there with its message, none rolled back.
    pub fn check_stable(&self, log: &[(u64, M)]) -> Result<(), String> {
        holds(log, &self.seen, "read")
    }

    /// Checks the whole committed log after recovery: every `FullIsr`-acked
    /// message is committed at its acked offset.
    pub fn check_full_isr(&self, log: &[(u64, M)]) -> Result<(), String> {
        let acked = self.full_isr_acked.iter().map(|(o, m)| (o, m));
        holds(log, acked, "FullIsr-acked")
    }
}

/// Every offset of `expected` is in `log` with its message.
fn holds<'a, M: PartialEq + Debug + 'a>(
    log: &[(u64, M)],
    expected: impl IntoIterator<Item = (&'a u64, &'a M)>,
    what: &str,
) -> Result<(), String> {
    for (offset, message) in expected {
        match log.iter().find(|(o, _)| o == offset) {
            Some((_, got)) if got == message => {}
            got => {
                let got = got.map(|(_, m)| m);
                return Err(format!(
                    "{what} offset {offset} held {message:?}, now {got:?}"
                ));
            }
        }
    }
    Ok(())
}
