//! Outside-in spans: the benchmark times its own calls into each crate.
//!
//! Spans stay in memory during the run and are aggregated (and written
//! out) after it. The same clock reads give an op its latency whether or
//! not its span is kept, so a traced and an untraced run differ only by
//! the span records and the split calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or `NO_PARENT`.
    pub parent: u32,
    /// Spans of one op share its id; a pump or a poll has its own.
    pub op_id: u64,
}

/// A span that has started. Closing it yields its duration.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: u32,
    start_ns: u64,
}

impl Open {
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

/// One thread's spans, on a clock shared by every tracer of the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    keep: bool,
    spans: Vec<Span>,
}

/// Per-name totals of a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, keep: bool) -> Self {
        Tracer {
            epoch,
            keep,
            // Reserved up front so that no reallocation lands in a timed
            // window; untouched pages cost nothing.
            spans: Vec::with_capacity(if keep { 1 << 23 } else { 0 }),
        }
    }

    pub fn keeps_spans(&self) -> bool {
        self.keep
    }

    /// Stops keeping spans (latencies are still returned by `close`).
    pub fn stop_keeping(&mut self) {
        self.keep = false;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<Open>, op_id: u64) -> Open {
        let index = if self.keep {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: parent.map_or(NO_PARENT, |p| p.index),
                op_id,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        // The clock is read last so the record's own cost stays outside
        // the span.
        let start_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.start_ns = start_ns;
        }
        Open { index, start_ns }
    }

    /// Ends the span and returns its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(open.index as usize) {
            span.end_ns = end_ns;
        }
        end_ns - open.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let busy = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.busy_ns += busy;
            entry.self_ns += busy.saturating_sub(children);
        }
        totals
    }

    /// Durations of every span of one name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Time covered by spans that have no parent.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

/// Spans written per tracer; the totals cover all of them.
const SPANS_WRITTEN: usize = 100_000;

/// The trace file: per tracer, the head of its spans as JSON.
pub fn trace_json(workload: &str, tracers: &[(String, &Tracer)]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"threads\": [");
    for (t, (thread, tracer)) in tracers.iter().enumerate() {
        let spans = tracer.spans();
        let _ = write!(
            out,
            "{}\n{{\"thread\": \"{thread}\", \"spans_recorded\": {}, \"spans\": [",
            if t == 0 { "" } else { "," },
            spans.len()
        );
        for (i, span) in spans.iter().take(SPANS_WRITTEN).enumerate() {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            };
            let _ = write!(
                out,
                "{}\n{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.op_id
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            keep: true,
            spans,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        };
        let tracer = tracer_with(vec![
            span("page", 0, 100, NO_PARENT),
            span("lookup", 10, 40, 0),
            span("fetch", 50, 90, 0),
            span("decode", 55, 60, 2),
        ]);
        let totals = tracer.totals();
        assert_eq!(
            totals["page"],
            SpanTotals {
                count: 1,
                busy_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            totals["fetch"],
            SpanTotals {
                count: 1,
                busy_ns: 40,
                self_ns: 35
            }
        );
        assert_eq!(totals["decode"].self_ns, 5);
        assert_eq!(tracer.root_ns(), 100);
        assert_eq!(tracer.durations("lookup"), vec![30]);
    }

    #[test]
    fn open_close_nests_and_an_unkept_span_still_times() {
        let mut tracer = Tracer::new(Instant::now(), true);
        let root = tracer.open("op", None, 7);
        let child = tracer.open("call", Some(root), 7);
        assert!(tracer.close(child) <= tracer.close(root));
        assert_eq!(tracer.spans()[1].parent, 0);
        assert_eq!(tracer.spans()[1].op_id, 7);
        tracer.stop_keeping();
        let unkept = tracer.open("op", None, 8);
        let _ = tracer.close(unkept);
        assert_eq!(tracer.spans().len(), 2);
        assert!(trace_json("w", &[("client-0".to_string(), &tracer)]).contains("\"parent\": 0"));
    }
}
