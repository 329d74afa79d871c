//! In-memory span recorder for the traced run.
//!
//! A span is `{name, start, end, parent, request id}`, stamped in
//! nanoseconds since a shared epoch. Spans are recorded only around the
//! calls the benchmark itself makes into a layer's public functions; the
//! program under test is not instrumented. Nothing is written while a run
//! measures: [`Tracer::write_tsv`] dumps the spans after the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`], plus one; 0 means "no parent".
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.rtt`.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
    /// The enclosing span (0 for a root).
    pub parent: SpanId,
    /// Request (or round) the span belongs to; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer. Each thread records into its own tracer; tracers created
/// from one epoch merge into a single timeline.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer stamping against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span stamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch of `at`.
    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.stamp(start),
            end_ns: self.stamp(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() as SpanId
    }

    /// Appends another tracer's spans, remapping their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name `(count, total ns, self ns)`. A span's self time is its
    /// duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != 0 {
                child_ns[span.parent as usize - 1] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_absorb_remaps_parents() {
        let epoch = Instant::now();
        let at = |ns| epoch + Duration::from_nanos(ns);
        let mut a = Tracer::new(epoch);
        let root = a.record("root", at(0), at(100), 0, 1);
        a.record("child", at(10), at(40), root, 1);
        let mut b = Tracer::new(epoch);
        let root_b = b.record("root", at(200), at(250), 0, 2);
        b.record("child", at(210), at(220), root_b, 2);
        a.absorb(b);
        let summary = a.summary();
        assert_eq!(summary["root"], (2, 150, 110));
        assert_eq!(summary["child"], (2, 40, 40));
        assert_eq!(a.durations("child"), vec![30, 10]);
    }
}
