//! Client-side spans around calls into each layer.
//!
//! A span has a name, the request it belongs to, the span that caused it,
//! and start/end times on one monotonic clock. Spans stay in memory; the
//! per-name totals and self times (duration minus the time covered by
//! child spans) feed the per-layer metrics, and the first spans are
//! written out when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Request identifier shared by the spans of one request.
    pub req: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration, ns.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::share(self.total_ns, self.count)
    }

    /// Mean self time, ns.
    pub fn mean_self_ns(&self) -> f64 {
        crate::stats::share(self.self_ns, self.count)
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `start`; returns its index for [`Tracer::close`]
    /// and for children's `parent`.
    pub fn open(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        let start = self.ns(start);
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` at `end`.
    pub fn close(&mut self, id: usize, end: Instant) {
        let end = self.ns(end);
        self.spans[id].end = end;
    }

    /// Records a complete span.
    pub fn span(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.open(name, req, parent, start);
        self.close(id, end);
        id
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let t = out.entry(s.name).or_default();
            let d = s.end - s.start;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(c);
        }
        out
    }

    /// Writes the first `limit` spans as JSON lines to `path`.
    pub fn write(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer {
            origin: t0,
            spans: Vec::new(),
        };
        let root = tr.open("client.request", 1, None, at(0));
        tr.span("protocol.encode", 1, Some(root), at(0), at(2));
        tr.span("socket.read", 1, Some(root), at(3), at(9));
        tr.close(root, at(10));
        let totals = tr.totals();
        assert_eq!(totals["client.request"].total_ns, 10_000);
        assert_eq!(totals["client.request"].self_ns, 2_000);
        assert_eq!(totals["protocol.encode"].mean_ns(), 2_000.0);
        assert_eq!(totals["socket.read"].mean_self_ns(), 6_000.0);
    }
}
