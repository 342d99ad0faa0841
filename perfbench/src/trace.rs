//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans live in a `Vec` until the run ends and are then written out as
//! JSON. A disabled tracer records nothing and reads no clock, so the same
//! replay code gives the untraced baseline that tracing overhead is
//! measured against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `unit` is the tick, chunk or batch the work belongs
/// to; `parent` indexes the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

/// Records spans on one thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, unit: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`]; spans close innermost
    /// first.
    pub fn exit(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in ns: each span's duration minus the part its
/// children cover (children of one thread never overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Spans plus their per-name self times as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.unit
        );
    }
    out.push_str("],\"self_ns\":{");
    for (i, (name, ns)) in self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{ns}");
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("batch", 0, 100, None),
            span("scan", 10, 40, Some(0)),
            span("match", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
            span("batch", 100, 150, None),
        ];
        let own = self_times(&spans);
        assert_eq!(own["batch"], 20 + 50);
        assert_eq!(own["scan"], 30);
        assert_eq!(own["match"], 40);
        assert_eq!(own["inner"], 10);
        // Self times of a tree add up to its roots' wall time.
        assert_eq!(own.values().sum::<u64>(), 150);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].unit, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let json = to_json(t.spans());
        assert!(
            json.starts_with("{\"spans\":[{\"name\":\"outer\""),
            "{json}"
        );
        assert!(json.contains("\"parent\":0"), "{json}");

        let mut off = Tracer::new(false);
        let s = off.enter("outer", 0);
        off.exit(s);
        assert!(off.spans().is_empty());
    }
}
