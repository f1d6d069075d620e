//! In-memory spans recorded around calls into the program, their self
//! times, and a Chrome trace-event writer.
//!
//! Spans are recorded only in the benchmark's own code; the program under
//! test carries no timer for this. A disabled tracer records nothing, so
//! the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id a disabled tracer hands out.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `ir.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// Request, module or function id shared by one operation's spans.
    pub id: u64,
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off, e.g. for alternate rounds.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds since the epoch, now.
    pub fn now(&self) -> u64 {
        self.offset(Instant::now())
    }

    /// Opens a span starting now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.now();
        self.record_ns(name, now, now, parent, id)
    }

    /// Ends an open span now.
    pub fn close(&mut self, span: SpanId) {
        if span != SpanId::NONE {
            let now = self.now();
            self.spans[span.0].end = now;
        }
    }

    /// Records a finished interval `[start, end]` (epoch nanoseconds)
    /// under `parent`, e.g. one derived from a duration the program
    /// reports, such as a driver's `wall_ns`.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: SpanId,
        id: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent: (parent != SpanId::NONE).then_some(parent.0),
            id,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, id);
        let r = f();
        self.close(span);
        r
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`X` complete events, microseconds).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \
                 \"parent\": {parent}, \"id\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.id
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

/// Self time per span name: each span's duration minus the part of it
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_within(kids, s.start, s.end);
        *out.entry(s.name).or_insert(0) += (s.end - s.start) - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 100 - 20 - 10);
        assert_eq!(t["a"], 20 - 5);
        assert_eq!(t["b"], 10);
        assert_eq!(t["a.inner"], 5);
        // The self times partition the root's wall time.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("c", 90, 130, Some(0)),
            span("c", 120, 150, Some(0)),
            span("c", 140, 145, Some(0)),
            span("c", 190, 230, Some(0)),
        ];
        // Covered inside the root: [100,150) and [190,200) = 60.
        assert_eq!(self_times(&spans)["root"], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", SpanId::NONE, 0, || 7), 7);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.open("root", SpanId::NONE, 1);
        t.record_ns("leaf", 2, 4, root, 1);
        t.close(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[0].start);
        let json = t.chrome_json();
        assert!(json.contains("\"name\": \"leaf\"") && json.contains("\"parent\": 0"));
    }
}
