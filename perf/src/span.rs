//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, op id). One [`Tracer`] belongs to one
//! thread and keeps a stack of open spans, so spans of a thread nest and never
//! overlap; spans stay in memory until the run ends. Nothing here reaches
//! into the program under test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// The benchmark op (step, round, request, kernel run) it belongs to.
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    tid: u32,
    on: bool,
    op: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (shared by the threads of one
    /// repetition). With `on == false` every call is a branch and a return.
    pub fn new(origin: Instant, tid: u32, on: bool) -> Self {
        Tracer {
            origin,
            tid,
            on,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(Instant::now(), 0, false)
    }

    /// Starts the next op: spans begun from here on carry its id.
    #[inline]
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
    }

    /// Ends the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Open spans right now; pair with [`Tracer::close_to`] around a call
    /// that may return early.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Ends open spans until `depth` remain, so an error path leaves the
    /// stack as it found it.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }

    pub fn tid(&self) -> u32 {
        self.tid
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open: {:?}", self.open);
        &self.spans
    }
}

/// Self time of every span, in microseconds, grouped by span name: a span's
/// duration minus the part of it its child spans cover. Children of one
/// parent come from one thread's stack, so they never overlap each other.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns);
        out.entry(s.name).or_default().push(self_ns as f64 / 1e3);
    }
    out
}

/// Renders tracers as one chrome `trace_event` document (load it in
/// `chrome://tracing` or Perfetto): complete events, one `tid` per tracer,
/// at most `limit` spans of each.
pub fn chrome_trace(tracers: &[&Tracer], limit: usize) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for t in tracers {
        for (i, s) in t.spans().iter().enumerate().take(limit) {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                t.tid(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            )
            .expect("writing to a String cannot fail");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // step [0,1000) holds store [100,400) and join [400,900); join holds
        // body [500,700). Adjacent children share the boundary at 400.
        let spans = [
            span("step", 0, 1000, None),
            span("store", 100, 400, Some(0)),
            span("join", 400, 900, Some(0)),
            span("body", 500, 700, Some(2)),
        ];
        let st = self_times_us(&spans);
        assert_eq!(st["step"], vec![0.2]); // 1000 - 300 - 500: grandchild not counted twice
        assert_eq!(st["store"], vec![0.3]);
        assert_eq!(st["join"], vec![0.3]); // 500 - 200
        assert_eq!(st["body"], vec![0.2]);
    }

    #[test]
    fn tracer_links_parents_and_ops_and_costs_nothing_when_off() {
        let mut t = Tracer::new(Instant::now(), 3, true);
        t.next_op();
        t.begin("round");
        t.begin("fire");
        t.end();
        t.begin("join");
        t.end();
        t.end();
        t.next_op();
        t.begin("round");
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), None]
        );
        assert_eq!(s.iter().map(|s| s.op).collect::<Vec<_>>(), [1, 1, 1, 2]);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        off.begin("x");
        off.end();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::new(Instant::now(), 1, true);
        t.begin("request");
        t.begin("client.write");
        t.end();
        t.end();
        let doc = Json::parse(&chrome_trace(&[&t], 10)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("client.write")
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
