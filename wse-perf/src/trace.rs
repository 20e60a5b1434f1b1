//! In-memory spans around the harness's calls into each layer.
//!
//! Spans are recorded from *outside* the layers (phase counters inside
//! `exec.rs` are a later issue): name, start, end, parent span and a
//! request id (program or sample index).  They stay in memory and are
//! written as Chrome-trace events when the run ends.  A layer's self time
//! is its span's duration minus the part its child spans cover.
//!
//! With tracing off, [`Tracer::timed`] is two `Instant` reads and
//! [`Tracer::begin`]/[`Tracer::end`] are a branch, so end-to-end numbers are
//! measured without spans.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(index)) = open {
            self.spans[index].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close in LIFO order");
        }
    }

    /// Times one call into a layer; records it as a leaf span when on.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        if self.on {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            let end_ns = start_ns + elapsed.as_nanos() as u64;
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns, end_ns, parent, request });
        }
        (out, elapsed.as_secs_f64())
    }

    /// Records a leaf span that began at `begun` and ends now (for work
    /// observed through a callback rather than called directly).
    pub fn timed_from(&mut self, name: &'static str, request: u32, begun: Instant) {
        if self.on {
            let start_ns = begun.duration_since(self.epoch).as_nanos() as u64;
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns, end_ns: self.now_ns(), parent, request });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: duration minus child durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*children);
            let entry = out.entry(span.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += own as f64 / 1e9;
        }
        out
    }

    /// True when every child lies inside its parent.
    pub fn nests(&self) -> bool {
        self.spans.iter().all(|span| match span.parent {
            Some(parent) => {
                let p = &self.spans[parent];
                p.start_ns <= span.start_ns && span.end_ns <= p.end_ns
            }
            None => true,
        })
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) complete events.
    pub fn chrome_json(&self, host: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"otherData\": ");
        out.push_str(host);
        out.push_str(", \"traceEvents\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"request\": {}}}}}{}\n",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}
