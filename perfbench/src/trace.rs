//! In-memory spans for the traced run.
//!
//! Spans are recorded only here, around the benchmark's own calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written out once, when the
//! run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is `<layer>.<call>`, `id` the point index or
/// job id the call worked for, `parent` the index of the enclosing span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span and returns its value and the span index
    /// (usable as `parent` of later spans).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.record(name, id, parent, start, end);
        (out, self.spans.len() - 1)
    }

    /// Stores a span measured elsewhere (the service clients time their
    /// requests on their own threads and hand the instants over).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Nanoseconds from this tracer's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The duration of span `i` in milliseconds.
    pub fn ms(&self, i: usize) -> f64 {
        self.spans[i].ms()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, parent, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}
