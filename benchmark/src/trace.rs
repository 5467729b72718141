//! In-memory spans around the calls the replay makes into each layer.
//!
//! A span is `(name, start, end, parent, round)`. Spans nest through an
//! explicit stack, stay in memory while the replay runs and are written to
//! `trace-<workload>.json` afterwards. A layer's self time is its span minus
//! the part its children cover.

use crate::stats::{obj, text};
use serde::Value;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.encode`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Training round the span belongs to (epoch-end spans carry the last
    /// round of their epoch).
    pub round: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans, or nothing at all when switched off (the replay runs the
/// same code either way, which is how tracing overhead is measured).
pub struct Tracer {
    /// Spans are recorded only while this is set.
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, round: u32) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`begin`](Self::begin); spans close in
    /// reverse order of opening.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a child of the innermost open span from a duration the
    /// called function measured itself and returned, placed `offset_s`
    /// after the parent's start.
    pub fn child_from_report(&mut self, name: &'static str, offset_s: f64, seconds: f64) {
        if !self.on {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let (base, round) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.round)
        };
        let start_ns = base + (offset_s * 1e9) as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent: Some(parent),
            round,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of span `id`: its duration minus its direct children.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id as u32))
            .map(Span::ms)
            .sum();
        (self.spans[id].ms() - children).max(0.0)
    }

    /// The spans as the JSON written to `trace-<workload>.json`.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    obj(vec![
                        ("id", Value::U64(i as u64)),
                        ("name", text(s.name)),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                        ),
                        ("round", Value::U64(u64::from(s.round))),
                        ("self_ms", Value::F64(self.self_ms(i))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 3);
        let inner = t.begin("inner", 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.child_from_report("reported", 0.0, 0.001);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].round, 3);
        assert!(t.self_ms(0) <= spans[0].ms() - spans[1].ms());
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new();
        t.on = false;
        let id = t.begin("x", 0);
        t.child_from_report("y", 0.0, 1.0);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
