//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer's public function, recorded
//! from the benchmark's side of the call: name, start, end, the span
//! that caused it and the operation it belongs to, plus counts taken at
//! the same boundary. Spans stay in memory until the run ends and are
//! then written out as JSON lines. With tracing off, [`Tracer::span`]
//! is a plain call and records nothing.
//!
//! Self time is a span's duration minus the time its children cover.
//! Children are sequential calls on the one client thread, so they
//! never overlap and their coverage is the sum of their durations. A
//! child may also be a *replay*: a call re-made after its parent
//! returned, to attribute the parent's time to the layers it calls
//! internally (see the `drain` workload).

use crate::util::esc;
use std::cell::RefCell;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Time `f` as a span named `name` of operation `op`, child of the
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        self.record(name, op, parent, f)
    }

    /// Like [`Tracer::span`], but as a child of span `parent` whether
    /// or not that span is still open: a replayed call.
    pub fn span_under<R>(
        &self,
        parent: usize,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        self.record(name, op, Some(parent), f)
    }

    fn record<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op,
                parent,
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
                counts: Vec::new(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let r = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.epoch.elapsed();
        r
    }

    /// Attach a count to the innermost open span (or, when none is
    /// open, to the most recently closed one).
    pub fn count(&self, name: &'static str, value: f64) {
        if !self.on {
            return;
        }
        let target = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let len = spans.len();
        if let Some(s) = target.or(len.checked_sub(1)).and_then(|i| spans.get_mut(i)) {
            s.counts.push((name, value));
        }
    }

    /// Index of the most recently opened span.
    pub fn last(&self) -> Option<usize> {
        self.spans.borrow().len().checked_sub(1)
    }

    /// Index of the most recent span named `name`.
    pub fn last_named(&self, name: &str) -> Option<usize> {
        self.spans.borrow().iter().rposition(|s| s.name == name)
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// `span`'s duration minus the time its children cover.
    pub fn self_time(&self, span: usize) -> Duration {
        let spans = self.spans.borrow();
        let covered: Duration = spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(Span::dur)
            .sum();
        spans[span].dur().saturating_sub(covered)
    }

    /// Total duration of the children of `span` named `name`.
    pub fn child_time(&self, span: usize, name: &str) -> Duration {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent == Some(span) && s.name == name)
            .map(Span::dur)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every span as one JSON line, times in nanoseconds since the
    /// tracer was made, self time included.
    pub fn render(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", esc(k)))
                .collect();
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"counts\":{{{}}}}}\n",
                esc(s.name),
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos(),
                self.self_time(i).as_nanos(),
                counts.join(",")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_replayed_children() {
        let t = Tracer::new(true);
        let spin = |d: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(d) {}
        };
        t.span("outer", 0, || {
            spin(2);
            t.span("inner", 0, || spin(3));
            t.count("words", 4.0);
        });
        let outer = 0;
        t.span_under(outer, "replay", 0, || spin(1));
        let d = t.spans.borrow()[outer].dur();
        let kids = t.child_time(outer, "inner") + t.child_time(outer, "replay");
        assert_eq!(t.self_time(outer), d - kids);
        assert_eq!(t.spans.borrow()[outer].counts, vec![("words", 4.0)]);
        assert_eq!(t.durations("inner").len(), 1);
        assert_eq!(t.render().lines().count(), 3);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        t.count("c", 1.0);
        assert_eq!(t.len(), 0);
    }
}
