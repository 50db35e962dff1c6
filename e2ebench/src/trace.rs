//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each crate;
//! nothing inside the library is instrumented. When disabled, every
//! method is a single branch and no span is stored.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    /// Index of the enclosing span, `None` for a root span.
    parent: Option<usize>,
    /// The pass this span belongs to.
    pass: usize,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans recorded from now on with pass `id`.
    pub fn set_pass(&mut self, id: usize) {
        self.pass = id;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (spans close innermost first).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Closes every span left open by a pass that unwound.
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(Some(id));
        }
    }

    /// Per pass, per span name: summed self time (duration minus the part
    /// covered by direct children; children never overlap, since every
    /// layer call is sequential).
    pub fn self_times(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.duration();
            }
        }
        let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_time) {
            *out.entry(span.pass)
                .or_default()
                .entry(span.name)
                .or_default() += span.duration() - child;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start, s.end, s.pass
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let root = t.begin("pass");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let times = &t.self_times()[&3];
        let whole = spans[0].duration();
        assert!((times["pass"] + times["child"] - whole).abs() < 1e-12);
        assert!(times["child"] >= 0.005);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("pass");
        assert_eq!(t.span("child", || 7), 7);
        t.end(id);
        assert!(t.spans.is_empty());
    }
}
