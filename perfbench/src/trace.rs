//! In-memory spans recorded around the benchmark's calls into each layer
//! of the workspace (search, plan application, engine, executor, serving
//! and fleet simulators).
//!
//! Spans are kept in memory during the run and written once at the end as
//! Chrome trace-event JSON, which opens in `chrome://tracing` or Perfetto.
//! When tracing is off every method is a no-op, so the end-to-end run pays
//! nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `search`.
    pub name: &'static str,
    /// Index of the model (or scenario) the operation ran on.
    pub model: usize,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name`, nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str, model: usize, op: u64) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            model,
            op,
            parent: self.open.last().map(|&(i, _)| i),
            start_us: (now - self.origin).as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push((self.spans.len() - 1, now));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if let Some((i, start)) = self.open.pop() {
            self.spans[i].dur_us = start.elapsed().as_secs_f64() * 1e6;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        model: usize,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, model, op);
        let out = f();
        self.end();
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace-event JSON (`{"traceEvents":[...]}`),
    /// one complete (`"ph":"X"`) event per span.
    pub fn to_chrome_json(&self, models: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let model = models.get(s.model).map_or("", String::as_str);
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"model\":\"{model}\"}}}}",
                s.name, s.start_us, s.dur_us, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.begin("op", 0, 7);
        t.span("search", 0, 7, || ());
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].dur_us >= s[1].dur_us);
        assert!(t.to_chrome_json(&["toy".into()]).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("search", 0, 0, || ());
        assert!(t.spans().is_empty());
    }
}
