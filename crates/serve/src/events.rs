//! JSONL event-trace exporter.
//!
//! Every scheduling decision of a run is recorded as one event: request
//! routing, batch dispatches (with the plan-cache outcome), completions,
//! faults, retries and autoscaler actions. Events are kept as values while
//! the simulation runs and rendered only by [`EventLog::to_jsonl`], one
//! compact JSON object per line, so tracing costs the event loop no
//! formatting. The encoder is the in-repo `pimflow-json` writer, whose
//! output is fully deterministic — two runs with the same seed produce
//! byte-identical traces, which the determinism tests assert and which
//! makes traces diffable across code changes.

use pimflow_json::Json;

/// One recorded event: its simulated time, its kind and its fields in
/// rendering order.
#[derive(Debug, Clone, PartialEq)]
struct Event {
    t_us: f64,
    kind: &'static str,
    fields: Vec<(&'static str, Json)>,
}

/// Accumulates the events of one run, in simulated-time order.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Records an event with caller-supplied fields, rendered after the
    /// standard `t_us`/`event` pair.
    pub fn record(&mut self, t_us: f64, kind: &'static str, fields: Vec<(&'static str, Json)>) {
        self.events.push(Event { t_us, kind, fields });
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the whole trace as one newline-terminated JSONL document.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let mut fields = vec![
                ("t_us", Json::Num(e.t_us)),
                ("event", Json::Str(e.kind.into())),
            ];
            fields.extend(e.fields.iter().cloned());
            out.push_str(&Json::obj(fields).to_string_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventLog {
        let mut log = EventLog::new();
        log.record(0.0, "route", vec![("request", Json::Num(0.0))]);
        log.record(
            10.5,
            "dispatch",
            vec![
                ("batch", Json::Num(0.0)),
                ("cache", Json::Str("miss".into())),
            ],
        );
        log.record(20.0, "complete", vec![("exec_us", Json::Num(9.5))]);
        log
    }

    #[test]
    fn events_render_one_object_per_line() {
        let text = sample().to_jsonl();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let parsed = Json::parse(line).unwrap();
            assert!(parsed.field("event").is_ok(), "line `{line}`");
        }
        assert!(text.starts_with("{\"t_us\":0,\"event\":\"route\",\"request\":0}\n"));
        assert!(text.contains("\"cache\":\"miss\""));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
        assert_eq!(sample().len(), 3);
    }
}
