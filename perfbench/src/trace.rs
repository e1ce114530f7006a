//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! live in memory until the benchmark exits; a disabled [`Trace`] records
//! nothing and only calls the closure, so the untraced run pays one branch
//! per call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span, used as the parent of the spans it causes.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// A span recorder, shared by reference (or `Arc`) with the code it times.
pub struct Trace {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Trace {
    /// A recorder that keeps every span.
    pub fn on() -> Trace {
        Trace { epoch: Instant::now(), spans: Some(Mutex::new(Vec::new())) }
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Trace {
        Trace { epoch: Instant::now(), spans: None }
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's id
    /// (`None` when tracing is off) to parent the spans it causes.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else { return f(None) };
        let start = self.epoch.elapsed();
        let id = {
            let mut spans = spans.lock().expect("span recorder poisoned by a panicking span");
            spans.push(Span { name, parent, start, end: start });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.epoch.elapsed();
        spans.lock().expect("span recorder poisoned by a panicking span")[id].end = end;
        out
    }

    fn recorded(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span recorder poisoned by a panicking span").clone())
            .unwrap_or_default()
    }

    /// Self time in milliseconds summed per span name: each span's duration
    /// minus the part of its interval that its children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.recorded();
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let own = (s.end - s.start).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own.as_secs_f64() * 1.0e3;
        }
        out
    }

    /// The spans as a JSON array of `{name, parent, start_ns, end_ns}`
    /// objects, times relative to this recorder's creation.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .recorded()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name,
                    parent,
                    s.start.as_nanos(),
                    s.end.as_nanos()
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Trace::on();
        t.span("outer", None, |id| {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", id, |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let ms = t.self_ms();
        assert!(ms["inner"] >= 20.0);
        assert!(ms["outer"] >= 5.0 && ms["outer"] < 20.0, "{ms:?}");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::off();
        assert_eq!(t.span("x", None, |id| id), None);
        assert!(t.self_ms().is_empty());
        assert_eq!(t.to_json(), "[]");
    }
}
