//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and an
//! optional request id. Spans are kept in memory while the benchmark runs
//! and written out as JSON lines when it ends. Recording is switched on
//! only for traced rounds, so the untraced rounds of the same process pay
//! one atomic load per span site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within one tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `client.auth` or `experiment.E4`.
    pub name: String,
    /// Request id shared by every span of one request.
    pub req: Option<u64>,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

impl Span {
    /// Duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// An open span; it is recorded when dropped.
#[derive(Debug)]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: String,
    req: Option<u64>,
    start: Instant,
}

impl Guard<'_> {
    /// This span's id, to pass as the parent of its children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let name = std::mem::take(&mut self.name);
        self.tracer.push(
            self.id,
            name,
            self.parent,
            self.req,
            self.start,
            Instant::now(),
        );
    }
}

impl Tracer {
    /// Switches recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// True while recording.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// Opens a span, or returns `None` while recording is off.
    pub fn span(
        &self,
        name: impl Into<String>,
        parent: Option<u64>,
        req: Option<u64>,
    ) -> Option<Guard<'_>> {
        self.is_on().then(|| Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            req,
            start: Instant::now(),
        })
    }

    /// Records a span whose interval was measured elsewhere (the server's
    /// own time inside a client round trip). No-op while recording is off.
    pub fn record(
        &self,
        name: String,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.is_on() {
            self.push(
                self.next_id.fetch_add(1, Ordering::Relaxed),
                name,
                parent,
                req,
                start,
                end,
            );
        }
    }

    fn push(
        &self,
        id: u64,
        name: String,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            name,
            req,
            start_us: at(start),
            end_us: at(end),
        };
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Self time per span name, µs: each span's duration minus the part its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += s.dur_us();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.dur_us() - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *out.entry(s.name.clone()).or_default() += own;
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"req\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}\n",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.req),
                s.start_us,
                s.end_us
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            req: None,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, None, "request", 0.0, 100.0),
            span(2, Some(1), "client.run", 10.0, 90.0),
            span(3, Some(2), "server", 50.0, 80.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["request"], 20.0);
        assert_eq!(st["client.run"], 50.0);
        assert_eq!(st["server"], 30.0);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let t = Tracer::default();
        assert!(t.span("x", None, None).is_none());
        t.set_on(true);
        {
            let outer = t.span("outer", None, Some(7)).expect("on");
            let _inner = t.span("inner", Some(outer.id()), Some(7));
        }
        t.set_on(false);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
        assert!(roofline_core::json::Json::parse(to_jsonl(&spans).lines().next().unwrap()).is_ok());
    }
}
