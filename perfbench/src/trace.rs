//! Outside-in spans: a [`LineService`] wrapper that times each
//! `handle_line` call, keyed by the wire `trace` field, and the
//! self-time arithmetic over the recorded spans.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dlm_serve::LineService;

/// Nanoseconds since the process-wide trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("trace clock overflowed u64 nanoseconds")
}

/// One timed call at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name: `client`, `router` or `service`.
    pub name: &'static str,
    /// The request's trace id (shared by every span of one request).
    pub trace: u64,
    /// Name of the layer whose span caused this one.
    pub parent: Option<&'static str>,
    /// Start, in [`now_ns`] time.
    pub start: u64,
    /// End, in [`now_ns`] time.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span sink shared by every traced layer of one run.
pub type SpanLog = Arc<Mutex<Vec<Span>>>;

/// Wraps a line service and records one span per request line.
#[derive(Debug)]
pub struct Traced<S> {
    inner: S,
    name: &'static str,
    parent: &'static str,
    log: SpanLog,
}

impl<S: LineService> Traced<S> {
    /// Records `name` spans, caused by `parent` spans, into `log`.
    pub fn new(inner: S, name: &'static str, parent: &'static str, log: SpanLog) -> Self {
        Self {
            inner,
            name,
            parent,
            log,
        }
    }
}

impl<S: LineService> LineService for Traced<S> {
    fn handle_line(&self, line: &str) -> String {
        let start = now_ns();
        let response = self.inner.handle_line(line);
        let end = now_ns();
        if let Some(trace) = trace_id(line) {
            self.log.lock().expect("span log poisoned").push(Span {
                name: self.name,
                trace,
                parent: Some(self.parent),
                start,
                end,
            });
        }
        response
    }

    fn metrics_registry(&self) -> Option<&dlm_obs::Registry> {
        self.inner.metrics_registry()
    }
}

/// The numeric `"trace":"<id>"` value of a request line, if any. The
/// benchmark writes the field last, so the search runs from the end.
#[must_use]
pub fn trace_id(line: &str) -> Option<u64> {
    const KEY: &str = "\"trace\":\"";
    let at = line.rfind(KEY)? + KEY.len();
    let rest = &line[at..];
    rest[..rest.find('"')?].parse().ok()
}

/// `parent`'s duration minus the part of it covered by `children`
/// (overlapping children are counted once; parts outside the parent are
/// ignored).
#[must_use]
pub fn self_time(parent: &Span, children: &[Span]) -> u64 {
    let mut spans: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (s, e) in spans {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.duration() - covered
}

/// Self time of every `name` span, in microseconds.
#[must_use]
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == Some(name)) {
        children.entry(s.trace).or_default().push(*s);
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|p| {
            let kids = children.get(&p.trace).map_or(&[][..], Vec::as_slice);
            self_time(p, kids) as f64 / 1e3
        })
        .collect()
}

/// Writes spans as tab-separated `name trace parent start end` rows.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\ttrace\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name,
            s.trace,
            s.parent.unwrap_or("-"),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, start: u64, end: u64) -> Span {
        Span {
            name,
            trace: 7,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = span("client", None, 100, 200);
        assert_eq!(self_time(&p, &[]), 100);
        // One child inside the parent.
        assert_eq!(self_time(&p, &[span("service", None, 120, 150)]), 70);
        // Overlapping children count once; a child poking out of the
        // parent counts only inside it.
        let kids = [
            span("service", None, 110, 140),
            span("service", None, 130, 160),
            span("service", None, 190, 260),
        ];
        assert_eq!(self_time(&p, &kids), 100 - 50 - 10);
        // A child entirely outside the parent covers nothing.
        assert_eq!(self_time(&p, &[span("service", None, 300, 400)]), 100);
    }

    #[test]
    fn self_times_join_children_by_trace_and_parent_name() {
        let mut other = span("service", Some("client"), 0, 1_000_000);
        other.trace = 8;
        let spans = [
            span("client", None, 0, 10_000),
            span("service", Some("client"), 2_000, 7_000),
            other,
        ];
        assert_eq!(self_times_us(&spans, "client"), vec![5.0]);
    }

    #[test]
    fn trace_ids_are_read_from_the_last_field() {
        assert_eq!(
            trace_id(r#"{"type":"stats","trace":"42"}"#),
            Some(42),
            "numeric id"
        );
        assert_eq!(trace_id(r#"{"type":"stats"}"#), None);
        assert_eq!(trace_id(r#"{"type":"stats","trace":"x"}"#), None);
    }

    #[test]
    fn traced_service_records_one_span_per_line() {
        struct Echo;
        impl LineService for Echo {
            fn handle_line(&self, line: &str) -> String {
                line.to_owned()
            }
        }
        let log = SpanLog::default();
        let traced = Traced::new(Echo, "service", "client", Arc::clone(&log));
        assert_eq!(traced.handle_line(r#"{"trace":"3"}"#), r#"{"trace":"3"}"#);
        traced.handle_line("{}");
        let spans = log.lock().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].trace), ("service", 3));
        assert_eq!(spans[0].parent, Some("client"));
        assert!(spans[0].end >= spans[0].start);
    }
}
