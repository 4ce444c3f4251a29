//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self times derived from them.
//!
//! A span is `(name, start, end, parent, request)`. Spans of one request
//! share the request id; a span's *self* time is its duration minus the
//! part of it that its child spans cover. Each thread keeps its own
//! [`SpanLog`]; the logs are merged and written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The id of the span this one was opened under; 0 for a root.
    pub parent: u64,
    /// The request the span belongs to.
    pub request: u64,
    /// The layer call the span wraps.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's wall time, milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span that has been opened but not finished.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One thread's span recorder. A disabled log records nothing and
/// reads no clock, so untraced runs pay only a branch per call site.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder for thread `thread` (ids stay unique across threads).
    pub fn new(enabled: bool, origin: Instant, thread: u64) -> SpanLog {
        SpanLog { enabled, origin, thread, next: 0, spans: Vec::new() }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` under `parent` (0 for a root).
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.enabled {
            return Open { id: 0, parent, request, name, start: None };
        }
        self.next += 1;
        let id = (self.thread + 1) << 40 | self.next;
        Open { id, parent, request, name, start: Some(Instant::now()) }
    }

    /// Finishes `open`, recording it.
    pub fn close(&mut self, open: Open) {
        let Some(start) = open.start else { return };
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open);
        out
    }

    /// The recorded spans, consuming the log.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, milliseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    spans
        .iter()
        .map(|s| {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            (s.id, own as f64 / 1e6)
        })
        .collect()
}

/// Mean self time, ms, of the spans named `name` whose request is
/// accepted by `keep`; `None` when there are none.
pub fn mean_self_ms(
    spans: &[Span],
    own: &HashMap<u64, f64>,
    name: &str,
    keep: impl Fn(u64) -> bool,
) -> Option<f64> {
    let times: Vec<f64> =
        spans.iter().filter(|s| s.name == name && keep(s.request)).map(|s| own[&s.id]).collect();
    if times.is_empty() {
        None
    } else {
        Some(crate::stats::mean(&times))
    }
}

/// Writes a traced run's spans to
/// `perfbench/out/spans-<workload>-seed<seed>.jsonl`; a failure to write
/// is reported and does not fail the run.
pub fn write_spans(args: &crate::Args, spans: &[Span]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match write_jsonl(&path, spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 7, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, 0, 0, 10_000_000),
            span(2, 1, 1_000_000, 4_000_000),
            span(3, 1, 5_000_000, 6_000_000),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 6.0);
        assert_eq!(own[&2], 3.0);
        assert_eq!(own[&3], 1.0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        assert_eq!(log.time("x", 0, 1, || 5), 5);
        assert!(log.into_spans().is_empty());
        let mut log = SpanLog::new(true, Instant::now(), 1);
        let outer = log.open("outer", 0, 1);
        log.time("inner", outer.id(), 1, || ());
        log.close(outer);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
