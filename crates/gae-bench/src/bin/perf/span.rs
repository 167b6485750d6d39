//! In-memory span recorder for the `--trace` run.
//!
//! One span per call into a layer: name, start, end, the span that
//! caused it, and the id of the op it belongs to. Spans live in a
//! `Vec` until the run ends, then go to one JSON file. A layer's self
//! time is its span's duration minus what its child spans cover.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (request, tick) this span is part of.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans, innermost last (the replay is single-threaded).
    open: Vec<usize>,
    op: u64,
}

/// The recorder. Shared by reference between the harness and the
/// service wrapper that times a `Service::call` body from inside
/// `ServiceHost::handle`, hence the lock.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("no panic while tracing")
    }

    /// Subsequent spans belong to op `op`.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Times `f` as a span named `name`, child of the innermost open
    /// span. The lock is not held while `f` runs.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut g = self.lock();
            let index = g.spans.len();
            let parent = g.open.last().copied();
            let op = g.op;
            g.open.push(index);
            g.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op,
            });
            index
        };
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let mut g = self.lock();
        g.spans[index].start_ns = start.as_nanos() as u64;
        g.spans[index].end_ns = end.as_nanos() as u64;
        g.open.pop();
        out
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Per-span self time: duration minus the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations (ns, as f64 for the percentile helpers) of every span
/// called `name`; `own` selects self time over total time.
pub fn durations(spans: &[Span], name: &str, own: bool) -> Vec<f64> {
    let selfs = if own {
        self_times_ns(spans)
    } else {
        Vec::new()
    };
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| if own { selfs[i] } else { s.duration_ns() } as f64)
        .collect()
}

/// Median duration (ns) of the spans called `name` — self time if
/// `own` — or 0 when the workload never entered that layer.
pub fn median_ns(spans: &[Span], name: &str, own: bool) -> f64 {
    crate::stats::median_or_zero(&durations(spans, name, own))
}

/// Per op, the summed duration (ns) of its spans called `name`, in op
/// order — for layers an op enters several times.
pub fn per_op_totals(spans: &[Span], name: &str) -> Vec<f64> {
    let mut totals = std::collections::BTreeMap::<u64, f64>::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *totals.entry(s.op).or_default() += s.duration_ns() as f64;
    }
    totals.into_values().collect()
}

/// `client.trace_overhead_ratio`: the median duration of the `root`
/// spans (one per op) over the same minus what recording the spans
/// inside it cost, priced at the measured cost of an empty span.
pub fn overhead_ratio(spans: &[Span], root: &str) -> f64 {
    let roots = durations(spans, root, false);
    if roots.is_empty() {
        return 0.0;
    }
    let traced = crate::stats::median(&roots);
    let per_op = spans.len() as f64 / roots.len() as f64;
    traced / (traced - per_op * empty_span_cost_ns()).max(1.0)
}

/// What recording one span costs, measured on a scratch tracer.
fn empty_span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let scratch = Tracer::new();
    let t0 = Instant::now();
    for _ in 0..N {
        scratch.span("empty", || {});
    }
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Writes the spans as one JSON document: a name table, then one
/// `[index, parent, op, name, start_ns, end_ns]` row per span
/// (`parent` is -1 for a root).
pub fn dump(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"time_unit\":\"ns\",\
         \"columns\":[\"index\",\"parent\",\"op\",\"name\",\"start\",\"end\"],\
         \"names\":[{}],\"spans\":[",
        quoted.join(",")
    )?;
    for (i, s) in spans.iter().enumerate() {
        let name = names.iter().position(|n| *n == s.name).expect("listed");
        let parent = s.parent.map_or(-1, |p| p as i64);
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\n[{i},{parent},{},{name},{},{}]",
            s.op, s.start_ns, s.end_ns
        )?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // request 0..100 { decode 10..30, handle 30..90 { body 40..80 } }
        let spans = [
            span("request", 0, 100, None),
            span("decode", 10, 30, Some(0)),
            span("handle", 30, 90, Some(0)),
            span("body", 40, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40]);
        assert_eq!(durations(&spans, "handle", false), vec![60.0]);
        assert_eq!(durations(&spans, "handle", true), vec![20.0]);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let t = Tracer::new();
        t.set_op(7);
        t.span("outer", || {
            t.span("inner", || {});
            t.span("inner", || {});
        });
        t.span("sibling", || {});
        let spans = t.spans();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("inner", Some(0), 7),
                ("sibling", None, 7)
            ]
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }
}
