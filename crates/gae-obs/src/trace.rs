//! Request-scoped trace contexts and the span store.
//!
//! A trace is one causal tree: a root span minted where a request
//! enters the system (the RPC door, or a task submission inside the
//! steering loop) plus child spans appended as the request crosses
//! services. Identifiers carry no wall-clock or random component —
//! door-minted traces count up from 1, job traces derive from the
//! TaskId — so the same workload yields byte-identical trees run to
//! run, and a task keeps one tree across every site it runs at.
//!
//! Only job traces (rooted through [`TraceStore::root_task`]) are
//! kept for the life of the store. Every other trace — door-minted,
//! joined through a client-chosen `X-GAE-Trace` id, `hist` / `repl` /
//! `xfer` — lives in a ring of the newest [`RING_CAPACITY`]: a server
//! answering requests for ever holds a bounded window of them.

use gae_types::SimTime;
use parking_lot::RwLock;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Traces the ring holds before the oldest is evicted. A constant, not
/// a knob: a request trace is ~350 B (root + `rpc.*` span and their
/// names), so 4,096 of them are ~1.5 MB, and at the door's measured
/// ~10,000 requests/s that is still the last ~400 ms of traffic — the
/// window a slow-request log reads.
pub const RING_CAPACITY: usize = 4096;

/// Identifies one causal tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

/// High bit marks TaskId-derived trace ids, keeping them disjoint
/// from the door's counter-minted ids.
const TASK_BIT: u64 = 1 << 63;

/// Second-highest bit marks transfer-derived trace ids (from the
/// transfer scheduler's sequential transfer ids), disjoint from both
/// of the families above.
const XFER_BIT: u64 = 1 << 62;

/// Third-highest bit marks replication-derived trace ids (from the
/// replicated log's commit indexes), disjoint from all the families
/// above.
const REPL_BIT: u64 = 1 << 61;

/// Fourth-highest bit marks history-query trace ids (from the history
/// facade's sequential query counter), disjoint from all the families
/// above.
const HIST_BIT: u64 = 1 << 60;

impl TraceId {
    /// Wraps a raw id (door-minted counters start at 1).
    pub const fn new(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The deterministic trace id of a submitted task, derived from
    /// its TaskId: unique across jobs and sites, where a CondorId is
    /// numbered per site.
    pub const fn for_task(task_raw: u64) -> Self {
        TraceId(task_raw | TASK_BIT)
    }

    /// The deterministic trace id of a managed transfer, derived from
    /// the transfer scheduler's sequential transfer id.
    pub const fn for_xfer(transfer_id: u64) -> Self {
        TraceId(transfer_id | XFER_BIT)
    }

    /// The deterministic trace id of a replicated-log commit, derived
    /// from the leader's commit index.
    pub const fn for_repl(commit_index: u64) -> Self {
        TraceId(commit_index | REPL_BIT)
    }

    /// The deterministic trace id of a history query, derived from the
    /// history facade's sequential query counter.
    pub const fn for_hist(query_id: u64) -> Self {
        TraceId(query_id | HIST_BIT)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// Identifies one span within its trace; ids are assigned
/// sequentially from 1, the root is always span 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The root span of every trace.
    pub const ROOT: SpanId = SpanId(1);

    /// Wraps a raw id.
    pub const fn new(raw: u64) -> Self {
        SpanId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The pair a request carries across the wire: which tree it belongs
/// to and which span is its immediate parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The causal tree.
    pub trace: TraceId,
    /// The span new work should attach under.
    pub span: SpanId,
}

impl TraceContext {
    /// Wire encoding, carried in the `X-GAE-Trace` header.
    pub fn encode(&self) -> String {
        format!("{:x}:{:x}", self.trace.0, self.span.0)
    }

    /// Parses the wire encoding; `None` on malformed input.
    pub fn parse(s: &str) -> Option<TraceContext> {
        let (t, sp) = s.trim().split_once(':')?;
        Some(TraceContext {
            trace: TraceId(u64::from_str_radix(t, 16).ok()?),
            span: SpanId(u64::from_str_radix(sp, 16).ok()?),
        })
    }
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The tree this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span (`None` for the root).
    pub parent: Option<SpanId>,
    /// What the span covers (e.g. `steer.submit`, `exec.run`).
    pub name: String,
    /// When the spanned work began.
    pub start: SimTime,
    /// When it ended.
    pub end: SimTime,
}

/// The traces themselves, both families behind one lock.
#[derive(Default)]
struct Traces {
    /// TaskId-bound job traces: never evicted.
    jobs: HashMap<TraceId, Vec<SpanRecord>>,
    /// Every other trace, at most [`RING_CAPACITY`] of them, oldest
    /// first; a trace's id is its root span's.
    ring: VecDeque<Vec<SpanRecord>>,
    /// Ring trace → the sequence number it entered under; the trace
    /// with number `n` sits at `ring[n - ring_base]`.
    ring_index: HashMap<TraceId, u64>,
    /// Sequence number of `ring[0]` — which is also the number of
    /// traces evicted so far.
    ring_base: u64,
}

impl Traces {
    fn get(&self, trace: TraceId) -> Option<&Vec<SpanRecord>> {
        self.jobs.get(&trace).or_else(|| {
            let seq = self.ring_index.get(&trace)?;
            self.ring.get((seq - self.ring_base) as usize)
        })
    }

    /// The spans of `trace`, which — unless it is a job trace — enters
    /// the ring as `fresh()` when absent, evicting the oldest entry of
    /// a full ring.
    fn entry(
        &mut self,
        trace: TraceId,
        fresh: impl FnOnce() -> SpanRecord,
    ) -> &mut Vec<SpanRecord> {
        // Only ids with the TaskId bit can be job traces; the door's
        // counter ids skip the probe.
        if trace.0 & TASK_BIT != 0 && self.jobs.contains_key(&trace) {
            return self
                .jobs
                .get_mut(&trace)
                .expect("invariant: contains_key held under this &mut");
        }
        let next = self.ring_base + self.ring.len() as u64;
        let seq = *self.ring_index.entry(trace).or_insert(next);
        if seq == next {
            self.ring.push_back(vec![fresh()]);
            if self.ring.len() > RING_CAPACITY {
                let oldest = self
                    .ring
                    .pop_front()
                    .expect("invariant: a ring over capacity is non-empty");
                self.ring_index.remove(&oldest[0].trace);
                self.ring_base += 1;
            }
        }
        &mut self.ring[(seq - self.ring_base) as usize]
    }
}

/// The span repository: job traces and the ring of request traces.
#[derive(Default)]
pub struct TraceStore {
    traces: RwLock<Traces>,
}

impl TraceStore {
    /// An empty store. Allocates nothing: the ring grows with use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `trace` has a root span (creating one named `name`
    /// starting at `at` if absent) and returns the context new child
    /// spans should attach under. A trace created here lives in the
    /// ring.
    pub fn root(&self, trace: TraceId, name: &str, at: SimTime) -> TraceContext {
        self.traces
            .write()
            .entry(trace, || root_span(trace, name, at, at));
        TraceContext {
            trace,
            span: SpanId::ROOT,
        }
    }

    /// [`Self::root`] for the trace of a submitted task: derived from
    /// its TaskId, and kept for the life of the store.
    pub fn root_task(&self, task_raw: u64, name: &str, at: SimTime) -> TraceContext {
        let trace = TraceId::for_task(task_raw);
        self.traces
            .write()
            .jobs
            .entry(trace)
            .or_insert_with(|| vec![root_span(trace, name, at, at)]);
        TraceContext {
            trace,
            span: SpanId::ROOT,
        }
    }

    /// Appends a child span under `ctx` and stretches the root to
    /// cover it; span ids are assigned in recording order. Recording
    /// into a trace with no root — never rooted, or evicted since —
    /// starts one in the ring spanning the child.
    pub fn child(&self, ctx: TraceContext, name: &str, start: SimTime, end: SimTime) -> SpanId {
        let mut traces = self.traces.write();
        let spans = traces.entry(ctx.trace, || root_span(ctx.trace, "trace", start, end));
        let id = SpanId(spans.len() as u64 + 1);
        spans.push(SpanRecord {
            trace: ctx.trace,
            span: id,
            parent: Some(ctx.span),
            name: name.to_string(),
            start,
            end,
        });
        let root = &mut spans[0];
        root.end = root.end.max(end);
        root.start = root.start.min(start);
        id
    }

    /// Traces the ring has dropped to make room since start-up.
    pub fn evicted(&self) -> u64 {
        self.traces.read().ring_base
    }

    /// The job trace of a task, if one was rooted: a ring trace that
    /// merely carries the TaskId bit is not one.
    pub fn trace_for_task(&self, task_raw: u64) -> Option<TraceId> {
        let trace = TraceId::for_task(task_raw);
        self.traces
            .read()
            .jobs
            .contains_key(&trace)
            .then_some(trace)
    }

    /// Every span of a trace in span-id order; `None` for an unknown
    /// trace, an evicted one included.
    pub fn spans(&self, trace: TraceId) -> Option<Vec<SpanRecord>> {
        self.traces.read().get(trace).cloned()
    }

    /// Number of held traces (job traces plus the ring).
    pub fn len(&self) -> usize {
        let traces = self.traces.read();
        traces.jobs.len() + traces.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable tree dump, deterministic: children in span-id
    /// order, instants in microseconds on the trace's own timeline.
    pub fn render(&self, trace: TraceId) -> Option<String> {
        let spans = self.spans(trace)?;
        let mut out = format!("trace {} ({} spans)\n", trace, spans.len());
        fn walk(out: &mut String, spans: &[SpanRecord], parent: SpanId, depth: usize) {
            for s in spans.iter().filter(|s| s.parent == Some(parent)) {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!(
                    "- {} [{}us..{}us]\n",
                    s.name,
                    s.start.as_micros(),
                    s.end.as_micros()
                ));
                walk(out, spans, s.span, depth + 1);
            }
        }
        if let Some(root) = spans.iter().find(|s| s.parent.is_none()) {
            out.push_str(&format!(
                "- {} [{}us..{}us]\n",
                root.name,
                root.start.as_micros(),
                root.end.as_micros()
            ));
            walk(&mut out, &spans, root.span, 1);
        }
        Some(out)
    }
}

fn root_span(trace: TraceId, name: &str, start: SimTime, end: SimTime) -> SpanRecord {
    SpanRecord {
        trace,
        span: SpanId::ROOT,
        parent: None,
        name: name.to_string(),
        start,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_wire_roundtrip() {
        let ctx = TraceContext {
            trace: TraceId::for_task(42),
            span: SpanId::new(7),
        };
        assert_eq!(TraceContext::parse(&ctx.encode()), Some(ctx));
        assert_eq!(TraceContext::parse("junk"), None);
        assert_eq!(TraceContext::parse("12:zz"), None);
    }

    #[test]
    fn task_ids_are_disjoint_from_counter_ids() {
        assert_ne!(TraceId::for_task(1), TraceId::new(1));
        assert_eq!(TraceId::for_task(5).raw() & !TASK_BIT, 5);
    }

    #[test]
    fn xfer_ids_are_disjoint_from_both_families() {
        assert_ne!(TraceId::for_xfer(1), TraceId::new(1));
        assert_ne!(TraceId::for_xfer(1), TraceId::for_task(1));
        assert_eq!(TraceId::for_xfer(5).raw() & !XFER_BIT, 5);
    }

    #[test]
    fn repl_ids_are_disjoint_from_every_family() {
        assert_ne!(TraceId::for_repl(1), TraceId::new(1));
        assert_ne!(TraceId::for_repl(1), TraceId::for_task(1));
        assert_ne!(TraceId::for_repl(1), TraceId::for_xfer(1));
        assert_eq!(TraceId::for_repl(5).raw() & !REPL_BIT, 5);
    }

    #[test]
    fn hist_ids_are_disjoint_from_every_family() {
        assert_ne!(TraceId::for_hist(1), TraceId::new(1));
        assert_ne!(TraceId::for_hist(1), TraceId::for_task(1));
        assert_ne!(TraceId::for_hist(1), TraceId::for_xfer(1));
        assert_ne!(TraceId::for_hist(1), TraceId::for_repl(1));
        assert_eq!(TraceId::for_hist(5).raw() & !HIST_BIT, 5);
    }

    #[test]
    fn root_is_created_once_and_stretched() {
        let store = TraceStore::new();
        let t = TraceId::new(1);
        let ctx = store.root(t, "job", SimTime::from_micros(10));
        assert_eq!(ctx.span, SpanId::ROOT);
        // Re-rooting is a no-op.
        store.root(t, "other", SimTime::from_micros(50));
        store.child(
            ctx,
            "work",
            SimTime::from_micros(20),
            SimTime::from_micros(90),
        );
        let spans = store.spans(t).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "job");
        assert_eq!(spans[0].end, SimTime::from_micros(90), "root stretched");
        assert_eq!(spans[1].parent, Some(SpanId::ROOT));
    }

    #[test]
    fn task_binding_resolves() {
        let store = TraceStore::new();
        let t = store.root_task(9, "task", SimTime::ZERO).trace;
        assert_eq!(t, TraceId::for_task(9));
        assert_eq!(store.trace_for_task(9), Some(t));
        assert_eq!(store.trace_for_task(10), None);
    }

    #[test]
    fn render_is_a_connected_tree() {
        let store = TraceStore::new();
        let t = TraceId::new(3);
        let root = store.root(t, "task j1/t1", SimTime::ZERO);
        let sched = store.child(root, "schedule", SimTime::ZERO, SimTime::ZERO);
        store.child(
            TraceContext {
                trace: t,
                span: sched,
            },
            "gate.admit",
            SimTime::ZERO,
            SimTime::ZERO,
        );
        let text = store.render(t).unwrap();
        assert!(text.contains("trace 3 (3 spans)"), "{text}");
        assert!(text.contains("- task j1/t1"), "{text}");
        assert!(text.contains("  - schedule"), "{text}");
        assert!(text.contains("    - gate.admit"), "{text}");
    }

    const FLOOD: u64 = 50_000;

    #[test]
    fn rooted_traces_beyond_capacity_evict_the_oldest() {
        let store = TraceStore::new();
        for id in 1..=FLOOD {
            store.root(TraceId::new(id), "rpc", SimTime::ZERO);
        }
        assert_eq!(store.len(), RING_CAPACITY);
        assert_eq!(store.evicted(), FLOOD - RING_CAPACITY as u64);
        // The newest window survives; older ids read as unknown.
        let oldest_kept = FLOOD - RING_CAPACITY as u64 + 1;
        assert!(store.spans(TraceId::new(oldest_kept)).is_some());
        assert_eq!(store.spans(TraceId::new(oldest_kept - 1)), None);
        assert_eq!(store.spans(TraceId::new(1)), None);
        assert!(store.render(TraceId::new(1)).is_none());
        assert!(store.spans(TraceId::new(FLOOD)).is_some());
    }

    #[test]
    fn joined_ids_are_bounded_like_minted_ones() {
        // A client picks its own `X-GAE-Trace` ids: the door records
        // the dispatch span under each without ever rooting it.
        let store = TraceStore::new();
        for id in 1..=FLOOD {
            let ctx = TraceContext {
                trace: TraceId::new(id << 8),
                span: SpanId::ROOT,
            };
            store.child(ctx, "rpc.system.ping", SimTime::ZERO, SimTime::ZERO);
        }
        assert_eq!(store.len(), RING_CAPACITY);
        assert_eq!(store.evicted(), FLOOD - RING_CAPACITY as u64);
    }

    #[test]
    fn job_traces_outlive_any_flood() {
        let store = TraceStore::new();
        let job = store.root_task(7, "task j1/t1", SimTime::ZERO);
        store.child(job, "exec.run", SimTime::ZERO, SimTime::from_micros(5));
        for id in 1..=FLOOD {
            store.root(TraceId::new(id), "rpc", SimTime::ZERO);
        }
        assert_eq!(store.len(), RING_CAPACITY + 1);
        assert_eq!(store.trace_for_task(7), Some(job.trace));
        let spans = store.spans(job.trace).expect("never evicted");
        assert_eq!(spans.len(), 2);
        // Still appendable, and appending evicts nothing.
        let before = store.evicted();
        store.child(job, "steer.collect", SimTime::ZERO, SimTime::ZERO);
        assert_eq!(store.evicted(), before);
        assert_eq!(store.spans(job.trace).unwrap().len(), 3);
    }

    #[test]
    fn a_task_shaped_id_nobody_submitted_lands_in_the_ring() {
        // The TaskId bit alone buys no residency: only
        // `root_task` does, so a client cannot grow `jobs`.
        let store = TraceStore::new();
        for raw in 1..=FLOOD {
            let ctx = TraceContext {
                trace: TraceId::for_task(raw),
                span: SpanId::ROOT,
            };
            store.child(ctx, "rpc.system.ping", SimTime::ZERO, SimTime::ZERO);
        }
        assert_eq!(store.len(), RING_CAPACITY);
        assert_eq!(store.trace_for_task(1), None);
    }

    #[test]
    fn child_of_an_evicted_trace_starts_a_fresh_entry() {
        let store = TraceStore::new();
        let first = store.root(TraceId::new(1), "rpc", SimTime::ZERO);
        for id in 2..=RING_CAPACITY as u64 + 1 {
            store.root(TraceId::new(id), "rpc", SimTime::ZERO);
        }
        assert_eq!(store.spans(first.trace), None, "evicted");
        let at = SimTime::from_micros(9);
        let span = store.child(first, "late", at, at);
        assert_eq!(span, SpanId::new(2));
        let spans = store.spans(first.trace).expect("fresh entry");
        assert_eq!(spans[0].name, "trace", "a stand-in root, not the old one");
        assert_eq!(spans[0].start, at);
        assert_eq!(store.len(), RING_CAPACITY);
    }
}
