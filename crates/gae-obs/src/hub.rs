//! The [`ObsHub`]: one shared handle bundling the trace store, the
//! latency histograms, and the lifecycle timelines around a single
//! injected clock. The composition root builds one per deployment
//! and hands clones to the RPC host, the gate wiring, steering, and
//! jobmon.

use crate::hist::{HistogramSet, HistogramSnapshot};
use crate::timeline::{Timeline, TimelineEvent, TimelineStore};
use crate::trace::{SpanId, TraceContext, TraceId, TraceStore};
use gae_types::Clock;
use gae_types::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The deployment-wide observability hub.
pub struct ObsHub {
    clock: Arc<dyn Clock>,
    traces: TraceStore,
    rpc: HistogramSet,
    gate: HistogramSet,
    xfer: HistogramSet,
    repl: HistogramSet,
    hist: HistogramSet,
    timelines: TimelineStore,
    next_trace: AtomicU64,
}

impl ObsHub {
    /// A hub measuring on `clock`'s timeline.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<ObsHub> {
        Arc::new(ObsHub {
            clock,
            traces: TraceStore::new(),
            rpc: HistogramSet::new(),
            gate: HistogramSet::new(),
            xfer: HistogramSet::new(),
            repl: HistogramSet::new(),
            hist: HistogramSet::new(),
            timelines: TimelineStore::new(),
            next_trace: AtomicU64::new(1),
        })
    }

    /// The current instant on the hub's clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    // ---- traces ----

    /// Mints a fresh door trace (sequential ids, deterministic given
    /// a deterministic call order) rooted at `name`.
    pub fn mint_trace(&self, name: &str) -> TraceContext {
        let id = TraceId::new(self.next_trace.fetch_add(1, Ordering::Relaxed));
        self.traces.root(id, name, self.now())
    }

    /// The deterministic trace of a task submission, rooted on first
    /// use (both driver modes derive the same id from the CondorId).
    pub fn condor_trace(&self, condor_raw: u64, name: &str, at: SimTime) -> TraceContext {
        self.traces.root_condor(condor_raw, name, at)
    }

    /// The deterministic trace of a managed transfer, rooted on first
    /// use (derived from the transfer scheduler's sequential id).
    pub fn xfer_trace(&self, transfer_id: u64, name: &str, at: SimTime) -> TraceContext {
        self.traces.root(TraceId::for_xfer(transfer_id), name, at)
    }

    /// The deterministic trace of a replicated-log commit, rooted on
    /// first use (derived from the leader's commit index).
    pub fn repl_trace(&self, commit_index: u64, name: &str, at: SimTime) -> TraceContext {
        self.traces.root(TraceId::for_repl(commit_index), name, at)
    }

    /// The deterministic trace of a history query, rooted on first use
    /// (derived from the history facade's sequential query counter).
    pub fn hist_trace(&self, query_id: u64, name: &str, at: SimTime) -> TraceContext {
        self.traces.root(TraceId::for_hist(query_id), name, at)
    }

    /// Appends a child span under `ctx`.
    pub fn span(&self, ctx: TraceContext, name: &str, start: SimTime, end: SimTime) -> SpanId {
        self.traces.child(ctx, name, start, end)
    }

    /// Appends a zero-width child span at `at`.
    pub fn span_at(&self, ctx: TraceContext, name: &str, at: SimTime) -> SpanId {
        self.traces.child(ctx, name, at, at)
    }

    /// The span store (RPC facades and tests read through this).
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    // ---- histograms ----

    /// Records one RPC's server-side latency under its full method
    /// name (`service.method`).
    pub fn record_rpc(&self, method: &str, latency: SimDuration) {
        self.rpc.record(method, latency);
    }

    /// Records the queue latency of one gate disposition (`run`,
    /// `shed`, `expired`, ...).
    pub fn record_gate(&self, disposition: &str, latency: SimDuration) {
        self.gate.record(disposition, latency);
    }

    /// Per-method latency snapshots, method-sorted.
    pub fn rpc_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.rpc.snapshot()
    }

    /// Per-disposition latency snapshots, disposition-sorted.
    pub fn gate_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.gate.snapshot()
    }

    /// Records one landed transfer's request-to-arrival latency under
    /// its directed link (`"from->to"`).
    pub fn record_xfer(&self, link: &str, latency: SimDuration) {
        self.xfer.record(link, latency);
    }

    /// Per-link transfer latency snapshots, link-sorted.
    pub fn xfer_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.xfer.snapshot()
    }

    /// Records one replication operation's latency (`commit` =
    /// leader-commit to leader-commit spacing, i.e. the window a
    /// failover could lose; `rotate` = snapshot forwarding).
    pub fn record_repl(&self, op: &str, latency: SimDuration) {
        self.repl.record(op, latency);
    }

    /// Per-operation replication latency snapshots, op-sorted.
    pub fn repl_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.repl.snapshot()
    }

    /// Records one history-facade call's wall-clock service time under
    /// its method (`query`, `export`, `stats`).
    pub fn record_hist(&self, method: &str, latency: SimDuration) {
        self.hist.record(method, latency);
    }

    /// Per-method history latency snapshots, method-sorted.
    pub fn hist_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.hist.snapshot()
    }

    // ---- timelines ----

    /// Marks a lifecycle instant for a CondorId at an explicit time
    /// (first write per event wins, so WAL replay cannot shift it).
    pub fn mark_at(&self, condor_raw: u64, event: TimelineEvent, at: SimTime) {
        self.timelines.mark(condor_raw, event, at);
    }

    /// Marks a lifecycle instant at the hub clock's now.
    pub fn mark(&self, condor_raw: u64, event: TimelineEvent) {
        self.mark_at(condor_raw, event, self.now());
    }

    /// The timeline of one CondorId.
    pub fn timeline(&self, condor_raw: u64) -> Option<Timeline> {
        self.timelines.get(condor_raw)
    }

    /// The timeline store (renders, exports).
    pub fn timelines(&self) -> &TimelineStore {
        &self.timelines
    }

    // ---- text dumps ----

    /// Human-readable dump of one CondorId: its trace tree and
    /// lifecycle timeline.
    pub fn render_condor(&self, condor_raw: u64) -> Option<String> {
        let trace = self.traces.trace_for_condor(condor_raw)?;
        let mut out = self.traces.render(trace)?;
        if let Some(tl) = self.timelines.render(condor_raw) {
            out.push_str(&tl);
        }
        Some(out)
    }

    /// Human-readable per-method latency table (bench bins print
    /// this).
    pub fn render_histograms(&self) -> String {
        let mut out =
            String::from("method                     count    p50us    p95us    p99us    maxus\n");
        for (name, s) in self.rpc_snapshot() {
            out.push_str(&format!(
                "{name:<24} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
            ));
        }
        for (name, s) in self.gate_snapshot() {
            out.push_str(&format!(
                "gate:{name:<19} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
            ));
        }
        for (name, s) in self.xfer_snapshot() {
            out.push_str(&format!(
                "xfer:{name:<19} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
            ));
        }
        for (name, s) in self.repl_snapshot() {
            out.push_str(&format!(
                "repl:{name:<19} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
            ));
        }
        for (name, s) in self.hist_snapshot() {
            out.push_str(&format!(
                "hist:{name:<19} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::ManualClock;

    fn hub() -> (Arc<ObsHub>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        (ObsHub::new(clock.clone()), clock)
    }

    #[test]
    fn minted_traces_are_sequential() {
        let (hub, _) = hub();
        let a = hub.mint_trace("rpc");
        let b = hub.mint_trace("rpc");
        assert_eq!(a.trace.raw(), 1);
        assert_eq!(b.trace.raw(), 2);
    }

    #[test]
    fn minted_traces_live_in_the_ring_and_job_traces_do_not() {
        use crate::trace::RING_CAPACITY;
        let (hub, _) = hub();
        let job = hub.condor_trace(7, "task", hub.now());
        let rendered = hub.render_condor(7).expect("rooted");
        const MINTED: u64 = 50_000;
        for _ in 0..MINTED {
            hub.mint_trace("jobmon.job_info");
        }
        assert_eq!(hub.traces().len(), RING_CAPACITY + 1);
        assert_eq!(hub.traces().evicted(), MINTED - RING_CAPACITY as u64);
        assert!(hub.traces().spans(TraceId::new(1)).is_none(), "evicted");
        assert!(hub.traces().spans(TraceId::new(MINTED)).is_some());
        assert_eq!(hub.render_condor(7).as_deref(), Some(&rendered[..]));
        assert_eq!(hub.traces().trace_for_condor(7), Some(job.trace));
    }

    #[test]
    fn condor_trace_is_stable_and_indexed() {
        let (hub, clock) = hub();
        clock.advance_micros(100);
        let a = hub.condor_trace(7, "task", hub.now());
        let b = hub.condor_trace(7, "task", hub.now());
        assert_eq!(a, b);
        assert!(hub.render_condor(7).is_some());
        assert!(hub.render_condor(8).is_none());
    }

    #[test]
    fn histogram_table_renders_all_families() {
        let (hub, _) = hub();
        hub.record_rpc("steer.submit", SimDuration::from_micros(40));
        hub.record_gate("run", SimDuration::from_micros(3));
        hub.record_xfer("1->2", SimDuration::from_secs(8));
        hub.record_repl("commit", SimDuration::from_secs(15));
        hub.record_hist("query", SimDuration::from_micros(700));
        let table = hub.render_histograms();
        assert!(table.contains("steer.submit"), "{table}");
        assert!(table.contains("gate:run"), "{table}");
        assert!(table.contains("xfer:1->2"), "{table}");
        assert!(table.contains("repl:commit"), "{table}");
        assert!(table.contains("hist:query"), "{table}");
    }

    #[test]
    fn timeline_marks_use_clock() {
        let (hub, clock) = hub();
        hub.mark(5, TimelineEvent::Submit);
        clock.advance_micros(250);
        hub.mark(5, TimelineEvent::Complete);
        let tl = hub.timeline(5).unwrap();
        assert_eq!(tl.instant(TimelineEvent::Submit), Some(SimTime::ZERO));
        assert_eq!(
            tl.instant(TimelineEvent::Complete),
            Some(SimTime::from_micros(250))
        );
    }
}
