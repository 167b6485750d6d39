//! The service stack as a replicated state machine.
//!
//! Satellite of DESIGN.md §13: the ad-hoc replay paths — steering
//! plans/tasks/notifications, jobmon info, quota charges, xfer
//! journal ops, history-store ops — are one [`StateMachine`] here. Single-node
//! recovery ([`ServiceStack::recover_from_disk`]) and replication
//! followers drive the exact same code, which is why a promoted
//! follower's rebuilt schedule is byte-identical to what the dead
//! leader would have recovered to.
//!
//! [`ObsSink`] is the instrumentation shim
//! [`ServiceStack::attach_replication`] wraps around the real sink:
//! `repl.*` spans per commit and a commit-spacing histogram under
//! entity `repl`, measured on the grid's virtual clock.

use crate::grid::ServiceStack;
use crate::persist;
use gae_obs::ObsHub;
use gae_repl::{Mutation, ReplStats, ReplicationSink, StateMachine};
use gae_types::{GaeError, GaeResult, SimTime};
use gae_wire::Value;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

impl StateMachine for ServiceStack {
    /// Applies one committed journal record — the replay language the
    /// WAL has always spoken, shared verbatim with crash recovery.
    fn apply_mutation(&self, mutation: &Mutation) -> GaeResult<()> {
        let body = &mutation.body;
        match mutation.kind.as_str() {
            "jobmon" => {
                let info = crate::jobmon::JobMonitoringInfo::from_value(body)?;
                self.jobmon.replay_info(info);
            }
            "plan" => self
                .steering
                .replay_plan(persist::plan_from_record(body)?)?,
            "task" => {
                let (job, task) = persist::task_from_record(body)?;
                self.steering.replay_task(job, task);
            }
            "notified" => {
                let job = gae_types::JobId::new(body.member("job")?.as_u64()?);
                self.steering.replay_notified(job);
            }
            "charge" => self.quota.apply_charge(persist::charge_from_record(body)?),
            "xfer" => {
                let op = persist::xfer_from_record(body)?;
                self.grid.with_xfer(|x| x.apply_journal(&op));
            }
            "hist" => self.hist.replay(persist::hist_from_record(body)?),
            other => {
                return Err(GaeError::Parse(format!(
                    "unknown wal record kind {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// A deterministic digest of the persisted state: the CRC of the
    /// canonical snapshot encoding.
    fn query_state(&self) -> String {
        let mut crc = gae_durable::crc32::Crc32::new();
        persist::encode_snapshot(self, &mut crc).expect("a checksum accepts every write");
        format!("{:08x}", crc.finish())
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut snapshot = Vec::new();
        persist::encode_snapshot(self, &mut snapshot).expect("a Vec accepts every write");
        snapshot
    }

    /// Restores every persisted service from a snapshot payload (no
    /// publication, no logging).
    fn restore(&self, snapshot: &[u8]) -> GaeResult<()> {
        let snap = persist::decode_snapshot(snapshot)?;
        self.grid
            .monitor()
            .restore_events(snap.events, snap.evicted);
        self.grid
            .monitor()
            .restore_metrics(snap.metrics, snap.metrics_published);
        for info in snap.jobmon {
            self.jobmon.restore_info(info);
        }
        for job in snap.steering {
            self.steering.restore_job(job);
        }
        self.quota.restore(snap.balances, snap.ledger);
        self.grid.with_xfer(|x| x.restore(&snap.xfer));
        self.hist.restore(&snap.hist)?;
        Ok(())
    }
}

/// Wraps a [`ReplicationSink`] in observability: each commit roots a
/// `repl.commit` trace (deterministic id: the commit index), records
/// the applied-record count as a span, and feeds the commit-to-commit
/// spacing — the window of schedule a failover could lose — into the
/// `repl:commit` histogram.
pub(crate) struct ObsSink {
    inner: Arc<dyn ReplicationSink>,
    hub: Arc<ObsHub>,
    /// Records appended since the last commit (atomic: appends happen
    /// under service locks and must not take another).
    pending: AtomicU64,
    last_commit_at: Mutex<SimTime>,
}

impl ObsSink {
    pub(crate) fn new(inner: Arc<dyn ReplicationSink>, hub: Arc<ObsHub>) -> Self {
        ObsSink {
            inner,
            hub,
            pending: AtomicU64::new(0),
            last_commit_at: Mutex::new(SimTime::ZERO),
        }
    }
}

impl ReplicationSink for ObsSink {
    fn on_append(&self, kind: &str, body: &Value) {
        // No clock read here: appends can run under the xfer lock,
        // which must not re-enter the grid clock (see the observer
        // wiring in grid/stack.rs).
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.inner.on_append(kind, body);
    }

    fn on_commit(&self, commit_index: u64) {
        self.inner.on_commit(commit_index);
        let now = self.hub.now();
        let spacing = {
            let mut last = self.last_commit_at.lock();
            let spacing = now.saturating_since(*last);
            *last = now;
            spacing
        };
        self.hub.record_repl("commit", spacing);
        let streamed = self.pending.swap(0, Ordering::Relaxed);
        let ctx = self.hub.repl_trace(commit_index, "repl.commit", now);
        self.hub
            .span_at(ctx, &format!("repl.stream#{streamed}"), now);
        if self.inner.stats().commit_index >= commit_index {
            self.hub.span_at(ctx, "repl.quorum", now);
        } else {
            self.hub.span_at(ctx, "repl.stall", now);
        }
    }

    fn on_rotate(&self, commit_index: u64, record_seq: u64, snapshot: &[u8]) {
        self.inner.on_rotate(commit_index, record_seq, snapshot);
        let now = self.hub.now();
        let ctx = self.hub.repl_trace(commit_index, "repl.commit", now);
        self.hub.span_at(ctx, "repl.rotate", now);
    }

    fn stats(&self) -> ReplStats {
        self.inner.stats()
    }
}
