//! The service stack as a replicated state machine.
//!
//! Satellite of DESIGN.md §13: [`StateMachine`] for [`ServiceStack`] is
//! the loop over [`ServiceStack::machines`] — a committed record goes to
//! the one machine whose journal owns its kind, a snapshot is every
//! machine's members in name order, and a restore decodes every
//! machine's members before it installs any. No subsystem is named
//! here: each one's replay and restore live with its codecs, in its own
//! module (DESIGN.md §8 "How a subsystem journals"). Single-node
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
use gae_durable::crc32::Crc32;
use gae_obs::ObsHub;
use gae_repl::{Mutation, ReplStats, ReplicationSink, StateMachine};
use gae_types::{GaeError, GaeResult, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

impl StateMachine for ServiceStack {
    /// Applies one committed journal record through the machine that
    /// owns its kind — the replay language the WAL has always spoken,
    /// shared verbatim with crash recovery.
    fn apply_mutation(&self, mutation: &Mutation) -> GaeResult<()> {
        let kind = mutation.kind.as_str();
        self.machines()
            .iter()
            .find(|m| m.owns().0.contains(&kind))
            .ok_or_else(|| GaeError::Parse(format!("unknown wal record kind {kind:?}")))?
            .apply(kind, &mutation.body)
    }

    /// A deterministic digest of the persisted state: the CRC of the
    /// canonical snapshot encoding.
    fn query_state(&self) -> String {
        let mut crc = Crc32::new();
        persist::encode_snapshot(&self.machines(), &mut crc)
            .expect("invariant: a checksum accepts every write");
        format!("{:08x}", crc.finish())
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut snapshot = Vec::new();
        persist::encode_snapshot(&self.machines(), &mut snapshot)
            .expect("invariant: a Vec accepts every write");
        snapshot
    }

    /// Restores every machine's members from a snapshot payload (no
    /// publication, no logging). Every member is decoded before any is
    /// installed, so a payload that fails to decode leaves the stack as
    /// it was; the one install that can fail runs first (see
    /// [`ServiceStack::machines`]).
    fn restore(&self, snapshot: &[u8]) -> GaeResult<()> {
        let doc = persist::decode_snapshot(snapshot)?;
        let machines = self.machines();
        let installs = machines
            .iter()
            .map(|m| m.decode(&doc))
            .collect::<GaeResult<Vec<_>>>()?;
        installs.into_iter().try_for_each(|install| install())?;
        Ok(())
    }
}

/// Wraps a [`ReplicationSink`] in observability: each commit roots a
/// `repl.commit` trace (deterministic id: the commit index), records
/// the streamed-record count as a span, and feeds the commit-to-commit
/// spacing — the window of schedule a failover could lose — into the
/// `repl:commit` histogram.
pub(crate) struct ObsSink {
    inner: Arc<dyn ReplicationSink>,
    hub: Arc<ObsHub>,
    last_commit_at: Mutex<SimTime>,
}

impl ObsSink {
    pub(crate) fn new(inner: Arc<dyn ReplicationSink>, hub: Arc<ObsHub>) -> Self {
        ObsSink {
            inner,
            hub,
            last_commit_at: Mutex::new(SimTime::ZERO),
        }
    }
}

impl ReplicationSink for ObsSink {
    fn on_commit(&self, commit_index: u64, records: &[Vec<u8>]) {
        self.inner.on_commit(commit_index, records);
        let now = self.hub.now();
        let spacing = {
            let mut last = self.last_commit_at.lock();
            let spacing = now.saturating_since(*last);
            *last = now;
            spacing
        };
        self.hub.record_repl("commit", spacing);
        let ctx = self.hub.repl_trace(commit_index, "repl.commit", now);
        self.hub
            .span_at(ctx, &format!("repl.stream#{}", records.len()), now);
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
