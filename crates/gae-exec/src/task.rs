//! Per-task execution state inside a site.

use gae_types::{CondorId, NodeId, Priority, SimDuration, SimTime, TaskSpec, TaskStatus};
use std::sync::Arc;

/// Where a task stands at its site, with the instants and the node
/// slot that belong to that standing. Slot `i` is node `i + 1`, the
/// order the service builds its nodes in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Staging its input files until `until`, then queueing.
    Pending { until: SimTime },
    /// Waiting in the queue.
    Queued,
    /// Occupying slot `slot`; completes at `finish`.
    Running { slot: u32, finish: SimTime },
    /// Paused; keeps the slot it was running on, if it was running.
    Suspended { slot: Option<u32> },
    /// Completed, failed, killed or migrated away at `at`; `slot` is
    /// the one it held when it ended.
    Ended {
        status: TaskStatus,
        slot: Option<u32>,
        at: SimTime,
    },
}

impl Phase {
    /// The node slot this phase holds.
    pub(crate) fn slot(self) -> Option<usize> {
        match self {
            Phase::Ended { .. } => None,
            phase => phase.node_slot().map(|i| i as usize),
        }
    }

    /// The slot this phase holds, or for an ended task the one it held
    /// when it ended.
    pub(crate) fn node_slot(self) -> Option<u32> {
        match self {
            Phase::Running { slot, .. } => Some(slot),
            Phase::Suspended { slot } | Phase::Ended { slot, .. } => slot,
            Phase::Pending { .. } | Phase::Queued => None,
        }
    }
}

/// A checkpoint produced when a checkpointable task is removed for
/// migration: the accrued work travels to the new site.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Checkpoint {
    /// Work already completed (reference-CPU seconds).
    pub accrued: SimDuration,
}

/// The execution service's record of one task.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// The site-local (Condor) id.
    pub condor: CondorId,
    /// The task specification, shared with the plan that placed it.
    pub spec: Arc<TaskSpec>,
    /// When the task entered the site queue.
    pub submitted_at: SimTime,
    /// When it first started running, if ever.
    pub started_at: Option<SimTime>,
    /// Where it stands: the truth behind [`TaskRecord::status`],
    /// [`TaskRecord::node`] and [`TaskRecord::finished_at`]. Only
    /// [`TaskRecord::enter`] moves it to another phase.
    pub(crate) phase: Phase,
    /// Wall-clock work accrued up to `accrued_as_of` (Condor's
    /// "wall-clock time accumulated while running").
    pub accrued: SimDuration,
    /// Instant `accrued` was last brought up to date.
    pub accrued_as_of: SimTime,
    /// Remaining work demand (ground truth; spec demand minus any
    /// checkpoint carried in).
    pub demand: SimDuration,
    /// Work carried in via a checkpoint from a previous site (zero
    /// for fresh submissions). Like Condor flocking, the accumulated
    /// wall-clock of the previous incarnation travels with the job.
    pub carried: SimDuration,
    /// Current priority (may differ from `spec.priority` after a
    /// steering re-prioritisation).
    pub priority: Priority,
    /// Bytes of input staged in so far (grows with progress).
    pub input_io: u64,
    /// Bytes of output written so far (grows with progress).
    pub output_io: u64,
    /// The runtime "estimated at the time of task submission" (§6.2
    /// step c), if the submitter recorded one. Set and cleared through
    /// [`ExecutionService::set_estimate`](crate::ExecutionService::set_estimate)
    /// so the site's backlog index follows.
    pub estimated: Option<SimDuration>,
}

impl TaskRecord {
    /// Creates a queued record. `demand` falls back to the requested
    /// CPU-hours if the spec carries no ground truth (live mode).
    pub fn new(
        condor: CondorId,
        spec: Arc<TaskSpec>,
        now: SimTime,
        carried: Option<Checkpoint>,
    ) -> Self {
        let full_demand = spec
            .true_cpu_demand
            .unwrap_or_else(|| SimDuration::from_secs_f64(spec.requested_cpu_hours * 3600.0));
        let accrued = carried.map(|c| c.accrued).unwrap_or(SimDuration::ZERO);
        let demand = full_demand.saturating_sub(accrued);
        let priority = spec.priority;
        TaskRecord {
            condor,
            spec,
            submitted_at: now,
            started_at: None,
            phase: Phase::Queued,
            accrued: SimDuration::ZERO,
            accrued_as_of: now,
            demand,
            carried: accrued,
            priority,
            input_io: 0,
            output_io: 0,
            estimated: None,
        }
    }

    /// Moves into `phase` at `now`, stamping the first start.
    pub(crate) fn enter(&mut self, phase: Phase, now: SimTime) {
        self.phase = phase;
        if let Phase::Running { .. } = phase {
            self.started_at.get_or_insert(now);
        }
    }

    /// Current lifecycle state, as the monitoring surface reads it.
    pub fn status(&self) -> TaskStatus {
        match self.phase {
            Phase::Pending { .. } => TaskStatus::Pending,
            Phase::Queued => TaskStatus::Queued,
            Phase::Running { .. } => TaskStatus::Running,
            Phase::Suspended { .. } => TaskStatus::Suspended,
            Phase::Ended { status, .. } => status,
        }
    }

    /// Node hosting the task: the slot its phase holds, or for an
    /// ended task the one it held when it ended.
    pub fn node(&self) -> Option<NodeId> {
        self.phase
            .node_slot()
            .map(|i| NodeId::new(u64::from(i) + 1))
    }

    /// When it reached a terminal state, if it has.
    pub fn finished_at(&self) -> Option<SimTime> {
        match self.phase {
            Phase::Ended { at, .. } => Some(at),
            _ => None,
        }
    }

    /// Total work the task must accrue *at this site* to finish.
    pub fn site_demand(&self) -> SimDuration {
        self.demand
    }

    /// Work still missing as of the record's last update.
    pub fn remaining(&self) -> SimDuration {
        self.demand.saturating_sub(self.accrued)
    }

    /// §6.2's "remaining estimated run time": the submission-time
    /// estimate less the runtime accrued at this site, clamped at zero
    /// for a task that has outrun its estimate. `None` without an
    /// estimate — such a task adds nothing to a queue-time sum.
    pub fn estimated_remaining(&self) -> Option<SimDuration> {
        self.estimated.map(|e| e.saturating_sub(self.accrued))
    }

    /// Total work the task needs across all incarnations.
    pub fn full_demand(&self) -> SimDuration {
        self.carried + self.demand
    }

    /// Total wall-clock accumulated across incarnations (Condor's
    /// cumulative wall-clock counter).
    pub fn total_accrued(&self) -> SimDuration {
        self.carried + self.accrued
    }

    /// Fraction of the *full* demand completed, in `[0, 1]` —
    /// carried checkpoint work counts.
    pub fn progress(&self) -> f64 {
        let full = self.full_demand();
        if full == SimDuration::ZERO {
            1.0
        } else {
            (self.total_accrued().as_secs_f64() / full.as_secs_f64()).min(1.0)
        }
    }

    /// Elapsed wall time since first start (includes queue/suspend
    /// gaps), the "elapsed time" of the monitoring API.
    pub fn elapsed(&self, now: SimTime) -> SimDuration {
        match self.started_at {
            Some(s) => now.saturating_since(s),
            None => SimDuration::ZERO,
        }
    }

    /// Updates the I/O counters to match current progress: input is
    /// staged linearly over the first half of the run, output written
    /// linearly over the whole run (a simple but monotone model).
    pub fn update_io(&mut self) {
        let p = self.progress();
        let total_in = self.spec.input_bytes();
        let total_out: u64 = self.spec.output_files.iter().map(|f| f.size_bytes).sum();
        self.input_io = ((p * 2.0).min(1.0) * total_in as f64) as u64;
        self.output_io = (p * total_out as f64) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::{FileRef, TaskId};

    fn spec(demand_s: u64) -> TaskSpec {
        TaskSpec::new(TaskId::new(1), "t", "prime")
            .with_cpu_demand(SimDuration::from_secs(demand_s))
    }

    /// The phase carries the instants and the slot, so the record
    /// holds no copy of them: 136 B on 64-bit targets.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn record_holds_no_copies() {
        assert!(std::mem::size_of::<TaskRecord>() <= 136);
    }

    #[test]
    fn fresh_record_defaults() {
        let r = TaskRecord::new(
            CondorId::new(1),
            spec(100).into(),
            SimTime::from_secs(5),
            None,
        );
        assert_eq!(r.status(), TaskStatus::Queued);
        assert_eq!(r.remaining(), SimDuration::from_secs(100));
        assert_eq!(r.progress(), 0.0);
        assert_eq!(r.elapsed(SimTime::from_secs(10)), SimDuration::ZERO);
        assert_eq!(r.submitted_at, SimTime::from_secs(5));
    }

    #[test]
    fn checkpoint_reduces_demand() {
        let ck = Checkpoint {
            accrued: SimDuration::from_secs(40),
        };
        let r = TaskRecord::new(CondorId::new(1), spec(100).into(), SimTime::ZERO, Some(ck));
        assert_eq!(r.site_demand(), SimDuration::from_secs(60));
        assert_eq!(r.accrued, SimDuration::ZERO);
    }

    #[test]
    fn demand_falls_back_to_requested_hours() {
        let mut s = spec(0);
        s.true_cpu_demand = None;
        s.requested_cpu_hours = 0.5;
        let r = TaskRecord::new(CondorId::new(1), s.into(), SimTime::ZERO, None);
        assert_eq!(r.site_demand(), SimDuration::from_secs(1800));
    }

    #[test]
    fn progress_and_remaining_track_accrual() {
        let mut r = TaskRecord::new(CondorId::new(1), spec(100).into(), SimTime::ZERO, None);
        r.accrued = SimDuration::from_secs(25);
        assert_eq!(r.progress(), 0.25);
        assert_eq!(r.remaining(), SimDuration::from_secs(75));
        r.accrued = SimDuration::from_secs(200); // over-accrual clamps
        assert_eq!(r.progress(), 1.0);
        assert_eq!(r.remaining(), SimDuration::ZERO);
    }

    #[test]
    fn zero_demand_is_complete() {
        let r = TaskRecord::new(
            CondorId::new(1),
            spec(0).with_cpu_demand(SimDuration::ZERO).into(),
            SimTime::ZERO,
            None,
        );
        assert_eq!(r.progress(), 1.0);
    }

    #[test]
    fn io_counters_follow_progress() {
        let mut s = spec(100);
        s.input_files = vec![FileRef::new("in", 1000)];
        s.output_files = vec![FileRef::new("out", 500)];
        let mut r = TaskRecord::new(CondorId::new(1), s.into(), SimTime::ZERO, None);
        r.accrued = SimDuration::from_secs(25);
        r.update_io();
        assert_eq!(r.input_io, 500); // half the input staged at 25%
        assert_eq!(r.output_io, 125);
        r.accrued = SimDuration::from_secs(100);
        r.update_io();
        assert_eq!(r.input_io, 1000);
        assert_eq!(r.output_io, 500);
    }

    #[test]
    fn elapsed_counts_from_first_start() {
        let mut r = TaskRecord::new(CondorId::new(1), spec(100).into(), SimTime::ZERO, None);
        r.started_at = Some(SimTime::from_secs(10));
        assert_eq!(
            r.elapsed(SimTime::from_secs(25)),
            SimDuration::from_secs(15)
        );
        // Clock before start: saturates.
        assert_eq!(r.elapsed(SimTime::from_secs(5)), SimDuration::ZERO);
    }
}
