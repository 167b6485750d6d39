//! Per-task execution state inside a site.

use crate::node::Node;
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
    /// Occupying slot `slot` since `since`, the instant its record's
    /// `accrued` holds the work up to; completes at `finish`.
    Running {
        slot: u32,
        finish: SimTime,
        since: SimTime,
    },
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
    /// Wall-clock work accrued at this site (Condor's "wall-clock time
    /// accumulated while running") up to a running phase's `since`;
    /// written only when the task changes phase.
    pub(crate) accrued: SimDuration,
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
    /// The runtime "estimated at the time of task submission" (§6.2
    /// step c), if the submitter recorded one. Set once at submission,
    /// through [`ExecutionService::set_estimate`](crate::ExecutionService::set_estimate)
    /// so the site's backlog index follows, and kept for the record's life.
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
            .unwrap_or_else(|| spec.requested_runtime());
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
            demand,
            carried: accrued,
            priority,
            estimated: None,
        }
    }

    /// Moves into `phase` at `now`, materialising what a running task
    /// accrued on `nodes` since its anchor. A completion snaps it to
    /// the demand (the finish is analytic); a vacate folds it into the
    /// carried work if the task checkpoints — at most the demand, so
    /// `full_demand` stays the spec's — and drops it either way.
    pub(crate) fn enter(&mut self, phase: Phase, now: SimTime, nodes: &[Node]) {
        let vacated = phase == Phase::Queued && matches!(self.phase, Phase::Running { .. });
        self.accrued = self.usage(nodes, now).accrued;
        if vacated && self.spec.checkpointable {
            let done = self.accrued.min(self.demand);
            self.carried += done;
            self.demand -= done;
        }
        match phase {
            Phase::Running { .. } => _ = self.started_at.get_or_insert(now),
            Phase::Ended {
                status: TaskStatus::Completed,
                ..
            } => self.accrued = self.demand,
            _ if vacated => self.accrued = SimDuration::ZERO,
            _ => {}
        }
        self.phase = phase;
    }

    /// The record read at `now`: `accrued` plus, while it runs, one
    /// closed-form read of its node's trace over `[since, now]`.
    pub(crate) fn usage(&self, nodes: &[Node], now: SimTime) -> Usage<'_> {
        let mut accrued = self.accrued;
        if let Phase::Running { slot, since, .. } = self.phase {
            if let Some(node) = nodes.get(slot as usize) {
                accrued += node.accrued_between(since, now);
            }
        }
        Usage { rec: self, accrued }
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

    /// Total work the task needs across all incarnations.
    pub fn full_demand(&self) -> SimDuration {
        self.carried + self.demand
    }

    /// §6.2's "remaining estimated run time" once `accrued` has run:
    /// the submission-time estimate less it, clamped at zero. `None`
    /// without an estimate — such a task adds nothing to a queue-time sum.
    pub(crate) fn estimated_remaining(&self, accrued: SimDuration) -> Option<SimDuration> {
        self.estimated.map(|e| e.saturating_sub(accrued))
    }

    /// Elapsed wall time since first start (includes queue/suspend
    /// gaps), the "elapsed time" of the monitoring API.
    pub fn elapsed(&self, now: SimTime) -> SimDuration {
        match self.started_at {
            Some(s) => now.saturating_since(s),
            None => SimDuration::ZERO,
        }
    }
}

/// A task's work as of one instant, from
/// [`ExecutionService::usage`](crate::ExecutionService::usage).
#[derive(Clone, Copy, Debug)]
pub struct Usage<'a> {
    rec: &'a TaskRecord,
    accrued: SimDuration,
}

impl Usage<'_> {
    /// Wall-clock work accrued at this site.
    pub fn accrued(&self) -> SimDuration {
        self.accrued
    }

    /// Total wall-clock accumulated across incarnations (Condor's
    /// cumulative wall-clock counter).
    pub fn total_accrued(&self) -> SimDuration {
        self.rec.carried + self.accrued
    }

    /// Fraction of the *full* demand completed, in `[0, 1]` —
    /// carried checkpoint work counts.
    pub fn progress(&self) -> f64 {
        let full = self.rec.full_demand();
        if full == SimDuration::ZERO {
            1.0
        } else {
            (self.total_accrued().as_secs_f64() / full.as_secs_f64()).min(1.0)
        }
    }

    /// Bytes of input staged and of output written so far: input over
    /// the first half of the run, output over all of it (a simple but
    /// monotone model); nothing before the task first starts here.
    pub fn io(&self) -> (u64, u64) {
        if self.rec.started_at.is_none() {
            return (0, 0);
        }
        let (spec, p) = (&self.rec.spec, self.progress());
        let total_out: u64 = spec.output_files.iter().map(|f| f.size_bytes).sum();
        let input = (p * 2.0).min(1.0) * spec.input_bytes() as f64;
        (input as u64, (p * total_out as f64) as u64)
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

    /// The phase carries the instants, the slot and the accrual
    /// anchor, and the I/O counters are read-outs, so the record holds
    /// no copy of any of them: 112 B on 64-bit targets.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn record_holds_no_copies() {
        assert!(std::mem::size_of::<TaskRecord>() <= 112);
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
        let usage = r.usage(&[], SimTime::from_secs(10));
        assert_eq!(usage.accrued(), SimDuration::ZERO);
        assert_eq!(usage.progress(), 0.0);
        assert_eq!(r.elapsed(SimTime::from_secs(10)), SimDuration::ZERO);
        assert_eq!(r.submitted_at, SimTime::from_secs(5));
    }

    #[test]
    fn checkpoint_reduces_demand() {
        let ck = Checkpoint {
            accrued: SimDuration::from_secs(40),
        };
        let r = TaskRecord::new(CondorId::new(1), spec(100).into(), SimTime::ZERO, Some(ck));
        assert_eq!(r.demand, SimDuration::from_secs(60));
        assert_eq!(r.accrued, SimDuration::ZERO);
    }

    #[test]
    fn demand_falls_back_to_requested_hours() {
        let mut s = spec(0);
        s.true_cpu_demand = None;
        s.requested_cpu_hours = 0.5;
        let r = TaskRecord::new(CondorId::new(1), s.into(), SimTime::ZERO, None);
        assert_eq!(r.demand, SimDuration::from_secs(1800));
    }

    #[test]
    fn progress_and_remaining_track_accrual() {
        let mut r = TaskRecord::new(CondorId::new(1), spec(100).into(), SimTime::ZERO, None);
        r.estimated = Some(SimDuration::from_secs(90));
        r.accrued = SimDuration::from_secs(25);
        assert_eq!(r.usage(&[], SimTime::ZERO).progress(), 0.25);
        let left = r.estimated_remaining(r.accrued);
        assert_eq!(left, Some(SimDuration::from_secs(65)));
        r.accrued = SimDuration::from_secs(200); // over-accrual clamps
        assert_eq!(r.usage(&[], SimTime::ZERO).progress(), 1.0);
        assert_eq!(r.estimated_remaining(r.accrued), Some(SimDuration::ZERO));
    }

    #[test]
    fn zero_demand_is_complete() {
        let r = TaskRecord::new(
            CondorId::new(1),
            spec(0).with_cpu_demand(SimDuration::ZERO).into(),
            SimTime::ZERO,
            None,
        );
        assert_eq!(r.usage(&[], SimTime::ZERO).progress(), 1.0);
    }

    #[test]
    fn io_counters_follow_progress() {
        let mut s = spec(100);
        s.input_files = vec![FileRef::new("in", 1000)];
        s.output_files = vec![FileRef::new("out", 500)];
        let mut r = TaskRecord::new(CondorId::new(1), s.into(), SimTime::ZERO, None);
        r.accrued = SimDuration::from_secs(25);
        let io = |r: &TaskRecord| r.usage(&[], SimTime::ZERO).io();
        assert_eq!(io(&r), (0, 0), "nothing moves before the first start");
        r.started_at = Some(SimTime::ZERO);
        assert_eq!(io(&r), (500, 125)); // half the input staged at 25%
        r.accrued = SimDuration::from_secs(100);
        assert_eq!(io(&r), (1000, 500));
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
