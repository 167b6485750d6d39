//! Events emitted by the execution service.
//!
//! The Job Information Collector "monitors the job execution and
//! whenever the job is completed or terminated due to an error, it
//! sends an update request to the DBManager" (§5.2); it learns about
//! those moments by draining this event stream.

use gae_types::{CondorId, NodeId, SimTime, TaskId, TaskStatus};

/// A state change inside an execution site.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecEvent {
    /// Site-local emission order, starting at 0 and never reused.
    /// Together with the site id this totally orders events across the
    /// grid: `Grid::drain_events` yields them in `(site, seq)` order.
    pub seq: u64,
    /// When it happened (virtual time).
    pub at: SimTime,
    /// Site-local id of the task.
    pub condor: CondorId,
    /// Global task id.
    pub task: TaskId,
    /// New lifecycle state.
    pub status: TaskStatus,
    /// Hosting node, when applicable.
    pub node: Option<NodeId>,
    /// Human-readable detail ("node node-3 failed", "killed by user").
    pub detail: String,
}

impl ExecEvent {
    /// True for completion/failure/kill — the transitions DBManager
    /// must persist.
    pub fn is_terminal(&self) -> bool {
        self.status.is_terminal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_detection() {
        let mk = |status| ExecEvent {
            seq: 0,
            at: SimTime::ZERO,
            condor: CondorId::new(1),
            task: TaskId::new(1),
            status,
            node: None,
            detail: String::new(),
        };
        assert!(mk(TaskStatus::Completed).is_terminal());
        assert!(mk(TaskStatus::Failed).is_terminal());
        assert!(mk(TaskStatus::Killed).is_terminal());
        assert!(!mk(TaskStatus::Running).is_terminal());
        assert!(!mk(TaskStatus::Queued).is_terminal());
    }
}
