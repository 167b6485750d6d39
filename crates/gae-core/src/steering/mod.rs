//! The Steering Service (§4): "allows users to interact with
//! submitted jobs ... kill, pause, and resume, change priority of the
//! job or moving the job to some other execution site", with
//! autonomous optimization and failure recovery.
//!
//! Component mapping (Figure 2):
//!
//! * **Subscriber** ([`state`]) — ingests concrete job plans from the
//!   scheduler and tracks which execution services host which tasks;
//! * **Command Processor** ([`service`], `command` methods) — client
//!   job control, with redirection requests routed to the scheduler;
//! * **Optimizer** ([`service`], `optimize`/`move` paths) — finds the
//!   "Best Site" under the *cheap* or *fast* preference using the
//!   Quota and Accounting Service and the Estimators;
//! * **Backup & Recovery** ([`service`], `poll` path) — watches the
//!   execution services for failure, has the scheduler re-allocate,
//!   resubmits, and notifies the client;
//! * **Session Manager** ([`session`]) — "makes sure that the
//!   authorized users steer the jobs".

mod round;
pub mod rpc;
#[allow(clippy::module_inception)]
pub mod service;
pub mod session;
pub mod state;

pub use rpc::SteeringRpc;
pub use service::{
    ExecutionState, MoveReason, MoveRecord, Notification, SteeringCommand, SteeringService,
};
pub use session::JobAuthorizer;
pub use state::{TaskPhase, TrackedJob};

use gae_types::{OptimizationPreference, SimDuration};

/// Tunables of the steering loop.
#[derive(Clone, Copy, Debug)]
pub struct SteeringPolicy {
    /// Whether the Optimizer may move slow jobs autonomously (the
    /// paper's Figure 7 behaviour; users "could have moved the job
    /// ... manually as well").
    pub auto_move: bool,
    /// Minimum elapsed observation before judging a task slow.
    pub min_observation: SimDuration,
    /// Move when accrual rate (CPU time / elapsed) drops below this.
    pub slow_rate_threshold: f64,
    /// Default optimization preference for autonomous decisions.
    pub preference: OptimizationPreference,
    /// How many times Backup & Recovery resubmits a failing task
    /// before declaring the job failed.
    pub max_recovery_attempts: u32,
    /// Price migrations with transfer cost: when a slow task has
    /// staged inputs, the Optimizer only moves it if the candidate
    /// site still wins after re-staging those inputs over the live
    /// link estimate (queue + transfer + loaded execution), with a
    /// 20 % margin. Tasks without inputs are unaffected.
    pub xfer_aware: bool,
}

impl Default for SteeringPolicy {
    fn default() -> Self {
        SteeringPolicy {
            auto_move: true,
            min_observation: SimDuration::from_secs(60),
            slow_rate_threshold: 0.5,
            preference: OptimizationPreference::Fast,
            max_recovery_attempts: 3,
            xfer_aware: true,
        }
    }
}

impl SteeringPolicy {
    /// A policy with autonomous optimization disabled (manual
    /// steering only).
    pub fn manual() -> Self {
        SteeringPolicy {
            auto_move: false,
            ..Self::default()
        }
    }
}
