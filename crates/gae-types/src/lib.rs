//! Common vocabulary types for the Grid Analysis Environment (GAE).
//!
//! This crate defines the identifiers, time base, job/task model, job
//! plans, site descriptions, and error type shared by every other GAE
//! crate. It deliberately has **no dependencies** so that substrates
//! (execution service, scheduler, monitor) and the resource-management
//! services (steering, job monitoring, estimators) agree on one
//! vocabulary without pulling each other in.
//!
//! The model follows the ICPPW'05 paper *"Resource Management Services
//! for a Grid Analysis Environment"*:
//!
//! * a **job** is a DAG of **tasks** (the paper's "job plan" follows a
//!   directed acyclic graph structure, §2);
//! * a **concrete job plan** maps each task to the execution site that
//!   will run it (§4.2.1);
//! * **sites** host execution services with nodes, slots, a relative
//!   speed factor, and CPU-hour charge rates (used by the Quota and
//!   Accounting Service and the Optimizer, §4.2.2);
//! * all timestamps are [`SimTime`] microseconds so components can be
//!   driven either by the discrete-event simulator or by a real-time
//!   pump.

#![warn(missing_docs)]

pub mod error;
pub mod ids;
pub mod job;
pub mod plan;
pub mod priority;
pub mod site;
pub mod status;
pub mod time;

pub use error::{GaeError, GaeResult};
pub use ids::{CondorId, IdAllocator, JobId, NodeId, PlanId, SessionId, SiteId, TaskId, UserId};
pub use job::{JobSpec, JobType, TaskSpec};
pub use plan::{AbstractPlan, ConcretePlan, OptimizationPreference, TaskAssignment};
pub use priority::Priority;
pub use site::{FileRef, SiteDescription};
pub use status::{JobStatus, TaskStatus};
pub use time::{Clock, ManualClock, SimDuration, SimTime, WallClock};

/// Convenient glob-import of the most commonly used GAE types.
pub mod prelude {
    pub use crate::error::{GaeError, GaeResult};
    pub use crate::ids::{CondorId, JobId, NodeId, PlanId, SessionId, SiteId, TaskId, UserId};
    pub use crate::job::{JobSpec, JobType, TaskSpec};
    pub use crate::plan::{AbstractPlan, ConcretePlan, OptimizationPreference, TaskAssignment};
    pub use crate::priority::Priority;
    pub use crate::site::{FileRef, SiteDescription};
    pub use crate::status::{JobStatus, TaskStatus};
    pub use crate::time::{SimDuration, SimTime};
}
