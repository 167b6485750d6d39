//! Condor-substitute execution service for the GAE.
//!
//! The paper's Job Monitoring Service "operat\[es\] in close interaction
//! with an execution service (which can be based on any execution
//! engine such as Condor)" (§3). This crate provides that engine as a
//! deterministic simulation with exactly the observables the paper's
//! services consume:
//!
//! * **Condor IDs** for queued/running tasks (§6.2 step a);
//! * a priority queue, the submission-time runtime estimate on each
//!   task's record, and — indexed, so it costs a lookup — the sum the
//!   queue-time estimator wants of them (§6.2):
//!   [`ExecutionService::backlog_above`];
//! * per-task **accumulated wall-clock time** that, like Condor's,
//!   "does not include the time during which the job is idle and
//!   waiting for the CPU" (§7) — accrual follows each node's external
//!   [`LoadTrace`](gae_sim::LoadTrace) analytically;
//! * job control: suspend, resume, kill, re-prioritise, and removal
//!   for migration (with checkpoint transfer when the task allows it);
//! * failure injection at node and site granularity, so the steering
//!   service's Backup & Recovery module (§4.2.4) has something to
//!   recover from;
//! * CPU-time and I/O accounting for the monitoring API (§5).
//!
//! The service is a *passive* state machine: callers drive it with
//! explicit `advance_to(now)` calls (the discrete-event engine in
//! simulation, a timer in live mode) and read `next_event_time()` to
//! know when something interesting happens next.

#![warn(missing_docs)]

mod backlog;
pub mod events;
pub mod node;
pub mod queue;
pub mod service;
pub mod task;

pub use events::ExecEvent;
pub use node::Node;
pub use queue::PriorityQueue;
pub use service::{ExecutionService, Progress, SiteConfig, TaskProbe};
pub use task::{Checkpoint, TaskRecord, Usage};
