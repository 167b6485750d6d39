//! # gae — Resource Management Services for a Grid Analysis Environment
//!
//! A full Rust reproduction of the ICPPW'05 paper *"Resource
//! Management Services for a Grid Analysis Environment"* (Ali et
//! al.): the Steering Service, Job Monitoring Service and Estimator
//! Service, together with every substrate they need — a Clarens-style
//! XML-RPC web-service framework, a Condor-style execution service, a
//! Sphinx-style scheduler, a MonALISA-style monitoring repository, a
//! discrete-event grid simulator, and a synthetic SDSC-Paragon
//! accounting-trace generator.
//!
//! This crate is the facade: it re-exports the whole workspace under
//! stable module names and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! ## Layout
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`types`] | `gae-types` | ids, time base, jobs, plans, sites, errors |
//! | [`wire`] | `gae-wire` | from-scratch XML-RPC codec |
//! | [`gate`] | `gae-gate` | admission control: rate limits, shed queue, breakers |
//! | [`rpc`] | `gae-rpc` | Clarens substitute: hosts, auth, transports, discovery |
//! | [`sim`] | `gae-sim` | discrete-event engine, load traces, network model |
//! | [`exec`] | `gae-exec` | Condor substitute: queues, accrual, job control |
//! | [`monitor`] | `gae-monitor` | MonALISA substitute: metric series |
//! | [`obs`] | `gae-obs` | traces (one tree per task), latency histograms |
//! | [`sched`] | `gae-sched` | Sphinx substitute: site selection, replanning |
//! | [`trace`] | `gae-trace` | Paragon records, Downey workload, similarity |
//! | [`durable`] | `gae-durable` | checksummed WAL + snapshots, crash recovery |
//! | [`repl`] | `gae-repl` | replicated log: leader append, follower replay, failover |
//! | [`core`] | `gae-core` | **the paper's services**: steering, jobmon, estimators |
//! | [`server`] | `gae` | the served host: every production service, the door, the pump |
//!
//! ## Five-minute tour
//!
//! ```
//! use gae::prelude::*;
//!
//! // A two-site grid: site 1 is busy, site 2 is free.
//! let grid = GridBuilder::new()
//!     .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 4, 1), 3.0)
//!     .site(SiteDescription::new(SiteId::new(2), "free", 4, 1))
//!     .build();
//! let stack = ServiceStack::over(grid);
//!
//! // A one-task job needing 60 s of CPU.
//! let mut job = JobSpec::new(JobId::new(1), "tour", UserId::new(1));
//! job.add_task(
//!     TaskSpec::new(TaskId::new(1), "analysis", "prime")
//!         .with_cpu_demand(SimDuration::from_secs(60)),
//! );
//! let plan = stack.submit_job(job).unwrap();
//! assert_eq!(plan.site_of(TaskId::new(1)), Some(SiteId::new(2)));
//!
//! // Run the grid for two minutes of virtual time and check on it.
//! stack.run_until(SimTime::from_secs(120));
//! let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
//! assert_eq!(info.status, TaskStatus::Completed);
//! ```

pub use gae_aio as aio;
pub use gae_core as core;
pub use gae_durable as durable;
pub use gae_exec as exec;
pub use gae_gate as gate;
pub use gae_hist as hist;
pub use gae_monitor as monitor;
pub use gae_obs as obs;
pub use gae_repl as repl;
pub use gae_rpc as rpc;
pub use gae_sched as sched;
pub use gae_sim as sim;
pub use gae_trace as trace;
pub use gae_types as types;
pub use gae_wire as wire;
pub use gae_xfer as xfer;

pub mod server;

/// Everything most programs need, in one import.
pub mod prelude {
    pub use gae_core::estimator::{EstimationMethod, RuntimeEstimator};
    pub use gae_core::grid::{Grid, GridBuilder, ServiceStack};
    pub use gae_core::jobmon::{JobMonitoringInfo, JobMonitoringService};
    pub use gae_core::persist::{PersistenceConfig, RecoveryReport};
    pub use gae_core::steering::{Notification, SteeringCommand, SteeringPolicy, SteeringService};
    pub use gae_core::{EstimatorService, QuotaService};
    pub use gae_gate::{Gate, GateClass, GateConfig, GateStats, Principal};
    pub use gae_repl::{NodeId, Promotion, ReplConfig, ReplStats, ReplicatedLog, ReplicationSink};
    pub use gae_types::prelude::*;
    pub use gae_xfer::{RetryPolicy, XferConfig, XferScheduler};
}
