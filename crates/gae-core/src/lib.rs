//! # GAE resource-management services
//!
//! The primary contribution of *"Resource Management Services for a
//! Grid Analysis Environment"* (ICPPW'05): an ensemble of cooperating
//! web services giving users information about, and control over,
//! their jobs on a computational grid.
//!
//! * [`estimator`] — the **Estimator Service** (§6): history-based
//!   runtime prediction, queue-time estimation, and file-transfer-time
//!   estimation;
//! * [`jobmon`] — the **Job Monitoring Service** (§5): Job
//!   Information Collector, JMManager, DBManager and the JMExecutable
//!   RPC facade, publishing state changes to MonALISA;
//! * [`steering`] — the **Steering Service** (§4): Subscriber,
//!   Command Processor, Optimizer, Backup & Recovery and Session
//!   Manager;
//! * [`quota`] — the **Quota and Accounting Service** the Optimizer
//!   consults for *cheap* scheduling (§4.2.2; "currently, just a
//!   trivial prototype" in the paper, implemented fully here);
//! * [`grid`] — the fabric binding execution sites, the monitoring
//!   repository and the network model into one steerable grid, plus
//!   the simulation driver;
//! * [`provider`] — the estimator-backed
//!   [`SiteInfoProvider`](gae_sched::SiteInfoProvider) the scheduler
//!   decides over.
//!
//! ## Quick start
//!
//! ```
//! use gae_core::grid::{Grid, GridBuilder};
//! use gae_types::prelude::*;
//!
//! // Two sites: A is busy, B is free.
//! let grid = GridBuilder::new()
//!     .site_with_load(SiteDescription::new(SiteId::new(1), "site-a", 4, 1), 3.0)
//!     .site(SiteDescription::new(SiteId::new(2), "site-b", 4, 1))
//!     .build();
//! let stack = gae_core::grid::ServiceStack::over(grid);
//!
//! // Submit a 60-second job and run the grid forward.
//! let mut job = JobSpec::new(JobId::new(1), "demo", UserId::new(1));
//! job.add_task(
//!     TaskSpec::new(TaskId::new(1), "t", "prime")
//!         .with_cpu_demand(SimDuration::from_secs(60)),
//! );
//! let plan = stack.submit_job(job).unwrap();
//! stack.run_until(SimTime::from_secs(120));
//! let info = stack.jobmon.job_info(TaskId::new(1)).unwrap();
//! assert_eq!(info.status, TaskStatus::Completed);
//! # let _ = plan;
//! ```

#![warn(missing_docs)]

pub mod analysis_session;
pub mod estimator;
pub mod grid;
pub mod hist;
pub mod jobmon;
pub mod monalisa;
pub mod obs_rpc;
pub mod persist;
pub mod provider;
pub mod quota;
pub mod replica;
pub mod replication;
pub mod steering;
pub mod submit;

pub use analysis_session::{AnalysisSessionRpc, AnalysisSessionStore};
pub use estimator::EstimatorService;
pub use grid::{Grid, GridBuilder, ServiceStack};
pub use hist::{HistFunnel, HistoryRpc};
pub use jobmon::JobMonitoringService;
pub use monalisa::MonAlisaRpc;
pub use obs_rpc::{StatsRpc, TraceRpc};
pub use provider::GridSiteInfo;
pub use quota::QuotaService;
pub use replica::{ReplicaCatalog, ReplicaRpc};
pub use steering::SteeringService;
pub use submit::SchedulerRpc;
