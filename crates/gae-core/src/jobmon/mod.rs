//! The Job Monitoring Service (§5).
//!
//! "Provides the facility of monitoring jobs that have been submitted
//! for execution, and provides the job monitoring information to the
//! Steering Service", with "an easy-to-use API for retrieval of job
//! monitoring information such as job status, remaining time, elapsed
//! time, estimated run time, queue position, priority, submission
//! time, execution time, completion time, CPU time used, amount of
//! input IO and output IO, owner name and environment variables."
//!
//! Component mapping (Figure 3). The service is one struct,
//! [`JobMonitoringService`]; the paper's four parts live here:
//!
//! * [`collector`] — the **Job Information Collector**: the service's
//!   methods that interact with the execution services, drain their
//!   event streams, and answer live queries for running jobs;
//! * [`db`] — the **DBManager**: the per-instance repository of
//!   monitoring snapshots, which "publishes the job monitoring
//!   information to MonALISA";
//! * [`service`] — the **JMManager**, whose routing is one rule (a
//!   live record wins, then the newer incarnation) in `job_info` and
//!   `job_info_at`, and the **JMExecutable**: the XML-RPC facade the
//!   Steering Service (and Figure 6's clients) call;
//! * [`info`] — the monitoring record itself.

pub mod collector;
pub mod db;
pub mod info;
pub mod service;

pub use info::JobMonitoringInfo;
pub use service::{JobMonitoringRpc, JobMonitoringService};
