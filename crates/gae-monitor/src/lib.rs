//! MonALISA-substitute monitoring repository for the GAE.
//!
//! In the paper, MonALISA is the shared blackboard: the Job Monitoring
//! Service's DBManager "publishes the job monitoring information to
//! MonALISA" (§5.4), the scheduler "contact\[s\] the MonALISA repository
//! to get the status of load at execution sites" (§6.1 step d), and
//! the steering optimizer reads the same load data. This crate
//! provides that blackboard:
//!
//! * [`store`] — bounded time-series storage (ring buffers per
//!   metric) with range and aggregate queries;
//! * [`repository`] — the typed façade: site-load publication, job
//!   state-change events, and subscriptions (push notification on
//!   matching updates).

#![warn(missing_docs)]

pub mod repository;
pub mod store;

pub use repository::{evictions_metric_key, JobEvent, MonAlisaRepository, SubscriptionId};
pub use store::{MetricBatch, MetricKey, Sample, SeriesId, TimeSeriesStore};
