//! The Estimator Service (§6): "used to predict the resource
//! consumption of a job".
//!
//! Three estimators, exactly as the paper's API lists them:
//!
//! * [`runtime`] — history-based runtime prediction (§6.1): find
//!   similar tasks, take "a statistical estimate (the mean and linear
//!   regression) of their runtimes";
//! * [`queue_time`] — queue-wait prediction (§6.2): sum the estimated
//!   *remaining* runtimes of higher-priority tasks in the queue;
//! * [`transfer`] — file-transfer-time prediction (§6.3): iperf probe
//!   then `size / bandwidth`.
//!
//! [`history`] holds the bounded ring a [`RuntimeEstimator`] searches
//! (Figure 5, the ablations and the oracles), and [`service`]
//! assembles the three into the deployable [`EstimatorService`], which
//! reads the stack's columnar history, with its XML-RPC facade.

pub mod history;
pub mod queue_time;
pub mod runtime;
pub mod service;
pub mod transfer;

pub use history::HistoryStore;
pub use queue_time::estimate_queue_time;
pub use runtime::{EstimateNote, EstimationMethod, RuntimeEstimate, RuntimeEstimator};
pub use service::EstimatorService;
pub use transfer::TransferEstimator;
