//! Sphinx-substitute scheduling middleware for the GAE.
//!
//! In the paper, Sphinx is the scheduler that turns a job into a
//! "concrete job plan" and sends it to the Steering Service (§4.2.1);
//! it is also the component Backup & Recovery calls to "allocate a
//! new execution service" after a failure (§4.2.4), and the target of
//! steering "job redirection" requests (§4.2.2). This crate implements
//! that decision procedure:
//!
//! * [`provider`] — the [`SiteInfoProvider`]
//!   abstraction the scheduler queries: per-site runtime estimates
//!   (§6.1 steps a–c), MonALISA load (step d), queue-time and
//!   transfer-time estimates. `gae-core` implements it on top of the
//!   real estimator services; tests use a static table;
//! * [`scheduler`] — site selection (§6.1 step e: "select a site that
//!   has the least estimated run time and where the queue time for
//!   the task is a minimum"), concrete-plan construction, and
//!   rescheduling with site exclusion for failure recovery and
//!   steering moves.

#![warn(missing_docs)]

pub mod provider;
pub mod scheduler;

pub use provider::{Bid, SiteEstimate, SiteInfoProvider, StaticSiteInfo};
pub use scheduler::Scheduler;
