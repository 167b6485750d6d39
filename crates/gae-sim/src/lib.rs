//! Deterministic simulation substrate for the GAE.
//!
//! The 2005 paper evaluated its services on a live Condor testbed; we
//! substitute the models a simulated grid needs to provide the same
//! observables (the grid itself is advanced event by event by
//! `gae_core::Grid::advance_to`, which holds the virtual clock):
//!
//! * [`load`] — piecewise-constant **external CPU load traces** with
//!   closed-form accrual integrals: given a start instant and an
//!   amount of CPU work, the finish instant is computed analytically,
//!   so simulations are exact rather than tick-based;
//! * [`network`] — a link-level network model (bandwidth + latency)
//!   with a simulated `iperf` bandwidth probe, used by the paper's
//!   file-transfer-time estimator (§6.3);
//! * [`rng`] — seeded RNG helpers so every experiment is reproducible.

#![warn(missing_docs)]

pub mod load;
pub mod network;
pub mod rng;

pub use load::LoadTrace;
pub use network::{Link, NetworkModel, ProbeResult};
