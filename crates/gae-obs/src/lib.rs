//! Observability layer for the GAE reproduction (DESIGN.md §10).
//!
//! The paper's services lean on MonALISA for *aggregate* visibility;
//! this crate adds the causal half: request-scoped trace contexts
//! minted at the RPC door and threaded through steering, scheduling,
//! and execution; log-linear latency histograms (lock-free atomic
//! bucket counters, on the pattern of gae-gate's `ClassCounters`).
//! A task's lifecycle instants are not copied here: the DBManager's
//! record (`jobmon.job_info`) holds them.
//!
//! Everything is clocked through the injected [`gae_types::Clock`] —
//! under the grid's virtual clock, traces are a deterministic function of
//! the workload and replay byte-identically in both driver modes.

#![warn(missing_docs)]

pub mod hist;
pub mod hub;
pub mod trace;

pub use hist::{Histogram, HistogramSet, HistogramSnapshot};
pub use hub::ObsHub;
pub use trace::{SpanId, SpanRecord, TraceContext, TraceId, TraceStore, RING_CAPACITY};
