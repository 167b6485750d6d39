//! The gate for suites that only want transport: every server is
//! gated, so a test that is not about admission passes one that never
//! says no. Included with `mod door;`.

use gae::gate::{Gate, GateConfig, QueueConfig, TokenBucketConfig, WallClock};
use gae::types::SimDuration;
use std::sync::Arc;

/// A bucket nobody can drain, a `4 × workers` backlog (what the
/// ungated pool used to hold), nothing expires.
pub fn open_gate(workers: usize) -> Arc<Gate> {
    Gate::new(
        GateConfig {
            bucket: TokenBucketConfig::new(1e9, 1e9),
            queue: QueueConfig::new(4 * workers, SimDuration::from_secs(60)),
            ..GateConfig::default()
        },
        Arc::new(WallClock::new()),
    )
}
