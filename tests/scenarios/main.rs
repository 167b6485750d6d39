//! The scenario fleet (DESIGN.md §12): named, seeded end-to-end
//! workloads — flash crowds, diurnal load, chaos grids, hot-replica
//! storms — executed through the full service stack with
//! machine-checked invariants.
//!
//! Structure:
//! * [`fleet`] — every named scenario runs end to end and must keep
//!   its declared invariants; run-to-run byte-identical digests
//!   under scenario load; the chaos-grid migration payoff.
//! * [`gate_inversion`] — the admission queue's priority contract
//!   under every scenario arrival process (proptest).
//! * [`link_flapping`] — deterministic link-flap schedules against
//!   the transfer plane's bounded retry/backoff, and estimator
//!   recovery after heal.
//!
//! Smoke mode: set `SCENARIO_SMOKE=1` (the CI `scenarios` job does)
//! to run the fleet on reduced horizons.

mod fleet;
mod gate_inversion;
mod link_flapping;

/// Smoke mode reduces every scenario horizon (CI sets this).
pub fn smoke_mode() -> bool {
    std::env::var("SCENARIO_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// A spec, in smoke form when the environment asks for it.
pub fn maybe_smoke(spec: gae::trace::ScenarioSpec) -> gae::trace::ScenarioSpec {
    if smoke_mode() {
        spec.smoke()
    } else {
        spec
    }
}
