//! The grid fabric and the service composition root.
//!
//! [`Grid`] binds the per-site execution services, the MonALISA
//! repository and the network model into one object with a single
//! virtual clock. [`ServiceStack`] wires the paper's full
//! architecture over a grid — scheduler, estimators, job monitoring,
//! steering, quota — and drives it forward in time, interleaving
//! execution-service events with the services' polling loops exactly
//! the way Figure 1's deployment would.
//!
//! One file per concern (DESIGN.md §17): `fabric` is what the grid
//! *is*, `driver` how it moves through time, `stack` the composition
//! root, `metrics` how everything reports to MonALISA.

mod driver;
mod fabric;
mod metrics;
mod stack;

pub use driver::DriverMode;
pub use fabric::{FlockMove, Grid, GridBuilder, GridLinkView};
pub use metrics::MetricSource;
pub use stack::ServiceStack;

/// The two-site grid the unit tests of this module's files share:
/// site 1 busy (load 3), site 2 free.
#[cfg(test)]
fn two_site_grid() -> std::sync::Arc<Grid> {
    use gae_types::{SiteDescription, SiteId};
    GridBuilder::new()
        .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 3.0)
        .site(SiteDescription::new(SiteId::new(2), "free", 2, 1))
        .build()
}
