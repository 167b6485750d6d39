//! Execution sites and file references.
//!
//! A site bundles what the paper's Optimizer needs to choose a "Best
//! Site" (§4.2.2): capacity (nodes × slots), a relative speed factor,
//! and the charge rates the Quota and Accounting Service bills
//! against. `FileRef`s carry sizes and replica locations so the
//! file-transfer-time estimator (§6.3) and the scheduler can reason
//! about staging costs.

use crate::ids::SiteId;
use std::fmt;

/// Static description of an execution site.
#[derive(Clone, PartialEq, Debug)]
pub struct SiteDescription {
    /// Unique id.
    pub id: SiteId,
    /// Human-readable name ("caltech-tier2").
    pub name: String,
    /// Number of worker nodes.
    pub nodes: u32,
    /// Concurrent task slots per node.
    pub slots_per_node: u32,
    /// Relative CPU speed: 1.0 is the reference CPU the paper's 283 s
    /// estimate was taken on; 2.0 executes the same work twice as fast.
    pub speed_factor: f64,
    /// Charge rate for CPU hours (Paragon schema; the *cheap*
    /// optimization preference minimises this).
    pub charge_per_cpu_hour: f64,
    /// Charge rate for idle hours (Paragon schema).
    pub charge_per_idle_hour: f64,
}

impl SiteDescription {
    /// Creates a site description with the given capacity and
    /// defaults: speed 1.0, CPU-hour rate 1.0, idle rate 0.1.
    pub fn new(id: SiteId, name: impl Into<String>, nodes: u32, slots_per_node: u32) -> Self {
        SiteDescription {
            id,
            name: name.into(),
            nodes,
            slots_per_node,
            speed_factor: 1.0,
            charge_per_cpu_hour: 1.0,
            charge_per_idle_hour: 0.1,
        }
    }

    /// Builder-style speed factor.
    pub fn with_speed(mut self, speed: f64) -> Self {
        debug_assert!(speed > 0.0);
        self.speed_factor = speed;
        self
    }

    /// Builder-style charge rate.
    pub fn with_charge(mut self, cpu_hour: f64, idle_hour: f64) -> Self {
        self.charge_per_cpu_hour = cpu_hour;
        self.charge_per_idle_hour = idle_hour;
        self
    }

    /// Total concurrent task slots at the site.
    pub fn total_slots(&self) -> u32 {
        self.nodes * self.slots_per_node
    }
}

impl fmt::Display for SiteDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}: {}x{} slots, speed {:.2}, {:.2}/cpu-h)",
            self.name,
            self.id,
            self.nodes,
            self.slots_per_node,
            self.speed_factor,
            self.charge_per_cpu_hour
        )
    }
}

/// A logical file with size and replica locations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FileRef {
    /// Logical file name within the data grid.
    pub logical_name: String,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Sites currently holding a replica.
    pub replicas: Vec<SiteId>,
}

impl FileRef {
    /// Creates a file reference with no known replicas.
    pub fn new(logical_name: impl Into<String>, size_bytes: u64) -> Self {
        FileRef {
            logical_name: logical_name.into(),
            size_bytes,
            replicas: Vec::new(),
        }
    }

    /// Builder-style replica list.
    pub fn with_replicas(mut self, sites: Vec<SiteId>) -> Self {
        self.replicas = sites;
        self
    }

    /// True if `site` already holds a replica (no transfer needed).
    pub fn available_at(&self, site: SiteId) -> bool {
        self.replicas.contains(&site)
    }
}

impl fmt::Display for FileRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} bytes)", self.logical_name, self.size_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_multiply() {
        let s = SiteDescription::new(SiteId::new(1), "a", 16, 2);
        assert_eq!(s.total_slots(), 32);
    }

    #[test]
    fn builders_apply() {
        let s = SiteDescription::new(SiteId::new(2), "b", 4, 1)
            .with_speed(2.5)
            .with_charge(3.0, 0.5);
        assert_eq!(s.speed_factor, 2.5);
        assert_eq!(s.charge_per_cpu_hour, 3.0);
        assert_eq!(s.charge_per_idle_hour, 0.5);
    }

    #[test]
    fn file_replicas() {
        let f = FileRef::new("lfn:/cms/events.root", 1 << 30)
            .with_replicas(vec![SiteId::new(1), SiteId::new(3)]);
        assert!(f.available_at(SiteId::new(1)));
        assert!(!f.available_at(SiteId::new(2)));
    }

    #[test]
    fn display_forms() {
        let s = SiteDescription::new(SiteId::new(1), "caltech", 8, 2);
        assert!(s.to_string().contains("caltech"));
        let f = FileRef::new("x", 42);
        assert_eq!(f.to_string(), "x (42 bytes)");
    }
}
