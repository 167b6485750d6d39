//! Link-level network model and the simulated `iperf` probe.
//!
//! The paper's file-transfer-time estimator (§6.3) "first determine\[s\]
//! the bandwidth between the client and the Clarens server using
//! iperf, and then using this bandwidth and the file size ...
//! calculate\[s\] the transfer time". We model the grid's WAN as a set
//! of directed site-pair links with bandwidth and latency, plus a
//! default link for unlisted pairs, and expose a probe that measures
//! bandwidth with configurable multiplicative noise — mimicking the
//! sampling error of a real iperf run.

use gae_types::{SimDuration, SiteId};
use rand::Rng;
use std::collections::HashMap;

/// One directed link between two sites. Its bandwidth is positive
/// and finite: [`Link::new`] is the only way to build one, so a link
/// that is down is a state of the transfer scheduler, never of a
/// `Link`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Link {
    bandwidth_bps: f64,
    latency: SimDuration,
}

impl Link {
    /// Builds a link; bandwidth must be positive and finite.
    pub fn new(bandwidth_bps: f64, latency: SimDuration) -> Self {
        let valid = bandwidth_bps > 0.0 && bandwidth_bps.is_finite();
        assert!(valid, "invariant: link bandwidth is positive and finite");
        Link {
            bandwidth_bps,
            latency,
        }
    }

    /// Sustainable bandwidth in bytes per second.
    pub fn bandwidth_bps(self) -> f64 {
        self.bandwidth_bps
    }

    /// One-way latency.
    pub fn latency(self) -> SimDuration {
        self.latency
    }
}

/// Result of an iperf-style bandwidth probe.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ProbeResult {
    /// Measured bandwidth (true bandwidth distorted by noise).
    pub measured_bps: f64,
    /// Round-trip time observed by the probe.
    pub rtt: SimDuration,
}

/// The grid's network fabric.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    links: HashMap<(SiteId, SiteId), Link>,
    default_link: Link,
    /// Relative standard deviation of probe noise (e.g. 0.05 = ±5%).
    probe_noise: f64,
}

impl NetworkModel {
    /// Creates a fabric where every pair is connected by
    /// `default_link` until overridden.
    pub fn new(default_link: Link) -> Self {
        NetworkModel {
            links: HashMap::new(),
            default_link,
            probe_noise: 0.05,
        }
    }

    /// A typical 2005-era WAN: 100 Mbit/s ≈ 12.5 MB/s, 30 ms one-way.
    pub fn wan_2005() -> Self {
        Self::new(Link::new(12.5e6, SimDuration::from_millis(30)))
    }

    /// Sets the relative probe noise (0.0 = exact measurements).
    pub fn with_probe_noise(mut self, noise: f64) -> Self {
        let valid = (0.0..1.0).contains(&noise);
        assert!(valid, "invariant: probe noise is a fraction in [0, 1)");
        self.probe_noise = noise;
        self
    }

    /// Installs a directed link override.
    pub fn set_link(&mut self, from: SiteId, to: SiteId, link: Link) {
        self.links.insert((from, to), link);
    }

    /// Installs the same link in both directions.
    pub fn set_symmetric(&mut self, a: SiteId, b: SiteId, link: Link) {
        self.links.insert((a, b), link);
        self.links.insert((b, a), link);
    }

    /// The link used from `from` to `to`.
    pub fn link(&self, from: SiteId, to: SiteId) -> Link {
        if from == to {
            // Local staging: effectively instant relative to the WAN.
            return Link::new(1e12, SimDuration::ZERO);
        }
        self.links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Ground-truth transfer time of `bytes` from `from` to `to`:
    /// latency plus serialisation at link bandwidth.
    pub fn transfer_time(&self, from: SiteId, to: SiteId, bytes: u64) -> SimDuration {
        let link = self.link(from, to);
        link.latency + SimDuration::from_secs_f64(bytes as f64 / link.bandwidth_bps)
    }

    /// Simulated iperf probe: reports the link bandwidth perturbed by
    /// multiplicative noise, and the measured RTT.
    pub fn iperf_probe<R: Rng>(&self, from: SiteId, to: SiteId, rng: &mut R) -> ProbeResult {
        let link = self.link(from, to);
        let noise = if self.probe_noise > 0.0 {
            1.0 + rng.gen_range(-self.probe_noise..self.probe_noise)
        } else {
            1.0
        };
        ProbeResult {
            measured_bps: link.bandwidth_bps * noise,
            rtt: link.latency + link.latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn site(n: u64) -> SiteId {
        SiteId::new(n)
    }

    #[test]
    fn default_link_applies_to_unknown_pairs() {
        let net = NetworkModel::wan_2005();
        let t = net.transfer_time(site(1), site(2), 12_500_000);
        // 1 s serialisation + 30 ms latency.
        assert_eq!(t, SimDuration::from_millis(1030));
    }

    #[test]
    fn overrides_win() {
        let mut net = NetworkModel::wan_2005();
        net.set_link(
            site(1),
            site(2),
            Link::new(125e6, SimDuration::from_millis(1)),
        );
        let fast = net.transfer_time(site(1), site(2), 125_000_000);
        assert_eq!(fast, SimDuration::from_millis(1001));
        // Reverse direction still default.
        let slow = net.transfer_time(site(2), site(1), 125_000_000);
        assert!(slow > fast);
    }

    #[test]
    fn symmetric_override() {
        let mut net = NetworkModel::wan_2005();
        net.set_symmetric(site(1), site(2), Link::new(1e6, SimDuration::ZERO));
        assert_eq!(
            net.transfer_time(site(1), site(2), 1_000_000),
            net.transfer_time(site(2), site(1), 1_000_000)
        );
    }

    #[test]
    fn local_transfer_is_instant() {
        let net = NetworkModel::wan_2005();
        let t = net.transfer_time(site(3), site(3), 1 << 30);
        assert!(t < SimDuration::from_millis(10));
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let net = NetworkModel::wan_2005();
        assert_eq!(
            net.transfer_time(site(1), site(2), 0),
            SimDuration::from_millis(30)
        );
    }

    #[test]
    fn probe_noise_bounded() {
        let net = NetworkModel::wan_2005().with_probe_noise(0.1);
        let mut rng = seeded_rng(7);
        for _ in 0..100 {
            let p = net.iperf_probe(site(1), site(2), &mut rng);
            let rel = (p.measured_bps - 12.5e6).abs() / 12.5e6;
            assert!(rel <= 0.1 + 1e-12, "noise out of bounds: {rel}");
            assert_eq!(p.rtt, SimDuration::from_millis(60));
        }
    }

    #[test]
    fn probe_noise_zero_is_exact() {
        let net = NetworkModel::wan_2005().with_probe_noise(0.0);
        let mut rng = seeded_rng(7);
        let p = net.iperf_probe(site(1), site(2), &mut rng);
        assert_eq!(p.measured_bps, 12.5e6);
    }

    #[test]
    fn probe_is_deterministic_under_seed() {
        let net = NetworkModel::wan_2005();
        let a = net
            .iperf_probe(site(1), site(2), &mut seeded_rng(42))
            .measured_bps;
        let b = net
            .iperf_probe(site(1), site(2), &mut seeded_rng(42))
            .measured_bps;
        assert_eq!(a, b);
    }
}
