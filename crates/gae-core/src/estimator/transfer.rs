//! File-transfer-time estimation (§6.3).
//!
//! "For transfer time estimation, we first determine the bandwidth
//! between the client and the Clarens server using iperf, and then
//! using this bandwidth and the file size, we calculate the transfer
//! time."

use gae_sim::NetworkModel;
use gae_types::{FileRef, GaeError, GaeResult, SimDuration, SiteId};
use gae_xfer::LinkView;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use std::sync::Arc;

/// The transfer-time estimator: probes the network model the way a
/// real deployment would run iperf, caches the measured bandwidth per
/// site pair, and divides.
pub struct TransferEstimator {
    network: NetworkModel,
    rng: Mutex<StdRng>,
    cache: Mutex<std::collections::HashMap<(SiteId, SiteId), f64>>,
    /// Live link state from the transfer scheduler, when attached:
    /// dead links become typed estimator errors, concurrent transfers
    /// degrade the estimate to the current per-stream fair share of
    /// the link.
    live: Mutex<Option<Arc<dyn LinkView>>>,
}

impl TransferEstimator {
    /// Builds an estimator over a network model, seeded for
    /// reproducible probe noise.
    pub fn new(network: NetworkModel, seed: u64) -> Self {
        TransferEstimator {
            network,
            rng: Mutex::new(gae_sim::rng::seeded_rng(seed)),
            cache: Mutex::new(std::collections::HashMap::new()),
            live: Mutex::new(None),
        }
    }

    /// Attaches the transfer scheduler's live link view. Estimates
    /// become contention- and fault-aware from this point on.
    pub fn attach_live_links(&self, view: Arc<dyn LinkView>) {
        *self.live.lock() = Some(view);
    }

    /// Measured bandwidth from `from` to `to`, probing on first use
    /// (iperf runs are expensive; Clarens cached them too).
    ///
    /// The cache lock is held across the whole check-probe-insert so
    /// concurrent callers cannot double-probe: a second probe would
    /// draw different rng noise and silently overwrite the first,
    /// breaking probe-count determinism.
    pub fn measured_bandwidth(&self, from: SiteId, to: SiteId) -> f64 {
        let mut cache = self.cache.lock();
        if let Some(bw) = cache.get(&(from, to)) {
            return *bw;
        }
        let probe = self.network.iperf_probe(from, to, &mut *self.rng.lock());
        cache.insert((from, to), probe.measured_bps);
        probe.measured_bps
    }

    /// Drops cached probes (bandwidth changed, monitoring says so).
    pub fn invalidate(&self) {
        self.cache.lock().clear();
    }

    /// Estimated time to move `bytes` from `from` to `to`. A
    /// partitioned or zero-bandwidth link yields a typed
    /// [`GaeError::Estimator`] rather than a division-by-zero `inf`
    /// (which would panic inside `SimDuration::from_secs_f64`).
    pub fn estimate_bytes(&self, from: SiteId, to: SiteId, bytes: u64) -> GaeResult<SimDuration> {
        let mut bw = self.measured_bandwidth(from, to);
        if let Some(view) = self.live.lock().as_ref() {
            if view.blocked(from, to) {
                return Err(GaeError::Estimator(format!(
                    "link from {from} to {to} is unreachable (transfer scheduler reports it down)"
                )));
            }
            // Report the current per-stream share on the link, not
            // the idle probe. `max(1)` rather than `active + 1`: the
            // transfer being estimated is often already one of the
            // active drains (a staging chain queried mid-flight), and
            // counting it again would double its own contention.
            bw /= view.active(from, to).max(1) as f64;
        }
        if !bw.is_finite() || bw <= 0.0 {
            return Err(GaeError::Estimator(format!(
                "no usable bandwidth from {from} to {to} (measured {bw} B/s)"
            )));
        }
        let secs = bytes as f64 / bw;
        if !secs.is_finite() {
            return Err(GaeError::Estimator(format!(
                "transfer estimate overflow for {bytes} bytes from {from} to {to}"
            )));
        }
        Ok(SimDuration::from_secs_f64(secs))
    }

    /// Estimated time to stage a file's replica to `to`, using the
    /// nearest (fastest-estimated) replica. Zero if already there.
    /// Replicas behind unusable links are skipped rather than
    /// poisoning the minimum; the error names the file only when *no*
    /// replica is reachable.
    pub fn estimate_file(&self, file: &FileRef, to: SiteId) -> GaeResult<SimDuration> {
        if file.available_at(to) {
            return Ok(SimDuration::ZERO);
        }
        file.replicas
            .iter()
            .filter_map(|src| self.estimate_bytes(*src, to, file.size_bytes).ok())
            .min()
            .ok_or_else(|| {
                GaeError::Estimator(format!(
                    "{} has no usable replica to stage from (of {})",
                    file.logical_name,
                    file.replicas.len()
                ))
            })
    }

    /// Estimated staging time for a whole input set (sequential
    /// transfers, the 2005 deployment's behaviour).
    pub fn estimate_inputs(&self, files: &[FileRef], to: SiteId) -> GaeResult<SimDuration> {
        let mut total = SimDuration::ZERO;
        for f in files {
            total += self.estimate_file(f, to)?;
        }
        Ok(total)
    }

    /// Ground truth from the underlying model (for error studies).
    pub fn true_transfer_time(&self, from: SiteId, to: SiteId, bytes: u64) -> SimDuration {
        self.network.transfer_time(from, to, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_sim::Link;

    fn sid(n: u64) -> SiteId {
        SiteId::new(n)
    }

    fn estimator() -> TransferEstimator {
        let mut net = NetworkModel::wan_2005();
        net.set_link(
            sid(1),
            sid(2),
            Link::new(10e6, SimDuration::from_millis(10)),
        );
        TransferEstimator::new(net, 42)
    }

    #[test]
    fn estimate_close_to_truth() {
        let est = estimator();
        let bytes = 100_000_000u64; // 10 s at 10 MB/s
        let predicted = est
            .estimate_bytes(sid(1), sid(2), bytes)
            .unwrap()
            .as_secs_f64();
        let actual = est.true_transfer_time(sid(1), sid(2), bytes).as_secs_f64();
        let rel = (predicted - actual).abs() / actual;
        // Probe noise is ±5 % plus the ignored 10 ms latency.
        assert!(rel < 0.08, "relative error {rel}");
    }

    #[test]
    fn probe_is_cached() {
        let est = estimator();
        let a = est.measured_bandwidth(sid(1), sid(2));
        let b = est.measured_bandwidth(sid(1), sid(2));
        assert_eq!(a, b, "second call must reuse the probe");
        est.invalidate();
        // After invalidation a new probe may differ (it is noisy).
        let c = est.measured_bandwidth(sid(1), sid(2));
        assert!((c - a).abs() / a < 0.11, "still the same link");
    }

    #[test]
    fn local_replica_is_free() {
        let est = estimator();
        let f = FileRef::new("x", 1 << 30).with_replicas(vec![sid(2)]);
        assert_eq!(est.estimate_file(&f, sid(2)).unwrap(), SimDuration::ZERO);
    }

    #[test]
    fn picks_nearest_replica() {
        let mut net = NetworkModel::wan_2005().with_probe_noise(0.0);
        net.set_link(sid(1), sid(3), Link::new(1e6, SimDuration::ZERO));
        net.set_link(sid(2), sid(3), Link::new(100e6, SimDuration::ZERO));
        let est = TransferEstimator::new(net, 1);
        let f = FileRef::new("x", 100_000_000).with_replicas(vec![sid(1), sid(2)]);
        let t = est.estimate_file(&f, sid(3)).unwrap().as_secs_f64();
        assert!(
            (t - 1.0).abs() < 1e-9,
            "nearest replica is the 100 MB/s one: {t}"
        );
    }

    #[test]
    fn no_replica_is_error() {
        let est = estimator();
        let f = FileRef::new("orphan", 100);
        assert!(est.estimate_file(&f, sid(1)).is_err());
    }

    #[test]
    fn input_set_sums() {
        let mut net = NetworkModel::wan_2005().with_probe_noise(0.0);
        net.set_link(sid(1), sid(2), Link::new(1e6, SimDuration::ZERO));
        let est = TransferEstimator::new(net, 1);
        let files = vec![
            FileRef::new("a", 1_000_000).with_replicas(vec![sid(1)]),
            FileRef::new("b", 2_000_000).with_replicas(vec![sid(1)]),
            FileRef::new("c", 500_000).with_replicas(vec![sid(2)]), // local
        ];
        let t = est.estimate_inputs(&files, sid(2)).unwrap().as_secs_f64();
        assert!((t - 3.0).abs() < 1e-9, "1 + 2 + 0 seconds, got {t}");
    }
}
