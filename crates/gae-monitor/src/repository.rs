//! The typed monitoring façade the other GAE services consume.

use crate::store::{MetricKey, Sample, SeriesId, TimeSeriesStore};
use gae_types::{SimTime, SiteId};
use parking_lot::RwLock;
use std::sync::Arc;

/// The MonALISA-substitute repository.
///
/// Thread-safe: the RPC layer publishes from worker threads while the
/// scheduler and optimizer read concurrently. It holds metric series
/// only: a job's state lives in the Job Monitoring Service's
/// DBManager alone.
pub struct MonAlisaRepository {
    metrics: RwLock<TimeSeriesStore>,
    /// The site-wide load series' entity and parameter names, built
    /// once: [`Self::site_load`], which the scheduler asks of every
    /// site for every plan, then makes its key without allocating.
    farm_load: (Arc<str>, Arc<str>),
}

impl MonAlisaRepository {
    /// Creates a repository retaining `metric_capacity` samples per
    /// metric.
    pub fn new(metric_capacity: usize) -> Arc<Self> {
        Arc::new(MonAlisaRepository {
            metrics: RwLock::new(TimeSeriesStore::new(metric_capacity)),
            farm_load: (Arc::from("farm"), Arc::from("cpu_load")),
        })
    }

    /// Defaults sized for the reproduction experiments.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(4096)
    }

    // ---- metrics ----

    /// Publishes an arbitrary metric sample.
    pub fn publish_metric(&self, key: MetricKey, at: SimTime, value: f64) {
        self.metrics.write().publish(key, Sample { at, value });
    }

    /// Publishes a batch of samples under a single store lock
    /// acquisition. This is what the grid driver uses once per tick:
    /// with hundreds of sites × nodes, taking the write lock per
    /// metric dominates the publication cost. Returns the number of
    /// samples that arrived in time order.
    pub fn publish_batch(&self, samples: impl IntoIterator<Item = (MetricKey, Sample)>) -> usize {
        self.metrics.write().publish_batch(samples)
    }

    /// The store handle of `key`, for a publisher that reports the
    /// same series every round (see [`Self::publish_ids`]).
    pub fn intern(&self, key: MetricKey) -> SeriesId {
        self.metrics.write().intern(key)
    }

    /// [`Self::publish_batch`] by handle: `values[i]`, stamped `at`,
    /// goes to the series `ids[i]`, under one store lock acquisition
    /// and with no key hashed or cloned.
    pub fn publish_ids(&self, at: SimTime, ids: &[SeriesId], values: &[f64]) -> usize {
        self.metrics.write().publish_ids(at, ids, values)
    }

    /// Latest farm-wide CPU load of a site.
    pub fn site_load(&self, site: SiteId) -> Option<f64> {
        let (farm, cpu_load) = &self.farm_load;
        let key = MetricKey::new(site, farm.clone(), cpu_load.clone());
        self.metrics.read().latest(&key).map(|s| s.value)
    }

    /// Latest queue length of a site.
    pub fn queue_length(&self, site: SiteId) -> Option<f64> {
        self.metrics
            .read()
            .latest(&MetricKey::site_wide(site, "queue_length"))
            .map(|s| s.value)
    }

    /// Latest sample of an arbitrary metric.
    pub fn latest(&self, key: &MetricKey) -> Option<Sample> {
        self.metrics.read().latest(key)
    }

    /// Samples of a metric in `[from, to]`.
    pub fn range(&self, key: &MetricKey, from: SimTime, to: SimTime) -> Vec<Sample> {
        self.metrics.read().range(key, from, to)
    }

    /// Mean of a metric over `[from, to]`.
    pub fn mean(&self, key: &MetricKey, from: SimTime, to: SimTime) -> Option<f64> {
        self.metrics.read().mean(key, from, to)
    }

    // ---- durability hooks ----

    /// Every retained metric series in deterministic order, plus the
    /// lifetime publication count (snapshot export).
    pub fn metrics_snapshot(&self) -> (Vec<(MetricKey, Vec<Sample>)>, u64) {
        let store = self.metrics.read();
        (store.export(), store.total_published())
    }

    /// Lifetime count of published samples (including aged-out ones).
    pub fn total_published(&self) -> u64 {
        self.metrics.read().total_published()
    }

    /// Replaces all metric series, as when restoring from a snapshot.
    pub fn restore_metrics(&self, series: Vec<(MetricKey, Vec<Sample>)>, total_published: u64) {
        self.metrics.write().restore(series, total_published);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_load_roundtrip() {
        let repo = MonAlisaRepository::with_defaults();
        assert!(repo.site_load(SiteId::new(1)).is_none());
        let load = MetricKey::site_wide(SiteId::new(1), "cpu_load");
        repo.publish_metric(load.clone(), SimTime::from_secs(1), 2.5);
        repo.publish_metric(load, SimTime::from_secs(2), 3.5);
        assert_eq!(repo.site_load(SiteId::new(1)), Some(3.5));
        assert!(repo.site_load(SiteId::new(2)).is_none());
    }

    #[test]
    fn snapshot_roundtrip_restores_metrics() {
        let repo = MonAlisaRepository::new(8);
        let load = MetricKey::site_wide(SiteId::new(2), "cpu_load");
        repo.publish_metric(load, SimTime::from_secs(3), 1.25);
        let (series, total) = repo.metrics_snapshot();
        let fresh = MonAlisaRepository::new(8);
        fresh.restore_metrics(series, total);
        assert_eq!(fresh.site_load(SiteId::new(2)), Some(1.25));
        assert_eq!(repo.metrics_snapshot(), fresh.metrics_snapshot());
    }

    #[test]
    fn concurrent_publish_and_read() {
        let repo = MonAlisaRepository::with_defaults();
        let mut handles = Vec::new();
        for t in 0..4 {
            let repo = repo.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    let load = MetricKey::site_wide(SiteId::new(t), "cpu_load");
                    repo.publish_metric(load, SimTime::from_secs(i), i as f64);
                    let _ = repo.site_load(SiteId::new(t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4 {
            assert_eq!(repo.site_load(SiteId::new(t)), Some(249.0));
        }
    }

    #[test]
    fn batch_publish_via_repo() {
        let repo = MonAlisaRepository::with_defaults();
        let load = MetricKey::site_wide(SiteId::new(4), "cpu_load");
        let queue = MetricKey::site_wide(SiteId::new(4), "queue_length");
        let at = SimTime::from_secs(10);
        let in_order = repo.publish_batch(vec![
            (load.clone(), Sample { at, value: 1.5 }),
            (queue.clone(), Sample { at, value: 7.0 }),
        ]);
        assert_eq!(in_order, 2);
        assert_eq!(repo.site_load(SiteId::new(4)), Some(1.5));
        assert_eq!(repo.queue_length(SiteId::new(4)), Some(7.0));
    }

    #[test]
    fn metric_range_and_mean_via_repo() {
        let repo = MonAlisaRepository::with_defaults();
        let k = MetricKey::new(SiteId::new(1), "node-0", "io_read");
        repo.publish_metric(k.clone(), SimTime::from_secs(1), 10.0);
        repo.publish_metric(k.clone(), SimTime::from_secs(2), 30.0);
        assert_eq!(
            repo.mean(&k, SimTime::ZERO, SimTime::from_secs(10)),
            Some(20.0)
        );
        assert_eq!(
            repo.range(&k, SimTime::ZERO, SimTime::from_secs(10)).len(),
            2
        );
        assert_eq!(repo.latest(&k).unwrap().value, 30.0);
    }
}
