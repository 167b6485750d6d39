//! Bounded time-series storage.
//!
//! MonALISA organises measurements as Farm/Cluster/Node/Parameter; we
//! keep the same addressing collapsed to `(site, entity, param)`.
//! Each series is a fixed-capacity ring buffer — monitoring data ages
//! out, it is never an unbounded log.

use gae_types::{SimTime, SiteId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Address of one monitored parameter.
///
/// The entity and parameter names are interned (`Arc<str>`): cloning a
/// key — which the publication hot path does once per node per tick —
/// bumps two reference counts instead of copying two heap strings, so
/// callers that publish repeatedly should build their keys once and
/// clone them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MetricKey {
    /// The site the measurement describes.
    pub site: SiteId,
    /// Entity within the site ("node-3", "job-17", "farm").
    pub entity: Arc<str>,
    /// Parameter name ("cpu_load", "queue_length", "job_state").
    pub param: Arc<str>,
}

impl MetricKey {
    /// Builds a key.
    pub fn new(site: SiteId, entity: impl Into<Arc<str>>, param: impl Into<Arc<str>>) -> Self {
        MetricKey {
            site,
            entity: entity.into(),
            param: param.into(),
        }
    }

    /// The site-wide key for a parameter (entity = `"farm"`).
    pub fn site_wide(site: SiteId, param: impl Into<Arc<str>>) -> Self {
        Self::new(site, "farm", param)
    }
}

/// One measurement.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Sample {
    /// When the measurement was taken (virtual time).
    pub at: SimTime,
    /// The measured value.
    pub value: f64,
}

/// One publication round: samples that all carry the instant the
/// batch was built `at`, in the order they were added. Hand it to
/// [`TimeSeriesStore::publish_batch`] (or the repository's) as is.
pub struct MetricBatch {
    at: SimTime,
    samples: Vec<(MetricKey, Sample)>,
}

impl MetricBatch {
    /// An empty batch stamped `at`.
    pub fn at(at: SimTime) -> Self {
        MetricBatch {
            at,
            samples: Vec::new(),
        }
    }

    /// Adds a sample under a key the caller already holds — the form
    /// for interned keys published every tick.
    pub fn push(&mut self, key: MetricKey, value: f64) {
        self.samples.push((key, Sample { at: self.at, value }));
    }

    /// Adds one sample, building its key.
    pub fn gauge(
        &mut self,
        site: SiteId,
        entity: impl Into<Arc<str>>,
        param: impl Into<Arc<str>>,
        value: f64,
    ) {
        self.push(MetricKey::new(site, entity, param), value);
    }

    /// Adds grid-wide samples (site 0) that share one entity name.
    pub fn gauges<P: Into<Arc<str>>>(
        &mut self,
        entity: impl Into<Arc<str>>,
        params: impl IntoIterator<Item = (P, f64)>,
    ) {
        let entity = entity.into();
        for (param, value) in params {
            self.gauge(SiteId::new(0), entity.clone(), param, value);
        }
    }
}

impl IntoIterator for MetricBatch {
    type Item = (MetricKey, Sample);
    type IntoIter = std::vec::IntoIter<(MetricKey, Sample)>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.into_iter()
    }
}

/// A map of metric keys to bounded sample rings.
pub struct TimeSeriesStore {
    series: HashMap<MetricKey, VecDeque<Sample>>,
    capacity: usize,
    total_published: u64,
}

impl TimeSeriesStore {
    /// Creates a store keeping at most `capacity` samples per metric.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store capacity must be positive");
        TimeSeriesStore {
            series: HashMap::new(),
            capacity,
            total_published: 0,
        }
    }

    /// Records a sample. Out-of-order samples (older than the newest)
    /// are accepted but flagged by the return value (`false`), since
    /// grid monitoring streams are usually but not always ordered.
    pub fn publish(&mut self, key: MetricKey, sample: Sample) -> bool {
        self.total_published += 1;
        let ring = self.series.entry(key).or_default();
        let in_order = ring.back().map(|last| sample.at >= last.at).unwrap_or(true);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        if in_order {
            ring.push_back(sample);
        } else {
            // Insert maintaining time order.
            let pos = ring.partition_point(|s| s.at <= sample.at);
            ring.insert(pos, sample);
        }
        in_order
    }

    /// Records a whole batch of samples in one call. Equivalent to
    /// publishing each `(key, sample)` in order; exists so callers that
    /// guard the store with a lock (the MonALISA repository) can take
    /// it once per tick instead of once per metric. Returns the number
    /// of samples that arrived in time order (cf. [`Self::publish`]).
    pub fn publish_batch(
        &mut self,
        samples: impl IntoIterator<Item = (MetricKey, Sample)>,
    ) -> usize {
        let mut in_order = 0;
        for (key, sample) in samples {
            if self.publish(key, sample) {
                in_order += 1;
            }
        }
        in_order
    }

    /// Latest sample of a metric.
    pub fn latest(&self, key: &MetricKey) -> Option<Sample> {
        self.series.get(key).and_then(|r| r.back().copied())
    }

    /// All samples in `[from, to]`, in time order.
    pub fn range(&self, key: &MetricKey, from: SimTime, to: SimTime) -> Vec<Sample> {
        match self.series.get(key) {
            Some(ring) => ring
                .iter()
                .filter(|s| s.at >= from && s.at <= to)
                .copied()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Mean value over `[from, to]`, `None` if the window is empty.
    pub fn mean(&self, key: &MetricKey, from: SimTime, to: SimTime) -> Option<f64> {
        let samples = self.range(key, from, to);
        if samples.is_empty() {
            None
        } else {
            Some(samples.iter().map(|s| s.value).sum::<f64>() / samples.len() as f64)
        }
    }

    /// Maximum value over `[from, to]`.
    pub fn max(&self, key: &MetricKey, from: SimTime, to: SimTime) -> Option<f64> {
        self.range(key, from, to)
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Minimum value over `[from, to]`.
    pub fn min(&self, key: &MetricKey, from: SimTime, to: SimTime) -> Option<f64> {
        self.range(key, from, to)
            .iter()
            .map(|s| s.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// The `q`-quantile (0.0–1.0, nearest-rank) of values in
    /// `[from, to]`.
    pub fn quantile(&self, key: &MetricKey, from: SimTime, to: SimTime, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let mut values: Vec<f64> = self.range(key, from, to).iter().map(|s| s.value).collect();
        if values.is_empty() {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
        let rank = ((values.len() as f64 - 1.0) * q).round() as usize;
        Some(values[rank])
    }

    /// Number of samples currently retained for a metric.
    pub fn len(&self, key: &MetricKey) -> usize {
        self.series.get(key).map(|r| r.len()).unwrap_or(0)
    }

    /// True if nothing has been retained for `key`.
    pub fn is_empty(&self, key: &MetricKey) -> bool {
        self.len(key) == 0
    }

    /// All keys with at least one retained sample.
    pub fn keys(&self) -> Vec<&MetricKey> {
        self.series.keys().collect()
    }

    /// Lifetime count of published samples (including aged-out ones).
    pub fn total_published(&self) -> u64 {
        self.total_published
    }

    /// Every retained series, sorted by `(site, entity, param)` —
    /// deterministic order for snapshot encoding.
    pub fn export(&self) -> Vec<(MetricKey, Vec<Sample>)> {
        let mut out: Vec<(MetricKey, Vec<Sample>)> = self
            .series
            .iter()
            .map(|(k, ring)| (k.clone(), ring.iter().copied().collect()))
            .collect();
        out.sort_by(|(a, _), (b, _)| {
            (a.site, &*a.entity, &*a.param).cmp(&(b.site, &*b.entity, &*b.param))
        });
        out
    }

    /// Replaces all retained series with `series` (each truncated to
    /// capacity, keeping the newest samples), as when restoring a
    /// snapshot. `total_published` resumes from the restored count.
    pub fn restore(&mut self, series: Vec<(MetricKey, Vec<Sample>)>, total_published: u64) {
        self.series.clear();
        for (key, samples) in series {
            let skip = samples.len().saturating_sub(self.capacity);
            self.series
                .insert(key, samples.into_iter().skip(skip).collect());
        }
        self.total_published = total_published;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MetricKey {
        MetricKey::site_wide(SiteId::new(1), "cpu_load")
    }

    fn s(at: u64, value: f64) -> Sample {
        Sample {
            at: SimTime::from_secs(at),
            value,
        }
    }

    #[test]
    fn publish_and_latest() {
        let mut store = TimeSeriesStore::new(16);
        assert!(store.latest(&key()).is_none());
        assert!(store.publish(key(), s(1, 0.5)));
        assert!(store.publish(key(), s(2, 0.7)));
        assert_eq!(store.latest(&key()).unwrap(), s(2, 0.7));
        assert_eq!(store.len(&key()), 2);
        assert_eq!(store.total_published(), 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut store = TimeSeriesStore::new(3);
        for i in 0..10 {
            store.publish(key(), s(i, i as f64));
        }
        assert_eq!(store.len(&key()), 3);
        let r = store.range(&key(), SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(r, vec![s(7, 7.0), s(8, 8.0), s(9, 9.0)]);
        assert_eq!(store.total_published(), 10);
    }

    #[test]
    fn range_is_inclusive() {
        let mut store = TimeSeriesStore::new(16);
        for i in 1..=5 {
            store.publish(key(), s(i, i as f64));
        }
        let r = store.range(&key(), SimTime::from_secs(2), SimTime::from_secs(4));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].at, SimTime::from_secs(2));
        assert_eq!(r[2].at, SimTime::from_secs(4));
    }

    #[test]
    fn mean_over_window() {
        let mut store = TimeSeriesStore::new(16);
        store.publish(key(), s(1, 1.0));
        store.publish(key(), s(2, 3.0));
        assert_eq!(
            store.mean(&key(), SimTime::ZERO, SimTime::from_secs(10)),
            Some(2.0)
        );
        assert_eq!(
            store.mean(&key(), SimTime::from_secs(5), SimTime::from_secs(10)),
            None
        );
    }

    #[test]
    fn aggregations_over_windows() {
        let mut store = TimeSeriesStore::new(32);
        for (t, v) in [(1, 4.0), (2, 1.0), (3, 9.0), (4, 2.0), (5, 7.0)] {
            store.publish(key(), s(t, v));
        }
        let all = (SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(store.max(&key(), all.0, all.1), Some(9.0));
        assert_eq!(store.min(&key(), all.0, all.1), Some(1.0));
        assert_eq!(store.quantile(&key(), all.0, all.1, 0.5), Some(4.0));
        assert_eq!(store.quantile(&key(), all.0, all.1, 0.0), Some(1.0));
        assert_eq!(store.quantile(&key(), all.0, all.1, 1.0), Some(9.0));
        // Narrow window.
        let w = (SimTime::from_secs(2), SimTime::from_secs(4));
        assert_eq!(store.max(&key(), w.0, w.1), Some(9.0));
        assert_eq!(store.min(&key(), w.0, w.1), Some(1.0));
        // Empty window.
        let e = (SimTime::from_secs(50), SimTime::from_secs(60));
        assert_eq!(store.max(&key(), e.0, e.1), None);
        assert_eq!(store.quantile(&key(), e.0, e.1, 0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_range_checked() {
        let store = TimeSeriesStore::new(4);
        let _ = store.quantile(&key(), SimTime::ZERO, SimTime::ZERO, 1.5);
    }

    #[test]
    fn out_of_order_flagged_but_ordered() {
        let mut store = TimeSeriesStore::new(16);
        assert!(store.publish(key(), s(5, 5.0)));
        assert!(!store.publish(key(), s(3, 3.0)));
        let r = store.range(&key(), SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(r, vec![s(3, 3.0), s(5, 5.0)]);
        // Latest is still the newest by time.
        assert_eq!(store.latest(&key()).unwrap(), s(5, 5.0));
    }

    #[test]
    fn distinct_keys_are_independent() {
        let mut store = TimeSeriesStore::new(4);
        let k2 = MetricKey::new(SiteId::new(2), "node-1", "cpu_load");
        store.publish(key(), s(1, 1.0));
        store.publish(k2.clone(), s(1, 9.0));
        assert_eq!(store.latest(&key()).unwrap().value, 1.0);
        assert_eq!(store.latest(&k2).unwrap().value, 9.0);
        assert_eq!(store.keys().len(), 2);
        assert!(!store.is_empty(&k2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        TimeSeriesStore::new(0);
    }

    #[test]
    fn batch_matches_sequential_publishes() {
        let mut batched = TimeSeriesStore::new(8);
        let mut sequential = TimeSeriesStore::new(8);
        let samples = vec![
            (key(), s(1, 1.0)),
            (key(), s(3, 3.0)),
            (key(), s(2, 2.0)), // out of order
            (
                MetricKey::new(SiteId::new(2), "node-1", "cpu_load"),
                s(1, 9.0),
            ),
        ];
        let in_order = batched.publish_batch(samples.clone());
        let mut expected_in_order = 0;
        for (k, smp) in samples {
            if sequential.publish(k, smp) {
                expected_in_order += 1;
            }
        }
        assert_eq!(in_order, expected_in_order);
        assert_eq!(in_order, 3);
        assert_eq!(batched.total_published(), sequential.total_published());
        let window = (SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(
            batched.range(&key(), window.0, window.1),
            sequential.range(&key(), window.0, window.1)
        );
    }

    #[test]
    fn metric_batch_stamps_and_keeps_insertion_order() {
        let mut batch = MetricBatch::at(SimTime::from_secs(7));
        batch.push(key(), 0.5);
        batch.gauge(SiteId::new(2), "xfer", "storage_pinned", 3.0);
        batch.gauges("gate", [("queue_depth", 1.0), ("peak_queue_depth", 4.0)]);
        let grid_wide = |param: &str| MetricKey::new(SiteId::new(0), "gate", param);
        assert_eq!(
            batch.into_iter().collect::<Vec<_>>(),
            vec![
                (key(), s(7, 0.5)),
                (
                    MetricKey::new(SiteId::new(2), "xfer", "storage_pinned"),
                    s(7, 3.0)
                ),
                (grid_wide("queue_depth"), s(7, 1.0)),
                (grid_wide("peak_queue_depth"), s(7, 4.0)),
            ]
        );
    }

    #[test]
    fn cloned_keys_share_interned_names() {
        let k = key();
        let c = k.clone();
        assert!(Arc::ptr_eq(&k.entity, &c.entity));
        assert!(Arc::ptr_eq(&k.param, &c.param));
    }
}
