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

/// Handle of one series in the [`TimeSeriesStore`] that issued it
/// ([`TimeSeriesStore::intern`]): publishing through it costs an
/// index, not a hash of the key. It names the key, not its samples —
/// it stays valid across [`TimeSeriesStore::restore`] — and means
/// nothing to any other store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SeriesId(u32);

/// Bounded sample rings, addressed by key or by interned handle.
///
/// A series exists for the readers (`keys`, `export`, `len`) once it
/// retains a sample; a key that was only interned is a reserved slot.
pub struct TimeSeriesStore {
    ids: HashMap<MetricKey, SeriesId>,
    /// Indexed by [`SeriesId`]; slots are never removed.
    series: Vec<(MetricKey, VecDeque<Sample>)>,
    capacity: usize,
    total_published: u64,
}

impl TimeSeriesStore {
    /// Creates a store keeping at most `capacity` samples per metric.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "invariant: store capacity must be positive");
        TimeSeriesStore {
            ids: HashMap::new(),
            series: Vec::new(),
            capacity,
            total_published: 0,
        }
    }

    /// The handle of `key`'s series, reserving an empty one the first
    /// time. Callers that publish the same keys every round intern
    /// them once and publish through [`Self::publish_ids`].
    pub fn intern(&mut self, key: MetricKey) -> SeriesId {
        if let Some(id) = self.ids.get(&key) {
            return *id;
        }
        let id =
            SeriesId(u32::try_from(self.series.len()).expect("invariant: fewer than 2^32 series"));
        self.ids.insert(key.clone(), id);
        self.series.push((key, VecDeque::new()));
        id
    }

    fn ring(&self, key: &MetricKey) -> Option<&VecDeque<Sample>> {
        self.ids.get(key).map(|id| &self.series[id.0 as usize].1)
    }

    /// Records a sample. Out-of-order samples (older than the newest)
    /// are accepted but flagged by the return value (`false`), since
    /// grid monitoring streams are usually but not always ordered.
    pub fn publish(&mut self, key: MetricKey, sample: Sample) -> bool {
        let id = self.intern(key);
        self.publish_id(id, sample)
    }

    /// [`Self::publish`] for a series the caller holds the handle of.
    fn publish_id(&mut self, id: SeriesId, sample: Sample) -> bool {
        self.total_published += 1;
        let ring = &mut self.series[id.0 as usize].1;
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

    /// [`Self::publish_batch`] by handle: `values[i]`, stamped `at`,
    /// goes to the series `ids[i]` — the same samples in the same
    /// order, with no key hashed or cloned.
    pub fn publish_ids(&mut self, at: SimTime, ids: &[SeriesId], values: &[f64]) -> usize {
        assert_eq!(ids.len(), values.len(), "invariant: one value per series");
        let mut in_order = 0;
        for (id, value) in ids.iter().zip(values) {
            if self.publish_id(*id, Sample { at, value: *value }) {
                in_order += 1;
            }
        }
        in_order
    }

    /// Latest sample of a metric.
    pub fn latest(&self, key: &MetricKey) -> Option<Sample> {
        self.ring(key).and_then(|r| r.back().copied())
    }

    /// All samples in `[from, to]`, in time order.
    pub fn range(&self, key: &MetricKey, from: SimTime, to: SimTime) -> Vec<Sample> {
        match self.ring(key) {
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

    /// Number of samples currently retained for a metric.
    pub fn len(&self, key: &MetricKey) -> usize {
        self.ring(key).map(|r| r.len()).unwrap_or(0)
    }

    /// True if nothing has been retained for `key`.
    pub fn is_empty(&self, key: &MetricKey) -> bool {
        self.len(key) == 0
    }

    /// The series retaining at least one sample.
    fn retained(&self) -> impl Iterator<Item = &(MetricKey, VecDeque<Sample>)> {
        self.series.iter().filter(|(_, ring)| !ring.is_empty())
    }

    /// All keys with at least one retained sample.
    pub fn keys(&self) -> Vec<&MetricKey> {
        self.retained().map(|(key, _)| key).collect()
    }

    /// Lifetime count of published samples (including aged-out ones).
    pub fn total_published(&self) -> u64 {
        self.total_published
    }

    /// Every retained series, sorted by `(site, entity, param)` —
    /// deterministic order for snapshot encoding.
    pub fn export(&self) -> Vec<(MetricKey, Vec<Sample>)> {
        let mut out: Vec<(MetricKey, Vec<Sample>)> = self
            .retained()
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
    /// Handles issued before the call keep naming their keys.
    pub fn restore(&mut self, series: Vec<(MetricKey, Vec<Sample>)>, total_published: u64) {
        for (_, ring) in &mut self.series {
            ring.clear();
        }
        for (key, samples) in series {
            let skip = samples.len().saturating_sub(self.capacity);
            let id = self.intern(key);
            self.series[id.0 as usize].1 = samples.into_iter().skip(skip).collect();
        }
        self.total_published = total_published;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn interning_reserves_a_slot_readers_do_not_see() {
        let mut store = TimeSeriesStore::new(4);
        let id = store.intern(key());
        assert_eq!(store.intern(key()), id, "one handle per key");
        assert!(store.keys().is_empty() && store.export().is_empty());
        assert!(store.is_empty(&key()) && store.latest(&key()).is_none());
        assert_eq!(store.total_published(), 0);
        assert_eq!(store.publish_ids(SimTime::from_secs(1), &[id], &[2.0]), 1);
        assert_eq!(store.latest(&key()), Some(s(1, 2.0)));
        assert_eq!(store.export(), vec![(key(), vec![s(1, 2.0)])]);
    }

    #[test]
    fn handles_survive_restore() {
        let mut store = TimeSeriesStore::new(4);
        let id = store.intern(key());
        store.publish_ids(SimTime::from_secs(1), &[id], &[1.0]);
        let other = MetricKey::new(SiteId::new(2), "node-1", "cpu_load");
        store.restore(vec![(other.clone(), vec![s(5, 5.0)])], 9);
        assert_eq!(store.export(), vec![(other, vec![s(5, 5.0)])]);
        store.publish_ids(SimTime::from_secs(6), &[id], &[6.0]);
        assert_eq!(store.latest(&key()), Some(s(6, 6.0)));
        assert_eq!(store.total_published(), 10);
    }

    /// The store as it was before handles — a map from key to ring —
    /// kept as the differential oracle of the interned one.
    struct KeyedStore {
        series: HashMap<MetricKey, VecDeque<Sample>>,
        capacity: usize,
        total_published: u64,
    }

    impl KeyedStore {
        fn publish(&mut self, key: MetricKey, sample: Sample) -> bool {
            self.total_published += 1;
            let ring = self.series.entry(key).or_default();
            let in_order = ring.back().map(|last| sample.at >= last.at).unwrap_or(true);
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            if in_order {
                ring.push_back(sample);
            } else {
                let pos = ring.partition_point(|s| s.at <= sample.at);
                ring.insert(pos, sample);
            }
            in_order
        }

        fn export(&self) -> Vec<(MetricKey, Vec<Sample>)> {
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

        fn restore(&mut self, series: Vec<(MetricKey, Vec<Sample>)>, total_published: u64) {
            self.series.clear();
            for (key, samples) in series {
                let skip = samples.len().saturating_sub(self.capacity);
                self.series
                    .insert(key, samples.into_iter().skip(skip).collect());
            }
            self.total_published = total_published;
        }
    }

    /// One of six keys: few enough that rings fill and evict.
    fn small_key(n: u8) -> MetricKey {
        let entity = ["farm", "node-1", "node-2"][usize::from(n % 3)];
        MetricKey::new(SiteId::new(u64::from(n / 3)), entity, "cpu_load")
    }

    #[derive(Clone, Debug)]
    enum Op {
        Publish(u8, u64, f64),
        PublishBatch(Vec<(u8, u64, f64)>),
        Intern(u8),
        /// Through whatever handles `Intern` has collected so far.
        PublishIds(u64, Vec<f64>),
        /// Non-empty series, as `export` emits them.
        Restore(Vec<(u8, Vec<(u64, f64)>)>, u64),
    }

    fn arb_sample() -> impl Strategy<Value = (u8, u64, f64)> {
        // Instants from a small range: out-of-order arrivals and ties.
        (0u8..6, 0u64..40, -4.0f64..4.0)
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_sample().prop_map(|(k, at, v)| Op::Publish(k, at, v)),
            prop::collection::vec(arb_sample(), 0..8).prop_map(Op::PublishBatch),
            (0u8..6).prop_map(Op::Intern),
            (0u8..6).prop_map(Op::Intern),
            (0u64..40, prop::collection::vec(-4.0f64..4.0, 6))
                .prop_map(|(at, v)| Op::PublishIds(at, v)),
            (0u64..40, prop::collection::vec(-4.0f64..4.0, 6))
                .prop_map(|(at, v)| Op::PublishIds(at, v)),
            (
                prop::collection::vec(
                    (
                        0u8..6,
                        prop::collection::vec((0u64..40, -4.0f64..4.0), 1..9)
                    ),
                    0..4
                ),
                0u64..1_000
            )
                .prop_map(|(series, total)| Op::Restore(series, total)),
        ]
    }

    proptest! {
        /// Any interleaving of keyed and handle publication, eviction
        /// and restore leaves what the keyed-only store holds.
        #[test]
        fn interned_store_equals_the_keyed_store(
            capacity in 1usize..6,
            ops in prop::collection::vec(arb_op(), 1..60),
        ) {
            let mut store = TimeSeriesStore::new(capacity);
            let mut oracle = KeyedStore {
                series: HashMap::new(),
                capacity,
                total_published: 0,
            };
            let mut handles: Vec<(u8, SeriesId)> = Vec::new();
            for op in ops {
                match op {
                    Op::Publish(k, at, v) => {
                        prop_assert_eq!(
                            store.publish(small_key(k), s(at, v)),
                            oracle.publish(small_key(k), s(at, v))
                        );
                    }
                    Op::PublishBatch(samples) => {
                        let keyed = |&(k, at, v): &(u8, u64, f64)| (small_key(k), s(at, v));
                        let in_order = store.publish_batch(samples.iter().map(keyed));
                        let expected = samples
                            .iter()
                            .map(keyed)
                            .filter(|(k, smp)| oracle.publish(k.clone(), *smp))
                            .count();
                        prop_assert_eq!(in_order, expected);
                    }
                    Op::Intern(k) => {
                        let id = store.intern(small_key(k));
                        if !handles.contains(&(k, id)) {
                            prop_assert!(handles.iter().all(|(hk, hid)| *hk != k && *hid != id));
                            handles.push((k, id));
                        }
                    }
                    Op::PublishIds(at, values) => {
                        let ids: Vec<SeriesId> = handles.iter().map(|(_, id)| *id).collect();
                        let values = &values[..ids.len()];
                        let in_order = store.publish_ids(SimTime::from_secs(at), &ids, values);
                        let expected = handles
                            .iter()
                            .zip(values)
                            .filter(|((k, _), v)| oracle.publish(small_key(*k), s(at, **v)))
                            .count();
                        prop_assert_eq!(in_order, expected);
                    }
                    Op::Restore(series, total) => {
                        let series: Vec<(MetricKey, Vec<Sample>)> = series
                            .into_iter()
                            .map(|(k, samples)| {
                                let samples = samples.into_iter().map(|(at, v)| s(at, v)).collect();
                                (small_key(k), samples)
                            })
                            .collect();
                        store.restore(series.clone(), total);
                        oracle.restore(series, total);
                    }
                }
                prop_assert_eq!(store.export(), oracle.export());
                prop_assert_eq!(store.total_published(), oracle.total_published);
                let mut keys: Vec<MetricKey> = store.keys().into_iter().cloned().collect();
                keys.sort_by(|a, b| (a.site, &*a.entity).cmp(&(b.site, &*b.entity)));
                let exported: Vec<MetricKey> =
                    oracle.export().into_iter().map(|(k, _)| k).collect();
                prop_assert_eq!(keys, exported);
            }
        }
    }

    #[test]
    fn cloned_keys_share_interned_names() {
        let k = key();
        let c = k.clone();
        assert!(Arc::ptr_eq(&k.entity, &c.entity));
        assert!(Arc::ptr_eq(&k.param, &c.param));
    }
}
