//! The typed monitoring façade the other GAE services consume.

use crate::store::{MetricKey, Sample, SeriesId, TimeSeriesStore};
use gae_types::{JobId, SimTime, SiteId, TaskId, TaskStatus};
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::Arc;

/// A job state-change event, as published by the Job Monitoring
/// Service's DBManager "whenever the state of a job changes" (§5).
#[derive(Clone, Debug, PartialEq)]
pub struct JobEvent {
    /// Virtual time of the change.
    pub at: SimTime,
    /// The job.
    pub job: JobId,
    /// The task whose state changed.
    pub task: TaskId,
    /// Site hosting the task at the time of the change.
    pub site: SiteId,
    /// The new state.
    pub status: TaskStatus,
}

type EventCallback = Box<dyn Fn(&JobEvent) + Send + Sync>;

/// The MonALISA-substitute repository.
///
/// Thread-safe: the RPC layer publishes from worker threads while the
/// scheduler and optimizer read concurrently.
pub struct MonAlisaRepository {
    metrics: RwLock<TimeSeriesStore>,
    /// Oldest first; a deque, so eviction at the cap is O(1).
    job_events: RwLock<VecDeque<JobEvent>>,
    subscribers: RwLock<Vec<EventCallback>>,
    /// Cap on the retained job-event log.
    event_capacity: usize,
    /// Monotonic count of job events dropped by the retention cap.
    evicted: std::sync::atomic::AtomicU64,
}

/// Metric under which event-log evictions are published (site 0 =
/// the monitoring service itself, not a grid site).
pub fn evictions_metric_key() -> MetricKey {
    MetricKey::new(SiteId::new(0), "monalisa", "evictions")
}

impl MonAlisaRepository {
    /// Creates a repository retaining `metric_capacity` samples per
    /// metric and `event_capacity` job events.
    pub fn new(metric_capacity: usize, event_capacity: usize) -> Arc<Self> {
        Arc::new(MonAlisaRepository {
            metrics: RwLock::new(TimeSeriesStore::new(metric_capacity)),
            job_events: RwLock::new(VecDeque::new()),
            subscribers: RwLock::new(Vec::new()),
            event_capacity: event_capacity.max(1),
            evicted: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Defaults sized for the reproduction experiments.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(4096, 65_536)
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

    /// Publishes a site's farm-wide CPU load (what the scheduler reads
    /// in §6.1 step d).
    pub fn publish_site_load(&self, site: SiteId, at: SimTime, load: f64) {
        self.publish_metric(MetricKey::site_wide(site, "cpu_load"), at, load);
    }

    /// Latest farm-wide CPU load of a site.
    pub fn site_load(&self, site: SiteId) -> Option<f64> {
        self.metrics
            .read()
            .latest(&MetricKey::site_wide(site, "cpu_load"))
            .map(|s| s.value)
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

    // ---- job events ----

    /// Publishes a job state change and notifies subscribers. When the
    /// retention cap forces the oldest event out, the monotonic
    /// eviction counter advances and a `monalisa.evictions` metric
    /// sample is published, so replay consumers can detect the gap
    /// instead of silently missing history.
    pub fn publish_job_event(&self, event: JobEvent) {
        let evicted_total = {
            let mut log = self.job_events.write();
            let evicted = if log.len() == self.event_capacity {
                log.pop_front();
                Some(
                    self.evicted
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                        + 1,
                )
            } else {
                None
            };
            log.push_back(event.clone());
            evicted
        };
        if let Some(total) = evicted_total {
            self.publish_metric(evictions_metric_key(), event.at, total as f64);
        }
        let subs = self.subscribers.read();
        for cb in subs.iter() {
            cb(&event);
        }
    }

    /// Monotonic count of job events dropped by the retention cap.
    pub fn evicted_count(&self) -> u64 {
        self.evicted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// All retained events for one job, in publication order.
    pub fn job_history(&self, job: JobId) -> Vec<JobEvent> {
        self.job_events
            .read()
            .iter()
            .filter(|e| e.job == job)
            .cloned()
            .collect()
    }

    // ---- durability hooks ----

    /// The retained job-event log, oldest first (snapshot export).
    pub fn events_snapshot(&self) -> Vec<JobEvent> {
        self.job_events.read().iter().cloned().collect()
    }

    /// Replaces the retained event log and eviction counter, as when
    /// restoring from a snapshot. Subscribers are *not* notified —
    /// restored events were already observed before the crash.
    pub fn restore_events(&self, events: Vec<JobEvent>, evicted: u64) {
        let drop_n = events.len().saturating_sub(self.event_capacity);
        *self.job_events.write() = events.into_iter().skip(drop_n).collect();
        self.evicted
            .store(evicted, std::sync::atomic::Ordering::Relaxed);
    }

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

    // ---- subscriptions ----

    /// Registers a callback invoked on every future job event.
    pub fn subscribe<F>(&self, callback: F)
    where
        F: Fn(&JobEvent) + Send + Sync + 'static,
    {
        self.subscribers.write().push(Box::new(callback));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(at: u64, job: u64, task: u64, status: TaskStatus) -> JobEvent {
        JobEvent {
            at: SimTime::from_secs(at),
            job: JobId::new(job),
            task: TaskId::new(task),
            site: SiteId::new(1),
            status,
        }
    }

    #[test]
    fn site_load_roundtrip() {
        let repo = MonAlisaRepository::with_defaults();
        assert!(repo.site_load(SiteId::new(1)).is_none());
        repo.publish_site_load(SiteId::new(1), SimTime::from_secs(1), 2.5);
        repo.publish_site_load(SiteId::new(1), SimTime::from_secs(2), 3.5);
        assert_eq!(repo.site_load(SiteId::new(1)), Some(3.5));
        assert!(repo.site_load(SiteId::new(2)).is_none());
    }

    #[test]
    fn job_history_filters_by_job() {
        let repo = MonAlisaRepository::with_defaults();
        repo.publish_job_event(event(1, 1, 1, TaskStatus::Queued));
        repo.publish_job_event(event(2, 2, 2, TaskStatus::Queued));
        repo.publish_job_event(event(3, 1, 1, TaskStatus::Running));
        let h = repo.job_history(JobId::new(1));
        assert_eq!(h.len(), 2);
        assert_eq!(h[1].status, TaskStatus::Running);
        assert_eq!(repo.events_snapshot().len(), 3);
    }

    #[test]
    fn event_log_bounded() {
        let repo = MonAlisaRepository::new(8, 3);
        for i in 0..10 {
            repo.publish_job_event(event(i, 1, 1, TaskStatus::Running));
        }
        assert_eq!(repo.events_snapshot().len(), 3);
        let h = repo.job_history(JobId::new(1));
        assert_eq!(h[0].at, SimTime::from_secs(7));
    }

    #[test]
    fn evictions_are_counted_and_published() {
        let repo = MonAlisaRepository::new(8, 3);
        assert_eq!(repo.evicted_count(), 0);
        for i in 0..3 {
            repo.publish_job_event(event(i, 1, 1, TaskStatus::Running));
        }
        // Log exactly full: nothing evicted, no metric yet.
        assert_eq!(repo.evicted_count(), 0);
        assert!(repo.latest(&evictions_metric_key()).is_none());
        for i in 3..10 {
            repo.publish_job_event(event(i, 1, 1, TaskStatus::Running));
        }
        // 10 published into a cap of 3 → 7 evicted, monotonically.
        assert_eq!(repo.evicted_count(), 7);
        let metric = repo.latest(&evictions_metric_key()).expect("metric");
        assert_eq!(metric.value, 7.0);
        assert_eq!(metric.at, SimTime::from_secs(9));
        // The metric series records every eviction, not just the last.
        let series = repo.range(
            &evictions_metric_key(),
            SimTime::ZERO,
            SimTime::from_secs(100),
        );
        assert_eq!(series.len(), 7);
        assert_eq!(series[0].value, 1.0);
    }

    /// The log as it was held before the deque — a `Vec` evicting
    /// with `remove(0)` — answers the same, event for event, through
    /// three capacities' worth of publications and a restore.
    #[test]
    fn deque_log_equals_the_vec_log_through_3x_capacity() {
        const CAP: usize = 8;
        let repo = MonAlisaRepository::new(4_096, CAP);
        let mut log: Vec<JobEvent> = Vec::new();
        let mut evicted = 0u64;
        for i in 0..3 * CAP as u64 {
            let e = event(i, i % 3, i % 5, TaskStatus::Running);
            if log.len() == CAP {
                log.remove(0);
                evicted += 1;
            }
            log.push(e.clone());
            repo.publish_job_event(e);
            if i == CAP as u64 + 3 {
                // Over-long restore: only the newest CAP survive.
                let mut longer = vec![event(0, 9, 9, TaskStatus::Queued); 3];
                longer.extend(log.iter().cloned());
                repo.restore_events(longer.clone(), evicted);
                log = longer.split_off(longer.len() - CAP);
            }
            assert_eq!(repo.events_snapshot(), log, "after event {i}");
            assert_eq!(repo.events_snapshot().len(), log.len());
            assert_eq!(repo.evicted_count(), evicted);
            for job in 0..3 {
                let history: Vec<JobEvent> = log
                    .iter()
                    .filter(|e| e.job == JobId::new(job))
                    .cloned()
                    .collect();
                assert_eq!(repo.job_history(JobId::new(job)), history);
            }
        }
        assert_eq!(evicted, 2 * CAP as u64);
        let series = repo.range(
            &evictions_metric_key(),
            SimTime::ZERO,
            SimTime::from_secs(100),
        );
        let counts: Vec<f64> = series.iter().map(|s| s.value).collect();
        assert_eq!(counts, (1..=evicted).map(|n| n as f64).collect::<Vec<_>>());
        assert_eq!(series[0].at, SimTime::from_secs(CAP as u64));
    }

    #[test]
    fn snapshot_roundtrip_restores_events_and_metrics() {
        let repo = MonAlisaRepository::new(8, 4);
        for i in 0..6 {
            repo.publish_job_event(event(i, 1, i, TaskStatus::Completed));
        }
        repo.publish_site_load(SiteId::new(2), SimTime::from_secs(3), 1.25);
        let events = repo.events_snapshot();
        let evicted = repo.evicted_count();
        let (series, total) = repo.metrics_snapshot();

        let fresh = MonAlisaRepository::new(8, 4);
        fresh.restore_events(events.clone(), evicted);
        fresh.restore_metrics(series, total);
        assert_eq!(fresh.events_snapshot(), events);
        assert_eq!(fresh.evicted_count(), 2);
        assert_eq!(fresh.site_load(SiteId::new(2)), Some(1.25));
        let (s1, t1) = repo.metrics_snapshot();
        let (s2, t2) = fresh.metrics_snapshot();
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn subscriber_sees_event_payload() {
        let repo = MonAlisaRepository::with_defaults();
        let seen = Arc::new(RwLock::new(None));
        let s2 = seen.clone();
        repo.subscribe(move |e| {
            *s2.write() = Some(e.clone());
        });
        let e = event(5, 9, 4, TaskStatus::Completed);
        repo.publish_job_event(e.clone());
        assert_eq!(seen.read().as_ref(), Some(&e));
    }

    #[test]
    fn concurrent_publish_and_read() {
        let repo = MonAlisaRepository::with_defaults();
        let mut handles = Vec::new();
        for t in 0..4 {
            let repo = repo.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    repo.publish_site_load(SiteId::new(t), SimTime::from_secs(i), i as f64);
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
