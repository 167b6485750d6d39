//! A bounded task history a [`RuntimeEstimator`] searches.
//!
//! "We maintain a history of tasks that have executed along with
//! their respective runtimes" (§6.1). The served estimator reads the
//! stack's columnar history instead; this ring holds the histories of
//! Figure 5, the ablations and the differential oracles.
//!
//! [`RuntimeEstimator`]: crate::estimator::RuntimeEstimator

use gae_trace::{ParagonRecord, TaskMeta};
use gae_types::SimDuration;
use parking_lot::RwLock;
use std::collections::VecDeque;

/// One observed execution.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// The task's similarity attributes.
    pub meta: TaskMeta,
    /// Its observed runtime.
    pub runtime: SimDuration,
    /// Insertion sequence (regression covariate: captures drift).
    pub seq: u64,
}

/// A bounded, append-only history of `(task, runtime)` observations.
/// The buffer is a ring: at capacity, evicting the oldest entry is
/// O(1), so a long-running site pays the same for observation number
/// ten million as for the first.
pub struct HistoryStore {
    entries: RwLock<VecDeque<HistoryEntry>>,
    capacity: usize,
    next_seq: std::sync::atomic::AtomicU64,
}

impl HistoryStore {
    /// Creates a store retaining at most `capacity` observations
    /// (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "invariant: history capacity must be positive");
        HistoryStore {
            entries: RwLock::new(VecDeque::new()),
            capacity,
            next_seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, meta: TaskMeta, runtime: SimDuration) {
        let seq = self
            .next_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut entries = self.entries.write();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(HistoryEntry { meta, runtime, seq });
    }

    /// Loads successful jobs from an accounting trace (failed jobs
    /// carry truncated runtimes and would poison the predictor).
    pub fn load_trace(&self, records: &[ParagonRecord]) -> usize {
        let mut loaded = 0;
        for r in records.iter().filter(|r| r.success) {
            self.observe(TaskMeta::from_record(r), r.runtime());
            loaded += 1;
        }
        loaded
    }

    /// Snapshot as `(meta, (runtime, seq))` pairs for template search.
    pub fn snapshot(&self) -> Vec<(TaskMeta, (SimDuration, u64))> {
        self.entries
            .read()
            .iter()
            .map(|e| (e.meta.clone(), (e.runtime, e.seq)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_trace::WorkloadModel;
    use gae_types::JobType;

    fn meta(login: &str) -> TaskMeta {
        TaskMeta {
            account: "a".into(),
            login: login.into(),
            executable: "x".into(),
            queue: "q".into(),
            partition: "p".into(),
            nodes: 1,
            job_type: JobType::Batch,
        }
    }

    #[test]
    fn observe_and_snapshot() {
        let h = HistoryStore::new(10);
        assert!(h.snapshot().is_empty());
        h.observe(meta("a"), SimDuration::from_secs(10));
        h.observe(meta("b"), SimDuration::from_secs(20));
        let snap = h.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1 .0, SimDuration::from_secs(10));
        assert!(snap[0].1 .1 < snap[1].1 .1, "sequence increases");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let h = HistoryStore::new(3);
        for i in 0..10 {
            h.observe(meta("a"), SimDuration::from_secs(i));
        }
        assert_eq!(h.snapshot().len(), 3);
        let snap = h.snapshot();
        assert_eq!(snap[0].1 .0, SimDuration::from_secs(7));
    }

    #[test]
    fn capacity_churn_stays_cheap() {
        // Regression test for the old `Vec::remove(0)` eviction: a
        // small ring churned far past capacity must stay exact (oldest
        // out first, sequence monotonic) and fast. 50k observations
        // through a 16-slot ring finishes instantly under the ring;
        // the shifting eviction made this quadratic.
        let h = HistoryStore::new(16);
        for i in 0..50_000u64 {
            h.observe(meta("churn"), SimDuration::from_secs(i));
        }
        assert_eq!(h.snapshot().len(), 16);
        let snap = h.snapshot();
        for (k, (_, (rt, seq))) in snap.iter().enumerate() {
            assert_eq!(*rt, SimDuration::from_secs(49_984 + k as u64));
            assert_eq!(*seq, 49_984 + k as u64);
        }
    }

    #[test]
    fn trace_loading_skips_failures() {
        let model = WorkloadModel {
            failure_fraction: 0.5,
            ..WorkloadModel::default()
        };
        let records = model.generate(100, 5);
        let h = HistoryStore::new(1000);
        let loaded = h.load_trace(&records);
        let successes = records.iter().filter(|r| r.success).count();
        assert_eq!(loaded, successes);
        assert_eq!(h.snapshot().len(), successes);
        assert!(successes < 100, "some failures expected at 50%");
    }
}
