//! The bounded, priority-aware admission queue.
//!
//! This replaces the unbounded worker hand-off of the original RPC
//! thread pool: capacity is fixed, every entry carries a deadline,
//! and when the queue is full the lowest [`GateClass`] present is
//! shed first — either the incoming request (if nothing queued is
//! lower-priority than it) or a queued victim displaced to make room.
//! Shed work is *returned to the caller*, never silently dropped, so
//! the transport can deliver a typed `Overloaded` fault carrying a
//! machine-readable retry-after.
//!
//! Ordering is deterministic: entries pop in (class, arrival sequence)
//! order, and the shed victim is always the worst (class, newest
//! arrival) entry — no hash iteration, no wall-clock reads.

use crate::limiter::GateClass;
use crate::metrics::GateMetrics;
use gae_types::Clock;
use gae_types::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Shape of the admission queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueConfig {
    /// Maximum queued entries (at least 1).
    pub capacity: usize,
    /// How long an entry may wait before it expires unserved.
    pub deadline: SimDuration,
}

impl QueueConfig {
    /// A queue holding `capacity` entries for at most `deadline`.
    pub fn new(capacity: usize, deadline: SimDuration) -> Self {
        QueueConfig {
            capacity: capacity.max(1),
            deadline,
        }
    }
}

impl Default for QueueConfig {
    /// 64 entries, 2 s patience — a 2005 servlet container's backlog.
    fn default() -> Self {
        QueueConfig::new(64, SimDuration::from_secs(2))
    }
}

/// An entry the queue gave back instead of serving.
#[derive(Debug)]
pub struct Rejected<T> {
    /// The rejected payload, for fault delivery.
    pub item: T,
    /// Its priority class.
    pub class: GateClass,
    /// Why it was rejected.
    pub reason: RejectReason,
    /// Suggested client back-off.
    pub retry_after: SimDuration,
}

/// Why the queue rejected an entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Displaced by a higher-priority arrival while the queue was full.
    Displaced,
    /// Sat in the queue past its deadline.
    Expired,
}

/// What a worker pulled off the queue.
#[derive(Debug)]
pub enum Popped<T> {
    /// A live entry: serve it.
    Run(GateClass, T),
    /// An entry whose deadline passed while queued: fault it cheaply,
    /// do not do the work.
    Expired(GateClass, T),
}

struct Inner<T> {
    /// Keyed by (class, seq): `pop_first` is the highest-priority
    /// oldest entry, `pop_last` the lowest-priority newest — the shed
    /// victim.
    entries: BTreeMap<(GateClass, u64), (SimTime, T)>,
    next_seq: u64,
    closed: bool,
}

/// A bounded MPMC priority queue with deadline expiry.
pub struct AdmissionQueue<T> {
    config: QueueConfig,
    clock: Arc<dyn Clock>,
    metrics: Arc<GateMetrics>,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue reading time from `clock` and reporting into `metrics`.
    pub fn new(config: QueueConfig, clock: Arc<dyn Clock>, metrics: Arc<GateMetrics>) -> Self {
        AdmissionQueue {
            config,
            clock,
            metrics,
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                next_seq: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
        }
    }

    /// The queue configuration.
    pub fn config(&self) -> QueueConfig {
        self.config
    }

    /// Entries currently queued.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Whether [`AdmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed
    }

    /// The back-off to suggest when rejecting at `now`: the earliest
    /// queued deadline frees a slot at the latest by then (floor 1 ms
    /// so clients never busy-spin).
    fn retry_after(inner: &Inner<T>, now: SimTime) -> SimDuration {
        inner
            .entries
            .values()
            .map(|(deadline, _)| deadline.saturating_since(now))
            .min()
            .unwrap_or(SimDuration::ZERO)
            .max(SimDuration::from_millis(1))
    }

    /// Offers one entry. `Ok(rejected)` means the entry was accepted
    /// and `rejected` lists what was evicted to make room (expired
    /// entries and at most one displaced lower-priority victim) — the
    /// caller must deliver their faults. `Err(retry_after)` means the
    /// *incoming* entry itself was refused: the queue is full of work
    /// at its priority or better.
    pub fn push(&self, class: GateClass, item: T) -> Result<Vec<Rejected<T>>, SimDuration> {
        let now = self.clock.now();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(SimDuration::from_millis(1));
        }
        let mut rejected = Vec::new();
        // Full: purge anything already past its deadline first.
        if inner.entries.len() >= self.config.capacity {
            let expired: Vec<(GateClass, u64)> = inner
                .entries
                .iter()
                .filter(|(_, (deadline, _))| *deadline <= now)
                .map(|(k, _)| *k)
                .collect();
            for key in expired {
                let (_, victim) = inner.entries.remove(&key).expect("invariant: just listed");
                self.metrics.expired.bump(key.0);
                rejected.push(Rejected {
                    item: victim,
                    class: key.0,
                    reason: RejectReason::Expired,
                    retry_after: Self::retry_after(&inner, now),
                });
            }
        }
        // Still full: shed the lowest class present — but only if it
        // is strictly lower-priority than the arrival.
        if inner.entries.len() >= self.config.capacity {
            if let Some(lowest) = inner.entries.last_entry().filter(|e| e.key().0 > class) {
                let (worst, (_, victim)) = lowest.remove_entry();
                self.metrics.shed.bump(worst.0);
                let retry_after = Self::retry_after(&inner, now);
                rejected.push(Rejected {
                    item: victim,
                    class: worst.0,
                    reason: RejectReason::Displaced,
                    retry_after,
                });
            } else {
                let retry_after = Self::retry_after(&inner, now);
                self.metrics.shed.bump(class);
                drop(inner);
                // The incoming item is handed back through Err; the
                // caller still owns it.
                return Err(retry_after);
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner
            .entries
            .insert((class, seq), (now + self.config.deadline, item));
        self.metrics.set_queue_depth(inner.entries.len());
        drop(inner);
        self.not_empty.notify_one();
        Ok(rejected)
    }

    /// Pulls the highest-priority entry, blocking up to `wait` for one
    /// to arrive. `None` on timeout, or immediately once the queue is
    /// closed *and* drained.
    pub fn pop_blocking(&self, wait: Duration) -> Option<Popped<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some((key, (deadline, item))) = inner.entries.pop_first() {
                self.metrics.set_queue_depth(inner.entries.len());
                let now = self.clock.now();
                return Some(if deadline <= now {
                    self.metrics.expired.bump(key.0);
                    Popped::Expired(key.0, item)
                } else {
                    Popped::Run(key.0, item)
                });
            }
            if inner.closed {
                return None;
            }
            let (guard, result) = self
                .not_empty
                .wait_timeout(inner, wait)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            if result.timed_out() && inner.entries.is_empty() {
                return None;
            }
        }
    }

    /// Marks the queue closed: `push` starts refusing and blocked
    /// workers wake. Entries already queued are still popped (drain).
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_types::ManualClock;

    fn queue(capacity: usize, deadline_ms: u64) -> (AdmissionQueue<u32>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let q = AdmissionQueue::new(
            QueueConfig::new(capacity, SimDuration::from_millis(deadline_ms)),
            clock.clone(),
            Arc::new(GateMetrics::new()),
        );
        (q, clock)
    }

    fn pop_now<T>(q: &AdmissionQueue<T>) -> Option<Popped<T>> {
        q.pop_blocking(Duration::from_millis(1))
    }

    #[test]
    fn pops_in_class_then_fifo_order() {
        let (q, _) = queue(8, 1000);
        q.push(GateClass::Scavenger, 1).unwrap();
        q.push(GateClass::Interactive, 2).unwrap();
        q.push(GateClass::Production, 3).unwrap();
        q.push(GateClass::Interactive, 4).unwrap();
        let order: Vec<u32> = (0..4)
            .map(|_| match pop_now(&q).unwrap() {
                Popped::Run(_, v) => v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![2, 4, 3, 1]);
    }

    #[test]
    fn full_queue_sheds_lowest_class_first() {
        let (q, _) = queue(2, 1000);
        q.push(GateClass::Scavenger, 1).unwrap();
        q.push(GateClass::Production, 2).unwrap();
        // A higher-priority arrival displaces the scavenger entry.
        let rejected = q.push(GateClass::Interactive, 3).unwrap();
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].item, 1);
        assert_eq!(rejected[0].class, GateClass::Scavenger);
        assert_eq!(rejected[0].reason, RejectReason::Displaced);
        assert!(rejected[0].retry_after > SimDuration::ZERO);
        // An equal-priority arrival is refused instead.
        let retry = q.push(GateClass::Production, 4).unwrap_err();
        assert!(retry > SimDuration::ZERO);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn expired_entries_are_faulted_not_served() {
        let (q, clock) = queue(4, 100);
        q.push(GateClass::Production, 1).unwrap();
        clock.advance_micros(200_000); // 200 ms > 100 ms deadline
        match pop_now(&q).unwrap() {
            Popped::Expired(GateClass::Production, 1) => {}
            other => panic!("expected expiry, got {other:?}"),
        }
    }

    #[test]
    fn push_purges_expired_before_shedding_live_work() {
        let (q, clock) = queue(2, 100);
        q.push(GateClass::Production, 1).unwrap();
        q.push(GateClass::Production, 2).unwrap();
        clock.advance_micros(200_000);
        // Queue is "full" but only of corpses: the arrival must evict
        // them as Expired, not be refused.
        let rejected = q.push(GateClass::Scavenger, 3).unwrap();
        assert_eq!(rejected.len(), 2);
        assert!(rejected.iter().all(|r| r.reason == RejectReason::Expired));
        match pop_now(&q).unwrap() {
            Popped::Run(GateClass::Scavenger, 3) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn close_wakes_and_drains() {
        let (q, _) = queue(4, 1000);
        q.push(GateClass::Production, 7).unwrap();
        q.close();
        assert!(q.push(GateClass::Production, 8).is_err());
        match pop_now(&q).unwrap() {
            Popped::Run(_, 7) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(pop_now(&q).is_none());
    }

    #[test]
    fn depth_is_bounded_by_capacity() {
        let (q, _) = queue(3, 1000);
        let mut accepted = 0;
        for i in 0..50 {
            if q.push(GateClass::Production, i).is_ok() {
                accepted += 1;
            }
            assert!(q.depth() <= 3);
        }
        assert_eq!(accepted, 3);
    }
}
