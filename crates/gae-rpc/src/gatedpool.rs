//! A worker pool fed through the gate's bounded admission queue.
//!
//! The door's one hand-off (the paper's Figure 6 measures exactly
//! this: response time as parallel clients grow beyond the server's
//! service capacity): jobs enter through an [`AdmissionQueue`] that is
//! bounded, priority-aware and deadline-expiring, and every job —
//! served, expired or displaced — is *always invoked exactly once*
//! with its [`Disposition`], so the connection waiting on the response
//! always receives a body (a result or a typed overload fault), never
//! a hang.

use gae_gate::{AdmissionQueue, Gate, GateClass, Popped, RejectReason, Rejected};
use gae_types::{GaeError, GaeResult, SimDuration};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How a job left the admission queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Popped by a worker in time: do the work.
    Run,
    /// Its queue deadline passed before a worker reached it: deliver
    /// a cheap overload fault, skip the work.
    Expired {
        /// Suggested client back-off.
        retry_after: SimDuration,
    },
    /// Displaced by a higher-priority arrival while the queue was
    /// full: deliver an overload fault, skip the work.
    Shed {
        /// Suggested client back-off.
        retry_after: SimDuration,
    },
}

/// A queued unit of work: always called exactly once.
pub type GatedJob = Box<dyn FnOnce(Disposition) + Send + 'static>;

/// Fixed workers draining a bounded, priority-aware admission queue.
pub struct GatedPool {
    queue: Arc<AdmissionQueue<GatedJob>>,
    workers: Vec<JoinHandle<()>>,
    in_flight: Arc<AtomicUsize>,
    expiry_backoff: SimDuration,
}

impl GatedPool {
    /// Spawns `size` workers (at least 1) over `gate`'s queue policy.
    /// The queue shares the gate's clock and metrics, so shed/expiry
    /// counters and queue depth land in the same [`gae_gate::GateStats`]
    /// snapshot the wiring layer publishes. A worker that fails to
    /// spawn is an `Io` error; the ones already running are joined.
    pub fn new(gate: &Gate, size: usize) -> GaeResult<GatedPool> {
        let size = size.max(1);
        let config = gate.config().queue;
        let queue = Arc::new(AdmissionQueue::<GatedJob>::new(
            config,
            gate.clock(),
            gate.metrics(),
        ));
        // An expired request missed a full deadline of queueing: tell
        // the client to back off half a deadline before retrying.
        let expiry_backoff = config
            .deadline
            .div_f64(2.0)
            .max(SimDuration::from_millis(1));
        let mut pool = GatedPool {
            queue,
            workers: Vec::with_capacity(size),
            in_flight: Arc::new(AtomicUsize::new(0)),
            expiry_backoff,
        };
        for i in 0..size {
            let queue = pool.queue.clone();
            let in_flight = pool.in_flight.clone();
            pool.workers.push(
                std::thread::Builder::new()
                    .name(format!("gae-gate-worker-{i}"))
                    .spawn(move || loop {
                        match queue.pop_blocking(Duration::from_millis(100)) {
                            Some(Popped::Run(_, job)) => {
                                job(Disposition::Run);
                                in_flight.fetch_sub(1, Ordering::Release);
                            }
                            Some(Popped::Expired(_, job)) => {
                                job(Disposition::Expired {
                                    retry_after: expiry_backoff,
                                });
                                in_flight.fetch_sub(1, Ordering::Release);
                            }
                            None => {
                                if queue.is_closed() {
                                    return;
                                }
                            }
                        }
                    })
                    .map_err(|e| GaeError::Io(format!("spawn gated worker: {e}")))?,
            );
        }
        Ok(pool)
    }

    /// Offers a job at `class`. On acceptance, any entries evicted to
    /// make room are faulted here (each victim's closure runs with its
    /// shed/expired disposition on the submitting thread — cheap fault
    /// writes, not grid work). `Err(retry_after)` means the *incoming*
    /// job was refused and never enqueued; the caller still owns the
    /// request and delivers its fault.
    pub fn submit(&self, class: GateClass, job: GatedJob) -> Result<(), SimDuration> {
        self.in_flight.fetch_add(1, Ordering::Acquire);
        match self.queue.push(class, job) {
            Ok(rejected) => {
                for r in rejected {
                    self.fault_victim(r);
                }
                Ok(())
            }
            Err(retry_after) => {
                self.in_flight.fetch_sub(1, Ordering::Release);
                Err(retry_after)
            }
        }
    }

    fn fault_victim(&self, r: Rejected<GatedJob>) {
        let disposition = match r.reason {
            RejectReason::Displaced => Disposition::Shed {
                retry_after: r.retry_after,
            },
            RejectReason::Expired => Disposition::Expired {
                retry_after: self.expiry_backoff.max(r.retry_after),
            },
        };
        (r.item)(disposition);
        self.in_flight.fetch_sub(1, Ordering::Release);
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Jobs submitted but not yet finished (queued + executing).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for GatedPool {
    /// Closes the queue (workers drain what's queued) and joins them.
    fn drop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gae_gate::{GateConfig, ManualClock, QueueConfig, TokenBucketConfig};
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    fn small_gate(capacity: usize) -> Arc<Gate> {
        let config = GateConfig {
            bucket: TokenBucketConfig::new(1e9, 1e9), // never rate-limit here
            queue: QueueConfig::new(capacity, SimDuration::from_secs(2)),
            ..GateConfig::default()
        };
        Gate::new(config, Arc::new(gae_gate::WallClock::new()))
    }

    #[test]
    fn runs_submitted_jobs() {
        // A pool asked for no workers still gets one.
        for (asked, size) in [(0, 1), (4, 4)] {
            let gate = small_gate(64);
            let pool = GatedPool::new(&gate, asked).unwrap();
            assert_eq!(pool.size(), size);
            // The first `size` jobs meet at a barrier: it releases only
            // if every worker is inside a job at the same time.
            let barrier = Arc::new(std::sync::Barrier::new(size));
            let counter = Arc::new(AtomicU64::new(0));
            for i in 0..50 {
                let c = counter.clone();
                let barrier = barrier.clone();
                pool.submit(
                    GateClass::Production,
                    Box::new(move |d| {
                        assert_eq!(d, Disposition::Run);
                        if i < size {
                            barrier.wait();
                        }
                        c.fetch_add(1, Ordering::Relaxed);
                    }),
                )
                .unwrap();
            }
            let in_flight = pool.in_flight.clone();
            drop(pool); // drains the queue
            assert_eq!(counter.load(Ordering::Relaxed), 50);
            assert_eq!(in_flight.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn every_job_sees_exactly_one_disposition_under_pressure() {
        // Frozen manual clock: nothing expires, shedding is the only
        // rejection path, and a single stalled worker keeps the queue
        // saturated.
        let config = GateConfig {
            bucket: TokenBucketConfig::new(1e9, 1e9),
            queue: QueueConfig::new(2, SimDuration::from_secs(60)),
            ..GateConfig::default()
        };
        let gate = Gate::new(config, Arc::new(ManualClock::new()));
        let pool = GatedPool::new(&gate, 1).unwrap();
        let (stall_tx, stall_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let stall_rx = Arc::new(Mutex::new(stall_rx));
        let dispositions = Arc::new(AtomicU64::new(0));
        let runs = Arc::new(AtomicU64::new(0));
        let sheds = Arc::new(AtomicU64::new(0));
        let total = 40u64;
        let mut refused = 0u64;
        for i in 0..total {
            let dispositions = dispositions.clone();
            let runs = runs.clone();
            let sheds = sheds.clone();
            let stall_rx = stall_rx.clone();
            // Odd jobs are scavengers: displaceable by production.
            let class = if i % 2 == 0 {
                GateClass::Production
            } else {
                GateClass::Scavenger
            };
            let result = pool.submit(
                class,
                Box::new(move |d| {
                    dispositions.fetch_add(1, Ordering::Relaxed);
                    match d {
                        Disposition::Run => {
                            runs.fetch_add(1, Ordering::Relaxed);
                            // First runner parks the worker until the
                            // test releases it.
                            let _ = stall_rx
                                .lock()
                                .unwrap()
                                .recv_timeout(Duration::from_millis(300));
                        }
                        Disposition::Shed { retry_after } => {
                            assert!(retry_after > SimDuration::ZERO);
                            sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        Disposition::Expired { .. } => {}
                    }
                }),
            );
            if result.is_err() {
                refused += 1;
            }
            assert!(pool.queue_depth() <= 2, "queue must stay bounded");
        }
        drop(stall_tx);
        let in_flight = pool.in_flight.clone();
        drop(pool); // drains the queue
        let delivered = dispositions.load(Ordering::Relaxed);
        // Accepted jobs all got a disposition; refused ones were
        // handed back via Err.
        assert_eq!(delivered + refused, total);
        assert!(refused > 0, "pressure must refuse some arrivals");
        assert!(sheds.load(Ordering::Relaxed) > 0, "scavengers displaced");
        assert!(runs.load(Ordering::Relaxed) > 0);
        assert_eq!(in_flight.load(Ordering::Relaxed), 0);
    }
}
