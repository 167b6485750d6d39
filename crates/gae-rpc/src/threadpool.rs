//! A small fixed-size worker pool over crossbeam channels.
//!
//! The un-gated backend of the door ([`crate::door`]): the `gae-aio`
//! reactor — the one server — submits every POST through it, and the
//! pool bounds request-handling concurrency (the paper's Figure 6
//! measures exactly this: response time as parallel clients grow
//! beyond the server's service capacity). The hand-off
//! queue is *bounded*: when the backlog is full, [`ThreadPool::execute`]
//! refuses with a typed [`ExecuteError::Saturated`] instead of
//! buffering without limit — callers turn that into an overload fault
//! rather than letting latency grow unobserved.

use crossbeam::channel::{bounded, Sender, TrySendError};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`ThreadPool::execute`] refused a job.
#[derive(Debug, PartialEq, Eq)]
pub enum ExecuteError {
    /// The backlog is full: every worker is busy and the hand-off
    /// queue is at capacity. Carries the depth observed at refusal.
    Saturated {
        /// Jobs waiting in the hand-off queue when the push failed.
        queue_depth: usize,
    },
    /// The pool is shutting down and no longer accepts work.
    ShuttingDown,
}

impl fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecuteError::Saturated { queue_depth } => {
                write!(f, "thread pool saturated (queue_depth={queue_depth})")
            }
            ExecuteError::ShuttingDown => f.write_str("thread pool shutting down"),
        }
    }
}

impl std::error::Error for ExecuteError {}

/// A fixed pool of worker threads consuming a shared bounded queue.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    in_flight: Arc<AtomicUsize>,
    backlog: usize,
}

impl ThreadPool {
    /// Backlog used by [`ThreadPool::new`]: four queued jobs per
    /// worker, the classic servlet-container ratio.
    pub const DEFAULT_BACKLOG_PER_WORKER: usize = 4;

    /// Spawns `size` workers (at least 1) with the default backlog.
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        Self::with_backlog(size, size * Self::DEFAULT_BACKLOG_PER_WORKER)
    }

    /// Spawns `size` workers (at least 1) over a hand-off queue
    /// holding at most `backlog` (at least 1) waiting jobs.
    pub fn with_backlog(size: usize, backlog: usize) -> Self {
        let size = size.max(1);
        let backlog = backlog.max(1);
        let (tx, rx) = bounded::<Job>(backlog);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let rx = rx.clone();
            let in_flight = in_flight.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gae-rpc-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                            in_flight.fetch_sub(1, Ordering::Release);
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }
        ThreadPool {
            tx: Some(tx),
            workers,
            in_flight,
            backlog,
        }
    }

    /// Enqueues a job without blocking. `Err(Saturated)` when the
    /// backlog is full, `Err(ShuttingDown)` when the pool is closing;
    /// the job is dropped in both cases (callers hold what they need
    /// to fault the request).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), ExecuteError> {
        let tx = match &self.tx {
            Some(tx) => tx,
            None => return Err(ExecuteError::ShuttingDown),
        };
        self.in_flight.fetch_add(1, Ordering::Acquire);
        match tx.try_send(Box::new(job)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                self.in_flight.fetch_sub(1, Ordering::Release);
                Err(ExecuteError::Saturated {
                    queue_depth: self.queue_depth(),
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.in_flight.fetch_sub(1, Ordering::Release);
                Err(ExecuteError::ShuttingDown)
            }
        }
    }

    /// Jobs waiting in the hand-off queue (not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.tx.as_ref().map(|tx| tx.len()).unwrap_or(0)
    }

    /// Maximum number of jobs the hand-off queue holds.
    pub fn backlog(&self) -> usize {
        self.backlog
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

impl Drop for ThreadPool {
    /// Drops the queue (workers drain what's left) and joins them.
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn executes_all_jobs() {
        // Backlog 100: all submissions fit.
        let pool = ThreadPool::with_backlog(4, 100);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = counter.clone();
            assert!(pool
                .execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
                .is_ok());
        }
        drop(pool); // join waits for completion
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn jobs_run_concurrently() {
        let pool = ThreadPool::new(4);
        let gate = Arc::new(std::sync::Barrier::new(4));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let gate = gate.clone();
            let peak = peak.clone();
            pool.execute(move || {
                // All four must be inside the pool simultaneously for
                // the barrier to release.
                gate.wait();
                peak.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(peak.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn size_is_clamped() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.backlog(), ThreadPool::DEFAULT_BACKLOG_PER_WORKER);
        let done = Arc::new(AtomicU64::new(0));
        let d = done.clone();
        pool.execute(move || {
            d.store(1, Ordering::Relaxed);
        })
        .unwrap();
        drop(pool);
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn in_flight_tracks_progress() {
        let pool = ThreadPool::new(1);
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        pool.execute(move || {
            let _ = rx.recv_timeout(Duration::from_secs(5));
        })
        .unwrap();
        // One blocked job in flight.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pool.in_flight(), 1);
        tx.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn saturation_is_a_typed_refusal_not_a_silent_queue() {
        let pool = ThreadPool::with_backlog(1, 2);
        let (release_tx, release_rx) = crossbeam::channel::bounded::<()>(8);
        let (started_tx, started_rx) = crossbeam::channel::bounded::<()>(1);
        // Occupy the single worker and wait until it actually starts,
        // so the backlog below is measured with the worker busy.
        {
            let rx = release_rx.clone();
            pool.execute(move || {
                let _ = started_tx.send(());
                let _ = rx.recv_timeout(Duration::from_secs(5));
            })
            .unwrap();
        }
        started_rx.recv().unwrap();
        // Fill the backlog of 2.
        for _ in 0..2 {
            let rx = release_rx.clone();
            pool.execute(move || {
                let _ = rx.recv_timeout(Duration::from_secs(5));
            })
            .unwrap();
        }
        assert_eq!(pool.queue_depth(), 2);
        // Fourth job: worker busy + backlog full → typed saturation.
        match pool.execute(|| {}) {
            Err(ExecuteError::Saturated { queue_depth }) => assert_eq!(queue_depth, 2),
            other => panic!("expected saturation, got {other:?}"),
        }
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        drop(pool);
    }
}
