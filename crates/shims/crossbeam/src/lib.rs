//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the subset the workspace uses: multi-producer
//! multi-consumer channels ([`channel`]), built on `std::sync`. One
//! deviation: a `bounded(0)` channel behaves like `bounded(1)`
//! (buffered hand-off rather than a strict rendezvous); no caller in
//! this workspace depends on rendezvous blocking.

pub mod channel {
    //! MPMC channels compatible with `crossbeam::channel`'s API shape.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity; the message is handed back.
        Full(T),
        /// All receivers are gone; the message is handed back.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recovers the message that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel drained
    /// and all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders disconnected with the channel empty.
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Capacity bound; `None` = unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// The sending half of a channel. Cloneable.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half of a channel. Cloneable (MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a bounded MPMC channel (capacity 0 is promoted to 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Sends a message, blocking while the channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = self.0.cap.map(|c| state.queue.len() >= c).unwrap_or(false);
                if !full {
                    state.queue.push_back(value);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                state = self
                    .0
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Sends without blocking: `Err(Full)` when the channel is at
        /// capacity, `Err(Disconnected)` when every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let full = self.0.cap.map(|c| state.queue.len() >= c).unwrap_or(false);
            if full {
                return Err(TrySendError::Full(value));
            }
            state.queue.push_back(value);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Messages currently buffered in the channel.
        pub fn len(&self) -> usize {
            self.0
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        /// Whether the channel is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking until one arrives or every
        /// sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = state.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .0
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Receives with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = state.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, result) = self
                    .0
                    .not_empty
                    .wait_timeout(state, left)
                    .unwrap_or_else(|e| e.into_inner());
                state = guard;
                if result.timed_out() && state.queue.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Receives without blocking, `None` when empty.
        pub fn try_recv(&self) -> Option<T> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            let v = state.queue.pop_front();
            if v.is_some() {
                self.0.not_full.notify_one();
            }
            v
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            state.senders -= 1;
            if state.senders == 0 {
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers -= 1;
            if state.receivers == 0 {
                self.0.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn multiple_consumers_drain_everything() {
        let (tx, rx) = unbounded::<u64>();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || {
                let mut sum = 0u64;
                while let Ok(v) = rx.recv() {
                    sum += v;
                }
                sum
            }));
        }
        for i in 1..=100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        drop(rx);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 5050);
    }

    #[test]
    fn send_fails_after_receivers_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.len(), 2);
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
        assert_eq!(TrySendError::Full(9).into_inner(), 9);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<()>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }
}
