//! The site's batch queue: priority order, FIFO within a priority.

use gae_types::{CondorId, Priority};
use std::collections::VecDeque;

/// One queued entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueueEntry {
    /// The execution-service id of the task.
    pub condor: CondorId,
    /// Its current priority.
    pub priority: Priority,
}

/// A priority queue with stable FIFO order inside each priority
/// level. Small (sites queue tens of tasks), so a sorted `VecDeque`
/// beats a heap: we also need positional queries (queue position is
/// part of the monitoring API, §5) and mid-queue removal (kill,
/// migrate, re-prioritise).
#[derive(Clone, Debug, Default)]
pub struct PriorityQueue {
    entries: VecDeque<QueueEntry>,
}

impl PriorityQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues behind all entries with priority `>=` the new one.
    pub fn push(&mut self, condor: CondorId, priority: Priority) {
        let pos = self
            .entries
            .iter()
            .position(|e| e.priority < priority)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, QueueEntry { condor, priority });
    }

    /// Removes and returns the head (highest priority, oldest).
    pub fn pop(&mut self) -> Option<QueueEntry> {
        self.entries.pop_front()
    }

    /// Peeks at the head without removing it.
    pub fn peek(&self) -> Option<&QueueEntry> {
        self.entries.front()
    }

    /// Removes an arbitrary entry; true if it was present.
    pub fn remove(&mut self, condor: CondorId) -> bool {
        match self.entries.iter().position(|e| e.condor == condor) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Changes an entry's priority, preserving FIFO fairness at the
    /// new level (the task re-queues behind equals).
    pub fn reprioritize(&mut self, condor: CondorId, new: Priority) -> bool {
        if self.remove(condor) {
            self.push(condor, new);
            true
        } else {
            false
        }
    }

    /// Zero-based position of an entry (0 = next to run).
    pub fn position(&self, condor: CondorId) -> Option<usize> {
        self.entries.iter().position(|e| e.condor == condor)
    }

    /// Snapshot of the whole queue in order.
    pub fn snapshot(&self) -> Vec<QueueEntry> {
        self.entries.iter().copied().collect()
    }

    /// Queue length.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(n: u64) -> CondorId {
        CondorId::new(n)
    }

    #[test]
    fn fifo_within_priority() {
        let mut q = PriorityQueue::new();
        q.push(c(1), Priority::NORMAL);
        q.push(c(2), Priority::NORMAL);
        q.push(c(3), Priority::NORMAL);
        assert_eq!(q.pop().unwrap().condor, c(1));
        assert_eq!(q.pop().unwrap().condor, c(2));
        assert_eq!(q.pop().unwrap().condor, c(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn higher_priority_jumps_queue() {
        let mut q = PriorityQueue::new();
        q.push(c(1), Priority::NORMAL);
        q.push(c(2), Priority::HIGH);
        q.push(c(3), Priority::LOW);
        q.push(c(4), Priority::HIGH);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.condor).collect();
        assert_eq!(order, vec![c(2), c(4), c(1), c(3)]);
    }

    #[test]
    fn position_reflects_order() {
        let mut q = PriorityQueue::new();
        q.push(c(1), Priority::NORMAL);
        q.push(c(2), Priority::HIGH);
        assert_eq!(q.position(c(2)), Some(0));
        assert_eq!(q.position(c(1)), Some(1));
        assert_eq!(q.position(c(9)), None);
    }

    #[test]
    fn remove_and_reprioritize() {
        let mut q = PriorityQueue::new();
        q.push(c(1), Priority::NORMAL);
        q.push(c(2), Priority::NORMAL);
        assert!(q.remove(c(1)));
        assert!(!q.remove(c(1)));
        assert_eq!(q.len(), 1);
        q.push(c(3), Priority::NORMAL);
        assert!(q.reprioritize(c(3), Priority::HIGH));
        assert_eq!(q.position(c(3)), Some(0));
        assert!(!q.reprioritize(c(99), Priority::HIGH));
    }

    #[test]
    fn snapshot_is_ordered() {
        let mut q = PriorityQueue::new();
        q.push(c(1), Priority::LOW);
        q.push(c(2), Priority::HIGH);
        let snap = q.snapshot();
        assert_eq!(snap[0].condor, c(2));
        assert_eq!(snap[1].condor, c(1));
        assert!(!q.is_empty());
    }

    proptest! {
        /// Pop order is always (priority desc, insertion order asc).
        #[test]
        fn pop_order_invariant(prios in prop::collection::vec(-5i32..5, 1..40)) {
            let mut q = PriorityQueue::new();
            for (i, p) in prios.iter().enumerate() {
                q.push(CondorId::new(i as u64), Priority::new(*p));
            }
            let mut popped = Vec::new();
            while let Some(e) = q.pop() {
                popped.push(e);
            }
            prop_assert_eq!(popped.len(), prios.len());
            for w in popped.windows(2) {
                prop_assert!(
                    w[0].priority > w[1].priority
                        || (w[0].priority == w[1].priority
                            && w[0].condor < w[1].condor),
                    "order violated: {:?} then {:?}", w[0], w[1]
                );
            }
        }
    }
}
