//! Worker nodes: slots plus an external CPU load trace.

use gae_sim::LoadTrace;
use gae_types::{NodeId, SimDuration, SimTime};

/// One worker node of an execution site.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node id, unique within the site.
    pub id: NodeId,
    /// Relative CPU speed (1.0 = the reference CPU).
    pub speed_factor: f64,
    /// Concurrent task slots.
    pub slots: u32,
    /// External (non-GAE) CPU load over time.
    pub trace: LoadTrace,
    /// Slots currently occupied.
    busy: u32,
    /// True while the node is up.
    alive: bool,
}

impl Node {
    /// Creates a free node with the given capacity and load trace.
    pub fn new(id: NodeId, speed_factor: f64, slots: u32, trace: LoadTrace) -> Self {
        assert!(speed_factor > 0.0, "invariant: positive speed factor");
        assert!(slots > 0, "invariant: a node needs at least one slot");
        Node {
            id,
            speed_factor,
            slots,
            trace,
            busy: 0,
            alive: true,
        }
    }

    /// A free 1-slot reference-speed node (tests, examples).
    pub fn reference(id: NodeId) -> Self {
        Self::new(id, 1.0, 1, LoadTrace::free())
    }

    /// True if the node is up and has a free slot.
    pub fn has_free_slot(&self) -> bool {
        self.alive && self.busy < self.slots
    }

    /// Occupies one slot.
    pub fn occupy(&mut self) {
        debug_assert!(self.has_free_slot(), "occupy called with no free slot");
        self.busy += 1;
    }

    /// Releases one slot.
    pub fn release(&mut self) {
        debug_assert!(self.busy > 0, "release called with no busy slot");
        self.busy -= 1;
    }

    /// Slots currently in use.
    pub fn busy_slots(&self) -> u32 {
        self.busy
    }

    /// True while the node is up.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Takes the node down (its tasks fail) — failure injection.
    pub fn fail(&mut self) {
        self.alive = false;
        self.busy = 0;
    }

    /// Brings the node back up with empty slots.
    pub fn recover(&mut self) {
        self.alive = true;
        self.busy = 0;
    }

    /// Instantaneous external load.
    pub fn load_at(&self, t: SimTime) -> f64 {
        self.trace.load_at(t)
    }

    /// Effective execution rate for a task running here at `t`.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        self.trace.rate_at(t, self.speed_factor)
    }

    /// Instant at which `work` finishes if started/resumed at `from`.
    pub fn finish_time(&self, from: SimTime, work: SimDuration) -> SimTime {
        self.trace.finish_time(from, work, self.speed_factor)
    }

    /// CPU work accrued on this node over `[from, to]`.
    pub fn accrued_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        self.trace.accrued_between(from, to, self.speed_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_accounting() {
        let mut n = Node::new(NodeId::new(1), 1.0, 2, LoadTrace::free());
        assert!(n.has_free_slot());
        n.occupy();
        n.occupy();
        assert!(!n.has_free_slot());
        assert_eq!(n.busy_slots(), 2);
        n.release();
        assert!(n.has_free_slot());
    }

    #[test]
    fn failure_clears_slots() {
        let mut n = Node::reference(NodeId::new(1));
        n.occupy();
        n.fail();
        assert!(!n.is_alive());
        assert!(!n.has_free_slot());
        assert_eq!(n.busy_slots(), 0);
        n.recover();
        assert!(n.has_free_slot());
    }

    #[test]
    fn accrual_delegates_to_trace() {
        let n = Node::new(NodeId::new(1), 2.0, 1, LoadTrace::constant(1.0));
        // speed 2, load 1 -> rate 1.0
        assert_eq!(n.rate_at(SimTime::ZERO), 1.0);
        assert_eq!(
            n.finish_time(SimTime::ZERO, SimDuration::from_secs(10)),
            SimTime::from_secs(10)
        );
        assert_eq!(
            n.accrued_between(SimTime::ZERO, SimTime::from_secs(4)),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        Node::new(NodeId::new(1), 1.0, 0, LoadTrace::free());
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn bad_speed_rejected() {
        Node::new(NodeId::new(1), 0.0, 1, LoadTrace::free());
    }
}
