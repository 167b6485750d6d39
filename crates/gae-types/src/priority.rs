//! Job/task priority, Condor-style.
//!
//! Higher numeric value means more urgent, matching Condor's user
//! priority convention in the paper's queue-time estimator (§6.2):
//! the estimator sums the remaining runtimes of *tasks having a
//! priority greater than the input task*.

use std::fmt;

/// Scheduling priority of a task. Default is 0; steering clients can
/// raise or lower it with the `change priority` command (§4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Priority(i32);

impl Priority {
    /// The default priority assigned at submission.
    pub const NORMAL: Priority = Priority(0);
    /// Convenience high priority used by tests and examples.
    pub const HIGH: Priority = Priority(10);
    /// Convenience low priority used by tests and examples.
    pub const LOW: Priority = Priority(-10);

    /// Wraps a raw priority level.
    pub const fn new(level: i32) -> Self {
        Priority(level)
    }

    /// The raw priority level.
    pub const fn level(self) -> i32 {
        self.0
    }

    /// Returns a priority lowered by `steps` (saturating).
    pub fn lowered(self, steps: i32) -> Priority {
        Priority(self.0.saturating_sub(steps))
    }

    /// True if `self` preempts (is strictly more urgent than) `other`.
    pub fn beats(self, other: Priority) -> bool {
        self.0 > other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+}", self.0)
    }
}

impl From<i32> for Priority {
    fn from(level: i32) -> Self {
        Priority(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_urgency() {
        assert!(Priority::HIGH > Priority::NORMAL);
        assert!(Priority::LOW < Priority::NORMAL);
        assert!(Priority::HIGH.beats(Priority::NORMAL));
        assert!(!Priority::NORMAL.beats(Priority::NORMAL));
    }

    #[test]
    fn lower_saturates() {
        assert_eq!(Priority::new(i32::MIN).lowered(1).level(), i32::MIN);
        assert_eq!(Priority::NORMAL.lowered(3), Priority::new(-3));
    }

    #[test]
    fn display_shows_sign() {
        assert_eq!(Priority::new(5).to_string(), "+5");
        assert_eq!(Priority::new(-5).to_string(), "-5");
        assert_eq!(Priority::NORMAL.to_string(), "+0");
    }
}
