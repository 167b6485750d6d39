//! Virtual time base shared by the simulator and the live services.
//!
//! All GAE components are passive state machines parameterised over a
//! monotonically non-decreasing timestamp. In simulation the timestamp
//! is produced by the discrete-event engine; in live deployments it is
//! derived from the wall clock. Using a single integer microsecond
//! representation keeps ordering exact (no float comparisons in event
//! queues) while still being fine-grained enough for RPC latencies.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An absolute instant, in microseconds since the epoch of the run.
///
/// `SimTime` is totally ordered and overflow-checked in debug builds.
/// The zero value is the start of the simulation (or of the service
/// process in live mode).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span between two [`SimTime`] instants, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the run.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far
    /// in the future" sentinel by event schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from fractional seconds, rounding to the
    /// nearest microsecond. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime(0)
        } else {
            SimTime((s * 1e6).round() as u64)
        }
    }

    /// Raw microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the origin as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, saturating at zero if
    /// `earlier` is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration, `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1e6).round() as u64)
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the span by a non-negative factor, rounding to the
    /// nearest microsecond and saturating on overflow.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(v.round() as u64)
        }
    }

    /// Divides the span by a positive factor (e.g. an execution rate),
    /// rounding to the nearest microsecond and saturating on overflow.
    pub fn div_f64(self, divisor: f64) -> SimDuration {
        debug_assert!(divisor > 0.0, "duration divisor must be positive");
        let v = self.0 as f64 / divisor;
        if v >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(v.round() as u64)
        }
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics (in debug) if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is uncertain.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// The injected time source behind every admission decision and every
/// observability measurement.
///
/// No policy or measurement code reads the wall clock directly: token
/// buckets, queue deadlines, breaker cooldowns, spans and histogram
/// samples all take "now" from a `Clock`. That makes them pure
/// functions of (configuration, observed times) — replayable in
/// property tests and deterministic under the grid's virtual clock —
/// while a [`WallClock`] drives the same code in a real server.
pub trait Clock: Send + Sync {
    /// The current instant on this clock's timeline.
    fn now(&self) -> SimTime;
}

/// A hand-advanced clock for deterministic tests: only moves when
/// told to, never regresses.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `t`.
    pub fn starting_at(t: SimTime) -> Self {
        ManualClock {
            micros: AtomicU64::new(t.as_micros()),
        }
    }

    /// Moves the clock to `t`. A regression panics and leaves the clock
    /// where it was: no reader ever sees the earlier instant.
    pub fn set(&self, t: SimTime) {
        let prev = self.micros.fetch_max(t.as_micros(), Ordering::SeqCst);
        assert!(prev <= t.as_micros(), "ManualClock cannot go backwards");
    }

    /// Advances the clock by `micros`.
    pub fn advance_micros(&self, micros: u64) {
        self.micros.fetch_add(micros, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

/// Real elapsed time since the clock was created — the time source of
/// a standalone RPC server (no virtual timeline).
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose zero is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.origin.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn float_construction_rounds() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimTime::from_secs_f64(-4.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        let mut d = SimDuration::from_secs(1);
        d += SimDuration::from_millis(500);
        assert_eq!(d.as_millis(), 1_500);
        d -= SimDuration::from_millis(1_500);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.div_f64(2.0), SimDuration::from_secs(5));
        // Saturation on absurd factors.
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_micros(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(3)
            ]
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_micros(250);
        assert_eq!(c.now(), SimTime::from_micros(250));
        c.set(SimTime::from_secs(1));
        assert_eq!(c.now(), SimTime::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_regression() {
        let c = ManualClock::starting_at(SimTime::from_secs(10));
        c.set(SimTime::from_secs(5));
    }

    #[test]
    fn manual_clock_refused_regression_leaves_time_unchanged() {
        let c = ManualClock::starting_at(SimTime::from_secs(10));
        let refused = std::panic::catch_unwind(|| c.set(SimTime::from_secs(5)));
        assert!(refused.is_err(), "a regression must panic");
        assert_eq!(c.now(), SimTime::from_secs(10));
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
