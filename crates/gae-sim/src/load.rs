//! Piecewise-constant external CPU load traces with closed-form
//! accrual.
//!
//! Figure 7 of the paper hinges on Condor's observation that a job on
//! a loaded node accumulates "wall-clock time" slower than real time.
//! We model a node's *external load* `L(t)` as a step function; a job
//! running alone on that node accrues CPU work at the effective rate
//!
//! ```text
//! rate(t) = speed_factor / (1 + L(t))
//! ```
//!
//! which is the classic processor-sharing approximation (the job gets
//! `1/(1+L)` of the CPU when `L` competing load units are present).
//! Because the trace is piecewise constant, both directions of the
//! accrual integral have closed forms: work accrued over an interval,
//! and the finish time needed to accrue a given amount of work.

use gae_types::{SimDuration, SimTime};

/// A step function of external CPU load over virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadTrace {
    /// Segment starts and their load values, strictly increasing in
    /// time; the last segment extends forever. Invariant: non-empty,
    /// `steps[0].0 == SimTime::ZERO`, loads finite and `>= 0`.
    steps: Vec<(SimTime, f64)>,
}

impl LoadTrace {
    /// A trace with constant load (0.0 = a free CPU).
    pub fn constant(load: f64) -> Self {
        assert!(
            load.is_finite() && load >= 0.0,
            "load must be finite and non-negative"
        );
        LoadTrace {
            steps: vec![(SimTime::ZERO, load)],
        }
    }

    /// A free (unloaded) CPU.
    pub fn free() -> Self {
        Self::constant(0.0)
    }

    /// A diurnal pattern repeating every `day`: `busy_load` during
    /// `[busy_start, busy_end)` of each day (office hours on a shared
    /// cluster), `idle_load` otherwise, for `days` days.
    pub fn diurnal(
        day: SimDuration,
        busy_start: SimDuration,
        busy_end: SimDuration,
        busy_load: f64,
        idle_load: f64,
        days: u32,
    ) -> Self {
        assert!(
            busy_start < busy_end && busy_end <= day,
            "busy window must fit in the day"
        );
        assert!(days > 0);
        let mut steps = Vec::with_capacity(days as usize * 3 + 1);
        for d in 0..u64::from(days) {
            let day_start = SimTime::ZERO + day.mul_f64(d as f64);
            steps.push((day_start, idle_load));
            steps.push((day_start + busy_start, busy_load));
            steps.push((day_start + busy_end, idle_load));
        }
        Self::from_steps(steps)
    }

    /// Builds a trace from `(start, load)` steps. The first step is
    /// moved to time zero if it starts later (load before the first
    /// step is taken as the first step's load).
    pub fn from_steps(mut steps: Vec<(SimTime, f64)>) -> Self {
        assert!(!steps.is_empty(), "load trace needs at least one step");
        steps.sort_by_key(|(t, _)| *t);
        for (_, l) in &steps {
            assert!(
                l.is_finite() && *l >= 0.0,
                "load must be finite and non-negative"
            );
        }
        steps[0].0 = SimTime::ZERO;
        // Collapse duplicate timestamps: last write wins.
        let mut dedup: Vec<(SimTime, f64)> = Vec::with_capacity(steps.len());
        for (t, l) in steps {
            if let Some(last) = dedup.last_mut() {
                if last.0 == t {
                    last.1 = l;
                    continue;
                }
            }
            dedup.push((t, l));
        }
        LoadTrace { steps: dedup }
    }

    /// External load at instant `t`.
    pub fn load_at(&self, t: SimTime) -> f64 {
        match self.steps.binary_search_by_key(&t, |(s, _)| *s) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// Effective execution rate at instant `t` for a CPU of the given
    /// speed factor (reference CPU = 1.0).
    pub fn rate_at(&self, t: SimTime, speed_factor: f64) -> f64 {
        speed_factor / (1.0 + self.load_at(t))
    }

    /// Index of the segment containing `t`.
    fn segment_of(&self, t: SimTime) -> usize {
        match self.steps.binary_search_by_key(&t, |(s, _)| *s) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// CPU work (in reference-CPU seconds) accrued between `from` and
    /// `to` by a job running alone at the given speed factor.
    pub fn accrued_between(&self, from: SimTime, to: SimTime, speed_factor: f64) -> SimDuration {
        assert!(to >= from, "interval must be forward in time");
        let mut total = 0.0f64;
        let mut cursor = from;
        let mut seg = self.segment_of(from);
        while cursor < to {
            let seg_end = self
                .steps
                .get(seg + 1)
                .map(|(s, _)| *s)
                .unwrap_or(SimTime::MAX)
                .min(to);
            let span = seg_end.saturating_since(cursor).as_secs_f64();
            total += span * speed_factor / (1.0 + self.steps[seg].1);
            cursor = seg_end;
            seg += 1;
        }
        SimDuration::from_secs_f64(total)
    }

    /// The instant at which a job starting at `from` will have accrued
    /// `work` of CPU time, running alone at the given speed factor.
    ///
    /// Returns `SimTime::MAX` if the work never completes (impossible
    /// with finite loads, but kept for API robustness).
    pub fn finish_time(&self, from: SimTime, work: SimDuration, speed_factor: f64) -> SimTime {
        assert!(speed_factor > 0.0);
        let mut remaining = work.as_secs_f64();
        if remaining <= 0.0 {
            return from;
        }
        let mut cursor = from;
        let mut seg = self.segment_of(from);
        loop {
            let rate = speed_factor / (1.0 + self.steps[seg].1);
            match self.steps.get(seg + 1) {
                Some(&(seg_end, _)) if seg_end > cursor => {
                    let span = (seg_end - cursor).as_secs_f64();
                    let capacity = span * rate;
                    if capacity >= remaining {
                        return cursor + SimDuration::from_secs_f64(remaining / rate);
                    }
                    remaining -= capacity;
                    cursor = seg_end;
                    seg += 1;
                }
                Some(_) => {
                    seg += 1;
                }
                None => {
                    // Final segment: extends forever. Work too large to
                    // finish within `SimTime` never finishes.
                    let span = SimDuration::from_secs_f64(remaining / rate);
                    return cursor.checked_add(span).unwrap_or(SimTime::MAX);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_free_cpu_accrues_realtime() {
        let tr = LoadTrace::free();
        assert_eq!(tr.load_at(secs(100)), 0.0);
        assert_eq!(
            tr.accrued_between(secs(0), secs(283), 1.0),
            SimDuration::from_secs(283)
        );
        assert_eq!(
            tr.finish_time(secs(0), SimDuration::from_secs(283), 1.0),
            secs(283)
        );
    }

    #[test]
    fn loaded_cpu_halves_rate() {
        // Load 1.0 -> rate 1/2.
        let tr = LoadTrace::constant(1.0);
        assert_eq!(
            tr.accrued_between(secs(0), secs(100), 1.0),
            SimDuration::from_secs(50)
        );
        assert_eq!(
            tr.finish_time(secs(0), SimDuration::from_secs(50), 1.0),
            secs(100)
        );
    }

    #[test]
    fn speed_factor_scales() {
        let tr = LoadTrace::free();
        assert_eq!(
            tr.finish_time(secs(0), SimDuration::from_secs(100), 2.0),
            secs(50)
        );
        assert_eq!(tr.rate_at(secs(0), 2.0), 2.0);
    }

    #[test]
    fn step_function_lookup() {
        let tr = LoadTrace::from_steps(vec![(secs(0), 0.0), (secs(10), 3.0), (secs(20), 1.0)]);
        assert_eq!(tr.load_at(secs(0)), 0.0);
        assert_eq!(tr.load_at(secs(9)), 0.0);
        assert_eq!(tr.load_at(secs(10)), 3.0);
        assert_eq!(tr.load_at(secs(15)), 3.0);
        assert_eq!(tr.load_at(secs(20)), 1.0);
        assert_eq!(tr.load_at(secs(1000)), 1.0);
    }

    #[test]
    fn diurnal_pattern() {
        let day = SimDuration::from_secs(24 * 3600);
        let tr = LoadTrace::diurnal(
            day,
            SimDuration::from_secs(9 * 3600),
            SimDuration::from_secs(18 * 3600),
            4.0,
            0.5,
            2,
        );
        assert_eq!(tr.load_at(secs(8 * 3600)), 0.5, "before office hours");
        assert_eq!(tr.load_at(secs(12 * 3600)), 4.0, "midday");
        assert_eq!(tr.load_at(secs(20 * 3600)), 0.5, "evening");
        // Second day repeats.
        assert_eq!(tr.load_at(secs(24 * 3600 + 12 * 3600)), 4.0);
        // Beyond the configured days the last level persists.
        assert_eq!(tr.load_at(secs(72 * 3600)), 0.5);
    }

    #[test]
    #[should_panic(expected = "busy window")]
    fn diurnal_rejects_bad_window() {
        LoadTrace::diurnal(
            SimDuration::from_secs(10),
            SimDuration::from_secs(8),
            SimDuration::from_secs(20),
            1.0,
            0.0,
            1,
        );
    }

    #[test]
    fn accrual_across_segments() {
        // 10 s at rate 1, then 10 s at rate 1/4, then rate 1/2 forever.
        let tr = LoadTrace::from_steps(vec![(secs(0), 0.0), (secs(10), 3.0), (secs(20), 1.0)]);
        assert_eq!(
            tr.accrued_between(secs(0), secs(20), 1.0),
            SimDuration::from_secs_f64(12.5)
        );
        // Finish 14.5 s of work: 10 at rate 1 + 10 at 0.25 (=2.5) + 2
        // more at 0.5 -> 4 s into the last segment.
        assert_eq!(
            tr.finish_time(secs(0), SimDuration::from_secs_f64(14.5), 1.0),
            secs(24)
        );
    }

    #[test]
    fn accrual_starting_mid_segment() {
        let tr = LoadTrace::from_steps(vec![(secs(0), 0.0), (secs(10), 1.0)]);
        assert_eq!(
            tr.accrued_between(secs(5), secs(15), 1.0),
            SimDuration::from_secs_f64(7.5)
        );
        assert_eq!(
            tr.finish_time(secs(5), SimDuration::from_secs_f64(7.5), 1.0),
            secs(15)
        );
    }

    #[test]
    fn zero_work_finishes_immediately() {
        let tr = LoadTrace::constant(5.0);
        assert_eq!(tr.finish_time(secs(42), SimDuration::ZERO, 1.0), secs(42));
    }

    #[test]
    fn from_steps_sorts_and_dedups() {
        let tr = LoadTrace::from_steps(vec![
            (secs(20), 2.0),
            (secs(10), 1.0),
            (secs(10), 1.5), // duplicate timestamp: last wins
        ]);
        assert_eq!(tr.load_at(secs(10)), 1.5);
        assert_eq!(tr.load_at(secs(25)), 2.0);
        // Earliest step is moved back to time zero.
        assert_eq!(tr.load_at(SimTime::ZERO), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_load_rejected() {
        LoadTrace::constant(-1.0);
    }

    proptest! {
        /// finish_time and accrued_between are inverse: accruing until
        /// the computed finish time yields (approximately) the work.
        #[test]
        fn finish_accrue_inverse(
            loads in prop::collection::vec(0.0f64..8.0, 1..6),
            work_s in 1u64..10_000,
            start_s in 0u64..500,
            speed in 0.25f64..4.0,
        ) {
            let steps: Vec<(SimTime, f64)> = loads
                .iter()
                .enumerate()
                .map(|(i, &l)| (SimTime::from_secs(i as u64 * 60), l))
                .collect();
            let tr = LoadTrace::from_steps(steps);
            let work = SimDuration::from_secs(work_s);
            let start = SimTime::from_secs(start_s);
            let finish = tr.finish_time(start, work, speed);
            let accrued = tr.accrued_between(start, finish, speed);
            let err = (accrued.as_secs_f64() - work.as_secs_f64()).abs();
            prop_assert!(err < 1e-3, "err {err}: accrued {accrued} vs work {work}");
        }

        /// Accrual is monotone in the interval end.
        #[test]
        fn accrual_monotone(
            loads in prop::collection::vec(0.0f64..8.0, 1..6),
            t1 in 0u64..1000,
            dt in 0u64..1000,
        ) {
            let steps: Vec<(SimTime, f64)> = loads
                .iter()
                .enumerate()
                .map(|(i, &l)| (SimTime::from_secs(i as u64 * 30), l))
                .collect();
            let tr = LoadTrace::from_steps(steps);
            let a = tr.accrued_between(SimTime::ZERO, SimTime::from_secs(t1), 1.0);
            let b = tr.accrued_between(SimTime::ZERO, SimTime::from_secs(t1 + dt), 1.0);
            prop_assert!(b >= a);
        }
    }
}
