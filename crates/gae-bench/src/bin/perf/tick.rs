//! `ServiceStack::run_until`, taken apart so the traced run can put
//! a span around each layer of a tick.
//!
//! [`Pump`] mirrors `run_until`'s loop call for call — consume events
//! due now, advance to the earliest of horizon / next poll / next
//! event, poll on the poll grid, poll once more at the horizon,
//! checkpoint — using only the stack's public pieces. The workloads
//! check that a pumped stack ends in the same task states as one
//! driven by the real `run_until`.

use crate::span::Tracer;
use gae_core::grid::ServiceStack;
use gae_types::{SimDuration, SimTime};

/// The polling period every stack here is built with
/// (`ServiceStack::over`'s default).
pub const POLL_PERIOD: SimDuration = SimDuration::from_secs(5);

/// How a poll round is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollAs {
    /// `ServiceStack::poll` as one span, `core.grid.poll`.
    Whole,
    /// Its timed children one by one — flock pass, jobmon poll,
    /// steering poll — under a `core.grid.poll.children` span. The
    /// MonALISA publication blocks and history maintenance are what
    /// this leaves out: `Whole` minus this is the poll's glue.
    Children,
}

/// The traced stand-in for `run_until` on one stack.
pub struct Pump<'a> {
    stack: &'a ServiceStack,
    tracer: &'a Tracer,
    /// Mirror of the stack's private poll cursor: both start one
    /// period after zero and move by the same rule.
    next_poll: SimTime,
}

impl<'a> Pump<'a> {
    pub fn new(stack: &'a ServiceStack, tracer: &'a Tracer) -> Pump<'a> {
        Pump {
            stack,
            tracer,
            next_poll: SimTime::ZERO + POLL_PERIOD,
        }
    }

    fn poll(&self, how: PollAs) {
        let stack = self.stack;
        match how {
            PollAs::Whole => self.tracer.span("core.grid.poll", || stack.poll()),
            PollAs::Children => self.tracer.span("core.grid.poll.children", || {
                let moves = self
                    .tracer
                    .span("core.grid.flock", || stack.grid.flock_pass());
                // No workload here enables flocking; a move would need
                // the estimator/steering bookkeeping `poll` does.
                assert!(moves.is_empty(), "flocking is off in every perf workload");
                self.tracer.span("core.jobmon.poll", || stack.jobmon.poll());
                self.tracer
                    .span("core.steering.poll", || stack.steering.poll());
            }),
        }
    }

    /// `run_until(t)` under a `tick` span.
    pub fn run_until(&mut self, t: SimTime, on_grid: PollAs, at_horizon: PollAs) {
        let grid = &self.stack.grid;
        self.tracer.span("tick", || {
            loop {
                let now = grid.now();
                if now >= t {
                    break;
                }
                let due = grid.next_event_time();
                if due.is_some_and(|ev| ev <= now) {
                    self.tracer
                        .span("core.grid.advance", || grid.advance_to(now));
                    continue;
                }
                if self.next_poll <= now {
                    self.poll(on_grid);
                    let period = POLL_PERIOD.as_micros();
                    let missed = now.saturating_since(self.next_poll).as_micros() / period + 1;
                    self.next_poll += SimDuration::from_micros(missed * period);
                    continue;
                }
                let mut target = t.min(self.next_poll);
                if let Some(ev) = due {
                    target = target.min(ev);
                }
                self.tracer
                    .span("core.grid.advance", || grid.advance_to(target));
                if target >= self.next_poll {
                    self.poll(on_grid);
                    self.next_poll += POLL_PERIOD;
                }
            }
            self.poll(at_horizon);
            self.tracer.span("core.persist.checkpoint", || {
                self.stack.checkpoint().expect("durable checkpoint failed")
            });
        })
    }
}
