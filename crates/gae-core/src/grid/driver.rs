//! How the grid moves through time: the advancement driver
//! (sequential or sharded), the cross-site next-event index, and the
//! `(site, seq)`-ordered event drain.

use super::Grid;
use gae_exec::{ExecEvent, ExecutionService};
use gae_types::{SimTime, SiteId};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// How [`Grid::advance_to`] fans work across the sites.
///
/// Sites are independent state machines between service polls, so the
/// sharded driver produces *bit-identical* results to the sequential
/// one — see DESIGN.md ("Sharded driver determinism contract"). The
/// mode is therefore purely a throughput knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DriverMode {
    /// Advance sites one after another on the calling thread.
    #[default]
    Sequential,
    /// Fan site advancement, metric collection and event draining
    /// across a fixed pool of scoped worker threads.
    Sharded {
        /// Worker count (clamped to at least 1 and at most the number
        /// of sites when applied).
        threads: usize,
    },
}

impl DriverMode {
    /// Sharded mode with `threads` workers (at least 1).
    pub fn sharded(threads: usize) -> Self {
        DriverMode::Sharded {
            threads: threads.max(1),
        }
    }

    /// Sharded mode sized to the machine's available parallelism.
    pub fn sharded_auto() -> Self {
        Self::sharded(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// Cross-site next-event index. Every execution service pushes its
/// cached next-event instant here through a notifier installed at
/// build time, so the driver's [`Grid::next_event_time`] costs one
/// heap peek instead of locking and scanning every site per loop
/// iteration. Same lazy-invalidation discipline as the per-service
/// heaps: `current` is authoritative, heap entries are live only
/// while they still match it (DESIGN.md §15).
#[derive(Default)]
pub(super) struct NextEventIndex {
    /// Authoritative per-site next event (absent = site is idle).
    current: BTreeMap<SiteId, SimTime>,
    /// Lazy min-heap over `current`, keyed `(instant, site)` so ties
    /// resolve by site id — deterministic in both driver modes.
    heap: BinaryHeap<Reverse<(SimTime, SiteId)>>,
    /// Memoised combined (sites + transfer plane) answer; cleared by
    /// any site notification and by every transfer-plane mutation.
    pub(super) cached: Option<Option<SimTime>>,
}

impl NextEventIndex {
    /// Records a site's new next-event instant (or its draining).
    pub(super) fn note(&mut self, site: SiteId, next: Option<SimTime>) {
        match next {
            Some(t) => {
                self.current.insert(site, t);
                self.heap.push(Reverse((t, site)));
            }
            None => {
                self.current.remove(&site);
            }
        }
        self.cached = None;
    }

    /// Earliest live site event, pruning entries whose site has since
    /// re-notified with a different instant or gone idle.
    fn site_min(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, site))) = self.heap.peek() {
            if self.current.get(&site) == Some(&t) {
                return Some(t);
            }
            self.heap.pop();
        }
        None
    }
}

impl Grid {
    /// The earliest pending completion across all sites and the
    /// transfer plane.
    ///
    /// O(1) when nothing changed since the last call: the combined
    /// minimum is memoised and invalidated only by mutation (site
    /// notifiers, [`Grid::with_xfer`]), so the driver's idle loop no
    /// longer re-locks every site. Lock order is index → xfer; site
    /// notifiers take exec → index; nothing takes xfer → exec or
    /// xfer → index, so the three pairs cannot cycle.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut idx = self.next_index.lock();
        if let Some(memo) = idx.cached {
            return memo;
        }
        let site_event = idx.site_min();
        let xfer_event = self.xfer.lock().next_event_time();
        let next = match (site_event, xfer_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        idx.cached = Some(next);
        next
    }

    /// The same answer by brute force — lock and scan every site plus
    /// the transfer plane. Retained as the differential oracle for the
    /// cached index and as the bench baseline; not for the hot path.
    #[doc(hidden)]
    pub fn next_event_time_uncached(&self) -> Option<SimTime> {
        let site_event = self
            .sites
            .values()
            .filter_map(|s| s.lock().next_event_time())
            .min();
        let xfer_event = self.xfer.lock().next_event_time();
        match (site_event, xfer_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The configured advancement driver.
    pub fn driver_mode(&self) -> DriverMode {
        self.driver
    }

    /// The sites partitioned into at most `threads` contiguous chunks
    /// of id-sorted order. Contiguity is what makes shard-wise
    /// concatenation reproduce the sequential site iteration order.
    fn site_chunks(&self, threads: usize) -> Vec<Vec<(SiteId, Arc<Mutex<ExecutionService>>)>> {
        let entries: Vec<(SiteId, Arc<Mutex<ExecutionService>>)> = self
            .sites
            .iter()
            .map(|(id, site)| (*id, site.clone()))
            .collect();
        if entries.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, entries.len());
        entries
            .chunks(entries.len().div_ceil(threads))
            .map(<[_]>::to_vec)
            .collect()
    }

    /// Applies `work` to every shard and returns the per-shard results
    /// in shard (= site) order. The first chunk runs on the calling
    /// thread; additional chunks get scoped worker threads. A single
    /// chunk therefore costs no thread spawn at all, which keeps
    /// `DriverMode::sharded(1)` within noise of sequential.
    pub(super) fn run_sharded<T: Send>(
        &self,
        threads: usize,
        work: impl Fn(&[(SiteId, Arc<Mutex<ExecutionService>>)]) -> T + Sync,
    ) -> Vec<T> {
        let chunks = self.site_chunks(threads);
        if chunks.len() <= 1 {
            return chunks.iter().map(|chunk| work(chunk)).collect();
        }
        let work = &work;
        crossbeam::thread::scope(|scope| {
            let (first, rest) = chunks.split_first().expect("checked non-empty");
            let handles: Vec<_> = rest
                .iter()
                .map(|chunk| scope.spawn(move |_| work(chunk)))
                .collect();
            let mut results = vec![work(first)];
            results.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard panicked")),
            );
            results
        })
        .expect("shard scope panicked")
    }

    /// Advances every site to `t` and publishes fresh metrics.
    ///
    /// The transfer plane advances first, on the calling thread:
    /// landings re-project contended chains and the resulting
    /// `Restage`/`StagingFailed` corrections reach the execution
    /// services *before* the sites themselves advance, in both driver
    /// modes — part of the sharded-determinism contract.
    pub fn advance_to(&self, t: SimTime) {
        {
            let mut now = self.now.write();
            assert!(t >= *now, "grid cannot advance backwards");
            *now = t;
        }
        self.with_xfer(|x| x.advance_to(t));
        match self.driver {
            DriverMode::Sequential => {
                for site in self.sites.values() {
                    site.lock().advance_to(t);
                }
            }
            DriverMode::Sharded { threads } => {
                // Sites are independent between polls: no cross-site
                // state is touched while advancing, so shard order
                // cannot influence the result.
                self.run_sharded(threads, |chunk| {
                    for (_, site) in chunk {
                        site.lock().advance_to(t);
                    }
                });
            }
        }
        self.publish_metrics();
    }

    /// Drains execution events from every site, tagged with the site,
    /// in `(site, seq)` order — ascending site id, then per-site
    /// emission order. Under the sharded driver each shard drains its
    /// own sites into a private buffer and the buffers are merged by
    /// that same key, so consumers (the job monitoring collector, the
    /// steering service) see a stream independent of driver mode.
    pub fn drain_events(&self) -> Vec<(SiteId, ExecEvent)> {
        let mut out: Vec<(SiteId, ExecEvent)> = match self.driver {
            DriverMode::Sequential => {
                let mut out = Vec::new();
                for (id, site) in &self.sites {
                    for e in site.lock().drain_events() {
                        out.push((*id, e));
                    }
                }
                out
            }
            DriverMode::Sharded { threads } => self
                .run_sharded(threads, |chunk| {
                    let mut buf = Vec::new();
                    for (id, site) in chunk {
                        for e in site.lock().drain_events() {
                            buf.push((*id, e));
                        }
                    }
                    buf
                })
                .into_iter()
                .flatten()
                .collect(),
        };
        // Make the contract explicit whatever the chunking did; the
        // buffers arrive already ordered, so this is a linear check
        // for a stable sort.
        out.sort_by_key(|(site, e)| (*site, e.seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBuilder;
    use gae_types::{SimDuration, SiteDescription, TaskId, TaskSpec};

    /// Builds an 8-site grid (mixed loads) with tasks on every site,
    /// using the given driver.
    fn loaded_grid(driver: DriverMode) -> Arc<Grid> {
        let mut builder = GridBuilder::new().driver(driver);
        for i in 1..=8u64 {
            let desc = SiteDescription::new(SiteId::new(i), format!("s{i}"), 2, 2);
            builder = if i % 2 == 0 {
                builder.site_with_load(desc, 0.25 * i as f64)
            } else {
                builder.site(desc)
            };
        }
        let grid = builder.build();
        for i in 1..=8u64 {
            for j in 0..3u64 {
                let spec = TaskSpec::new(TaskId::new(i * 10 + j), format!("t{i}-{j}"), "app")
                    .with_cpu_demand(SimDuration::from_secs(7 * (j + 1)));
                grid.submit(SiteId::new(i), spec, None).unwrap();
            }
        }
        grid
    }

    #[test]
    fn sharded_driver_is_bit_identical_to_sequential() {
        let sequential = loaded_grid(DriverMode::Sequential);
        let sharded = loaded_grid(DriverMode::sharded(3));
        assert_eq!(sharded.driver_mode(), DriverMode::Sharded { threads: 3 });
        for step in 1..=6u64 {
            let t = SimTime::from_secs(step * 5);
            sequential.advance_to(t);
            sharded.advance_to(t);
            assert_eq!(sequential.drain_events(), sharded.drain_events(), "at {t}");
            for site in sequential.site_ids() {
                assert_eq!(
                    sequential.monitor().site_load(site),
                    sharded.monitor().site_load(site)
                );
                assert_eq!(
                    sequential.monitor().queue_length(site),
                    sharded.monitor().queue_length(site)
                );
            }
        }
    }

    #[test]
    fn drain_order_is_site_then_seq() {
        let grid = loaded_grid(DriverMode::sharded(4));
        grid.advance_to(SimTime::from_secs(60));
        let events = grid.drain_events();
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            let a = (pair[0].0, pair[0].1.seq);
            let b = (pair[1].0, pair[1].1.seq);
            assert!(a < b, "events out of (site, seq) order: {a:?} !< {b:?}");
        }
    }

    #[test]
    fn cached_next_event_matches_uncached_scan() {
        let grid = loaded_grid(DriverMode::Sequential);
        assert_eq!(grid.next_event_time(), grid.next_event_time_uncached());
        for step in 1..=8u64 {
            grid.advance_to(SimTime::from_secs(step * 3));
            assert_eq!(
                grid.next_event_time(),
                grid.next_event_time_uncached(),
                "at step {step}"
            );
        }
        // Settled: both agree there is nothing left.
        grid.advance_to(SimTime::from_secs(300));
        assert_eq!(grid.next_event_time(), None);
        assert_eq!(grid.next_event_time_uncached(), None);
    }
}
