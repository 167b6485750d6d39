//! How the grid moves through time: the advancement driver, the
//! cross-site next-event index, and the `(site, seq)`-ordered event
//! drain.

use super::Grid;
use gae_exec::ExecEvent;
use gae_types::{SimTime, SiteId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

// `perf grid_tick` still names the driver; a benchmark-only PR drops
// that call and then this enum goes.
#[doc(hidden)]
#[derive(Default)]
pub enum DriverMode {
    #[default]
    Sequential,
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
    /// resolve by site id.
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
    /// the transfer plane: the differential oracle for the cached index.
    #[cfg(test)]
    fn next_event_time_uncached(&self) -> Option<SimTime> {
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

    /// Advances every site to `t` and publishes fresh metrics.
    ///
    /// The transfer plane advances first: landings re-project
    /// contended chains and the resulting `Restage`/`StagingFailed`
    /// corrections reach the execution services *before* the sites
    /// themselves advance.
    pub fn advance_to(&self, t: SimTime) {
        assert!(t >= self.now(), "grid cannot advance backwards");
        self.clock.set(t);
        self.with_xfer(|x| x.advance_to(t));
        for site in self.sites.values() {
            site.lock().advance_to(t);
        }
        self.publish_metrics();
    }

    /// Drains execution events from every site, tagged with the site,
    /// in `(site, seq)` order — ascending site id (the `BTreeMap`'s
    /// iteration order), then per-site emission order — so consumers
    /// (the job monitoring collector, the steering service) see the
    /// same stream run to run.
    pub fn drain_events(&self) -> Vec<(SiteId, ExecEvent)> {
        let mut out = Vec::new();
        for (id, site) in &self.sites {
            for e in site.lock().drain_events() {
                out.push((*id, e));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridBuilder;
    use gae_types::{SimDuration, SiteDescription, TaskId, TaskSpec};
    use std::sync::Arc;

    /// Builds an 8-site grid (mixed loads) with tasks on every site.
    fn loaded_grid() -> Arc<Grid> {
        let mut builder = GridBuilder::new();
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
    fn drain_order_is_site_then_seq() {
        let grid = loaded_grid();
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
        let grid = loaded_grid();
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
