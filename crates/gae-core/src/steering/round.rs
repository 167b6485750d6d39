//! What a steering round walks (DESIGN.md §7.1).
//!
//! A round has something to do for a task only when the task runs
//! (the Optimizer reads its progress), when it settled or vanished
//! (Backup & Recovery acts), or when its site went down. A task that
//! is *parked* — pending, queued or suspended on a live site — stays
//! so until that site's execution service makes a transition, and
//! every site counts its transitions in an epoch the grid reads
//! without a lock ([`Grid::site_epoch`](crate::grid::Grid::site_epoch)).
//! So the index keeps, per live job, its `Submitted` tasks in plan
//! order, each with the epoch a probe last found it parked under,
//! and:
//!
//! * a task whose stamp still equals its site's epoch is skipped — no
//!   lock, no probe;
//! * a job all of whose tasks in flight are stamped is *asleep*: a
//!   round does not visit it until one of the sites it is parked at
//!   moves on.
//!
//! All of it is derived from the tracker — never journaled, rebuilt
//! unstamped by replay and restore — and conservative: waking a job or
//! dropping a stamp costs a probe, never an answer.

use crate::steering::state::TrackedJob;
use gae_types::{CondorId, JobId, SiteId, TaskId};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// A `Submitted` task as a round walks it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) struct InFlight {
    /// Index in the plan's task list (a job's task list never changes
    /// once subscribed): a round acts in plan order.
    pub(super) position: usize,
    pub(super) task: TaskId,
    pub(super) site: SiteId,
    pub(super) condor: CondorId,
    /// The site's transition epoch at which a round last probed the
    /// task there and found it parked. While the site's epoch still
    /// equals it the task is still parked and the site still up.
    /// Gone whenever the task's phase is written.
    pub(super) parked_epoch: Option<u64>,
}

impl InFlight {
    /// The walk entries of a tracked job, from nothing: its
    /// `Submitted` tasks in plan order, none stamped.
    pub(super) fn all_of(tracked: &TrackedJob) -> Vec<InFlight> {
        let tasks = tracked.plan.job.tasks.iter().enumerate();
        tasks
            .filter_map(|(position, spec)| Self::of(tracked, position, spec.id))
            .collect()
    }

    fn of(tracked: &TrackedJob, position: usize, task: TaskId) -> Option<InFlight> {
        tracked.location(task).map(|(site, condor)| InFlight {
            position,
            task,
            site,
            condor,
            parked_epoch: None,
        })
    }
}

/// The jobs holding a task stamped parked at one site.
#[derive(Default)]
struct ParkedAt {
    /// The epoch those stamps carry (older ones were woken).
    epoch: u64,
    /// May name a job twice, or one that has moved on: waking is
    /// always safe.
    jobs: Vec<JobId>,
}

#[derive(Default)]
pub(super) struct RoundIndex {
    /// Per live job — completion not yet notified — its `Submitted`
    /// tasks in plan order.
    jobs: BTreeMap<JobId, Vec<InFlight>>,
    /// The live jobs a round visits: all but those asleep.
    awake: BTreeSet<JobId>,
    parked_at: BTreeMap<SiteId, ParkedAt>,
}

impl RoundIndex {
    /// Starts (or restarts) walking a live job, awake.
    pub(super) fn track(&mut self, job: JobId, entries: Vec<InFlight>) {
        self.jobs.insert(job, entries);
        self.awake.insert(job);
    }

    /// Stops walking a job: its client was told it settled.
    pub(super) fn forget(&mut self, job: JobId) {
        self.jobs.remove(&job);
        self.awake.remove(&job);
    }

    /// The live jobs, id-sorted.
    pub(super) fn live_jobs(&self) -> Vec<JobId> {
        self.jobs.keys().copied().collect()
    }

    /// Replaces a live job's entries wholesale (its plan was replayed).
    pub(super) fn retrack(&mut self, job: JobId, tracked: &TrackedJob) {
        if self.jobs.contains_key(&job) {
            self.track(job, InFlight::all_of(tracked));
        }
    }

    /// Brings `task`'s entry in line with its tracked phase, after a
    /// write to it: the old entry goes, its stamp with it; a
    /// `Submitted` task with a position in the plan gets a fresh one.
    /// The job wakes either way — it may have settled.
    pub(super) fn reindex(&mut self, job: JobId, tracked: &TrackedJob, task: TaskId) {
        let Some(walk) = self.jobs.get_mut(&job) else {
            return;
        };
        walk.retain(|f| f.task != task);
        let position = tracked.plan.job.tasks.iter().position(|t| t.id == task);
        if let Some(entry) = position.and_then(|p| InFlight::of(tracked, p, task)) {
            let at = walk.partition_point(|f| f.position < entry.position);
            walk.insert(at, entry);
        }
        self.awake.insert(job);
    }

    /// Wakes the jobs parked at sites whose epoch has moved on.
    pub(super) fn wake_transitioned(&mut self, epoch_of: impl Fn(SiteId) -> Option<u64>) {
        for (site, parked) in &mut self.parked_at {
            if !parked.jobs.is_empty() && epoch_of(*site) != Some(parked.epoch) {
                let woken = parked.jobs.drain(..);
                self.awake
                    .extend(woken.filter(|job| self.jobs.contains_key(job)));
            }
        }
    }

    /// The awake jobs after `after` (all of them for `None`), id-sorted.
    pub(super) fn awake_after(&self, after: Option<JobId>) -> Vec<JobId> {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        self.awake
            .range((from, Bound::Unbounded))
            .copied()
            .collect()
    }

    /// A live job's entries.
    pub(super) fn entries(&self, job: JobId) -> Option<&[InFlight]> {
        self.jobs.get(&job).map(Vec::as_slice)
    }

    /// Records what a probe of `probed` answered: `Some(epoch)` —
    /// parked, the site at that epoch — or `None`, anything else. Only
    /// an entry still as probed takes the stamp (the round may have
    /// re-placed the task since), and only a stamp no older than the
    /// ones already held for the site.
    pub(super) fn restamp(&mut self, job: JobId, probed: &InFlight, stamp: Option<u64>) {
        let Some(walk) = self.jobs.get_mut(&job) else {
            return;
        };
        let Some(entry) = walk.iter_mut().find(|f| *f == probed) else {
            return;
        };
        entry.parked_epoch = None;
        let Some(epoch) = stamp else {
            return;
        };
        let parked = self.parked_at.entry(probed.site).or_default();
        if epoch < parked.epoch {
            return;
        }
        entry.parked_epoch = Some(epoch);
        if epoch > parked.epoch {
            // The stamps held so far are stale.
            parked.epoch = epoch;
            let woken = parked.jobs.drain(..);
            self.awake
                .extend(woken.filter(|job| self.jobs.contains_key(job)));
        }
        if parked.jobs.last() != Some(&job) {
            parked.jobs.push(job);
        }
    }

    /// Lets a job sleep once a round has walked it, if every task it
    /// has in flight — at least one — is stamped parked.
    pub(super) fn rest(&mut self, job: JobId) {
        let walk = self.jobs.get(&job).map(Vec::as_slice).unwrap_or_default();
        if !walk.is_empty() && walk.iter().all(|f| f.parked_epoch.is_some()) {
            self.awake.remove(&job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steering::state::TaskPhase;
    use gae_types::{ConcretePlan, JobSpec, PlanId, TaskAssignment, TaskSpec, UserId};
    use std::collections::HashMap;

    const A: SiteId = SiteId::new(1);
    const B: SiteId = SiteId::new(2);

    /// A job whose plan lists its tasks in the order given.
    fn job(id: u64, tasks: &[u64]) -> TrackedJob {
        let mut spec = JobSpec::new(JobId::new(id), "j", UserId::new(1));
        for t in tasks {
            spec.add_task(TaskSpec::new(TaskId::new(*t), format!("t{t}"), "x"));
        }
        let assignments = tasks
            .iter()
            .map(|t| TaskAssignment {
                task: TaskId::new(*t),
                site: A,
            })
            .collect();
        TrackedJob::subscribe(ConcretePlan::new(PlanId::new(id), spec, assignments).unwrap())
            .unwrap()
    }

    /// Submits `task` at `site` and re-indexes it, as the service does.
    fn place(index: &mut RoundIndex, tracked: &mut TrackedJob, task: u64, site: SiteId) {
        let task = TaskId::new(task);
        tracked.tasks.get_mut(&task).unwrap().phase = TaskPhase::Submitted {
            site,
            condor: CondorId::new(task.raw()),
        };
        index.reindex(tracked.plan.job_id(), tracked, task);
    }

    fn walked(index: &RoundIndex, job: u64) -> Vec<(u64, Option<u64>)> {
        let entries = index.entries(JobId::new(job)).unwrap();
        entries
            .iter()
            .map(|f| (f.task.raw(), f.parked_epoch))
            .collect()
    }

    /// Stamps every entry of `job` found at `site` with `epoch`.
    fn park_at(index: &mut RoundIndex, job: u64, site: SiteId, epoch: u64) {
        let job = JobId::new(job);
        for entry in index.entries(job).unwrap().to_vec() {
            if entry.site == site {
                index.restamp(job, &entry, Some(epoch));
            }
        }
        index.rest(job);
    }

    #[test]
    fn entries_keep_plan_order_and_a_phase_write_drops_the_stamp() {
        let mut index = RoundIndex::default();
        let mut tracked = job(1, &[30, 10, 20]);
        index.track(JobId::new(1), Vec::new());
        for task in [20, 30, 10] {
            place(&mut index, &mut tracked, task, A);
        }
        assert_eq!(walked(&index, 1), [(30, None), (10, None), (20, None)]);
        assert_eq!(
            index.entries(JobId::new(1)).unwrap(),
            InFlight::all_of(&tracked)
        );
        park_at(&mut index, 1, A, 5);
        assert_eq!(
            walked(&index, 1),
            [(30, Some(5)), (10, Some(5)), (20, Some(5))]
        );

        // Re-placed: a fresh entry at the same position, unstamped.
        place(&mut index, &mut tracked, 10, B);
        assert_eq!(
            walked(&index, 1),
            [(30, Some(5)), (10, None), (20, Some(5))]
        );
        // Settled: gone from the walk.
        tracked.tasks.get_mut(&TaskId::new(30)).unwrap().phase = TaskPhase::Killed;
        index.reindex(JobId::new(1), &tracked, TaskId::new(30));
        assert_eq!(walked(&index, 1), [(10, None), (20, Some(5))]);
        // A probe that no longer finds the task parked clears it; one
        // of an entry that has changed since is ignored.
        let stale = index.entries(JobId::new(1)).unwrap()[1];
        index.restamp(JobId::new(1), &stale, None);
        index.restamp(JobId::new(1), &stale, Some(9));
        assert_eq!(walked(&index, 1), [(10, None), (20, None)]);
    }

    #[test]
    fn a_job_sleeps_while_all_it_has_in_flight_is_parked_and_wakes_with_the_site() {
        let mut index = RoundIndex::default();
        let mut epochs: HashMap<SiteId, u64> = [(A, 3), (B, 8)].into();
        let mut jobs: Vec<TrackedJob> = (1..=3).map(|j| job(j, &[j * 10, j * 10 + 1])).collect();
        for tracked in &mut jobs {
            index.track(tracked.plan.job_id(), Vec::new());
            let first = tracked.plan.job_id().raw() * 10;
            place(&mut index, tracked, first, A);
            place(&mut index, tracked, first + 1, B);
        }
        let ids = |jobs: Vec<JobId>| jobs.iter().map(|j| j.raw()).collect::<Vec<_>>();
        assert_eq!(ids(index.awake_after(None)), [1, 2, 3]);
        assert_eq!(ids(index.awake_after(Some(JobId::new(1)))), [2, 3]);

        // Job 1 parked at both sites sleeps; job 2, with a task
        // running at B, does not; nor does job 3, never probed.
        park_at(&mut index, 1, A, 3);
        assert_eq!(
            ids(index.awake_after(None)),
            [1, 2, 3],
            "B's task is unstamped"
        );
        park_at(&mut index, 1, B, 8);
        park_at(&mut index, 2, A, 3);
        assert_eq!(ids(index.awake_after(None)), [2, 3]);
        index.wake_transitioned(|s| epochs.get(&s).copied());
        assert_eq!(ids(index.awake_after(None)), [2, 3], "no site moved");

        // B moves on: job 1 wakes, its stamp for A still good.
        epochs.insert(B, 9);
        index.wake_transitioned(|s| epochs.get(&s).copied());
        assert_eq!(ids(index.awake_after(None)), [1, 2, 3]);
        assert_eq!(walked(&index, 1), [(10, Some(3)), (11, Some(8))]);
        park_at(&mut index, 1, B, 9);
        assert_eq!(ids(index.awake_after(None)), [2, 3]);

        // A stamp older than the site's newest is refused; a newer one
        // wakes whoever holds the older.
        park_at(&mut index, 3, B, 8);
        assert_eq!(walked(&index, 3), [(30, None), (31, None)]);
        park_at(&mut index, 3, B, 10);
        assert_eq!(ids(index.awake_after(None)), [1, 2, 3]);

        // A phase write wakes the job; a settled-and-told job is gone.
        park_at(&mut index, 1, B, 10);
        assert_eq!(ids(index.awake_after(None)), [2, 3]);
        place(&mut index, &mut jobs[0], 10, B);
        assert_eq!(ids(index.awake_after(None)), [1, 2, 3]);
        index.forget(JobId::new(1));
        epochs.insert(A, 4);
        index.wake_transitioned(|s| epochs.get(&s).copied());
        assert_eq!(
            ids(index.awake_after(None)),
            [2, 3],
            "a forgotten job stays forgotten"
        );
        assert_eq!(ids(index.live_jobs()), [2, 3]);

        // With nothing in flight a job stays awake: it may have
        // settled, and only a visit finds out.
        let mut idle = job(4, &[40]);
        index.track(JobId::new(4), Vec::new());
        index.rest(JobId::new(4));
        assert_eq!(ids(index.awake_after(Some(JobId::new(3)))), [4]);
        index.retrack(JobId::new(4), &idle);
        index.retrack(JobId::new(5), &idle);
        place(&mut index, &mut idle, 40, A);
        assert_eq!(ids(index.live_jobs()), [2, 3, 4]);
    }
}
