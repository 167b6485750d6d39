//! Named, seeded end-to-end scenarios: adversarial grid workloads in
//! plain data form.
//!
//! The paper's central tension is interactive analysis competing with
//! production load on a shared, unreliable grid (§3). A
//! [`ScenarioSpec`] captures one such situation as *data* — grid
//! shape, per-VO arrival processes, heavy-tailed job sizes, input
//! files, a fault timeline (correlated site outages, link flaps), an
//! optional crash tick — plus the invariants the run must uphold.
//! Generation is fully deterministic under the seed; the `gae-bench`
//! scenario runner materialises the spec against a live `ServiceStack`
//! and machine-checks the declared invariants.
//!
//! Five named scenarios ship here:
//!
//! * **flash-crowd** — a burst of interactive analysis 12× the
//!   baseline rate slamming the admission gate;
//! * **diurnal** — two VOs whose sinusoidal day cycles are
//!   anti-phased, so pressure migrates between them;
//! * **chaos-grid** — a correlated outage takes down every unloaded
//!   site at once, recovery herds work onto the loaded survivor, the
//!   sites heal, and steering must migrate the crawling tasks back
//!   out (with a crash/recovery tick near the end);
//! * **hot-replica-storm** — dozens of tasks all staging the same
//!   single-replica file while its home links flap;
//! * **leader-loss** — the chaos-grid outage pattern with the control
//!   plane replicated: the leader dies mid-schedule and a promoted
//!   follower must continue the run prefix-consistently.

use crate::arrival::{ArrivalProcess, Burst, DiurnalArrivals, FlashCrowdArrivals, PoissonArrivals};
use gae_sim::rng::seeded_rng;
use rand::rngs::StdRng;
use rand::Rng;

/// One site of the scenario grid, in builder-ready form.
#[derive(Clone, Copy, Debug)]
pub struct SiteShape {
    /// Worker nodes.
    pub nodes: u32,
    /// Execution slots per node.
    pub slots: u32,
    /// External CPU load (processor-sharing competitors).
    pub load: f64,
}

/// One logical file of the scenario's data grid.
#[derive(Clone, Debug)]
pub struct FileShape {
    /// Logical file name.
    pub lfn: String,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Site *indices* (into [`ScenarioSpec::sites`]) holding replicas.
    pub homes: Vec<usize>,
}

/// One task of a scenario job.
#[derive(Clone, Debug)]
pub struct TaskShape {
    /// CPU demand in seconds (heavy-tailed across the scenario).
    pub demand_s: u64,
    /// Input files as indices into [`ScenarioSpec::files`].
    pub inputs: Vec<usize>,
}

/// One job submission the scenario schedules.
#[derive(Clone, Debug)]
pub struct JobArrival {
    /// Submission instant (seconds of virtual time).
    pub at_s: u64,
    /// Submitting virtual organisation (maps to a `UserId`).
    pub vo: u32,
    /// The job's tasks (chained sequentially when more than one).
    pub tasks: Vec<TaskShape>,
}

/// A fault-injection event on the scenario timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The site (by index) fails: submissions refused, live tasks die.
    SiteDown(usize),
    /// The site recovers.
    SiteUp(usize),
    /// The directed link between two site indices goes dark.
    LinkDown(usize, usize),
    /// The link heals.
    LinkUp(usize, usize),
    /// The replicated control plane loses its leader: a follower is
    /// promoted by deterministic election and the run continues from
    /// the promoted node's recovered state. Meaningful only when the
    /// runner attaches replication; otherwise a no-op.
    LeaderLoss,
}

/// When a fault fires.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// Injection instant (seconds of virtual time).
    pub at_s: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A machine-checked promise the scenario run must uphold. The
/// runner evaluates each one after the drain horizon and reports
/// violations as failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Every job admitted through the gate and scheduled must settle
    /// (complete, fail typed, or be killed) — never starve unserved.
    NoAdmittedStarvation,
    /// The admission queue's peak depth never exceeds its capacity.
    BoundedQueueDepth,
    /// No task is left `Pending` at the end of the run — a staging
    /// chain that failed permanently must fail the task onward into
    /// Backup & Recovery, never wedge it.
    NoPermanentPending,
    /// After a mid-scenario crash, recovery re-arms each in-flight
    /// task exactly once and the continuation settles them all.
    ExactlyOnceRearm,
    /// After a leader loss, the promoted follower's recovered state
    /// digest must equal the dead leader's at the recovered commit
    /// index — the continuation is a prefix-consistent extension of
    /// the original schedule, never a divergent one.
    PrefixConsistentFailover,
}

/// A complete named scenario.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Stable scenario name (metrics parameter prefix, CLI argument).
    pub name: &'static str,
    /// The seed everything below was generated from.
    pub seed: u64,
    /// Active phase: arrivals and faults all land before this.
    pub horizon_s: u64,
    /// Settle phase after the horizon: no new work, faults healed.
    pub drain_s: u64,
    /// The grid.
    pub sites: Vec<SiteShape>,
    /// The data grid.
    pub files: Vec<FileShape>,
    /// Job submissions, ordered by `at_s`.
    pub arrivals: Vec<JobArrival>,
    /// Fault timeline, ordered by `at_s`.
    pub faults: Vec<FaultEvent>,
    /// Crash-and-recover instant, when the scenario exercises the
    /// durability path.
    pub crash_at_s: Option<u64>,
    /// The promises this scenario is obliged to keep.
    pub invariants: Vec<Invariant>,
}

/// Bounded Pareto draw via inverse CDF: the heavy-tailed job-size
/// distribution (most analysis jobs are small; a fat tail is not).
fn pareto(rng: &mut StdRng, alpha: f64, lo: f64, hi: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let ratio = (lo / hi).powf(alpha);
    lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha)
}

/// Materialises per-VO arrival processes into a merged, time-ordered
/// submission list. Each task's demand is bounded-Pareto; a fraction
/// of tasks reference scenario files as inputs.
#[allow(clippy::too_many_arguments)]
fn materialise_arrivals(
    seed: u64,
    vos: Vec<Box<dyn ArrivalProcess>>,
    horizon_s: u64,
    jobs_per_vo: usize,
    max_tasks: usize,
    demand: (f64, f64, f64),
    input_fraction: f64,
    file_count: usize,
) -> Vec<JobArrival> {
    let (alpha, lo, hi) = demand;
    let mut arrivals = Vec::new();
    for (vo_index, mut process) in vos.into_iter().enumerate() {
        // One independent stream per VO so adding a VO never perturbs
        // the others.
        let mut rng = seeded_rng(seed ^ ((vo_index as u64 + 1) << 32));
        for _ in 0..jobs_per_vo {
            let at = process.next_arrival(&mut rng);
            if !at.is_finite() || at as u64 >= horizon_s {
                break;
            }
            let task_count = rng.gen_range(1..=max_tasks);
            let tasks = (0..task_count)
                .map(|_| {
                    let demand_s = pareto(&mut rng, alpha, lo, hi) as u64;
                    let inputs = if file_count > 0 && rng.gen_bool(input_fraction) {
                        vec![rng.gen_range(0..file_count)]
                    } else {
                        Vec::new()
                    };
                    TaskShape { demand_s, inputs }
                })
                .collect();
            arrivals.push(JobArrival {
                at_s: at as u64,
                vo: vo_index as u32 + 1,
                tasks,
            });
        }
    }
    arrivals.sort_by_key(|a| (a.at_s, a.vo));
    arrivals
}

impl ScenarioSpec {
    /// All five named scenarios at one seed, fleet order.
    pub fn all(seed: u64) -> Vec<ScenarioSpec> {
        vec![
            Self::flash_crowd(seed),
            Self::diurnal(seed),
            Self::chaos_grid(seed),
            Self::hot_replica_storm(seed),
            Self::leader_loss(seed),
        ]
    }

    /// The named scenario, or `None` for an unknown name.
    pub fn by_name(name: &str, seed: u64) -> Option<ScenarioSpec> {
        match name {
            "flash-crowd" => Some(Self::flash_crowd(seed)),
            "diurnal" => Some(Self::diurnal(seed)),
            "chaos-grid" => Some(Self::chaos_grid(seed)),
            "hot-replica-storm" => Some(Self::hot_replica_storm(seed)),
            "leader-loss" => Some(Self::leader_loss(seed)),
            _ => None,
        }
    }

    /// Interactive analysis burst: baseline Poisson traffic from one
    /// VO, a 12× flash crowd from another. The gate's bounded queue
    /// and shedding absorb the spike.
    pub fn flash_crowd(seed: u64) -> ScenarioSpec {
        let horizon_s = 1_800;
        let vos: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(PoissonArrivals::new(120.0)),
            Box::new(FlashCrowdArrivals::new(
                240.0,
                vec![Burst {
                    start: 600.0,
                    end: 1_200.0,
                    multiplier: 12.0,
                }],
            )),
        ];
        let files = vec![
            FileShape {
                lfn: "esd-2005a".into(),
                size_bytes: 60_000_000,
                homes: vec![0],
            },
            FileShape {
                lfn: "calib-v3".into(),
                size_bytes: 25_000_000,
                homes: vec![2],
            },
        ];
        ScenarioSpec {
            name: "flash-crowd",
            seed,
            horizon_s,
            drain_s: 1_500,
            sites: vec![
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 0.25,
                },
                SiteShape {
                    nodes: 2,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 2,
                    slots: 1,
                    load: 0.5,
                },
            ],
            arrivals: materialise_arrivals(
                seed,
                vos,
                horizon_s,
                40,
                2,
                (1.3, 30.0, 1_200.0),
                0.3,
                2,
            ),
            files,
            faults: Vec::new(),
            crash_at_s: None,
            invariants: vec![
                Invariant::NoAdmittedStarvation,
                Invariant::BoundedQueueDepth,
                Invariant::NoPermanentPending,
            ],
        }
    }

    /// Two VOs on anti-phased day cycles: one VO's peak is the
    /// other's trough, so total pressure oscillates and placement
    /// quality depends on reading the load signal, not a constant.
    pub fn diurnal(seed: u64) -> ScenarioSpec {
        let horizon_s = 2_400;
        let vos: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(DiurnalArrivals::new(90.0, 0.9, 1_200.0, 0.0)),
            Box::new(DiurnalArrivals::new(90.0, 0.9, 1_200.0, 600.0)),
        ];
        let files = vec![FileShape {
            lfn: "aod-day12".into(),
            size_bytes: 40_000_000,
            homes: vec![1],
        }];
        ScenarioSpec {
            name: "diurnal",
            seed,
            horizon_s,
            drain_s: 1_500,
            sites: vec![
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 2,
                    slots: 2,
                    load: 0.5,
                },
                SiteShape {
                    nodes: 2,
                    slots: 2,
                    load: 0.25,
                },
            ],
            arrivals: materialise_arrivals(
                seed,
                vos,
                horizon_s,
                30,
                2,
                (1.4, 40.0, 1_000.0),
                0.25,
                1,
            ),
            files,
            faults: Vec::new(),
            crash_at_s: None,
            invariants: vec![
                Invariant::NoAdmittedStarvation,
                Invariant::NoPermanentPending,
            ],
        }
    }

    /// Correlated outage: every unloaded site dies at once, Backup &
    /// Recovery herds the survivors' work onto the one loaded site
    /// left standing, the dead sites heal, and the Optimizer must
    /// migrate the crawling tasks back out — pricing the re-staging
    /// of their inputs over links that flap during the outage. Ends
    /// with a crash/recover tick on the durability path.
    pub fn chaos_grid(seed: u64) -> ScenarioSpec {
        let horizon_s = 1_400;
        let vos: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(PoissonArrivals::new(110.0)),
            Box::new(PoissonArrivals::new(170.0)),
        ];
        // Inputs live on the loaded survivor: migrating a task away
        // from it after the heal costs a real transfer.
        let files = vec![
            FileShape {
                lfn: "raw-run881".into(),
                size_bytes: 150_000_000,
                homes: vec![2],
            },
            FileShape {
                lfn: "geom-2005".into(),
                size_bytes: 50_000_000,
                homes: vec![2],
            },
        ];
        ScenarioSpec {
            name: "chaos-grid",
            seed,
            horizon_s,
            drain_s: 3_600,
            sites: vec![
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 2,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 3.0,
                },
                SiteShape {
                    nodes: 2,
                    slots: 1,
                    load: 0.0,
                },
            ],
            arrivals: materialise_arrivals(
                seed,
                vos,
                700, // all arrivals land before the outage clears
                25,
                2,
                (1.2, 60.0, 1_500.0),
                0.5,
                2,
            ),
            files,
            faults: vec![
                // The correlated outage: all three unloaded sites die
                // within one poll period of each other.
                FaultEvent {
                    at_s: 500,
                    kind: FaultKind::SiteDown(0),
                },
                FaultEvent {
                    at_s: 500,
                    kind: FaultKind::SiteDown(1),
                },
                FaultEvent {
                    at_s: 505,
                    kind: FaultKind::SiteDown(3),
                },
                // Links out of the survivor flap while it is the only
                // replica source.
                FaultEvent {
                    at_s: 900,
                    kind: FaultKind::LinkDown(2, 1),
                },
                FaultEvent {
                    at_s: 980,
                    kind: FaultKind::LinkUp(2, 1),
                },
                // The grid heals; migration away from the loaded
                // survivor becomes possible (and profitable).
                FaultEvent {
                    at_s: 1_200,
                    kind: FaultKind::SiteUp(0),
                },
                FaultEvent {
                    at_s: 1_200,
                    kind: FaultKind::SiteUp(1),
                },
                FaultEvent {
                    at_s: 1_205,
                    kind: FaultKind::SiteUp(3),
                },
            ],
            crash_at_s: Some(1_300),
            invariants: vec![
                Invariant::NoAdmittedStarvation,
                Invariant::NoPermanentPending,
                Invariant::ExactlyOnceRearm,
            ],
        }
    }

    /// Leader loss under load: the chaos-grid outage pattern with the
    /// control plane replicated. The correlated outage lands while
    /// tasks are still arriving, the grid heals, and then — with
    /// recovery work (re-planning, re-staging) still in flight — the
    /// replication leader dies. A follower is promoted by
    /// deterministic election, re-arms the in-flight tasks exactly
    /// once, and must continue the schedule as a prefix-consistent
    /// extension of what the dead leader committed.
    pub fn leader_loss(seed: u64) -> ScenarioSpec {
        let horizon_s = 1_200;
        let vos: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(PoissonArrivals::new(110.0)),
            Box::new(PoissonArrivals::new(170.0)),
        ];
        // Inputs on the loaded survivor, as in chaos-grid: the
        // promoted follower inherits live staging chains, not just
        // queued work.
        let files = vec![
            FileShape {
                lfn: "raw-run882".into(),
                size_bytes: 150_000_000,
                homes: vec![2],
            },
            FileShape {
                lfn: "geom-2006".into(),
                size_bytes: 50_000_000,
                homes: vec![2],
            },
        ];
        ScenarioSpec {
            name: "leader-loss",
            seed,
            horizon_s,
            drain_s: 3_600,
            sites: vec![
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 2,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 3.0,
                },
                SiteShape {
                    nodes: 2,
                    slots: 1,
                    load: 0.0,
                },
            ],
            arrivals: materialise_arrivals(
                seed,
                vos,
                700, // all arrivals land before the leader dies
                25,
                2,
                (1.2, 60.0, 1_500.0),
                0.5,
                2,
            ),
            files,
            faults: vec![
                // The correlated outage, earlier than chaos-grid's so
                // the heal completes before the leader loss.
                FaultEvent {
                    at_s: 400,
                    kind: FaultKind::SiteDown(0),
                },
                FaultEvent {
                    at_s: 400,
                    kind: FaultKind::SiteDown(1),
                },
                FaultEvent {
                    at_s: 405,
                    kind: FaultKind::SiteDown(3),
                },
                FaultEvent {
                    at_s: 800,
                    kind: FaultKind::SiteUp(0),
                },
                FaultEvent {
                    at_s: 800,
                    kind: FaultKind::SiteUp(1),
                },
                FaultEvent {
                    at_s: 805,
                    kind: FaultKind::SiteUp(3),
                },
                // The control-plane fault: with re-planned work still
                // running, the leader dies and a follower takes over.
                FaultEvent {
                    at_s: 1_000,
                    kind: FaultKind::LeaderLoss,
                },
            ],
            crash_at_s: None,
            invariants: vec![
                Invariant::NoAdmittedStarvation,
                Invariant::NoPermanentPending,
                Invariant::ExactlyOnceRearm,
                Invariant::PrefixConsistentFailover,
            ],
        }
    }

    /// Hot-replica storm: dozens of tasks stage the same
    /// single-replica 500 MB file concurrently, fair-sharing the
    /// home site's links while those links flap.
    pub fn hot_replica_storm(seed: u64) -> ScenarioSpec {
        let horizon_s = 1_200;
        let vos: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(PoissonArrivals::new(45.0)),
            Box::new(PoissonArrivals::new(90.0)),
        ];
        let files = vec![
            FileShape {
                lfn: "hot-ntuple".into(),
                size_bytes: 500_000_000,
                homes: vec![0],
            },
            FileShape {
                lfn: "cold-config".into(),
                size_bytes: 5_000_000,
                homes: vec![0, 3],
            },
        ];
        ScenarioSpec {
            name: "hot-replica-storm",
            seed,
            horizon_s,
            drain_s: 2_400,
            sites: vec![
                SiteShape {
                    nodes: 2,
                    slots: 2,
                    load: 0.25,
                },
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 3,
                    slots: 2,
                    load: 0.0,
                },
                SiteShape {
                    nodes: 2,
                    slots: 2,
                    load: 0.0,
                },
            ],
            arrivals: materialise_arrivals(
                seed,
                vos,
                horizon_s,
                25,
                1,
                (1.5, 50.0, 900.0),
                0.85,
                2,
            ),
            files,
            faults: vec![
                FaultEvent {
                    at_s: 300,
                    kind: FaultKind::LinkDown(0, 1),
                },
                FaultEvent {
                    at_s: 380,
                    kind: FaultKind::LinkUp(0, 1),
                },
                FaultEvent {
                    at_s: 500,
                    kind: FaultKind::LinkDown(0, 2),
                },
                FaultEvent {
                    at_s: 560,
                    kind: FaultKind::LinkUp(0, 2),
                },
            ],
            crash_at_s: None,
            invariants: vec![
                Invariant::NoAdmittedStarvation,
                Invariant::BoundedQueueDepth,
                Invariant::NoPermanentPending,
            ],
        }
    }

    /// CI smoke mode: divides the horizon by four and drops every
    /// arrival and fault beyond it, keeping relative structure (the
    /// flash-crowd burst, the outage/heal ordering) intact. The crash
    /// tick, when present, moves to the reduced horizon's three-
    /// quarter point so the durability path still runs.
    pub fn smoke(mut self) -> ScenarioSpec {
        self.horizon_s /= 4;
        self.drain_s = (self.drain_s / 2).max(600);
        self.arrivals.retain(|a| a.at_s < self.horizon_s);
        // Faults compress onto the reduced horizon rather than being
        // dropped: a chaos scenario must stay chaotic in smoke mode.
        for f in &mut self.faults {
            f.at_s /= 4;
        }
        if let Some(crash) = self.crash_at_s.as_mut() {
            let last_fault = self.faults.iter().map(|f| f.at_s).max().unwrap_or(0);
            *crash = (self.horizon_s * 3 / 4)
                .max(last_fault + 1)
                .min(self.horizon_s);
        }
        self
    }

    /// Total tasks across every scheduled arrival.
    pub fn total_tasks(&self) -> usize {
        self.arrivals.iter().map(|a| a.tasks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_under_seed() {
        for (a, b) in ScenarioSpec::all(9).into_iter().zip(ScenarioSpec::all(9)) {
            assert_eq!(a.arrivals.len(), b.arrivals.len(), "{}", a.name);
            for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
                assert_eq!(x.at_s, y.at_s);
                assert_eq!(x.vo, y.vo);
                assert_eq!(x.tasks.len(), y.tasks.len());
                for (tx, ty) in x.tasks.iter().zip(&y.tasks) {
                    assert_eq!(tx.demand_s, ty.demand_s);
                    assert_eq!(tx.inputs, ty.inputs);
                }
            }
        }
        let a = ScenarioSpec::flash_crowd(1);
        let b = ScenarioSpec::flash_crowd(2);
        assert_ne!(
            a.arrivals.iter().map(|x| x.at_s).collect::<Vec<_>>(),
            b.arrivals.iter().map(|x| x.at_s).collect::<Vec<_>>(),
            "different seeds must differ"
        );
    }

    #[test]
    fn every_scenario_is_well_formed() {
        for s in ScenarioSpec::all(7) {
            assert!(!s.arrivals.is_empty(), "{} generated no jobs", s.name);
            assert!(s.total_tasks() >= s.arrivals.len());
            for a in &s.arrivals {
                assert!(a.at_s < s.horizon_s, "{} arrival after horizon", s.name);
                assert!(a.vo >= 1);
                for t in &a.tasks {
                    assert!(t.demand_s >= 1, "{} zero-demand task", s.name);
                    for i in &t.inputs {
                        assert!(*i < s.files.len(), "{} bad file index", s.name);
                    }
                }
            }
            for w in s.arrivals.windows(2) {
                assert!(w[0].at_s <= w[1].at_s, "{} arrivals unsorted", s.name);
            }
            for f in &s.faults {
                let site_ok = |i: usize| i < s.sites.len();
                match f.kind {
                    FaultKind::SiteDown(i) | FaultKind::SiteUp(i) => assert!(site_ok(i)),
                    FaultKind::LinkDown(a, b) | FaultKind::LinkUp(a, b) => {
                        assert!(site_ok(a) && site_ok(b) && a != b)
                    }
                    FaultKind::LeaderLoss => {}
                }
            }
            for file in &s.files {
                assert!(!file.homes.is_empty());
                assert!(file.homes.iter().all(|h| *h < s.sites.len()));
            }
        }
    }

    #[test]
    fn fault_timelines_pair_down_with_up() {
        for s in ScenarioSpec::all(3) {
            let mut down_sites = std::collections::BTreeSet::new();
            let mut down_links = std::collections::BTreeSet::new();
            for f in &s.faults {
                match f.kind {
                    FaultKind::SiteDown(i) => assert!(down_sites.insert(i)),
                    FaultKind::SiteUp(i) => assert!(down_sites.remove(&i)),
                    FaultKind::LinkDown(a, b) => assert!(down_links.insert((a, b))),
                    FaultKind::LinkUp(a, b) => assert!(down_links.remove(&(a, b))),
                    // A lost leader is never "healed": the promoted
                    // follower simply carries on.
                    FaultKind::LeaderLoss => {}
                }
            }
            assert!(down_sites.is_empty(), "{} leaves a site dead", s.name);
            assert!(down_links.is_empty(), "{} leaves a link dark", s.name);
        }
    }

    #[test]
    fn task_demands_are_heavy_tailed() {
        let s = ScenarioSpec::flash_crowd(11);
        let mut demands: Vec<u64> = s
            .arrivals
            .iter()
            .flat_map(|a| a.tasks.iter().map(|t| t.demand_s))
            .collect();
        demands.sort_unstable();
        let median = demands[demands.len() / 2];
        let max = *demands.last().unwrap();
        assert!(
            max > median * 4,
            "tail too thin: median {median}, max {max}"
        );
    }

    #[test]
    fn smoke_mode_shrinks_but_preserves_structure() {
        let full = ScenarioSpec::chaos_grid(5);
        let smoke = ScenarioSpec::chaos_grid(5).smoke();
        assert_eq!(smoke.horizon_s, full.horizon_s / 4);
        assert!(!smoke.arrivals.is_empty(), "smoke kept no arrivals");
        assert!(smoke.arrivals.iter().all(|a| a.at_s < smoke.horizon_s));
        assert_eq!(smoke.faults.len(), full.faults.len());
        assert!(smoke.faults.iter().all(|f| f.at_s <= smoke.horizon_s));
        let crash = smoke.crash_at_s.unwrap();
        assert!(crash <= smoke.horizon_s);
        assert!(crash > *smoke.faults.iter().map(|f| &f.at_s).max().unwrap());
    }

    #[test]
    fn by_name_round_trips() {
        for s in ScenarioSpec::all(1) {
            let again = ScenarioSpec::by_name(s.name, 1).unwrap();
            assert_eq!(again.arrivals.len(), s.arrivals.len());
        }
        assert!(ScenarioSpec::by_name("no-such", 1).is_none());
    }
}
