//! What every workload shares: the run configuration, the metric
//! list, timed set-up, the closed-loop sample summary and the scratch
//! directory guard.

use crate::alloc::AllocSnapshot;
use crate::stats::{self, Digest};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times a run builds its set-up; `setup_s` is the median.
const SETUPS: usize = 3;

/// The traced run replays one in this many of the op count (`grid_tick`
/// has too few ops for that and uses its own divisor).
pub const TRACE_DIVISOR: u64 = 8;

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Target length of the timed phase; op counts scale with it.
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Scratch root inside the checkout (`<target dir>/perf`).
    pub out_dir: PathBuf,
    /// When the process started: the first set-up is timed from here.
    pub started: Instant,
}

impl Config {
    /// The op count for a workload that completes `per_second` ops per
    /// second of budget on the reference box: fixed by `--seconds`, so
    /// it repeats exactly; `smoke` is the < 3 s size. The traced run
    /// does `1/trace_divisor` of either.
    pub fn ops(&self, per_second: u64, smoke: u64, trace_divisor: u64) -> u64 {
        let full = if self.smoke {
            smoke
        } else {
            per_second * self.seconds
        };
        if self.trace {
            (full / trace_divisor).max(1)
        } else {
            full
        }
    }

    pub fn setups(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            SETUPS
        }
    }
}

/// A named value with its unit, as printed and as put in the JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (sizes, digests, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Builds the set-up `cfg.setups()` times, dropping each before the
/// next, and keeps the last. Returns it with the median build time in
/// seconds; the first build is timed from process start.
pub fn timed_setup<T>(cfg: &Config, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..cfg.setups() {
        drop(kept.take());
        let t0 = if i == 0 { cfg.started } else { Instant::now() };
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

/// One load thread's stopwatch over its share of the timed phase.
pub struct Recorder {
    started: Instant,
    allocs0: AllocSnapshot,
    latencies_us: Vec<f64>,
    pub failed: u64,
    pub digest: Digest,
}

impl Recorder {
    pub fn start(ops: u64) -> Recorder {
        Recorder {
            started: Instant::now(),
            allocs0: AllocSnapshot::now(),
            latencies_us: Vec::with_capacity(ops as usize),
            failed: 0,
            digest: Digest::new(),
        }
    }

    /// Runs one op and records its latency at the caller.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = op();
        self.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn finish(self) -> Samples {
        Samples {
            latencies_us: self.latencies_us,
            wall: self.started.elapsed(),
            failed: self.failed,
            allocs: AllocSnapshot::now().since(self.allocs0),
            digest: self.digest,
        }
    }
}

/// The caller-side record of a closed-loop timed phase.
#[derive(Debug)]
pub struct Samples {
    /// Per-op latency at the caller, microseconds.
    pub latencies_us: Vec<f64>,
    /// First op issued → last reply received.
    pub wall: Duration,
    /// Ops whose reply was a fault or failed its output check.
    pub failed: u64,
    /// Allocations by the whole process during the phase.
    pub allocs: AllocSnapshot,
    /// Order-sensitive hash of what came back.
    pub digest: Digest,
}

impl Samples {
    /// Concurrent load threads as one record.
    pub fn merge(threads: Vec<Samples>) -> Samples {
        let mut threads = threads.into_iter();
        let mut all = threads.next().expect("at least one load thread");
        let mut digest = Digest::new();
        digest.u64(all.digest.0);
        for t in threads {
            all.latencies_us.extend(t.latencies_us);
            all.wall = all.wall.max(t.wall);
            all.failed += t.failed;
            // Every thread's counter delta already spans the process.
            all.allocs = all.allocs.max(t.allocs);
            digest.u64(t.digest.0);
        }
        all.digest = digest;
        all
    }

    pub fn ops(&self) -> u64 {
        self.latencies_us.len() as u64
    }

    pub fn p50_us(&self) -> f64 {
        stats::median(&self.latencies_us)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, report: &mut Report, setup_s: f64) {
        report.attempted += self.ops();
        report.failed += self.failed;
        report.metric("setup_s", setup_s, "s");
        report.metric("lat_p50_us", self.p50_us(), "us");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let sorted = stats::sorted(&self.latencies_us);
        let (pct, tail) = stats::tail(&sorted);
        report.note(format!(
            "latency: p50 {:.1} us, p{pct} {tail:.1} us, max {:.1} us over {} samples",
            self.p50_us(),
            sorted[sorted.len() - 1],
            sorted.len()
        ));
        report.note(format!(
            "ops_per_s {:.2} ({} ops in {:.3} s; gated as the layer metric client.ops_per_s)",
            self.ops_per_s(),
            self.ops(),
            self.wall.as_secs_f64()
        ));
        report.note(format!(
            "failed_ratio {} ({} of {} ops), run digest {:016x}",
            self.failed as f64 / self.ops() as f64,
            self.failed,
            self.ops(),
            self.digest.0
        ));
    }

    /// The caller-side layer metrics of the traced run.
    pub fn client_layer(&self, report: &mut Report) {
        report.attempted += self.ops();
        report.failed += self.failed;
        let sorted = stats::sorted(&self.latencies_us);
        let (pct, tail) = stats::tail(&sorted);
        report.metric("client.lat_p50_us", self.p50_us(), "us");
        report.metric("client.ops_per_s", self.ops_per_s(), "1/s");
        report.metric("client.lat_p99_us", tail, "us");
        report.metric(
            "client.allocs_per_op",
            self.allocs.calls as f64 / self.ops() as f64,
            "count",
        );
        report.note(format!(
            "client.lat_p99_us is p{pct} of {} samples (the highest percentile with ten beyond it)",
            sorted.len()
        ));
        report.note(format!("run digest {:016x}", self.digest.0));
    }
}

/// Peak resident set of this process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path, name_prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(name_prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A scratch directory removed when dropped — on success, on a failed
/// check and during a panic's unwinding alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out_dir>/<tag>-<pid>-<n>`, unique within the process.
    pub fn create(cfg: &Config, tag: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = cfg
            .out_dir
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory inside the checkout");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
