//! "Grid weather": the monitoring view the paper's introduction
//! motivates — "a more interactive set of services ... that provides
//! users more information about Grid weather". Renders per-site load
//! and queue depth over time from the MonALISA-substitute repository
//! as ASCII sparklines.
//!
//! ```text
//! cargo run --example grid_weather
//! ```

use gae::monitor::MetricKey;
use gae::prelude::*;
use gae::sim::LoadTrace;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(samples: &[f64], max: f64) -> String {
    samples
        .iter()
        .map(|v| {
            let idx = if max > 0.0 {
                (v / max * 7.0).round() as usize
            } else {
                0
            };
            BARS[idx.min(7)]
        })
        .collect()
}

fn main() {
    // A grid whose external load follows office hours at the
    // university cluster: busy 09:00–18:00, quiet otherwise.
    let uni = gae::exec::SiteConfig::uniform_load(
        SiteDescription::new(SiteId::new(1), "uni-cluster", 4, 1),
        LoadTrace::diurnal(
            SimDuration::from_secs(24 * 3600),
            SimDuration::from_secs(9 * 3600),
            SimDuration::from_secs(18 * 3600),
            4.0,
            0.5,
            2,
        ),
    );
    // A day of 1-minute samples needs a deeper metric ring than the
    // default 4096.
    let monitor = gae::monitor::MonAlisaRepository::new(4 * 24 * 60);
    let grid = GridBuilder::new()
        .site_with_config(uni)
        .site(SiteDescription::new(SiteId::new(2), "tier2", 8, 2))
        .monitor(monitor)
        .build();
    let stack = ServiceStack::with_policy(
        grid.clone(),
        gae::core::steering::SteeringPolicy::default(),
        SimDuration::from_secs(60),
    );

    // A stream of analysis jobs arriving through the day.
    for i in 1..=12u64 {
        let mut job = JobSpec::new(JobId::new(i), format!("analysis-{i}"), UserId::new(1));
        job.add_task(
            TaskSpec::new(TaskId::new(i), "t", "reco")
                .with_cpu_demand(SimDuration::from_secs(3 * 3600)),
        );
        stack.submit_job(job).expect("schedulable");
        stack.run_until(SimTime::from_secs(i * 7200));
    }
    stack.run_until(SimTime::from_secs(24 * 3600));

    // Read the day back out of MonALISA, hour by hour.
    println!("Grid weather over 24 virtual hours (hourly samples)\n");
    for site in grid.site_ids() {
        let name = grid.description(site).expect("site").name.clone();
        let mut loads = Vec::new();
        let mut queues = Vec::new();
        for hour in 0..24u64 {
            let from = SimTime::from_secs(hour * 3600);
            let to = SimTime::from_secs((hour + 1) * 3600);
            let load_key = MetricKey::site_wide(site, "cpu_load");
            let queue_key = MetricKey::site_wide(site, "queue_length");
            loads.push(grid.monitor().mean(&load_key, from, to).unwrap_or(0.0));
            queues.push(grid.monitor().mean(&queue_key, from, to).unwrap_or(0.0));
        }
        let max_load = loads.iter().cloned().fold(0.0f64, f64::max).max(1.0);
        let max_queue = queues.iter().cloned().fold(0.0f64, f64::max).max(1.0);
        println!(
            "{name:>12}  load  {}  (peak {max_load:.1})",
            sparkline(&loads, max_load)
        );
        println!(
            "{:>12}  queue {}  (peak {max_queue:.1})",
            "",
            sparkline(&queues, max_queue)
        );
    }

    // And the state of the world at the end of the day.
    println!("\nend of day:");
    for site in grid.site_ids() {
        let exec = grid.exec(site).expect("site");
        let guard = exec.lock();
        println!(
            "  {:>12}: load {:.1}, {} running, {} queued",
            grid.description(site).expect("site").name,
            guard.current_load(),
            guard.running_count(),
            guard.queue_length(),
        );
    }
    let done = (1..=12u64)
        .filter(|i| stack.jobmon.job_status(JobId::new(*i)) == JobStatus::Completed)
        .count();
    println!("  {done}/12 analysis jobs completed");
}
