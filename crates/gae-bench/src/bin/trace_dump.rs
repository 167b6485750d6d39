//! Dumps the observability layer's view of a small grid run: one
//! causal tree per task with its lifecycle instants from the job
//! monitoring record, then the per-method / per-disposition latency
//! table (DESIGN.md §10).
//!
//! ```text
//! cargo run -p gae-bench --bin trace_dump --release
//! ```

use gae_core::grid::{GridBuilder, ServiceStack};
use gae_types::prelude::*;

fn main() {
    let grid = GridBuilder::new()
        .site_with_load(SiteDescription::new(SiteId::new(1), "busy", 2, 1), 2.0)
        .site(SiteDescription::new(SiteId::new(2), "free", 2, 1))
        .build();
    let stack = ServiceStack::over(grid);

    let mut job = JobSpec::new(JobId::new(1), "traced-demo", UserId::new(1));
    for i in 1..=3u64 {
        job.add_task(
            TaskSpec::new(TaskId::new(i), format!("step-{i}"), "reco")
                .with_cpu_demand(SimDuration::from_secs(60 * i)),
        );
    }
    stack.submit_job(job).expect("schedulable");
    stack.run_until(SimTime::from_secs(600));

    println!("== per-task causal trees ==\n");
    let us = |at: Option<SimTime>| at.map_or("-".to_string(), |t| format!("{}us", t.as_micros()));
    for i in 1..=3u64 {
        let info = stack
            .jobmon
            .job_info(TaskId::new(i))
            .expect("task monitored");
        match stack.obs().render_task(i) {
            Some(text) => print!("{text}"),
            None => println!("task {i} left no trace"),
        }
        println!(
            "  submitted {} started {} completed {}\n",
            us(Some(info.submitted_at)),
            us(info.started_at),
            us(info.completed_at)
        );
    }

    println!("== latency histograms ==\n");
    print!("{}", stack.obs().render_histograms());
}
