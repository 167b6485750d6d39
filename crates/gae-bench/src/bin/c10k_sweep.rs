//! C10k overload sweep: the reactor front door under a 10,000-client
//! keep-alive fleet, through gae-gate admission.
//!
//! ```text
//! cargo run --release -p gae-bench --bin c10k_sweep            # 100/1000/4000 in-process
//! cargo run --release -p gae-bench --bin c10k_sweep -- --full  # adds the 10,000-client rows
//! cargo run --release -p gae-bench --bin c10k_sweep -- 1 2 3 5 25 50 100  # Figure 6, gated
//! ```
//!
//! This box caps each process at 20k fds, so the full 10k rows run
//! the client fleet in a **child process** (this same binary,
//! re-exec'd with `--drive`): the parent keeps the server plus its
//! 10k accepted sockets, the child keeps the 10k client sockets, and
//! totals come back over the child's stdout as one parseable line.

use gae_bench::c10k::{
    c10k_in_process, c10k_with_fleet, drive_clients, C10kConfig, C10kRow, ClientTotals,
};
use gae_types::{GaeError, GaeResult};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Above this, the fleet moves to a child process for fd headroom.
const IN_PROCESS_MAX: usize = 4_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--drive") {
        drive_mode(&args[1..]);
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let config = C10kConfig::default();
    // Bare numeric args override the default client counts.
    let mut counts: Vec<usize> = args.iter().filter_map(|a| a.parse().ok()).collect();
    if counts.is_empty() {
        counts = vec![100, 1_000, 4_000];
        if full {
            counts.push(10_000);
        }
    }

    println!("C10k overload sweep — gae-gate admission behind the reactor");
    println!(
        "(workers={}, service={} ms, queue={} cap / {} ms deadline, {} req/client)",
        config.workers,
        config.service_delay_ms,
        config.queue_capacity,
        config.queue_deadline_ms,
        config.requests_per_client
    );
    println!();
    println!(
        "{:>7} {:>9} {:>7} {:>7} {:>10} {:>10} {:>9} {:>7} {:>9} {:>8}",
        "clients",
        "admitted",
        "shed",
        "errors",
        "adm_mean",
        "adm_max",
        "shed_mean",
        "queue",
        "peak_open",
        "wall_s"
    );
    for &clients in &counts {
        match run_row(clients, config) {
            Ok(row) => print_row(&row),
            Err(e) => println!("{clients}: failed: {e}"),
        }
    }
}

fn run_row(clients: usize, config: C10kConfig) -> GaeResult<C10kRow> {
    if clients <= IN_PROCESS_MAX {
        c10k_in_process(clients, config)
    } else {
        c10k_with_fleet(clients, config, |addr| child_fleet(addr, clients, config))
    }
}

/// Runs the client fleet in a re-exec'd child (its own 20k-fd budget).
fn child_fleet(addr: SocketAddr, clients: usize, config: C10kConfig) -> GaeResult<ClientTotals> {
    let exe = std::env::current_exe().map_err(|e| GaeError::Io(format!("current_exe: {e}")))?;
    let output = Command::new(exe)
        .arg("--drive")
        .arg(addr.to_string())
        .arg(clients.to_string())
        .arg(config.requests_per_client.to_string())
        .arg(config.fleet_deadline.as_secs().to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| GaeError::Io(format!("spawn fleet child: {e}")))?;
    if !output.status.success() {
        return Err(GaeError::Io(format!(
            "fleet child exited {}",
            output.status
        )));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(ClientTotals::from_line)
        .ok_or_else(|| GaeError::Io(format!("no C10K line in child output: {stdout:?}")))
}

/// Child entry point: `--drive <addr> <clients> <requests> <deadline_s>`.
fn drive_mode(args: &[String]) {
    let usage = "usage: c10k_sweep --drive <addr> <clients> <requests_per_client> <deadline_s>";
    let addr: SocketAddr = args.first().and_then(|a| a.parse().ok()).expect(usage);
    let clients: usize = args.get(1).and_then(|a| a.parse().ok()).expect(usage);
    let requests: usize = args.get(2).and_then(|a| a.parse().ok()).expect(usage);
    let deadline_s: u64 = args.get(3).and_then(|a| a.parse().ok()).expect(usage);
    match drive_clients(addr, clients, requests, Duration::from_secs(deadline_s)) {
        Ok(totals) => println!("{}", totals.to_line()),
        Err(e) => {
            eprintln!("fleet failed: {e}");
            std::process::exit(1);
        }
    }
}

fn print_row(row: &C10kRow) {
    println!(
        "{:>7} {:>9} {:>7} {:>7} {:>8.2}ms {:>8.2}ms {:>7.2}ms {:>7} {:>9} {:>8.1}",
        row.clients,
        row.totals.admitted,
        row.totals.shed,
        row.totals.errors,
        row.admitted_mean_ms,
        row.admitted_max_ms,
        row.shed_mean_ms,
        row.peak_queue_depth,
        row.peak_open_connections,
        row.wall.as_secs_f64()
    );
}
