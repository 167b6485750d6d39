//! Event-heap scale proof (DESIGN.md §15): the simulation core must
//! drive 1,000+ sites with 100k+ in-flight tasks to settlement, and a
//! second run in fresh state (new `Grid`, new `HashMap` seeds) must
//! produce a byte-identical event schedule — checked here as equal
//! FNV-1a digests over every drained event, so the full streams never
//! have to be held side by side.
//!
//! The 64-site smoke variant always runs; the 1,000-site run is
//! skipped under unoptimised builds unless `HEAP_SCALE=1` forces it
//! (it is release-speed work — CI's `heap-scale` job runs it with
//! `--release`).

use gae::prelude::*;

/// FNV-1a over the byte-relevant fields of one drained event stream.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn event(&mut self, site: SiteId, e: &gae::exec::ExecEvent) {
        self.mix(site.raw());
        self.mix(e.seq);
        self.mix(e.at.as_micros());
        self.mix(e.condor.raw());
        self.mix(e.task.raw());
        self.mix_bytes(e.status.to_string().as_bytes());
        self.mix(e.node.map_or(u64::MAX, |n| n.raw()));
        self.mix_bytes(e.detail.as_bytes());
    }
}

/// Builds a grid of `sites` free sites (2 nodes × 2 slots) carrying
/// `tasks_per_site` queued tasks each, every 16th staging a 50 MB
/// input from the next site over, and drives it to settlement in
/// coarse one-hour strides. Returns the event digest, the event
/// count, and the settlement instant.
fn settle(sites: u64, tasks_per_site: u64) -> (u64, u64, SimTime) {
    let mut builder = GridBuilder::new();
    for s in 1..=sites {
        builder = builder.site(SiteDescription::new(SiteId::new(s), format!("s{s}"), 2, 2));
    }
    let grid = builder.build();
    for s in 1..=sites {
        for k in 0..tasks_per_site {
            let id = s * 1_000_000 + k;
            let mut spec = TaskSpec::new(TaskId::new(id), format!("t{id}"), "app")
                .with_cpu_demand(SimDuration::from_secs(((s + k) % 50 + 1) * 60));
            if k % 16 == 0 {
                let src = SiteId::new(s % sites + 1);
                spec = spec.with_inputs(vec![
                    FileRef::new(format!("in{id}.root"), 50_000_000).with_replicas(vec![src])
                ]);
            }
            grid.submit(SiteId::new(s), spec, None).expect("free site");
        }
    }
    let mut digest = Digest::new();
    let mut count = 0u64;
    let mut hour = 0u64;
    loop {
        hour += 1;
        assert!(hour <= 2_000, "workload failed to settle");
        grid.advance_to(SimTime::from_secs(hour * 3_600));
        for (site, event) in grid.drain_events() {
            digest.event(site, &event);
            count += 1;
        }
        if grid.next_event_time().is_none() {
            break;
        }
    }
    assert!(
        grid.sites()
            .all(|(_, site)| site.lock().next_event_time().is_none())
            && grid.with_xfer(|x| x.next_event_time()).is_none(),
        "cached index says settled but the site scan disagrees"
    );
    (digest.0, count, grid.now())
}

fn assert_runs_agree(sites: u64, tasks_per_site: u64) {
    let (digest, count, now) = settle(sites, tasks_per_site);
    let (digest_again, count_again, now_again) = settle(sites, tasks_per_site);
    assert_eq!(count, count_again, "event counts diverged");
    assert_eq!(now, now_again, "settlement instants diverged");
    assert_eq!(digest, digest_again, "event streams diverged");
    // Every submitted task must have produced at least its queued /
    // running / terminal transitions.
    assert!(
        count >= sites * tasks_per_site * 3,
        "only {count} events for {} tasks",
        sites * tasks_per_site
    );
}

#[test]
fn smoke_64_sites_settle_identically() {
    assert_runs_agree(64, 8);
}

#[test]
fn thousand_sites_hundred_thousand_tasks_settle_identically() {
    if cfg!(debug_assertions) && std::env::var("HEAP_SCALE").is_err() {
        eprintln!("skipping 1,000-site run under an unoptimised build (set HEAP_SCALE=1 to force)");
        return;
    }
    assert_runs_agree(1_000, 100);
}
