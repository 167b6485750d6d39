//! Replication benches (DESIGN.md §13): append/commit latency as the
//! replication factor grows. Streaming is synchronous — every commit
//! hands the leader's WAL records, as envelope bytes, to each follower,
//! which appends them verbatim and applies them to its state machine
//! (decoded once per commit) — so the cost is expected to rise roughly
//! linearly with the follower count. `rotate` is benched separately:
//! it snapshots the leader machine and rotates every follower store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gae_durable::fault::unique_temp_dir;
use gae_durable::DurableStore;
use gae_repl::{
    frame, MirrorMachine, Mutation, ReplConfig, ReplicatedLog, ReplicationSink, StateMachine,
};
use gae_wire::Value;
use std::hint::black_box;
use std::sync::Arc;

/// Records appended per commit, matching the poll-boundary batching
/// the service stack produces.
const RECORDS_PER_COMMIT: usize = 8;

/// The leader the followers mirror: a bare store in `node-0` plus a
/// machine, teeing commits and rotations into the cluster's sink the
/// way `gae-core`'s persistence layer does.
struct Leader {
    store: DurableStore,
    machine: MirrorMachine,
    cluster: Arc<ReplicatedLog<MirrorMachine>>,
}

impl Leader {
    fn new(dir: &std::path::Path, nodes: usize) -> Self {
        let config = ReplConfig {
            followers: nodes - 1,
            fsync: false,
        };
        Leader {
            cluster: ReplicatedLog::attached(dir, config, |_| MirrorMachine::new())
                .expect("cluster"),
            store: DurableStore::create(&dir.join("node-0"), false).expect("leader store"),
            machine: MirrorMachine::new(),
        }
    }

    /// One committed batch of [`RECORDS_PER_COMMIT`] records.
    fn commit_batch(&mut self) -> u64 {
        let records: Vec<Mutation> = (0..RECORDS_PER_COMMIT)
            .map(|i| Mutation {
                kind: "bench".to_string(),
                body: Value::from(format!("payload-{i:04}")),
            })
            .collect();
        let envelopes: Vec<Vec<u8>> = records
            .iter()
            .map(|m| frame::encode_envelope(&m.kind, &m.body).into_bytes())
            .collect();
        for envelope in &envelopes {
            self.store.append(envelope.clone());
        }
        let index = self.store.commit().expect("commit");
        for m in &records {
            self.machine.apply_mutation(m).expect("apply");
        }
        self.cluster.on_commit(index, &envelopes);
        index
    }

    fn rotate(&mut self) {
        let payload = self.machine.snapshot();
        self.store.rotate(&payload).expect("rotate");
        self.cluster
            .on_rotate(self.store.commit_index(), self.store.record_seq(), &payload);
    }
}

/// One committed batch, swept over total voting nodes N = 1 (no
/// replication), 2, 3.
fn repl_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("repl_commit");
    for nodes in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &nodes| {
            let dir = unique_temp_dir(&format!("bench-repl-{nodes}"));
            let mut leader = Leader::new(&dir, nodes);
            b.iter(|| black_box(leader.commit_batch()));
            drop(leader);
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

/// A rotation (leader snapshot + every follower rotating in step)
/// over a log of committed batches, swept the same way.
fn repl_rotate(c: &mut Criterion) {
    let mut group = c.benchmark_group("repl_rotate");
    for nodes in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, &nodes| {
            let dir = unique_temp_dir(&format!("bench-rotate-{nodes}"));
            let mut leader = Leader::new(&dir, nodes);
            b.iter(|| {
                leader.commit_batch();
                leader.rotate();
                black_box(leader.cluster.quorum_commit())
            });
            drop(leader);
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

criterion_group!(benches, repl_commit, repl_rotate);
criterion_main!(benches);
