//! Replicated-log cluster semantics (DESIGN.md §13), exercised on a
//! follower cluster with [`MirrorMachine`] state, driven through its
//! [`ReplicationSink`] by a small local leader: commit-time streaming,
//! snapshot-install catch-up for lagging followers, the quorum rule
//! under follower loss, commit lockstep, deterministic elections, and
//! the recoverability of a promoted follower's store.

use gae::durable::fault::unique_temp_dir;
use gae::durable::DurableStore;
use gae::prelude::*;
use gae::repl::frame;
use gae::wire::Value;
use std::sync::Arc;

/// The leader these followers mirror: a bare store in `node-0` plus a
/// machine of its own, teeing every commit / rotate into the cluster's
/// sink the way `gae-core`'s persistence layer does.
struct Leader {
    store: DurableStore,
    machine: MirrorMachine,
    /// Envelope bytes appended since the last commit.
    pending: Vec<Vec<u8>>,
    cluster: Arc<ReplicatedLog<MirrorMachine>>,
}

impl Leader {
    fn append(&mut self, kind: &str, body: Value) {
        self.pending
            .push(frame::encode_envelope(kind, &body).into_bytes());
    }

    /// Commits the buffered records locally, then streams them.
    fn commit(&mut self) -> u64 {
        let records = std::mem::take(&mut self.pending);
        for record in &records {
            self.store.append(record.clone());
        }
        let index = self.store.commit().expect("leader commit");
        for record in &records {
            let m = frame::decode_envelope(record).expect("leader decode");
            self.machine.apply_mutation(&m).expect("leader apply");
        }
        self.cluster.on_commit(index, &records);
        index
    }

    fn commit_batch(&mut self, tag: &str, records: usize) -> u64 {
        for i in 0..records {
            self.append(tag, Value::from(format!("{tag}-{i}")));
        }
        self.commit()
    }

    /// Rotates to a snapshot of the leader machine and forwards it.
    fn rotate(&mut self) {
        let payload = self.machine.snapshot();
        self.store.rotate(&payload).expect("leader rotate");
        self.cluster
            .on_rotate(self.store.commit_index(), self.store.record_seq(), &payload);
    }

    fn state(&self) -> String {
        self.machine.query_state()
    }
}

fn cluster_at(
    dir: &std::path::Path,
    followers: usize,
) -> (Leader, Arc<ReplicatedLog<MirrorMachine>>) {
    let cluster = ReplicatedLog::attached(
        dir,
        ReplConfig {
            followers,
            fsync: false,
        },
        |_| MirrorMachine::new(),
    )
    .expect("cluster");
    let leader = Leader {
        store: DurableStore::create(&dir.join("node-0"), false).expect("leader store"),
        machine: MirrorMachine::new(),
        pending: Vec::new(),
        cluster: cluster.clone(),
    };
    (leader, cluster)
}

/// Committed batches land on every follower — store and machine — in
/// lockstep; uncommitted appends are invisible to followers.
#[test]
fn followers_replay_every_committed_batch() {
    let dir = unique_temp_dir("repl-replay");
    let (mut leader, cluster) = cluster_at(&dir, 2);
    for round in 0..5 {
        leader.commit_batch(&format!("r{round}"), 3);
    }
    let leader_state = leader.state();
    for node in cluster.follower_ids() {
        assert_eq!(
            cluster.follower_state(node).expect("follower state"),
            leader_state,
            "{node} diverged from the leader"
        );
        assert_eq!(cluster.follower_commit(node).expect("commit"), 5);
    }
    assert_eq!(cluster.quorum_commit(), 5);

    // An append the leader has not committed must not leak.
    leader.append("pending", Value::from("never"));
    for node in cluster.follower_ids() {
        assert_eq!(cluster.follower_commit(node).expect("commit"), 5);
        assert_eq!(cluster.follower_state(node).expect("state"), leader_state);
    }

    let stats = cluster.stats();
    assert_eq!(stats.commit_index, 5);
    assert_eq!(
        stats.streamed_records,
        5 * 3 * 2,
        "3 records × 5 commits × 2 followers"
    );
    assert_eq!(stats.acks, 5 * 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a killed follower misses commits *and* a snapshot
/// rotation; rejoining installs the rotation snapshot plus the
/// retained log suffix, landing byte-identical to the leader at the
/// leader's commit index.
#[test]
fn snapshot_install_catches_up_lagging_follower() {
    let dir = unique_temp_dir("repl-install");
    let (mut leader, cluster) = cluster_at(&dir, 2);
    let lagger = NodeId(1);
    leader.commit_batch("before", 4);
    cluster.kill_follower(lagger).expect("kill");
    assert_eq!(cluster.stats().followers_alive, 1);

    // The leader advances past a rotation while the follower is dead:
    // the pre-rotation batches are released from the catch-up log, so
    // rejoin *must* go through snapshot install.
    leader.commit_batch("missed", 2);
    leader.rotate();
    let after_rotation = leader.commit_batch("suffix", 3);

    cluster.rejoin_follower(lagger).expect("rejoin");
    let stats = cluster.stats();
    assert_eq!(stats.snapshot_installs, 1, "rejoin must snapshot-install");
    assert_eq!(stats.followers_alive, 2);
    assert_eq!(
        cluster.follower_commit(lagger).expect("commit"),
        after_rotation,
        "the rejoined follower caught up to the leader's commit index"
    );
    assert_eq!(
        cluster.follower_state(lagger).expect("state"),
        leader.state(),
        "byte-identical state digest after snapshot install + suffix replay"
    );
    assert_eq!(cluster.quorum_commit(), after_rotation);
    std::fs::remove_dir_all(&dir).ok();
}

/// The quorum rule (n/2 + 1): with every follower dead the leader
/// still commits locally but the quorum index stalls; a rejoined
/// follower catches up and un-stalls it.
#[test]
fn quorum_stalls_without_followers_and_recovers() {
    let dir = unique_temp_dir("repl-quorum");
    let (mut leader, cluster) = cluster_at(&dir, 2);
    let committed = leader.commit_batch("healthy", 2);
    assert_eq!(cluster.quorum_commit(), committed);
    assert_eq!(cluster.stats().quorum_stalls, 0);

    cluster.kill_follower(NodeId(1)).expect("kill 1");
    cluster.kill_follower(NodeId(2)).expect("kill 2");
    let alone = leader.commit_batch("alone", 2);
    assert_eq!(cluster.stats().leader_commit, alone);
    assert_eq!(
        cluster.quorum_commit(),
        committed,
        "a leader alone is below quorum (needs 2 of 3 nodes)"
    );
    assert_eq!(cluster.stats().quorum_stalls, 1);

    cluster.rejoin_follower(NodeId(2)).expect("rejoin");
    assert_eq!(
        cluster.quorum_commit(),
        alone,
        "leader + one follower is a quorum again"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Followers check commit lockstep: a commit whose index skips one
/// lands each follower's store on an index other than the leader's,
/// and that kills the follower like any apply error. The quorum index
/// then stalls where it was, and never moves backward.
#[test]
fn a_skipped_commit_index_kills_the_followers() {
    let dir = unique_temp_dir("repl-lockstep");
    let (mut leader, cluster) = cluster_at(&dir, 2);
    let committed = leader.commit_batch("sync", 2);
    assert_eq!(cluster.quorum_commit(), committed);

    let record = frame::encode_envelope("skipped", &Value::from("x")).into_bytes();
    cluster.on_commit(committed + 2, &[record]);
    let stats = cluster.stats();
    assert_eq!(stats.followers_alive, 0, "both followers left lockstep");
    assert_eq!(stats.leader_commit, committed + 2);
    assert_eq!(stats.quorum_stalls, 1);
    assert_eq!(cluster.quorum_commit(), committed);
    for node in cluster.follower_ids() {
        assert_eq!(cluster.follower_commit(node).expect("commit"), committed);
    }

    cluster.on_commit(committed + 3, &[]);
    assert_eq!(cluster.stats().quorum_stalls, 2);
    assert_eq!(cluster.quorum_commit(), committed, "never backward");
    std::fs::remove_dir_all(&dir).ok();
}

/// The election rule — highest `(commit_index, node_id)` among live
/// followers — is deterministic: in-sync followers tie on commit
/// index and the highest node id wins; dead followers never win
/// however far ahead they once were.
#[test]
fn election_is_deterministic() {
    // All followers in sync: the tie breaks on node id.
    let dir = unique_temp_dir("repl-elect-tie");
    let (mut leader, cluster) = cluster_at(&dir, 3);
    let committed = leader.commit_batch("sync", 2);
    let promotion = cluster.fail_leader().expect("election");
    assert_eq!(promotion.node, NodeId(3));
    assert_eq!(promotion.commit_index, committed);
    assert_eq!(cluster.stats().elections, 1);
    std::fs::remove_dir_all(&dir).ok();

    // The highest-id follower is dead (and lagging): the next live
    // one wins. Live followers cannot lag in this synchronous model,
    // so the commit-index component of the rule only discriminates
    // against the dead.
    let dir = unique_temp_dir("repl-elect-dead");
    let (mut leader, cluster) = cluster_at(&dir, 3);
    leader.commit_batch("early", 2);
    cluster.kill_follower(NodeId(3)).expect("kill");
    leader.commit_batch("late", 2);
    let promotion = cluster.fail_leader().expect("election");
    assert_eq!(promotion.node, NodeId(2), "dead node-3 is not electable");
    std::fs::remove_dir_all(&dir).ok();
}

/// A promoted follower's store is byte-for-byte as recoverable as the
/// dead leader's own: same record payloads, same commit index, same
/// anchoring snapshot — across a rotation.
#[test]
fn promoted_follower_store_is_recoverable() {
    let dir = unique_temp_dir("repl-promote");
    let (mut leader, cluster) = cluster_at(&dir, 2);
    leader.commit_batch("gen0", 3);
    leader.rotate();
    leader.commit_batch("gen1", 2);
    let promotion = cluster.fail_leader().expect("election");
    drop((leader, cluster));

    let leader = DurableStore::recover(&dir.join("node-0")).expect("recover leader dir");
    let follower = DurableStore::recover(&promotion.dir).expect("recover promoted dir");
    assert_eq!(follower.commit_index, leader.commit_index);
    assert_eq!(follower.record_seq, leader.record_seq);
    assert_eq!(follower.generation, leader.generation);
    assert_eq!(follower.snapshot, leader.snapshot);
    assert_eq!(follower.records, leader.records);
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing an already-dead follower, rejoining a live one, or failing
/// the leader twice are refused as invalid transitions, not UB.
#[test]
fn lifecycle_misuse_is_refused() {
    let dir = unique_temp_dir("repl-misuse");
    let (mut leader, cluster) = cluster_at(&dir, 2);
    leader.commit_batch("x", 1);
    assert!(
        cluster.rejoin_follower(NodeId(1)).is_err(),
        "rejoin of a live follower"
    );
    cluster.kill_follower(NodeId(1)).expect("kill");
    assert!(cluster.kill_follower(NodeId(1)).is_err(), "double kill");
    cluster.fail_leader().expect("first election");
    assert!(cluster.fail_leader().is_err(), "the leader is already dead");
    // Sink calls after `fail_leader` change nothing: a dead leader
    // cannot commit into, or rotate, the surviving followers.
    let (stats, state) = (cluster.stats(), cluster.follower_state(NodeId(2)));
    leader.commit_batch("posthumous", 2);
    leader.rotate();
    assert_eq!(cluster.stats(), stats);
    assert_eq!(cluster.follower_state(NodeId(2)), state);
    std::fs::remove_dir_all(&dir).ok();
}
