//! The replicated log proper: N in-process followers mirroring one
//! external leader — whatever journals through [`ReplicationSink`];
//! in a service stack, `gae-core`'s persistence layer.
//!
//! Every follower owns a [`DurableStore`] in its own `node-<id>`
//! subdirectory, byte-compatible with the leader's, so node loss is
//! modeled exactly like the single-node crashes in
//! `tests/crash_recovery.rs`: drop the handle, recover from the
//! directory. Streaming happens synchronously at commit time: each
//! commit hands over the WAL records the leader's store took, as
//! [`crate::frame`] envelope bytes, and each follower appends them
//! verbatim. Uncommitted leader appends are never visible to
//! followers, which is what makes every follower a prefix-consistent
//! copy of the leader by construction.
//!
//! ## Quorum rule
//!
//! The cluster has `n = followers + 1` voting nodes. The quorum commit
//! index is the highest index durable on at least `n/2 + 1` live
//! nodes. A commit that cannot reach quorum still lands on the leader
//! (and whoever is alive) but the quorum index stalls — counted in
//! [`ReplStats::quorum_stalls`] — until enough followers rejoin and
//! catch up.
//!
//! ## Election rule
//!
//! [`ReplicatedLog::fail_leader`] deterministically promotes the live
//! follower with the highest `(commit_index, node_id)`. The promoted
//! node leaves the cluster; its store directory is handed back in a
//! [`Promotion`] for the caller to run ordinary single-node recovery
//! against.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use gae_durable::{DurableStore, RecoveryPoint, TailState};
use gae_types::{GaeError, GaeResult};
use parking_lot::Mutex;

use crate::frame;
use crate::machine::{Mutation, StateMachine};

/// A voting node's identity. The leader is always node 0; followers
/// are numbered from 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Cluster shape and durability knobs.
#[derive(Clone, Copy, Debug)]
pub struct ReplConfig {
    /// Number of followers (total voting nodes = followers + 1).
    pub followers: usize,
    /// Whether follower stores fsync on commit.
    pub fsync: bool,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            followers: 2,
            fsync: false,
        }
    }
}

/// Replication counters, published under MonALISA entity `repl`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplStats {
    /// Highest index durable on a quorum of live nodes.
    pub commit_index: u64,
    /// The leader's own commit index (>= `commit_index`).
    pub leader_commit: u64,
    /// Followers configured.
    pub followers_total: usize,
    /// Followers currently alive.
    pub followers_alive: usize,
    /// Records streamed to followers, cumulative.
    pub streamed_records: u64,
    /// Follower acknowledgements received, cumulative.
    pub acks: u64,
    /// Commits that could not reach quorum at commit time.
    pub quorum_stalls: u64,
    /// Snapshot installs performed for lagging/rejoining followers.
    pub snapshot_installs: u64,
    /// Elections run (leader failovers).
    pub elections: u64,
}

/// The outcome of a deterministic election: which follower won, at
/// what commit index, and where its store lives so the caller can run
/// single-node recovery against it.
#[derive(Clone, Debug)]
pub struct Promotion {
    /// The promoted follower.
    pub node: NodeId,
    /// Its durable commit index at promotion.
    pub commit_index: u64,
    /// Its store directory (byte-compatible with the leader's).
    pub dir: PathBuf,
}

/// The sink a journaling leader drives. `gae-core`'s persistence layer
/// tees every commit and rotation through this trait, so replication
/// attaches to the existing WAL without the services knowing.
pub trait ReplicationSink: Send + Sync {
    /// The leader committed `commit_index`, holding `records`: the
    /// envelope bytes its store took, in order. Stream them.
    fn on_commit(&self, commit_index: u64, records: &[Vec<u8>]);
    /// The leader rotated to a new generation anchored at `snapshot`.
    fn on_rotate(&self, commit_index: u64, record_seq: u64, snapshot: &[u8]);
    /// Current replication counters.
    fn stats(&self) -> ReplStats;
}

/// One commit retained for follower catch-up: the leader's records,
/// byte for byte.
struct RetainedBatch {
    index: u64,
    records: Vec<Vec<u8>>,
}

/// The leader's last rotation payload: the snapshot-install source.
struct RetainedSnapshot {
    commit_index: u64,
    record_seq: u64,
    payload: Vec<u8>,
}

struct Follower<M> {
    id: NodeId,
    dir: PathBuf,
    store: Option<DurableStore>,
    machine: M,
    commit_index: u64,
    alive: bool,
}

struct Inner<M> {
    fsync: bool,
    leader_alive: bool,
    leader_commit: u64,
    followers: Vec<Follower<M>>,
    snapshot: RetainedSnapshot,
    /// Batches with index > snapshot.commit_index, oldest first.
    retained: VecDeque<RetainedBatch>,
    quorum_commit: u64,
    streamed_records: u64,
    acks: u64,
    quorum_stalls: u64,
    snapshot_installs: u64,
    elections: u64,
}

/// A deterministic replicated log: synchronous follower replay of the
/// leader's commits, quorum commit index, snapshot-install catch-up,
/// and deterministic failover.
pub struct ReplicatedLog<M: StateMachine> {
    dir: PathBuf,
    inner: Mutex<Inner<M>>,
}

impl<M: StateMachine> ReplicatedLog<M> {
    /// A follower cluster under `dir` for attaching to a leader: the
    /// returned log implements [`ReplicationSink`] and mirrors every
    /// leader commit into followers built by `mk`.
    pub fn attached(
        dir: &Path,
        config: ReplConfig,
        mk: impl Fn(NodeId) -> M,
    ) -> GaeResult<std::sync::Arc<Self>> {
        let mut followers = Vec::new();
        for i in 1..=config.followers as u64 {
            let id = NodeId(i);
            let node_dir = dir.join(format!("node-{i}"));
            // Fresh followers start at the same base as the leader
            // (generation 0, empty snapshot) so WAL directories stay
            // byte-compatible across the cluster.
            let store = DurableStore::create(&node_dir, config.fsync)?;
            followers.push(Follower {
                id,
                dir: node_dir,
                store: Some(store),
                machine: mk(id),
                commit_index: 0,
                alive: true,
            });
        }
        Ok(std::sync::Arc::new(ReplicatedLog {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                fsync: config.fsync,
                leader_alive: true,
                leader_commit: 0,
                followers,
                snapshot: RetainedSnapshot {
                    commit_index: 0,
                    record_seq: 0,
                    payload: Vec::new(),
                },
                retained: VecDeque::new(),
                quorum_commit: 0,
                streamed_records: 0,
                acks: 0,
                quorum_stalls: 0,
                snapshot_installs: 0,
                elections: 0,
            }),
        }))
    }

    /// The cluster's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Kill a follower: its store handle drops (as if the process
    /// died); its durable directory stays on disk.
    pub fn kill_follower(&self, node: NodeId) -> GaeResult<()> {
        let mut inner = self.inner.lock();
        let f = follower_mut(&mut inner, node)?;
        if !f.alive {
            return Err(GaeError::InvalidTransition {
                entity: node.to_string(),
                from: "dead".to_string(),
                attempted: "kill".to_string(),
            });
        }
        f.store = None;
        f.alive = false;
        Ok(())
    }

    /// Rejoin a killed follower: snapshot install (the leader's last
    /// rotation payload, anchored at its `(commit_index, record_seq)`)
    /// plus replay of the retained log suffix, batch by batch, so the
    /// follower's commit index lands exactly on the leader's.
    pub fn rejoin_follower(&self, node: NodeId) -> GaeResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let fsync = inner.fsync;
        let f = inner
            .followers
            .iter_mut()
            .find(|f| f.id == node)
            .ok_or_else(|| GaeError::NotFound(node.to_string()))?;
        if f.alive {
            return Err(GaeError::InvalidTransition {
                entity: node.to_string(),
                from: "alive".to_string(),
                attempted: "rejoin".to_string(),
            });
        }
        // Snapshot install: wipe the stale directory and rebase the
        // store on the leader's retained snapshot. The fabricated
        // `RecoveryPoint` anchors generation 0 at the snapshot's
        // commit point, so frame numbering continues exactly like the
        // leader's.
        std::fs::remove_dir_all(&f.dir)
            .map_err(|e| GaeError::Io(format!("wipe {}: {e}", f.dir.display())))?;
        std::fs::create_dir_all(&f.dir)
            .map_err(|e| GaeError::Io(format!("recreate {}: {e}", f.dir.display())))?;
        let base = RecoveryPoint {
            commit_index: inner.snapshot.commit_index,
            record_seq: inner.snapshot.record_seq,
            generation: 0,
            tail: TailState::Clean,
            used_fallback: false,
            max_batch_records: 0,
        };
        let mut store = DurableStore::resume(&f.dir, &base, &inner.snapshot.payload, fsync)?;
        f.machine.restore(&inner.snapshot.payload)?;
        f.commit_index = inner.snapshot.commit_index;
        inner.snapshot_installs += 1;
        // Log suffix: every retained batch past the snapshot point,
        // replayed off the leader's record bytes.
        for batch in &inner.retained {
            let mutations = decode_records(&batch.records)?;
            apply_batch(&mut store, &f.machine, batch, &mutations)?;
            f.commit_index = batch.index;
            inner.streamed_records += batch.records.len() as u64;
            inner.acks += 1;
        }
        f.store = Some(store);
        f.alive = true;
        recompute_quorum(inner);
        Ok(())
    }

    /// Leader loss: deterministic election. The live follower with the
    /// highest `(commit_index, node_id)` is promoted and leaves the
    /// cluster; the caller runs single-node recovery against
    /// [`Promotion::dir`].
    pub fn fail_leader(&self) -> GaeResult<Promotion> {
        let mut inner = self.inner.lock();
        if !inner.leader_alive {
            return Err(GaeError::InvalidTransition {
                entity: "leader".to_string(),
                from: "dead".to_string(),
                attempted: "fail_leader".to_string(),
            });
        }
        inner.leader_alive = false;
        let winner = inner
            .followers
            .iter_mut()
            .filter(|f| f.alive)
            .max_by_key(|f| (f.commit_index, f.id))
            .ok_or_else(|| GaeError::NotFound("no live follower to promote".to_string()))?;
        // The promoted node stops voting here and closes its store so
        // the caller can recover the directory like any crashed node.
        winner.store = None;
        winner.alive = false;
        let promotion = Promotion {
            node: winner.id,
            commit_index: winner.commit_index,
            dir: winner.dir.clone(),
        };
        inner.elections += 1;
        Ok(promotion)
    }

    /// The quorum commit index.
    pub fn quorum_commit(&self) -> u64 {
        self.inner.lock().quorum_commit
    }

    /// A follower's durable commit index.
    pub fn follower_commit(&self, node: NodeId) -> GaeResult<u64> {
        let mut inner = self.inner.lock();
        Ok(follower_mut(&mut inner, node)?.commit_index)
    }

    /// A follower's machine digest ([`StateMachine::query_state`]).
    pub fn follower_state(&self, node: NodeId) -> GaeResult<String> {
        let mut inner = self.inner.lock();
        Ok(follower_mut(&mut inner, node)?.machine.query_state())
    }

    /// Every configured follower id.
    pub fn follower_ids(&self) -> Vec<NodeId> {
        self.inner.lock().followers.iter().map(|f| f.id).collect()
    }

    fn stats_locked(inner: &Inner<M>) -> ReplStats {
        ReplStats {
            commit_index: inner.quorum_commit,
            leader_commit: inner.leader_commit,
            followers_total: inner.followers.len(),
            followers_alive: inner.followers.iter().filter(|f| f.alive).count(),
            streamed_records: inner.streamed_records,
            acks: inner.acks,
            quorum_stalls: inner.quorum_stalls,
            snapshot_installs: inner.snapshot_installs,
            elections: inner.elections,
        }
    }
}

impl<M: StateMachine> ReplicationSink for ReplicatedLog<M> {
    fn on_commit(&self, commit_index: u64, records: &[Vec<u8>]) {
        let mut inner = self.inner.lock();
        if !inner.leader_alive {
            return;
        }
        let batch = RetainedBatch {
            index: commit_index,
            records: records.to_vec(),
        };
        replicate(&mut inner, batch);
    }

    fn on_rotate(&self, commit_index: u64, record_seq: u64, snapshot: &[u8]) {
        let mut inner = self.inner.lock();
        if !inner.leader_alive {
            return;
        }
        install_rotation(&mut inner, commit_index, record_seq, snapshot);
    }

    fn stats(&self) -> ReplStats {
        Self::stats_locked(&self.inner.lock())
    }
}

fn follower_mut<M: StateMachine>(
    inner: &mut Inner<M>,
    node: NodeId,
) -> GaeResult<&mut Follower<M>> {
    inner
        .followers
        .iter_mut()
        .find(|f| f.id == node)
        .ok_or_else(|| GaeError::NotFound(node.to_string()))
}

/// Stream one committed batch to every live follower and advance the
/// quorum index. The records are decoded once, for every follower —
/// and not at all while none is alive. A follower whose store or
/// machine errors, or that leaves commit lockstep, is marked dead (it
/// will need a snapshot install to rejoin), never poisoning the leader.
fn replicate<M: StateMachine>(inner: &mut Inner<M>, batch: RetainedBatch) {
    let mut mutations = None;
    for f in inner.followers.iter_mut().filter(|f| f.alive) {
        let decoded = mutations.get_or_insert_with(|| decode_records(&batch.records));
        let applied = match (f.store.as_mut(), decoded) {
            (Some(store), Ok(mutations)) => {
                apply_batch(store, &f.machine, &batch, mutations).is_ok()
            }
            _ => false,
        };
        if applied {
            f.commit_index = batch.index;
            inner.streamed_records += batch.records.len() as u64;
            inner.acks += 1;
        } else {
            f.store = None;
            f.alive = false;
        }
    }
    inner.leader_commit = batch.index;
    inner.retained.push_back(batch);
    recompute_quorum(inner);
    if inner.quorum_commit < inner.leader_commit {
        inner.quorum_stalls += 1;
    }
}

/// Every record of a batch, decoded as crash replay decodes it.
fn decode_records(records: &[Vec<u8>]) -> GaeResult<Vec<Mutation>> {
    records.iter().map(|r| frame::decode_envelope(r)).collect()
}

/// Takes one streamed batch into a follower — the leader's records
/// appended verbatim, committed, and applied to its machine as
/// `mutations`, their decoding: the one path a batch takes, live
/// ([`replicate`]) or catching up after a snapshot install. A commit
/// that lands on an index other than the leader's is an error: the
/// follower has left lockstep.
fn apply_batch<M: StateMachine>(
    store: &mut DurableStore,
    machine: &M,
    batch: &RetainedBatch,
    mutations: &[Mutation],
) -> GaeResult<()> {
    for record in &batch.records {
        store.append(record.clone());
    }
    let committed = store.commit()?;
    if committed != batch.index {
        return Err(GaeError::InvalidTransition {
            entity: "follower".to_string(),
            from: format!("commit {committed}"),
            attempted: format!("apply leader commit {}", batch.index),
        });
    }
    mutations.iter().try_for_each(|m| machine.apply_mutation(m))
}

/// Forward a leader rotation: every live follower rotates its own
/// store to the same payload, the payload becomes the snapshot-install
/// source, and batches it covers are released.
fn install_rotation<M: StateMachine>(
    inner: &mut Inner<M>,
    commit_index: u64,
    record_seq: u64,
    payload: &[u8],
) {
    for f in inner.followers.iter_mut().filter(|f| f.alive) {
        let rotated = match f.store.as_mut() {
            Some(store) => store.rotate(payload),
            None => Err(GaeError::NotFound(f.id.to_string())),
        };
        if rotated.is_err() {
            f.store = None;
            f.alive = false;
        }
    }
    inner.snapshot = RetainedSnapshot {
        commit_index,
        record_seq,
        payload: payload.to_vec(),
    };
    inner.retained.retain(|b| b.index > commit_index);
}

/// Recompute the quorum commit index: the highest index durable on a
/// majority of live nodes (leader counts as one vote while alive). The
/// index never moves backwards.
fn recompute_quorum<M: StateMachine>(inner: &mut Inner<M>) {
    let quorum = inner.followers.len().div_ceil(2) + 1;
    let mut indexes: Vec<u64> = inner
        .followers
        .iter()
        .filter(|f| f.alive)
        .map(|f| f.commit_index)
        .collect();
    if inner.leader_alive {
        indexes.push(inner.leader_commit);
    }
    indexes.sort_unstable_by(|a, b| b.cmp(a));
    if indexes.len() >= quorum {
        inner.quorum_commit = inner.quorum_commit.max(indexes[quorum - 1]);
    }
}
