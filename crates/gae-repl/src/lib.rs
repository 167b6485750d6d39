//! # gae-repl — a deterministic replicated log over gae-durable
//!
//! The Backup & Recovery service of the paper restores a single node;
//! this crate generalizes that WAL into a replicated control plane so
//! steering/jobmon/quota/xfer state survives the loss of a whole
//! machine. The design stays inside the repo's determinism contract:
//! no wall clock, no RNG, no threads — replication is a synchronous,
//! in-process fan-out that behaves identically run to run.
//!
//! | module | contents |
//! |---|---|
//! | [`frame`] | the WAL record envelope, the one unit streamed to followers, and its decoding, [`Mutation`] |
//! | [`cluster`] | [`ReplicatedLog`]: follower stores that take a leader's commits, quorum commit, snapshot install, election |
//!
//! ## Shape
//!
//! * The **leader** is whatever journals through [`ReplicationSink`]
//!   (`gae-core`'s persistence layer): the existing journal ops
//!   (`jobmon` / `plan` / `task` / `notified` / `charge` / `xfer`) are
//!   already the mutation language, and each of its commits is
//!   streamed to N in-process followers as the WAL records its store
//!   took — [`frame`] envelopes, byte for byte.
//! * Each **follower** is its own [`gae_durable::DurableStore`] in a
//!   `node-<id>` subdirectory, and nothing else: it appends the
//!   leader's records verbatim to its own WAL, commits — at the
//!   leader's index, or it leaves the cluster — and acknowledges. It
//!   never decodes a record; its state is what a recovery of its
//!   directory holds.
//! * The **quorum commit index** is the highest index durable on a
//!   majority of live nodes (leader included, n = followers + 1,
//!   quorum = n/2 + 1).
//! * Lagging or fresh followers catch up via **snapshot install**
//!   (the leader's last rotation payload, GAESNAP1 on disk) plus the
//!   retained **log suffix**, replayed batch by batch so commit
//!   indexes land exactly.
//! * On **leader loss**, a deterministic election promotes the live
//!   follower with the highest `(commit_index, node_id)`; its store
//!   directory is byte-compatible with the leader's, so the ordinary
//!   single-node recovery path rebuilds the promoted control plane.

#![warn(missing_docs)]

pub mod cluster;
pub mod frame;

pub use cluster::{NodeId, Promotion, ReplConfig, ReplStats, ReplicatedLog, ReplicationSink};
pub use frame::Mutation;
