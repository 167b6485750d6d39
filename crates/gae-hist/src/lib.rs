//! gae-hist: the append-only columnar job-history store.
//!
//! ROADMAP item 4 scaled up: the Job Monitoring Service's repository
//! keeps every terminal task outcome, and the Estimator Service's
//! similar-task matcher (§6.1) regresses over it — at millions of
//! jobs, not the ~10⁴-entry ring the per-site [`HistoryStore`] holds.
//! The design follows the usual analytics split:
//!
//! * **Struct-of-arrays segments.** Rows are decomposed into
//!   per-column typed buffers (`u64` for ids, ticks, runtime, success;
//!   dictionary codes for string-ish attributes). A predicate scan
//!   touches only the columns it names.
//! * **Sealed segments + a mutable tail.** Appends go to the tail;
//!   once it reaches `segment_rows` (or a journaled `Seal` op fires on
//!   the grid clock) it freezes into an immutable segment with
//!   per-column min/max **zone maps**, and each column is packed as
//!   its zone minimum plus the narrowest lane that holds `max − min`.
//! * **Predicate pushdown.** A scan is a conjunction of
//!   [`ColumnPredicate`]s; any predicate whose value range cannot
//!   intersect a sealed segment's zone map prunes the whole segment
//!   before a single row is read. Dictionary codes are assigned in
//!   insertion order, so equality pruning on string columns is sound.
//! * **Deterministic, journal-replayed state.** Every mutation is one
//!   of three ops — `Append`, `Seal`, `Compact` — and store contents
//!   (including segment boundaries) are a pure function of the op
//!   sequence. gae-core journals each op as a `"hist"` WAL record, so
//!   crash recovery and replication followers rebuild byte-identical
//!   stores; [`HistStore::digest`] and [`HistStore::segment_digests`]
//!   are the check.
//! * **Runtime views.** The estimator's per-tier sums are kept as
//!   exact integer [`Moments`] per `(site, equality-column set,
//!   values)`, built by the first [`HistStore::runtime_moments`] query
//!   that names a column set and updated by every later `Append` — so
//!   an estimate is O(template tiers) hash probes, not a scan. Views
//!   are derived state: never encoded, digested or journaled.
//!
//! See DESIGN.md §14 for the full columnar history contract.

mod codec;
mod dict;
mod moments;
mod predicate;
mod schema;
mod segment;
mod store;
mod view;

pub use dict::Dictionary;
pub use moments::Moments;
pub use predicate::{naive_matches, CmpOp, ColumnPredicate, PredValue};
pub use schema::{resolve_column, ColumnRef, HistOp, HistRecord, NUM_COLUMNS, STR_COLUMNS};
pub use segment::Segment;
pub use store::{HistConfig, HistStats, HistStore, RowView, ScanStats};
