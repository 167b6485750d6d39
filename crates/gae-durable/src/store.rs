//! The durable store: one live WAL segment plus a base snapshot,
//! organised in *generations*.
//!
//! Generation `g` on disk is the pair `snapshot.g` + `wal.g`: the
//! snapshot captures all state up to its commit index, and the WAL
//! holds every record appended since. Rotation (compaction) writes
//! `snapshot.(g+1)` reflecting the current commit point, starts an
//! empty `wal.(g+1)`, and prunes generations `<= g-1`, so at most two
//! generations exist at once. Keeping the previous generation makes
//! the store single-fault tolerant: if `snapshot.g` is corrupted,
//! recovery replays `snapshot.(g-1)` + all of `wal.(g-1)` + the valid
//! prefix of `wal.g`.
//!
//! Appends are buffered in memory (group commit); [`DurableStore::commit`]
//! writes all buffered frames plus a commit marker in a single
//! `write_all` and optionally fsyncs. Recovery replays data records up
//! to the last valid marker and deduplicates by the store-wide record
//! sequence number, so duplicated segments cannot double-apply.

use crate::snapshot::{read_snapshot, Snapshot, SnapshotWriter};
use crate::wal::{encode_commit_frame, encode_data_frame, frame_bytes, scan_frames, TailState};
use gae_types::{GaeError, GaeResult};
use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// Path of `snapshot.<generation>` in `dir`.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation:06}"))
}

/// Path of `wal.<generation>` in `dir`.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation:06}"))
}

fn io_err(context: &str, e: std::io::Error) -> GaeError {
    GaeError::Io(format!("{context}: {e}"))
}

/// Cumulative I/O statistics, for the benches.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Data records appended since the store was opened.
    pub records_appended: u64,
    /// Commits performed (markers written).
    pub commits: u64,
    /// Bytes written to WAL segments.
    pub wal_bytes: u64,
}

/// Where a recovery ended: the commit point the replayed state
/// corresponds to, and how the store looked getting there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPoint {
    /// The commit point the combined state corresponds to.
    pub commit_index: u64,
    /// Highest data-record sequence number applied.
    pub record_seq: u64,
    /// Generation whose snapshot anchored the recovery.
    pub generation: u64,
    /// Tail state of the newest WAL segment (reported, not fatal).
    pub tail: TailState,
    /// True when the newest snapshot was unusable and recovery fell
    /// back to the previous generation.
    pub used_fallback: bool,
    /// Most records the scan held at once before handing them on: the
    /// largest commit batch on disk (or a larger uncommitted tail).
    pub max_batch_records: usize,
}

/// Everything recovery could read from a persistence directory, held
/// at once — what [`DurableStore::recover`] collects. Dereferences to
/// its [`RecoveryPoint`].
#[derive(Debug, PartialEq, Eq)]
pub struct Recovered {
    /// Base snapshot payload (empty = empty state).
    pub snapshot: Vec<u8>,
    /// Committed data records after the snapshot, deduplicated and in
    /// append order.
    pub records: Vec<Vec<u8>>,
    /// Where the recovery ended.
    pub point: RecoveryPoint,
}

impl Deref for Recovered {
    type Target = RecoveryPoint;

    fn deref(&self) -> &RecoveryPoint {
        &self.point
    }
}

/// An open, writable durable store (the "writer" side).
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    generation: u64,
    commit_index: u64,
    record_seq: u64,
    pending: Vec<Vec<u8>>,
    file: File,
    fsync: bool,
    stats: StoreStats,
}

impl DurableStore {
    /// Creates a fresh store in `dir` (created if missing). Fails if
    /// the directory already holds a store — recover it instead of
    /// silently overwriting history.
    pub fn create(dir: &Path, fsync: bool) -> GaeResult<Self> {
        fs::create_dir_all(dir).map_err(|e| io_err("create persistence dir", e))?;
        if !list_generations(dir)?.is_empty() {
            return Err(GaeError::Io(format!(
                "persistence dir {} already holds a store; recover it instead of creating anew",
                dir.display()
            )));
        }
        Self::start_generation(dir, open_snapshot(dir, 0)?, 0, 0, 0, fsync)
    }

    /// Opens generation `at.generation + 1` seeded with a fresh
    /// snapshot of the recovered state. Called once after replay.
    pub fn resume(dir: &Path, at: &RecoveryPoint, snapshot: &[u8], fsync: bool) -> GaeResult<Self> {
        Self::resume_with(dir, at, fsync, |w| w.write_all(snapshot))
    }

    /// [`DurableStore::resume`] with the snapshot streamed into the
    /// file by `write` instead of handed over whole.
    pub fn resume_with(
        dir: &Path,
        at: &RecoveryPoint,
        fsync: bool,
        write: impl FnOnce(&mut SnapshotWriter) -> io::Result<()>,
    ) -> GaeResult<Self> {
        let generation = at.generation + 1;
        let mut snapshot = open_snapshot(dir, generation)?;
        write(&mut snapshot).map_err(|e| io_err("write snapshot", e))?;
        Self::start_generation(
            dir,
            snapshot,
            generation,
            at.commit_index,
            at.record_seq,
            fsync,
        )
    }

    fn start_generation(
        dir: &Path,
        snapshot: SnapshotWriter,
        generation: u64,
        commit_index: u64,
        record_seq: u64,
        fsync: bool,
    ) -> GaeResult<Self> {
        snapshot
            .finish(commit_index, record_seq, fsync)
            .map_err(|e| io_err("write snapshot", e))?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(wal_path(dir, generation))
            .map_err(|e| io_err("open wal segment", e))?;
        prune_before(dir, generation.saturating_sub(1))?;
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            generation,
            commit_index,
            record_seq,
            pending: Vec::new(),
            file,
            fsync,
            stats: StoreStats::default(),
        })
    }

    /// Buffers one record for the next commit (group commit).
    pub fn append(&mut self, record: Vec<u8>) {
        self.pending.push(record);
    }

    /// Number of records buffered but not yet committed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Writes all buffered records plus a commit marker in one batch,
    /// fsyncing if configured. An empty commit still writes a marker —
    /// checkpoints advance the commit index even when nothing changed.
    pub fn commit(&mut self) -> GaeResult<u64> {
        self.commit_index += 1;
        let records: usize = self.pending.iter().map(|r| frame_bytes(r.len())).sum();
        let mut batch = Vec::with_capacity(records + frame_bytes(0));
        for record in self.pending.drain(..) {
            self.record_seq += 1;
            self.stats.records_appended += 1;
            encode_data_frame(self.record_seq, &record, &mut batch);
        }
        encode_commit_frame(self.commit_index, &mut batch);
        self.file
            .write_all(&batch)
            .and_then(|_| self.file.flush())
            .map_err(|e| io_err("append wal batch", e))?;
        if self.fsync {
            self.file.sync_data().map_err(|e| io_err("fsync wal", e))?;
        }
        self.stats.commits += 1;
        self.stats.wal_bytes += batch.len() as u64;
        Ok(self.commit_index)
    }

    /// Rotates to a new generation anchored at `snapshot` (which must
    /// describe the state at the current commit point). Buffered
    /// records are committed first so the snapshot supersedes them.
    pub fn rotate(&mut self, snapshot: &[u8]) -> GaeResult<()> {
        let mut next = self.begin_rotation()?;
        next.write_all(snapshot)
            .map_err(|e| io_err("write snapshot", e))?;
        self.rotate_onto(next)
    }

    /// Starts the next generation's snapshot file, for a payload that
    /// is streamed rather than handed to [`DurableStore::rotate`]
    /// whole. The store stays usable while the caller writes it — a
    /// store behind a lock need not be locked for the encode.
    pub fn begin_rotation(&self) -> GaeResult<SnapshotWriter> {
        open_snapshot(&self.dir, self.generation + 1)
    }

    /// Completes a rotation begun with [`DurableStore::begin_rotation`]:
    /// `snapshot`'s payload must describe the state at the current
    /// commit point, exactly as for [`DurableStore::rotate`].
    pub fn rotate_onto(&mut self, snapshot: SnapshotWriter) -> GaeResult<()> {
        if snapshot.path() != snapshot_path(&self.dir, self.generation + 1) {
            return Err(GaeError::InvalidTransition {
                entity: "durable store".to_string(),
                from: format!("generation {}", self.generation),
                attempted: format!("rotate onto {}", snapshot.path().display()),
            });
        }
        if !self.pending.is_empty() {
            self.commit()?;
        }
        let next = Self::start_generation(
            &self.dir,
            snapshot,
            self.generation + 1,
            self.commit_index,
            self.record_seq,
            self.fsync,
        )?;
        let stats = self.stats;
        *self = next;
        self.stats = stats;
        Ok(())
    }

    /// The current commit index (count of commits since creation).
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// The on-disk generation currently being written.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The last data-frame sequence number written (count of records
    /// since creation). Replication anchors snapshot installs at
    /// `(commit_index, record_seq)` so a follower's next generation
    /// numbers frames exactly like the leader's.
    pub fn record_seq(&self) -> u64 {
        self.record_seq
    }

    /// Cumulative I/O statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Read-only recovery, streamed: reconstructs the longest
    /// prefix-consistent committed state from `dir` by handing the
    /// base snapshot payload to `on_snapshot` (empty = empty state),
    /// then every committed data record after it to `on_record` as
    /// `(seq, record)` — deduplicated, in append order, one commit
    /// batch read ahead at most. An error from either sink ends the
    /// replay and is returned as is. Never writes; call
    /// [`Self::resume_with`] afterwards to continue appending.
    pub fn replay(
        dir: &Path,
        on_snapshot: impl FnOnce(Vec<u8>) -> GaeResult<()>,
        mut on_record: impl FnMut(u64, Vec<u8>) -> GaeResult<()>,
    ) -> GaeResult<RecoveryPoint> {
        let generations = list_generations(dir)?;
        let Some(&newest) = generations.last() else {
            return Err(GaeError::Io(format!(
                "no durable store found in {}",
                dir.display()
            )));
        };
        let snap =
            read_snapshot(&snapshot_path(dir, newest)).map_err(|e| io_err("read snapshot", e))?;
        // Newest snapshot unusable? Generation 0's snapshot is always
        // empty, so it can be substituted wholesale; otherwise fall
        // back to the previous generation's snapshot plus both WALs.
        let used_fallback = snap.is_none();
        let (base, generation) = match snap {
            Some(snap) => (snap, newest),
            None if newest == 0 => (Snapshot::default(), 0),
            None => {
                let prev = read_snapshot(&snapshot_path(dir, newest - 1))
                    .map_err(|e| io_err("read fallback snapshot", e))?
                    .ok_or_else(|| {
                        GaeError::Io(format!(
                            "snapshots {} and {} both unreadable",
                            newest,
                            newest - 1
                        ))
                    })?;
                (prev, newest - 1)
            }
        };
        let mut point = RecoveryPoint {
            commit_index: base.commit_index,
            record_seq: base.record_seq,
            generation,
            tail: TailState::Clean,
            used_fallback,
            max_batch_records: 0,
        };
        on_snapshot(base.payload)?;
        for wal in generation..=newest {
            let end = match File::open(wal_path(dir, wal)) {
                Ok(file) => {
                    let len = file
                        .metadata()
                        .map_err(|e| io_err("stat wal segment", e))?
                        .len();
                    scan_frames(BufReader::new(file), len, |batch| {
                        // Sequence numbers deduplicate frames that
                        // corruption repeated, within and across
                        // generations.
                        for (seq, record) in batch.drain(..) {
                            if seq > point.record_seq {
                                point.record_seq = seq;
                                on_record(seq, record)?;
                            }
                        }
                        Ok(())
                    })?
                }
                // A missing segment is an empty, clean one: a crash
                // can land between snapshot creation and first write.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    point.tail = TailState::Clean;
                    continue;
                }
                Err(e) => return Err(io_err("open wal segment", e)),
            };
            if let Some(index) = end.last_commit_index {
                point.commit_index = point.commit_index.max(index);
            }
            point.max_batch_records = point.max_batch_records.max(end.max_batch_records);
            point.tail = end.tail; // newest segment's tail wins
        }
        Ok(point)
    }

    /// [`DurableStore::replay`] collected: the snapshot and every
    /// record held at once. For tools, benches and tests that want the
    /// bytes; a process that rebuilds state from them should replay.
    pub fn recover(dir: &Path) -> GaeResult<Recovered> {
        let mut snapshot = Vec::new();
        let mut records = Vec::new();
        let point = Self::replay(
            dir,
            |payload| {
                snapshot = payload;
                Ok(())
            },
            |_, record| {
                records.push(record);
                Ok(())
            },
        )?;
        Ok(Recovered {
            snapshot,
            records,
            point,
        })
    }
}

fn open_snapshot(dir: &Path, generation: u64) -> GaeResult<SnapshotWriter> {
    SnapshotWriter::create(&snapshot_path(dir, generation))
        .map_err(|e| io_err("create snapshot", e))
}

/// Sorted generations present in `dir` (union over snapshot/wal files).
fn list_generations(dir: &Path) -> GaeResult<Vec<u64>> {
    let mut generations = BTreeSet::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("list persistence dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list persistence dir", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix("snapshot.")
            .or_else(|| name.strip_prefix("wal."))
        {
            if let Ok(g) = g.parse::<u64>() {
                generations.insert(g);
            }
        }
    }
    Ok(generations.into_iter().collect())
}

/// Removes snapshot/wal files of generations strictly below `keep_from`.
fn prune_before(dir: &Path, keep_from: u64) -> GaeResult<()> {
    for g in list_generations(dir)? {
        if g < keep_from {
            let _ = fs::remove_file(snapshot_path(dir, g));
            let _ = fs::remove_file(wal_path(dir, g));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{self, Corruption};

    fn temp() -> PathBuf {
        fault::unique_temp_dir("store")
    }

    fn recs(n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}").into_bytes()).collect()
    }

    /// `recover` as this crate shipped it before [`DurableStore::replay`]:
    /// every file read whole, every scan collected, then merged. The
    /// oracle the streamed recovery is compared against.
    fn recover_whole(dir: &Path) -> GaeResult<Recovered> {
        use crate::wal::tests::{scan_bytes, SegmentScan};
        let scan_wal = |generation: u64| match fs::read(wal_path(dir, generation)) {
            Ok(data) => scan_bytes(&data),
            Err(_) => scan_bytes(&[]),
        };
        let assemble = |snapshot: Vec<u8>,
                        base_commit: u64,
                        base_seq: u64,
                        scans: Vec<SegmentScan>,
                        generation: u64,
                        used_fallback: bool| {
            let mut records = Vec::new();
            let mut commit_index = base_commit;
            let mut record_seq = base_seq;
            let mut tail = TailState::Clean;
            for scan in scans {
                for (seq, record) in scan.committed {
                    if seq > record_seq {
                        record_seq = seq;
                        records.push(record);
                    }
                }
                if let Some(index) = scan.last_commit_index {
                    commit_index = commit_index.max(index);
                }
                tail = scan.tail; // newest segment's tail wins
            }
            (
                snapshot,
                records,
                commit_index,
                record_seq,
                generation,
                tail,
                used_fallback,
            )
        };
        let newest = *list_generations(dir)?.last().expect("a store");
        let snap = read_snapshot(&snapshot_path(dir, newest)).unwrap();
        let parts = if let Some(snap) = snap {
            let scans = vec![scan_wal(newest)];
            assemble(
                snap.payload,
                snap.commit_index,
                snap.record_seq,
                scans,
                newest,
                false,
            )
        } else if newest == 0 {
            assemble(Vec::new(), 0, 0, vec![scan_wal(0)], 0, true)
        } else {
            let prev = read_snapshot(&snapshot_path(dir, newest - 1))
                .unwrap()
                .ok_or_else(|| GaeError::Io("both snapshots unreadable".into()))?;
            let scans = vec![scan_wal(newest - 1), scan_wal(newest)];
            assemble(
                prev.payload,
                prev.commit_index,
                prev.record_seq,
                scans,
                newest - 1,
                true,
            )
        };
        let (snapshot, records, commit_index, record_seq, generation, tail, used_fallback) = parts;
        Ok(Recovered {
            snapshot,
            records,
            point: RecoveryPoint {
                commit_index,
                record_seq,
                generation,
                tail,
                used_fallback,
                max_batch_records: 0,
            },
        })
    }

    /// Streamed recovery ≡ whole-file recovery, field for field.
    fn assert_recovers_like_the_oracle(dir: &Path) -> Recovered {
        let mut rec = DurableStore::recover(dir).unwrap();
        let largest = std::mem::take(&mut rec.point.max_batch_records);
        assert_eq!(rec, recover_whole(dir).unwrap());
        rec.point.max_batch_records = largest;
        rec
    }

    /// Two generations with batches of 3, 1, 0 then 2, 4 records.
    fn two_generation_store(dir: &Path) {
        let mut store = DurableStore::create(dir, false).unwrap();
        let mut n = 0u64;
        let mut batch = |store: &mut DurableStore, len: u64| {
            for _ in 0..len {
                n += 1;
                store.append(format!("record-{n}-{}", "x".repeat(n as usize * 3)).into_bytes());
            }
            store.commit().unwrap();
        };
        batch(&mut store, 3);
        batch(&mut store, 1);
        batch(&mut store, 0);
        store.rotate(b"snapshot-of-generation-1").unwrap();
        batch(&mut store, 2);
        batch(&mut store, 4);
    }

    /// The three anchoring cases — intact newest snapshot, corrupt
    /// generation-0 snapshot, fallback to the previous generation —
    /// each also under every truncation, every duplicated tail and a
    /// flip in every byte of the newest WAL.
    #[test]
    fn streamed_recovery_matches_whole_file_recovery_on_every_anchor() {
        type Setup = fn(&Path) -> PathBuf;
        let intact: Setup = |dir| {
            two_generation_store(dir);
            wal_path(dir, 1)
        };
        let corrupt_generation_zero: Setup = |dir| {
            let mut store = DurableStore::create(dir, false).unwrap();
            for r in recs(5) {
                store.append(r);
                store.commit().unwrap();
            }
            fault::inject(
                &snapshot_path(dir, 0),
                &Corruption::TruncateTail { bytes: 3 },
            )
            .unwrap();
            wal_path(dir, 0)
        };
        let fallback: Setup = |dir| {
            two_generation_store(dir);
            let flip = Corruption::FlipBit { offset: 40, bit: 1 };
            fault::inject(&snapshot_path(dir, 1), &flip).unwrap();
            wal_path(dir, 1)
        };
        for (name, setup, used_fallback, generation) in [
            ("intact", intact, false, 1),
            ("generation-0", corrupt_generation_zero, true, 0),
            ("fallback", fallback, true, 0),
        ] {
            let dir = temp();
            let wal = setup(&dir);
            let rec = assert_recovers_like_the_oracle(&dir);
            assert_eq!(
                (rec.used_fallback, rec.generation),
                (used_fallback, generation),
                "{name}"
            );
            assert!(rec.tail.is_clean(), "{name}");
            let clean = fs::read(&wal).unwrap();
            for n in 1..=clean.len() as u64 {
                for corruption in [
                    Corruption::TruncateTail { bytes: n },
                    Corruption::DuplicateTail { bytes: n },
                    Corruption::FlipBit {
                        offset: n - 1,
                        bit: (n % 8) as u8,
                    },
                ] {
                    fs::write(&wal, &clean).unwrap();
                    fault::inject(&wal, &corruption).unwrap();
                    assert_recovers_like_the_oracle(&dir);
                }
            }
            // The older WAL of a fallback, torn; and the newest gone.
            if name == "fallback" {
                fs::write(&wal, &clean).unwrap();
                fault::inject(&wal_path(&dir, 0), &Corruption::TruncateTail { bytes: 5 }).unwrap();
                assert_recovers_like_the_oracle(&dir);
                fs::remove_file(&wal).unwrap();
                assert!(assert_recovers_like_the_oracle(&dir).tail.is_clean());
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn replay_reads_ahead_one_commit_batch_and_stops_on_a_sink_error() {
        let dir = temp();
        two_generation_store(&dir);
        let rec = DurableStore::recover(&dir).unwrap();
        assert_eq!(rec.max_batch_records, 4);
        assert_eq!(rec.records.len(), 6);
        let mut seen = Vec::new();
        let err = DurableStore::replay(
            &dir,
            |snapshot| {
                assert_eq!(snapshot, b"snapshot-of-generation-1");
                Ok(())
            },
            |seq, _| {
                seen.push(seq);
                if seq == 6 {
                    return Err(GaeError::Parse("record 6 refused".into()));
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, GaeError::Parse("record 6 refused".into()));
        assert_eq!(seen, [5, 6]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_rotation_leaves_the_store_usable_until_it_lands() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        store.append(b"before".to_vec());
        store.commit().unwrap();
        let mut next = store.begin_rotation().unwrap();
        next.write_all(b"streamed-").unwrap();
        // The store is not borrowed: records keep arriving mid-encode.
        store.append(b"during".to_vec());
        next.write_all(b"snapshot").unwrap();
        assert_eq!(store.generation(), 0);
        store.rotate_onto(next).unwrap();
        assert_eq!(store.generation(), 1);
        // A writer begun before that rotation is stale now.
        let stale = SnapshotWriter::create(&snapshot_path(&dir, 1)).unwrap();
        assert!(matches!(
            store.rotate_onto(stale),
            Err(GaeError::InvalidTransition { .. })
        ));
        store.append(b"after".to_vec());
        store.commit().unwrap();
        drop(store);
        let rec = DurableStore::recover(&dir).unwrap();
        assert_eq!(rec.snapshot, b"streamed-snapshot");
        assert_eq!(rec.records, vec![b"after".to_vec()]);
        assert_eq!((rec.commit_index, rec.record_seq), (3, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_across_commits_and_rotation() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, true).unwrap();
        for r in recs(3) {
            store.append(r);
        }
        assert_eq!(store.commit().unwrap(), 1);
        store.append(b"late".to_vec());
        assert_eq!(store.commit().unwrap(), 2);
        store.rotate(b"snapshot-at-2").unwrap();
        assert_eq!(store.generation(), 1);
        store.append(b"post-rotate".to_vec());
        assert_eq!(store.commit().unwrap(), 3);
        drop(store);

        let rec = DurableStore::recover(&dir).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.commit_index, 3);
        assert_eq!(rec.snapshot, b"snapshot-at-2");
        assert_eq!(rec.records, vec![b"post-rotate".to_vec()]);
        assert!(rec.tail.is_clean());
        assert!(!rec.used_fallback);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = temp();
        let store = DurableStore::create(&dir, false).unwrap();
        drop(store);
        assert!(DurableStore::create(&dir, false).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_commits_advance_the_index() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        store.commit().unwrap();
        store.commit().unwrap();
        store.commit().unwrap();
        drop(store);
        let rec = DurableStore::recover(&dir).unwrap();
        assert_eq!(rec.commit_index, 3);
        assert!(rec.records.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_commit() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        store.append(b"committed".to_vec());
        store.commit().unwrap();
        store.append(b"lost".to_vec());
        store.commit().unwrap();
        drop(store);
        // Chop a few bytes off the second batch.
        fault::inject(&wal_path(&dir, 0), &Corruption::TruncateTail { bytes: 3 }).unwrap();
        let rec = DurableStore::recover(&dir).unwrap();
        assert_eq!(rec.commit_index, 1);
        assert_eq!(rec.records, vec![b"committed".to_vec()]);
        assert!(!rec.tail.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_a_generation() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        store.append(b"one".to_vec());
        store.commit().unwrap();
        store.rotate(b"snap-1").unwrap();
        store.append(b"two".to_vec());
        store.commit().unwrap();
        drop(store);
        fault::inject(
            &snapshot_path(&dir, 1),
            &Corruption::FlipBit { offset: 20, bit: 2 },
        )
        .unwrap();
        let rec = DurableStore::recover(&dir).unwrap();
        assert!(rec.used_fallback);
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.commit_index, 2);
        // Fallback replays gen-0 WAL fully, then gen-1's prefix.
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_generation_zero_snapshot_substitutes_empty_state() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        store.append(b"only".to_vec());
        store.commit().unwrap();
        drop(store);
        fault::inject(
            &snapshot_path(&dir, 0),
            &Corruption::TruncateTail { bytes: 10 },
        )
        .unwrap();
        let rec = DurableStore::recover(&dir).unwrap();
        assert!(rec.used_fallback);
        assert_eq!(rec.commit_index, 1);
        assert_eq!(rec.records, vec![b"only".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicated_tail_does_not_double_apply() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        store.append(b"a".to_vec());
        store.commit().unwrap();
        store.append(b"b".to_vec());
        store.commit().unwrap();
        drop(store);
        let path = wal_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        // Duplicate the entire segment onto its own tail: every frame
        // re-appears with an already-seen sequence number.
        fault::inject(&path, &Corruption::DuplicateTail { bytes: len }).unwrap();
        let rec = DurableStore::recover(&dir).unwrap();
        assert_eq!(rec.commit_index, 2);
        assert_eq!(rec.records, vec![b"a".to_vec(), b"b".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_continues_commit_sequence() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        store.append(b"before-crash".to_vec());
        store.commit().unwrap();
        drop(store);
        let rec = DurableStore::recover(&dir).unwrap();
        let mut store = DurableStore::resume(&dir, &rec, b"resumed-state", false).unwrap();
        assert_eq!(store.generation(), rec.generation + 1);
        assert_eq!(store.commit_index(), 1);
        store.append(b"after-crash".to_vec());
        assert_eq!(store.commit().unwrap(), 2);
        drop(store);
        let rec2 = DurableStore::recover(&dir).unwrap();
        assert_eq!(rec2.snapshot, b"resumed-state");
        assert_eq!(rec2.records, vec![b"after-crash".to_vec()]);
        assert_eq!(rec2.commit_index, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_prunes_to_two_generations() {
        let dir = temp();
        let mut store = DurableStore::create(&dir, false).unwrap();
        for i in 0..4u64 {
            store.append(format!("r{i}").into_bytes());
            store.commit().unwrap();
            store.rotate(format!("snap-{i}").as_bytes()).unwrap();
        }
        assert_eq!(store.generation(), 4);
        drop(store);
        let gens = list_generations(&dir).unwrap();
        assert_eq!(gens, vec![3, 4]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
