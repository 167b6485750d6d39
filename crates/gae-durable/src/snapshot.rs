//! Compacting snapshot files.
//!
//! A snapshot captures the full service state at one commit point so
//! earlier WAL segments can be pruned. Format:
//!
//! ```text
//! [magic: 8 bytes "GAESNAP1"]
//! [commit_index: u64 LE]  — commit point the payload reflects
//! [record_seq: u64 LE]    — data-record sequence counter at that point
//! [len: u64 LE]           — payload length
//! [crc: u32 LE]           — CRC-32 of commit_index‖record_seq‖len‖payload
//! [payload]
//! ```
//!
//! The checksum covers the header fields too: a bit flip in the
//! commit-index field must invalidate the snapshot (forcing fallback
//! to the previous generation), not silently shift the recovered
//! commit point.
//!
//! Snapshots are written to a temp file in the same directory, fsynced,
//! then atomically renamed into place, so a crash mid-write leaves the
//! previous generation intact. Trailing junk after the payload is
//! ignored (a duplicated tail cannot invalidate a snapshot).
//!
//! The payload is *streamed*: [`SnapshotWriter`] is an [`io::Write`]
//! sink that checksums what passes through it, so the encoder's output
//! is never held. The header is written last, over a placeholder —
//! the commit point and the length are only final then.

use crate::crc32::{self, Crc32};
use crate::wal::{le_u32, le_u64};
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const MAGIC: &[u8; 8] = b"GAESNAP1";
const HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 4;

/// A decoded snapshot header + payload. The default is generation
/// 0's: the empty state at commit 0.
#[derive(Debug, Default)]
pub struct Snapshot {
    /// Commit point the payload reflects.
    pub commit_index: u64,
    /// Data-record sequence counter at that point.
    pub record_seq: u64,
    /// Opaque service-state payload (empty = empty state).
    pub payload: Vec<u8>,
}

/// A snapshot file being written: payload bytes go in through
/// [`io::Write`], [`SnapshotWriter::finish`] stamps the header and
/// renames the file into place. Dropped unfinished, it leaves only a
/// `.tmp` file the next writer truncates.
#[derive(Debug)]
pub struct SnapshotWriter {
    path: PathBuf,
    tmp: PathBuf,
    file: BufWriter<File>,
    payload_crc: Crc32,
    payload_len: u64,
}

impl SnapshotWriter {
    /// Starts the snapshot that will become `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let tmp = path.with_extension("tmp");
        let mut file = BufWriter::new(File::create(&tmp)?);
        file.write_all(&[0u8; HEADER_BYTES])?;
        Ok(SnapshotWriter {
            path: path.to_path_buf(),
            tmp,
            file,
            payload_crc: Crc32::new(),
            payload_len: 0,
        })
    }

    /// The file [`SnapshotWriter::finish`] will rename into place.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stamps the header for the commit point the payload reflects,
    /// makes the file durable (when `fsync`) and renames it into place.
    pub fn finish(self, commit_index: u64, record_seq: u64, fsync: bool) -> io::Result<()> {
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&commit_index.to_le_bytes());
        header.extend_from_slice(&record_seq.to_le_bytes());
        header.extend_from_slice(&self.payload_len.to_le_bytes());
        let crc = crc32::combine(
            crc32::crc32(&header[8..]),
            self.payload_crc.finish(),
            self.payload_len,
        );
        header.extend_from_slice(&crc.to_le_bytes());
        let mut file = self
            .file
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        if fsync {
            file.sync_all()?;
        }
        drop(file);
        fs::rename(&self.tmp, &self.path)?;
        if fsync {
            // Persist the rename itself.
            let dir = self.path.parent().unwrap_or(Path::new("."));
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

impl Write for SnapshotWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.payload_crc.update(&buf[..n]);
        self.payload_len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Reads and validates a snapshot. Returns `Ok(None)` when the file is
/// missing, truncated, or fails its checksum — the caller falls back to
/// the previous generation. Only unexpected I/O errors propagate.
pub fn read_snapshot(path: &Path) -> io::Result<Option<Snapshot>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut data = Vec::new();
    f.read_to_end(&mut data)?;
    Ok(decode(data))
}

/// Validates `data` as a snapshot file and strips it down to the
/// payload in place — the file is held once, however large.
fn decode(mut data: Vec<u8>) -> Option<Snapshot> {
    if data.get(..8)? != MAGIC {
        return None;
    }
    let commit_index = le_u64(&data, 8)?;
    let record_seq = le_u64(&data, 16)?;
    let len = le_u64(&data, 24)?;
    let crc = le_u32(&data, 32)?;
    let end = HEADER_BYTES.checked_add(usize::try_from(len).ok()?)?;
    // Trailing bytes beyond `end` are tolerated (duplicated tails).
    let payload = data.get(HEADER_BYTES..end)?;
    let mut check = Crc32::new();
    check.update(data.get(8..32)?);
    check.update(payload);
    if check.finish() != crc {
        return None;
    }
    data.truncate(end);
    data.drain(..HEADER_BYTES);
    Some(Snapshot {
        commit_index,
        record_seq,
        payload: data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::unique_temp_dir;

    fn write_snapshot(
        path: &Path,
        commit_index: u64,
        record_seq: u64,
        payload: &[u8],
        fsync: bool,
    ) -> io::Result<()> {
        let mut w = SnapshotWriter::create(path)?;
        w.write_all(payload)?;
        w.finish(commit_index, record_seq, fsync)
    }

    /// The file the one-shot writer produced: header and checksum
    /// computed over the payload in hand.
    fn whole_file(commit_index: u64, record_seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&commit_index.to_le_bytes());
        out.extend_from_slice(&record_seq.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&out[8..]);
        crc.update(payload);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn streamed_file_is_byte_identical_to_the_one_shot_file() {
        let dir = unique_temp_dir("snap-stream");
        let path = dir.join("snapshot.000003");
        // Larger than the writer's buffer, fed in uneven pieces.
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 13 + 5) as u8).collect();
        let mut w = SnapshotWriter::create(&path).unwrap();
        assert_eq!(w.path(), path);
        for piece in payload.chunks(7_001) {
            w.write_all(piece).unwrap();
        }
        assert!(!path.exists(), "nothing is in place before finish");
        w.finish(11, 99, true).unwrap();
        assert_eq!(fs::read(&path).unwrap(), whole_file(11, 99, &payload));
        assert!(!path.with_extension("tmp").exists());
        let snap = read_snapshot(&path).unwrap().expect("valid snapshot");
        assert_eq!((snap.commit_index, snap.record_seq), (11, 99));
        assert_eq!(snap.payload, payload);
        // Empty payload: the header alone.
        write_snapshot(&path, 0, 0, b"", false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), whole_file(0, 0, b""));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip() {
        let dir = unique_temp_dir("snap-roundtrip");
        let path = dir.join("snapshot.000001");
        write_snapshot(&path, 7, 42, b"state-bytes", true).unwrap();
        let snap = read_snapshot(&path).unwrap().expect("valid snapshot");
        assert_eq!(snap.commit_index, 7);
        assert_eq!(snap.record_seq, 42);
        assert_eq!(snap.payload, b"state-bytes");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_payload_is_valid() {
        let dir = unique_temp_dir("snap-empty");
        let path = dir.join("snapshot.000000");
        write_snapshot(&path, 0, 0, b"", false).unwrap();
        let snap = read_snapshot(&path).unwrap().expect("valid snapshot");
        assert_eq!(snap.commit_index, 0);
        assert!(snap.payload.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_rejected_not_propagated() {
        let dir = unique_temp_dir("snap-corrupt");
        let path = dir.join("snapshot.000002");
        write_snapshot(&path, 3, 9, b"payload-under-test", false).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            bytes[i] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
            // The checksum covers header and payload alike: any flip
            // invalidates the whole snapshot.
            assert!(read_snapshot(&path).unwrap().is_none(), "flip at {i}");
            bytes[i] ^= 0x10;
        }
        // Truncation at every length.
        fs::write(&path, &bytes).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(read_snapshot(&path).unwrap().is_none(), "cut at {cut}");
        }
        // Trailing junk is fine.
        let mut dup = bytes.clone();
        dup.extend_from_slice(&bytes[bytes.len() - 8..]);
        fs::write(&path, &dup).unwrap();
        assert!(read_snapshot(&path).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_none() {
        assert!(read_snapshot(Path::new("/nonexistent/gae-snap"))
            .unwrap()
            .is_none());
    }
}
