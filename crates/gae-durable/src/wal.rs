//! WAL segment frame format and the recovery-side scanner.
//!
//! A segment is a flat file of frames:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [kind: u8] [payload: len-1 bytes]
//! ```
//!
//! `len` counts the kind byte plus the payload; `crc` is the CRC-32 of
//! exactly those `len` bytes. Two frame kinds exist:
//!
//! * `kind = 0` — **data**: payload is `[seq: u64 LE][record bytes]`.
//!   `seq` is a store-wide monotone record number used to deduplicate
//!   replay when corruption duplicates whole frames.
//! * `kind = 1` — **commit marker**: payload is `[index: u64 LE]`, the
//!   absolute commit index. Replay applies data frames only up to the
//!   last valid marker; everything after it is uncommitted and
//!   discarded.
//!
//! The scanner never fails on a malformed tail: it reports where and
//! why the segment stopped being parseable and returns the longest
//! committed prefix.

use crate::crc32::Crc32;
use gae_types::{GaeError, GaeResult};
use std::io::{self, Read};

/// Data frame: `[seq u64][record]` payload.
pub const KIND_DATA: u8 = 0;
/// Commit marker frame: `[commit index u64]` payload.
pub const KIND_COMMIT: u8 = 1;

/// Upper bound on a sane frame length; a larger declared length is
/// treated as tail corruption rather than attempted as an allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Fixed bytes in front of every frame payload (len + crc + kind).
pub const FRAME_HEADER_BYTES: usize = 9;

/// How a segment scan ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailState {
    /// Every byte of the segment parsed as valid frames.
    Clean,
    /// Parsing stopped early; bytes from `offset` on are discarded.
    Torn {
        /// Byte offset of the first unparseable frame.
        offset: u64,
        /// Human-readable reason (truncation, bad checksum, ...).
        reason: String,
    },
}

impl TailState {
    /// True when the segment had no torn tail.
    pub fn is_clean(&self) -> bool {
        matches!(self, TailState::Clean)
    }
}

/// How one WAL segment's scan ended (its records went to the sink).
#[derive(Debug, PartialEq, Eq)]
pub struct SegmentEnd {
    /// Absolute index of the last valid commit marker, if any.
    pub last_commit_index: Option<u64>,
    /// Valid data frames found *after* the last marker (uncommitted).
    pub uncommitted: usize,
    /// Most data frames held at once while waiting for their marker.
    pub max_batch_records: usize,
    /// Whether and where the segment tail was unparseable.
    pub tail: TailState,
}

/// Little-endian `u32` at `bytes[at..at + 4]`, if in range.
pub(crate) fn le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let field = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes([field[0], field[1], field[2], field[3]]))
}

/// Little-endian `u64` at `bytes[at..at + 8]`, if in range.
pub(crate) fn le_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let lo = le_u32(bytes, at)?;
    let hi = le_u32(bytes, at.checked_add(4)?)?;
    Some(u64::from(hi) << 32 | u64::from(lo))
}

/// Bytes one frame takes on disk: header, the `u64` both kinds open
/// their payload with, and `rest_len` more (a data frame's record).
pub(crate) const fn frame_bytes(rest_len: usize) -> usize {
    FRAME_HEADER_BYTES + 8 + rest_len
}

/// Encodes one frame, checksumming its parts where they lie rather
/// than a concatenated copy.
fn encode_frame(kind: u8, word: u64, rest: &[u8], out: &mut Vec<u8>) {
    let word = word.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&word);
    crc.update(rest);
    out.extend_from_slice(&((1 + word.len() + rest.len()) as u32).to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&word);
    out.extend_from_slice(rest);
}

/// Encodes a data frame carrying `(seq, record)`.
pub fn encode_data_frame(seq: u64, record: &[u8], out: &mut Vec<u8>) {
    encode_frame(KIND_DATA, seq, record, out);
}

/// Encodes a commit-marker frame for `index`.
pub fn encode_commit_frame(index: u64, out: &mut Vec<u8>) {
    encode_frame(KIND_COMMIT, index, &[], out);
}

/// `read_exact`, with a source that ends early reported as `false`
/// (a torn tail) rather than as an error.
fn read_whole(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

/// Scans a WAL segment of `len` bytes frame by frame, tolerating any
/// malformed tail. Data frames wait in one buffer until their commit
/// marker checks out; the buffer — one committed batch of
/// `(seq, record)`, append order, duplicates included (the store
/// deduplicates by `seq` across segments) — then goes to `on_batch`,
/// which drains it. At most one batch is ever held: everything after
/// the last valid marker is uncommitted and dropped at the end.
///
/// `len` bounds every allocation: a frame that declares more bytes
/// than the segment has left is a torn tail, not a read.
pub fn scan_frames(
    mut reader: impl Read,
    len: u64,
    mut on_batch: impl FnMut(&mut Vec<(u64, Vec<u8>)>) -> GaeResult<()>,
) -> GaeResult<SegmentEnd> {
    let mut end = SegmentEnd {
        last_commit_index: None,
        uncommitted: 0,
        max_batch_records: 0,
        tail: TailState::Clean,
    };
    let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut pos = 0u64;
    let io_err = |e: io::Error| GaeError::Io(format!("scan wal segment: {e}"));
    let reason = loop {
        if pos >= len {
            break None; // clean end
        }
        let mut header = [0u8; FRAME_HEADER_BYTES];
        if len - pos < FRAME_HEADER_BYTES as u64
            || !read_whole(&mut reader, &mut header).map_err(io_err)?
        {
            break Some("truncated frame header");
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3, kind] = header;
        let frame_len = u32::from_le_bytes([l0, l1, l2, l3]);
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if frame_len == 0 || frame_len > MAX_FRAME_BYTES {
            break Some("implausible frame length");
        }
        let payload_len = frame_len as usize - 1;
        if payload_len as u64 > len - pos - FRAME_HEADER_BYTES as u64 {
            break Some("truncated frame body");
        }
        // The payload opens with a u64 in both kinds; the rest (a data
        // frame's record) is read straight into the buffer it is
        // delivered in.
        let mut word = [0u8; 8];
        let word_len = payload_len.min(word.len());
        let mut rest = vec![0u8; payload_len - word_len];
        if !read_whole(&mut reader, &mut word[..word_len]).map_err(io_err)?
            || !read_whole(&mut reader, &mut rest).map_err(io_err)?
        {
            break Some("truncated frame body");
        }
        let mut check = Crc32::new();
        check.update(&[kind]);
        check.update(&word[..word_len]);
        check.update(&rest);
        if check.finish() != crc {
            break Some("checksum mismatch");
        }
        match kind {
            KIND_DATA => {
                if word_len < word.len() {
                    break Some("data frame shorter than its sequence number");
                }
                pending.push((u64::from_le_bytes(word), rest));
                end.max_batch_records = end.max_batch_records.max(pending.len());
            }
            KIND_COMMIT => {
                if payload_len != word.len() {
                    break Some("malformed commit marker");
                }
                on_batch(&mut pending)?;
                pending.clear();
                end.last_commit_index = Some(u64::from_le_bytes(word));
            }
            _ => break Some("unknown frame kind"),
        }
        pos += 8 + u64::from(frame_len);
    };
    if let Some(reason) = reason {
        end.tail = TailState::Torn {
            offset: pos,
            reason: reason.to_string(),
        };
    }
    end.uncommitted = pending.len();
    Ok(end)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::{corrupt_bytes, Corruption};

    /// What the whole-buffer scanner returned (the parent's form).
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) struct SegmentScan {
        pub committed: Vec<(u64, Vec<u8>)>,
        pub last_commit_index: Option<u64>,
        pub uncommitted: usize,
        pub tail: TailState,
    }

    /// The scanner this crate shipped before [`scan_frames`]: the
    /// whole segment in one slice, every committed record collected.
    /// Kept as the oracle the streamed scan is compared against.
    pub(crate) fn scan_bytes(data: &[u8]) -> SegmentScan {
        let mut scan = SegmentScan {
            committed: Vec::new(),
            last_commit_index: None,
            uncommitted: 0,
            tail: TailState::Clean,
        };
        let mut pending: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut pos = 0usize;
        let torn = |pos: usize, reason: &str| TailState::Torn {
            offset: pos as u64,
            reason: reason.to_string(),
        };
        loop {
            if pos == data.len() {
                break; // clean end
            }
            if data.len() - pos < FRAME_HEADER_BYTES {
                scan.tail = torn(pos, "truncated frame header");
                break;
            }
            let len = le_u32(data, pos).expect("header in range");
            let crc = le_u32(data, pos + 4).expect("header in range");
            if len == 0 || len > MAX_FRAME_BYTES {
                scan.tail = torn(pos, "implausible frame length");
                break;
            }
            let body_start = pos + 8;
            let body_end = body_start + len as usize;
            if body_end > data.len() {
                scan.tail = torn(pos, "truncated frame body");
                break;
            }
            let body = &data[body_start..body_end];
            if crate::crc32::crc32(body) != crc {
                scan.tail = torn(pos, "checksum mismatch");
                break;
            }
            let kind = body[0];
            let payload = &body[1..];
            match kind {
                KIND_DATA => {
                    let Some(seq) = le_u64(payload, 0) else {
                        scan.tail = torn(pos, "data frame shorter than its sequence number");
                        break;
                    };
                    pending.push((seq, payload[8..].to_vec()));
                }
                KIND_COMMIT => {
                    if payload.len() != 8 {
                        scan.tail = torn(pos, "malformed commit marker");
                        break;
                    }
                    let index = le_u64(payload, 0).expect("eight bytes");
                    scan.committed.append(&mut pending);
                    scan.last_commit_index = Some(index);
                }
                _ => {
                    scan.tail = torn(pos, "unknown frame kind");
                    break;
                }
            }
            pos = body_end;
        }
        scan.uncommitted = pending.len();
        scan
    }

    /// [`scan_frames`] over a slice, collected into the oracle's form;
    /// also returns the largest batch the sink was handed.
    fn streamed(data: &[u8]) -> (SegmentScan, SegmentEnd, usize) {
        let mut committed = Vec::new();
        let mut largest = 0;
        let end = scan_frames(data, data.len() as u64, |batch| {
            largest = largest.max(batch.len());
            committed.append(batch);
            Ok(())
        })
        .expect("a slice cannot fail to read");
        let scan = SegmentScan {
            committed,
            last_commit_index: end.last_commit_index,
            uncommitted: end.uncommitted,
            tail: end.tail.clone(),
        };
        (scan, end, largest)
    }

    /// Both scanners over `data`, asserted equal; returns the scan.
    fn scan(data: &[u8]) -> SegmentScan {
        let (scan, _, _) = streamed(data);
        assert_eq!(scan, scan_bytes(data));
        scan
    }

    /// The frame encoder both typed encoders used to go through: the
    /// payload concatenated first, then checksummed in one piece.
    fn encode_whole_payload(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
        let len = 1 + payload.len() as u32;
        let mut crc = Crc32::new();
        crc.update(&[kind]);
        crc.update(payload);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out.push(kind);
        out.extend_from_slice(payload);
    }

    fn segment(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, payload) in frames {
            encode_whole_payload(*kind, payload, &mut out);
        }
        out
    }

    fn data_payload(seq: u64, record: &[u8]) -> Vec<u8> {
        let mut p = seq.to_le_bytes().to_vec();
        p.extend_from_slice(record);
        p
    }

    #[test]
    fn frame_bytes_are_pinned() {
        let mut data = Vec::new();
        encode_data_frame(0x0102_0304_0506_0708, b"rec", &mut data);
        assert_eq!(
            data,
            [
                12, 0, 0, 0, // len = kind + seq + 3
                0x3B, 0x3A, 0xD3, 0x33, // crc (zlib's, of kind ‖ seq ‖ record)
                KIND_DATA, 8, 7, 6, 5, 4, 3, 2, 1, b'r', b'e', b'c',
            ]
        );
        assert_eq!(data.len(), frame_bytes(3));
        let mut commit = Vec::new();
        encode_commit_frame(5, &mut commit);
        assert_eq!(commit.len(), frame_bytes(0));
        assert_eq!(
            commit,
            [
                9,
                0,
                0,
                0,
                0x89,
                0x0E,
                0x92,
                0xB9,
                KIND_COMMIT,
                5,
                0,
                0,
                0,
                0,
                0,
                0,
                0
            ]
        );
        // And against the concatenate-then-checksum encoder, for
        // records of every small length.
        for n in 0..40usize {
            let record: Vec<u8> = (0..n).map(|i| (i * 7 + n) as u8).collect();
            let (mut typed, mut generic) = (Vec::new(), Vec::new());
            encode_data_frame(n as u64 + 1, &record, &mut typed);
            encode_commit_frame(n as u64, &mut typed);
            encode_whole_payload(
                KIND_DATA,
                &data_payload(n as u64 + 1, &record),
                &mut generic,
            );
            encode_whole_payload(KIND_COMMIT, &(n as u64).to_le_bytes(), &mut generic);
            assert_eq!(typed, generic, "record of {n} bytes");
        }
    }

    #[test]
    fn roundtrip_committed_prefix() {
        let bytes = segment(&[
            (KIND_DATA, data_payload(1, b"a")),
            (KIND_DATA, data_payload(2, b"b")),
            (KIND_COMMIT, 1u64.to_le_bytes().to_vec()),
            (KIND_DATA, data_payload(3, b"c")),
        ]);
        let scan = scan(&bytes);
        assert_eq!(scan.committed.len(), 2);
        assert_eq!(scan.committed[1], (2, b"b".to_vec()));
        assert_eq!(scan.last_commit_index, Some(1));
        assert_eq!(scan.uncommitted, 1);
        assert!(scan.tail.is_clean());
    }

    #[test]
    fn truncation_at_every_offset_never_loses_committed_prefix() {
        let bytes = segment(&[
            (KIND_DATA, data_payload(1, b"alpha")),
            (KIND_COMMIT, 1u64.to_le_bytes().to_vec()),
            (KIND_DATA, data_payload(2, b"beta")),
            (KIND_COMMIT, 2u64.to_le_bytes().to_vec()),
        ]);
        // Frame boundaries: cuts exactly there leave a clean segment.
        let mut boundaries = vec![0usize];
        {
            let mut acc = Vec::new();
            encode_data_frame(1, b"alpha", &mut acc);
            boundaries.push(acc.len());
            encode_commit_frame(1, &mut acc);
            boundaries.push(acc.len());
            encode_data_frame(2, b"beta", &mut acc);
            boundaries.push(acc.len());
            encode_commit_frame(2, &mut acc);
            boundaries.push(acc.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan(&bytes[..cut]);
            let expected = if cut >= boundaries[4] {
                2
            } else if cut >= boundaries[2] {
                1
            } else {
                0
            };
            assert_eq!(scan.committed.len(), expected, "cut at {cut}");
            assert_eq!(
                scan.last_commit_index,
                if expected == 0 {
                    None
                } else {
                    Some(expected as u64)
                },
                "cut at {cut}"
            );
            // Mid-frame cuts must be reported as torn.
            assert_eq!(
                scan.tail.is_clean(),
                boundaries.contains(&cut),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bit_flip_anywhere_is_detected_or_isolated() {
        let mut bytes = segment(&[
            (KIND_DATA, data_payload(1, b"payload-one")),
            (KIND_COMMIT, 1u64.to_le_bytes().to_vec()),
        ]);
        let clean = scan(&bytes);
        assert_eq!(clean.committed.len(), 1);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                let scan = scan(&bytes);
                // A flip may truncate the usable prefix but must never
                // yield a record that differs from the original.
                for (seq, rec) in &scan.committed {
                    assert_eq!((*seq, rec.as_slice()), (1, b"payload-one".as_slice()));
                }
                bytes[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn oversized_declared_length_is_torn_tail() {
        let mut bytes = Vec::new();
        encode_data_frame(1, b"ok", &mut bytes);
        encode_commit_frame(1, &mut bytes);
        let torn_at = bytes.len();
        bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        let scan = scan(&bytes);
        assert_eq!(scan.last_commit_index, Some(1));
        assert_eq!(
            scan.tail,
            TailState::Torn {
                offset: torn_at as u64,
                reason: "implausible frame length".into()
            }
        );
    }

    /// A segment with every frame shape the scanner distinguishes:
    /// batches of 3, 0, 1 and 5 records (one of them empty), a short
    /// data frame, and an uncommitted tail.
    fn mixed_segment() -> Vec<u8> {
        let mut out = Vec::new();
        let mut seq = 0u64;
        for (index, batch) in [3usize, 0, 1, 5].into_iter().enumerate() {
            for i in 0..batch {
                seq += 1;
                let record: Vec<u8> = (0..(i * 11) % 23).map(|b| (b + i) as u8).collect();
                encode_data_frame(seq, &record, &mut out);
            }
            encode_commit_frame(index as u64 + 1, &mut out);
        }
        encode_data_frame(seq + 1, b"uncommitted", &mut out);
        out
    }

    /// Streamed scan ≡ whole-buffer scan — committed records, commit
    /// index, uncommitted count, and the torn offset *and reason* —
    /// under truncation at every offset, a flip of every bit, and a
    /// duplicated tail of every length.
    #[test]
    fn streamed_scan_matches_whole_buffer_scan_under_every_corruption() {
        let clean = mixed_segment();
        let (_, end, largest) = streamed(&clean);
        assert_eq!(end.max_batch_records, 5);
        assert_eq!(largest, 5);
        assert_eq!(end.uncommitted, 1);
        for n in 1..=clean.len() as u64 {
            for corruption in [
                Corruption::TruncateTail { bytes: n },
                Corruption::DuplicateTail { bytes: n },
            ] {
                let mut bytes = clean.clone();
                corrupt_bytes(&mut bytes, &corruption);
                scan(&bytes);
            }
            for bit in 0..8 {
                let mut bytes = clean.clone();
                corrupt_bytes(&mut bytes, &Corruption::FlipBit { offset: n - 1, bit });
                scan(&bytes);
            }
        }
        // Short data frame and unknown kind, with a valid checksum.
        for (kind, payload) in [(KIND_DATA, &b"short"[..]), (7, &b"12345678"[..])] {
            let mut bytes = clean.clone();
            encode_whole_payload(kind, payload, &mut bytes);
            let scan = scan(&bytes);
            assert!(!scan.tail.is_clean());
        }
    }

    /// A segment that is shorter than `len` says (the file shrank
    /// under the scan) is a torn tail, never an error or a hang.
    #[test]
    fn source_shorter_than_declared_is_torn() {
        let clean = mixed_segment();
        let end = scan_frames(&clean[..clean.len() - 4], clean.len() as u64, |b| {
            b.clear();
            Ok(())
        })
        .unwrap();
        assert_eq!(end.last_commit_index, Some(4));
        assert!(!end.tail.is_clean());
    }

    /// A sink error stops the scan and surfaces unchanged.
    #[test]
    fn sink_error_aborts_the_scan() {
        let clean = mixed_segment();
        let mut calls = 0;
        let err = scan_frames(&clean[..], clean.len() as u64, |_| {
            calls += 1;
            Err(GaeError::Parse("sink refused".into()))
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err, GaeError::Parse("sink refused".into()));
    }
}
