//! Struct-of-arrays segments: one typed buffer per column, plus
//! per-column min/max zone maps computed when the segment seals.

use crate::schema::{NUM_COLUMNS, STR_COLUMNS};

/// One segment: every column the same length, row `i` spread across
/// the buffers. The active tail is a segment whose zone maps are not
/// yet valid; sealing freezes the rows and computes them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    num: Vec<Vec<u64>>,
    strs: Vec<Vec<u32>>,
    /// `(min, max)` per numeric column; valid only once sealed.
    zones_num: Vec<(u64, u64)>,
    /// `(min, max)` per string column's codes; valid only once sealed.
    zones_str: Vec<(u32, u32)>,
    sealed: bool,
}

impl Default for Segment {
    fn default() -> Self {
        Segment::new()
    }
}

impl Segment {
    /// An empty, unsealed segment.
    pub fn new() -> Self {
        Segment {
            num: vec![Vec::new(); NUM_COLUMNS.len()],
            strs: vec![Vec::new(); STR_COLUMNS.len()],
            zones_num: Vec::new(),
            zones_str: Vec::new(),
            sealed: false,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.num[0].len()
    }

    /// Appends one decomposed row.
    pub(crate) fn push(&mut self, nums: &[u64], strs: &[u32]) {
        debug_assert!(!self.sealed, "appending to a sealed segment");
        for (buf, v) in self.num.iter_mut().zip(nums) {
            buf.push(*v);
        }
        for (buf, v) in self.strs.iter_mut().zip(strs) {
            buf.push(*v);
        }
    }

    /// Copies row `row` of `src` into this segment (compaction).
    pub(crate) fn push_row_from(&mut self, src: &Segment, row: usize) {
        for (buf, col) in self.num.iter_mut().zip(&src.num) {
            buf.push(col[row]);
        }
        for (buf, col) in self.strs.iter_mut().zip(&src.strs) {
            buf.push(col[row]);
        }
    }

    /// Freezes the segment and computes its zone maps. The store only
    /// seals non-empty segments; an empty one gets the inverted zone
    /// `(MAX, 0)`, under which a scan prunes it or visits its zero
    /// rows — nothing matches either way.
    pub(crate) fn seal(&mut self) {
        fn zone<T: Copy + Ord>(col: &[T], lowest: T, highest: T) -> (T, T) {
            col.iter().fold((highest, lowest), |(min, max), v| {
                (min.min(*v), max.max(*v))
            })
        }
        self.zones_num = self.num.iter().map(|c| zone(c, 0, u64::MAX)).collect();
        self.zones_str = self.strs.iter().map(|c| zone(c, 0, u32::MAX)).collect();
        self.sealed = true;
    }

    /// The zone map of numeric column `col` (sealed segments only).
    pub fn zone_num(&self, col: usize) -> (u64, u64) {
        self.zones_num[col]
    }

    /// The zone map of string column `col`'s codes.
    pub fn zone_str(&self, col: usize) -> (u32, u32) {
        self.zones_str[col]
    }

    /// Value of numeric column `col` at `row`.
    pub fn num_at(&self, col: usize, row: usize) -> u64 {
        self.num[col][row]
    }

    /// Code of string column `col` at `row`.
    pub fn str_at(&self, col: usize, row: usize) -> u32 {
        self.strs[col][row]
    }

    /// Canonical byte encoding: row count, then each numeric buffer
    /// little-endian, then each code buffer. Zone maps and the sealed
    /// flag are derived state and stay out of the bytes — two
    /// segments holding the same rows encode identically.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rows() as u32).to_le_bytes());
        for col in &self.num {
            for v in col {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        for col in &self.strs {
            for v in col {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// The CRC-32 of the canonical encoding, as 8 hex digits — the
    /// unit the crash/failover identity checks compare.
    pub fn digest(&self) -> String {
        let mut bytes =
            Vec::with_capacity(self.rows() * (NUM_COLUMNS.len() * 8 + STR_COLUMNS.len() * 4) + 4);
        self.encode_into(&mut bytes);
        format!("{:08x}", gae_durable::crc32::crc32(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(seg: &mut Segment, task: u64, site: u64, code: u32) {
        let nums = [task, site, 1, 0, 0, 0, 10, 1, 0];
        let strs = [code; STR_COLUMNS.len()];
        seg.push(&nums, &strs);
    }

    #[test]
    fn sealing_computes_zone_maps() {
        let mut seg = Segment::new();
        row(&mut seg, 5, 2, 3);
        row(&mut seg, 9, 1, 7);
        row(&mut seg, 7, 4, 5);
        assert!(!seg.sealed);
        seg.seal();
        assert!(seg.sealed);
        assert_eq!(seg.zone_num(0), (5, 9));
        assert_eq!(seg.zone_num(1), (1, 4));
        assert_eq!(seg.zone_str(0), (3, 7));
    }

    #[test]
    fn sealing_an_empty_segment_yields_zones_nothing_matches() {
        let mut seg = Segment::new();
        seg.seal();
        assert!(seg.sealed);
        for col in 0..NUM_COLUMNS.len() {
            assert_eq!(seg.zone_num(col), (u64::MAX, 0));
        }
        for col in 0..STR_COLUMNS.len() {
            assert_eq!(seg.zone_str(col), (u32::MAX, 0));
        }
    }

    #[test]
    fn digest_ignores_seal_state() {
        let mut a = Segment::new();
        let mut b = Segment::new();
        row(&mut a, 1, 1, 1);
        row(&mut b, 1, 1, 1);
        b.seal();
        assert_eq!(a.digest(), b.digest());
        row(&mut a, 2, 1, 1);
        assert_ne!(a.digest(), b.digest());
    }
}
