//! Struct-of-arrays segments: one buffer per column, plus per-column
//! min/max zone maps computed when the segment seals.
//!
//! The active tail appends into plain `u64` (numeric) and `u32` (code)
//! buffers. Sealing re-encodes every column at its frame of reference:
//! the zone minimum as a base plus one lane of `value − min`, as narrow
//! as `max − min` allows — nothing at all for a constant column, else
//! `u8`, `u16`, `u32` or `u64`. Readers see values, never lanes, so the
//! canonical bytes and digests do not depend on the packing.

use crate::schema::{ColumnRef, NUM_COLUMNS, STR_COLUMNS};

/// A column's storage: row `i` holds `min + lane[i]`.
#[derive(Clone, Debug)]
enum Lane {
    /// Every row holds `min`.
    Const,
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

/// Expands `$body` once per lane width, with `$l` bound to the lane's
/// buffer; `$konst` for a constant column.
macro_rules! per_width {
    ($lane:expr, $l:ident => $body:expr, Const => $konst:expr) => {
        match $lane {
            Lane::Const => $konst,
            Lane::U8($l) => $body,
            Lane::U16($l) => $body,
            Lane::U32($l) => $body,
            Lane::U64($l) => $body,
        }
    };
}

/// A lane's element type.
trait Delta: Copy + Ord + Into<u64> {
    /// `d`, which the caller knows fits.
    fn narrow(d: u64) -> Self;

    /// `self` as a value of the lane's frame.
    fn widen(self) -> u64 {
        self.into()
    }
}

macro_rules! delta {
    ($($t:ty),*) => {$(
        impl Delta for $t {
            fn narrow(d: u64) -> Self {
                d as $t
            }
        }
    )*};
}
delta!(u8, u16, u32, u64);

/// One column. Sealed, `(min, max)` is its zone map; in the tail it is
/// `(0, type max)` over a `u64` or `u32` lane — the same reads, the same
/// scan kernel, a frame that never prunes.
#[derive(Clone, Debug)]
struct Column {
    min: u64,
    max: u64,
    lane: Lane,
}

impl Column {
    fn get(&self, row: usize) -> u64 {
        self.min + per_width!(&self.lane, l => l[row].widen(), Const => 0)
    }

    /// Calls `f` with each of the first `rows` values in row order.
    fn for_each(&self, rows: usize, mut f: impl FnMut(u64)) {
        per_width!(
            &self.lane,
            l => l.iter().for_each(|d| f(self.min + d.widen())),
            Const => (0..rows).for_each(|_| f(self.min))
        )
    }

    /// Clears in `sel` every row whose value lies outside `lo..=hi`, in
    /// one pass over the lane; false when no row can lie inside.
    fn select(&self, lo: u64, hi: u64, sel: &mut [bool]) -> bool {
        // Into lane space, clamped to what the lane holds.
        let span = self.max.saturating_sub(self.min);
        let Some(hi) = hi.checked_sub(self.min) else {
            return false;
        };
        let (lo, hi) = (lo.saturating_sub(self.min), hi.min(span));
        if lo > hi {
            return false;
        }
        if lo > 0 || hi < span {
            per_width!(&self.lane, l => keep_between(l, lo, hi, sel), Const => {});
        }
        true
    }
}

/// The scan kernel: `sel[i] &= lo ≤ lane[i] ≤ hi`, compared at the
/// lane's own width.
fn keep_between<T: Delta>(lane: &[T], lo: u64, hi: u64, sel: &mut [bool]) {
    let (lo, hi) = (T::narrow(lo), T::narrow(hi));
    for (s, d) in sel.iter_mut().zip(lane) {
        *s &= (lo <= *d) & (*d <= hi);
    }
}

/// Re-encodes the values `base + deltas[i]` at their own frame of
/// reference. No values give the inverted zone `(MAX, 0)`.
fn pack<T: Delta>(base: u64, deltas: &[T]) -> Column {
    fn lane<U: Delta>(values: impl Iterator<Item = u64>, min: u64) -> Vec<U> {
        values.map(|v| U::narrow(v - min)).collect()
    }
    let values = deltas.iter().map(|d| base + d.widen());
    let (min, max) = values
        .clone()
        .fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
    let lane = match max.saturating_sub(min) {
        0 => Lane::Const,
        s if s <= u8::MAX.into() => Lane::U8(lane(values, min)),
        s if s <= u16::MAX.into() => Lane::U16(lane(values, min)),
        s if s <= u32::MAX.into() => Lane::U32(lane(values, min)),
        _ => Lane::U64(lane(values, min)),
    };
    Column { min, max, lane }
}

/// One segment: every column the same length, row `i` spread across
/// the columns, numeric ones first. The active tail is a segment whose
/// zone maps are not yet valid; sealing freezes and packs the rows.
#[derive(Clone, Debug)]
pub struct Segment {
    rows: usize,
    cols: Vec<Column>,
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
        Segment::from_buffers(
            vec![Vec::new(); NUM_COLUMNS.len()],
            vec![Vec::new(); STR_COLUMNS.len()],
        )
    }

    /// An unsealed segment over whole column buffers, each `rows` long.
    pub(crate) fn from_buffers(num: Vec<Vec<u64>>, codes: Vec<Vec<u32>>) -> Self {
        let rows = num.first().map_or(0, Vec::len);
        let tail = |max: u64, lane| Column { min: 0, max, lane };
        let num = num.into_iter().map(|b| tail(u64::MAX, Lane::U64(b)));
        let codes = codes
            .into_iter()
            .map(|b| tail(u32::MAX.into(), Lane::U32(b)));
        Segment {
            rows,
            cols: num.chain(codes).collect(),
            sealed: false,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends one decomposed row to the tail, whose columns are still
    /// the `u64` and `u32` lanes `from_buffers` made.
    pub(crate) fn push(&mut self, nums: &[u64], strs: &[u32]) {
        debug_assert!(!self.sealed, "appending to a sealed segment");
        let (num, codes) = self.cols.split_at_mut(NUM_COLUMNS.len());
        for (col, v) in num.iter_mut().zip(nums) {
            if let Lane::U64(buf) = &mut col.lane {
                buf.push(*v);
            }
        }
        for (col, v) in codes.iter_mut().zip(strs) {
            if let Lane::U32(buf) = &mut col.lane {
                buf.push(*v);
            }
        }
        self.rows += 1;
    }

    /// Copies row `row` of `src` into this segment (compaction).
    pub(crate) fn push_row_from(&mut self, src: &Segment, row: usize) {
        let nums: [u64; NUM_COLUMNS.len()] = std::array::from_fn(|c| src.num_at(c, row));
        let strs: [u32; STR_COLUMNS.len()] = std::array::from_fn(|c| src.str_at(c, row));
        self.push(&nums, &strs);
    }

    /// Freezes the segment, computes its zone maps and packs every
    /// column at its zone minimum. The store only seals non-empty
    /// segments; an empty one gets the inverted zone `(MAX, 0)`, under
    /// which a scan prunes it or visits its zero rows — nothing matches
    /// either way.
    pub(crate) fn seal(&mut self) {
        for col in &mut self.cols {
            *col = per_width!(&col.lane, l => pack(col.min, l), Const => continue);
        }
        self.sealed = true;
    }

    fn column(&self, col: ColumnRef) -> &Column {
        match col {
            ColumnRef::Num(i) => &self.cols[i],
            ColumnRef::Str(i) => &self.cols[NUM_COLUMNS.len() + i],
        }
    }

    /// The zone map `(min, max)` of column `col` (sealed segments only).
    pub(crate) fn zone(&self, col: ColumnRef) -> (u64, u64) {
        let c = self.column(col);
        (c.min, c.max)
    }

    /// Clears in `sel` (one flag per row) every row whose value of
    /// column `col` lies outside `lo..=hi`; false when no row can match.
    pub(crate) fn select(&self, col: ColumnRef, lo: u64, hi: u64, sel: &mut [bool]) -> bool {
        self.column(col).select(lo, hi, sel)
    }

    /// Value of numeric column `col` at `row`.
    pub fn num_at(&self, col: usize, row: usize) -> u64 {
        self.cols[col].get(row)
    }

    /// Code of string column `col` at `row`.
    pub fn str_at(&self, col: usize, row: usize) -> u32 {
        // Codes are `u32`s, so every value of a code column fits.
        self.cols[NUM_COLUMNS.len() + col].get(row) as u32
    }

    /// Canonical byte encoding: row count, then each numeric column
    /// little-endian, then each code column. Zone maps, the packing and
    /// the sealed flag are derived state and stay out of the bytes —
    /// two segments holding the same rows encode identically.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        let (num, codes) = self.cols.split_at(NUM_COLUMNS.len());
        for col in num {
            col.for_each(self.rows, |v| out.extend_from_slice(&v.to_le_bytes()));
        }
        for col in codes {
            col.for_each(self.rows, |v| {
                out.extend_from_slice(&(v as u32).to_le_bytes());
            });
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
        assert_eq!(seg.zone(ColumnRef::Num(0)), (5, 9));
        assert_eq!(seg.zone(ColumnRef::Num(1)), (1, 4));
        assert_eq!(seg.zone(ColumnRef::Str(0)), (3, 7));
    }

    #[test]
    fn sealing_an_empty_segment_yields_zones_nothing_matches() {
        let mut seg = Segment::new();
        seg.seal();
        assert!(seg.sealed);
        for col in (0..NUM_COLUMNS.len()).map(ColumnRef::Num) {
            assert_eq!(seg.zone(col), (u64::MAX, 0));
        }
        for col in (0..STR_COLUMNS.len()).map(ColumnRef::Str) {
            assert_eq!(seg.zone(col), (u64::MAX, 0));
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

    /// Bytes a row of `col` takes once packed.
    fn lane_bytes(seg: &Segment, col: ColumnRef) -> usize {
        per_width!(&seg.column(col).lane, l => std::mem::size_of_val(&l[0]), Const => 0)
    }

    /// The values `base`, `base + span` and a few between in numeric
    /// columns 0 and 6, and in code column 0 when they fit a code; every
    /// other column holds a constant or a small counter.
    fn spanning(base: u64, span: u64) -> Vec<([u64; 9], [u32; 6])> {
        let points = [0, span, span / 2, span / 3, span.min(1), span - span.min(1)];
        points
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let v = base + d;
                let code = u32::try_from(base + span).map_or(3, |_| v as u32);
                (
                    [v, i as u64, 7, 0, 0, 0, v, 1, 0],
                    [code, 0, i as u32, 2, 2, 2],
                )
            })
            .collect()
    }

    #[test]
    fn packed_lanes_read_like_the_unpacked_rows_at_every_width() {
        let cases = [
            (7, 0, 0),
            (7, 255, 1),
            (7, 256, 2),
            (7, 65_535, 2),
            (7, 65_536, 4),
            (0, u32::MAX as u64, 4),
            (7, u32::MAX as u64 + 1, 8),
            (0, u64::MAX, 8),
            (u64::MAX - 300, 300, 2),
        ];
        for (base, span, width) in cases {
            let rows = spanning(base, span);
            let mut unpacked = Segment::new();
            for (nums, strs) in &rows {
                unpacked.push(nums, strs);
            }
            let mut packed = unpacked.clone();
            packed.seal();
            let case = format!("base {base} span {span}");
            assert_eq!(lane_bytes(&packed, ColumnRef::Num(0)), width, "{case}");
            assert_eq!(lane_bytes(&packed, ColumnRef::Num(6)), width, "{case}");
            assert_eq!(lane_bytes(&packed, ColumnRef::Num(2)), 0, "{case}");
            if u32::try_from(base + span).is_ok() {
                assert_eq!(lane_bytes(&packed, ColumnRef::Str(0)), width, "{case}");
            }
            for r in 0..rows.len() {
                for c in 0..NUM_COLUMNS.len() {
                    assert_eq!(packed.num_at(c, r), unpacked.num_at(c, r), "{case}");
                }
                for c in 0..STR_COLUMNS.len() {
                    assert_eq!(packed.str_at(c, r), unpacked.str_at(c, r), "{case}");
                }
            }
            assert_eq!(packed.digest(), unpacked.digest(), "{case}");
            // The zone maps are the unpacked rows' own min and max.
            let cols = (0..NUM_COLUMNS.len())
                .map(ColumnRef::Num)
                .chain((0..STR_COLUMNS.len()).map(ColumnRef::Str));
            for col in cols {
                let values: Vec<u64> = (0..rows.len())
                    .map(|r| match col {
                        ColumnRef::Num(c) => unpacked.num_at(c, r),
                        ColumnRef::Str(c) => unpacked.str_at(c, r).into(),
                    })
                    .collect();
                let zone = (values.iter().min().copied(), values.iter().max().copied());
                assert_eq!(zone, (Some(packed.zone(col).0), Some(packed.zone(col).1)));
                // Bounds inside, on and outside the frame select the
                // same rows from the lane as from the plain buffer.
                let (min, max) = packed.zone(col);
                let bounds = [
                    (0, u64::MAX),
                    (min, min),
                    (max, max),
                    (min.saturating_add(1), u64::MAX),
                    (0, max.saturating_sub(1)),
                    (max.saturating_add(1), u64::MAX),
                    (0, min.saturating_sub(1)),
                    (min / 2 + max / 2, max),
                    (1, 0),
                ];
                let selected = |seg: &Segment, lo, hi| {
                    let mut sel = vec![true; rows.len()];
                    let any = seg.select(col, lo, hi, &mut sel);
                    sel.iter().map(|s| *s && any).collect::<Vec<bool>>()
                };
                for (lo, hi) in bounds {
                    let naive: Vec<bool> = values.iter().map(|v| lo <= *v && *v <= hi).collect();
                    let why = format!("{case} {col:?} {lo}..={hi}");
                    assert_eq!(selected(&packed, lo, hi), naive, "{why}");
                    assert_eq!(selected(&unpacked, lo, hi), naive, "{why}");
                }
            }
        }
    }
}
