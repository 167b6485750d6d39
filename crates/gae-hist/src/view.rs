//! Runtime views: per `(site, equality-column set, column values)`
//! the exact [`Moments`] of the successful rows, maintained row by row
//! so the §6.1 estimate is a hash probe instead of a scan.
//!
//! A view is *derived state*, like zone maps and the `site_seq`
//! counters: a pure function of the rows, never encoded, digested,
//! journaled or snapshotted. The first query that names a column set
//! builds its view in one pass over the store; every later `Append`
//! updates one key per existing view. `Seal` and `Compact` move rows
//! without changing them, so they leave views alone; `restore` drops
//! them and the next query rebuilds.

use crate::dict::Dictionary;
use crate::moments::Moments;
use crate::predicate::{CmpOp, ColumnPredicate, PredValue};
use crate::schema::{num, resolve_column, ColumnRef, NUM_COLUMNS, STR_COLUMNS};
use crate::segment::Segment;
use gae_types::{GaeError, GaeResult};
use std::collections::HashMap;

/// Bit of the `nodes` column in a column-set mask; bits
/// `0..STR_COLUMNS.len()` are the dictionary columns in buffer order.
const NODES_BIT: u8 = 1 << STR_COLUMNS.len();

/// One group of one view. Columns outside the view's set read 0, so
/// a key is 40 bytes whatever the set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct GroupKey {
    site: u64,
    nodes: u64,
    codes: [u32; STR_COLUMNS.len()],
}

impl GroupKey {
    fn masked(cols: u8, site: u64, nodes: u64, codes: &[u32; STR_COLUMNS.len()]) -> Self {
        let mut key = GroupKey {
            site,
            nodes: if cols & NODES_BIT != 0 { nodes } else { 0 },
            codes: [0; STR_COLUMNS.len()],
        };
        for (i, code) in codes.iter().enumerate() {
            if cols & (1 << i) != 0 {
                key.codes[i] = *code;
            }
        }
        key
    }
}

/// An equality conjunction over groupable columns, resolved against
/// the schema: which columns, and the values wanted.
pub(crate) struct GroupQuery<'a> {
    cols: u8,
    nodes: u64,
    words: [&'a str; STR_COLUMNS.len()],
    /// Two different values demanded of one column: no row matches.
    contradictory: bool,
}

impl<'a> GroupQuery<'a> {
    /// Resolves `eqs`. Only `Eq` on a dictionary column or on `nodes`
    /// can be grouped by; anything else is `Parse` (unknown columns
    /// stay `NotFound`, as in a scan).
    pub(crate) fn parse(eqs: &'a [ColumnPredicate]) -> GaeResult<Self> {
        let mut q = GroupQuery {
            cols: 0,
            nodes: 0,
            words: [""; STR_COLUMNS.len()],
            contradictory: false,
        };
        for p in eqs {
            let column = resolve_column(&p.column)
                .ok_or_else(|| GaeError::NotFound(format!("history column {:?}", p.column)))?;
            if p.op != CmpOp::Eq {
                return Err(GaeError::Parse(format!(
                    "runtime moments group by equality only; column {:?} has op {:?}",
                    p.column,
                    p.op.as_str()
                )));
            }
            match (column, &p.value) {
                (ColumnRef::Str(col), PredValue::Str(word)) => {
                    let seen = q.cols & (1 << col) != 0;
                    q.contradictory |= seen && q.words[col] != word;
                    q.words[col] = word;
                    q.cols |= 1 << col;
                }
                (ColumnRef::Num(num::NODES), PredValue::Num(v)) => {
                    let seen = q.cols & NODES_BIT != 0;
                    q.contradictory |= seen && q.nodes != *v;
                    q.nodes = *v;
                    q.cols |= NODES_BIT;
                }
                (ColumnRef::Num(col), PredValue::Num(_)) => {
                    return Err(GaeError::Parse(format!(
                        "runtime moments cannot group by column {:?}",
                        NUM_COLUMNS[col]
                    )));
                }
                _ => {
                    return Err(GaeError::Parse(format!(
                        "column {:?}: value type does not match the column",
                        p.column
                    )));
                }
            }
        }
        Ok(q)
    }

    pub(crate) fn cols(&self) -> u8 {
        self.cols
    }

    /// The key this query reads at `site`; `None` when no stored row
    /// can match (a contradiction, or a word never interned).
    fn key(&self, site: u64, dicts: &[Dictionary]) -> Option<GroupKey> {
        if self.contradictory {
            return None;
        }
        let mut codes = [0u32; STR_COLUMNS.len()];
        for (col, code) in codes.iter_mut().enumerate() {
            if self.cols & (1 << col) != 0 {
                *code = dicts[col].code(self.words[col])?;
            }
        }
        Some(GroupKey::masked(self.cols, site, self.nodes, &codes))
    }
}

/// Every view built so far, keyed by column-set mask.
#[derive(Default)]
pub(crate) struct Views {
    by_cols: HashMap<u8, HashMap<GroupKey, Moments>>,
}

impl Views {
    /// Number of views.
    pub(crate) fn len(&self) -> usize {
        self.by_cols.len()
    }

    /// Number of keys across every view.
    pub(crate) fn keys(&self) -> usize {
        self.by_cols.values().map(HashMap::len).sum()
    }

    /// Builds the view of `cols` from the stored rows (one pass).
    pub(crate) fn build<'s>(&mut self, cols: u8, segments: impl Iterator<Item = &'s Segment>) {
        let mut groups = HashMap::new();
        let mut nums = [0u64; NUM_COLUMNS.len()];
        let mut codes = [0u32; STR_COLUMNS.len()];
        for seg in segments {
            for row in 0..seg.rows() {
                if seg.num_at(num::SUCCESS, row) == 0 {
                    continue;
                }
                for col in [num::SITE, num::NODES, num::SITE_SEQ, num::RUNTIME_US] {
                    nums[col] = seg.num_at(col, row);
                }
                for (col, code) in codes.iter_mut().enumerate() {
                    *code = seg.str_at(col, row);
                }
                fold_row(&mut groups, cols, &nums, &codes);
            }
        }
        self.by_cols.insert(cols, groups);
    }

    /// Folds one freshly appended successful row into every view: one
    /// key per view.
    pub(crate) fn observe(
        &mut self,
        nums: &[u64; NUM_COLUMNS.len()],
        codes: &[u32; STR_COLUMNS.len()],
    ) {
        for (cols, groups) in &mut self.by_cols {
            fold_row(groups, *cols, nums, codes);
        }
    }

    /// The moments `query` selects at `site`, or `None` while the
    /// view of its column set is not built yet.
    pub(crate) fn lookup(
        &self,
        query: &GroupQuery<'_>,
        site: u64,
        dicts: &[Dictionary],
    ) -> Option<Moments> {
        let groups = self.by_cols.get(&query.cols)?;
        let found = query.key(site, dicts).and_then(|key| groups.get(&key));
        Some(found.copied().unwrap_or_default())
    }
}

/// Adds one successful row's `(site_seq, runtime_us)` to its group in
/// the view of `cols`.
fn fold_row(
    groups: &mut HashMap<GroupKey, Moments>,
    cols: u8,
    nums: &[u64; NUM_COLUMNS.len()],
    codes: &[u32; STR_COLUMNS.len()],
) {
    let key = GroupKey::masked(cols, nums[num::SITE], nums[num::NODES], codes);
    groups
        .entry(key)
        .or_default()
        .push(nums[num::SITE_SEQ], nums[num::RUNTIME_US]);
}
