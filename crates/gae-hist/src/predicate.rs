//! Scan predicates: typed column comparisons, compiled against the
//! dictionaries, with zone-map pruning tests.
//!
//! A scan takes a *conjunction* of predicates. Each predicate first
//! gets the chance to prune a sealed segment wholesale via its zone
//! map; only segments no predicate can exclude have their rows read.

use crate::dict::Dictionary;
use crate::schema::{resolve_column, ColumnRef, HistRecord};
use crate::segment::Segment;
use gae_types::{GaeError, GaeResult};

/// Comparison operator. String columns support only `Eq` — dictionary
/// codes are insertion-ordered, not lexicographic, so an ordered
/// compare on words would be meaningless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Column equals the value.
    Eq,
    /// Column is ≥ the value (numeric only).
    Ge,
    /// Column is ≤ the value (numeric only).
    Le,
}

impl CmpOp {
    /// The wire spelling (`history.query` RPC).
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ge => "ge",
            CmpOp::Le => "le",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> GaeResult<CmpOp> {
        match s {
            "eq" => Ok(CmpOp::Eq),
            "ge" => Ok(CmpOp::Ge),
            "le" => Ok(CmpOp::Le),
            other => Err(GaeError::Parse(format!(
                "unknown predicate op {other:?} (want eq|ge|le)"
            ))),
        }
    }
}

/// A predicate's comparison value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredValue {
    /// For numeric columns.
    Num(u64),
    /// For dictionary-coded string columns.
    Str(String),
}

/// One column comparison in a scan's conjunction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnPredicate {
    /// Column name (see [`crate::NUM_COLUMNS`] / [`crate::STR_COLUMNS`]).
    pub column: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Comparison value.
    pub value: PredValue,
}

impl ColumnPredicate {
    /// `column == v` over a numeric column.
    pub fn eq_num(column: &str, v: u64) -> Self {
        ColumnPredicate {
            column: column.to_string(),
            op: CmpOp::Eq,
            value: PredValue::Num(v),
        }
    }

    /// `column == word` over a string column.
    pub fn eq_str(column: &str, word: &str) -> Self {
        ColumnPredicate {
            column: column.to_string(),
            op: CmpOp::Eq,
            value: PredValue::Str(word.to_string()),
        }
    }

    /// `column >= v` over a numeric column.
    pub fn ge(column: &str, v: u64) -> Self {
        ColumnPredicate {
            column: column.to_string(),
            op: CmpOp::Ge,
            value: PredValue::Num(v),
        }
    }

    /// `column <= v` over a numeric column.
    pub fn le(column: &str, v: u64) -> Self {
        ColumnPredicate {
            column: column.to_string(),
            op: CmpOp::Le,
            value: PredValue::Num(v),
        }
    }
}

/// A predicate resolved against the schema and dictionaries: the
/// value of column `col` must lie in `lo..=hi`. A word never interned
/// compiles to the empty range `1..=0`, which no row anywhere matches.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Compiled {
    col: ColumnRef,
    lo: u64,
    hi: u64,
}

impl Compiled {
    /// True when the sealed segment's zone map proves no row matches.
    pub(crate) fn prunes(&self, seg: &Segment) -> bool {
        let (min, max) = seg.zone(self.col);
        self.lo > self.hi || self.hi < min || self.lo > max
    }

    /// Clears in `sel` (one flag per row of `seg`) every row the
    /// predicate rejects, one pass over the column; false when no row
    /// can pass.
    pub(crate) fn select(&self, seg: &Segment, sel: &mut [bool]) -> bool {
        seg.select(self.col, self.lo, self.hi, sel)
    }
}

/// Compiles a conjunction. Unknown columns are `NotFound` (the RPC
/// facade's 404); type mismatches and ordered string compares are
/// `Parse` (400).
pub(crate) fn compile(preds: &[ColumnPredicate], dicts: &[Dictionary]) -> GaeResult<Vec<Compiled>> {
    preds
        .iter()
        .map(|p| match resolve_column(&p.column) {
            None => Err(GaeError::NotFound(format!("history column {:?}", p.column))),
            Some(col @ ColumnRef::Num(_)) => match &p.value {
                PredValue::Num(v) => {
                    let (lo, hi) = match p.op {
                        CmpOp::Eq => (*v, *v),
                        CmpOp::Ge => (*v, u64::MAX),
                        CmpOp::Le => (0, *v),
                    };
                    Ok(Compiled { col, lo, hi })
                }
                PredValue::Str(_) => Err(GaeError::Parse(format!(
                    "column {:?} is numeric, got a string value",
                    p.column
                ))),
            },
            Some(col @ ColumnRef::Str(i)) => match (&p.value, p.op) {
                (PredValue::Str(w), CmpOp::Eq) => {
                    let (lo, hi) = dicts[i].code(w).map_or((1, 0), |c| (c.into(), c.into()));
                    Ok(Compiled { col, lo, hi })
                }
                (PredValue::Str(_), _) => Err(GaeError::Parse(format!(
                    "column {:?} is a string column; only eq is supported",
                    p.column
                ))),
                (PredValue::Num(_), _) => Err(GaeError::Parse(format!(
                    "column {:?} is a string column, got a numeric value",
                    p.column
                ))),
            },
        })
        .collect()
}

/// The reference semantics: evaluates the conjunction against a
/// materialised record with plain string compares. The proptest and
/// bench suites hold scans to exactly this — if a zone map or a
/// dictionary ever pruned a matching row, this oracle catches it.
pub fn naive_matches(rec: &HistRecord, preds: &[ColumnPredicate]) -> bool {
    preds.iter().all(|p| match resolve_column(&p.column) {
        Some(ColumnRef::Num(col)) => {
            let x = rec.num_value(col);
            match (&p.value, p.op) {
                (PredValue::Num(v), CmpOp::Eq) => x == *v,
                (PredValue::Num(v), CmpOp::Ge) => x >= *v,
                (PredValue::Num(v), CmpOp::Le) => x <= *v,
                (PredValue::Str(_), _) => false,
            }
        }
        Some(ColumnRef::Str(col)) => match (&p.value, p.op) {
            (PredValue::Str(w), CmpOp::Eq) => rec.str_value(col) == w,
            _ => false,
        },
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_parse_roundtrip() {
        for op in [CmpOp::Eq, CmpOp::Ge, CmpOp::Le] {
            assert_eq!(CmpOp::parse(op.as_str()).unwrap(), op);
        }
        assert!(matches!(CmpOp::parse("lt"), Err(GaeError::Parse(_))));
    }

    #[test]
    fn compile_rejects_bad_shapes() {
        let dicts = vec![Dictionary::new(); crate::STR_COLUMNS.len()];
        let unknown = ColumnPredicate::eq_num("no_such", 1);
        assert!(matches!(
            compile(&[unknown], &dicts),
            Err(GaeError::NotFound(_))
        ));
        let mismatch = ColumnPredicate::eq_str("site", "cern");
        assert!(matches!(
            compile(&[mismatch], &dicts),
            Err(GaeError::Parse(_))
        ));
        let ordered_str = ColumnPredicate {
            column: "login".into(),
            op: CmpOp::Ge,
            value: PredValue::Str("a".into()),
        };
        assert!(matches!(
            compile(&[ordered_str], &dicts),
            Err(GaeError::Parse(_))
        ));
        let num_on_str = ColumnPredicate::eq_num("login", 3);
        assert!(matches!(
            compile(&[num_on_str], &dicts),
            Err(GaeError::Parse(_))
        ));
    }
}
