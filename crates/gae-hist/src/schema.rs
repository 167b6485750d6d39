//! The fixed column schema of the job-history table, the row type
//! appends carry, and the three-op mutation language the store is
//! replayed from.

/// Numeric (`u64`) columns, in buffer order. `success` is stored as
/// 0/1 so it participates in zone-map pruning like any other numeric
/// column; `site_seq` is assigned by the store at append time (the
/// per-site successful-completion counter the regression estimator
/// uses as its x axis — the columnar twin of `HistoryEntry::seq`).
pub const NUM_COLUMNS: [&str; 9] = [
    "task",
    "site",
    "nodes",
    "submit_us",
    "start_us",
    "finish_us",
    "runtime_us",
    "success",
    "site_seq",
];

/// Dictionary-encoded string columns, in buffer order: the VO/user/
/// task-shape attributes the §6.1 similarity templates match on.
pub const STR_COLUMNS: [&str; 6] = [
    "account",
    "login",
    "executable",
    "queue",
    "partition",
    "job_type",
];

/// Buffer indexes of the numeric columns.
pub mod num {
    pub const TASK: usize = 0;
    pub const SITE: usize = 1;
    pub const NODES: usize = 2;
    pub const SUBMIT_US: usize = 3;
    pub const START_US: usize = 4;
    pub const FINISH_US: usize = 5;
    pub const RUNTIME_US: usize = 6;
    pub const SUCCESS: usize = 7;
    pub const SITE_SEQ: usize = 8;
}

/// Buffer indexes of the string columns.
pub mod str_col {
    pub const ACCOUNT: usize = 0;
    pub const LOGIN: usize = 1;
    pub const EXECUTABLE: usize = 2;
    pub const QUEUE: usize = 3;
    pub const PARTITION: usize = 4;
    pub const JOB_TYPE: usize = 5;
}

/// A resolved column name: which buffer family and index it lives at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnRef {
    /// Numeric buffer `NUM_COLUMNS[i]`.
    Num(usize),
    /// Dictionary-coded buffer `STR_COLUMNS[i]`.
    Str(usize),
}

/// Resolves a column name to its buffer, `None` for unknown names.
pub fn resolve_column(name: &str) -> Option<ColumnRef> {
    if let Some(i) = NUM_COLUMNS.iter().position(|c| *c == name) {
        return Some(ColumnRef::Num(i));
    }
    STR_COLUMNS
        .iter()
        .position(|c| *c == name)
        .map(ColumnRef::Str)
}

/// One terminal task outcome, as the jobmon funnel hands it over.
/// `site_seq` is *not* part of the record — the store derives it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistRecord {
    /// The task's grid-wide id.
    pub task: u64,
    /// Site the terminal event happened at.
    pub site: u64,
    /// Requested node count.
    pub nodes: u64,
    /// Submission instant, microseconds of virtual time.
    pub submit_us: u64,
    /// Start instant (0 if the task never started).
    pub start_us: u64,
    /// Terminal instant (0 if unknown).
    pub finish_us: u64,
    /// Accrued CPU time, microseconds.
    pub runtime_us: u64,
    /// True for `Completed`, false for `Failed`/`Killed`.
    pub success: bool,
    /// Account (project) attribute.
    pub account: String,
    /// Login (owner) attribute.
    pub login: String,
    /// Executable name.
    pub executable: String,
    /// Queue name.
    pub queue: String,
    /// Partition name.
    pub partition: String,
    /// `"batch"` or `"interactive"`.
    pub job_type: String,
}

impl HistRecord {
    /// The record's value in numeric column `col` (`site_seq`, which
    /// only exists on stored rows, reads as 0).
    pub fn num_value(&self, col: usize) -> u64 {
        match col {
            num::TASK => self.task,
            num::SITE => self.site,
            num::NODES => self.nodes,
            num::SUBMIT_US => self.submit_us,
            num::START_US => self.start_us,
            num::FINISH_US => self.finish_us,
            num::RUNTIME_US => self.runtime_us,
            num::SUCCESS => self.success as u64,
            num::SITE_SEQ => 0,
            _ => panic!("numeric column {col} out of range"),
        }
    }

    /// The record's value in string column `col`.
    pub fn str_value(&self, col: usize) -> &str {
        match col {
            str_col::ACCOUNT => &self.account,
            str_col::LOGIN => &self.login,
            str_col::EXECUTABLE => &self.executable,
            str_col::QUEUE => &self.queue,
            str_col::PARTITION => &self.partition,
            str_col::JOB_TYPE => &self.job_type,
            _ => panic!("string column {col} out of range"),
        }
    }
}

/// The store's replay language. gae-core journals each applied op as
/// one `"hist"` WAL record; store contents are a pure function of the
/// op sequence, which is what makes recovery and follower replay
/// rebuild identical segments.
// Nearly every op is an `Append`; boxing the record to shrink the two
// unit variants would put an allocation on the per-row ingest path.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistOp {
    /// Append one row to the tail (auto-seals a full tail).
    Append(HistRecord),
    /// Seal a non-empty tail early (grid-clock cadence).
    Seal,
    /// Merge adjacent undersized sealed segments back to
    /// `segment_rows`-sized ones, preserving row order.
    Compact,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_column_resolves() {
        for (i, name) in NUM_COLUMNS.iter().enumerate() {
            assert_eq!(resolve_column(name), Some(ColumnRef::Num(i)));
        }
        for (i, name) in STR_COLUMNS.iter().enumerate() {
            assert_eq!(resolve_column(name), Some(ColumnRef::Str(i)));
        }
        assert_eq!(resolve_column("no_such_column"), None);
    }
}
