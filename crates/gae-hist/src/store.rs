//! The store: sealed immutable segments + an active mutable tail,
//! mutated only through [`HistOp`]s so contents are a pure function
//! of the op sequence.

use crate::codec;
use crate::dict::Dictionary;
use crate::moments::Moments;
use crate::predicate::{compile, ColumnPredicate, Compiled};
use crate::schema::{num, str_col, HistOp, HistRecord, NUM_COLUMNS, STR_COLUMNS};
use crate::segment::Segment;
use crate::view::{GroupQuery, Views};
use gae_types::GaeResult;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Store tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct HistConfig {
    /// Rows per sealed segment; the tail auto-seals when it fills.
    pub segment_rows: usize,
}

impl Default for HistConfig {
    fn default() -> Self {
        HistConfig { segment_rows: 4096 }
    }
}

/// Counters and sizes, published to MonALISA under entity `hist` and
/// returned by the `history.stats` RPC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistStats {
    /// Total stored rows (sealed + tail).
    pub rows: u64,
    /// Sealed segment count.
    pub sealed_segments: u64,
    /// Rows in the active tail.
    pub tail_rows: u64,
    /// Appends applied since construction/restore.
    pub appends: u64,
    /// Seal events (auto-seals on a full tail and `Seal` ops).
    pub seals: u64,
    /// `Compact` ops that actually merged at least one run.
    pub compactions: u64,
    /// Scans served.
    pub scans: u64,
    /// Sealed segments skipped wholesale by zone maps, cumulative.
    pub segments_pruned: u64,
    /// Rows actually visited by scans, cumulative.
    pub rows_scanned: u64,
    /// Distinct interned words across every dictionary.
    pub dict_words: u64,
    /// Runtime views currently built (one per equality-column set a
    /// [`HistStore::runtime_moments`] query asked for).
    pub views: u64,
    /// Keys across every view.
    pub view_keys: u64,
    /// View builds, cumulative; each also counts as one scan.
    pub view_builds: u64,
    /// `runtime_moments` reads served, cumulative.
    pub view_lookups: u64,
}

/// What one scan did: how far the zone maps got before rows were
/// touched, and how many rows survived the predicates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Segments considered (sealed + a non-empty tail).
    pub segments: u64,
    /// Sealed segments pruned by a zone map without reading rows.
    pub segments_pruned: u64,
    /// Rows visited in surviving segments.
    pub rows_scanned: u64,
    /// Rows matching the whole conjunction.
    pub rows_matched: u64,
}

/// A matched row handed to the scan visitor; column reads go straight
/// to the segment's columns.
pub struct RowView<'a> {
    seg: &'a Segment,
    dicts: &'a [Dictionary],
    row: usize,
}

impl RowView<'_> {
    /// Value of numeric column `col` (see `schema::num`).
    pub fn num(&self, col: usize) -> u64 {
        self.seg.num_at(col, self.row)
    }

    /// Decoded word of string column `col`.
    pub fn str_val(&self, col: usize) -> &str {
        self.dicts[col].word(self.seg.str_at(col, self.row))
    }

    /// Materialises the full record (RPC row export).
    pub fn record(&self) -> HistRecord {
        HistRecord {
            task: self.num(num::TASK),
            site: self.num(num::SITE),
            nodes: self.num(num::NODES),
            submit_us: self.num(num::SUBMIT_US),
            start_us: self.num(num::START_US),
            finish_us: self.num(num::FINISH_US),
            runtime_us: self.num(num::RUNTIME_US),
            success: self.num(num::SUCCESS) != 0,
            account: self.str_val(str_col::ACCOUNT).to_string(),
            login: self.str_val(str_col::LOGIN).to_string(),
            executable: self.str_val(str_col::EXECUTABLE).to_string(),
            queue: self.str_val(str_col::QUEUE).to_string(),
            partition: self.str_val(str_col::PARTITION).to_string(),
            job_type: self.str_val(str_col::JOB_TYPE).to_string(),
        }
    }
}

pub(crate) struct Inner {
    pub(crate) dicts: Vec<Dictionary>,
    pub(crate) sealed: Vec<Segment>,
    pub(crate) tail: Segment,
    /// Per-site successful-completion counters, the source of the
    /// `site_seq` column.
    pub(crate) site_seq: HashMap<u64, u64>,
    /// Runtime views — derived state like `site_seq`, but built on
    /// demand: `codec::decode` leaves this empty.
    pub(crate) views: Views,
    pub(crate) appends: u64,
    pub(crate) seals: u64,
    pub(crate) compactions: u64,
}

impl Inner {
    pub(crate) fn empty() -> Self {
        Inner {
            dicts: vec![Dictionary::new(); STR_COLUMNS.len()],
            sealed: Vec::new(),
            tail: Segment::new(),
            site_seq: HashMap::new(),
            views: Views::default(),
            appends: 0,
            seals: 0,
            compactions: 0,
        }
    }

    /// Total stored rows (sealed + tail).
    fn rows(&self) -> usize {
        self.sealed.iter().map(Segment::rows).sum::<usize>() + self.tail.rows()
    }

    fn seal_tail(&mut self) {
        let mut tail = std::mem::take(&mut self.tail);
        tail.seal();
        self.sealed.push(tail);
        self.seals += 1;
    }
}

/// The columnar job-history store.
pub struct HistStore {
    segment_rows: usize,
    inner: RwLock<Inner>,
    scans: AtomicU64,
    scan_rows: AtomicU64,
    scan_pruned: AtomicU64,
    view_builds: AtomicU64,
    view_lookups: AtomicU64,
}

impl HistStore {
    /// An empty store.
    pub fn new(config: HistConfig) -> Self {
        assert!(config.segment_rows > 0);
        HistStore {
            segment_rows: config.segment_rows,
            inner: RwLock::new(Inner::empty()),
            scans: AtomicU64::new(0),
            scan_rows: AtomicU64::new(0),
            scan_pruned: AtomicU64::new(0),
            view_builds: AtomicU64::new(0),
            view_lookups: AtomicU64::new(0),
        }
    }

    /// Rows per sealed segment.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// Applies one op. This is the *only* mutation path — the caller
    /// (gae-core's funnel) journals the op first, so replaying the
    /// journal reproduces the store bit-for-bit, segment boundaries
    /// included.
    pub fn apply(&self, op: &HistOp) {
        let mut g = self.inner.write();
        let g = &mut *g;
        match op {
            HistOp::Append(r) => {
                let mut strs = [0u32; STR_COLUMNS.len()];
                for (i, buf) in strs.iter_mut().enumerate() {
                    *buf = g.dicts[i].intern(r.str_value(i));
                }
                let seq = g.site_seq.get(&r.site).copied().unwrap_or(0);
                let mut nums = [0u64; NUM_COLUMNS.len()];
                for (i, buf) in nums.iter_mut().enumerate() {
                    *buf = r.num_value(i);
                }
                nums[num::SITE_SEQ] = seq;
                g.tail.push(&nums, &strs);
                if r.success {
                    *g.site_seq.entry(r.site).or_insert(0) += 1;
                    g.views.observe(&nums, &strs);
                }
                g.appends += 1;
                if g.tail.rows() >= self.segment_rows {
                    g.seal_tail();
                }
            }
            HistOp::Seal => {
                if g.tail.rows() > 0 {
                    g.seal_tail();
                }
            }
            HistOp::Compact => {
                Self::apply_compact(g, self.segment_rows);
            }
        }
    }

    /// Merges every maximal run of ≥ 2 consecutive undersized sealed
    /// segments into `segment_rows`-sized ones, preserving row order.
    /// The last chunk of a merged run may stay undersized; a later
    /// `Compact` picks it up again once a neighbour appears.
    fn apply_compact(g: &mut Inner, segment_rows: usize) {
        let old = std::mem::take(&mut g.sealed);
        let mut out: Vec<Segment> = Vec::with_capacity(old.len());
        let mut run: Vec<Segment> = Vec::new();
        let mut merged = false;
        let flush = |run: &mut Vec<Segment>, out: &mut Vec<Segment>, merged: &mut bool| {
            if run.len() < 2 {
                out.append(run);
                return;
            }
            *merged = true;
            let mut cur = Segment::new();
            for seg in run.drain(..) {
                for row in 0..seg.rows() {
                    cur.push_row_from(&seg, row);
                    if cur.rows() == segment_rows {
                        cur.seal();
                        out.push(std::mem::take(&mut cur));
                    }
                }
            }
            if cur.rows() > 0 {
                cur.seal();
                out.push(cur);
            }
        };
        for seg in old {
            if seg.rows() < segment_rows {
                run.push(seg);
            } else {
                flush(&mut run, &mut out, &mut merged);
                out.push(seg);
            }
        }
        flush(&mut run, &mut out, &mut merged);
        g.sealed = out;
        if merged {
            g.compactions += 1;
        }
    }

    /// True when a `Compact` op would merge something: two or more
    /// consecutive undersized sealed segments exist.
    pub fn compactable(&self) -> bool {
        let g = self.inner.read();
        let mut undersized_run = 0usize;
        for seg in &g.sealed {
            if seg.rows() < self.segment_rows {
                undersized_run += 1;
                if undersized_run >= 2 {
                    return true;
                }
            } else {
                undersized_run = 0;
            }
        }
        false
    }

    /// Scans the store with a predicate conjunction, calling `on_row`
    /// for every matching row in append order. Sealed segments are
    /// zone-map-pruned before any row is read; the tail (no zone maps
    /// yet) is never pruned.
    pub fn scan<F: FnMut(&RowView<'_>)>(
        &self,
        preds: &[ColumnPredicate],
        mut on_row: F,
    ) -> GaeResult<ScanStats> {
        let g = self.inner.read();
        let compiled = compile(preds, &g.dicts)?;
        let mut stats = ScanStats::default();
        let mut sel = Vec::new();
        for seg in &g.sealed {
            stats.segments += 1;
            if compiled.iter().any(|p| p.prunes(seg)) {
                stats.segments_pruned += 1;
                continue;
            }
            Self::scan_segment(seg, &g.dicts, &compiled, &mut sel, &mut stats, &mut on_row);
        }
        if g.tail.rows() > 0 {
            stats.segments += 1;
            Self::scan_segment(
                &g.tail,
                &g.dicts,
                &compiled,
                &mut sel,
                &mut stats,
                &mut on_row,
            );
        }
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.scan_rows
            .fetch_add(stats.rows_scanned, Ordering::Relaxed);
        self.scan_pruned
            .fetch_add(stats.segments_pruned, Ordering::Relaxed);
        Ok(stats)
    }

    /// Evaluates each predicate over a whole column of `seg` into the
    /// selection `sel`, then visits only the rows still selected.
    fn scan_segment<F: FnMut(&RowView<'_>)>(
        seg: &Segment,
        dicts: &[Dictionary],
        compiled: &[Compiled],
        sel: &mut Vec<bool>,
        stats: &mut ScanStats,
        on_row: &mut F,
    ) {
        let rows = seg.rows();
        stats.rows_scanned += rows as u64;
        sel.clear();
        sel.resize(rows, true);
        if !compiled.iter().all(|p| p.select(seg, sel)) {
            return;
        }
        for row in (0..rows).filter(|row| sel[*row]) {
            stats.rows_matched += 1;
            on_row(&RowView { seg, dicts, row });
        }
    }

    /// Materialises up to `limit` matching rows (the `history.query`
    /// RPC). The scan still visits everything, so the returned stats
    /// describe the full result cardinality.
    pub fn query(
        &self,
        preds: &[ColumnPredicate],
        limit: usize,
    ) -> GaeResult<(Vec<HistRecord>, ScanStats)> {
        let mut out = Vec::new();
        let stats = self.scan(preds, |row| {
            if out.len() < limit {
                out.push(row.record());
            }
        })?;
        Ok((out, stats))
    }

    /// `(site_seq, runtime_us)` of every matching row, in append
    /// order — the estimator's regression input.
    pub fn runtime_points(&self, preds: &[ColumnPredicate]) -> GaeResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        self.scan(preds, |row| {
            out.push((row.num(num::SITE_SEQ), row.num(num::RUNTIME_US)));
        })?;
        Ok(out)
    }

    /// Exact moments of `(site_seq, runtime_us)` over the successful
    /// rows at `site` matching every equality in `eqs` — what
    /// `runtime_points` over `site = .. ∧ success = 1 ∧ eqs` would fold
    /// to, read from the runtime view of `eqs`' column set. The first
    /// query naming a column set builds its view (one pass over every
    /// row under the write lock, counted as one scan); later ones are
    /// a hash probe. `eqs` may hold only `Eq` predicates on dictionary
    /// columns or `nodes`; anything else is `GaeError::Parse`.
    pub fn runtime_moments(&self, site: u64, eqs: &[ColumnPredicate]) -> GaeResult<Moments> {
        let query = GroupQuery::parse(eqs)?;
        self.view_lookups.fetch_add(1, Ordering::Relaxed);
        {
            let g = self.inner.read();
            if let Some(m) = g.views.lookup(&query, site, &g.dicts) {
                return Ok(m);
            }
        }
        let mut g = self.inner.write();
        let g = &mut *g;
        // Another reader may have built it between the two locks.
        if g.views.lookup(&query, site, &g.dicts).is_none() {
            let segments = g.sealed.iter().chain(std::iter::once(&g.tail));
            g.views.build(query.cols(), segments);
            self.view_builds.fetch_add(1, Ordering::Relaxed);
            self.scans.fetch_add(1, Ordering::Relaxed);
            self.scan_rows.fetch_add(g.rows() as u64, Ordering::Relaxed);
        }
        Ok(g.views.lookup(&query, site, &g.dicts).unwrap_or_default())
    }

    /// Successful completions recorded for `site` — the site's
    /// next-to-assign `site_seq` value, read O(1) from the counter map
    /// (the estimator's "does this site have any history" probe).
    pub fn site_successes(&self, site: u64) -> u64 {
        self.inner.read().site_seq.get(&site).copied().unwrap_or(0)
    }

    /// Total stored rows.
    pub fn rows(&self) -> u64 {
        self.inner.read().rows() as u64
    }

    /// Rows in the active tail.
    pub fn tail_rows(&self) -> u64 {
        self.inner.read().tail.rows() as u64
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HistStats {
        let g = self.inner.read();
        HistStats {
            rows: g.rows() as u64,
            sealed_segments: g.sealed.len() as u64,
            tail_rows: g.tail.rows() as u64,
            appends: g.appends,
            seals: g.seals,
            compactions: g.compactions,
            scans: self.scans.load(Ordering::Relaxed),
            segments_pruned: self.scan_pruned.load(Ordering::Relaxed),
            rows_scanned: self.scan_rows.load(Ordering::Relaxed),
            dict_words: g.dicts.iter().map(|d| d.len() as u64).sum(),
            views: g.views.len() as u64,
            view_keys: g.views.keys() as u64,
            view_builds: self.view_builds.load(Ordering::Relaxed),
            view_lookups: self.view_lookups.load(Ordering::Relaxed),
        }
    }

    /// The canonical binary encoding of the whole store (dictionaries,
    /// sealed segments and tail). This is what rides in gae-durable
    /// snapshots.
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(&self.inner.read())
    }

    /// Replaces the store's contents from [`HistStore::encode`] bytes
    /// (empty bytes reset to the empty store). Zone maps and site
    /// counters are recomputed; they are pure functions of the rows.
    /// Runtime views are dropped and rebuilt by the next query.
    pub fn restore(&self, bytes: &[u8]) -> GaeResult<()> {
        let inner = if bytes.is_empty() {
            Inner::empty()
        } else {
            codec::decode(bytes)?
        };
        *self.inner.write() = inner;
        Ok(())
    }

    /// CRC-32 (8 hex digits) of the canonical encoding — the
    /// whole-store identity the crash/failover tests compare.
    pub fn digest(&self) -> String {
        format!("{:08x}", gae_durable::crc32::crc32(&self.encode()))
    }

    /// Per-sealed-segment digests, in segment order.
    pub fn segment_digests(&self) -> Vec<String> {
        self.inner
            .read()
            .sealed
            .iter()
            .map(Segment::digest)
            .collect()
    }

    /// Digest of the active tail (`"-"` when empty).
    pub fn tail_digest(&self) -> String {
        let g = self.inner.read();
        if g.tail.rows() == 0 {
            "-".to_string()
        } else {
            g.tail.digest()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_matches;

    fn rec(task: u64, site: u64, login: &str, runtime_s: u64, success: bool) -> HistRecord {
        HistRecord {
            task,
            site,
            nodes: 4,
            submit_us: task * 10,
            start_us: task * 10 + 1,
            finish_us: task * 10 + 1 + runtime_s * 1_000_000,
            runtime_us: runtime_s * 1_000_000,
            success,
            account: "cms".into(),
            login: login.into(),
            executable: "reco".into(),
            queue: "short".into(),
            partition: "compute".into(),
            job_type: "batch".into(),
        }
    }

    fn small_store(segment_rows: usize) -> HistStore {
        HistStore::new(HistConfig { segment_rows })
    }

    #[test]
    fn append_assigns_site_seq_on_success_only() {
        let s = small_store(100);
        s.apply(&HistOp::Append(rec(1, 1, "a", 10, true)));
        s.apply(&HistOp::Append(rec(2, 1, "a", 20, false)));
        s.apply(&HistOp::Append(rec(3, 1, "a", 30, true)));
        s.apply(&HistOp::Append(rec(4, 2, "a", 40, true)));
        let pts = s
            .runtime_points(&[
                ColumnPredicate::eq_num("site", 1),
                ColumnPredicate::eq_num("success", 1),
            ])
            .unwrap();
        // Failure rows carry the counter without consuming it, so the
        // successes at site 1 read 0, 1 — exactly the legacy ring's
        // per-site seq.
        assert_eq!(pts, vec![(0, 10_000_000), (1, 30_000_000)]);
        let pts2 = s
            .runtime_points(&[
                ColumnPredicate::eq_num("site", 2),
                ColumnPredicate::eq_num("success", 1),
            ])
            .unwrap();
        assert_eq!(pts2, vec![(0, 40_000_000)]);
    }

    #[test]
    fn tail_auto_seals_and_zone_maps_prune() {
        let s = small_store(4);
        for t in 0..8 {
            s.apply(&HistOp::Append(rec(t, t / 4, "a", 5, true)));
        }
        let st = s.stats();
        assert_eq!(st.sealed_segments, 2);
        assert_eq!(st.tail_rows, 0);
        // Site 0 lives entirely in segment 0; the site=1 scan must
        // prune it via the zone map.
        let scan = s
            .scan(&[ColumnPredicate::eq_num("site", 1)], |_| {})
            .unwrap();
        assert_eq!(scan.segments, 2);
        assert_eq!(scan.segments_pruned, 1);
        assert_eq!(scan.rows_scanned, 4);
        assert_eq!(scan.rows_matched, 4);
        // An unknown dictionary word prunes every sealed segment.
        let scan = s
            .scan(&[ColumnPredicate::eq_str("login", "nobody")], |_| {})
            .unwrap();
        assert_eq!(scan.segments_pruned, 2);
        assert_eq!(scan.rows_matched, 0);
    }

    #[test]
    fn seal_and_compact_are_deterministic_and_order_preserving() {
        let build = |ops: &[HistOp]| {
            let s = small_store(4);
            for op in ops {
                s.apply(op);
            }
            s
        };
        let mut ops = Vec::new();
        for t in 0..3 {
            ops.push(HistOp::Append(rec(t, 1, "a", t + 1, true)));
        }
        ops.push(HistOp::Seal);
        for t in 3..5 {
            ops.push(HistOp::Append(rec(t, 1, "b", t + 1, true)));
        }
        ops.push(HistOp::Seal);
        ops.push(HistOp::Compact);
        let a = build(&ops);
        let b = build(&ops);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.segment_digests(), b.segment_digests());
        // 3 + 2 undersized rows merged into one full segment of 4 and
        // an undersized one of 1.
        let st = a.stats();
        assert_eq!(st.sealed_segments, 2);
        assert_eq!(st.compactions, 1);
        // Row order is append order across the merge.
        let (rows, _) = a.query(&[], usize::MAX).unwrap();
        let tasks: Vec<u64> = rows.iter().map(|r| r.task).collect();
        assert_eq!(tasks, vec![0, 1, 2, 3, 4]);
        // A single undersized segment alone never merges.
        assert!(!a.compactable());
        let before = a.digest();
        a.apply(&HistOp::Compact);
        assert_eq!(a.digest(), before, "no-op compact leaves bytes alone");
    }

    #[test]
    fn compaction_changes_layout_not_rows() {
        let uncompacted = small_store(4);
        let compacted = small_store(4);
        for t in 0..6 {
            let op = HistOp::Append(rec(t, t % 2, "a", 7, true));
            uncompacted.apply(&op);
            compacted.apply(&op);
            if t % 2 == 1 {
                uncompacted.apply(&HistOp::Seal);
                compacted.apply(&HistOp::Seal);
            }
        }
        compacted.apply(&HistOp::Compact);
        assert_ne!(uncompacted.segment_digests(), compacted.segment_digests());
        let q = [ColumnPredicate::eq_num("site", 1)];
        assert_eq!(
            uncompacted.query(&q, usize::MAX).unwrap().0,
            compacted.query(&q, usize::MAX).unwrap().0,
            "same rows in the same order, whatever the layout"
        );
    }

    #[test]
    fn codec_roundtrip_preserves_digests_and_counters() {
        let s = small_store(3);
        for t in 0..8 {
            s.apply(&HistOp::Append(rec(
                t,
                t % 3,
                &format!("u{}", t % 2),
                t,
                t % 4 != 0,
            )));
        }
        s.apply(&HistOp::Seal);
        let bytes = s.encode();
        let back = small_store(3);
        back.restore(&bytes).unwrap();
        assert_eq!(back.digest(), s.digest());
        assert_eq!(back.segment_digests(), s.segment_digests());
        assert_eq!(back.tail_digest(), s.tail_digest());
        assert_eq!(back.rows(), s.rows());
        // Site counters are recomputed, so appends continue the same
        // site_seq sequence on both stores.
        let cont = HistOp::Append(rec(99, 1, "u1", 9, true));
        s.apply(&cont);
        back.apply(&cont);
        assert_eq!(back.digest(), s.digest());
        // Restoring empty bytes resets.
        back.restore(&[]).unwrap();
        assert_eq!(back.rows(), 0);
    }

    #[test]
    fn scan_matches_naive_reference_on_mixed_predicates() {
        let s = small_store(5);
        let mut all = Vec::new();
        for t in 0..23 {
            let r = rec(t, t % 3, &format!("u{}", t % 4), t * 3 % 17, t % 5 != 0);
            all.push(r.clone());
            s.apply(&HistOp::Append(r));
        }
        s.apply(&HistOp::Seal);
        s.apply(&HistOp::Compact);
        let conjunctions: Vec<Vec<ColumnPredicate>> = vec![
            vec![],
            vec![ColumnPredicate::eq_num("site", 2)],
            vec![ColumnPredicate::eq_str("login", "u1")],
            vec![
                ColumnPredicate::eq_num("success", 1),
                ColumnPredicate::ge("runtime_us", 5),
                ColumnPredicate::le("task", 15),
            ],
            vec![
                ColumnPredicate::eq_str("queue", "short"),
                ColumnPredicate::eq_str("login", "u2"),
                ColumnPredicate::eq_num("site", 0),
            ],
            vec![ColumnPredicate::eq_str("login", "stranger")],
        ];
        for preds in conjunctions {
            let (rows, _) = s.query(&preds, usize::MAX).unwrap();
            let expect: Vec<HistRecord> = all
                .iter()
                .filter(|r| naive_matches(r, &preds))
                .cloned()
                .collect();
            assert_eq!(rows, expect, "conjunction {preds:?}");
        }
    }

    fn site_success(site: u64) -> [ColumnPredicate; 2] {
        [
            ColumnPredicate::eq_num("site", site),
            ColumnPredicate::eq_num("success", 1),
        ]
    }

    #[test]
    fn runtime_moments_equal_the_scan_fold_and_follow_appends() {
        let s = small_store(4);
        for t in 0..30 {
            let login = format!("u{}", t % 3);
            s.apply(&HistOp::Append(rec(
                t,
                t % 2,
                &login,
                t * 7 % 11,
                t % 5 != 0,
            )));
        }
        let eqs = [ColumnPredicate::eq_str("login", "u1")];
        let check = |s: &HistStore| {
            for site in 0..3 {
                let mut preds = site_success(site).to_vec();
                preds.extend(eqs.iter().cloned());
                let scanned = Moments::from_points(s.runtime_points(&preds).unwrap());
                assert_eq!(
                    s.runtime_moments(site, &eqs).unwrap(),
                    scanned,
                    "site {site}"
                );
            }
        };
        check(&s);
        let built = s.stats();
        assert_eq!((built.views, built.view_builds), (1, 1));
        // Appends, seals and compactions after the build keep the view
        // in step without another build.
        for t in 30..45 {
            s.apply(&HistOp::Append(rec(t, t % 2, "u1", t, t % 4 != 0)));
            if t % 6 == 0 {
                s.apply(&HistOp::Seal);
            }
        }
        s.apply(&HistOp::Compact);
        check(&s);
        assert_eq!(s.stats().view_builds, 1);
        // The empty column set is a view too: all successes of a site.
        let all = s.runtime_moments(1, &[]).unwrap();
        assert_eq!(all.n, s.site_successes(1));
        // Words never interned and contradictions match nothing.
        let nobody = [ColumnPredicate::eq_str("login", "nobody")];
        assert_eq!(s.runtime_moments(1, &nobody).unwrap(), Moments::default());
        let both = [
            ColumnPredicate::eq_str("login", "u1"),
            ColumnPredicate::eq_str("login", "u2"),
        ];
        assert_eq!(s.runtime_moments(1, &both).unwrap(), Moments::default());
    }

    #[test]
    fn runtime_moments_reject_what_they_cannot_group_by() {
        let s = small_store(4);
        s.apply(&HistOp::Append(rec(1, 1, "a", 10, true)));
        let parse = |eqs: &[ColumnPredicate]| match s.runtime_moments(1, eqs) {
            Err(gae_types::GaeError::Parse(m)) => m,
            other => panic!("want Parse, got {other:?}"),
        };
        parse(&[ColumnPredicate::ge("nodes", 2)]);
        parse(&[ColumnPredicate::le("runtime_us", 2)]);
        parse(&[ColumnPredicate::eq_num("runtime_us", 2)]);
        parse(&[ColumnPredicate::eq_num("site_seq", 0)]);
        parse(&[ColumnPredicate::eq_num("login", 3)]);
        parse(&[ColumnPredicate::eq_str("nodes", "four")]);
        assert!(matches!(
            s.runtime_moments(1, &[ColumnPredicate::eq_num("no_such", 1)]),
            Err(gae_types::GaeError::NotFound(_))
        ));
        assert_eq!(s.stats().views, 0, "a rejected query builds nothing");
    }

    #[test]
    fn views_are_derived_state_bytes_never_see_them() {
        let plain = small_store(3);
        let viewed = small_store(3);
        let eqs = [ColumnPredicate::eq_str("login", "u0")];
        for t in 0..10 {
            let op = HistOp::Append(rec(t, t % 2, &format!("u{}", t % 2), t, true));
            plain.apply(&op);
            viewed.apply(&op);
            viewed.runtime_moments(t % 2, &eqs).unwrap();
            viewed.runtime_moments(t % 2, &[]).unwrap();
        }
        assert_eq!(viewed.stats().views, 2);
        assert_eq!(viewed.encode(), plain.encode());
        assert_eq!(viewed.digest(), plain.digest());
        assert_eq!(viewed.segment_digests(), plain.segment_digests());
        assert_eq!(viewed.tail_digest(), plain.tail_digest());
        // Restore drops the views; the next query rebuilds the same one.
        let before = viewed.runtime_moments(1, &eqs).unwrap();
        viewed.restore(&plain.encode()).unwrap();
        assert_eq!(viewed.stats().views, 0);
        assert_eq!(viewed.runtime_moments(1, &eqs).unwrap(), before);
        assert_eq!(viewed.stats().views, 1);
    }

    #[test]
    fn view_costs_are_counted_builds_scan_lookups_do_not() {
        let s = small_store(8);
        for t in 0..20 {
            s.apply(&HistOp::Append(rec(t, 1, "a", 5, true)));
        }
        let eqs = [ColumnPredicate::eq_str("login", "a")];
        s.runtime_moments(1, &eqs).unwrap();
        s.runtime_moments(1, &[ColumnPredicate::eq_str("queue", "short")])
            .unwrap();
        let st = s.stats();
        assert_eq!((st.views, st.view_builds, st.view_lookups), (2, 2, 2));
        assert_eq!(
            (st.scans, st.rows_scanned),
            (2, 40),
            "a build is one full scan"
        );
        for _ in 0..50 {
            s.runtime_moments(1, &eqs).unwrap();
        }
        let after = s.stats();
        assert_eq!(after.view_lookups, 52);
        assert_eq!(
            (after.scans, after.rows_scanned),
            (2, 40),
            "lookups scan nothing"
        );
        // One completion touches one key per view: a row new in every
        // grouped column adds exactly `views` keys, a repeat adds none,
        // a failure touches nothing.
        s.apply(&HistOp::Append(rec(99, 7, "newcomer", 5, true)));
        assert_eq!(s.stats().view_keys, after.view_keys + after.views);
        s.apply(&HistOp::Append(rec(100, 7, "newcomer", 6, true)));
        s.apply(&HistOp::Append(rec(101, 8, "failed", 6, false)));
        assert_eq!(s.stats().view_keys, after.view_keys + after.views);
        assert_eq!(
            s.runtime_moments(7, &[ColumnPredicate::eq_str("login", "newcomer")])
                .unwrap()
                .n,
            2
        );
    }
}
