//! Binary store codec: the canonical byte encoding that rides in
//! gae-durable snapshots and `history.export` replies.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "GAEHIST1"
//! u32     numeric column count (must be 9)
//! u32     string column count  (must be 6)
//! per string column: u32 word count, then per word u32 len + UTF-8
//! u32     sealed segment count
//! per segment, sealed first then the tail:
//!         u32 rows, then 9 × rows u64, then 6 × rows u32
//! ```
//!
//! Derived state — zone maps and the lanes packed at them, site
//! counters, the op counters — is deliberately *not* encoded: the
//! decoder recomputes it, so two stores holding the same rows produce
//! the same bytes regardless of how many scans or no-op compactions
//! they served.

use crate::dict::Dictionary;
use crate::schema::{num, NUM_COLUMNS, STR_COLUMNS};
use crate::segment::Segment;
use crate::store::Inner;
use gae_types::{GaeError, GaeResult};

const MAGIC: &[u8; 8] = b"GAEHIST1";

pub(crate) fn encode(inner: &Inner) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(NUM_COLUMNS.len() as u32).to_le_bytes());
    out.extend_from_slice(&(STR_COLUMNS.len() as u32).to_le_bytes());
    for dict in &inner.dicts {
        let words = dict.words();
        out.extend_from_slice(&(words.len() as u32).to_le_bytes());
        for w in words {
            out.extend_from_slice(&(w.len() as u32).to_le_bytes());
            out.extend_from_slice(w.as_bytes());
        }
    }
    out.extend_from_slice(&(inner.sealed.len() as u32).to_le_bytes());
    for seg in &inner.sealed {
        seg.encode_into(&mut out);
    }
    inner.tail.encode_into(&mut out);
    out
}

/// Bytes one row takes in the encoding.
const ROW_BYTES: usize = NUM_COLUMNS.len() * 8 + STR_COLUMNS.len() * 4;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn truncated(&self, wanted: usize) -> GaeError {
        GaeError::Parse(format!(
            "history codec: truncated at offset {} (wanted {wanted} more bytes)",
            self.pos
        ))
    }

    fn take(&mut self, n: usize) -> GaeResult<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        let s = rest.get(..n).ok_or_else(|| self.truncated(n))?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> GaeResult<[u8; N]> {
        let rest = &self.bytes[self.pos..];
        let a = *rest.first_chunk::<N>().ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(a)
    }

    fn u32(&mut self) -> GaeResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> GaeResult<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Reads one segment's columns straight into an unsealed segment. The
/// row count comes from the input, so it is held to what the bytes
/// left can hold before anything is allocated for it, and every code
/// column's largest code must name a word of its dictionary.
fn decode_segment(r: &mut Reader<'_>, dicts: &[Dictionary]) -> GaeResult<Segment> {
    let rows = r.u32()? as usize;
    let left = r.bytes.len() - r.pos;
    if rows.saturating_mul(ROW_BYTES) > left {
        return Err(GaeError::Parse(format!(
            "history codec: a segment of {rows} rows overruns the {left} bytes left"
        )));
    }
    let num = (0..NUM_COLUMNS.len())
        .map(|_| (0..rows).map(|_| r.u64()).collect())
        .collect::<GaeResult<Vec<Vec<u64>>>>()?;
    let mut codes = Vec::with_capacity(STR_COLUMNS.len());
    for (col, dict) in dicts.iter().enumerate() {
        let buf: Vec<u32> = (0..rows).map(|_| r.u32()).collect::<GaeResult<_>>()?;
        if buf.iter().max().is_some_and(|m| *m as usize >= dict.len()) {
            return Err(GaeError::Parse(format!(
                "history codec: code out of range in column {:?}",
                STR_COLUMNS[col]
            )));
        }
        codes.push(buf);
    }
    Ok(Segment::from_buffers(num, codes))
}

pub(crate) fn decode(bytes: &[u8]) -> GaeResult<Inner> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(GaeError::Parse("history codec: bad magic".to_string()));
    }
    let ncols = r.u32()? as usize;
    let scols = r.u32()? as usize;
    if ncols != NUM_COLUMNS.len() || scols != STR_COLUMNS.len() {
        return Err(GaeError::Parse(format!(
            "history codec: column counts {ncols}/{scols}, want {}/{}",
            NUM_COLUMNS.len(),
            STR_COLUMNS.len()
        )));
    }
    let mut dicts = Vec::with_capacity(scols);
    for _ in 0..scols {
        let n = r.u32()? as usize;
        let mut words = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let len = r.u32()? as usize;
            let raw = r.take(len)?;
            let w = std::str::from_utf8(raw)
                .map_err(|_| GaeError::Parse("history codec: non-UTF-8 word".to_string()))?;
            words.push(w.to_string());
        }
        dicts.push(Dictionary::from_words(words));
    }
    let sealed_count = r.u32()? as usize;
    let mut sealed = Vec::with_capacity(sealed_count.min(1 << 16));
    for _ in 0..sealed_count {
        let mut seg = decode_segment(&mut r, &dicts)?;
        if seg.rows() == 0 {
            return Err(GaeError::Parse(
                "history codec: empty sealed segment".to_string(),
            ));
        }
        seg.seal();
        sealed.push(seg);
    }
    let tail = decode_segment(&mut r, &dicts)?;
    if r.pos != bytes.len() {
        return Err(GaeError::Parse(format!(
            "history codec: {} trailing bytes",
            bytes.len() - r.pos
        )));
    }
    // Recompute the derived state: per-site success counters and the
    // op counters.
    let mut inner = Inner::empty();
    inner.dicts = dicts;
    let mut rows_total = 0u64;
    for seg in sealed.iter().chain(std::iter::once(&tail)) {
        rows_total += seg.rows() as u64;
        for row in 0..seg.rows() {
            if seg.num_at(num::SUCCESS, row) != 0 {
                let site = seg.num_at(num::SITE, row);
                *inner.site_seq.entry(site).or_insert(0) += 1;
            }
        }
    }
    inner.seals = sealed.len() as u64;
    inner.appends = rows_total;
    inner.sealed = sealed;
    inner.tail = tail;
    Ok(inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_roundtrips() {
        let inner = Inner::empty();
        let bytes = encode(&inner);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.sealed.len(), 0);
        assert_eq!(back.tail.rows(), 0);
        assert!(back.site_seq.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(decode(b"nonsense"), Err(GaeError::Parse(_))));
        assert!(matches!(decode(b"GAEHIST1"), Err(GaeError::Parse(_))));
        let mut bytes = encode(&Inner::empty());
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(GaeError::Parse(_))));
        let bytes = encode(&Inner::empty());
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]),
            Err(GaeError::Parse(_))
        ));
    }
}
