//! Wire framing for the replicated log.
//!
//! Two document shapes, both ordinary gae-wire value documents:
//!
//! * the **record envelope** `{kind, body}` — the exact on-disk WAL
//!   record format gae-core has always journaled, now owned here so
//!   leader and followers agree on bytes;
//! * the **commit batch** `{commit, records: [{kind, body}…]}` — what
//!   the leader streams per commit. A batch with an empty record list
//!   is meaningful: checkpoints advance the commit index without
//!   records, and followers must stay in index lockstep.
//!
//! Round-tripping is exact: `encode_envelope(decode_envelope(b)) == b`
//! for any document this module produced, which is what makes follower
//! WALs byte-identical to the leader's.

use crate::machine::Mutation;
use gae_types::{GaeError, GaeResult};
use gae_wire::{parse_value_document, write_value_document, Value};

/// The `{kind, body}` struct of one record.
fn envelope(kind: &str, body: &Value) -> Value {
    Value::struct_of([("kind", Value::from(kind)), ("body", body.clone())])
}

/// The record an envelope struct holds.
fn mutation(envelope: &Value) -> GaeResult<Mutation> {
    Ok(Mutation {
        kind: envelope.member("kind")?.as_str()?.to_string(),
        body: envelope.member("body")?.clone(),
    })
}

/// Encode one journal record as the `{kind, body}` envelope document.
pub fn encode_envelope(kind: &str, body: &Value) -> String {
    write_value_document(&envelope(kind, body))
}

/// Decode a WAL record back into its mutation.
pub fn decode_envelope(bytes: &[u8]) -> GaeResult<Mutation> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| GaeError::Parse(format!("journal record is not UTF-8: {e}")))?;
    mutation(&parse_value_document(text)?)
}

/// Encode the batch the leader streams for one commit.
pub fn encode_batch(commit_index: u64, records: &[Mutation]) -> String {
    let records = records.iter().map(|m| envelope(&m.kind, &m.body));
    write_value_document(&Value::struct_of([
        ("commit", Value::from(commit_index)),
        ("records", Value::Array(records.collect())),
    ]))
}

/// Decode a streamed commit batch: `(commit_index, records)`.
pub fn decode_batch(doc: &str) -> GaeResult<(u64, Vec<Mutation>)> {
    let value = parse_value_document(doc)?;
    let commit_index = value.member("commit")?.as_u64()?;
    let records = value.member("records")?.as_array()?.iter().map(mutation);
    Ok((commit_index, records.collect::<GaeResult<_>>()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Mutation {
        Mutation {
            kind: format!("op{}", n % 3),
            body: Value::struct_of([
                ("n", Value::from(n)),
                ("name", Value::from(format!("record-{n}").as_str())),
            ]),
        }
    }

    #[test]
    fn envelope_roundtrips_exactly() {
        let m = sample(7);
        let doc = encode_envelope(&m.kind, &m.body);
        let back = decode_envelope(doc.as_bytes()).expect("decode");
        assert_eq!(back, m);
        // Byte-exact re-encode: follower WALs mirror the leader's.
        assert_eq!(encode_envelope(&back.kind, &back.body), doc);
    }

    #[test]
    fn batch_roundtrips_including_empty() {
        let records: Vec<Mutation> = (0..4).map(sample).collect();
        let doc = encode_batch(42, &records);
        let (commit, back) = decode_batch(&doc).expect("decode");
        assert_eq!(commit, 42);
        assert_eq!(back, records);

        let (commit, back) = decode_batch(&encode_batch(9, &[])).expect("decode empty");
        assert_eq!(commit, 9);
        assert!(back.is_empty());
    }

    #[test]
    fn malformed_documents_are_parse_errors() {
        assert!(decode_envelope(&[0xff, 0xfe]).is_err());
        assert!(decode_envelope(b"not a document").is_err());
        assert!(decode_batch("{}").is_err());
    }
}
