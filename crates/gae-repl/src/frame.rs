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
use gae_wire::lexer::escape_text;
use gae_wire::writer::write_value;
use gae_wire::{parse_value_document, Value};

/// Opens a document: the XML declaration, with room for a small one.
fn document() -> String {
    let mut out = String::with_capacity(128);
    out.push_str("<?xml version=\"1.0\"?>\n");
    out
}

/// Writes the `{kind, body}` struct of one record as a `<value>` —
/// the bytes of the two-member struct value, members in name order
/// (`body` before `kind`), written straight from the borrowed body
/// instead of through a struct that owns a copy of it.
fn write_envelope(kind: &str, body: &Value, out: &mut String) {
    out.push_str("<value><struct><member><name>body</name>");
    write_value(body, out);
    out.push_str("</member><member><name>kind</name><value><string>");
    out.push_str(&escape_text(kind));
    out.push_str("</string></value></member></struct></value>");
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
    let mut out = document();
    write_envelope(kind, body, &mut out);
    out
}

/// Decode a WAL record back into its mutation.
pub fn decode_envelope(bytes: &[u8]) -> GaeResult<Mutation> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| GaeError::Parse(format!("journal record is not UTF-8: {e}")))?;
    mutation(&parse_value_document(text)?)
}

/// Encode the batch the leader streams for one commit: the struct
/// `{commit, records}`, members in name order.
pub fn encode_batch(commit_index: u64, records: &[Mutation]) -> String {
    let mut out = document();
    out.push_str("<value><struct><member><name>commit</name>");
    write_value(&Value::from(commit_index), &mut out);
    out.push_str("</member><member><name>records</name><value><array><data>");
    for m in records {
        write_envelope(&m.kind, &m.body, &mut out);
    }
    out.push_str("</data></array></value></member></struct></value>");
    out
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

    /// The written-through envelope and batch are the bytes of the
    /// struct documents they stand for.
    #[test]
    fn envelopes_are_the_bytes_of_their_struct_documents() {
        use gae_wire::write_value_document;
        let envelope = |m: &Mutation| {
            Value::struct_of([
                ("kind", Value::from(m.kind.as_str())),
                ("body", m.body.clone()),
            ])
        };
        let mut records: Vec<Mutation> = (0..4).map(sample).collect();
        records.push(Mutation {
            kind: "a<b&c".to_string(),
            body: Value::Array(vec![Value::Nil, Value::Double(0.25)]),
        });
        for m in &records {
            assert_eq!(
                encode_envelope(&m.kind, &m.body),
                write_value_document(&envelope(m))
            );
        }
        for (commit, records) in [(0, &records[..0]), (1 << 40, &records[..])] {
            let oracle = write_value_document(&Value::struct_of([
                ("commit", Value::from(commit)),
                (
                    "records",
                    Value::Array(records.iter().map(envelope).collect()),
                ),
            ]));
            assert_eq!(encode_batch(commit, records), oracle);
        }
    }

    #[test]
    fn malformed_documents_are_parse_errors() {
        assert!(decode_envelope(&[0xff, 0xfe]).is_err());
        assert!(decode_envelope(b"not a document").is_err());
        assert!(decode_batch("{}").is_err());
    }
}
