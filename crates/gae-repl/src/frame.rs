//! The WAL record envelope, the one unit the replicated log streams.
//!
//! A record is the `{kind, body}` struct, written as an ordinary
//! gae-wire value document — the exact on-disk WAL record format
//! gae-core has always journaled, owned here so leader and followers
//! agree on bytes. A commit streams the envelopes its store took, byte
//! for byte, and a follower appends them verbatim without decoding
//! them, so follower WALs are byte-identical to the leader's by
//! construction. Records are decoded only by a recovery, which hands
//! each [`Mutation`] to the service stack.

use gae_types::{GaeError, GaeResult};
use gae_wire::lexer::escape_text;
use gae_wire::writer::write_value;
use gae_wire::{parse_value_document, Value};

/// One decoded WAL record: a journal kind plus its body document.
#[derive(Clone, Debug, PartialEq)]
pub struct Mutation {
    /// Journal record kind (`jobmon`, `plan`, `task`, `notified`,
    /// `charge`, `xfer`, …).
    pub kind: String,
    /// The record body, exactly as journaled.
    pub body: Value,
}

/// Encode one journal record as the `{kind, body}` envelope document:
/// the bytes of the two-member struct value, members in name order
/// (`body` before `kind`), written straight from the borrowed body
/// instead of through a struct that owns a copy of it.
pub fn encode_envelope(kind: &str, body: &Value) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("<?xml version=\"1.0\"?>\n");
    out.push_str("<value><struct><member><name>body</name>");
    write_value(body, &mut out);
    out.push_str("</member><member><name>kind</name><value><string>");
    out.push_str(&escape_text(kind));
    out.push_str("</string></value></member></struct></value>");
    out
}

/// Decode a WAL record back into its mutation. The body is moved out
/// of the parsed envelope, not copied: recovery decodes every record.
pub fn decode_envelope(bytes: &[u8]) -> GaeResult<Mutation> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| GaeError::Parse(format!("journal record is not UTF-8: {e}")))?;
    let mut envelope = parse_value_document(text)?;
    let kind = envelope.member("kind")?.as_str()?.to_string();
    let body = match &mut envelope {
        Value::Struct(members) => members.remove("body"),
        _ => None,
    };
    let body = body.ok_or_else(|| GaeError::Parse("missing struct member \"body\"".into()))?;
    Ok(Mutation { kind, body })
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

    /// The written-through envelope is the bytes of the struct
    /// document it stands for.
    #[test]
    fn envelopes_are_the_bytes_of_their_struct_documents() {
        use gae_wire::write_value_document;
        let mut records: Vec<Mutation> = (0..4).map(sample).collect();
        records.push(Mutation {
            kind: "a<b&c".to_string(),
            body: Value::Array(vec![Value::Nil, Value::Double(0.25)]),
        });
        for m in &records {
            assert_eq!(
                encode_envelope(&m.kind, &m.body),
                write_value_document(&Value::struct_of([
                    ("kind", Value::from(m.kind.as_str())),
                    ("body", m.body.clone()),
                ]))
            );
        }
    }

    #[test]
    fn malformed_documents_are_parse_errors() {
        assert!(decode_envelope(&[0xff, 0xfe]).is_err());
        assert!(decode_envelope(b"not a document").is_err());
        assert!(decode_envelope(b"<value><int>3</int></value>").is_err());
    }
}
