//! A from-scratch **XML-RPC 1.0** wire codec for the GAE.
//!
//! The paper's services "have been designed as SOAP/XMLRPC web
//! services ... to enable clients to access these services in a
//! language-neutral manner" (§3). This crate implements the XML-RPC
//! side of that design without any external XML or serialization
//! dependency:
//!
//! * [`Value`] — the XML-RPC data model (`i4`, `i8` extension,
//!   `boolean`, `string`, `double`, `dateTime.iso8601`, `base64`,
//!   `struct`, `array`, `nil` extension);
//! * [`writer`] — canonical serialization of values, method calls and
//!   method responses;
//! * [`lexer`] / [`parser`] — a small, strict XML subset tokenizer and
//!   the XML-RPC grammar on top of it;
//! * [`base64`] and [`datetime`] — the two leaf encodings XML-RPC
//!   needs, also from scratch;
//! * [`Fault`] — XML-RPC faults, bridged to
//!   [`gae_types::GaeError`](../gae_types/enum.GaeError.html).
//!
//! The codec is round-trip exact: `parse(write(v)) == v` for every
//! value (verified by property tests).

#![warn(missing_docs)]

pub mod base64;
pub mod datetime;
pub mod fault;
pub mod lexer;
pub mod parser;
pub mod value;
pub mod writer;

pub use fault::Fault;
pub use parser::{parse_call, parse_response, parse_value_document};
pub use value::{MethodCall, Response, Value};
pub use writer::{write_call, write_response, write_value_document};

#[cfg(test)]
mod roundtrip_tests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy generating arbitrary XML-RPC values up to depth 4.
    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            any::<i32>().prop_map(Value::Int),
            any::<i64>().prop_map(Value::Int64),
            any::<bool>().prop_map(Value::Bool),
            // Finite doubles only: XML-RPC has no NaN/Inf representation.
            prop::num::f64::NORMAL.prop_map(Value::Double),
            Just(Value::Double(0.0)),
            ".*".prop_map(Value::String),
            prop::collection::vec(any::<u8>(), 0..64).prop_map(Value::Base64),
            (0i64..253_402_300_799i64)
                .prop_map(|s| Value::DateTime(crate::datetime::DateTime::from_unix_seconds(s))),
            Just(Value::Nil),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..8).prop_map(Value::Array),
                prop::collection::btree_map("[a-zA-Z_][a-zA-Z0-9_.-]{0,12}", inner, 0..8)
                    .prop_map(Value::Struct),
            ]
        })
    }

    proptest! {
        #[test]
        fn value_roundtrip(v in arb_value()) {
            let xml = write_value_document(&v);
            let back = parse_value_document(&xml).expect("parse back");
            prop_assert_eq!(back, v);
        }

        #[test]
        fn call_roundtrip(name in "[a-zA-Z_][a-zA-Z0-9_.]{0,20}",
                          params in prop::collection::vec(arb_value(), 0..5)) {
            let call = MethodCall { name: name.clone(), params: params.clone() };
            let xml = write_call(&call);
            let back = parse_call(xml.as_bytes()).expect("parse back");
            prop_assert_eq!(back.name, name);
            prop_assert_eq!(back.params, params);
        }

        #[test]
        fn response_roundtrip(v in arb_value()) {
            let resp = Response::Success(v.clone());
            let xml = write_response(&resp);
            match parse_response(xml.as_bytes()).expect("parse back") {
                Response::Success(got) => prop_assert_eq!(got, v),
                Response::Fault(f) => prop_assert!(false, "unexpected fault {:?}", f),
            }
        }

        /// Parsing must never panic, whatever bytes arrive: mutate a
        /// valid document at random positions and feed it back.
        #[test]
        fn mutated_documents_never_panic(
            v in arb_value(),
            mutations in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        ) {
            let mut bytes = write_call(&MethodCall::new("m.m", vec![v])).into_bytes();
            for (idx, byte) in mutations {
                let i = idx.index(bytes.len());
                bytes[i] = byte;
            }
            let _ = parse_call(&bytes);       // must return, not panic
            let _ = parse_response(&bytes);   // ditto
        }

        /// Entirely random bytes never panic the parser either.
        #[test]
        fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = parse_call(&bytes);
            let _ = parse_response(&bytes);
        }

        #[test]
        fn fault_roundtrip(code in any::<i32>(), msg in ".*") {
            let resp = Response::Fault(Fault { code, message: msg.clone() });
            let xml = write_response(&resp);
            match parse_response(xml.as_bytes()).expect("parse back") {
                Response::Fault(f) => {
                    prop_assert_eq!(f.code, code);
                    prop_assert_eq!(f.message, msg);
                }
                Response::Success(_) => prop_assert!(false, "expected fault"),
            }
        }
    }
}
