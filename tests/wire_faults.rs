//! Fault paths of the wire layer (ISSUE 2 satellite): truncated
//! framing, oversized declared lengths, and invalid UTF-8 must all
//! surface as typed `GaeError`s — never a panic. The byte-level
//! mutations reuse the durable layer's crash-injection helpers.

use gae::durable::fault::{corrupt_bytes, Corruption};
use gae::rpc::http::{read_request, FrameLimits, FrameParser, HttpRequest};
use gae::types::GaeError;
use gae::wire::{parse_call, parse_response, parse_value_document, write_call, MethodCall, Value};
use proptest::prelude::*;
use std::io::{BufReader, Read};

#[test]
fn invalid_utf8_is_a_typed_parse_error() {
    // A valid document with one byte swapped for a lone continuation
    // byte, plus some classic invalid sequences.
    let mut doc = write_call(&MethodCall {
        name: "ping".into(),
        params: vec![Value::from(1u64)],
    })
    .into_bytes();
    doc[10] = 0xFF;
    for body in [
        doc.as_slice(),
        &[0xC0, 0xAF],             // overlong encoding
        &[0xED, 0xA0, 0x80],       // UTF-16 surrogate half
        &[0xF5, 0x80, 0x80, 0x80], // beyond U+10FFFF
    ] {
        assert!(
            matches!(parse_call(body), Err(GaeError::Parse(_))),
            "parse_call accepted invalid UTF-8"
        );
        assert!(
            matches!(parse_response(body), Err(GaeError::Parse(_))),
            "parse_response accepted invalid UTF-8"
        );
    }
}

#[test]
fn bad_entities_and_documents_are_typed_errors() {
    for doc in [
        "<value><int>&#xD800;</int></value>", // surrogate code point
        "<value><int>&#99999999999;</int></value>", // beyond char range
        "<value><int>&nosuch;</int></value>", // unknown entity
        "<value><int>1</int>",                // unterminated
        "<value><base64>@@@@</base64></value>", // invalid base64
        "<value><dateTime.iso8601>20250101T99:99:99</dateTime.iso8601></value>",
    ] {
        let out = parse_value_document(doc);
        assert!(out.is_err(), "{doc:?} parsed as {out:?}");
    }
}

#[test]
fn truncated_content_length_is_io_error() {
    // Declares ten body bytes, supplies five: a torn frame.
    let torn: &[u8] = b"POST /RPC2 HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
    assert!(matches!(
        read_request(&mut BufReader::new(torn)),
        Err(GaeError::Io(_))
    ));
}

#[test]
fn oversized_declared_length_is_rejected_up_front() {
    // Just past the 16 MiB body cap: a typed 413 before any
    // allocation, from both the blocking reader and the incremental
    // parser (they share `FrameLimits`).
    let huge = format!(
        "POST /RPC2 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        16 * 1024 * 1024 + 1
    );
    assert!(matches!(
        read_request(&mut BufReader::new(huge.as_bytes())),
        Err(GaeError::PayloadTooLarge(_))
    ));
    let mut parser = FrameParser::new(FrameLimits::DEFAULT);
    assert!(matches!(
        parser.feed(huge.as_bytes()),
        Err(GaeError::PayloadTooLarge(_))
    ));
    // Wider than usize itself: a parse error, not a panic.
    let absurd: &[u8] =
        b"POST /RPC2 HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n";
    assert!(matches!(
        read_request(&mut BufReader::new(absurd)),
        Err(GaeError::Parse(_))
    ));
}

#[test]
fn header_flood_is_a_typed_413() {
    // A client streaming endless header lines (no terminating blank
    // line) hits the header cap, not an unbounded buffer.
    let mut flood = String::from("POST /RPC2 HTTP/1.1\r\n");
    for i in 0..2_000 {
        flood.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(64)));
    }
    assert!(matches!(
        read_request(&mut BufReader::new(flood.as_bytes())),
        Err(GaeError::PayloadTooLarge(_))
    ));
    let mut parser = FrameParser::new(FrameLimits::DEFAULT);
    assert!(matches!(
        parser.feed(flood.as_bytes()),
        Err(GaeError::PayloadTooLarge(_))
    ));
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (1u64..256).prop_map(|bytes| Corruption::TruncateTail { bytes }),
        (0u64..512, 0u8..8).prop_map(|(offset, bit)| Corruption::FlipBit { offset, bit }),
        (1u64..256).prop_map(|bytes| Corruption::DuplicateTail { bytes }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental `FrameParser` must agree with the blocking
    /// reader on every well-formed request, no matter how the bytes
    /// are chunked — one byte at a time, odd split points, or one
    /// big slab all parse to the same frame. The blocking reader is a
    /// loop over the parser, and through a buffer of any capacity it
    /// reads the same frame and leaves a pipelined request unread.
    #[test]
    fn frame_parser_agrees_with_blocking_reader_under_any_chunking(
        method in "[a-z]{1,10}",
        arg in any::<u64>(),
        splits in proptest::collection::vec(any::<u16>(), 0..8),
        capacity in 1usize..512,
    ) {
        let body = write_call(&MethodCall {
            name: method,
            params: vec![Value::from(arg)],
        })
        .into_bytes();
        let mut raw = Vec::new();
        HttpRequest::xmlrpc(body, None)
            .write_to(&mut raw)
            .unwrap();

        let blocking = read_request(&mut BufReader::new(raw.as_slice()))
            .unwrap()
            .expect("well-formed request");
        let next = HttpRequest::xmlrpc(b"<next/>".to_vec(), Some(arg)).to_bytes();
        let pipelined = [raw.as_slice(), next.as_slice()].concat();
        let mut reader = BufReader::with_capacity(capacity, pipelined.as_slice());
        let buffered = read_request(&mut reader)
            .unwrap()
            .expect("well-formed request");
        prop_assert_eq!(&buffered, &blocking);
        let mut unread = Vec::new();
        reader.read_to_end(&mut unread).unwrap();
        prop_assert_eq!(unread, next);

        let mut cuts: Vec<usize> = splits
            .iter()
            .map(|&s| s as usize % raw.len().max(1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        let mut start = 0;
        for cut in cuts.into_iter().chain([raw.len()]) {
            let mut chunk = &raw[start..cut];
            while !chunk.is_empty() {
                let n = parser.feed(chunk).unwrap();
                chunk = &chunk[n..];
            }
            start = cut;
        }
        prop_assert!(parser.is_complete());
        let incremental = parser.take_request().unwrap();
        prop_assert_eq!(incremental, blocking);
    }

    /// Arbitrary corruption of the raw HTTP bytes must never panic
    /// the incremental parser: every outcome is a parsed frame or a
    /// typed error, even fed one byte at a time.
    #[test]
    fn corrupted_http_bytes_never_panic_the_frame_parser(
        arg in any::<u64>(),
        corruption in arb_corruption(),
    ) {
        let body = write_call(&MethodCall {
            name: "ping".into(),
            params: vec![Value::from(arg)],
        })
        .into_bytes();
        let mut raw = Vec::new();
        gae::rpc::http::HttpRequest::xmlrpc(body, None)
            .write_to(&mut raw)
            .unwrap();
        corrupt_bytes(&mut raw, &corruption);
        let mut parser = FrameParser::new(FrameLimits::DEFAULT);
        for byte in raw {
            match parser.feed(&[byte]) {
                // Typed rejection: fine, and terminal.
                Err(_) => break,
                Ok(_) if parser.is_complete() => {
                    let _ = parser.take_request();
                    break;
                }
                Ok(_) => {}
            }
        }
    }

    /// Any single corruption of a well-formed call document — torn
    /// tail, flipped bit, duplicated segment — must yield either a
    /// clean parse or a typed error. The proptest harness treats a
    /// panic as a failure, so reaching the end of the case body is
    /// the assertion.
    #[test]
    fn corrupted_call_documents_never_panic(
        method in "[a-z]{1,12}",
        arg in any::<u64>(),
        text in "[ -~]{0,40}",
        corruption in arb_corruption(),
    ) {
        let mut doc = write_call(&MethodCall {
            name: method,
            params: vec![Value::from(arg), Value::from(text)],
        })
        .into_bytes();
        corrupt_bytes(&mut doc, &corruption);
        let _ = parse_call(&doc);
        let _ = parse_response(&doc);
        if let Ok(s) = std::str::from_utf8(&doc) {
            let _ = parse_value_document(s);
        }
    }
}
