//! Canonical XML-RPC serialization.
//!
//! The writer emits structural whitespace between elements (newlines)
//! but **never** inside scalar content, so values round-trip exactly.
//! `f64` values use Rust's shortest round-trip formatting, which the
//! parser reads back bit-exactly.

use crate::base64;
use crate::fault::Fault;
use crate::lexer::escape_text;
use crate::value::{MethodCall, Response, Value};
use std::fmt::{Display, Write as _};

/// Appends `<open>x<close>`, formatting `x` straight into `out` instead
/// of into a temporary `String` first. The tags go in as plain pushes:
/// that is cheaper than passing them through the formatter.
fn push_formatted(out: &mut String, open: &str, x: impl Display, close: &str) {
    out.push_str(open);
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{x}");
    out.push_str(close);
}

/// Serializes one value into an `<value>...</value>` fragment,
/// appending to `out`.
pub fn write_value(v: &Value, out: &mut String) {
    out.push_str("<value>");
    match v {
        Value::Int(n) => push_formatted(out, "<i4>", n, "</i4>"),
        Value::Int64(n) => push_formatted(out, "<i8>", n, "</i8>"),
        Value::Bool(b) => {
            out.push_str("<boolean>");
            out.push(if *b { '1' } else { '0' });
            out.push_str("</boolean>");
        }
        Value::String(s) => {
            out.push_str("<string>");
            out.push_str(&escape_text(s));
            out.push_str("</string>");
        }
        Value::Double(d) => {
            debug_assert!(d.is_finite(), "XML-RPC cannot carry NaN/Inf");
            push_formatted(out, "<double>", d, "</double>");
        }
        Value::DateTime(dt) => push_formatted(out, "<dateTime.iso8601>", dt, "</dateTime.iso8601>"),
        Value::Base64(bytes) => {
            out.push_str("<base64>");
            out.push_str(&base64::encode(bytes));
            out.push_str("</base64>");
        }
        Value::Struct(members) => {
            out.push_str("<struct>");
            for (name, value) in members {
                out.push_str("<member><name>");
                out.push_str(&escape_text(name));
                out.push_str("</name>");
                write_value(value, out);
                out.push_str("</member>");
            }
            out.push_str("</struct>");
        }
        Value::Array(items) => {
            out.push_str("<array><data>");
            for item in items {
                write_value(item, out);
            }
            out.push_str("</data></array>");
        }
        Value::Nil => out.push_str("<nil/>"),
    }
    out.push_str("</value>");
}

/// Serializes a single value as a standalone document (used by tests
/// and by the monitoring repository's persistence layer).
pub fn write_value_document(v: &Value) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("<?xml version=\"1.0\"?>\n");
    write_value(v, &mut out);
    out
}

/// Serializes a `methodCall` document.
pub fn write_call(call: &MethodCall) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("<?xml version=\"1.0\"?>\n<methodCall>\n<methodName>");
    out.push_str(&escape_text(&call.name));
    out.push_str("</methodName>\n<params>\n");
    for p in &call.params {
        out.push_str("<param>");
        write_value(p, &mut out);
        out.push_str("</param>\n");
    }
    out.push_str("</params>\n</methodCall>\n");
    out
}

/// Serializes a `methodResponse` document.
pub fn write_response(resp: &Response) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("<?xml version=\"1.0\"?>\n<methodResponse>\n");
    match resp {
        Response::Success(v) => {
            out.push_str("<params>\n<param>");
            write_value(v, &mut out);
            out.push_str("</param>\n</params>\n");
        }
        Response::Fault(Fault { code, message }) => {
            out.push_str("<fault>");
            let fault_value = Value::struct_of([
                ("faultCode", Value::Int(*code)),
                ("faultString", Value::String(message.clone())),
            ]);
            write_value(&fault_value, &mut out);
            out.push_str("</fault>\n");
        }
    }
    out.push_str("</methodResponse>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_xml(v: &Value) -> String {
        let mut s = String::new();
        write_value(v, &mut s);
        s
    }

    #[test]
    fn scalar_forms() {
        assert_eq!(value_xml(&Value::Int(-7)), "<value><i4>-7</i4></value>");
        assert_eq!(
            value_xml(&Value::Int64(1 << 40)),
            "<value><i8>1099511627776</i8></value>"
        );
        assert_eq!(
            value_xml(&Value::Bool(true)),
            "<value><boolean>1</boolean></value>"
        );
        assert_eq!(
            value_xml(&Value::Bool(false)),
            "<value><boolean>0</boolean></value>"
        );
        assert_eq!(
            value_xml(&Value::from("x")),
            "<value><string>x</string></value>"
        );
        assert_eq!(
            value_xml(&Value::Double(1.5)),
            "<value><double>1.5</double></value>"
        );
        assert_eq!(value_xml(&Value::Nil), "<value><nil/></value>");
        assert_eq!(
            value_xml(&Value::Base64(b"foo".to_vec())),
            "<value><base64>Zm9v</base64></value>"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            value_xml(&Value::from("a<b&c")),
            "<value><string>a&lt;b&amp;c</string></value>"
        );
    }

    #[test]
    fn struct_members_in_btree_order() {
        let v = Value::struct_of([("b", Value::Int(2)), ("a", Value::Int(1))]);
        assert_eq!(
            value_xml(&v),
            "<value><struct><member><name>a</name><value><i4>1</i4></value></member>\
             <member><name>b</name><value><i4>2</i4></value></member></struct></value>"
        );
    }

    #[test]
    fn array_form() {
        let v = Value::Array(vec![Value::Int(1), Value::from("x")]);
        assert_eq!(
            value_xml(&v),
            "<value><array><data><value><i4>1</i4></value>\
             <value><string>x</string></value></data></array></value>"
        );
    }

    #[test]
    fn call_document_shape() {
        let xml = write_call(&MethodCall::new("jobmon.status", vec![Value::Int(3)]));
        assert!(xml.starts_with("<?xml version=\"1.0\"?>"));
        assert!(xml.contains("<methodName>jobmon.status</methodName>"));
        assert!(xml.contains("<param><value><i4>3</i4></value></param>"));
        assert!(xml.trim_end().ends_with("</methodCall>"));
    }

    #[test]
    fn fault_document_shape() {
        let xml = write_response(&Response::Fault(Fault::new(4, "Too many parameters.")));
        assert!(xml.contains("<fault>"));
        assert!(xml.contains("<name>faultCode</name><value><i4>4</i4></value>"));
        assert!(xml.contains(
            "<name>faultString</name><value><string>Too many parameters.</string></value>"
        ));
        assert!(!xml.contains("<params>"));
    }

    #[test]
    fn success_document_shape() {
        let xml = write_response(&Response::Success(Value::from("ok")));
        assert!(xml.contains("<params>"));
        assert!(xml.contains("<value><string>ok</string></value>"));
    }
}
