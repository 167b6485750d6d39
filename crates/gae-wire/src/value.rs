//! The XML-RPC data model.

use crate::datetime::DateTime;
use crate::fault::Fault;
use gae_types::{GaeError, GaeResult};
use std::collections::BTreeMap;
use std::fmt;

/// An XML-RPC value.
///
/// Covers the six scalar types of the 1999 specification plus the two
/// widely-deployed extensions the GAE needs: `<i8>` (64-bit integers,
/// for ids and byte counts) and `<nil/>`.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `<i4>`/`<int>`: 32-bit signed integer.
    Int(i32),
    /// `<i8>` extension: 64-bit signed integer.
    Int64(i64),
    /// `<boolean>`: 0 or 1.
    Bool(bool),
    /// `<string>`.
    String(String),
    /// `<double>`: finite IEEE 754 double (XML-RPC has no NaN/Inf).
    Double(f64),
    /// `<dateTime.iso8601>`.
    DateTime(DateTime),
    /// `<base64>`: opaque bytes.
    Base64(Vec<u8>),
    /// `<struct>`: ordered map of members. `BTreeMap` gives canonical
    /// serialization order, so equal values serialize identically.
    Struct(BTreeMap<String, Value>),
    /// `<array>`.
    Array(Vec<Value>),
    /// `<nil/>` extension.
    Nil,
}

impl Value {
    /// Short name of the value's wire type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "i4",
            Value::Int64(_) => "i8",
            Value::Bool(_) => "boolean",
            Value::String(_) => "string",
            Value::Double(_) => "double",
            Value::DateTime(_) => "dateTime.iso8601",
            Value::Base64(_) => "base64",
            Value::Struct(_) => "struct",
            Value::Array(_) => "array",
            Value::Nil => "nil",
        }
    }

    /// Builds an empty struct value.
    pub fn empty_struct() -> Value {
        Value::Struct(BTreeMap::new())
    }

    /// Builds a struct from `(key, value)` pairs.
    pub fn struct_of<I, K>(members: I) -> Value
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Value::Struct(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn type_err(&self, wanted: &str) -> GaeError {
        GaeError::Parse(format!("expected {wanted}, got {}", self.type_name()))
    }

    /// Extracts an `i32`, accepting `<i4>` and in-range `<i8>`.
    pub fn as_i32(&self) -> GaeResult<i32> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Int64(v) => {
                i32::try_from(*v).map_err(|_| GaeError::Parse(format!("i8 {v} overflows i4")))
            }
            other => Err(other.type_err("i4")),
        }
    }

    /// Extracts an `i64`, accepting `<i4>` and `<i8>`.
    pub fn as_i64(&self) -> GaeResult<i64> {
        match self {
            Value::Int(v) => Ok(i64::from(*v)),
            Value::Int64(v) => Ok(*v),
            other => Err(other.type_err("i8")),
        }
    }

    /// Extracts a non-negative integer as `u64` (ids, sizes).
    pub fn as_u64(&self) -> GaeResult<u64> {
        let v = self.as_i64()?;
        u64::try_from(v).map_err(|_| GaeError::Parse(format!("negative integer {v}")))
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> GaeResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(other.type_err("boolean")),
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> GaeResult<&str> {
        match self {
            Value::String(v) => Ok(v),
            other => Err(other.type_err("string")),
        }
    }

    /// Extracts a double, accepting integers (XML-RPC clients often
    /// send `<int>` where a `<double>` is expected).
    pub fn as_f64(&self) -> GaeResult<f64> {
        match self {
            Value::Double(v) => Ok(*v),
            Value::Int(v) => Ok(f64::from(*v)),
            Value::Int64(v) => Ok(*v as f64),
            other => Err(other.type_err("double")),
        }
    }

    /// Extracts base64 bytes.
    pub fn as_bytes(&self) -> GaeResult<&[u8]> {
        match self {
            Value::Base64(v) => Ok(v),
            other => Err(other.type_err("base64")),
        }
    }

    /// Extracts an array slice.
    pub fn as_array(&self) -> GaeResult<&[Value]> {
        match self {
            Value::Array(v) => Ok(v),
            other => Err(other.type_err("array")),
        }
    }

    /// Extracts a struct map.
    pub fn as_struct(&self) -> GaeResult<&BTreeMap<String, Value>> {
        match self {
            Value::Struct(v) => Ok(v),
            other => Err(other.type_err("struct")),
        }
    }

    /// Looks up a required struct member.
    pub fn member(&self, key: &str) -> GaeResult<&Value> {
        self.as_struct()?
            .get(key)
            .ok_or_else(|| GaeError::Parse(format!("missing struct member {key:?}")))
    }

    /// Looks up an optional struct member (`None` for absent or nil).
    pub fn member_opt(&self, key: &str) -> GaeResult<Option<&Value>> {
        Ok(self
            .as_struct()?
            .get(key)
            .filter(|v| !matches!(v, Value::Nil)))
    }

    /// True for `<nil/>`.
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }
}

impl fmt::Display for Value {
    /// A compact human-readable rendering (not the wire form).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::String(v) => write!(f, "{v:?}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::DateTime(v) => write!(f, "{v}"),
            Value::Base64(v) => write!(f, "base64[{} bytes]", v.len()),
            Value::Struct(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Nil => write!(f, "nil"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int64(i64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        // Ids in the GAE are u64 but always small; saturate rather
        // than wrap in the astronomically unlikely overflow case.
        Value::Int64(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<DateTime> for Value {
    fn from(v: DateTime) -> Self {
        Value::DateTime(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Base64(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Nil,
        }
    }
}

/// An XML-RPC `methodCall`.
#[derive(Clone, PartialEq, Debug)]
pub struct MethodCall {
    /// The `methodName`, e.g. `"jobmon.job_status"`.
    pub name: String,
    /// Positional parameters.
    pub params: Vec<Value>,
}

impl MethodCall {
    /// Builds a call.
    pub fn new(name: impl Into<String>, params: Vec<Value>) -> Self {
        MethodCall {
            name: name.into(),
            params,
        }
    }

    /// Fetches parameter `i` or a descriptive fault.
    pub fn param(&self, i: usize) -> GaeResult<&Value> {
        self.params
            .get(i)
            .ok_or_else(|| GaeError::Parse(format!("{}: missing parameter {i}", self.name)))
    }
}

/// An XML-RPC `methodResponse`: either one result value or a fault.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// `<params>` with exactly one value.
    Success(Value),
    /// `<fault>`.
    Fault(Fault),
}

impl Response {
    /// Converts to a `Result`, mapping faults to [`GaeError`].
    pub fn into_result(self) -> GaeResult<Value> {
        match self {
            Response::Success(v) => Ok(v),
            Response::Fault(f) => Err(f.into_error()),
        }
    }

    /// Wraps a service result, mapping errors to faults.
    pub fn from_result(r: GaeResult<Value>) -> Response {
        match r {
            Ok(v) => Response::Success(v),
            Err(e) => Response::Fault(Fault::from_error(&e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_accept_right_types() {
        assert_eq!(Value::Int(5).as_i32().unwrap(), 5);
        assert_eq!(Value::Int64(5).as_i64().unwrap(), 5);
        assert_eq!(Value::Int(5).as_i64().unwrap(), 5);
        assert_eq!(Value::Int64(7).as_u64().unwrap(), 7);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::from("hi").as_str().unwrap(), "hi");
        assert_eq!(Value::Double(1.5).as_f64().unwrap(), 1.5);
        assert_eq!(Value::Int(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::Base64(vec![1, 2]).as_bytes().unwrap(), &[1, 2]);
    }

    #[test]
    fn accessors_reject_wrong_types() {
        assert!(Value::from("hi").as_i32().is_err());
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Bool(true).as_str().is_err());
        assert!(Value::from("x").as_f64().is_err());
        assert!(Value::Int(1).as_array().is_err());
        assert!(Value::Int(1).as_struct().is_err());
        assert!(Value::Int64(i64::from(i32::MAX) + 1).as_i32().is_err());
        assert!(Value::Int64(-1).as_u64().is_err());
    }

    #[test]
    fn struct_members() {
        let v = Value::struct_of([("a", Value::Int(1)), ("b", Value::Nil)]);
        assert_eq!(v.member("a").unwrap().as_i32().unwrap(), 1);
        assert!(v.member("missing").is_err());
        assert!(v.member_opt("b").unwrap().is_none());
        assert!(v.member_opt("missing").unwrap().is_none());
        assert!(v.member_opt("a").unwrap().is_some());
    }

    #[test]
    fn option_conversion() {
        let some: Value = Some(3i32).into();
        let none: Value = Option::<i32>::None.into();
        assert_eq!(some, Value::Int(3));
        assert!(none.is_nil());
    }

    #[test]
    fn u64_conversion_saturates() {
        assert_eq!(Value::from(u64::MAX), Value::Int64(i64::MAX));
        assert_eq!(Value::from(42u64), Value::Int64(42));
    }

    #[test]
    fn call_param_helpers() {
        let call = MethodCall::new("m", vec![Value::Int(1)]);
        assert!(call.param(0).is_ok());
        assert!(call.param(1).is_err());
    }

    #[test]
    fn response_result_mapping() {
        let ok = Response::Success(Value::Int(1)).into_result().unwrap();
        assert_eq!(ok, Value::Int(1));
        let fault = Response::Fault(Fault {
            code: 404,
            message: "gone".into(),
        });
        assert!(matches!(fault.into_result(), Err(GaeError::NotFound(_))));
        let r = Response::from_result(Err(GaeError::Unauthorized("no".into())));
        assert!(matches!(r, Response::Fault(Fault { code: 401, .. })));
    }

    #[test]
    fn display_is_compact() {
        let v = Value::struct_of([
            ("n", Value::Int(1)),
            ("s", Value::from("x")),
            ("a", Value::Array(vec![Value::Bool(true), Value::Nil])),
        ]);
        assert_eq!(v.to_string(), "{a: [true, nil], n: 1, s: \"x\"}");
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Int(0).type_name(), "i4");
        assert_eq!(Value::Nil.type_name(), "nil");
        assert_eq!(Value::empty_struct().type_name(), "struct");
    }
}
