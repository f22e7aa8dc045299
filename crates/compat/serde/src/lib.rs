//! Offline stand-in for the `serde` 1.x surface this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a minimal serde: the [`Serialize`] trait writes JSON text
//! directly (no `Serializer` abstraction — JSON is the only format any
//! crate here emits). Nothing in this workspace parses serialized data
//! back, so the crate has no reading side. The derive macro lives in the
//! sibling `serde_derive` crate and follows serde's data model: structs
//! become objects, newtype structs are transparent, enums are
//! externally tagged (`"Unit"`, `{"Variant": …}`), and `#[serde(skip)]`
//! omits a field.
//!
//! [`json::to_string`] is the entry point the telemetry stack uses to
//! produce JSONL records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};

pub use serde_derive::Serialize;

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);
}

/// JSON encoding helpers.
pub mod json {
    use super::Serialize;

    /// Serializes `value` to a JSON string.
    ///
    /// ```
    /// assert_eq!(serde::json::to_string(&vec![1u32, 2]), "[1,2]");
    /// assert_eq!(serde::json::to_string(&Some("a\"b")), "\"a\\\"b\"");
    /// ```
    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.serialize_json(&mut out);
        out
    }

    /// Appends `s` as a JSON string literal (quoted, escaped).
    pub fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Appends a finite float using Rust's shortest round-trip
    /// formatting; non-finite values become `null` (JSON has no
    /// NaN/Infinity).
    pub fn write_f64(out: &mut String, v: f64) {
        if v.is_finite() {
            let mut buf = format!("{v:?}");
            // `{:?}` prints `1.0` for integral floats, which is valid
            // JSON; nothing to fix up.
            if buf == "-0.0" {
                buf = "-0.0".to_string();
            }
            out.push_str(&buf);
        } else {
            out.push_str("null");
        }
    }
}

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(itoa_buffer(*self as i128).as_str());
            }
        }
    )*};
}
serialize_int!(i8, i16, i32, i64, isize);

macro_rules! serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) {
                out.push_str(utoa_buffer(*self as u128).as_str());
            }
        }
    )*};
}
serialize_uint!(u8, u16, u32, u64, usize, u128);

impl Serialize for i128 {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(itoa_buffer(*self).as_str());
    }
}

fn itoa_buffer(v: i128) -> String {
    v.to_string()
}

fn utoa_buffer(v: u128) -> String {
    v.to_string()
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) {
        json::write_f64(out, *self);
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) {
        json::write_f64(out, f64::from(*self));
    }
}

impl Serialize for str {
    fn serialize_json(&self, out: &mut String) {
        json::write_escaped(out, self);
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        json::write_escaped(out, self);
    }
}

impl Serialize for char {
    fn serialize_json(&self, out: &mut String) {
        let mut buf = [0u8; 4];
        json::write_escaped(out, self.encode_utf8(&mut buf));
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_json(&self, out: &mut String) {
        (**self).serialize_json(out)
    }
}

fn serialize_seq<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out)
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize_json(&self, out: &mut String) {
        serialize_seq(self.iter(), out)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        self.0.serialize_json(out);
        out.push(',');
        self.1.serialize_json(out);
        out.push(']');
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    /// JSON object keys must be strings; non-string keys are serialized
    /// and, when not already a string literal, wrapped in quotes (the
    /// convention `serde_json` uses for integer map keys).
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let key = json::to_string(k);
            if key.starts_with('"') {
                out.push_str(&key);
            } else {
                json::write_escaped(out, &key);
            }
            out.push(':');
            v.serialize_json(out);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(json::to_string(&42u64), "42");
        assert_eq!(json::to_string(&-7i32), "-7");
        assert_eq!(json::to_string(&true), "true");
        assert_eq!(json::to_string(&1.5f64), "1.5");
        assert_eq!(json::to_string(&f64::NAN), "null");
        assert_eq!(json::to_string("hi"), "\"hi\"");
    }

    #[test]
    fn containers() {
        assert_eq!(json::to_string(&vec![1u8, 2, 3]), "[1,2,3]");
        assert_eq!(json::to_string(&Option::<u8>::None), "null");
        assert_eq!(json::to_string(&Some(4u8)), "4");
        let map: BTreeMap<u64, &str> = [(2, "b"), (1, "a")].into_iter().collect();
        assert_eq!(json::to_string(&map), "{\"1\":\"a\",\"2\":\"b\"}");
        let smap: BTreeMap<String, u8> = [("k".to_string(), 9)].into_iter().collect();
        assert_eq!(json::to_string(&smap), "{\"k\":9}");
    }

    #[test]
    fn escaping() {
        assert_eq!(json::to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json::to_string(&'\u{1}'), "\"\\u0001\"");
    }

    #[test]
    fn float_round_trip_format() {
        assert_eq!(json::to_string(&0.1f64), "0.1");
        assert_eq!(json::to_string(&2.0f64), "2.0");
        assert_eq!(json::to_string(&1e300f64), "1e300");
    }
}
