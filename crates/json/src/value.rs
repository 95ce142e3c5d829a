//! The JSON value tree and its printers.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A JSON number. The integer/float distinction is preserved so `u64`
/// counters round-trip beyond 2^53 and `f64` values keep their exact
/// bits (shortest-form printing re-parses to the same bits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// Non-negative integer token (no sign, fraction or exponent).
    U(u64),
    /// Negative integer token.
    I(i64),
    /// Anything with a fraction or exponent, or out of integer range.
    F(f64),
}

impl Num {
    /// The value as `f64` (lossy for large integers).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Num::U(u) => u as f64,
            Num::I(i) => i as f64,
            Num::F(f) => f,
        }
    }

    /// The value as `u64` if it is a non-negative integer token.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Num::U(u) => Some(u),
            Num::I(_) | Num::F(_) => None,
        }
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Num::U(u) => write!(f, "{u}"),
            Num::I(i) => write!(f, "{i}"),
            Num::F(x) if x.is_finite() => {
                // Shortest round-trip form; force a fraction or exponent
                // marker so the token re-parses as a float, keeping the
                // integer/float distinction through a round-trip.
                let s = format!("{x:?}");
                if s.contains(['.', 'e', 'E']) {
                    f.write_str(&s)
                } else {
                    write!(f, "{s}.0")
                }
            }
            // JSON has no NaN/inf tokens; match serde_json and emit null.
            Num::F(_) => f.write_str("null"),
        }
    }
}

/// An ordered JSON value. Objects preserve insertion order (struct
/// fields serialize in declaration order, like derived serde).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on non-objects) and
    /// returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value.into());
        self
    }

    /// Inserts or replaces `key` in an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(fields) => match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => fields.push((key.to_string(), value)),
            },
            other => panic!("cannot set key {key:?} on non-object {other:?}"),
        }
    }

    /// Member lookup on objects; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element lookup on arrays; `None` out of bounds or on non-arrays.
    #[must_use]
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The elements if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number (lossy for huge integers).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value if this is a non-negative integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Pretty-prints with 2-space indentation (the `results/` file
    /// layout; matches `serde_json::to_string_pretty`).
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                use fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Compact (single-line) rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

/// Array indexing; yields `null` out of bounds or on non-arrays (the
/// tamper-test idiom `v["instrs"][3]` must not panic mid-chain).
impl Index<usize> for Json {
    type Output = Json;
    fn index(&self, index: usize) -> &Json {
        self.at(index).unwrap_or(&NULL)
    }
}

/// Object member indexing; yields `null` for missing keys.
impl Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// Mutable array indexing.
///
/// # Panics
///
/// Panics on non-arrays or out of bounds (a tamper test writing past
/// the end is a bug in the test, not a case to paper over).
impl IndexMut<usize> for Json {
    fn index_mut(&mut self, index: usize) -> &mut Json {
        match self {
            Json::Arr(items) => &mut items[index],
            other => panic!("cannot index non-array {other:?} with {index}"),
        }
    }
}

/// Mutable object member indexing; inserts `null` for missing keys.
///
/// # Panics
///
/// Panics if the value is not an object.
impl IndexMut<&str> for Json {
    fn index_mut(&mut self, key: &str) -> &mut Json {
        match self {
            Json::Obj(fields) => {
                if let Some(i) = fields.iter().position(|(k, _)| k == key) {
                    return &mut fields[i].1;
                }
                fields.push((key.to_string(), Json::Null));
                &mut fields.last_mut().expect("just pushed").1
            }
            other => panic!("cannot index non-object {other:?} with key {key:?}"),
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(Num::U(u64::from(v)))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(Num::U(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(Num::U(v as u64))
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::from(i64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::Num(Num::U(v as u64))
        } else {
            Json::Num(Num::I(v))
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(Num::F(v))
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_tokens_keep_their_kind() {
        assert_eq!(Json::from(3u64).to_string(), "3");
        assert_eq!(Json::from(-3i64).to_string(), "-3");
        assert_eq!(Json::from(3.0f64).to_string(), "3.0");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn indexing_chain_is_total_and_mutation_targets_resolve() {
        let mut v = Json::obj().with(
            "instrs",
            Json::Arr(vec![Json::obj().with("operands", Json::Arr(vec![Json::from(7u64)]))]),
        );
        assert_eq!(v["instrs"][0]["operands"][0].as_u64(), Some(7));
        assert!(v["instrs"][9]["missing"].is_null());
        v["instrs"][0]["operands"][0] = Json::from(999u64);
        assert_eq!(v["instrs"][0]["operands"][0].as_u64(), Some(999));
    }

    #[test]
    fn escapes_render() {
        let s = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(s.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn pretty_matches_two_space_layout() {
        let v = Json::obj().with("a", Json::Arr(vec![Json::from(1u64)])).with("b", Json::obj());
        assert_eq!(v.to_pretty(), "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
    }
}
