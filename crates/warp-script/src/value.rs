//! WASL runtime values.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed WASL value.
///
/// Maps use ordered keys so that iteration order (and therefore anything an
/// application renders from a map) is deterministic — determinism matters
/// because Warp compares original and re-executed outputs byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// The null value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// String-keyed map with deterministic iteration order.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Creates a map value from key/value pairs.
    pub fn map(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Map(pairs.into_iter().collect())
    }

    /// PHP-style truthiness: null, false, 0, "", empty array/map are false.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty() && s != "0",
            Value::Array(a) => !a.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// True if the value is null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerces to an integer where meaningful.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// Coerces to a float where meaningful.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            Value::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// Renders the value as a string, PHP-style (arrays/maps get a compact
    /// JSON-ish rendering; this keeps `echo` deterministic).
    pub fn to_display_string(&self) -> String {
        self.display_str().into_owned()
    }

    /// [`Value::to_display_string`] without the copy when the value already
    /// is a string.
    pub fn display_str(&self) -> Cow<'_, str> {
        Cow::Owned(match self {
            Value::Str(s) => return Cow::Borrowed(s),
            Value::Null => String::new(),
            Value::Bool(b) => if *b { "1" } else { "" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Array(a) => {
                let items: Vec<String> = a.iter().map(|v| v.to_display_string()).collect();
                format!("[{}]", items.join(","))
            }
            Value::Map(m) => {
                let items: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("{k}:{}", v.to_display_string()))
                    .collect();
                format!("{{{}}}", items.join(","))
            }
        })
    }

    /// Returns the length of a string, array or map.
    pub fn len(&self) -> Option<usize> {
        match self {
            Value::Str(s) => Some(s.chars().count()),
            Value::Array(a) => Some(a.len()),
            Value::Map(m) => Some(m.len()),
            _ => None,
        }
    }

    /// True when the value has a length and that length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// Index into an array (by int) or map (by string), returning Null when
    /// the key is missing, PHP-style.
    pub fn index(&self, key: &Value) -> Value {
        self.index_ref(key).into_owned()
    }

    /// [`Value::index`] that borrows the element out of an array or map
    /// instead of copying it; the interpreter walks index chains through
    /// this and clones only the leaf it ends on.
    pub fn index_ref(&self, key: &Value) -> Cow<'_, Value> {
        let found = match (self, key) {
            (Value::Array(a), k) => match k.as_int() {
                Some(i) if i >= 0 => a.get(i as usize),
                _ => None,
            },
            (Value::Map(m), k) => m.get(&*k.display_str()),
            (Value::Str(s), k) => {
                return Cow::Owned(match k.as_int() {
                    Some(i) if i >= 0 => s
                        .chars()
                        .nth(i as usize)
                        .map(|c| Value::Str(c.to_string()))
                        .unwrap_or(Value::Null),
                    _ => Value::Null,
                })
            }
            _ => None,
        };
        found.map_or(Cow::Owned(Value::Null), Cow::Borrowed)
    }

    /// Loose equality used by `==`: numeric values compare numerically,
    /// otherwise structural equality after string coercion of scalars.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Array(a), Value::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.loose_eq(y))
            }
            (Value::Map(a), Value::Map(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.loose_eq(vb))
            }
            (Value::Array(_) | Value::Map(_), _) | (_, Value::Array(_) | Value::Map(_)) => false,
            (Value::Null, _) | (_, Value::Null) => false,
            (a, b) => {
                if let (Some(x), Some(y)) = (a.as_float(), b.as_float()) {
                    if matches!(a, Value::Str(_)) && matches!(b, Value::Str(_)) {
                        // Two strings compare as strings even if numeric.
                        return a.to_display_string() == b.to_display_string();
                    }
                    (x - y).abs() < f64::EPSILON
                } else {
                    a.to_display_string() == b.to_display_string()
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_display_string())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_php() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(!Value::str("0").is_truthy());
        assert!(Value::str("00").is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Array(vec![]).is_truthy());
        assert!(Value::Array(vec![Value::Null]).is_truthy());
    }

    #[test]
    fn indexing_is_lenient() {
        let arr = Value::Array(vec![Value::Int(10), Value::Int(20)]);
        assert_eq!(arr.index(&Value::Int(1)), Value::Int(20));
        assert_eq!(arr.index(&Value::Int(9)), Value::Null);
        assert_eq!(arr.index(&Value::str("1")), Value::Int(20));
        let map = Value::map([("k".to_string(), Value::Int(1))]);
        assert_eq!(map.index(&Value::str("k")), Value::Int(1));
        assert_eq!(map.index(&Value::str("missing")), Value::Null);
        assert_eq!(Value::str("abc").index(&Value::Int(1)), Value::str("b"));
    }

    #[test]
    fn loose_equality() {
        assert!(Value::Int(1).loose_eq(&Value::Float(1.0)));
        assert!(Value::Int(1).loose_eq(&Value::str("1")));
        assert!(!Value::str("01").loose_eq(&Value::str("1")));
        assert!(Value::Null.loose_eq(&Value::Null));
        assert!(!Value::Null.loose_eq(&Value::Int(0)));
        assert!(Value::Array(vec![Value::Int(1)]).loose_eq(&Value::Array(vec![Value::Int(1)])));
    }

    #[test]
    fn display_rendering_is_deterministic() {
        let m = Value::map([
            ("b".to_string(), Value::Int(2)),
            ("a".to_string(), Value::Int(1)),
        ]);
        assert_eq!(m.to_display_string(), "{a:1,b:2}");
        assert_eq!(Value::Bool(true).to_display_string(), "1");
        assert_eq!(Value::Bool(false).to_display_string(), "");
    }

    #[test]
    fn len_of_collections() {
        assert_eq!(Value::str("héllo").len(), Some(5));
        assert_eq!(Value::Array(vec![Value::Null; 3]).len(), Some(3));
        assert_eq!(Value::Int(3).len(), None);
    }
}
