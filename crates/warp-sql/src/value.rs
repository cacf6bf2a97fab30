//! SQL values and their comparison/coercion semantics.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed SQL value.
///
/// `Value` deliberately implements a total ordering (NULL sorts first, then
/// booleans, integers/floats, then text) so that rows can be sorted and used
/// as keys deterministically, which the repair machinery relies on when
/// comparing query results before and after re-execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
}

impl Value {
    /// Creates a [`Value::Text`] from anything string-like.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Returns true if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a SQL boolean (NULL and zero are false).
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Text(s) => !s.is_empty(),
        }
    }

    /// Returns the value as an integer if it is numeric or a numeric string.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Text(s) => s.trim().parse().ok(),
            Value::Null => None,
        }
    }

    /// Returns the value as a float if it is numeric or a numeric string.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            Value::Text(s) => s.trim().parse().ok(),
            Value::Null => None,
        }
    }

    /// Renders the value the way it appears in a result set (no quoting).
    pub fn as_display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Text(s) => s.clone(),
        }
    }

    /// The inverse of [`Value::as_display_string`]: every value that can
    /// render as `text`, for callers that hold only a rendering (a
    /// partition key) and need index probes for the values behind it. A
    /// superset is fine — the caller re-checks each row — a miss is not:
    /// every `v` has a candidate equal to it in
    /// `Value::displaying(&v.as_display_string())`. Numbers are offered
    /// both ways because a large Float displays digits that name a
    /// different Int.
    pub fn displaying(text: &str) -> Vec<Value> {
        let mut values = vec![Value::text(text)];
        match text {
            "" => values.push(Value::Null),
            "true" => values.push(Value::Bool(true)),
            "false" => values.push(Value::Bool(false)),
            _ => {}
        }
        values.extend(text.parse().ok().map(Value::Int));
        values.extend(text.parse().ok().map(Value::Float));
        values
    }

    /// Feeds the value to a result fingerprint
    /// ([`crate::QueryResult::fingerprint`]). Unlike [`Hash`], which has to
    /// agree with `Eq` and so cannot tell `TRUE` from `1`, this is tagged
    /// by type: values an application can tell apart fingerprint apart.
    /// Fingerprints are persisted with every logged query and compared
    /// during repair, so this encoding is a format, and it must not drift
    /// with `Hash`. An integral Float in `i64` range goes in as the Int it
    /// renders as; any other Float has a tag of its own and goes in bit for
    /// bit, so 1.25 and 1.75 fingerprint apart. (Logs written when every
    /// Float went in truncated need no format bump: a fingerprint that no
    /// longer matches only makes repair re-execute more.)
    pub fn fingerprint_into<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) if *f == f.trunc() && *f >= -I64_LIMIT && *f < I64_LIMIT => {
                2u8.hash(state);
                (*f as i64).hash(state);
            }
            Value::Float(f) => {
                4u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }

    /// Renders the value as a SQL literal (text is quoted and escaped).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }

    /// SQL equality: NULL is not equal to anything (including NULL); numeric
    /// types compare by value across Int/Float/Bool; text compares exactly.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other) == Ordering::Equal)
    }

    /// Total ordering used for ORDER BY and for deterministic result
    /// comparison. NULL sorts before every other value, text after every
    /// number; numbers (Bool as 0/1, Int, Float) compare by exact
    /// mathematical value, with NaN equal to itself and above every other
    /// number.
    ///
    /// Nothing is compared through a lossy conversion: going through f64
    /// would collapse neighbouring integers above 2^53 — the time-travel
    /// layer's validity predicates compare logical timestamps right at
    /// `i64::MAX` ("infinity"), where f64 rounding made `INF > INF - 1`
    /// come out false — and would make equality non-transitive across
    /// Int and Float, which `Eq`, `Ord` and `Hash` (the storage indexes key
    /// on values) all forbid.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
            (Text(_), _) => Ordering::Greater,
            (_, Text(_)) => Ordering::Less,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or_else(|| {
                // At least one NaN: equal to NaN, above everything else.
                a.is_nan().cmp(&b.is_nan())
            }),
            (Float(f), b) => cmp_int_float(b.integer(), *f).reverse(),
            (a, Float(f)) => cmp_int_float(a.integer(), *f),
            (a, b) => a.integer().cmp(&b.integer()),
        }
    }

    /// The exact integer value of a Bool or Int (0 for anything else; only
    /// called on those two).
    fn integer(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            Value::Bool(b) => i64::from(*b),
            _ => 0,
        }
    }
}

/// 2^63 as an f64: the first float above every i64.
const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0;

/// Compares an integer with a float exactly (no rounding of the integer).
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() || f >= I64_LIMIT {
        return Ordering::Less;
    }
    if f < -I64_LIMIT {
        return Ordering::Greater;
    }
    // In range, so the truncation converts exactly.
    let whole = f.trunc();
    i.cmp(&(whole as i64))
        .then_with(|| 0.0.partial_cmp(&(f - whole)).unwrap_or(Ordering::Equal))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal && self.is_null() == other.is_null()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

/// Consistent with `Eq`: values that compare equal hash equally, so a Bool
/// and an integral Float hash as the Int they equal. This is the key hash
/// of the storage indexes only; result fingerprints have their own
/// encoding ([`Value::fingerprint_into`]).
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(_) | Value::Int(_) => {
                2u8.hash(state);
                self.integer().hash(state);
            }
            Value::Float(f) if f.is_nan() => 1u8.hash(state),
            Value::Float(f) if *f == f.trunc() && *f >= -I64_LIMIT && *f < I64_LIMIT => {
                2u8.hash(state);
                (*f as i64).hash(state);
            }
            Value::Float(f) => {
                4u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_display_string())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(3).is_truthy());
        assert!(!Value::text("").is_truthy());
        assert!(Value::text("x").is_truthy());
        assert!(!Value::Bool(false).is_truthy());
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Int(1), Value::Int(2));
    }

    #[test]
    fn null_equality_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn ordering_null_first_text_last() {
        let mut vals = [
            Value::text("b"),
            Value::Int(5),
            Value::Null,
            Value::text("a"),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(5));
        assert_eq!(vals[2], Value::text("a"));
        assert_eq!(vals[3], Value::text("b"));
    }

    #[test]
    fn literals_are_escaped() {
        assert_eq!(Value::text("o'neil").to_sql_literal(), "'o''neil'");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Int(7).to_sql_literal(), "7");
    }

    #[test]
    fn numeric_string_coercion() {
        assert_eq!(Value::text("42").as_int(), Some(42));
        assert_eq!(Value::text("4.5").as_float(), Some(4.5));
        assert_eq!(Value::text("nope").as_int(), None);
    }

    /// Int-to-int comparison must be exact beyond f64's 2^53 mantissa —
    /// the time-travel layer compares timestamps right at i64::MAX, where
    /// f64 rounding once made `MAX > MAX - 1` come out false (and
    /// `Value::Int(MAX) == Value::Int(MAX - 1)` come out true).
    #[test]
    fn int_comparison_is_exact_at_i64_extremes() {
        use std::cmp::Ordering;
        let max = Value::Int(i64::MAX);
        let max1 = Value::Int(i64::MAX - 1);
        assert_eq!(max.cmp_total(&max1), Ordering::Greater);
        assert_eq!(max1.cmp_total(&max), Ordering::Less);
        assert_eq!(max.cmp_total(&Value::Int(i64::MAX)), Ordering::Equal);
        assert_ne!(max, max1);
        assert_eq!(max.sql_eq(&max1), Some(false));
        let big = 1i64 << 53;
        assert_eq!(
            Value::Int(big).cmp_total(&Value::Int(big + 1)),
            Ordering::Less
        );
    }

    fn hash_of(v: &Value) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Mixed-type values around every boundary where the old comparison went
    /// through f64: 0/1 (Bool), ±2^53 (f64 mantissa), ±2^63 (i64 range),
    /// signed zero, NaN and the infinities.
    fn mixed_values() -> Vec<Value> {
        let big = 1i64 << 53;
        let mut vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::text(""),
            Value::text("1"),
            Value::text("a"),
        ];
        for i in [
            0,
            1,
            -1,
            2,
            big - 1,
            big,
            big + 1,
            -big,
            -big - 1,
            i64::MAX,
            i64::MAX - 1,
            i64::MIN,
        ] {
            vals.push(Value::Int(i));
            vals.push(Value::Float(i as f64));
        }
        for f in [
            -0.0,
            0.5,
            1.5,
            -1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
        ] {
            vals.push(Value::Float(f));
        }
        vals
    }

    #[test]
    fn equal_values_hash_equally() {
        let vals = mixed_values();
        for a in &vals {
            for b in &vals {
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?} but hashes differ");
                }
            }
        }
        // The cross-type equalities the engine relies on really are equal.
        assert_eq!(hash_of(&Value::Bool(true)), hash_of(&Value::Int(1)));
        assert_eq!(hash_of(&Value::Float(1.0)), hash_of(&Value::Int(1)));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Int(0)));
        assert_ne!(Value::Float(1.5), Value::Int(1));
    }

    #[test]
    fn every_value_is_among_the_values_displaying_its_rendering() {
        for v in mixed_values() {
            let text = v.as_display_string();
            let candidates = Value::displaying(&text);
            assert!(
                candidates
                    .iter()
                    .any(|c| *c == v && c.is_null() == v.is_null()),
                "{v:?} renders as {text:?}, which offers only {candidates:?}"
            );
            for c in &candidates {
                // A candidate that does not render back is wasted, not wrong;
                // the exact inverses must all be there.
                if c.as_display_string() == text {
                    assert!(candidates.contains(c));
                }
            }
        }
    }

    #[test]
    fn fingerprints_tell_apart_what_eq_does_not() {
        fn fp(v: &Value) -> u64 {
            use std::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            v.fingerprint_into(&mut h);
            h.finish()
        }
        // Equal under Eq (one index bucket), rendered "true" and "1".
        assert_eq!(Value::Bool(true), Value::Int(1));
        assert_ne!(fp(&Value::Bool(true)), fp(&Value::Int(1)));
        assert_ne!(fp(&Value::Bool(false)), fp(&Value::Int(0)));
        assert_ne!(fp(&Value::Null), fp(&Value::text("")));
        assert_ne!(fp(&Value::Int(1)), fp(&Value::text("1")));
        // An integral Float renders as the Int and fingerprints as it.
        assert_eq!(fp(&Value::Float(2.0)), fp(&Value::Int(2)));
        // A fraction is not truncated away.
        assert_ne!(fp(&Value::Float(1.25)), fp(&Value::Float(1.75)));
        assert_ne!(fp(&Value::Float(1.25)), fp(&Value::Int(1)));
        assert_ne!(fp(&Value::Float(1.75)), fp(&Value::Int(1)));
    }

    #[test]
    fn ordering_is_total_and_transitive_across_types() {
        use std::cmp::Ordering;
        let vals = mixed_values();
        for a in &vals {
            assert_eq!(a.cmp_total(a), Ordering::Equal, "{a:?}");
            for b in &vals {
                assert_eq!(a.cmp_total(b), b.cmp_total(a).reverse(), "{a:?} vs {b:?}");
                for c in &vals {
                    if a.cmp_total(b) != Ordering::Greater && b.cmp_total(c) != Ordering::Greater {
                        assert_ne!(a.cmp_total(c), Ordering::Greater, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
        // Above 2^53 an Int no longer equals the Float its neighbour rounds to.
        let big = 1i64 << 53;
        assert_eq!(Value::Int(big), Value::Float(big as f64));
        assert_ne!(Value::Int(big + 1), Value::Float(big as f64));
        assert_eq!(
            Value::Int(i64::MAX).cmp_total(&Value::Float(i64::MAX as f64)),
            Ordering::Less
        );
    }
}
