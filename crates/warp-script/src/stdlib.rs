//! Pure builtin functions available to every WASL program.
//!
//! Everything here is deterministic and side-effect free; anything with an
//! effect or a source of non-determinism is a host function instead, so
//! that the Warp application manager can interpose on it.

use crate::error::{ScriptError, ScriptResult};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A builtin's arguments: borrowed from the caller's variables where they
/// already exist there, so `len(rows)` does not copy `rows`.
pub type Args<'a, 'v> = &'a [Cow<'v, Value>];

/// Dispatches a builtin call. Returns `None` if `name` is not a builtin so
/// the interpreter can fall through to host functions.
pub fn call_builtin(name: &str, args: Args) -> Option<ScriptResult<Value>> {
    let result = match name {
        "len" | "count" | "strlen" => Some(builtin_len(args)),
        "substr" => Some(builtin_substr(args)),
        "str_replace" => Some(builtin_str_replace(args)),
        "str_contains" => Some(with2(args, |a, b| {
            Value::Bool(a.to_display_string().contains(&b.to_display_string()))
        })),
        "str_starts_with" => Some(with2(args, |a, b| {
            Value::Bool(a.to_display_string().starts_with(&b.to_display_string()))
        })),
        "str_ends_with" => Some(with2(args, |a, b| {
            Value::Bool(a.to_display_string().ends_with(&b.to_display_string()))
        })),
        "str_index_of" => Some(with2(args, |a, b| {
            match a.to_display_string().find(&b.to_display_string()) {
                Some(i) => Value::Int(i as i64),
                None => Value::Int(-1),
            }
        })),
        "split" => Some(builtin_split(args)),
        "join" => Some(builtin_join(args)),
        "trim" => Some(with1(args, |a| Value::str(a.to_display_string().trim()))),
        "upper" => Some(with1(args, |a| {
            Value::str(a.to_display_string().to_uppercase())
        })),
        "lower" => Some(with1(args, |a| {
            Value::str(a.to_display_string().to_lowercase())
        })),
        "repeat" => Some(builtin_repeat(args)),
        "htmlspecialchars" => Some(with1(args, |a| {
            Value::str(htmlspecialchars(&a.to_display_string()))
        })),
        "urlencode" => Some(with1(args, |a| {
            Value::str(urlencode(&a.to_display_string()))
        })),
        "urldecode" => Some(with1(args, |a| {
            Value::str(urldecode(&a.to_display_string()))
        })),
        "sql_escape" => Some(with1(args, |a| {
            Value::str(a.to_display_string().replace('\'', "''"))
        })),
        "str" => Some(with1(args, |a| Value::str(a.to_display_string()))),
        "int" => Some(with1(args, |a| Value::Int(a.as_int().unwrap_or(0)))),
        "is_null" => Some(with1(args, |a| Value::Bool(a.is_null()))),
        "is_array" => Some(with1(args, |a| Value::Bool(matches!(a, Value::Array(_))))),
        "is_map" => Some(with1(args, |a| Value::Bool(matches!(a, Value::Map(_))))),
        "push" => Some(builtin_push(args)),
        "array_keys" => Some(builtin_array_keys(args)),
        "array_values" => Some(builtin_array_values(args)),
        "map_has" => Some(builtin_map_has(args)),
        "map_set" => Some(builtin_map_set(args)),
        "map_remove" => Some(builtin_map_remove(args)),
        "min" => Some(builtin_min_max(args, true)),
        "max" => Some(builtin_min_max(args, false)),
        "abs" => Some(with1(args, |a| match a {
            Value::Float(f) => Value::Float(f.abs()),
            other => Value::Int(other.as_int().unwrap_or(0).abs()),
        })),
        _ => None,
    };
    result
}

fn with1(args: Args, f: impl Fn(&Value) -> Value) -> ScriptResult<Value> {
    match args.first() {
        Some(a) => Ok(f(a)),
        None => Err(ScriptError::Runtime("builtin expects 1 argument".into())),
    }
}

fn with2(args: Args, f: impl Fn(&Value, &Value) -> Value) -> ScriptResult<Value> {
    match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => Ok(f(a, b)),
        _ => Err(ScriptError::Runtime("builtin expects 2 arguments".into())),
    }
}

fn builtin_len(args: Args) -> ScriptResult<Value> {
    with1(args, |a| Value::Int(a.len().unwrap_or(0) as i64))
}

fn builtin_substr(args: Args) -> ScriptResult<Value> {
    let s = args
        .first()
        .map(|v| v.to_display_string())
        .ok_or_else(|| ScriptError::Runtime("substr expects a string".into()))?;
    let chars: Vec<char> = s.chars().collect();
    let start = args.get(1).and_then(|v| v.as_int()).unwrap_or(0).max(0) as usize;
    let len = match args.get(2).and_then(|v| v.as_int()) {
        Some(n) if n >= 0 => n as usize,
        _ => chars.len().saturating_sub(start),
    };
    let end = (start + len).min(chars.len());
    if start >= chars.len() {
        return Ok(Value::str(""));
    }
    Ok(Value::str(chars[start..end].iter().collect::<String>()))
}

fn builtin_str_replace(args: Args) -> ScriptResult<Value> {
    if args.len() < 3 {
        return Err(ScriptError::Runtime(
            "str_replace expects (needle, replacement, haystack)".into(),
        ));
    }
    let needle = args[0].to_display_string();
    let replacement = args[1].to_display_string();
    let haystack = args[2].to_display_string();
    if needle.is_empty() {
        return Ok(Value::Str(haystack));
    }
    Ok(Value::Str(haystack.replace(&needle, &replacement)))
}

fn builtin_split(args: Args) -> ScriptResult<Value> {
    with2(args, |s, sep| {
        let s = s.to_display_string();
        let sep = sep.to_display_string();
        let parts: Vec<Value> = if sep.is_empty() {
            s.chars().map(|c| Value::Str(c.to_string())).collect()
        } else {
            s.split(&sep).map(Value::str).collect()
        };
        Value::Array(parts)
    })
}

fn builtin_join(args: Args) -> ScriptResult<Value> {
    with2(args, |arr, sep| {
        let sep = sep.to_display_string();
        match arr {
            Value::Array(items) => {
                let parts: Vec<String> = items.iter().map(|v| v.to_display_string()).collect();
                Value::Str(parts.join(&sep))
            }
            other => Value::Str(other.to_display_string()),
        }
    })
}

fn builtin_repeat(args: Args) -> ScriptResult<Value> {
    with2(args, |s, n| {
        let n = n.as_int().unwrap_or(0).max(0) as usize;
        Value::Str(s.to_display_string().repeat(n.min(1_000_000)))
    })
}

fn builtin_push(args: Args) -> ScriptResult<Value> {
    if args.len() < 2 {
        return Err(ScriptError::Runtime("push expects (array, value)".into()));
    }
    let mut arr = match &*args[0] {
        Value::Array(a) => a.clone(),
        Value::Null => Vec::new(),
        other => vec![other.clone()],
    };
    arr.push(Value::clone(&args[1]));
    Ok(Value::Array(arr))
}

fn builtin_array_keys(args: Args) -> ScriptResult<Value> {
    with1(args, |a| match a {
        Value::Map(m) => Value::Array(m.keys().map(|k| Value::str(k.clone())).collect()),
        Value::Array(arr) => Value::Array((0..arr.len() as i64).map(Value::Int).collect()),
        _ => Value::Array(vec![]),
    })
}

fn builtin_array_values(args: Args) -> ScriptResult<Value> {
    with1(args, |a| match a {
        Value::Map(m) => Value::Array(m.values().cloned().collect()),
        Value::Array(arr) => Value::Array(arr.clone()),
        _ => Value::Array(vec![]),
    })
}

fn builtin_map_has(args: Args) -> ScriptResult<Value> {
    with2(args, |m, k| match m {
        Value::Map(m) => Value::Bool(m.contains_key(&k.to_display_string())),
        _ => Value::Bool(false),
    })
}

fn builtin_map_set(args: Args) -> ScriptResult<Value> {
    if args.len() < 3 {
        return Err(ScriptError::Runtime(
            "map_set expects (map, key, value)".into(),
        ));
    }
    let mut m = match &*args[0] {
        Value::Map(m) => m.clone(),
        _ => BTreeMap::new(),
    };
    m.insert(args[1].to_display_string(), Value::clone(&args[2]));
    Ok(Value::Map(m))
}

fn builtin_map_remove(args: Args) -> ScriptResult<Value> {
    with2(args, |m, k| match m {
        Value::Map(m) => {
            let mut m = m.clone();
            m.remove(&k.to_display_string());
            Value::Map(m)
        }
        other => other.clone(),
    })
}

fn builtin_min_max(args: Args, is_min: bool) -> ScriptResult<Value> {
    if args.len() < 2 {
        return Err(ScriptError::Runtime("min/max expect 2 arguments".into()));
    }
    let a = args[0].as_float().unwrap_or(0.0);
    let b = args[1].as_float().unwrap_or(0.0);
    let pick_first = if is_min { a <= b } else { a >= b };
    Ok(Value::clone(&args[if pick_first { 0 } else { 1 }]))
}

/// HTML-escapes `<`, `>`, `&`, `"` and `'`, exactly what PHP's
/// `htmlspecialchars(..., ENT_QUOTES)` does. The *absence* of a call to this
/// function is the XSS vulnerability in the paper's evaluation scenarios.
pub fn htmlspecialchars(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#039;"),
            other => out.push(other),
        }
    }
    out
}

/// Percent-encodes everything except unreserved URL characters.
pub fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Reverses [`urlencode`]. Invalid escapes are passed through untouched.
pub fn urldecode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Value]) -> Value {
        let args: Vec<_> = args.iter().map(Cow::Borrowed).collect();
        call_builtin(name, &args).unwrap().unwrap()
    }

    #[test]
    fn string_builtins() {
        assert_eq!(call("strlen", &[Value::str("héllo")]), Value::Int(5));
        assert_eq!(
            call(
                "substr",
                &[Value::str("hello"), Value::Int(1), Value::Int(3)]
            ),
            Value::str("ell")
        );
        assert_eq!(
            call("substr", &[Value::str("hello"), Value::Int(3)]),
            Value::str("lo")
        );
        assert_eq!(
            call("substr", &[Value::str("hi"), Value::Int(9)]),
            Value::str("")
        );
        assert_eq!(
            call(
                "str_replace",
                &[Value::str("a"), Value::str("b"), Value::str("banana")]
            ),
            Value::str("bbnbnb")
        );
        assert_eq!(call("upper", &[Value::str("abc")]), Value::str("ABC"));
        assert_eq!(call("trim", &[Value::str("  x ")]), Value::str("x"));
        assert_eq!(
            call("str_contains", &[Value::str("hello"), Value::str("ell")]),
            Value::Bool(true)
        );
        assert_eq!(
            call("str_index_of", &[Value::str("hello"), Value::str("zz")]),
            Value::Int(-1)
        );
        assert_eq!(
            call("repeat", &[Value::str("ab"), Value::Int(3)]),
            Value::str("ababab")
        );
    }

    #[test]
    fn split_and_join_roundtrip() {
        let parts = call("split", &[Value::str("a,b,c"), Value::str(",")]);
        assert_eq!(
            parts,
            Value::Array(vec![Value::str("a"), Value::str("b"), Value::str("c")])
        );
        assert_eq!(call("join", &[parts, Value::str("-")]), Value::str("a-b-c"));
    }

    #[test]
    fn htmlspecialchars_escapes_script_tags() {
        assert_eq!(
            htmlspecialchars("<script>alert('x')</script>"),
            "&lt;script&gt;alert(&#039;x&#039;)&lt;/script&gt;"
        );
        assert_eq!(htmlspecialchars("a & b"), "a &amp; b");
    }

    #[test]
    fn urlencode_roundtrip() {
        let original = "a b/c?d=e&f=ü";
        let encoded = urlencode(original);
        assert!(!encoded.contains(' '));
        assert_eq!(urldecode(&encoded), original);
    }

    #[test]
    fn sql_escape_doubles_quotes() {
        assert_eq!(
            call("sql_escape", &[Value::str("o'neil")]),
            Value::str("o''neil")
        );
    }

    #[test]
    fn collection_builtins() {
        let arr = call("push", &[Value::Null, Value::Int(1)]);
        let arr = call("push", &[arr, Value::Int(2)]);
        assert_eq!(call("len", std::slice::from_ref(&arr)), Value::Int(2));
        let m = call("map_set", &[Value::Null, Value::str("k"), Value::Int(5)]);
        assert_eq!(
            call("map_has", &[m.clone(), Value::str("k")]),
            Value::Bool(true)
        );
        let m2 = call("map_remove", &[m.clone(), Value::str("k")]);
        assert_eq!(call("map_has", &[m2, Value::str("k")]), Value::Bool(false));
        assert_eq!(
            call("array_keys", &[m]),
            Value::Array(vec![Value::str("k")])
        );
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(call("min", &[Value::Int(3), Value::Int(5)]), Value::Int(3));
        assert_eq!(call("max", &[Value::Int(3), Value::Int(5)]), Value::Int(5));
        assert_eq!(call("abs", &[Value::Int(-3)]), Value::Int(3));
        assert_eq!(call("int", &[Value::str("42")]), Value::Int(42));
        assert_eq!(call("int", &[Value::str("x")]), Value::Int(0));
    }

    #[test]
    fn unknown_builtin_returns_none() {
        assert!(call_builtin("db_query", &[]).is_none());
        assert!(call_builtin("echo", &[]).is_none());
    }
}
