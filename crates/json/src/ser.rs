//! Serialization of [`Json`] trees to text, and the number and string
//! writers that [`crate::ToJson::write_json`] shares with them.

use std::fmt::Write;

use crate::Json;

/// Appends the compact form of `value` to `out`.
pub(crate) fn write_compact(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) => write_number(*n, out),
        Json::String(s) => write_string(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Appends the pretty (two-space indented) form of `value` to `out`.
pub(crate) fn write_pretty(value: &Json, indent: usize, out: &mut String) {
    match value {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Json::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(key, out);
                out.push_str(": ");
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        leaf => write_compact(leaf, out),
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Writes a number. Rust's shortest-round-trip `Display` already prints
/// integer-valued doubles without a fractional part (`2`, not `2.0`) and
/// never produces locale-dependent output. Non-finite values (which
/// [`crate::ToJson`] for `f64` should have mapped to null already)
/// degrade to `null` rather than emitting invalid JSON.
///
/// Integral values below 2^53 in magnitude print through `i64`'s
/// `Display`, which gives the same digits as `f64`'s (`f64` never uses
/// an exponent) for less work. Both paths format straight into `out`.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < EXACT_INT {
        // JSON has no negative zero distinct from zero worth preserving,
        // and `-0` would parse back as `0` anyway; the cast normalizes it
        // for byte-stable output across arithmetic that flips the sign bit.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// 2^53: every integer of smaller magnitude is exact in an `f64`.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Writes a quoted string, escaping `"`, `\` and control characters.
/// Runs of characters that need no escape are copied with one
/// `push_str` each, so a string with nothing to escape costs one copy.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut clean_from = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1F) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[clean_from..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(v: &Json) -> String {
        v.to_text()
    }

    #[test]
    fn scalars() {
        assert_eq!(compact(&Json::Null), "null");
        assert_eq!(compact(&Json::Bool(true)), "true");
        assert_eq!(compact(&Json::Number(-1.5)), "-1.5");
        assert_eq!(compact(&Json::Number(-0.0)), "0");
        assert_eq!(compact(&Json::String("hi".into())), "\"hi\"");
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        assert_eq!(compact(&Json::String("\u{1}".into())), "\"\\u0001\"");
    }

    #[test]
    fn pretty_matches_expected_layout() {
        let v = Json::object([
            ("a", Json::Number(1.0)),
            ("b", Json::Array(vec![Json::Number(1.0), Json::Null])),
            ("c", Json::Array(vec![])),
            ("d", Json::Object(vec![])),
        ]);
        assert_eq!(
            v.to_text_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    null\n  ],\n  \"c\": [],\n  \"d\": {}\n}\n"
        );
    }
}
