//! The one JSON format of every durable store, wire message and report:
//! objects written field by field in call order ([`JsonObject`]), and flat
//! objects read back by [`parse_flat_object`]. The workspace has no
//! serialization dependency, by design.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// `s` as a JSON string literal, quoted and escaped, appended to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON object written one field at a time, keys in call order, with no
/// whitespace, starting from [`JsonObject::default`]. Values are strings,
/// numbers and booleans; [`JsonObject::raw`] takes an already-encoded value
/// for the few nested outputs.
#[derive(Debug, Default)]
pub struct JsonObject(String);

impl JsonObject {
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        push_json_str(&mut self.0, key);
        self.0.push(':');
        &mut self.0
    }

    /// A string field, escaped.
    pub fn str(&mut self, key: &str, val: &str) -> &mut JsonObject {
        push_json_str(self.key(key), val);
        self
    }

    /// A number field, written as its `Display` text (pass
    /// `format_args!("{x:.2}")` to fix a float's precision).
    pub fn num(&mut self, key: &str, val: impl Display) -> &mut JsonObject {
        let _ = write!(self.key(key), "{val}");
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, val: bool) -> &mut JsonObject {
        self.num(key, val)
    }

    /// A field whose value is already JSON: a nested object or array, or
    /// `null`. Written as is.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut JsonObject {
        self.key(key).push_str(json);
        self
    }

    /// The encoded object; the writer is left empty.
    pub fn finish(&mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

/// A scalar value in a flat object.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    Str(String),
    Num(u64),
    Bool(bool),
}

/// Parsed flat object with typed accessors. Each accessor returns `None`
/// when the key is absent *or* holds a value of a different type — a
/// schema mismatch reads the same as a missing field, which is the
/// skip-don't-error posture every JSONL reader here takes.
pub struct Fields(BTreeMap<String, Field>);

impl Fields {
    /// The non-negative integer at `key`, if present with that type.
    pub fn num(&self, key: &str) -> Option<u64> {
        match self.0.get(key) {
            Some(Field::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The string at `key`, if present with that type.
    pub fn str(&self, key: &str) -> Option<String> {
        match self.0.get(key) {
            Some(Field::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// The boolean at `key`, if present with that type.
    pub fn bool(&self, key: &str) -> Option<bool> {
        match self.0.get(key) {
            Some(Field::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one flat JSON object — string keys, scalar values (string /
/// non-negative integer / bool). No nesting, no arrays, no floats: no
/// store or request writes them, and rejecting them keeps the parser small
/// and the failure mode crisp (`None`, line skipped). Trailing bytes
/// after the closing brace — two records fused by a torn write — also
/// yield `None`.
pub fn parse_flat_object(line: &str) -> Option<Fields> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut map = BTreeMap::new();
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' => {
                chars.next();
            }
            _ => {}
        }
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let val = match chars.peek()? {
            '"' => Field::Str(parse_string(&mut chars)?),
            't' | 'f' => {
                let word: String =
                    std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
                match word.as_str() {
                    "true" => Field::Bool(true),
                    "false" => Field::Bool(false),
                    _ => return None,
                }
            }
            c if c.is_ascii_digit() => {
                let digits: String =
                    std::iter::from_fn(|| chars.next_if(char::is_ascii_digit)).collect();
                Field::Num(digits.parse().ok()?)
            }
            _ => return None,
        };
        map.insert(key, val);
        skip_ws(&mut chars);
    }
    // Anything after the closing brace (other than whitespace, already
    // trimmed) means the line is garbled — e.g. two records fused by a
    // torn write.
    if chars.next().is_some() {
        return None;
    }
    Some(Fields(map))
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.next_if(|c| c.is_whitespace()).is_some() {}
}

/// Parse a JSON string literal (cursor on the opening quote).
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).map_while(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_write_fields_in_call_order_and_read_back() {
        let line = JsonObject::default()
            .str("name", "needs \"escaping\"\n\u{1}")
            .num("n", 42u64)
            .num("pct", format_args!("{:.2}", 1.0 / 3.0))
            .bool("ok", true)
            .raw("none", "null")
            .finish();
        assert_eq!(
            line,
            r#"{"name":"needs \"escaping\"\n\u0001","n":42,"pct":0.33,"ok":true,"none":null}"#
        );
        assert_eq!(JsonObject::default().finish(), "{}");
        let mut nested = JsonObject::default();
        nested.num("a", 1);
        let outer = JsonObject::default().raw("inner", &nested.finish()).finish();
        assert_eq!(outer, r#"{"inner":{"a":1}}"#);

        let flat = JsonObject::default().str("s", "x\ty\u{7}").num("n", 7).bool("b", false).finish();
        let f = parse_flat_object(&flat).expect("a flat object parses");
        assert_eq!(f.str("s").as_deref(), Some("x\ty\u{7}"));
        assert_eq!((f.num("n"), f.bool("b")), (Some(7), Some(false)));
        assert_eq!(f.str("n"), None, "a type mismatch reads as absent");
    }

    #[test]
    fn garbled_and_nested_objects_do_not_parse() {
        for line in ["", "not json", r#"{"a":1"#, r#"{"a":{"b":1}}"#, r#"{"a":1.5}"#] {
            assert!(parse_flat_object(line).is_none(), "{line}");
        }
        assert!(parse_flat_object(r#" { "a" : 1 , "b" : "x" } "#).is_some(), "whitespace");
    }
}
