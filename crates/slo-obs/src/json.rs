//! The workspace's one JSON codec: a value type, a linear-time parser,
//! a compact writer and a two-space pretty writer. The wire protocol,
//! the serve journal, the Chrome trace exporter and checker, and the
//! benchmark trajectory file all read and write JSON through it.
//!
//! Objects keep insertion order (the wire reply's field order is part
//! of the protocol), and a number written without fraction or exponent
//! parses to an exact [`JsonValue::Int`], so `u64` cycle counts
//! round-trip. `write_escaped` is the only string escaper.

use std::fmt::Write as _;

/// Nesting depth at which the parser gives up, so hostile input cannot
/// exhaust the stack.
const MAX_DEPTH: usize = 128;

/// A parsed (or to-be-written) JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent, kept exactly.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document (or insertion) order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with these fields, in this order.
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, JsonValue)>) -> JsonValue {
        let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        JsonValue::Obj(fields.collect())
    }

    /// Object field lookup (the first field named `key`).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Set an object field, replaced in place if present and appended
    /// if not; returns the stored value. Panics if `self` is not an
    /// object.
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut JsonValue {
        let JsonValue::Obj(fields) = self else {
            panic!("JsonValue::set on a non-object");
        };
        let at = fields
            .iter()
            .position(|(k, _)| k == key)
            .unwrap_or_else(|| {
                fields.push((key.to_string(), JsonValue::Null));
                fields.len() - 1
            });
        fields[at].1 = value.into();
        &mut fields[at].1
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The compact form: no whitespace, one line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The pretty form: two-space indentation, `"key": value`, no
    /// trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Write compactly (`indent` is `None`) or pretty at nesting level
    /// `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Num(n) => write_f64(out, *n),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                write_seq(out, indent, "[]", items, |out, v, ind| v.write(out, ind))
            }
            JsonValue::Obj(fields) => write_seq(out, indent, "{}", fields, |out, (k, v), ind| {
                write_escaped(out, k);
                out.push_str(if ind.is_some() { ": " } else { ":" });
                v.write(out, ind);
            }),
        }
    }
}

/// Write `items` between `brackets`, comma-separated; pretty mode puts
/// each item on its own line, one level deeper than the brackets.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    brackets: &str,
    items: &[T],
    item: impl Fn(&mut String, &T, Option<usize>),
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    out.push_str(&brackets[..1]);
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = indent {
            newline(out, level + 1);
        }
        item(out, it, indent.map(|l| l + 1));
    }
    if let (Some(level), false) = (indent, items.is_empty()) {
        newline(out, level);
    }
    out.push_str(&brackets[1..]);
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for JsonValue {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}
from! {
    bool => |b| JsonValue::Bool(b),
    f64 => |n| JsonValue::Num(n),
    u32 => |i| JsonValue::Int(i.into()),
    u64 => |i| JsonValue::Int(i.into()),
    i64 => |i| JsonValue::Int(i.into()),
    usize => |i| JsonValue::Int(i as i128),
    &str => |s| JsonValue::Str(s.to_string()),
    String => |s| JsonValue::Str(s),
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// Append `s` as a quoted JSON string: `"` `\` newline, carriage return
/// and tab get two-character escapes, other control characters
/// `\u00XX`, everything else (non-ASCII included) is copied.
fn write_escaped(out: &mut String, s: &str) {
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

/// Append a float in Rust's shortest round-trip form (never an
/// exponent); JSON has no NaN or infinity, so those write `null`.
fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Parse one JSON document, in time linear in its length. Errors carry
/// a byte offset.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `b` if it is next (after whitespace).
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.skip_ws();
        if depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        let start = self.pos;
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let fields = self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                Ok(JsonValue::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(JsonValue::Arr(self.items(b']', |p| p.value(depth + 1))?))
            }
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => {
                let rest = &self.text.as_bytes()[start..];
                self.pos += rest
                    .iter()
                    .take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                    .count();
                let s = &self.text[start..self.pos];
                match s.parse::<i128>() {
                    Ok(i) => Ok(JsonValue::Int(i)),
                    Err(_) => s
                        .parse()
                        .map(JsonValue::Num)
                        .map_err(|_| format!("invalid number at byte {start}")),
                }
            }
            _ => Err(format!("unexpected input at byte {start}")),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if !self.text[self.pos..].starts_with(lit) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += lit.len();
        Ok(v)
    }

    /// Comma-separated `item`s up to the `close` bracket (the opening
    /// one already consumed).
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    /// A quoted string. Unescaped runs are copied as slices of the
    /// (already UTF-8) input, so the cost is linear in their length.
    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    let at = self.pos;
                    self.pos += 2;
                    match self.text.as_bytes().get(at + 1) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // Surrogates (which `write_escaped` never
                            // emits) decode to U+FFFD.
                            let code = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {at}")),
                    }
                    run = self.pos;
                }
                Some(0..=0x1f) => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":true,"e":null},"f":""}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&JsonValue::Null));
        assert_eq!(v.get("f").unwrap().as_str(), Some(""));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,2,]",
            "[1,]",
            "{} trailing",
            "\"unterminated",
            "-",
            "1e",
            "+1",
            "1-2",
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "{1:2}",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"tab\there\"",
            "tru",
            "nul",
        ] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0, 1, u64::MAX - 1, u64::MAX] {
            let text = JsonValue::from(n).to_json();
            assert_eq!(text, n.to_string());
            assert_eq!(parse_json(&text).unwrap().as_u64(), Some(n));
        }
        let min = parse_json(&i64::MIN.to_string()).unwrap();
        assert_eq!(min, JsonValue::Int(i64::MIN.into()));
        assert_eq!(min.as_u64(), None);
        assert_eq!(
            parse_json("2.0").unwrap().as_u64(),
            None,
            "not an integer literal"
        );
        assert_eq!(parse_json("1e3").unwrap().as_num(), Some(1000.0));
        // Past i128, integers fall back to the nearest float.
        let huge = "1".repeat(45);
        assert_eq!(parse_json(&huge).unwrap().as_num(), huge.parse().ok());
    }

    #[test]
    fn adversarial_strings_round_trip() {
        let nasty = [
            "",
            "plain",
            "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}\u{7f}",
            "\"types\":999,\"status\":\"optimized\"",
            "\\\"replayed\\\":true",
            "é ß 日 🦀 \u{fffd}",
            "ends with backslash \\",
        ];
        for s in nasty {
            let text = JsonValue::from(s).to_json();
            assert!(!text.contains('\n'), "{text}");
            assert_eq!(parse_json(&text).unwrap(), JsonValue::from(s), "{text}");
        }
        let mut escaped = String::new();
        write_escaped(&mut escaped, "a\"\\\n\u{1}é");
        assert_eq!(escaped, r#""a\"\\\n\u0001é""#);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse_json(r#""\u00e9\ud800x\u0041\/\b\f""#).unwrap();
        assert_eq!(v.as_str(), Some("é\u{fffd}xA/\u{8}\u{c}"));
    }

    #[test]
    fn objects_keep_insertion_order_and_set_replaces_in_place() {
        let mut o = JsonValue::object([("z", 1u64.into()), ("a", JsonValue::Null)]);
        o.set("m", "x");
        o.set("z", true);
        assert_eq!(o.to_json(), r#"{"z":true,"a":null,"m":"x"}"#);
        assert_eq!(parse_json(&o.to_json()).unwrap(), o);
    }

    #[test]
    fn pretty_form_indents_two_spaces() {
        let doc = JsonValue::object([
            ("a", JsonValue::Arr(vec![1u64.into(), 2.5.into()])),
            ("e", JsonValue::object([])),
            ("n", f64::NAN.into()),
        ]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"a\": [\n    1,\n    2.5\n  ],\n  \"e\": {},\n  \"n\": null\n}"
        );
        assert_eq!(JsonValue::Arr(Vec::new()).to_pretty(), "[]");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000);
        assert!(parse_json(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
    }
}
