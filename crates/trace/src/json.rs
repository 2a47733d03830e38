//! A tiny JSON writer/parser — enough to emit the exporters' output and
//! to validate it in tests without an external dependency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` into a JSON string literal body (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parsed JSON value (object keys keep insertion-independent order via
/// a sorted map; duplicates keep the last value).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let unit = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            out.push(self.utf16_scalar(unit));
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "raw control byte {b:#04x} in string at byte {}",
                        self.pos
                    ))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte. All are ASCII, so the run ends on a char
                    // boundary, and each byte is validated once: linear in
                    // the input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let s = std::str::from_utf8(&rest[..run])
                        .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?;
                    out.push_str(s);
                    self.pos += run;
                }
            }
        }
    }

    /// The four hex digits at `at`, as one UTF-16 code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        self.bytes
            .get(at..at + 4)
            .and_then(|h| {
                h.iter()
                    .try_fold(0, |unit, &b| Some(unit << 4 | (b as char).to_digit(16)?))
            })
            .ok_or_else(|| format!("bad \\u escape at byte {}", at - 1))
    }

    /// The scalar a `\u` escape of `unit` stands for, with `self.pos` on
    /// its last hex digit. A high surrogate directly followed by an escaped
    /// low surrogate combines with it (consuming that escape); any other
    /// surrogate decodes to U+FFFD.
    fn utf16_scalar(&mut self, unit: u32) -> char {
        if (0xd800..0xdc00).contains(&unit)
            && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
        {
            if let Ok(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 3) {
                self.pos += 6;
                let scalar = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                return char::from_u32(scalar).expect("surrogate pairs decode to scalars");
            }
        }
        char::from_u32(unit).unwrap_or('\u{fffd}')
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_basics() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn escape_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        // What escape produces, parse accepts.
        let s = "odd \"chars\"\n\t\u{3}";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let str_of = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(str_of(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(str_of(r#""a\uD834\uDD1Eb""#), "a\u{1d11e}b");
        // Lone surrogates, either half, keep decoding to U+FFFD; a high
        // surrogate followed by another escape leaves that escape alone.
        assert_eq!(str_of(r#""\ud83dx""#), "\u{fffd}x");
        assert_eq!(str_of(r#""\ude00""#), "\u{fffd}");
        assert_eq!(str_of(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(str_of(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        assert_eq!(str_of(r#""\ud83d\n""#), "\u{fffd}\n");
        // Only hex digits make an escape; a sign is not one.
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn raw_control_bytes_in_strings_are_rejected_at_their_offset() {
        let e = parse("[\"ok\", \"a\nb\"]").unwrap_err();
        assert!(
            e.contains("control byte 0x0a") && e.contains("at byte 9"),
            "{e}"
        );
        let e = parse("\"\u{1f}\"").unwrap_err();
        assert!(e.contains("0x1f") && e.contains("at byte 1"), "{e}");
        // Escaped, the same characters are fine, and DEL is not a control
        // byte to JSON.
        assert_eq!(
            parse(r#""a\nb\u001f""#).unwrap().as_str(),
            Some("a\nb\u{1f}")
        );
        assert_eq!(parse("\"\u{7f}\"").unwrap().as_str(), Some("\u{7f}"));
    }

    #[test]
    fn string_heavy_documents_parse_in_linear_time() {
        // ~5 MB: one long string plus many short ones with multi-byte
        // scalars and escapes. Linear parsing takes milliseconds; the
        // old per-character rescan of the remaining document took hours.
        let long = r#"ab\u00e9\\\"x"#.repeat(250_000);
        let short = format!("\"{}\"", r"wörd \n ".repeat(10));
        let doc = format!("[\"{long}\",{}]", vec![short; 20_000].join(","));
        assert!(doc.len() > 4_000_000);
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let items = v.as_arr().unwrap();
        assert_eq!(items.len(), 20_001);
        assert_eq!(items[0].as_str().unwrap().chars().count(), 250_000 * 6);
        assert_eq!(items[1].as_str(), Some("wörd \n ".repeat(10).as_str()));
        assert!(elapsed.as_secs() < 10, "5 MB parse took {elapsed:?}");
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"[{"x":{"y":[[]]}}]"#).unwrap();
        let inner = v.as_arr().unwrap()[0].get("x").unwrap().get("y").unwrap();
        assert_eq!(inner.as_arr().unwrap()[0].as_arr().unwrap().len(), 0);
    }
}
