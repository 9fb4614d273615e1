//! A minimal, dependency-free JSON value that borrows from the text it
//! was parsed from.
//!
//! The workspace builds hermetically (the vendored `serde` shim is a
//! no-op derive; see `vendor/README.md`), so trace persistence carries
//! its own JSON layer. Three properties matter more than generality:
//!
//! 1. **Lossless integers.** Money is `i64` millicents and event
//!    sequence numbers are `u64`; an `f64`-backed number type would
//!    silently corrupt them past 2⁵³. [`Json::Num`] therefore stores the
//!    *lexical token* and converts on access, so `i64`/`u64`/`f64` all
//!    round-trip exactly.
//! 2. **Zero-copy decoding.** [`Json::parse`] returns a `Json<'a>` tied
//!    to its input: number tokens, object keys and strings without
//!    escapes are [`Cow::Borrowed`] slices of the text. A value is
//!    owned only when an encoder builds it (`Json::uint`, a formatted
//!    float) or when a string's escapes had to be decoded. Encoders
//!    borrow too: literal keys and entity strings cost no copy.
//! 3. **Deterministic output.** Object members keep insertion order and
//!    floats print via Rust's shortest-round-trip `Display`, so encoding
//!    the same trace twice is byte-identical — the property the replay
//!    acceptance tests pin.
//!
//! The parser is a recursive-descent reader over the RFC 8259 grammar
//! (strings with `\uXXXX` escapes and surrogate pairs included; leading
//! zeros and raw control characters rejected) with a depth limit
//! instead of unbounded recursion, and reports positions in its error
//! messages so a truncated trace file names where it broke.

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts. Trace files nest a handful
/// of levels; anything deeper is malformed input, not data.
const MAX_DEPTH: usize = 128;

/// A JSON value borrowing from the text it was parsed from (see the
/// module docs). Numbers keep their lexical form.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its token so integers survive losslessly.
    Num(Cow<'a, str>),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object; members keep insertion order for deterministic output.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// A number from an `i64` (lossless).
    pub fn int(v: i64) -> Json<'a> {
        Json::Num(v.to_string().into())
    }

    /// A number from a `u64` (lossless).
    pub fn uint(v: u64) -> Json<'a> {
        Json::Num(v.to_string().into())
    }

    /// A number from an `f64`. Finite values use Rust's shortest
    /// round-trip form; non-finite values are encoded as the strings
    /// `"NaN"` / `"inf"` / `"-inf"` (JSON has no literal for them) and
    /// [`Json::as_f64`] reads those back.
    pub fn float(v: f64) -> Json<'a> {
        if v.is_finite() {
            Json::Num(format!("{v}").into())
        } else if v.is_nan() {
            Json::str("NaN")
        } else if v > 0.0 {
            Json::str("inf")
        } else {
            Json::str("-inf")
        }
    }

    /// A string value, borrowed or owned.
    pub fn str(v: impl Into<Cow<'a, str>>) -> Json<'a> {
        Json::Str(v.into())
    }

    /// The value as `i64`, when it is a number token that parses as one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a number token that parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`: any number token, or the non-finite string
    /// spellings written by [`Json::float`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(t) => t.parse().ok(),
            Json::Str(s) => match &**s {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, when it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object members, when it is an object.
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, Json<'a>)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Look up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serialise compactly (no whitespace) — the JSONL record form.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialise with two-space indentation — the whole-file form.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(t) => out.push_str(t),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (one value, possibly surrounded by
    /// whitespace). The value borrows from `text`. Errors name the byte
    /// offset they occurred at.
    pub fn parse(text: &'a str) -> Result<Json<'a>, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!(
                "trailing content after the JSON value at byte {}",
                p.pos
            ));
        }
        Ok(value)
    }
}

impl fmt::Display for Json<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} (input ends at byte {})",
                b as char,
                self.pos,
                self.bytes.len()
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte `{}` at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Advance over a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let digits = self.digits();
        if digits == 0 {
            return Err(format!("malformed number at byte {start}"));
        }
        if digits > 1 && self.bytes[int_start] == b'0' {
            return Err(format!("leading zero in number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        // The token is ASCII, so both ends sit on char boundaries.
        Ok(Json::Num(Cow::Borrowed(&self.text[start..self.pos])))
    }

    /// A string body. Runs of plain characters are sliced out of the
    /// input whole (a quote, a backslash and every control byte are
    /// ASCII, so a run always ends on a char boundary); a string without
    /// escapes is returned borrowed, and only an escape makes it owned.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run_start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = &self.text[run_start..self.pos];
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// The character an escape sequence stands for; `pos` sits just
    /// after the backslash and ends just after the sequence.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                return if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require \uXXXX low half.
                    if self.peek() != Some(b'\\') {
                        return Err(lone_surrogate(self.pos));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(lone_surrogate(self.pos));
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(lone_surrogate(self.pos));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| lone_surrogate(self.pos))
                } else {
                    char::from_u32(hi).ok_or_else(|| lone_surrogate(self.pos))
                };
            }
            _ => return Err(format!("invalid escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(format!("invalid \\u escape at byte {}", self.pos)),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

fn lone_surrogate(pos: usize) -> String {
    format!("invalid \\u surrogate at byte {pos}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(&Json::parse(&text).unwrap(), v, "through {text}");
        }
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::str("hello \"quoted\" \\ \n tab\t ünïcode 🎉"));
        roundtrip(&Json::int(i64::MIN));
        roundtrip(&Json::uint(u64::MAX));
        // An escape at the start, middle and end of a string, and
        // multi-byte characters on either side of one: each crosses the
        // switch from the borrowed fast path to the escape loop.
        for s in [
            "\"start",
            "mid\ndle",
            "end\\",
            "\t",
            "é\"ü",
            "\u{1}🎉\r",
            "ünï\\",
            "\"🎉",
            "a\u{7f}b\u{1f}c",
        ] {
            roundtrip(&Json::str(s));
            roundtrip(&Json::Obj(vec![(s.into(), Json::str(s))]));
        }
    }

    #[test]
    fn unescaped_tokens_borrow_from_the_input() {
        let text = r#"{"key": "plain ünïcode", "n": -12.5e3, "list": ["x", 7]}"#;
        let v = Json::parse(text).unwrap();
        let borrowed = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        for (key, _) in v.as_obj().unwrap() {
            assert!(borrowed(key), "key `{key}` was copied");
        }
        let Some(Json::Str(s)) = v.get("key") else {
            panic!("string member")
        };
        assert!(borrowed(s) && s == "plain ünïcode");
        let Some(Json::Num(n)) = v.get("n") else {
            panic!("number member")
        };
        assert!(borrowed(n) && n == "-12.5e3");
        let items = v.get("list").unwrap().as_arr().unwrap();
        assert!(matches!(&items[0], Json::Str(Cow::Borrowed("x"))));
        assert!(matches!(&items[1], Json::Num(Cow::Borrowed("7"))));
    }

    #[test]
    fn integers_are_lossless() {
        // Beyond f64's 2^53 mantissa — the reason Num stores the token.
        let big = 9_007_199_254_740_993i64; // 2^53 + 1
        let v = Json::int(big);
        assert_eq!(Json::parse(&v.to_compact()).unwrap().as_i64(), Some(big));
        assert_eq!(Json::uint(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -0.0, 1e-308] {
            let v = Json::float(x);
            let back = Json::parse(&v.to_compact()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert!(Json::float(f64::NAN).as_f64().unwrap().is_nan());
        assert_eq!(Json::float(f64::INFINITY).as_f64(), Some(f64::INFINITY));
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let v = Json::Obj(vec![
            ("zebra".into(), Json::int(1)),
            (
                "alpha".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true)]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::str("v"))]),
            ),
        ]);
        roundtrip(&v);
        // Insertion order survives serialisation (determinism).
        let text = v.to_compact();
        assert!(text.find("zebra").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn accessors_and_get() {
        let v = Json::parse(r#"{"a": 1, "b": "x", "c": [true], "d": 1.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("d").unwrap().as_f64(), Some(1.5));
        assert!(v.get("missing").is_none());
        assert_eq!(v.kind(), "object");
    }

    #[test]
    fn escapes_parse() {
        // A decoded escape makes the string (or key) owned.
        let v = Json::parse(r#""a\u0041\n\t\"\\ \u00e9 \ud83c\udf89""#).unwrap();
        assert!(matches!(&v, Json::Str(Cow::Owned(s)) if s == "aA\n\t\"\\ é 🎉"));
        let v = Json::parse(r#"{"k\u0065y": "tail\n"}"#).unwrap();
        let [(key, value)] = v.as_obj().unwrap() else {
            panic!("one member")
        };
        assert!(matches!(key, Cow::Owned(k) if k == "key"));
        assert!(matches!(value, Json::Str(Cow::Owned(s)) if s == "tail\n"));
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\": }",
            "tru",
            "1.",
            "1e",
            "\"unterminated",
            "{\"a\":1} extra",
            "01x",
            "\"\\u12\"",
            "\"\\ud800\"",
            // RFC 8259: no leading zeros, no raw control characters.
            "01",
            "-01",
            "00",
            "[1, 00]",
            "{\"horizon\": 00}",
            "\"tab\tinside\"",
            "\"nul\u{0}\"",
            "\"line\nbreak\"",
            "\"\u{1f}\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("byte"), "`{bad}` -> {err}");
        }
        assert_eq!(
            Json::parse("[0, -00]").unwrap_err(),
            "leading zero in number at byte 4"
        );
        assert_eq!(
            Json::parse("\"ab\ncd\"").unwrap_err(),
            "unescaped control character in string at byte 3"
        );
        // The single-zero forms stay valid.
        for ok in ["0", "-0", "0.5", "-0.0e1", "10", "[0,0]"] {
            assert!(Json::parse(ok).is_ok(), "`{ok}` must parse");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(400) + &"]".repeat(400);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
}
