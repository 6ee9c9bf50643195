//! Minimal JSON value model, parser, and serializer (std-only).
//!
//! The serving layer speaks JSON on the wire but the workspace builds
//! offline with no external crates, so this module implements the subset
//! of RFC 8259 the API needs: the full value model, strict parsing with
//! depth/size limits (malformed bodies must become 400s, never panics or
//! unbounded work), string escapes including `\uXXXX` surrogate pairs,
//! and a canonical serializer that round-trips integers exactly up to
//! 2^53.

use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]. Deeper documents
/// are rejected (a hostile body must not overflow the stack).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects preserve insertion order (they are
/// association lists, not maps — duplicate keys are rejected at parse
/// time).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers are exact to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Why a document failed to parse. The offset is a byte position into the
/// input, for error messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the problem.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one complete JSON document; trailing content (other than
    /// whitespace) is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing content after JSON document"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number accessor.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Non-negative integer accessor: the number must be integral and
    /// exactly representable (< 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `Json::Null` (distinguishes explicit null from absent).
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialize to a compact string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience: build a number value from anything numeric.
pub fn num(n: impl Into<f64>) -> Json {
    Json::Num(n.into())
}

/// Convenience: build a number value from a usize/u64 count.
pub fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Convenience: build a string value.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// Append `n` the way [`Json::Num`] serializes: integers below 2^53
/// without a fraction, everything else in `f64`'s shortest round-trip
/// form, non-finite values as `null`. Formats into `out` directly.
pub(crate) fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-wrong encoding.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        write!(out, "{}", n as i64).expect("writing to a String cannot fail");
    } else {
        write!(out, "{n}").expect("writing to a String cannot fail");
    }
}

/// Append `s` as a JSON string literal.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    write_string_body(s, out);
    out.push('"');
}

/// Append `shown` as a JSON string literal, escaping its pieces as they
/// are written: no `String` of the whole text in between.
pub(crate) fn write_display(shown: impl fmt::Display, out: &mut String) {
    use fmt::Write;
    out.push('"');
    write!(Escaping(out), "{shown}").expect("writing to a String cannot fail");
    out.push('"');
}

/// A [`fmt::Write`] that appends what it is given as the inside of a JSON
/// string literal.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        write_string_body(s, self.0);
        Ok(())
    }
}

/// Append `s` escaped, without the quotes. Only `"`, `\` and the control
/// bytes below 0x20 need escaping, all of them ASCII, and almost no string
/// a body holds has one. So the whole string is tested first, ORing one
/// flag per byte with no branch, which the compiler vectorises, and a
/// clean one is copied whole; only a string that needs an escape is
/// walked byte by byte, copying everything between two escapes as one
/// run.
fn write_string_body(s: &str, out: &mut String) {
    use fmt::Write;
    let special = |b: u8| u8::from(b < 0x20) | u8::from(b == b'"') | u8::from(b == b'\\');
    if s.bytes().fold(0, |any, b| any | special(b)) == 0 {
        out.push_str(s);
        return;
    }
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if special(b) == 0 {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
}

/// Append `[…]` with `item` writing each element and commas in between.
pub(crate) fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {:?}", other as char))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > before
        };
        if !digits(self) {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("malformed number: no digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("malformed number: no exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii span");
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // encoding is already valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let span = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(span).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-7", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn structures_parse() {
        let v = Json::parse(r#" {"a": [1, 2, {"b": null}], "c": "x"} "#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!(arr[2].get("b").unwrap().is_null());
        assert_eq!(v.render(), r#"{"a":[1,2,{"b":null}],"c":"x"}"#);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn malformed_is_an_error_not_a_panic() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "01x",
            "\"\\q\"",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\"\\ud800\"",
            "nan",
            "+1",
            "--1",
            "1.",
            "[1]]",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(MAX_DEPTH + 10) + &"]".repeat(MAX_DEPTH + 10);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(Json::parse("5").unwrap().as_u64(), Some(5));
        assert_eq!(Json::parse("5.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    // The writers this module had before they copied runs and formatted
    // in place — one `char` at a time, a `format!` per escape and per
    // number. Kept as the reference the current ones must match byte for
    // byte (the benchmark digests response bodies).

    fn reference_string(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn reference_number(n: f64) -> String {
        if !n.is_finite() {
            "null".to_string()
        } else if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    fn assert_string_is_the_old_string(text: &str) {
        let mut out = String::from("x");
        write_string(text, &mut out);
        assert_eq!(out[1..], reference_string(text), "{text:?}");
        assert_eq!(Json::Str(text.to_string()).render(), out[1..], "{text:?}");
        assert_eq!(
            Json::parse(&out[1..]).unwrap_or_else(|e| panic!("{text:?}: {e}")),
            Json::Str(text.to_string())
        );
    }

    fn assert_number_is_the_old_number(n: f64) {
        let mut out = String::from("x");
        write_number(n, &mut out);
        assert_eq!(out[1..], reference_number(n), "{n:?}");
        assert_eq!(Json::Num(n).render(), out[1..], "{n:?}");
        match Json::parse(&out[1..]).unwrap_or_else(|e| panic!("{n:?}: {e}")) {
            Json::Null => assert!(!n.is_finite(), "{n:?}"),
            // `==`, so that -0.0, written "0", is its own round trip.
            parsed => assert_eq!(parsed.as_f64(), Some(n), "{n:?}"),
        }
    }

    /// Characters the writer treats specially, their neighbours, and
    /// multi-byte sequences whose bytes must pass through unsplit.
    const ALPHABET: [char; 24] = [
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        ' ',
        '\u{7f}',
        'a',
        'Z',
        '0',
        'é',
        'ß',
        '\u{80}',
        '€',
        '\u{2028}',
        '\u{2029}',
        '😀',
        '\u{10ffff}',
    ];

    #[test]
    fn string_writer_matches_the_reference_on_every_special_case() {
        assert_string_is_the_old_string("");
        assert_string_is_the_old_string("plain ascii, no escapes at all");
        assert_string_is_the_old_string("\"\"\\\\\"");
        assert_string_is_the_old_string("US$ 77 billion / \"quoted\" \\ back\tslash\n");
        for code in 0..0x20u32 {
            let c = char::from_u32(code).unwrap();
            assert_string_is_the_old_string(&c.to_string());
            // At the start, in the middle and at the end of a run.
            assert_string_is_the_old_string(&format!("{c}é{c}{c}😀 tail{c}"));
        }
        for c in ALPHABET {
            assert_string_is_the_old_string(&format!("a{c}"));
            assert_string_is_the_old_string(&format!("{c}\u{2028}{c}"));
        }
    }

    /// Every ASCII byte and three multi-byte characters, each at the
    /// start, in the middle and at the end of clean text of every length
    /// up to 40: whatever width the clean-string test reads at a time,
    /// the special byte falls in each lane of a chunk and in the tail.
    /// Through [`write_display`] too, which is handed the three pieces
    /// one at a time.
    #[test]
    fn string_writer_matches_the_reference_at_every_position() {
        let clean: String = ('a'..='z').chain('0'..='9').cycle().take(40).collect();
        let specials = (0..0x80u8).map(char::from).chain(['é', '\u{2028}', '😀']);
        for c in specials {
            for len in 0..=40 {
                for at in [0, len / 2, len] {
                    let (head, tail) = clean[..len].split_at(at);
                    let text = format!("{head}{c}{tail}");
                    assert_string_is_the_old_string(&text);
                    let mut pieces = String::new();
                    write_display(format_args!("{head}{c}{tail}"), &mut pieces);
                    assert_eq!(pieces, reference_string(&text), "{text:?}");
                }
            }
        }
    }

    #[test]
    fn number_writer_matches_the_reference_on_every_special_case() {
        const TWO_53: f64 = 9_007_199_254_740_992.0;
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            10.0,
            1234567.0,
            TWO_53 - 1.0,
            TWO_53,
            TWO_53 + 2.0,
            -(TWO_53 - 1.0),
            -TWO_53,
            i64::MAX as f64,
            u64::MAX as f64,
            0.5,
            -0.25,
            0.1 + 0.2,
            1.0 / 3.0,
            0.010_460_251_046_025_104,
            1e21,
            1e300,
            -1e-7,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_number_is_the_old_number(n);
        }
    }

    proptest::proptest! {
        #[test]
        fn string_writer_matches_the_reference(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..48),
        ) {
            let text: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
            assert_string_is_the_old_string(&text);
        }

        #[test]
        fn number_writer_matches_the_reference(
            bits in proptest::any::<u64>(),
            integer in proptest::any::<i64>(),
            scale in 0u32..64,
        ) {
            // Every bit pattern is some f64: subnormals, NaNs, infinities.
            assert_number_is_the_old_number(f64::from_bits(bits));
            // Integers of every magnitude, on both sides of 2^53.
            assert_number_is_the_old_number((integer >> scale) as f64);
            assert_number_is_the_old_number((integer >> scale) as f64 + 0.5);
        }
    }
}
