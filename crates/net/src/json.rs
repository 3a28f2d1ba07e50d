//! A minimal, dependency-free JSON value: enough for the wire envelopes
//! and nothing more.
//!
//! Two properties matter to the protocol and are pinned by tests:
//!
//! * **Integer/float separation.** [`Json::Int`] and [`Json::Float`] are
//!   distinct variants: `i64` values serialize as bare digit runs and
//!   parse back exactly (no `f64` detour, no precision loss at the
//!   53-bit boundary), while floats always serialize with a `.` or an
//!   exponent so the parser can tell them apart (`7` is an `Int`, `7.0`
//!   a `Float`).
//! * **Float round-trips.** Finite floats serialize via Rust's
//!   shortest-round-trip formatting (`{:?}`), so parse(serialize(f))
//!   reproduces `f` bit-for-bit. Non-finite floats (JSON cannot carry
//!   them) are the *caller's* problem; [`Json::write`] panics in debug
//!   builds and emits `null` in release.

use std::fmt;

/// Nesting depth limit: a parser guard, not a protocol feature (the
/// envelopes nest 4 levels deep; a hostile peer nests a million).
const MAX_DEPTH: usize = 64;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion-ordered (serialization is deterministic; no map).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; the writers never duplicate).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize into `out` (compact form, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                out.push_str(itoa(*i).as_str());
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is shortest-round-trip and always contains
                    // a '.' or exponent, so the value parses back as a
                    // Float with identical bits.
                    let s = format!("{f:?}");
                    debug_assert!(
                        s.contains('.') || s.contains('e') || s.contains('E'),
                        "float formatting must be self-identifying: {s}"
                    );
                    out.push_str(&s);
                } else {
                    debug_assert!(false, "non-finite float has no JSON form: {f}");
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
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

    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn itoa(i: i64) -> String {
    i.to_string()
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `pos` only ever advances over whole characters (ASCII structure, or
/// one `char` of a string), so it always sits on a char boundary of
/// `src` and slicing `src[pos..]` is O(1) — the parser is linear in the
/// input.
struct Parser<'a> {
    src: &'a str,
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
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
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
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("invalid number at offset {start}"))
        } else {
            // Bare digit runs that overflow i64 fall back to f64 (JSON
            // itself doesn't bound them; the protocol never emits such).
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| format!("invalid number at offset {start}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must
                                // follow with the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err("unpaired surrogate".into());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid code point")?
                            } else {
                                char::from_u32(hi).ok_or("unpaired surrogate")?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one character of the (already valid) &str.
                    let c = self.src.get(self.pos..).and_then(|r| r.chars().next());
                    let c = c.ok_or("invalid utf-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(j: &Json) -> Json {
        Json::parse(&j.to_string()).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for j in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(i64::MAX),
            Json::Int(i64::MIN),
            Json::Float(0.1),
            Json::Float(-1234.5e-9),
            Json::Float(1e300),
            Json::Str("".into()),
            Json::Str("plain".into()),
            Json::Str("esc \" \\ \n \r \t \u{0001} 端 🦀".into()),
        ] {
            assert_eq!(roundtrip(&j), j, "{j}");
        }
    }

    #[test]
    fn int_float_distinction_survives_the_wire() {
        // 7 and 7.0 are different values to the engine; the wire keeps
        // them apart.
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Float(7.0));
        assert_eq!(Json::parse("7e0").unwrap(), Json::Float(7.0));
        assert_eq!(roundtrip(&Json::Float(7.0)), Json::Float(7.0));
        // i64 values beyond 2^53 survive exactly (no f64 detour).
        let big = (1i64 << 53) + 1;
        assert_eq!(roundtrip(&Json::Int(big)), Json::Int(big));
    }

    #[test]
    fn float_bits_roundtrip() {
        for f in [
            0.1f64,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
            2.2250738585072014e-308,
        ] {
            let back = roundtrip(&Json::Float(f));
            match back {
                Json::Float(g) => assert_eq!(g.to_bits(), f.to_bits(), "{f}"),
                other => panic!("float parsed as {other}"),
            }
        }
    }

    #[test]
    fn containers_and_lookup() {
        let doc = Json::Object(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "rows".into(),
                Json::Array(vec![Json::Int(1), Json::Null, Json::Str("x".into())]),
            ),
            (
                "nested".into(),
                Json::Object(vec![("k".into(), Json::Int(2))]),
            ),
        ]);
        let back = roundtrip(&doc);
        assert_eq!(back, doc);
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            back.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            back.get("nested")
                .and_then(|n| n.get("k"))
                .and_then(Json::as_i64),
            Some(2)
        );
        assert!(back.get("absent").is_none());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""a\u0041\u00e9\ud83e\udd80""#).unwrap(),
            Json::Str("aAé🦀".into())
        );
        assert!(Json::parse(r#""\ud83e""#).is_err(), "unpaired surrogate");
        assert!(Json::parse(r#""\ud83e\u0041""#).is_err(), "bad low half");
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"",
            "{\"a\":}",
            "[1,",
            "nul",
            "tru",
            "01x",
            "1 2",
            "{\"a\":1,}",
            "\u{0007}",
            "\"\\q\"",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth bomb hits the guard, not the stack.
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    /// The string scanner as it was before it kept the `&str`: every
    /// plain character re-validated the whole rest of the input as UTF-8
    /// (quadratic in the input). Kept as the reference the linear
    /// scanner is checked against.
    fn reference_string(bytes: &[u8]) -> Result<String, String> {
        let mut pos = 0;
        let hex4 = |pos: &mut usize| -> Result<u32, String> {
            let hex = bytes
                .get(*pos..*pos + 4)
                .ok_or("truncated \\u escape")
                .and_then(|h| std::str::from_utf8(h).map_err(|_| "invalid \\u escape"))?;
            *pos += 4;
            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())
        };
        if bytes.first() != Some(&b'"') {
            return Err("expected '\"' at offset 0".into());
        }
        pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    pos += 1;
                    let simple = match bytes.get(pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000c}',
                        Some(b'u') => {
                            pos += 1;
                            let hi = hex4(&mut pos)?;
                            out.push(if (0xD800..0xDC00).contains(&hi) {
                                if !bytes[pos..].starts_with(b"\\u") {
                                    return Err("unpaired surrogate".into());
                                }
                                pos += 2;
                                let lo = hex4(&mut pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or("invalid code point")?
                            } else {
                                char::from_u32(hi).ok_or("unpaired surrogate")?
                            });
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {pos}")),
                    };
                    out.push(simple);
                    pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&bytes[pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    pos += c.len_utf8();
                }
            }
        }
    }

    /// Random string bodies built from multi-byte characters, every
    /// escape form, surrogate pairs and a sprinkle of malformed escapes:
    /// the linear scanner agrees with the reference on every one (value
    /// or error), and every well-formed value round-trips.
    #[test]
    fn string_scanner_matches_reference() {
        const PIECES: &[&str] = &[
            "a", "Z", " ", "é", "端", "🦀", "\u{7f}", "\u{1}", r#"\""#, r"\\", r"\/", r"\n", r"\r",
            r"\t", r"\b", r"\f", r"A", r"é", r"端", r"🦀", r"\ud83e", r"\udd80", r"\ud83eA", r"\q",
            r"\u12",
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2000 {
            let mut body = String::from("\"");
            for _ in 0..(state % 24) {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                body.push_str(PIECES[(state % PIECES.len() as u64) as usize]);
            }
            body.push('"');
            let want = reference_string(body.as_bytes());
            let got = Json::parse(&body);
            match &want {
                Ok(s) => {
                    assert_eq!(got.as_ref(), Ok(&Json::Str(s.clone())), "{body}");
                    assert_eq!(roundtrip(&Json::Str(s.clone())), Json::Str(s.clone()));
                }
                Err(_) => assert!(got.is_err(), "{body} should fail like the reference"),
            }
        }
    }

    /// A multi-megabyte string body parses in linear time — the old
    /// scanner took minutes on this (quadratic re-validation).
    #[test]
    fn long_string_body_parses_in_linear_time() {
        let body = format!("\"{}\"", "ab é 端 🦀 \\n ".repeat(4 << 20 >> 4));
        assert!(body.len() >= 4 << 20);
        let t = std::time::Instant::now();
        let Json::Str(s) = Json::parse(&body).unwrap() else {
            panic!("string body parses as a string")
        };
        assert!(
            t.elapsed() < std::time::Duration::from_secs(2),
            "{:?}",
            t.elapsed()
        );
        assert_eq!(s.matches('🦀').count(), 4 << 20 >> 4);
    }
}
