//! A minimal JSON value type with a parser and a compact single-line
//! writer, plus the [`Envelope`] framing used by the `roofd` service's
//! JSON-lines protocol.
//!
//! The workspace builds offline with no serialization crates, and until
//! now only needed to *write* JSON (the sweep manifest is hand-rolled in
//! `experiments::manifest`). The roofline-analysis service also has to
//! *read* it — requests arrive as one JSON object per line, and cached
//! manifests are parsed back when results are served from the on-disk
//! store — so this module provides the missing half: a small recursive
//! descent parser over a [`Json`] tree, a deterministic compact renderer
//! (object key order is preserved, never re-sorted), and the
//! version-tagged [`Envelope`] that frames every request and response.
//!
//! This is deliberately not a general-purpose JSON library: numbers are
//! `f64` (plenty for millisecond timings and counter values), there is no
//! streaming, and rendering is always compact (JSON-lines forbids raw
//! newlines inside a frame; they are escaped).

use std::fmt;

/// A parsed JSON value.
///
/// Objects preserve insertion order (`Vec` of pairs, not a map) so that
/// rendering is deterministic and envelopes round-trip byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; JSON does not distinguish integers from floats.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for a numeric value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Looks up a key in an object; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    ///
    /// Newlines inside strings are escaped, so the output never contains
    /// a raw `\n` — a rendered value is always exactly one JSON-lines
    /// frame.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&render_number(*n)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] (with a byte offset) on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Renders a number the way the rest of the repo writes them: integral
/// values without a fractional part (`12`, not `12.0`).
fn render_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional fallback.
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A JSON parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input at which it was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("malformed number `{text}`")))
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Combine UTF-16 surrogate pairs; a lone
                            // surrogate becomes the replacement character.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (low.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined).unwrap_or('\u{fffd}')
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // One pass over the plain run up to the next stop byte;
                    // every stop byte is ASCII, so the run is whole chars.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("malformed \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }
}

/// Protocol version tag carried by every envelope.
pub const PROTOCOL_VERSION: u64 = 1;

/// One frame of a JSON-lines protocol: a version tag, a message kind, an
/// optional client-chosen sequence id (echoed back so clients can match
/// responses to requests), and arbitrary named fields.
///
/// On the wire an envelope is a single-line JSON object:
///
/// ```text
/// {"v":1,"kind":"run","seq":"c1-0","experiment":"E12","platform":"snb"}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Message kind — the request command or response class.
    pub kind: String,
    /// Client-chosen correlation id, echoed in responses.
    pub seq: Option<String>,
    /// All remaining fields, in insertion order.
    pub fields: Vec<(String, Json)>,
}

impl Envelope {
    /// Creates an empty envelope of the given kind.
    pub fn new(kind: impl Into<String>) -> Self {
        Envelope {
            kind: kind.into(),
            seq: None,
            fields: Vec::new(),
        }
    }

    /// Sets the correlation id (builder style).
    #[must_use]
    pub fn seq(mut self, seq: impl Into<String>) -> Self {
        self.seq = Some(seq.into());
        self
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn field(mut self, name: impl Into<String>, value: Json) -> Self {
        self.fields.push((name.into(), value));
        self
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Renders the envelope as one JSON-lines frame (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut pairs = vec![
            ("v".to_string(), Json::num(PROTOCOL_VERSION as f64)),
            ("kind".to_string(), Json::str(&self.kind)),
        ];
        if let Some(seq) = &self.seq {
            pairs.push(("seq".to_string(), Json::str(seq)));
        }
        pairs.extend(self.fields.iter().cloned());
        Json::Obj(pairs).render()
    }

    /// Parses one JSON-lines frame.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the line is not a JSON object, carries
    /// an unsupported `v`, or lacks a string `kind`.
    pub fn parse_line(line: &str) -> Result<Envelope, JsonError> {
        let value = Json::parse(line)?;
        let Json::Obj(pairs) = value else {
            return Err(JsonError {
                message: "envelope must be a JSON object".into(),
                offset: 0,
            });
        };
        let mut kind = None;
        let mut seq = None;
        let mut fields = Vec::new();
        let mut version = None;
        for (k, v) in pairs {
            match k.as_str() {
                "v" => version = v.as_u64(),
                "kind" => kind = v.as_str().map(str::to_string),
                "seq" => seq = v.as_str().map(str::to_string),
                _ => fields.push((k, v)),
            }
        }
        match version {
            Some(PROTOCOL_VERSION) => {}
            Some(other) => {
                return Err(JsonError {
                    message: format!(
                        "unsupported protocol version {other} (this build speaks {PROTOCOL_VERSION})"
                    ),
                    offset: 0,
                })
            }
            None => {
                return Err(JsonError {
                    message: "envelope lacks a numeric `v` version tag".into(),
                    offset: 0,
                })
            }
        }
        let Some(kind) = kind else {
            return Err(JsonError {
                message: "envelope lacks a string `kind`".into(),
                offset: 0,
            });
        };
        Ok(Envelope { kind, seq, fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.25", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn integral_floats_render_without_fraction() {
        assert_eq!(Json::num(12.0).render(), "12");
        assert_eq!(Json::num(1.72).render(), "1.72");
        assert_eq!(Json::parse("1e3").unwrap().render(), "1000");
    }

    #[test]
    fn nested_structure_round_trips_preserving_order() {
        let text = r#"{"b":[1,2,{"x":null}],"a":"z","flag":true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.render(), text);
        assert_eq!(v.get("a").unwrap().as_str(), Some("z"));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::str("line1\nline2\t\"quoted\" \\ done");
        let rendered = v.render();
        assert!(!rendered.contains('\n'), "rendered frame must be one line");
        assert_eq!(Json::parse(&rendered).unwrap(), v);
        // Unicode escapes, including a surrogate pair.
        assert_eq!(
            Json::parse(r#""A😀""#).unwrap().as_str(),
            Some("A\u{1f600}")
        );
    }

    #[test]
    fn whitespace_tolerated_garbage_rejected() {
        assert!(Json::parse("  { \"a\" : [ 1 , 2 ] }  ").is_ok());
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        let err = Json::parse("[1, oops]").unwrap_err();
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"42\"").unwrap().as_u64(), None);
    }

    #[test]
    fn manifest_json_is_parseable() {
        // The shape `experiments::manifest` writes — the service parses
        // this when serving results from the on-disk store.
        let text = "{\n  \"platform\": \"snb\",\n  \"total\": 1,\n  \"experiments\": [\n    {\"id\": \"E1\", \"status\": \"pass\", \"elapsed_ms\": 6}\n  ]\n}\n";
        let v = Json::parse(text).unwrap();
        let entry = &v.get("experiments").unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("id").unwrap().as_str(), Some("E1"));
        assert_eq!(entry.get("elapsed_ms").unwrap().as_u64(), Some(6));
    }

    #[test]
    fn envelope_round_trips() {
        let env = Envelope::new("run")
            .seq("c1-0")
            .field("experiment", Json::str("E12"))
            .field("platform", Json::str("snb+drift=0.12,seed=7"));
        let line = env.to_line();
        assert!(line.starts_with("{\"v\":1,\"kind\":\"run\",\"seq\":\"c1-0\""), "{line}");
        let back = Envelope::parse_line(&line).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.get("experiment").unwrap().as_str(), Some("E12"));
    }

    #[test]
    fn envelope_rejects_bad_frames() {
        assert!(Envelope::parse_line("[1,2]").is_err());
        assert!(Envelope::parse_line("{\"kind\":\"run\"}").is_err(), "missing v");
        let err = Envelope::parse_line("{\"v\":9,\"kind\":\"run\"}").unwrap_err();
        assert!(err.to_string().contains("unsupported protocol version"), "{err}");
        assert!(Envelope::parse_line("{\"v\":1}").is_err(), "missing kind");
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        for (text, message, offset) in [
            // The raw control byte's own offset, after a 2-byte char.
            ("\"ab\u{e9}\u{1}cd\"", "raw control character in string", 5),
            ("[\"x\",\"\n\"]", "raw control character in string", 6),
            // An unterminated string fails at the end of the input.
            ("\"abc\u{1f600}", "unterminated string", 8),
            ("{\"k\":\"v\\\"", "unterminated string", 9),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.message, message, "{text:?}");
            assert_eq!(err.offset, offset, "{text:?}");
        }
    }

    fn ch(range: std::ops::Range<u32>) -> impl Strategy<Value = char> {
        range.prop_map(|c| char::from_u32(c).expect("scalar value"))
    }

    /// Any char a string may hold: ASCII, 2-, 3- and 4-byte UTF-8, the
    /// two characters that need escaping, and every control character.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            ch(0x20..0x7f),
            ch(0x80..0x800),
            ch(0x800..0xd800),
            ch(0xe000..0x1_0000),
            ch(0x1_0000..0x11_0000),
            Just('"'),
            Just('\\'),
            ch(0..0x20),
        ]
    }

    /// A char that needs no escape inside a string literal.
    fn plain_char() -> impl Strategy<Value = char> {
        prop_oneof![
            ch(0x20..0x22),
            ch(0x23..0x5c),
            ch(0x5d..0x7f),
            ch(0x80..0xd800),
            ch(0xe000..0x11_0000),
        ]
    }

    /// A `\uXXXX` escape of one UTF-16 unit, in either hex case.
    fn u_escape(unit: u32, upper: bool) -> String {
        if upper {
            format!("\\u{unit:04X}")
        } else {
            format!("\\u{unit:04x}")
        }
    }

    /// One piece of a string literal: its source text and the text it
    /// decodes to.
    fn piece() -> impl Strategy<Value = (String, String)> {
        prop_oneof![
            vec(plain_char(), 1..64).prop_map(|cs| {
                let s: String = cs.into_iter().collect();
                (s.clone(), s)
            }),
            (0usize..8).prop_map(|i| {
                let (src, text) = [
                    ("\\\"", "\""),
                    ("\\\\", "\\"),
                    ("\\/", "/"),
                    ("\\b", "\u{8}"),
                    ("\\f", "\u{c}"),
                    ("\\n", "\n"),
                    ("\\r", "\r"),
                    ("\\t", "\t"),
                ][i];
                (src.to_string(), text.to_string())
            }),
            (
                prop_oneof![ch(0..0xd800), ch(0xe000..0x1_0000)],
                any::<bool>()
            )
                .prop_map(|(c, upper)| (u_escape(c as u32, upper), c.to_string())),
            (ch(0x1_0000..0x11_0000), any::<bool>()).prop_map(|(c, upper)| {
                let mut units = [0u16; 2];
                c.encode_utf16(&mut units);
                let [hi, lo] = units.map(|u| u_escape(u32::from(u), upper));
                (hi + &lo, c.to_string())
            }),
            (0xdc00u32..0xe000, any::<bool>())
                .prop_map(|(unit, upper)| (u_escape(unit, upper), "\u{fffd}".to_string())),
            // A lone high surrogate, kept from pairing up by the plain
            // char after it.
            (0xd800u32..0xdc00, any::<bool>(), plain_char()).prop_map(|(unit, upper, c)| {
                (
                    u_escape(unit, upper) + &c.to_string(),
                    format!("\u{fffd}{c}"),
                )
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn strings_round_trip_through_render(cs in vec(any_char(), 0..16 * 1024)) {
            let s: String = cs.into_iter().collect();
            let v = Json::Str(s);
            prop_assert!(Json::parse(&v.render()).unwrap() == v, "round trip changed the string");
        }

        #[test]
        fn escapes_decode_piece_by_piece(pieces in vec(piece(), 0..256)) {
            let mut src = String::from("\"");
            let mut want = String::new();
            for (s, text) in &pieces {
                src.push_str(s);
                want.push_str(text);
            }
            src.push('"');
            prop_assert_eq!(Json::parse(&src).unwrap(), Json::Str(want), "literal {}", src);
        }
    }
}
