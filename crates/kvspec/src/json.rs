//! The workspace's one JSON reader and writer.
//!
//! The CLI's `--json` documents and `--record` exports, the result-cache
//! payloads, the flat spec objects of [`crate::parse_flat_json`] and the
//! profiler's Chrome trace are all read and written through this module.
//! One module therefore owns string escaping ([`escape`]), float tokens
//! ([`num_f64`]), the writer ([`Obj`], [`array`]) and the parser
//! ([`Value::parse`]).
//!
//! The reader is zero-copy: a [`Value`] borrows from the text it was
//! parsed from.
//!
//! - A number is its **raw token**, a slice of the input
//!   ([`Value::Num`]). The parser validates it lexically (optional sign,
//!   digits with at most one `.`, at least one mantissa digit, an
//!   optional exponent with at least one digit), which accepts exactly
//!   the tokens `f64::from_str` accepts, and converts nothing. Each
//!   accessor ([`Value::as_f64`], [`Value::as_u64`], [`Value::as_usize`])
//!   parses the token once, when it is read. So a `u64` parses back
//!   exactly (no 2^53 loss), an `f64` written with Rust's shortest
//!   round-trip `Display` reparses to the very same bits, and a flat
//!   spec keeps the number text its author wrote. That is what lets a
//!   cache hit reproduce a cold run byte-for-byte through every
//!   renderer.
//! - A string or object key is a [`Cow`]: borrowed from the input when it
//!   has no escapes, owned (unescaped) when it does.
//!
//! The reader is deliberately strict-enough-and-no-more: it accepts the
//! JSON this workspace writes (objects, arrays, strings with standard
//! escapes, numbers, booleans, null) and returns `None` on anything
//! malformed — corruption tolerance at the parse layer, so a damaged
//! cache entry degrades to a miss instead of a panic.

use std::borrow::Cow;

/// A parsed JSON value, borrowing from the text it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw (lexically validated) token.
    Num(&'a str),
    /// A string (escapes resolved).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object, in source order.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Parses a complete JSON document; `None` on any syntax error or
    /// trailing garbage.
    #[must_use]
    pub fn parse(text: &'a str) -> Option<Value<'a>> {
        let mut pos = 0;
        let v = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        (pos == text.len()).then_some(v)
    }

    /// Object member lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string, when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64` (exact — parses the raw token).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64` (bit-exact for tokens written by
    /// [`num_f64`], which uses shortest round-trip formatting).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// `self[key]` as `u64`.
    #[must_use]
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// `self[key]` as `usize`.
    #[must_use]
    pub fn usize_of(&self, key: &str) -> Option<usize> {
        self.get(key)?.as_usize()
    }

    /// `self[key]` as `f64`.
    #[must_use]
    pub fn f64_of(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// `self[key]` as a string.
    #[must_use]
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// `self[key]` as an array.
    #[must_use]
    pub fn arr_of(&self, key: &str) -> Option<&[Value<'a>]> {
        self.get(key)?.as_arr()
    }
}

/// JSON string escaping (quotes, backslash, `\u00XX` for controls),
/// without the surrounding quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// An `f64` as its shortest round-trip decimal token. Finite values
/// only — non-finite values render as `null`, which fails decoding and
/// degrades to a cache miss (the simulator never reports them).
#[must_use]
pub fn num_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A minimal JSON object builder: append fields, then [`Obj::finish`].
#[derive(Debug, Default)]
#[must_use]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    /// Adds a float field (`null` when not finite, see [`num_f64`]).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&num_f64(value));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON (a nested
    /// document, or a number token kept verbatim).
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Renders a JSON array from already-rendered element documents.
#[must_use]
pub fn array<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item.as_ref());
    }
    out.push(']');
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

/// The deepest array/object nesting the reader accepts. The workspace's
/// documents nest a few levels; the bound keeps a damaged or hostile
/// input from overflowing the stack (a deeper `{`/`[` falls through to
/// the number parser, which rejects it).
const MAX_DEPTH: usize = 128;

// Every position the parser stops at follows an ASCII byte (or is 0), so
// slicing `text` between two of them never splits a character.

fn parse_value<'a>(text: &'a str, pos: &mut usize, depth: usize) -> Option<Value<'a>> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' if depth < MAX_DEPTH => parse_obj(text, pos, depth + 1),
        b'[' if depth < MAX_DEPTH => parse_arr(text, pos, depth + 1),
        b'"' => parse_string(text, pos).map(Value::Str),
        b't' => parse_literal(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Value::Bool(false)),
        b'n' => parse_literal(bytes, pos, "null", Value::Null),
        _ => parse_number(text, pos),
    }
}

fn parse_literal<'a>(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Value<'a>,
) -> Option<Value<'a>> {
    let end = *pos + lit.len();
    if bytes.get(*pos..end)? == lit.as_bytes() {
        *pos = end;
        Some(value)
    } else {
        None
    }
}

fn parse_number<'a>(text: &'a str, pos: &mut usize) -> Option<Value<'a>> {
    let start = *pos;
    let bytes = text.as_bytes();
    while let Some(b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' => *pos += 1,
            _ => break,
        }
    }
    let token = &text[start..*pos];
    is_number_token(token.as_bytes()).then_some(Value::Num(token))
}

/// Whether `token`, made of `[0-9+-.eE]` only, is a number
/// `f64::from_str` accepts: an optional sign, digits with at most one
/// `.` and at least one digit, then an optional `e`/`E`, optional sign
/// and at least one digit. Exactness is the accessors' job.
fn is_number_token(token: &[u8]) -> bool {
    let digits = |s: &[u8]| s.iter().take_while(|b| b.is_ascii_digit()).count();
    let mut i = usize::from(matches!(token.first(), Some(b'+' | b'-')));
    let int = digits(&token[i..]);
    i += int;
    let mut frac = 0;
    if token.get(i) == Some(&b'.') {
        i += 1;
        frac = digits(&token[i..]);
        i += frac;
    }
    if int + frac == 0 {
        return false;
    }
    if matches!(token.get(i), Some(b'e' | b'E')) {
        i += 1;
        i += usize::from(matches!(token.get(i), Some(b'+' | b'-')));
        let exp = digits(&token[i..]);
        if exp == 0 {
            return false;
        }
        i += exp;
    }
    i == token.len()
}

fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Option<Cow<'a, str>> {
    let bytes = text.as_bytes();
    if bytes.get(*pos)? != &b'"' {
        return None;
    }
    *pos += 1;
    let start = *pos;
    // The common case: no escapes, so the string is a slice of the input.
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(Cow::Borrowed(&text[start..*pos - 1]));
            }
            b'\\' => break,
            _ => *pos += 1,
        }
    }
    let mut out: Vec<u8> = bytes[start..*pos].to_vec();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok().map(Cow::Owned);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = text.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        // BMP only — all this workspace ever escapes.
                        let c = char::from_u32(code)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            &b => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

fn parse_arr<'a>(text: &'a str, pos: &mut usize, depth: usize) -> Option<Value<'a>> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos)? == &b']' {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj<'a>(text: &'a str, pos: &mut usize, depth: usize) -> Option<Value<'a>> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos)? == &b'}' {
        *pos += 1;
        return Some(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos)? != &b':' {
            return None;
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(members));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Value::parse(r#"{"a":[1,2.5,"x"],"b":{"c":true,"d":null}}"#).unwrap();
        assert_eq!(v.arr_of("a").unwrap().len(), 3);
        assert_eq!(v.arr_of("a").unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.arr_of("a").unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.arr_of("a").unwrap()[2].as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn u64_round_trips_exactly_beyond_2_53() {
        let big = u64::MAX - 3;
        let doc = format!("{{\"n\":{big}}}");
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.u64_of("n"), Some(big));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 2.5e-7, 123_456.789_012_345, -0.0, 1e300] {
            let tok = num_f64(x);
            let doc = format!("{{\"x\":{tok}}}");
            let v = Value::parse(&doc).unwrap();
            assert_eq!(v.f64_of("x").unwrap().to_bits(), x.to_bits(), "{tok}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "a \"quoted\" back\\slash\nnewline\ttab \u{1} control";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.str_of("s"), Some(original));
        assert!(matches!(v.get("s"), Some(Value::Str(Cow::Owned(_)))));
    }

    #[test]
    fn tokens_and_plain_strings_borrow_from_the_input() {
        let doc = r#"{"key":"plain","n":-1.5e3}"#;
        let v = Value::parse(doc).unwrap();
        let Value::Obj(members) = &v else {
            panic!("not an object: {v:?}")
        };
        assert!(matches!(members[0].0, Cow::Borrowed("key")));
        assert!(matches!(
            v.get("key"),
            Some(Value::Str(Cow::Borrowed("plain")))
        ));
        assert_eq!(v.get("n"), Some(&Value::Num("-1.5e3")));
        assert_eq!(v.f64_of("n"), Some(-1500.0));
    }

    /// The lexical number check must accept exactly what `f64::from_str`
    /// accepts over the scanned alphabet; a drift would silently change
    /// which flat JSON specs and cache entries parse.
    #[test]
    fn number_grammar_matches_f64_from_str_exhaustively() {
        const ALPHABET: &[u8] = b"0123456789+-.eE";
        let mut token = Vec::with_capacity(5);
        for len in 1..=5u32 {
            for mut n in 0..ALPHABET.len().pow(len) {
                token.clear();
                for _ in 0..len {
                    token.push(ALPHABET[n % ALPHABET.len()]);
                    n /= ALPHABET.len();
                }
                let text = std::str::from_utf8(&token).unwrap();
                assert_eq!(
                    is_number_token(&token),
                    text.parse::<f64>().is_ok(),
                    "{text:?}"
                );
            }
        }
        // The scan stops at the first byte outside the alphabet; what it
        // took must still be a whole number.
        for (doc, ok) in [
            ("[1.5]", true),
            ("[1e]", false),
            ("[1.2.3]", false),
            ("[-]", false),
        ] {
            assert_eq!(Value::parse(doc).is_some(), ok, "{doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{'single':1}",
            "nul",
            &"[".repeat(1_000_000),
        ] {
            assert!(Value::parse(bad).is_none(), "accepted {bad:.20?}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&deep).is_some());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_writes_as_null() {
        assert_eq!(num_f64(f64::NAN), "null");
        assert_eq!(num_f64(f64::INFINITY), "null");
        assert_eq!(num_f64(1.5), "1.5");
    }

    #[test]
    fn corrupted_documents_fail_cleanly() {
        let doc = Obj::new()
            .str("traffic", "trace")
            .str("path", "caf\u{e9} \"q\"\t\\")
            .int("big", u64::MAX - 1)
            .num("x", 0.1)
            .num("tiny", -2.5e-7)
            .raw(
                "list",
                &array([
                    num_f64(1.5),
                    "\"s\"".to_owned(),
                    Obj::new().bool("b", true).raw("n", "null").finish(),
                ]),
            )
            .finish();
        let parsed = Value::parse(&doc).unwrap();
        assert_eq!(parsed.u64_of("big"), Some(u64::MAX - 1));
        // Every strict prefix of an object is incomplete.
        for end in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            let cut = &doc[..end];
            assert!(Value::parse(cut).is_none(), "accepted prefix {cut:?}");
            let _ = crate::parse_flat_json(cut, "traffic");
        }
        // Any single structural substitution parses or fails, never panics.
        for (i, c) in doc.char_indices() {
            for sub in [
                '{', '}', '[', ']', '"', ',', ':', '\\', '-', 'e', 'n', '\u{1}',
            ] {
                let mutated = format!("{}{sub}{}", &doc[..i], &doc[i + c.len_utf8()..]);
                let _ = Value::parse(&mutated);
                let _ = crate::parse_flat_json(&mutated, "traffic");
            }
        }
    }
}
