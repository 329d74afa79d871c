//! A minimal JSON value, parser, and writer.
//!
//! The workspace vendors an API-subset `serde` shim whose derives are no-ops
//! (see `vendor/README.md`), so spec documents are (de)serialised through this
//! hand-rolled codec instead. It has two faces over one lexer:
//!
//! * **the tree** — [`Json`] and [`parse`], for the documents that are read
//!   as trees (scenarios, fleets, reports);
//! * **the streaming codec** — a schema-driven `Reader` over borrowed text
//!   and append-only writer primitives, for the hot documents (the wire
//!   protocol in [`crate::wire`], the durable store in [`crate::store`]),
//!   which never build a tree.
//!
//! Both are deliberately small and strict:
//!
//! * numbers keep their **raw lexeme** (`Json::Number` stores the token
//!   text; the reader parses each lexeme once into its field's type), so
//!   `u64` seeds survive without passing through `f64`, and `f64` values
//!   round-trip exactly (Rust's `{}` formatting emits the shortest
//!   representation that re-parses to the same bits);
//! * duplicate object keys are a parse error (a spec with two `seed` fields is
//!   ambiguous, not "last one wins");
//! * strings follow RFC 8259 strictly: raw (unescaped) control characters and
//!   lone `\uXXXX` surrogates are parse errors, surrogate *pairs* decode to
//!   the astral-plane character; the writer emits UTF-8 with the mandatory
//!   escapes only. String round-tripping — including astral-plane and control
//!   characters — is proptest-pinned, since this codec is also the network
//!   wire format (`netband-spec::wire`);
//! * nesting deeper than [`MAX_DEPTH`] is a parse error, so no document can
//!   overflow the recursive parser's stack.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::error::SpecError;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw (validated) lexeme.
    Number(String),
    /// A string (escapes already resolved).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order preserved, keys unique.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A number node from a `u64` (exact).
    pub fn from_u64(v: u64) -> Json {
        Json::Number(v.to_string())
    }

    /// A number node from a finite `f64` (shortest round-trip lexeme).
    ///
    /// # Panics
    ///
    /// Panics on non-finite input — specs never contain NaN/infinities.
    pub fn from_f64(v: f64) -> Json {
        assert!(v.is_finite(), "spec numbers must be finite, got {v}");
        Json::Number(format!("{v}"))
    }

    /// The value as `u64`, if it is an integral number lexeme in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(lexeme) => lexeme.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is an integral number lexeme in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(lexeme) => lexeme.parse::<usize>().ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(lexeme) => lexeme.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as key/value pairs, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialises the value to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialises the value to indented JSON text (2-space indent), for
    /// checked-in documents and examples.
    pub fn to_text_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Array(items) if !items.is_empty() => {
                // Scalar-only arrays stay on one line (e.g. an edge pair).
                if items
                    .iter()
                    .all(|i| !matches!(i, Json::Object(_) | Json::Array(_)))
                {
                    self.write(out);
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&INDENT.repeat(depth + 1));
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&INDENT.repeat(depth + 1));
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&INDENT.repeat(depth));
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Appends the value's compact JSON text to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(lexeme) => out.push_str(lexeme),
            Json::String(s) => write_string(s, out),
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
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// writer primitives
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string: UTF-8 passes through, and only the
/// mandatory escapes are written (`\uXXXX` in lower-case hex for the control
/// characters without a short form).
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        // `i` is an ASCII byte, so both slices sit on char boundaries.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends the decimal lexeme of `v` (what `{}` formatting prints).
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends the shortest round-trip lexeme of a finite `v`, byte-identical to
/// [`Json::from_f64`].
///
/// # Panics
///
/// Panics on non-finite input, like [`Json::from_f64`].
pub(crate) fn write_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "spec numbers must be finite, got {v}");
    // `{}` prints an integral value below 2^53 as its plain digits (with
    // `-0` for negative zero); most rewards and observations are 0 or 1.
    if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 {
        if v.is_sign_negative() {
            out.push('-');
        }
        write_u64(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `true` or `false`.
pub(crate) fn write_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

/// Appends `items` as a JSON array, each element written by `item`.
pub(crate) fn write_array<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, value) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, value);
    }
    out.push(']');
}

// ---------------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects [`parse`] accepts. Every document
/// the workspace defines nests well under ten levels; the cap exists so a
/// hostile document cannot overflow the recursive parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, SpecError> {
    let mut reader = Reader::new(text);
    let value = reader.tree()?;
    reader.end()?;
    Ok(value)
}

/// A cursor over borrowed JSON text: the one lexer behind both [`parse`]
/// and the schema-driven decoders of the wire and store documents.
///
/// The schema readers ([`Reader::u64`], [`Reader::object`], …) read values
/// straight off the text without building a [`Json`] tree: numbers are
/// parsed once from their lexeme, and strings are borrowed unless they hold
/// escapes. Each reader skips the whitespace before its value, so documents
/// may put whitespace between any two tokens.
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

/// The error for a value of the wrong JSON type.
fn invalid(ctx: &'static str, message: impl Into<String>) -> SpecError {
    SpecError::Invalid {
        context: ctx,
        message: message.into(),
    }
}

/// The value of a required field, or [`SpecError::MissingField`].
pub(crate) fn required<T>(
    slot: Option<T>,
    ctx: &'static str,
    field: &'static str,
) -> Result<T, SpecError> {
    slot.ok_or(SpecError::MissingField {
        context: ctx,
        field,
    })
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn error(&self, message: impl Into<String>) -> SpecError {
        SpecError::Json {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn next_byte(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.peek()
    }

    fn expect(&mut self, byte: u8) -> Result<(), SpecError> {
        if self.next_byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), SpecError> {
        if self.bytes()[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(())
        } else {
            Err(self.error(format!("expected {keyword:?}")))
        }
    }

    /// Requires that only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), SpecError> {
        if self.next_byte().is_some() {
            return Err(self.error("trailing characters after the document"));
        }
        Ok(())
    }

    // ----- tree ------------------------------------------------------------

    /// Reads one value as a [`Json`] tree (for the documents that stay
    /// trees, such as an embedded scenario).
    pub(crate) fn tree(&mut self) -> Result<Json, SpecError> {
        self.value(0)
    }

    /// A value `depth` containers deep; nesting past [`MAX_DEPTH`] is an
    /// error.
    fn value(&mut self, depth: usize) -> Result<Json, SpecError> {
        const CTX: &str = "JSON document";
        match self.next_byte() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => {
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.object(CTX, |r, key| {
                    if fields.iter().any(|(k, _)| k == key) {
                        return Err(r.error(format!("duplicate object key {key:?}")));
                    }
                    fields.push((key.to_owned(), r.value(depth + 1)?));
                    Ok(true)
                })?;
                Ok(Json::Object(fields))
            }
            Some(b'[') => self.array(CTX, |r| r.value(depth + 1)).map(Json::Array),
            Some(b'"') => Ok(Json::String(self.string()?.into_owned())),
            Some(b't') => self.expect_keyword("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.expect_keyword("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.expect_keyword("null").map(|_| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let lexeme = self.number()?;
                // Every lexeme must parse to a *finite* f64: Rust parses
                // exponent overflow like `1e400` to infinity (not an error),
                // and a non-finite value would violate the writer's
                // finiteness contract downstream.
                match lexeme.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(Json::Number(lexeme.to_owned())),
                    _ => Err(self.error(format!("invalid or non-finite number {lexeme:?}"))),
                }
            }
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    // ----- lexemes ---------------------------------------------------------

    /// Reads a string token (starting at its opening quote). Borrowed from
    /// the text unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, SpecError> {
        self.expect(b'"')?;
        let start = self.pos;
        let bytes = self.bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                b'\\' => break,
                b if b < 0x20 => break,
                _ => self.pos += 1,
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        self.escaped_string_tail(&mut out)?;
        Ok(Cow::Owned(out))
    }

    /// The rest of a string from its first escape or control byte on.
    fn escaped_string_tail(&mut self, out: &mut String) -> Result<(), SpecError> {
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                self.pos += 1; // consume the final hex digit position
                                self.expect_keyword("\\u")
                                    .map_err(|_| self.error("expected low surrogate"))?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    // `hex4` leaves `pos` on its last digit; single-char
                    // escapes leave it on the escape letter. Advance past it.
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    // RFC 8259 §7: control characters must be \u-escaped; a
                    // raw one is a malformed document, not data. (The writer
                    // always escapes them, so accepting raw ones would make
                    // the decoder accept documents the codec can never emit.)
                    return Err(self.error(format!(
                        "raw control character 0x{b:02x} in string (must be \\u-escaped)"
                    )));
                }
                Some(_) => {
                    // Consume the maximal run of unescaped bytes in one
                    // chunk. Runs break only at ASCII bytes (quote,
                    // backslash, control), which never occur inside a
                    // multi-byte UTF-8 sequence, so the slice sits on char
                    // boundaries of the input.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
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

    /// Reads 4 hex digits starting at `pos` (the first digit); leaves `pos` on
    /// the **last** digit so the caller's uniform `pos += 1` steps past it.
    fn hex4(&mut self) -> Result<u32, SpecError> {
        let mut value = 0u32;
        for i in 0..4 {
            let digit = self
                .bytes()
                .get(self.pos + i)
                .and_then(|b| (*b as char).to_digit(16))
                .ok_or_else(|| self.error("expected 4 hex digits in \\u escape"))?;
            value = value * 16 + digit;
        }
        self.pos += 3;
        Ok(value)
    }

    /// Reads a number token's lexeme, checking the JSON number grammar.
    fn number(&mut self) -> Result<&'a str, SpecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(self.error("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("expected digits in exponent"));
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// Consumes a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    // ----- schema readers --------------------------------------------------

    /// A non-negative integer: an integral number lexeme (leading zeros
    /// allowed, no sign, fraction or exponent) that fits `u64`.
    pub(crate) fn u64(&mut self, ctx: &'static str) -> Result<u64, SpecError> {
        self.skip_whitespace();
        let start = self.pos;
        let mut value: Option<u64> = Some(0);
        while let Some(b @ b'0'..=b'9') = self.peek() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add(u64::from(b - b'0')));
            self.pos += 1;
        }
        match value {
            Some(v) if self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) => {
                Ok(v)
            }
            _ => Err(invalid(
                ctx,
                format!("expected a non-negative integer at byte {start}"),
            )),
        }
    }

    /// A non-negative integer that fits `usize`.
    pub(crate) fn usize(&mut self, ctx: &'static str) -> Result<usize, SpecError> {
        let v = self.u64(ctx)?;
        usize::try_from(v).map_err(|_| invalid(ctx, format!("{v} does not fit in usize")))
    }

    /// A non-negative integer that fits `u32`.
    pub(crate) fn u32(&mut self, ctx: &'static str) -> Result<u32, SpecError> {
        let v = self.u64(ctx)?;
        u32::try_from(v).map_err(|_| invalid(ctx, format!("{v} does not fit in u32")))
    }

    /// A finite number.
    pub(crate) fn f64(&mut self, ctx: &'static str) -> Result<f64, SpecError> {
        self.skip_whitespace();
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Fast path: an integer of at most 15 digits is exact in f64, and
        // is what `str::parse` would return for the same lexeme.
        let mut magnitude = 0u64;
        let digits_start = self.pos;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            if self.pos - digits_start == 15 {
                break;
            }
            magnitude = magnitude * 10 + u64::from(b - b'0');
            self.pos += 1;
        }
        if self.pos > digits_start && !matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E'))
        {
            let v = magnitude as f64;
            return Ok(if negative { -v } else { v });
        }
        self.pos = start;
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(invalid(ctx, format!("expected a number at byte {start}")));
        }
        let lexeme = self.number()?;
        match lexeme.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.error(format!("invalid or non-finite number {lexeme:?}"))),
        }
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self, ctx: &'static str) -> Result<bool, SpecError> {
        match self.next_byte() {
            Some(b't') => self.expect_keyword("true").map(|_| true),
            Some(b'f') => self.expect_keyword("false").map(|_| false),
            _ => Err(invalid(
                ctx,
                format!("expected a boolean at byte {}", self.pos),
            )),
        }
    }

    /// A string, borrowed from the text unless it holds escapes.
    pub(crate) fn str(&mut self, ctx: &'static str) -> Result<Cow<'a, str>, SpecError> {
        if self.next_byte() != Some(b'"') {
            return Err(invalid(
                ctx,
                format!("expected a string at byte {}", self.pos),
            ));
        }
        self.string()
    }

    /// A string, as an owned `String`.
    pub(crate) fn string_owned(&mut self, ctx: &'static str) -> Result<String, SpecError> {
        self.str(ctx).map(Cow::into_owned)
    }

    /// `null` as `None`, anything else through `read`.
    pub(crate) fn nullable<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SpecError>,
    ) -> Result<Option<T>, SpecError> {
        if self.next_byte() == Some(b'n') {
            self.expect_keyword("null")?;
            return Ok(None);
        }
        read(self).map(Some)
    }

    /// An array, each element read by `item`.
    pub(crate) fn array<T>(
        &mut self,
        ctx: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, SpecError>,
    ) -> Result<Vec<T>, SpecError> {
        if self.next_byte() != Some(b'[') {
            return Err(invalid(
                ctx,
                format!("expected an array at byte {}", self.pos),
            ));
        }
        self.pos += 1;
        let mut items = Vec::new();
        if self.next_byte() == Some(b']') {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.next_byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    /// A two-element array `[a, b]`.
    pub(crate) fn pair<A, B>(
        &mut self,
        ctx: &'static str,
        a: impl FnOnce(&mut Self) -> Result<A, SpecError>,
        b: impl FnOnce(&mut Self) -> Result<B, SpecError>,
    ) -> Result<(A, B), SpecError> {
        if self.next_byte() != Some(b'[') {
            return Err(invalid(
                ctx,
                format!("expected a 2-element array at byte {}", self.pos),
            ));
        }
        self.pos += 1;
        let first = a(self)?;
        self.expect(b',')?;
        let second = b(self)?;
        self.expect(b']')?;
        Ok((first, second))
    }

    /// An object. `field` is called with each key, the reader positioned at
    /// the key's value; it reads the value and returns `true`, or returns
    /// `false` for a key the schema does not define
    /// ([`SpecError::UnknownField`]). Duplicate keys are caught by
    /// [`Reader::field`].
    pub(crate) fn object(
        &mut self,
        ctx: &'static str,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, SpecError>,
    ) -> Result<(), SpecError> {
        if self.next_byte() != Some(b'{') {
            return Err(invalid(ctx, "expected a JSON object"));
        }
        self.pos += 1;
        if self.next_byte() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.expect(b':')?;
            if !field(self, &key)? {
                return Err(SpecError::UnknownField {
                    context: ctx,
                    field: key.into_owned(),
                });
            }
            match self.next_byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    /// A `"type"`-tagged object: like [`Reader::object`], with the `"type"`
    /// key (already read by [`Reader::tag`]) checked and skipped.
    pub(crate) fn tagged_object(
        &mut self,
        ctx: &'static str,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, SpecError>,
    ) -> Result<(), SpecError> {
        let mut tag = None;
        self.object(ctx, |r, key| match key {
            "type" => r.field(key, &mut tag, |r| r.str(ctx).map(drop)),
            _ => field(r, key),
        })
    }

    /// Reads a field's value into `slot` with `read`; a second occurrence of
    /// the key is a duplicate-key error. Always returns `Ok(true)`, the
    /// "known key" answer of an [`Reader::object`] callback.
    pub(crate) fn field<T>(
        &mut self,
        key: &str,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, SpecError>,
    ) -> Result<bool, SpecError> {
        if slot.is_some() {
            return Err(self.error(format!("duplicate object key {key:?}")));
        }
        *slot = Some(read(self)?);
        Ok(true)
    }

    /// The `"type"` tag of the object at the cursor, found wherever it sits
    /// among the keys; the cursor does not move. Only the keys before the
    /// tag are scanned, so for the canonical encoding (tag first) this reads
    /// one key.
    pub(crate) fn tag(&self, ctx: &'static str) -> Result<Cow<'a, str>, SpecError> {
        let mut probe = *self;
        let missing = SpecError::MissingField {
            context: ctx,
            field: "type",
        };
        if probe.next_byte() != Some(b'{') {
            return Err(invalid(ctx, "expected a JSON object"));
        }
        probe.pos += 1;
        if probe.next_byte() == Some(b'}') {
            return Err(missing);
        }
        loop {
            probe.skip_whitespace();
            let key = probe.string()?;
            probe.expect(b':')?;
            if key == "type" {
                return probe.str(ctx);
            }
            probe.tree()?;
            match probe.next_byte() {
                Some(b',') => probe.pos += 1,
                Some(b'}') => return Err(missing),
                _ => return Err(probe.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        let fields = doc.as_object().unwrap();
        assert_eq!(fields.len(), 2);
        let items = fields[0].1.as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert!(items[2].as_object().unwrap()[0].1.is_null());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "01x",
            "\"\\q\"",
            "{\"a\":1} extra",
            "nan",
            "1.",
            "1e",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Exponent overflow parses to infinity in Rust, which would crash the
    /// writer's finiteness assert later; the decoder rejects it up front.
    #[test]
    fn rejects_non_finite_numbers() {
        for bad in ["1e400", "-1e999", "1e308001"] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{bad}: {err}");
        }
        // The largest finite values still pass.
        assert_eq!(
            parse("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
    }

    /// A hostile document nesting far past the cap is an error, not a
    /// stack overflow; documents up to the cap still parse.
    #[test]
    fn nesting_is_capped() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(50_000)).unwrap_err();
            assert!(matches!(err, SpecError::Json { .. }), "{err}");
            assert!(err.to_string().contains("nesting"), "{err}");
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(parse(&past_cap)
            .unwrap_err()
            .to_string()
            .contains("nesting"));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse(r#"{"seed": 1, "seed": 2}"#).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{08}\u{0C}\r π \u{1}";
        let text = Json::String(original.to_owned()).to_text();
        assert_eq!(parse(&text).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""\u00e9""#).unwrap().as_str(), Some("é"));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = u64::MAX - 7;
        let text = Json::from_u64(seed).to_text();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn f64_values_round_trip_bit_exactly() {
        for v in [0.35, 1.0 / 3.0, 1e-308, 123456.789e12, 0.1 + 0.2] {
            let text = Json::from_f64(v).to_text();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    fn writer_output_reparses() {
        let doc = Json::Object(vec![
            ("k".into(), Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("n".into(), Json::from_f64(0.25)),
            ("s".into(), Json::String("v\"w".into())),
        ]);
        assert_eq!(parse(&doc.to_text()).unwrap(), doc);
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        // RFC 8259 §7: U+0000..U+001F must appear escaped. The escaped forms
        // of the same strings stay accepted.
        for (raw, escaped) in [
            ("\"a\u{01}b\"", r#""a\u0001b""#),
            ("\"\n\"", r#""\n""#),
            ("\"\u{00}\"", r#""\u0000""#),
            ("\"x\ty\"", r#""x\ty""#),
            ("\"\u{1f}\"", r#""\u001f""#),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(err.to_string().contains("control"), "{raw:?}: {err}");
            assert!(parse(escaped).is_ok(), "escaped form {escaped} rejected");
        }
        // 0x20 (space) and 0x7F (DEL) are not control characters per the
        // grammar and stay accepted raw.
        assert_eq!(parse("\" \u{7f} \"").unwrap().as_str(), Some(" \u{7f} "));
    }

    #[test]
    fn rejects_lone_and_malformed_surrogate_escapes() {
        for bad in [
            r#""\udc00""#,       // lone low surrogate
            r#""\ud83d""#,       // lone high surrogate at end of string
            r#""\ud83dx""#,      // high surrogate followed by a plain char
            r#""\ud83d\ud83d""#, // high surrogate followed by another high
            r#""\ud83d\n""#,     // high surrogate followed by a short escape
            r#""\u12""#,         // truncated hex
            r#""\uD8ZZ\uDE00""#, // non-hex digits
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
        // Case-insensitive hex in a valid pair still decodes.
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    /// `\uXXXX`-escape every scalar value of `s`, using surrogate pairs for
    /// astral-plane characters — the adversarial encoding the writer never
    /// produces but the decoder must accept.
    fn fully_escaped(s: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("\"");
        for c in s.chars() {
            let cp = c as u32;
            if cp <= 0xFFFF {
                write!(out, "\\u{cp:04x}").unwrap();
            } else {
                let v = cp - 0x1_0000;
                write!(
                    out,
                    "\\u{:04x}\\u{:04x}",
                    0xD800 + (v >> 10),
                    0xDC00 + (v & 0x3FF)
                )
                .unwrap();
            }
        }
        out.push('"');
        out
    }

    /// Mix of ASCII/control, BMP, and full-range code points so control
    /// characters and astral-plane characters both appear often, not once in
    /// a million draws.
    fn arb_string() -> impl Strategy<Value = String> {
        (
            proptest::collection::vec(0u32..=0x7F, 0..=12),
            proptest::collection::vec(0u32..=0xFFFF, 0..=12),
            proptest::collection::vec(0u32..=0x0011_0000, 0..=12),
        )
            .prop_map(|(ascii, bmp, full)| {
                ascii
                    .into_iter()
                    .chain(bmp)
                    .chain(full)
                    // Drops surrogates (not Rust chars) and the one
                    // out-of-range value; everything else survives.
                    .filter_map(char::from_u32)
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_strings_round_trip_through_the_codec(s in arb_string()) {
            let compact = Json::String(s.clone()).to_text();
            prop_assert_eq!(parse(&compact).unwrap().as_str(), Some(s.as_str()));
            let pretty = Json::String(s.clone()).to_text_pretty();
            prop_assert_eq!(parse(pretty.trim_end()).unwrap().as_str(), Some(s.as_str()));
        }

        #[test]
        fn fully_escaped_strings_decode_to_the_original(s in arb_string()) {
            prop_assert_eq!(parse(&fully_escaped(&s)).unwrap().as_str(), Some(s.as_str()));
        }

        /// The streaming writer's numbers are the tree's `{}` lexemes, for
        /// arbitrary bit patterns and for integral values (its fast path).
        #[test]
        fn number_writers_match_display_formatting(
            bits in 0u64..=u64::MAX,
            integral in (0u64..1 << 54, proptest::bool::ANY),
        ) {
            let mut out = String::new();
            write_u64(&mut out, bits);
            prop_assert_eq!(&out, &bits.to_string());
            let integral = if integral.1 { -(integral.0 as f64) } else { integral.0 as f64 };
            for v in [f64::from_bits(bits), integral] {
                if v.is_finite() {
                    out.clear();
                    write_f64(&mut out, v);
                    prop_assert_eq!(&out, &format!("{v}"));
                }
            }
        }

        /// The reader's integer fast path parses exactly as `str::parse`.
        #[test]
        fn f64_reader_matches_str_parse(
            digits in proptest::collection::vec(0u32..10, 1..22),
            negative in proptest::bool::ANY,
        ) {
            let mut lexeme: String = if negative { "-".into() } else { String::new() };
            lexeme.extend(digits.iter().map(|&d| char::from(b'0' + d as u8)));
            let read = Reader::new(&lexeme).f64("test").unwrap();
            prop_assert_eq!(read.to_bits(), lexeme.parse::<f64>().unwrap().to_bits());
        }
    }
}
