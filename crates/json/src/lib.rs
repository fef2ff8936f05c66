//! Dependency-free JSON support for the mtt workspace.
//!
//! The build environment has no access to crates.io, so serde is not
//! available; this crate supplies what the framework actually needs: a
//! strict parser into the [`Json`] value tree, one compact printer
//! matching serde_json's output conventions (externally tagged enums, no
//! whitespace), and [`ToJson`] / [`FromJson`] traits with `macro_rules!`
//! implementors ([`json_struct!`], [`json_enum!`], [`json_newtype!`]) that
//! stand in for `#[derive(Serialize, Deserialize)]` on the workspace's
//! data types, including fields that are skipped when they hold their
//! default (`#[optional]` in [`json_struct!`]) and fields whose members
//! are printed inline (`#[flatten]`), or that go under a declared key
//! (`fn_ = "fn"`).
//!
//! Printing goes one way: [`ToJson::write_json`] streams a value's text
//! straight into a `String`, with no tree in between. A [`Json`] tree is
//! what [`Json::parse`] returns, and it prints through the same trait.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

// ---------------------------------------------------------------------
// Value model
// ---------------------------------------------------------------------

/// A parsed JSON document. Object keys keep their order in the text, so a
/// tree prints back the bytes it was parsed from (up to whitespace).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integers (also produced by the parser for negative numbers).
    Int(i64),
    /// Unsigned integers (parser output for non-negative integers).
    UInt(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload widened to `i64`, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(v) => Some(v),
            Json::UInt(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Numeric payload narrowed to `u64`, if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly (no whitespace), serde_json style.
    pub fn dump(&self) -> String {
        to_string(self)
    }

    /// Stream the compact rendering into an `io::Write`, propagating I/O
    /// errors instead of panicking — the variant file and pipe writers must
    /// use (a full disk is an error to report, not a crash).
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        to_writer(self, w)
    }

    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

fn write_float(v: f64, out: &mut String) {
    if v.is_finite() {
        if v != v.trunc() {
            out.push_str(&format!("{v}"));
        } else if v.abs() < 1e15 {
            // serde_json prints integral floats with a trailing ".0".
            out.push_str(&format!("{v:.1}"));
        } else {
            // `{v}` would print bare digits, which parse back as an
            // integer, or not at all past `u64::MAX`.
            out.push_str(&format!("{v:e}"));
        }
    } else {
        // JSON has no NaN/inf; serde_json errors, we degrade to null.
        out.push_str("null");
    }
}

/// Decimal digits of `v`, with no temporary `String`.
fn write_u64(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

fn write_i64(v: i64, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    write_u64(v.unsigned_abs(), out);
}

/// `s` as a JSON string literal. Runs of characters that need no escape are
/// copied with one push each, so a plain string is copied whole.
fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    // Every byte that needs an escape is ASCII, so `i` is a char boundary.
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            // Any other control character: `\u00XX`.
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Parse or conversion failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    /// Byte offset for parser errors; `None` for conversion errors.
    pos: Option<usize>,
}

impl JsonError {
    /// Conversion-level error with a free-form message.
    pub fn msg(m: impl Into<String>) -> Self {
        JsonError {
            msg: m.into(),
            pos: None,
        }
    }

    /// The same failure, found in the value of the field `name`.
    fn in_field(self, name: &str) -> Self {
        JsonError::msg(format!("field `{name}`: {self}"))
    }

    /// Shorthand for "expected X" conversion failures.
    pub fn expected(what: &str, got: &Json) -> Self {
        let kind = match got {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        };
        JsonError::msg(format!("expected {what}, found {kind}"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "{} at byte {}", self.msg, pos),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            pos: Some(self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: must be followed by \uXXXX low.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from the byte stream.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC0..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF7 => Some(4),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------

/// A value with a JSON form. Its one method prints that form, the one
/// printer every document in the workspace goes through.
pub trait ToJson {
    /// Append the compact rendering of `self` to `out`, with no tree and
    /// no allocated keys in between.
    fn write_json(&self, out: &mut String);
}

/// A type whose JSON form is an object, so another object can print its
/// members inline: [`json_struct!`]'s `#[flatten]` fields and the journal's
/// records, which print a payload's members after their own.
pub trait JsonObject: ToJson {
    /// Append the members of `self`'s object, with no braces: each member
    /// is preceded by a comma unless `out` ends with the `{` that opens
    /// the object (no printed value ends with `{`).
    fn write_members(&self, out: &mut String);
}

/// Reconstruct a value from a [`Json`] representation.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Types usable as JSON object keys (JSON keys are always strings).
pub trait JsonKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

/// Serialize `value` to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Serialize `value` to compact JSON bytes.
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string(value).into_bytes()
}

/// Serialize `value` compactly into an `io::Write`, propagating I/O errors.
pub fn to_writer<T: ToJson + ?Sized, W: std::io::Write>(
    value: &T,
    w: &mut W,
) -> std::io::Result<()> {
    w.write_all(to_string(value).as_bytes())
}

/// Parse `text` and convert to `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

/// Parse UTF-8 `bytes` and convert to `T`.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|_| JsonError::msg("invalid UTF-8"))?;
    from_str(text)
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) { write_u64(*self as u64, out) }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_u64().ok_or_else(|| JsonError::expected("unsigned integer", v))?;
                <$t>::try_from(n).map_err(|_| JsonError::msg("integer out of range"))
            }
        }
        impl JsonKey for $t {
            fn to_key(&self) -> String { self.to_string() }
            fn from_key(key: &str) -> Result<Self, JsonError> {
                key.parse().map_err(|_| JsonError::msg("invalid integer key"))
            }
        }
    )*};
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) { write_i64(*self as i64, out) }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_i64().ok_or_else(|| JsonError::expected("integer", v))?;
                <$t>::try_from(n).map_err(|_| JsonError::msg("integer out of range"))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::expected("bool", v)),
        }
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_float(*self, out);
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match *v {
            Json::Float(f) => Ok(f),
            Json::Int(i) => Ok(i as f64),
            Json::UInt(u) => Ok(u as f64),
            _ => Err(JsonError::expected("number", v)),
        }
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::expected("string", v))
    }
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (*self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// `items` as a JSON array.
fn write_array<'a, T: ToJson + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// `members` as a JSON object, each key escaped.
fn write_object<'a, K: AsRef<str>, V: ToJson + 'a>(
    members: impl IntoIterator<Item = (K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(k.as_ref(), out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        write_array(self, out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_array(self, out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::expected("array", v))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::expected("2-element array", v)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(',');
        self.2.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::expected("3-element array", v)),
        }
    }
}

impl<K: JsonKey + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_object(self.iter().map(|(k, v)| (k.to_key(), v)), out);
    }
}

impl<K: JsonKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
                .collect(),
            _ => Err(JsonError::expected("object", v)),
        }
    }
}

impl<T: ToJson> ToJson for BTreeSet<T> {
    fn write_json(&self, out: &mut String) {
        write_array(self, out);
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json(v).map(|items| items.into_iter().collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for std::sync::Arc<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for std::sync::Arc<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        T::from_json(v).map(std::sync::Arc::new)
    }
}

impl<T: FromJson> FromJson for std::sync::Arc<[T]> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json(v).map(Into::into)
    }
}

impl FromJson for std::sync::Arc<str> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(Into::into)
            .ok_or_else(|| JsonError::expected("string", v))
    }
}

impl ToJson for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Int(v) => write_i64(*v, out),
            Json::UInt(v) => write_u64(*v, out),
            Json::Float(v) => write_float(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => write_array(items, out),
            Json::Obj(fields) => write_object(fields.iter().map(|(k, v)| (k, v)), out),
        }
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------
// Derive-replacement macros
// ---------------------------------------------------------------------

/// Implement [`ToJson`], [`JsonObject`] and [`FromJson`] for a plain
/// struct: every field is emitted under its own name, in the order listed,
/// and required on input. A field marked `#[optional]` is left out while it
/// equals `Default::default()` and reads as the default when absent — the
/// form versioned schemas use to add a field without changing old records.
/// A field marked `#[flatten]` (its type a [`JsonObject`]) prints its
/// members in place of itself and decodes them from the same object. A
/// field written `name = "key"` goes under `key`, for keys that are Rust
/// keywords (`fn_ = "fn"`).
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($(#[$mode:ident])? $field:ident $(= $key:literal)?),+ $(,)? }) => {
        impl $crate::JsonObject for $ty {
            fn write_members(&self, out: &mut ::std::string::String) {
                $($crate::__json_field!(write out, self.$field, [$field $(= $key)?] $(, $mode)?);)+
            }
        }
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                out.push('{');
                $crate::JsonObject::write_members(self, out);
                out.push('}');
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                ::std::result::Result::Ok($ty {
                    $($field:
                        $crate::__json_field!(read v, $ty, [$field $(= $key)?] $(, $mode)?)?),+
                })
            }
        }
    };
}

/// The JSON key of a [`json_struct!`] field: its name, or the key it
/// declares.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident = $key:literal) => {
        $key
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_field {
    (write $out:ident, $value:expr, [$($key:tt)+]) => {
        $crate::write_member($out, concat!("\"", $crate::__json_key!($($key)+), "\":"), &$value)
    };
    (write $out:ident, $value:expr, $key:tt, optional) => {
        if !$crate::is_default(&$value) {
            $crate::__json_field!(write $out, $value, $key)
        }
    };
    (write $out:ident, $value:expr, $key:tt, flatten) => {
        $crate::JsonObject::write_members(&$value, $out)
    };
    (read $v:ident, $ty:ident, [$($key:tt)+]) => {
        $crate::field($v, $crate::__json_key!($($key)+), stringify!($ty))
    };
    (read $v:ident, $ty:ident, [$($key:tt)+], optional) => {
        $crate::optional_field($v, $crate::__json_key!($($key)+))
    };
    (read $v:ident, $ty:ident, $key:tt, flatten) => {
        $crate::FromJson::from_json($v)
    };
}

/// Append the member `key` (quoted, with its colon) holding `value` to the
/// object being printed in `out`: [`json_struct!`]'s printer.
#[doc(hidden)]
pub fn write_member<T: ToJson + ?Sized>(out: &mut String, key: &str, value: &T) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(key);
    value.write_json(out);
}

/// Whether `v` equals its type's default: when [`json_struct!`] leaves an
/// `#[optional]` field out.
#[doc(hidden)]
pub fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// Read the required field `name` of a `ty` object: [`json_struct!`]'s
/// decoder. A value that fails to convert names the field.
#[doc(hidden)]
pub fn field<T: FromJson>(v: &Json, name: &str, ty: &str) -> Result<T, JsonError> {
    let f = v
        .get(name)
        .ok_or_else(|| JsonError::msg(format!("missing field `{name}` in {ty}")))?;
    T::from_json(f).map_err(|e| e.in_field(name))
}

/// Read the `#[optional]` field `name`: the default when absent.
#[doc(hidden)]
pub fn optional_field<T: FromJson + Default>(v: &Json, name: &str) -> Result<T, JsonError> {
    v.get(name).map_or_else(
        || Ok(T::default()),
        |f| T::from_json(f).map_err(|e| e.in_field(name)),
    )
}

/// Implement [`ToJson`] + [`FromJson`] for a tuple struct with one field
/// (serde's "newtype" transparency: serialized as the inner value).
#[macro_export]
macro_rules! json_newtype {
    ($ty:ident) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                $crate::ToJson::write_json(&self.0, out)
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                ::std::result::Result::Ok($ty($crate::FromJson::from_json(v)?))
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_write_arm {
    ($out:ident, $variant:ident) => {
        $out.push_str(concat!("\"", stringify!($variant), "\""))
    };
    ($out:ident, $variant:ident { $($f:ident),* }) => {{
        $out.push_str(concat!("{\"", stringify!($variant), "\":{"));
        $($crate::write_member($out, concat!("\"", stringify!($f), "\":"), $f);)*
        $out.push_str("}}");
    }};
    ($out:ident, $variant:ident ( $inner:ident )) => {{
        $out.push_str(concat!("{\"", stringify!($variant), "\":"));
        $crate::ToJson::write_json($inner, $out);
        $out.push('}');
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_enum_try {
    ($v:expr, $ty:ident, $variant:ident) => {
        match $v {
            $crate::Json::Str(s) if s == stringify!($variant) => Some($ty::$variant),
            _ => None,
        }
    };
    ($v:expr, $ty:ident, $variant:ident { $($f:ident),* }) => {
        match $v {
            $crate::Json::Obj(o) if o.len() == 1 && o[0].0 == stringify!($variant) => {
                #[allow(unused_variables)]
                let body = &o[0].1;
                (|| {
                    Some($ty::$variant {
                        $($f: $crate::FromJson::from_json(body.get(stringify!($f))?).ok()?),*
                    })
                })()
            }
            _ => None,
        }
    };
    ($v:expr, $ty:ident, $variant:ident ( $inner:ident )) => {
        match $v {
            $crate::Json::Obj(o) if o.len() == 1 && o[0].0 == stringify!($variant) => {
                $crate::FromJson::from_json(&o[0].1).ok().map($ty::$variant)
            }
            _ => None,
        }
    };
}

/// Implement [`ToJson`] + [`FromJson`] for an enum in serde's externally
/// tagged form. Unit variants serialize as `"Name"`, struct variants as
/// `{"Name":{...fields...}}`, and newtype variants (written `Name(binder)`)
/// as `{"Name":<inner>}`.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident $( { $($f:ident),* $(,)? } )? $( ( $inner:ident ) )?),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn write_json(&self, out: &mut ::std::string::String) {
                match self {
                    $(
                        $ty::$variant $( { $($f),* } )? $( ($inner) )? =>
                            $crate::__json_enum_write_arm!(out, $variant $( { $($f),* } )? $( ($inner) )?),
                    )+
                }
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                $(
                    if let Some(out) = $crate::__json_enum_try!(v, $ty, $variant $( { $($f),* } )? $( ($inner) )?) {
                        return ::std::result::Result::Ok(out);
                    }
                )+
                ::std::result::Result::Err($crate::JsonError::msg(concat!(
                    "unrecognized ", stringify!($ty), " variant"
                )))
            }
        }
    };
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_to_matches_dump_and_propagates_errors() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b".into())),
            ("n".into(), Json::Arr(vec![Json::UInt(1), Json::Null])),
            ("f".into(), Json::Float(1.5)),
        ]);
        let mut buf = Vec::new();
        v.write_to(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), v.dump());

        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink broke"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(v.write_to(&mut Broken).is_err());
        assert!(to_writer(&42u32, &mut Broken).is_err());
        let mut ok = Vec::new();
        to_writer(&vec![1u8, 2], &mut ok).unwrap();
        assert_eq!(ok, b"[1,2]");
    }

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.dump(), text);
        }
    }

    #[test]
    fn containers_roundtrip_compactly() {
        let text = r#"{"a":1,"b":[1,2,{"c":"d"}],"e":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.dump(), text);
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\u{1}".to_string());
        let dumped = v.dump();
        assert_eq!(dumped, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(Json::parse(&dumped).unwrap(), v);
    }

    #[test]
    fn shared_strings_round_trip_with_escapes() {
        use std::sync::Arc;
        for s in ["", "plain", "a\"b\\c\nd\u{1}\t", "é😀\u{7ff}"] {
            let shared: Arc<str> = s.into();
            let text = to_string(&shared);
            assert_eq!(text, to_string(s), "{s:?}");
            let back: Arc<str> = from_str(&text).unwrap();
            assert_eq!(back, shared);
            let none: Option<Arc<str>> = from_str("null").unwrap();
            assert_eq!(none, None);
        }
        let err = from_str::<Arc<str>>("7").unwrap_err().to_string();
        assert!(err.contains("expected string"), "{err}");
    }

    /// The char-by-char escaper the run-copying one replaced.
    fn escaped_reference(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn escaper_and_integer_printer_match_their_references() {
        let mut every_ascii: String = (0u8..0x80).map(char::from).collect();
        every_ascii.push_str("é😀\u{7ff}");
        for s in [every_ascii.as_str(), "", "plain", "\"", "a\u{1f}b", "😀\\"] {
            let mut out = String::new();
            write_escaped(s, &mut out);
            assert_eq!(out, escaped_reference(s), "{s:?}");
            assert_eq!(to_string(s), out);
            assert_eq!(to_string(&s.to_string()), out);
        }
        for v in [0, 1, 9, 10, 99, 100, u64::MAX / 10, u64::MAX] {
            assert_eq!(to_string(&v), v.to_string());
            assert_eq!(Json::UInt(v).dump(), v.to_string());
        }
        for v in [0, -1, -10, 7, i64::MIN, i64::MAX] {
            assert_eq!(to_string(&v), v.to_string());
            assert_eq!(Json::Int(v).dump(), v.to_string());
        }
        assert_eq!(to_string(&-5i8), "-5");
        assert_eq!(to_string(&u8::MAX), "255");
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse(r#""A😀""#).unwrap(),
            Json::Str("A\u{1F600}".to_string())
        );
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert!(e.to_string().contains("byte"));
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("1 2").is_err());
    }

    #[test]
    fn integral_floats_keep_point() {
        assert_eq!(Json::Float(1.0).dump(), "1.0");
        assert_eq!(Json::Float(2.25).dump(), "2.25");
    }

    #[test]
    fn large_integral_floats_parse_back_as_floats() {
        let two_53 = 9_007_199_254_740_992.0;
        for v in [
            1e15,
            two_53,
            18_446_744_073_709_551_616.0,
            1e20,
            -1e20,
            1e300,
            f64::MAX,
        ] {
            let text = to_string(&v);
            assert_eq!(
                Json::parse(&text),
                Ok(Json::Float(v)),
                "{v} printed as {text}"
            );
        }
        assert_eq!(to_string(&1e20), "1e20");
        assert_eq!(to_string(&(1e15 - 1.0)), "999999999999999.0");
    }

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Point {
        x: u32,
        y: i64,
        tag: String,
    }
    json_struct!(Point { x, y, tag });

    #[derive(Clone, Debug, PartialEq)]
    struct Wrapper(u32);
    json_newtype!(Wrapper);

    #[derive(Clone, Debug, PartialEq)]
    enum Shape {
        Dot,
        Line { from: u32, to: u32 },
        Blob(Point),
    }
    json_enum!(Shape {
        Dot,
        Line { from, to },
        Blob(inner),
    });

    #[test]
    fn struct_macro_roundtrips() {
        let p = Point {
            x: 4,
            y: -2,
            tag: "t".into(),
        };
        let s = to_string(&p);
        assert_eq!(s, r#"{"x":4,"y":-2,"tag":"t"}"#);
        assert_eq!(Json::parse(&s).unwrap().dump(), s);
        assert_eq!(from_str::<Point>(&s).unwrap(), p);
        assert!(from_str::<Point>(r#"{"x":4}"#).is_err());
    }

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Tagged {
        id: u32,
        tags: BTreeSet<String>,
        note: Option<String>,
        extra: Vec<u32>,
    }
    json_struct!(Tagged {
        id,
        tags,
        #[optional]
        note,
        #[optional]
        extra,
    });

    #[test]
    fn optional_fields_roundtrip_omit_defaults_and_read_absent_as_default() {
        let full = Tagged {
            id: 1,
            tags: ["b".to_string(), "a".to_string()].into(),
            note: Some("n".into()),
            extra: vec![3],
        };
        let s = to_string(&full);
        // Sets are arrays in set order; optional fields keep their place.
        assert_eq!(s, r#"{"id":1,"tags":["a","b"],"note":"n","extra":[3]}"#);
        assert_eq!(Json::parse(&s).unwrap().dump(), s);
        assert_eq!(from_str::<Tagged>(&s).unwrap(), full);

        // A field holding its default is left out, and an absent one reads
        // back as the default.
        let bare = Tagged {
            id: 2,
            ..Tagged::default()
        };
        let s = to_string(&bare);
        assert_eq!(s, r#"{"id":2,"tags":[]}"#);
        assert_eq!(Json::parse(&s).unwrap().dump(), s);
        assert_eq!(from_str::<Tagged>(&s).unwrap(), bare);
        let only_extra = from_str::<Tagged>(r#"{"id":3,"tags":[],"extra":[1,2]}"#).unwrap();
        assert_eq!(only_extra.note, None);
        assert_eq!(only_extra.extra, vec![1, 2]);

        // Required fields stay required; a present optional field must
        // still have the right type.
        assert!(from_str::<Tagged>(r#"{"id":4}"#).is_err());
        assert!(from_str::<Tagged>(r#"{"id":4,"tags":[],"note":7}"#).is_err());
        assert!(from_str::<BTreeSet<u32>>("{}").is_err());
    }

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Line {
        name: String,
        point: Point,
        tagged: Tagged,
    }
    json_struct!(Line {
        name,
        #[flatten]
        point,
        #[flatten]
        tagged,
    });

    #[test]
    fn flattened_fields_print_inline_and_decode_from_the_same_object() {
        let line = Line {
            name: "l".into(),
            point: Point {
                x: 1,
                y: -1,
                tag: "p".into(),
            },
            tagged: Tagged {
                id: 7,
                extra: vec![2],
                ..Tagged::default()
            },
        };
        let s = to_string(&line);
        assert_eq!(
            s,
            r#"{"name":"l","x":1,"y":-1,"tag":"p","id":7,"tags":[],"extra":[2]}"#
        );
        assert_eq!(Json::parse(&s).unwrap().dump(), s);
        assert_eq!(from_str::<Line>(&s).unwrap(), line);
        // A flattened struct printed first needs no comma before it.
        let mut out = String::from("{");
        line.point.write_members(&mut out);
        assert_eq!(out, r#"{"x":1,"y":-1,"tag":"p""#);
        // Its members are required like any other.
        let err = from_str::<Line>(r#"{"name":"l","x":1,"tag":"p","id":7,"tags":[]}"#);
        assert_eq!(err.unwrap_err().to_string(), "missing field `y` in Point");
    }

    #[test]
    fn decode_errors_name_the_field() {
        let err = |text: &str| from_str::<Line>(text).unwrap_err().to_string();
        let tail = r#""x":1,"y":-1,"tag":"p","id":7"#;
        assert_eq!(
            err(&format!(r#"{{"name":3,{tail},"tags":[]}}"#)),
            "field `name`: expected string, found integer"
        );
        assert_eq!(
            err(&format!(r#"{{"name":"l",{tail},"tags":[],"note":[]}}"#)),
            "field `note`: expected string, found array"
        );
        // A nested struct's field names each field on the way down.
        #[derive(Debug)]
        struct Outer {
            #[allow(dead_code)]
            inner: Point,
        }
        json_struct!(Outer { inner });
        let nested = from_str::<Outer>(r#"{"inner":{"x":"one","y":0,"tag":""}}"#);
        assert_eq!(
            nested.unwrap_err().to_string(),
            "field `inner`: field `x`: expected unsigned integer, found string"
        );
    }

    #[test]
    fn declared_keys_replace_field_names_both_ways() {
        #[derive(Debug, Default)]
        struct Keyed {
            fn_: u64,
            static_: Option<u64>,
        }
        json_struct!(Keyed { fn_ = "fn", #[optional] static_ = "static" });
        let text = r#"{"fn":1,"static":2}"#;
        let keyed: Keyed = from_str(text).unwrap();
        assert_eq!((keyed.fn_, keyed.static_), (1, Some(2)));
        assert_eq!(to_string(&keyed), text);
        assert_eq!(to_string(&Keyed::default()), r#"{"fn":0}"#);
        let err = from_str::<Keyed>(r#"{"fn_":1}"#).unwrap_err().to_string();
        assert_eq!(err, "missing field `fn` in Keyed");
    }

    #[test]
    fn newtype_macro_is_transparent() {
        assert_eq!(to_string(&Wrapper(9)), "9");
        assert_eq!(from_str::<Wrapper>("9").unwrap(), Wrapper(9));
    }

    #[test]
    fn enum_macro_matches_serde_shapes() {
        assert_eq!(to_string(&Shape::Dot), r#""Dot""#);
        let line = Shape::Line { from: 1, to: 2 };
        assert_eq!(to_string(&line), r#"{"Line":{"from":1,"to":2}}"#);
        let blob = Shape::Blob(Point {
            x: 0,
            y: 0,
            tag: String::new(),
        });
        assert_eq!(to_string(&blob), r#"{"Blob":{"x":0,"y":0,"tag":""}}"#);
        for shape in [Shape::Dot, line, blob] {
            let s = to_string(&shape);
            assert_eq!(from_str::<Shape>(&s).unwrap(), shape);
        }
    }

    #[test]
    fn maps_tuples_options() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), vec![(1u32, true)]);
        let s = to_string(&m);
        assert_eq!(s, r#"{"k":[[1,true]]}"#);
        let back: BTreeMap<String, Vec<(u32, bool)>> = from_str(&s).unwrap();
        assert_eq!(back, m);
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
        let arc: std::sync::Arc<[(i8, f64, &str)]> = vec![(-1, 2.0, "a"), (0, 0.5, "")].into();
        assert_eq!(to_string(&arc), r#"[[-1,2.0,"a"],[0,0.5,""]]"#);
        let set: BTreeSet<u64> = [3, 1].into();
        assert_eq!(to_string(&std::sync::Arc::new(set)), "[1,3]");
        assert_eq!(to_string(&f64::NAN), "null");
    }
}
