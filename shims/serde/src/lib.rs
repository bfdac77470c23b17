//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no crates.io access, so
//! this shim supplies the thin slice of serde's API the workspace uses:
//! `#[derive(Serialize, Deserialize)]` plus JSON round-tripping via the
//! sibling `serde_json` shim. The traits here are *not* the real serde
//! data model — they serialize directly to JSON text and parse directly
//! from it, which is all the workspace needs (checkpoints, config files,
//! test round-trips).
//!
//! Supported shapes (enforced by the derive in `serde_derive`):
//! named-field structs (including generic ones), newtype/tuple structs,
//! and enums with unit, named-field or tuple variants, using the same
//! JSON encoding as real serde's default ("externally tagged") format.

pub use serde_derive::{Deserialize, Serialize};

/// JSON serialization: append the JSON encoding of `self` to `out`.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn json_ser(&self, out: &mut String);
}

/// JSON deserialization: parse a value of `Self` from the parser.
pub trait Deserialize: Sized {
    /// Parses a `Self` from the JSON parser.
    fn json_deser(p: &mut de::Parser<'_>) -> Result<Self, de::Error>;
}

/// Minimal JSON parsing infrastructure shared by the derive output and the
/// `serde_json` shim.
pub mod de {
    use std::fmt;

    /// A JSON parse error with byte offset context.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error {
        msg: String,
        pos: usize,
    }

    impl Error {
        /// Creates an error at a byte offset.
        pub fn new(msg: impl Into<String>, pos: usize) -> Self {
            Error {
                msg: msg.into(),
                pos,
            }
        }

        /// A "missing field" error (offset unknown).
        pub fn missing(field: &str) -> Self {
            Error::new(format!("missing field `{field}`"), 0)
        }

        /// An "unknown enum variant" error.
        pub fn unknown_variant(name: &str) -> Self {
            Error::new(format!("unknown variant `{name}`"), 0)
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{} at byte {}", self.msg, self.pos)
        }
    }

    impl std::error::Error for Error {}

    /// Deepest nesting of arrays and objects a document may have (serde_json's
    /// default recursion limit). Deeper input is an error, not a stack
    /// overflow in the recursive descent.
    pub const MAX_DEPTH: usize = 128;

    /// A cursor over JSON text.
    pub struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        /// Creates a parser over `input`.
        pub fn new(input: &'a str) -> Self {
            Parser {
                bytes: input.as_bytes(),
                pos: 0,
                depth: 0,
            }
        }

        fn err(&self, msg: impl Into<String>) -> Error {
            Error::new(msg, self.pos)
        }

        /// Skips whitespace.
        pub fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        /// Peeks the next non-whitespace byte without consuming it.
        pub fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        /// Consumes `c` (after whitespace) or errors. Opening `{` / `[` must be
        /// consumed here: it counts one nesting level against [`MAX_DEPTH`].
        pub fn expect(&mut self, c: char) -> Result<(), Error> {
            if !self.try_consume(c) {
                return Err(self.err(format!(
                    "expected `{c}`, found {:?}",
                    self.bytes.get(self.pos).map(|&b| b as char)
                )));
            }
            if c == '{' || c == '[' {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("recursion limit of {MAX_DEPTH} exceeded")));
                }
                self.depth += 1;
            }
            Ok(())
        }

        /// Consumes `c` if it is next (after whitespace); returns whether it
        /// did. A closing `}` / `]` leaves one nesting level.
        pub fn try_consume(&mut self, c: char) -> bool {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&(c as u8)) {
                return false;
            }
            self.pos += 1;
            if c == '}' || c == ']' {
                self.depth = self.depth.saturating_sub(1);
            }
            true
        }

        /// True when only whitespace remains.
        pub fn at_end(&mut self) -> bool {
            self.skip_ws();
            self.pos >= self.bytes.len()
        }

        /// Parses a JSON string (with escapes).
        pub fn parse_string(&mut self) -> Result<String, Error> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                let b = *self
                    .bytes
                    .get(self.pos)
                    .ok_or_else(|| self.err("unterminated string"))?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self
                            .bytes
                            .get(self.pos)
                            .ok_or_else(|| self.err("unterminated escape"))?;
                        self.pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("bad \\u code point"))?,
                                );
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    _ => {
                        // Re-walk UTF-8: find the full char starting at pos-1.
                        let start = self.pos - 1;
                        let len = utf8_len(b);
                        let chunk = self
                            .bytes
                            .get(start..start + len)
                            .ok_or_else(|| self.err("truncated UTF-8"))?;
                        let s =
                            std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }

        /// Consumes a numeric token and returns its text.
        pub fn number_str(&mut self) -> Result<&'a str, Error> {
            self.skip_ws();
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit()
                    || b == b'-'
                    || b == b'+'
                    || b == b'.'
                    || b == b'e'
                    || b == b'E'
                {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if start == self.pos {
                return Err(self.err("expected number"));
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error::new("invalid number bytes", start))
        }

        /// Parses the literal `true` or `false`.
        pub fn parse_bool(&mut self) -> Result<bool, Error> {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"true") {
                self.pos += 4;
                Ok(true)
            } else if self.bytes[self.pos..].starts_with(b"false") {
                self.pos += 5;
                Ok(false)
            } else {
                Err(self.err("expected boolean"))
            }
        }

        /// Consumes the literal `null` if present.
        pub fn try_null(&mut self) -> bool {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"null") {
                self.pos += 4;
                true
            } else {
                false
            }
        }

        /// Skips one complete JSON value (used for unknown object keys).
        pub fn skip_value(&mut self) -> Result<(), Error> {
            match self.peek() {
                Some(b'"') => {
                    self.parse_string()?;
                    Ok(())
                }
                Some(b'{') => {
                    self.expect('{')?;
                    if self.try_consume('}') {
                        return Ok(());
                    }
                    loop {
                        self.parse_string()?;
                        self.expect(':')?;
                        self.skip_value()?;
                        if self.try_consume(',') {
                            continue;
                        }
                        self.expect('}')?;
                        return Ok(());
                    }
                }
                Some(b'[') => {
                    self.expect('[')?;
                    if self.try_consume(']') {
                        return Ok(());
                    }
                    loop {
                        self.skip_value()?;
                        if self.try_consume(',') {
                            continue;
                        }
                        self.expect(']')?;
                        return Ok(());
                    }
                }
                Some(b't') | Some(b'f') => {
                    self.parse_bool()?;
                    Ok(())
                }
                Some(b'n') => {
                    if self.try_null() {
                        Ok(())
                    } else {
                        Err(self.err("expected null"))
                    }
                }
                _ => {
                    self.number_str()?;
                    Ok(())
                }
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }
}

/// Appends a JSON string literal (with escapes) to `out`.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn json_ser(&self, out: &mut String) {
                out.push_str(itoa_buf(*self as i128).as_str());
            }
        }
        impl Deserialize for $t {
            fn json_deser(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
                let s = p.number_str()?;
                s.parse::<$t>()
                    .map_err(|e| de::Error::new(format!("bad {}: {e}", stringify!($t)), 0))
            }
        }
    )*};
}

fn itoa_buf(v: i128) -> String {
    v.to_string()
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn json_ser(&self, out: &mut String) {
                if self.is_finite() {
                    // Rust's shortest round-trip float formatting.
                    out.push_str(&self.to_string());
                } else {
                    out.push_str("null");
                }
            }
        }
        impl Deserialize for $t {
            fn json_deser(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
                if p.try_null() {
                    return Ok(<$t>::NAN);
                }
                let s = p.number_str()?;
                s.parse::<$t>()
                    .map_err(|e| de::Error::new(format!("bad {}: {e}", stringify!($t)), 0))
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn json_ser(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn json_deser(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.parse_bool()
    }
}

impl Serialize for String {
    fn json_ser(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for str {
    fn json_ser(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Deserialize for String {
    fn json_deser(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.parse_string()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn json_ser(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.json_ser(out);
        }
        out.push(']');
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn json_deser(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        p.expect('[')?;
        let mut out = Vec::new();
        if p.try_consume(']') {
            return Ok(out);
        }
        loop {
            out.push(T::json_deser(p)?);
            if p.try_consume(',') {
                continue;
            }
            p.expect(']')?;
            return Ok(out);
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn json_ser(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.json_ser(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn json_deser(p: &mut de::Parser<'_>) -> Result<Self, de::Error> {
        if p.try_null() {
            Ok(None)
        } else {
            Ok(Some(T::json_deser(p)?))
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn json_ser(&self, out: &mut String) {
        (**self).json_ser(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn json_ser(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.json_ser(out);
        }
        out.push(']');
    }
}
