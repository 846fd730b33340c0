//! The one JSON writer and reader. Every report, trace, reproducer and
//! `repro --json` artifact is written by [`Writer`]: compact, strings
//! escaped in one function ([`Writer::str`]), integers exact, and the
//! fixed-decimal numbers (a histogram mean, a Chrome-trace µs timestamp)
//! rendered by the caller and handed to [`Writer::raw`]. [`parse`] keeps
//! number tokens, so a seed above 2^53 reads back exactly, and fails on
//! nesting deeper than [`MAX_DEPTH`] instead of overflowing the stack.

use std::fmt::Write as _;

/// Something that writes itself as one JSON value.
pub trait ToJson {
    /// Appends `self` to `w` as one value.
    fn write_json(&self, w: &mut Writer);
}

/// A compact JSON writer. Containers nest through closures, so every
/// object and array it opens is closed.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// A value was written at the current level: the next needs a comma.
    comma: bool,
}

impl Writer {
    /// Starts a value: a comma unless it is the first at its level.
    fn sep(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    fn container(&mut self, brackets: [char; 2], body: impl FnOnce(&mut Self)) -> &mut Self {
        self.sep().push(brackets[0]);
        self.comma = false;
        body(self);
        self.out.push(brackets[1]);
        self.comma = true;
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(['{', '}'], body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(['[', ']'], body)
    }

    /// Writes a member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key).out.push(':');
        self.comma = false;
        self
    }

    /// Writes one object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Writes a string. The one place JSON strings are escaped: `"` and
    /// `\`, `\n`/`\r`/`\t`, other control characters as `\u00XX`;
    /// everything else, non-ASCII included, is written as is.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.sep();
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
        self
    }

    /// Writes a value the caller rendered as JSON, as is: a fixed-decimal
    /// number such as `format!("{x:.1}")`, or a [`document`].
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.sep().push_str(json);
        self
    }
}

/// The value `body` writes, as one compact document ending in a newline.
pub fn document(body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    body(&mut w);
    w.out + "\n"
}

/// Integers: their `Display` form is their exact JSON.
macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                let _ = write!(w.sep(), "{self}");
            }
        }
    )*};
}
display_to_json!(u16, u32, u64, usize);

impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => _ = w.raw("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.array(|w| self.iter().for_each(|v| v.write_json(w)));
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        self.as_slice().write_json(w);
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut Writer) {
        w.array(|w| {
            self.0.write_json(w);
            self.1.write_json(w);
        });
    }
}

/// Deepest object/array nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number as its source token, so integers of any size stay exact.
    Number(String),
    String(String),
    Array(Vec<Value>),
    /// Members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(m) = self else { return None };
        m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A number that is a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Number(t) = self else { return None };
        t.parse().ok()
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        let Value::String(s) = self else { return None };
        Some(s)
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(a) = self else { return None };
        Some(a)
    }
}

/// [`parse`]'s input is not one JSON document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Error;

/// Parses one JSON document; whitespace may surround it.
pub fn parse(src: &[u8]) -> Result<Value, Error> {
    let mut p = Parser { src, at: 0 };
    let v = p.value(0)?;
    p.ws();
    (p.at == src.len()).then_some(v).ok_or(Error)
}

struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.at += usize::from(hit);
        hit
    }

    /// Consumes `b`, which must be next.
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        self.eat(b).then_some(()).ok_or(Error)
    }

    /// `depth` counts the containers around the value.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.ws();
        match self.peek() {
            Some(b'[') => self
                .items(depth, b']', |p| p.value(depth + 1))
                .map(Value::Array),
            Some(b'{') => self
                .items(depth, b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error),
        }
    }

    /// The comma-separated items of the container opening here.
    fn items<T>(
        &mut self,
        depth: usize,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        if depth == MAX_DEPTH {
            return Err(Error);
        }
        self.at += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        let hit = self.src[self.at..].starts_with(word.as_bytes());
        self.at += word.len();
        hit.then_some(v).ok_or(Error)
    }

    fn digits(&mut self) -> bool {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at > start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        self.eat(b'-');
        let int = self.eat(b'0') || self.digits();
        let frac = !self.eat(b'.') || self.digits();
        let exp = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        let token = String::from_utf8_lossy(&self.src[start..self.at]);
        (int && frac && exp)
            .then(|| Value::Number(token.into_owned()))
            .ok_or(Error)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = self.peek();
            self.at += 1;
            let c = match b {
                Some(b'"') => return String::from_utf8(out).map_err(|_| Error),
                Some(b'\\') => {
                    let escape = self.peek();
                    self.at += 1;
                    match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(Error),
                    }
                }
                Some(b @ 0x20..) => {
                    out.push(b);
                    continue;
                }
                _ => return Err(Error),
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.src.get(self.at..self.at + 4);
        let hex = hex.filter(|h| h.iter().all(u8::is_ascii_hexdigit));
        let hex = hex.ok_or(Error)?;
        self.at += 4;
        Ok(hex
            .iter()
            .fold(0, |v, &d| v * 16 + (d as char).to_digit(16).unwrap_or(0)))
    }

    /// A `\u` escape after its `u`; a UTF-16 surrogate pair spans two.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.src[self.at..].starts_with(b"\\u") {
            self.at += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(Error);
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        char::from_u32(code).ok_or(Error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A parsed value writes back as itself (numbers as their tokens).
    impl ToJson for Value {
        fn write_json(&self, w: &mut Writer) {
            match self {
                Value::Null => _ = w.raw("null"),
                Value::Bool(b) => _ = w.raw(if *b { "true" } else { "false" }),
                Value::Number(t) => _ = w.raw(t),
                Value::String(s) => _ = w.str(s),
                Value::Array(items) => items.write_json(w),
                Value::Object(members) => {
                    w.object(|w| members.iter().for_each(|(k, v)| _ = w.field(k, v)));
                }
            }
        }
    }

    #[test]
    fn writer_is_compact_and_escapes_in_one_place() {
        let doc = document(|w| {
            w.object(|w| {
                w.field("n", 7u64)
                    .field("s", "q\"b\\s\n\r\t\u{1}\u{7f}é")
                    .field("none", None::<u32>);
                w.field("pairs", vec![(1u64, 2u64), (3, 4)])
                    .field("empty", [0usize; 0].as_slice());
                w.key("mean")
                    .raw("12.5")
                    .key("o")
                    .object(|w| _ = w.field("a", &[1u16][..]));
            });
        });
        assert_eq!(
            doc,
            "{\"n\":7,\"s\":\"q\\\"b\\\\s\\n\\r\\t\\u0001\u{7f}é\",\"none\":null,\
             \"pairs\":[[1,2],[3,4]],\"empty\":[],\"mean\":12.5,\"o\":{\"a\":[1]}}\n"
        );
    }

    #[test]
    fn reader_accepts_json_and_rejects_the_rest() {
        let v = parse(b" {\"a\" : [1, -0.5e+3, true, null, \"\\u00e9\\ud83d\\ude00\\/\"] }\n");
        let a = v.as_ref().ok().and_then(|v| v.get("a")?.as_array());
        let (one, num) = (Value::Number("1".into()), Value::Number("-0.5e+3".into()));
        let text = Value::String("é😀/".into());
        assert_eq!(
            a,
            Some(&[one, num, Value::Bool(true), Value::Null, text][..])
        );
        let bad =
            "|{|[1,]|[1 2]|{\"a\"}|{1:2}|01|1.|-|1e|+1|tru|\"ab|\"\\x\"|\"\\u12\"|\"\\u+123\"\
                   |\"\\ud800\"|\"\\udc00\"|\"\\ud800\\u0041\"|\"a\u{1}b\"|1 2|[]]";
        for doc in bad.split('|') {
            assert!(parse(doc.as_bytes()).is_err(), "{doc:?} parsed");
        }
        assert!(parse(b"\"\xff\"").is_err(), "invalid UTF-8 inside a string");
        // The cap admits MAX_DEPTH containers and fails on the next one.
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(deep(MAX_DEPTH).as_bytes()).is_ok());
        assert_eq!(parse(deep(MAX_DEPTH + 1).as_bytes()), Err(Error));
    }

    /// Characters escaping is about: quotes, backslashes, control
    /// characters and non-ASCII, with some plain ASCII between.
    fn tricky(picks: &[(u8, u32)]) -> String {
        let pick = |&(class, x): &(u8, u32)| match class {
            0 => Some(['"', '\\', '/'][x as usize % 3]),
            1 => char::from_u32(x % 0x20),
            2 => char::from_u32(0x20 + x % 0x60),
            _ => char::from_u32(0x80 + x % 0x10_ff80),
        };
        picks.iter().filter_map(pick).collect()
    }

    /// Bytes the reader branches on, so arbitrary input gets past the
    /// first token.
    const ALPHABET: &[u8] = b"[]{}:,\"\\/0123456789-+.eEtrufalsn u \n\x01\xc3\xa9\xff";

    proptest! {
        #[test]
        fn written_strings_and_integers_read_back(
            picks in collection::vec((0u8..4, any::<u32>()), 0..40),
            n in any::<u64>(),
        ) {
            let s = tricky(&picks);
            let exact = [0, (1u64 << 53) + 1, u64::MAX];
            let doc = document(|w| _ = w.object(|w| _ = w.field(&s, &s).field("n", n).field("x", exact.as_slice())));
            let v = parse(doc.as_bytes());
            prop_assert!(v.is_ok(), "{doc:?} does not read back: {v:?}");
            let v = v.unwrap();
            prop_assert_eq!(v.get(&s).and_then(Value::as_str), Some(s.as_str()));
            prop_assert_eq!(v.get("n").and_then(Value::as_u64), Some(n));
            let x = v.get("x").and_then(Value::as_array).unwrap_or(&[]);
            prop_assert_eq!(x.iter().map(Value::as_u64).collect::<Vec<_>>(), exact.map(Some));
            // A strict prefix of a value is not a document.
            let value = doc.trim_end();
            let cut = picks.len() * 7 % value.len();
            prop_assert!(parse(&value.as_bytes()[..cut]).is_err(), "{cut} of {doc:?} parsed");
        }

        #[test]
        fn arbitrary_bytes_are_an_error_or_a_document(
            raw in collection::vec((any::<bool>(), any::<u8>()), 0..64),
        ) {
            let pick = |&(alpha, b): &(bool, u8)| if alpha { ALPHABET[b as usize % ALPHABET.len()] } else { b };
            let bytes: Vec<u8> = raw.iter().map(pick).collect();
            // Never a panic; and what reads back writes out as the same value.
            if let Ok(v) = parse(&bytes) {
                prop_assert_eq!(parse(document(|w| v.write_json(w)).as_bytes()), Ok(v));
            }
            // Behind 10^5 open brackets, anything is an error.
            let mut open = b"[".repeat(100_000);
            open.extend_from_slice(&bytes);
            prop_assert!(parse(&open).is_err());
        }
    }
}
