//! The workspace's one JSON codec, hand-written because the workspace has
//! no JSON dependency: [`Writer`] writes every JSON byte the simulator and
//! the harness emit, and [`parse_json`] reads it back. The writer alone
//! escapes strings and formats numbers: integers in full, floats in Rust's
//! shortest round-trip `Display` form (`null` when not finite), [`Fixed6`]
//! as the one fixed-precision form. The parser gives back the same
//! strings, finite floats and integers up to 2^53 (property-tested below).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON document under construction, appended into one `String`, keys
/// in the order written: `w.begin_obj().field("n", 1u64).end()`.
/// Separators are inserted inside objects and arrays; top-level values are
/// consecutive documents with none, which is what JSONL needs.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Closing bracket and element separator of each open container.
    open: Vec<(char, &'static str)>,
    /// Whether the next key or element needs a separator.
    after_value: bool,
}

/// A value with one JSON rendering.
pub trait ToJson {
    /// Writes this value at the writer's position.
    fn write_json(&self, w: &mut Writer);

    /// This value as a JSON document.
    fn to_json(&self) -> String {
        render(|w| self.write_json(w))
    }
}

/// Runs `write` on a fresh [`Writer`] and returns the text it wrote.
pub fn render(write: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::default();
    write(&mut w);
    w.out
}

impl Writer {
    fn begin(&mut self, open: char, close: char, sep: &'static str) -> &mut Self {
        self.token(format_args!("{open}"));
        self.open.push((close, sep));
        self.after_value = false;
        self
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.begin('{', '}', ",")
    }

    /// Opens an array whose elements are separated by `sep`: `","`, or a
    /// comma and whitespace, e.g. `",\n"` for one element per line.
    pub fn begin_arr(&mut self, sep: &'static str) -> &mut Self {
        self.begin('[', ']', sep)
    }

    /// Closes the innermost open object or array.
    pub fn end(&mut self) -> &mut Self {
        let (close, _) = self.open.pop().expect("end() with no open container");
        self.out.push(close);
        self.after_value = true;
        self
    }

    /// Writes layout whitespace between tokens.
    pub fn ws(&mut self, ws: &'static str) -> &mut Self {
        self.out.push_str(ws);
        self
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        key.write_json(self);
        self.out.push(':');
        self.after_value = false;
        self
    }

    /// Writes one value: an array element, the value of the key just
    /// written, or a document of its own at the top level.
    pub fn value(&mut self, v: impl ToJson) -> &mut Self {
        v.write_json(self);
        self
    }

    /// Writes one object member.
    pub fn field(&mut self, key: &str, v: impl ToJson) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes one token (a number, `null`, a string's opening quote or an
    /// opening bracket), after a separator when one is due.
    fn token(&mut self, args: fmt::Arguments) {
        if let (true, Some(&(_, sep))) = (self.after_value, self.open.last()) {
            self.out.push_str(sep);
        }
        let _ = self.out.write_fmt(args);
        self.after_value = true;
    }
}

macro_rules! display_to_json {
    ($($t:ty)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut Writer) {
                w.token(format_args!("{self}"));
            }
        }
    )*};
}
display_to_json!(u16 u64 usize);

/// Shortest round-trip form, or `null` when not finite.
impl ToJson for f64 {
    fn write_json(&self, w: &mut Writer) {
        if self.is_finite() {
            w.token(format_args!("{self}"));
        } else {
            w.token(format_args!("null"));
        }
    }
}

/// A float written with exactly six decimals (`null` when not finite):
/// fixed precision formats the same on every platform.
pub struct Fixed6(pub f64);

impl ToJson for Fixed6 {
    fn write_json(&self, w: &mut Writer) {
        if self.0.is_finite() {
            w.token(format_args!("{:.6}", self.0));
        } else {
            w.token(format_args!("null"));
        }
    }
}

/// `"`, `\` and newline get their short escapes, every other control
/// character a `\u00XX` escape.
impl ToJson for str {
    fn write_json(&self, w: &mut Writer) {
        w.token(format_args!("\""));
        for c in self.chars() {
            let _ = match c {
                '"' => w.out.write_str("\\\""),
                '\\' => w.out.write_str("\\\\"),
                '\n' => w.out.write_str("\\n"),
                c if (c as u32) < 0x20 => write!(w.out, "\\u{:04x}", c as u32),
                c => w.out.write_char(c),
            };
        }
        w.out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut Writer) {
        self.as_str().write_json(w);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

/// `null` when absent.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => w.token(format_args!("null")),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_arr(",");
        for v in self {
            w.value(v);
        }
        w.end();
    }
}

/// A pair is a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, w: &mut Writer) {
        w.begin_arr(",").value(&self.0).value(&self.1).end();
    }
}

/// An object, members in key order.
impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj();
        for (k, v) in self {
            w.field(k, v);
        }
        w.end();
    }
}

// ---------------------------------------------------------------------------
// The parser.
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object keys keep file order (`Vec`, not a map):
/// the writer emits a fixed key order and tests assert on it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in file order.
    Obj(Vec<(String, Json)>),
}

/// The largest integer a [`Json::Num`] holds exactly.
pub const MAX_EXACT_INT: u64 = 1 << 53;

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer no larger than
    /// [`MAX_EXACT_INT`]. Larger numbers were rounded when parsed, so they
    /// are refused rather than returned wrong.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= MAX_EXACT_INT as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. Nothing the workspace writes
/// nests more than a few levels; the bound keeps the recursive descent
/// from overflowing the stack on hostile input.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace is an error.
/// Every error names the byte offset it was detected at.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    let quote = *pos;
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(format!("unterminated string at byte {quote}")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|hex| std::str::from_utf8(hex).ok())
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // The writer never emits surrogate pairs; reject
                        // them rather than silently mis-decoding.
                        let c = char::from_u32(code).ok_or_else(|| {
                            format!("\\u{code:04x} is not a scalar value at byte {pos}")
                        })?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe
                // to do bytewise by finding the next char boundary).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                );
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {s:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn json_parser_roundtrips_trace_shapes() {
        let v =
            parse_json("{\"a\":1,\"b\":null,\"c\":[true,false,\"x\\n\\u0041\"],\"d\":{\"e\":2.5}}")
                .unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b"), Some(&Json::Null));
        let arr = v.get("c").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[2].as_str(), Some("x\nA"));
        assert_eq!(v.get("d").and_then(|d| d.get("e")), Some(&Json::Num(2.5)));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        let err = parse_json(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // At the bound itself the document still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn as_u64_refuses_integers_past_2_pow_53() {
        let num = |text: &str| parse_json(text).unwrap();
        assert_eq!(num("9007199254740992").as_u64(), Some(MAX_EXACT_INT));
        assert_eq!(num("18446744073709551616").as_u64(), None);
        assert_eq!(num("18446744073709551615").as_u64(), None);
        assert_eq!(num("1e300").as_u64(), None);
        assert_eq!(num("-1").as_u64(), None);
        assert_eq!(num("1.5").as_u64(), None);
        assert_eq!(num("0").as_u64(), Some(0));
    }

    #[test]
    fn writer_separates_nests_and_lays_out() {
        let doc = render(|w| {
            w.begin_obj().field("a", 1u64).key("b").begin_arr(",");
            w.value(None::<u64>)
                .value("x")
                .value(0.5)
                .value(Fixed6(2.0 / 3.0));
            w.end().field("c", BTreeMap::<String, u64>::new());
            w.field("d", Vec::<u64>::new())
                .field("e", (1u16, "y"))
                .end();
        });
        assert_eq!(
            doc,
            "{\"a\":1,\"b\":[null,\"x\",0.5,0.666667],\"c\":{},\"d\":[],\"e\":[1,\"y\"]}"
        );
        let lines = render(|w| {
            w.begin_arr(",\n ")
                .value(1u64)
                .value(2u64)
                .value(3u64)
                .end();
            w.ws("\n").value(vec![7usize]).ws("\n").value("z").ws("\n");
        });
        assert_eq!(lines, "[1,\n 2,\n 3]\n[7]\n\"z\"\n");
        let floats = render(|w| {
            let odd = vec![f64::NAN, f64::INFINITY, -0.0, 1e21, 1.5e-7];
            w.begin_arr(",").value(odd).value(Fixed6(f64::NAN)).end();
        });
        assert_eq!(
            floats,
            "[[null,null,-0,1000000000000000000000,0.00000015],null]"
        );
    }

    #[test]
    fn writer_escapes_exactly_quote_backslash_and_controls() {
        let doc = render(|w| {
            w.value("q\"b\\n\nt\tr\r\u{1}\u{1f}\u{7f}é😀/");
        });
        assert_eq!(
            doc,
            "\"q\\\"b\\\\n\\nt\\u0009r\\u000d\\u0001\\u001f\u{7f}é😀/\""
        );
    }

    /// JSON-ish fragments, so generated inputs get past the first byte.
    const FRAGMENTS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "00e9", "d800", "\\n", "u", "0", "17",
        "-", ".", "e", "+", "null", "nul", "true", "false", "f", " ", "\n", "\"k\":", "é", "😀",
        "x",
    ];

    /// One character from a class chosen by `class`: a control character,
    /// a quote or backslash, printable ASCII, any other BMP scalar, or an
    /// astral-plane scalar.
    fn pick_char(class: u32, raw: u32) -> char {
        let code = match class {
            0 => raw % 0x20,
            1 => [u32::from(b'"'), u32::from(b'\\')][(raw % 2) as usize],
            2 => 0x20 + raw % 0x5f,
            3 => 0x80 + raw % (0x1_0000 - 0x80),
            _ => 0x1_0000 + raw % (0x11_0000 - 0x1_0000),
        };
        char::from_u32(code).unwrap_or('\u{fffd}')
    }

    proptest! {
        /// Arbitrary input never panics, and every rejection says where.
        #[test]
        fn parse_json_never_panics_and_errors_carry_a_position(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..64),
        ) {
            let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            if let Err(e) = parse_json(&text) {
                prop_assert!(e.contains(" at byte "), "{e:?} from {text:?}");
            }
            if let Err(e) = crate::obs::parse_jsonl(&text) {
                prop_assert!(
                    e.starts_with("line ") || e.contains("Chrome trace_event"),
                    "{e:?} from {text:?}"
                );
            }
        }

        /// What the writer writes, the parser reads back: strings of every
        /// character class, integers up to 2^53 and finite floats.
        #[test]
        fn parse_json_reads_back_what_the_writer_wrote(
            chars in proptest::collection::vec((0u32..5, any::<u32>()), 0..24),
            int in 0u64..=MAX_EXACT_INT,
            bits in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let s: String = chars.iter().map(|&(c, raw)| pick_char(c, raw)).collect();
            let floats: Vec<f64> = bits
                .iter()
                .map(|&b| f64::from_bits(b))
                .filter(|f| f.is_finite())
                .collect();
            let doc = render(|w| {
                w.begin_obj().field(&s, &s).field("int", int);
                w.field("floats", &floats).end();
            });
            let v = parse_json(&doc).map_err(|e| TestCaseError::fail(format!("{e}: {doc}")))?;
            let Json::Obj(members) = &v else {
                return Err(TestCaseError::fail(format!("not an object: {doc}")));
            };
            prop_assert_eq!(&members[0].0, &s);
            prop_assert_eq!(members[0].1.as_str(), Some(s.as_str()));
            prop_assert_eq!(v.get("int").and_then(Json::as_u64), Some(int));
            let back: Vec<f64> = v
                .get("floats")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|f| match f {
                    Json::Num(x) => *x,
                    _ => f64::NAN,
                })
                .collect();
            prop_assert_eq!(back, floats, "{}", doc);
        }
    }
}
