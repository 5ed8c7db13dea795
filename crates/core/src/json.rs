//! The workspace's one JSON codec: the run cache's entries, the Perfetto
//! trace files, and the service's request and response bodies. Numbers
//! are kept as raw source tokens and converted at field-extraction time,
//! so `u64` and `f64` both round-trip exactly. [`quote`] is the one
//! string writer.

/// Deepest container nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth lets a hostile document
/// overflow the stack; everything this workspace writes nests far
/// shallower.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Object, insertion-ordered.
    Object(Vec<(String, Value)>),
    /// Array.
    Array(Vec<Value>),
    /// Number, as its raw source token.
    Num(String),
    /// String, escapes decoded.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// Object field view, or `None` for other variants.
    pub fn as_object(&self) -> Option<Obj<'_>> {
        match self {
            Value::Object(fields) => Some(Obj(fields)),
            _ => None,
        }
    }

    /// Array elements, or `None`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Exact `u64`, or `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// `f64` (exact for values written by this module), or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// String contents, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, or `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Field lookup over an object's entries.
#[derive(Debug, Clone, Copy)]
pub struct Obj<'a>(&'a [(String, Value)]);

impl<'a> Obj<'a> {
    /// The value of field `name`, or `None`.
    pub fn get(&self, name: &str) -> Option<&'a Value> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`). [`parse`] reads it back to `s`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document; `None` on any syntax error or past
/// [`MAX_DEPTH`] levels of nesting.
pub fn parse(text: &str) -> Option<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, expected: u8) -> Option<()> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&expected) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// `depth` counts the containers enclosing this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b't' => parse_literal(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_literal(bytes, pos, "false", Value::Bool(false)),
        b'n' => parse_literal(bytes, pos, "null", Value::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    eat(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        eat(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Object(fields));
            }
            _ => return None,
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    eat(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Array(items));
            }
            _ => return None,
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy up to the next quote or backslash verbatim. Both are
        // ASCII, so the run ends on a UTF-8 boundary of the input.
        let start = *pos;
        while !matches!(bytes.get(*pos)?, b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&bytes[start..*pos]).ok()?);
        *pos += 1;
        if bytes[*pos - 1] == b'"' {
            return Some(out);
        }
        let escape = *bytes.get(*pos)?;
        *pos += 1;
        out.push(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => parse_unicode_escape(bytes, pos)?,
            _ => return None,
        });
    }
}

/// The character of a `\uXXXX` escape (its `\u` already eaten),
/// joining a UTF-16 surrogate pair; `None` for a lone surrogate.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Option<char> {
    let mut units = vec![hex4(bytes, pos)?];
    if (0xD800..0xDC00).contains(&units[0]) && bytes.get(*pos..*pos + 2)? == b"\\u" {
        *pos += 2;
        units.push(hex4(bytes, pos)?);
    }
    char::decode_utf16(units).next()?.ok()
}

fn hex4(bytes: &[u8], pos: &mut usize) -> Option<u16> {
    let digits = bytes.get(*pos..*pos + 4)?;
    if !digits.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    *pos += 4;
    u16::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
}

fn parse_literal(bytes: &[u8], pos: &mut usize, text: &str, value: Value) -> Option<Value> {
    if bytes[*pos..].starts_with(text.as_bytes()) {
        *pos += text.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(
            bytes[*pos],
            b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'i' | b'n' | b'f' | b'N' | b'a'
        )
    {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    Some(Value::Num(
        std::str::from_utf8(&bytes[start..*pos]).ok()?.to_string(),
    ))
}

#[cfg(test)]
mod tests {
    //! Property tests: the reader takes bytes this process did not write
    //! (run-cache entries, trace files, request bodies), so on any input
    //! it must return `None` or a value, never panic or overflow the
    //! stack.

    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Real documents of the two on-disk formats: a run-cache entry and
    /// a Perfetto trace with counter events, both from one small run.
    fn documents() -> &'static [String; 2] {
        static DOCS: OnceLock<[String; 2]> = OnceLock::new();
        DOCS.get_or_init(|| {
            use crate::config::{PimMode, SystemConfig};
            use crate::experiments::{cache::metrics_json, RunKey};
            use crate::perfetto::PerfettoTrace;
            use crate::system::{Instrumentation, Source, SystemSim};
            use graphpim_graph::generate::{GraphSpec, LdbcSize};
            use graphpim_workloads::kernels::{Bfs, Kernel};

            let graph = GraphSpec::uniform(300, 1_500).seed(9).build();
            let path = std::env::temp_dir()
                .join(format!("graphpim-json-{}.trace.json", std::process::id()));
            let instrumentation = Instrumentation {
                perfetto: Some(PerfettoTrace::create(&path)),
                attribution: true,
            };
            let mut bfs = Bfs::new(0);
            let metrics = SystemSim::run(
                &SystemConfig::tiny(PimMode::GraphPim),
                Source::Live(&mut |fw| bfs.run(&graph, fw)),
                instrumentation,
            )
            .expect("a live run decodes no trace");
            let trace = std::fs::read_to_string(&path).expect("trace written");
            let _ = std::fs::remove_file(&path);
            assert!(
                trace.contains("\"ph\":\"C\""),
                "the trace holds counter events"
            );
            let key = RunKey::new("BFS", PimMode::GraphPim, LdbcSize::K1);
            let docs = [metrics_json(&key, &metrics), trace];
            assert!(docs.iter().all(|doc| parse(doc).is_some()));
            docs
        })
    }

    /// Fragments of JSON's grammar, concatenated at random so generated
    /// inputs reach deep into the parser instead of failing at byte 0.
    fn json_fragments() -> impl Strategy<Value = String> {
        const FRAGMENTS: &[&str] = &[
            "{", "}", "[", "]", ",", ":", "\"", "\"k\"", "\\", "\\u", "\\ud83d", "\\u00e9", "0",
            "-1.5e3", "true", "fals", "null", " ", "\n", "é",
        ];
        prop::collection::vec(0..FRAGMENTS.len(), 0..48)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    /// Any char, weighted toward the escaped and multi-byte ranges.
    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![
            0u32..0x80,
            0x80u32..0x800,
            0x800u32..0x1_0000,
            0x1_0000u32..0x11_0000,
        ]
        .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
    }

    /// Nesting `depth` containers deep, mixing arrays and objects.
    fn nested(openers: &[bool]) -> String {
        let mut doc = String::new();
        for &array in openers {
            doc.push_str(if array { "[" } else { "{\"k\": " });
        }
        doc.push('1');
        for &array in openers.iter().rev() {
            doc.push(if array { ']' } else { '}' });
        }
        doc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(
            raw in prop::collection::vec(any::<u8>(), 0..256),
            shaped in json_fragments(),
        ) {
            let _ = parse(&String::from_utf8_lossy(&raw));
            let _ = parse(&shaped);
        }

        #[test]
        fn truncated_documents_are_rejected(doc in 0usize..2, cut in 0usize..usize::MAX) {
            let text = &documents()[doc];
            let cut = cut % text.len();
            // Both documents are one top-level object: every prefix that
            // stops short of its closing brace is incomplete.
            let close = text.rfind('}').expect("an object");
            let got = parse(&String::from_utf8_lossy(&text.as_bytes()[..cut]));
            prop_assert!(cut > close || got.is_none(), "prefix of {cut} bytes parsed");
        }

        #[test]
        fn flipped_documents_never_panic(
            doc in 0usize..2,
            at in 0usize..usize::MAX,
            mask in 1u16..256,
        ) {
            let mut bytes = documents()[doc].clone().into_bytes();
            let at = at % bytes.len();
            bytes[at] ^= mask as u8;
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn quote_round_trips_arbitrary_strings(chars in prop::collection::vec(any_char(), 0..64)) {
            let s: String = chars.into_iter().collect();
            let doc = quote(&s);
            prop_assert_eq!(parse(&doc), Some(Value::Str(s.clone())));
            // No proper prefix of a string literal is a complete value.
            for (cut, _) in doc.char_indices().skip(1) {
                prop_assert!(parse(&doc[..cut]).is_none(), "prefix {:?}", &doc[..cut]);
            }
        }

        #[test]
        fn nesting_past_max_depth_is_rejected(
            openers in prop::collection::vec(any::<bool>(), 1..4 * MAX_DEPTH),
        ) {
            let parsed = parse(&nested(&openers));
            prop_assert_eq!(parsed.is_some(), openers.len() <= MAX_DEPTH);
        }
    }
}
