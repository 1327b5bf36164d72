//! The append-only JSON ledgers written by `bench_baseline`, `load_gen`
//! and `harness`: a checked-in **JSON array of records** per ledger that
//! successive changes *append* to, leaving a trajectory to diff instead
//! of re-deriving numbers. This module owns the append mechanics
//! (wrapping a legacy single-object file as the array's first entry,
//! refusing to touch a corrupt file), the record rendering
//! ([`json_object`], [`json_str`]), a small hand-written reader
//! ([`parse`]; the workspace has no serde), and the [`check`] rules.

use std::fmt::Write as _;

pub mod check;

/// Appends `records` (each one rendered JSON value) to the JSON array in
/// `existing`, returning the new file contents. Creates the array if
/// `existing` is blank and wraps a legacy single-object file (the PR 3
/// `BENCH_engine.json` schema) as its first entry.
///
/// # Panics
/// Panics if `existing` holds neither a JSON array nor an object — a
/// truncated or corrupt file. Refusing to wrap garbage beats a confusing
/// parse error at the consumer.
pub fn append_records(existing: &str, records: &[String]) -> String {
    append_records_from(existing, records, "ledger")
}

/// [`append_records`] with a named source (the file path, for
/// [`append_to_file`]) so the corrupt-ledger panic says which file to
/// fix or delete.
fn append_records_from(existing: &str, records: &[String], source: &str) -> String {
    let new_block = records.join(",\n");
    let trimmed = existing.trim();
    if trimmed.is_empty() {
        return format!("[\n{new_block}\n]\n");
    }
    if let Some(body) = trimmed
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .map(str::trim)
    {
        if body.is_empty() {
            format!("[\n{new_block}\n]\n")
        } else {
            format!("[\n{body},\n{new_block}\n]\n")
        }
    } else if trimmed.starts_with('{') && trimmed.ends_with('}') {
        // Legacy single-object schema: keep it as the first trajectory
        // point.
        format!("[\n{trimmed},\n{new_block}\n]\n")
    } else {
        panic!(
            "{source} holds neither a JSON array nor an object \
             (truncated write?); fix or delete it before appending"
        );
    }
}

/// Reads the ledger at `path` (missing file = empty ledger), appends
/// `records`, and writes it back. Returns the full new contents.
///
/// # Panics
/// Panics on a corrupt existing file (see [`append_records`]) or an
/// unwritable `path`.
pub fn append_to_file(path: &str, records: &[String]) -> String {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let json = append_records_from(&existing, records, path);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write ledger {path}: {e}"));
    json
}

/// Renders a flat JSON object from pre-rendered `"key": value` pairs,
/// indented to sit inside a ledger array. The values are the caller's
/// responsibility (use [`json_str`] for strings).
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let mut out = String::from("  {\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        // Nested values arrive with their own leading indent (they were
        // rendered to sit in an array); strip it and re-indent the body
        // so `"key": {` lines up like the flat pairs.
        let v = v.trim_start().replace('\n', "\n    ");
        let _ = writeln!(out, "    \"{k}\": {v}{comma}");
    }
    out.push_str("  }");
    out
}

/// Renders a JSON string literal, escaping quotes, backslashes and
/// control characters.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value. Objects keep their pairs in file order, and
/// integers stay apart from floats: a counter written as `3.0` is not
/// the integer `3`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i128),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The value under `path`, a `.`-separated chain of object keys
    /// (`"repair.repair_rounds"`; `""` is the value itself). A repeated
    /// key resolves to its last occurrence, as in most JSON readers.
    pub fn get(&self, path: &str) -> Option<&Json> {
        path.split_terminator('.').try_fold(self, |v, key| match v {
            Json::Object(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    /// The integer at `path`.
    pub fn int(&self, path: &str) -> Option<i128> {
        match self.get(path)? {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The number at `path`, whether written as an integer or not.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean at `path`.
    pub fn flag(&self, path: &str) -> Option<bool> {
        match self.get(path)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string at `path`.
    pub fn text(&self, path: &str) -> Option<&str> {
        match self.get(path)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document (RFC 8259, surrounding whitespace allowed).
/// Malformed input — truncated, trailing characters, a bad escape or
/// number, an integer beyond `i128` — is an `Err` naming the byte
/// offset, never a panic.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing characters")),
    }
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a run of ASCII digits; whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Array),
            Some(b'{') => self
                .items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.error("expected ':'"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Object),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                let rest = &self.s[self.pos..];
                let (word, value) = [
                    ("null", Json::Null),
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                ]
                .into_iter()
                .find(|(word, _)| rest.starts_with(word))
                .ok_or_else(|| self.error("expected a value"))?;
                self.pos += word.len();
                Ok(value)
            }
        }
    }

    /// The comma-separated items after an opening bracket, up to `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Stops only at ASCII bytes, so the run ends on a char boundary.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.s[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.error("bad escape")),
                    };
                    self.pos += 1;
                    out.push(c);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (a surrogate pair takes two),
    /// leaving `pos` on its last hex digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hex4 = |at: usize| {
            let hex = |d: &&str| d.bytes().all(|b| b.is_ascii_hexdigit());
            u32::from_str_radix(self.s.get(at..at + 4).filter(hex)?, 16).ok()
        };
        let (code, len) = match (hex4(self.pos + 1), self.s.get(self.pos + 5..self.pos + 7)) {
            (Some(high @ 0xD800..=0xDBFF), Some("\\u")) => match hex4(self.pos + 7) {
                Some(low @ 0xDC00..=0xDFFF) => {
                    (0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00), 10)
                }
                _ => (high, 4),
            },
            (code, _) => (code.unwrap_or(u32::MAX), 4),
        };
        let c = char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += len;
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_start = self.pos;
        if !self.digits() || (self.s.as_bytes()[int_start] == b'0' && self.pos - int_start > 1) {
            return Err(self.error("bad integer part"));
        }
        let fraction = self.eat(b'.');
        if fraction && !self.digits() {
            return Err(self.error("bad fraction"));
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _sign = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.error("bad exponent"));
            }
        }
        let text = &self.s[start..self.pos];
        let number = match fraction || exponent {
            true => text.parse().map(Json::Float).ok(),
            false => text.parse().map(Json::Int).ok(),
        };
        number.ok_or_else(|| self.error("integer out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_array_from_blank() {
        let out = append_records("", &["  { \"a\": 1 }".into()]);
        assert_eq!(out, "[\n  { \"a\": 1 }\n]\n");
        let out = append_records("  \n", &["  { \"a\": 1 }".into()]);
        assert!(out.starts_with("[\n"));
    }

    #[test]
    fn appends_to_existing_array() {
        let v1 = append_records("", &["  { \"a\": 1 }".into()]);
        let v2 = append_records(&v1, &["  { \"b\": 2 }".into(), "  { \"c\": 3 }".into()]);
        // The existing body is re-embedded trimmed (its outer indentation
        // is not preserved); records keep their own internal layout.
        assert_eq!(v2, "[\n{ \"a\": 1 },\n  { \"b\": 2 },\n  { \"c\": 3 }\n]\n");
    }

    #[test]
    fn wraps_legacy_single_object() {
        let out = append_records("{ \"old\": true }", &["  { \"new\": 1 }".into()]);
        assert_eq!(out, "[\n{ \"old\": true },\n  { \"new\": 1 }\n]\n");
    }

    #[test]
    fn appends_to_empty_array() {
        let out = append_records("[]", &["  { \"a\": 1 }".into()]);
        assert_eq!(out, "[\n  { \"a\": 1 }\n]\n");
    }

    #[test]
    #[should_panic(expected = "neither a JSON array nor an object")]
    fn refuses_corrupt_ledger() {
        append_records("[ { \"trunc", &["  {}".into()]);
    }

    #[test]
    fn object_rendering_round_trips_shape() {
        let obj = json_object(&[
            ("name", json_str("a\"b")),
            ("n", "12".into()),
            ("flag", "true".into()),
        ]);
        assert_eq!(
            obj,
            "  {\n    \"name\": \"a\\\"b\",\n    \"n\": 12,\n    \"flag\": true\n  }"
        );
    }

    #[test]
    fn reader_keeps_integers_apart_from_floats() {
        let escaped = r#""\u00e9\ud83d\ude00\n""#;
        for (text, value) in [
            ("3", Json::Int(3)),
            ("3.0", Json::Float(3.0)),
            ("-1e2", Json::Float(-100.0)),
            (escaped, Json::Str("é😀\n".into())),
        ] {
            assert_eq!(parse(text), Ok(value));
        }
    }

    #[test]
    fn reader_refuses_malformed_input() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let short = [
            "", "[1,]", "{1: 2}", "01", "1.", "-", "1e", "[1] x", "nul", "\"\\x\"",
        ];
        let long = ["{\"a\" 1}", "\"\\ud800\"", "\"\\u+123\"", "\"tab\there\""];
        for bad in short
            .into_iter()
            .chain(long)
            .chain([&*deep, &"9".repeat(40)])
        {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
