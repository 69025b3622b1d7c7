//! The workspace's one JSON module: a depth-bounded recursive-descent
//! parser and the writer helpers every artifact is rendered with.
//!
//! The build environment is offline (no serde), so the run reports, the
//! committed `BENCH_*.json` artifacts and `sar-check`'s proof report are
//! all hand-rendered through [`string`], [`fixed`], [`float`], [`Obj`]
//! and [`document`], and read back through [`parse`].

use std::fmt::{Display, Write as _};

/// Nesting bound of [`parse`]: deeper input is rejected with an error
/// instead of overflowing the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The array field `key`, or an empty slice when it is absent.
    #[must_use]
    pub fn items(&self, key: &str) -> &[Value] {
        self.get(key).and_then(Value::arr).unwrap_or_default()
    }

    /// The string field `key`.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Value::str)
            .ok_or_else(|| format!("missing string field \"{key}\""))
    }

    /// The numeric field `key`.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a number.
    pub fn num_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Value::num)
            .ok_or_else(|| format!("missing numeric field \"{key}\""))
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| format!("unexpected end of input at byte {}", self.i))
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if got != c {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                c as char, self.i, got as char
            ));
        }
        self.i += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
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
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| "bad \\u escape".to_string())?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape".to_string())?;
                            self.i += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u code point".to_string())?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                _ if c >= 0x80 => {
                    // Re-assemble the full multi-byte UTF-8 sequence.
                    let start = self.i - 1;
                    while self.b.get(self.i).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap_or("\u{fffd}"));
                }
                _ => out.push(c as char),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err("JSON nesting too deep".into());
        }
        let v = match self.peek()? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.i += 1;
                } else {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.expect(b':')?;
                        let val = self.value()?;
                        fields.push((key, val));
                        match self.peek()? {
                            b',' => self.i += 1,
                            b'}' => {
                                self.i += 1;
                                break;
                            }
                            c => {
                                return Err(format!(
                                    "expected ',' or '}}' at byte {}, found '{}'",
                                    self.i, c as char
                                ))
                            }
                        }
                    }
                }
                Value::Obj(fields)
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.i += 1;
                } else {
                    loop {
                        items.push(self.value()?);
                        match self.peek()? {
                            b',' => self.i += 1,
                            b']' => {
                                self.i += 1;
                                break;
                            }
                            c => {
                                return Err(format!(
                                    "expected ',' or ']' at byte {}, found '{}'",
                                    self.i, c as char
                                ))
                            }
                        }
                    }
                }
                Value::Arr(items)
            }
            b'"' => Value::Str(self.string()?),
            b't' => self.literal("true", Value::Bool(true))?,
            b'f' => self.literal("false", Value::Bool(false))?,
            b'n' => self.literal("null", Value::Null)?,
            _ => self.number()?,
        };
        self.depth -= 1;
        Ok(v)
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a byte-offset-bearing message on malformed input, and an
/// error (never a stack overflow) past [`MAX_DEPTH`] levels of nesting.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes after JSON value at byte {}", p.i));
    }
    Ok(v)
}

/// Escapes `s` as a quoted JSON string literal.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A float with `prec` decimals (`null` for NaN/infinity — JSON has no
/// non-finite literals).
#[must_use]
pub fn fixed(v: f64, prec: usize) -> String {
    if v.is_finite() {
        format!("{v:.prec$}")
    } else {
        "null".into()
    }
}

/// A float in its shortest round-tripping form (`null` when non-finite).
#[must_use]
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A one-line JSON object, `{"key": value, ...}`, built field by field
/// in the order the fields are added.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    #[must_use]
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field whose value is already JSON (an integer, a literal
    /// or a rendered fragment).
    #[must_use]
    pub fn raw(mut self, key: &str, json: impl Display) -> Obj {
        if !self.0.is_empty() {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "{}: {json}", string(key));
        self
    }

    /// Adds an escaped string field.
    #[must_use]
    pub fn str(self, key: &str, v: &str) -> Obj {
        self.raw(key, string(v))
    }

    /// Adds a float field with `prec` decimals.
    #[must_use]
    pub fn num(self, key: &str, v: f64, prec: usize) -> Obj {
        self.raw(key, fixed(v, prec))
    }

    /// The rendered object.
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Renders a benchmark artifact: one header field per line, then each
/// record array with one record per line.
#[must_use]
pub fn document(fields: &[(&str, String)], arrays: &[(&str, Vec<String>)]) -> String {
    let mut s = String::from("{\n");
    let total = fields.len() + arrays.len();
    let sep = |i: usize| if i + 1 < total { ",\n" } else { "\n" };
    for (i, (key, value)) in fields.iter().enumerate() {
        let _ = write!(s, "  {}: {value}{}", string(key), sep(i));
    }
    for (j, (key, records)) in arrays.iter().enumerate() {
        let _ = writeln!(s, "  {}: [", string(key));
        for (r, record) in records.iter().enumerate() {
            s.push_str("    ");
            s.push_str(record);
            s.push_str(if r + 1 < records.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]");
        s.push_str(sep(fields.len() + j));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_literals_and_rejects_garbage() {
        let v = parse(r#"{"a": "x\n\"y\"", "b": [true, false, null, -1.5e2]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::str), Some("x\n\"y\""));
        let b = v.get("b").and_then(Value::arr).unwrap();
        assert_eq!(b[3].num(), Some(-150.0));
        let v = parse(r#"["\b\f\/é", "é"]"#).unwrap();
        assert_eq!(v.arr().unwrap()[0].str(), Some("\u{8}\u{c}/é"));
        assert_eq!(v.arr().unwrap()[1].str(), Some("é"));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(MAX_DEPTH)).is_err()); // unterminated
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("too deep"), "{err}");
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let rec = Obj::new()
            .str("name", "a \"quoted\"\nname\u{1}")
            .raw("iters", 7)
            .num("ratio", 0.123_456, 4)
            .num("nan", f64::NAN, 4)
            .raw("digest", "null")
            .finish();
        assert!(rec.contains(r#""ratio": 0.1235"#), "{rec}");
        let doc = document(
            &[("schema", string("x/v1")), ("threads", 1.to_string())],
            &[("runs", vec![rec.clone(), rec]), ("empty", Vec::new())],
        );
        assert!(doc.ends_with("  \"empty\": [\n  ]\n}\n"), "{doc}");
        let v = parse(&doc).unwrap();
        assert_eq!(v.str_field("schema"), Ok("x/v1"));
        let runs = v.items("runs");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].str_field("name"), Ok("a \"quoted\"\nname\u{1}"));
        assert_eq!(runs[0].num_field("iters"), Ok(7.0));
        assert_eq!(runs[0].get("nan"), Some(&Value::Null));
        assert!(runs[0].num_field("nan").unwrap_err().contains("nan"));
        assert_eq!(float(0.1), "0.1");
        assert_eq!(float(f64::INFINITY), "null");
    }
}
