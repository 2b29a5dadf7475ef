//! A minimal JSON writer and parser.
//!
//! The workspace has no JSON crate, so the trace exporters, the cluster
//! tooling's control protocol and the runtime-metrics report export
//! hand-roll the subset of JSON they need, and read it back through
//! [`parse`]: objects, arrays, strings, unsigned integers, and decimal
//! fractions (a histogram's geometry, written by `f64`'s `Display`, which
//! never uses an exponent). The parser is tolerant of whitespace and
//! field order but rejects anything outside that subset loudly, and
//! rejects nesting deeper than 64 arrays or objects, so a hostile
//! document cannot exhaust the stack.

use crate::ParseError;

/// How deep arrays and objects may nest. Every format the workspace
/// writes nests at most 4 deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value (the subset the trace formats use).
#[derive(Clone, Debug, PartialEq)]
pub enum JVal {
    /// Unsigned integer.
    Num(u64),
    /// Number with a fractional part.
    Frac(f64),
    /// String.
    Str(String),
    /// Object, in source order.
    Obj(Vec<(String, JVal)>),
    /// Array.
    Arr(Vec<JVal>),
}

impl JVal {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is an integer.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            JVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JVal::Num(n) => Some(*n as f64),
            JVal::Frac(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Escapes `s` into a JSON string literal (quotes included).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Parses one complete JSON value from `s` (trailing whitespace allowed).
pub fn parse(s: &str) -> Result<JVal, ParseError> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::new(format!(
            "trailing garbage at byte {pos} of {}",
            bytes.len()
        )));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), ParseError> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError::new(format!(
            "expected '{}' at byte {}",
            c as char, *pos
        )))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(ParseError::new(format!(
            "nested deeper than {MAX_DEPTH} at byte {}",
            *pos
        ))),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(JVal::Str(parse_string(b, pos)?)),
        Some(c) if c.is_ascii_digit() => parse_num(b, pos),
        Some(c) => Err(ParseError::new(format!(
            "unexpected '{}' at byte {}",
            *c as char, *pos
        ))),
        None => Err(ParseError::new("unexpected end of input")),
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, ParseError> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JVal::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JVal::Obj(fields));
            }
            _ => return Err(ParseError::new(format!("expected ',' or '}}' at {}", *pos))),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<JVal, ParseError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JVal::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JVal::Arr(items));
            }
            _ => return Err(ParseError::new(format!("expected ',' or ']' at {}", *pos))),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(ParseError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| ParseError::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| ParseError::new("bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| ParseError::new("bad \\u escape"))?;
                        out.push(
                            char::from_u32(cp)
                                .ok_or_else(|| ParseError::new("bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(ParseError::new("unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences are
                // passed through verbatim).
                let start = *pos;
                let mut end = start + 1;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                let chunk = std::str::from_utf8(&b[start..end])
                    .map_err(|_| ParseError::new("invalid utf-8 in string"))?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

/// Digits, then optionally `.` and more digits.
fn parse_num(b: &[u8], pos: &mut usize) -> Result<JVal, ParseError> {
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let start = *pos;
    digits(pos);
    let frac = b.get(*pos) == Some(&b'.');
    if frac {
        *pos += 1;
        if !digits(pos) {
            return Err(ParseError::new(format!("digit expected at byte {}", *pos)));
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are utf-8");
    let value = if frac {
        text.parse().map(JVal::Frac).ok()
    } else {
        text.parse().map(JVal::Num).ok()
    };
    value.ok_or_else(|| ParseError::new(format!("number out of range at byte {start}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_subset() {
        let doc = r#"{"a": 1, "b": "x\"y", "c": [ {"d": 2}, 3 ], "e": {}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_num(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        let JVal::Arr(items) = v.get("c").unwrap() else {
            panic!("c should be an array");
        };
        assert_eq!(items[0].get("d").unwrap().as_num(), Some(2));
        assert_eq!(items[1].as_num(), Some(3));
        assert_eq!(v.get("e"), Some(&JVal::Obj(vec![])));
    }

    #[test]
    fn escape_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "tab\there \"quoted\" \\ \u{1}");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some("tab\there \"quoted\" \\ \u{1}"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("-1").is_err(), "negatives are outside the subset");
        assert!(parse("1.").is_err());
        assert!(parse("1e5").is_err(), "exponents are outside the subset");
        assert!(parse("18446744073709551616").is_err());
    }

    #[test]
    fn integers_stay_exact_and_fractions_read_as_f64() {
        let v = parse("[18446744073709551615, 2, 0.000000001234, 1.5]").unwrap();
        let JVal::Arr(items) = v else {
            panic!("an array");
        };
        assert_eq!(items[0].as_num(), Some(u64::MAX));
        assert_eq!(items[1].as_f64(), Some(2.0));
        assert_eq!(items[2].as_f64(), Some(1.234e-9));
        assert_eq!(items[3], JVal::Frac(1.5));
        assert_eq!(items[3].as_num(), None, "a fraction is not an integer");
    }

    #[test]
    fn nesting_is_capped_before_the_stack_runs_out() {
        let deep = "[".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.message, "nested deeper than 64 at byte 64");
        let ok = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(65), "]".repeat(65));
        assert!(parse(&over).is_err());
    }
}
