//! The gate baselines' JSON codec: a value tree, the pretty printer that
//! writes the checked-in layout, and a strict parser.
//!
//! Object keys keep their order and numbers keep their source text, so a
//! `u64` seed never passes through `f64` and a parsed baseline re-prints
//! to its own bytes. Only finite numbers are accepted: every gated cost is
//! a mean, never NaN or infinite.

/// A parsed or to-be-printed JSON value (no `true`/`false`/`null`: the
/// baselines have none).
pub(super) enum Value {
    /// A number, as its JSON text.
    Number(String),
    String(String),
    Array(Vec<Value>),
    /// Fields in file order.
    Object(Vec<(String, Value)>),
}

/// An object with `fields` in the given order.
pub(super) fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Number(v.to_string())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Number(v.to_string())
    }
}

impl From<f64> for Value {
    /// Rust's shortest round-trip text, with `.0` appended to integral
    /// values so they stay recognisably floats.
    ///
    /// # Panics
    /// Panics on a non-finite value, which JSON cannot represent.
    fn from(v: f64) -> Self {
        assert!(v.is_finite(), "gate cost {v} is not finite");
        let mut text = v.to_string();
        if !text.contains(['.', 'e', 'E']) {
            text.push_str(".0");
        }
        Value::Number(text)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Array(items.into_iter().collect())
    }
}

impl Value {
    /// Two-space indented text, one element or `"key": value` per line,
    /// with no trailing newline.
    pub(super) fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Number(text) => out.push_str(text),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                write_container(out, depth, "[]", items.iter().map(|item| (None, item)));
            }
            Value::Object(fields) => {
                let fields = fields
                    .iter()
                    .map(|(key, value)| (Some(key.as_str()), value));
                write_container(out, depth, "{}", fields);
            }
        }
    }

    /// Reads field `key` of this object with `read`; errors name the field.
    pub(super) fn field<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Value) -> Result<T, String>,
    ) -> Result<T, String> {
        let Value::Object(fields) = self else {
            return Err(format!("expected an object, found {}", self.describe()));
        };
        let (_, value) = fields
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        read(value).map_err(|e| format!("field `{key}`: {e}"))
    }

    /// Reads every element of array field `key` with `read`.
    pub(super) fn list<T>(
        &self,
        key: &str,
        read: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.field(key, |value| match value {
            Value::Array(items) => items.iter().map(read).collect(),
            other => Err(format!("expected an array, found {}", other.describe())),
        })
    }

    pub(super) fn string(&self) -> Result<String, String> {
        match self {
            Value::String(s) => Ok(s.clone()),
            other => Err(format!("expected a string, found {}", other.describe())),
        }
    }

    /// A finite number.
    pub(super) fn f64(&self) -> Result<f64, String> {
        let text = self.number()?;
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("`{text}` is not a finite number"))
    }

    /// An integer of the caller's type.
    pub(super) fn integer<T: std::str::FromStr>(&self) -> Result<T, String> {
        let text = self.number()?;
        text.parse()
            .map_err(|_| format!("`{text}` is not an integer in range"))
    }

    fn number(&self) -> Result<&str, String> {
        match self {
            Value::Number(text) => Ok(text),
            other => Err(format!("expected a number, found {}", other.describe())),
        }
    }

    fn describe(&self) -> String {
        match self {
            Value::Number(text) => format!("number `{text}`"),
            Value::String(s) => format!("string {s:?}"),
            Value::Array(_) => "an array".into(),
            Value::Object(_) => "an object".into(),
        }
    }
}

/// An array or object (`brackets` = `"[]"` or `"{}"`): one entry per line,
/// each `"key": ` prefixed when it has a key.
fn write_container<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    entries: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    };
    let mut empty = true;
    out.push_str(&brackets[..1]);
    for (key, value) in entries {
        out.push_str(if empty { "" } else { "," });
        empty = false;
        newline(out, depth + 1);
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !empty {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses `text` as exactly one JSON value; errors name the byte offset.
pub(super) fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos < text.len() {
        return Err(parser.error("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_whitespace();
        if self.peek() != Some(byte) {
            return Err(self.error(&format!("expected '{}'", byte as char)));
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads `element`s separated by `,` up to `close`, starting at the
    /// opening bracket.
    fn sequence(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.sequence(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(_) => Err(self.error("expected a number, string, array or object")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(self.error("unterminated string"));
            };
            match c {
                '"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                '\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                c if u32::from(c) < 0x20 => {
                    return Err(self.error("control character in string"));
                }
                c => {
                    self.pos += c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    /// The character an escape after `\` stands for.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.error("invalid \\u escape"))?;
                self.pos += 5;
                return Ok(code);
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }
}
