//! Hand-rolled parser for the TOML subset used by experiment specs.
//!
//! The build environment is offline, so specs are parsed by this vendored
//! ~200-line parser instead of a registry crate. The accepted grammar is a
//! strict subset of TOML, enough for flat sweep specs:
//!
//! * `[table]` headers (no nesting, no dotted keys, no array-of-tables),
//! * `key = value` pairs with bare keys (`[A-Za-z0-9_-]+`),
//! * values: `"strings"` (with `\"`, `\\`, `\n`, `\t` escapes), integers,
//!   floats, booleans, and single-line arrays of those scalars,
//! * `#` comments and blank lines.
//!
//! Everything else is a [`TomlError`] carrying the offending line number —
//! a spec typo should fail loudly before any trial runs.

use std::fmt;

/// A scalar or array value in a spec document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A boolean literal.
    Bool(bool),
    /// A single-line array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// A short grammar-level name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    /// Canonical display form used in trial labels and axis values:
    /// strings verbatim, numbers/bools via their `Display`.
    pub fn display(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Array(v) => {
                let items: Vec<String> = v.iter().map(Value::display).collect();
                format!("[{}]", items.join(","))
            }
        }
    }
}

/// One `key = value` entry with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line, for error messages.
    pub line: usize,
}

/// One `[name]` table and its entries, in declaration order.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table name (`""` for keys before any header).
    pub name: String,
    /// Entries in declaration order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|e| e.key == key).map(|e| &e.value)
    }
}

/// A parsed spec document: tables in declaration order.
#[derive(Debug, Clone, Default)]
pub struct Doc {
    /// Tables in declaration order (the root table, if any keys precede a
    /// header, is named `""`).
    pub tables: Vec<Table>,
}

impl Doc {
    /// The first table named `name`, if any.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }
}

/// A parse failure with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, msg: impl Into<String>) -> TomlError {
    TomlError { line, msg: msg.into() }
}

/// Strips a trailing `#` comment, respecting string quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn is_bare_key(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn parse_string(s: &str, line: usize) -> Result<(Value, usize), TomlError> {
    debug_assert!(s.starts_with('"'));
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((Value::Str(out), i + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, other)) => return Err(err(line, format!("unknown escape \\{other}"))),
                None => return Err(err(line, "unterminated escape")),
            },
            _ => out.push(c),
        }
    }
    Err(err(line, "unterminated string"))
}

fn parse_scalar(s: &str, line: usize) -> Result<Value, TomlError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(err(line, "missing value"));
    }
    if s.starts_with('"') {
        let (v, used) = parse_string(s, line)?;
        if !s[used..].trim().is_empty() {
            return Err(err(line, format!("trailing input after string: `{}`", &s[used..])));
        }
        return Ok(v);
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    // Floats must look like TOML floats (reject `nan`/`inf` spellings other
    // than what a spec legitimately needs — specs have no use for either).
    if s.contains(['.', 'e', 'E']) {
        if let Ok(f) = s.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
    }
    Err(err(line, format!("unrecognised value `{s}`")))
}

/// Splits an array body on top-level commas (commas inside strings do not
/// split).
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&body[start..]);
    items
}

fn parse_value(s: &str, line: usize) -> Result<Value, TomlError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err(err(line, "unterminated array (arrays must be single-line)"));
        };
        if body.trim().is_empty() {
            return Ok(Value::Array(Vec::new()));
        }
        let mut items = Vec::new();
        for item in split_array_items(body) {
            let item = item.trim();
            if item.is_empty() {
                return Err(err(line, "empty array element"));
            }
            if item.starts_with('[') {
                return Err(err(line, "nested arrays are not supported"));
            }
            items.push(parse_scalar(item, line)?);
        }
        return Ok(Value::Array(items));
    }
    parse_scalar(s, line)
}

/// Parses a spec document.
///
/// # Errors
///
/// Returns the first [`TomlError`] encountered, with its source line.
pub fn parse(text: &str) -> Result<Doc, TomlError> {
    let mut doc = Doc::default();
    let mut current: Option<Table> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(err(line_no, "malformed table header"));
            };
            let name = name.trim();
            if !is_bare_key(name) {
                return Err(err(line_no, format!("invalid table name `{name}`")));
            }
            if doc.table(name).is_some() || current.as_ref().is_some_and(|t| t.name == name) {
                return Err(err(line_no, format!("duplicate table [{name}]")));
            }
            if let Some(t) = current.take() {
                doc.tables.push(t);
            }
            current = Some(Table { name: name.to_string(), entries: Vec::new() });
            continue;
        }
        let Some(eq) = find_top_level_eq(line) else {
            return Err(err(line_no, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim();
        if !is_bare_key(key) {
            return Err(err(line_no, format!("invalid key `{key}`")));
        }
        let value = parse_value(&line[eq + 1..], line_no)?;
        let table =
            current.get_or_insert_with(|| Table { name: String::new(), entries: Vec::new() });
        if table.get(key).is_some() {
            return Err(err(line_no, format!("duplicate key `{key}` in [{}]", table.name)));
        }
        table.entries.push(Entry { key: key.to_string(), value, line: line_no });
    }
    if let Some(t) = current.take() {
        doc.tables.push(t);
    }
    Ok(doc)
}

/// The byte offset of the first `=` outside any string, if any.
fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_keys_and_scalars() {
        let doc = parse(
            "# leading comment\n[experiment]\nname = \"fig9\" # trailing\nrounds = 60\n\
             alpha = 10.5\nfast = true\n[grid]\nfilter = [\"mean\", \"trimmed:0.2\"]\n\
             eps = [0.0, 0.1]\nns = [1, 2, 3]\n",
        )
        .unwrap();
        let exp = doc.table("experiment").unwrap();
        assert_eq!(exp.get("name").unwrap().as_str(), Some("fig9"));
        assert_eq!(exp.get("rounds").unwrap().as_int(), Some(60));
        assert_eq!(exp.get("alpha"), Some(&Value::Float(10.5)));
        assert_eq!(exp.get("fast"), Some(&Value::Bool(true)));
        let grid = doc.table("grid").unwrap();
        assert_eq!(grid.get("filter").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(grid.get("eps").unwrap().as_array().unwrap()[1], Value::Float(0.1));
        assert_eq!(grid.get("ns").unwrap().as_array().unwrap()[2], Value::Int(3));
    }

    #[test]
    fn string_escapes_and_hash_inside_string() {
        let doc = parse("title = \"a #\\\"quoted\\\"\\nthing\"\n").unwrap();
        let root = doc.table("").unwrap();
        assert_eq!(root.get("title").unwrap().as_str(), Some("a #\"quoted\"\nthing"));
    }

    #[test]
    fn ints_stay_ints() {
        let doc = parse("x = 3\ny = 3.0\n").unwrap();
        assert_eq!(doc.table("").unwrap().get("x"), Some(&Value::Int(3)));
        assert_eq!(doc.table("").unwrap().get("y"), Some(&Value::Float(3.0)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("a = 1\nb =\n", 2, "missing value"),
            ("[bad\n", 1, "malformed table"),
            ("a = 1\na = 2\n", 2, "duplicate key"),
            ("[t]\n[t]\n", 2, "duplicate table"),
            ("a = [1, [2]]\n", 1, "nested"),
            ("a = [1,\n2]\n", 1, "single-line"),
            ("a = \"open\n", 1, "unterminated string"),
            ("just a line\n", 1, "expected `key = value`"),
            ("a = wat\n", 1, "unrecognised value"),
            ("a = 1.0 trailing? no: `1.0t` unrecognised\n", 1, "unrecognised"),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?} -> {e}");
            assert!(e.msg.contains(needle), "{text:?} -> {e}");
        }
    }

    #[test]
    fn empty_array_and_negative_numbers() {
        let doc = parse("a = []\nb = [-1, -2.5]\n").unwrap();
        let t = doc.table("").unwrap();
        assert!(t.get("a").unwrap().as_array().unwrap().is_empty());
        assert_eq!(t.get("b").unwrap().as_array().unwrap()[0], Value::Int(-1));
        assert_eq!(t.get("b").unwrap().as_array().unwrap()[1], Value::Float(-2.5));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Float(1.0).display(), "1");
        assert_eq!(Value::Float(0.25).display(), "0.25");
        assert_eq!(Value::Str("trimmed:0.2".into()).display(), "trimmed:0.2");
        assert_eq!(Value::Int(-3).display(), "-3");
    }
}
