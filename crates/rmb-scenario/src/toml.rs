//! A hand-rolled TOML-subset parser with line tracking.
//!
//! The workspace is fully offline, so the real `toml` crate cannot be
//! used; scenarios need only the core of the format anyway. Supported:
//!
//! - `key = value` pairs with bare keys (letters, digits, `-`, `_`)
//! - basic strings (`"..."` with `\" \\ \n \t \r` escapes)
//! - integers (optional sign, `_` separators), floats, booleans
//! - homogeneous-or-not arrays `[1, 2, 3]` (the schema layer checks
//!   element types)
//! - `[table]` and `[dotted.table]` headers
//! - `[[array.of.tables]]` headers
//! - `#` comments and blank lines
//!
//! Not supported (rejected with a named error, never silently ignored):
//! literal/multiline strings, inline tables, dotted keys in `key =`
//! position, dates.
//!
//! Every parsed value carries the **line** it came from; the schema layer
//! threads those lines into validation errors so a bad scenario names the
//! offending key and line.

use std::fmt;

/// A parse or validation error: `line` is 1-based (0 when the error has
/// no meaningful source position, e.g. an unreadable trace file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based source line of the offending construct (0 = none).
    pub line: usize,
    /// Human-readable message naming the offending key where possible.
    pub message: String,
}

impl ScenarioError {
    /// Creates an error anchored at `line`.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        ScenarioError {
            line,
            message: message.into(),
        }
    }

    /// Creates an error with no source position.
    pub fn external(message: impl Into<String>) -> Self {
        ScenarioError {
            line: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} (line {})", self.message, self.line)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One TOML value, without its position.
#[derive(Debug, Clone, PartialEq)]
pub enum TomlValue {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Spanned>),
    /// A nested table (`[a.b]` headers create these).
    Table(TomlTable),
    /// An array of tables (`[[a]]` headers create these).
    TableArray(Vec<TomlTable>),
}

impl TomlValue {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Int(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
            TomlValue::Table(_) => "table",
            TomlValue::TableArray(_) => "array of tables",
        }
    }
}

/// A value plus the line it was written on.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The value.
    pub value: TomlValue,
    /// 1-based source line.
    pub line: usize,
}

/// An ordered table: entries keep document order so error messages are
/// stable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TomlTable {
    /// `(key, value)` pairs in document order.
    pub entries: Vec<(String, Spanned)>,
    /// Line of the table header (0 for the root table).
    pub line: usize,
}

impl TomlTable {
    /// Looks up a direct entry.
    pub fn get(&self, key: &str) -> Option<&Spanned> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Parses a TOML document into its root table.
pub fn parse_toml(input: &str) -> Result<TomlTable, ScenarioError> {
    let mut root = TomlTable::default();
    // Path of the table currently receiving `key = value` lines; empty =
    // root. The final component may address the last element of a table
    // array.
    let mut current: Vec<String> = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let inner = rest.strip_suffix("]]").ok_or_else(|| {
                ScenarioError::at(line_no, "unterminated `[[` table-array header".to_string())
            })?;
            let path = parse_key_path(inner, line_no)?;
            push_table_array(&mut root, &path, line_no)?;
            current = path;
        } else if let Some(rest) = line.strip_prefix('[') {
            let inner = rest.strip_suffix(']').ok_or_else(|| {
                ScenarioError::at(line_no, "unterminated `[` table header".to_string())
            })?;
            let path = parse_key_path(inner, line_no)?;
            open_table(&mut root, &path, line_no)?;
            current = path;
        } else {
            let eq = line.find('=').ok_or_else(|| {
                ScenarioError::at(line_no, format!("expected `key = value`, got `{line}`"))
            })?;
            let key = line[..eq].trim();
            check_bare_key(key, line_no)?;
            let value_text = line[eq + 1..].trim();
            let value = parse_value(value_text, line_no)?;
            let table = resolve_mut(&mut root, &current, line_no)?;
            if table.get(key).is_some() {
                return Err(ScenarioError::at(
                    line_no,
                    format!("duplicate key `{}`", dotted(&current, key)),
                ));
            }
            table.entries.push((
                key.to_string(),
                Spanned {
                    value,
                    line: line_no,
                },
            ));
        }
    }
    Ok(root)
}

/// Strips a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn check_bare_key(key: &str, line: usize) -> Result<(), ScenarioError> {
    if key.is_empty() {
        return Err(ScenarioError::at(line, "empty key".to_string()));
    }
    if let Some(bad) = key
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || *c == '-' || *c == '_'))
    {
        return Err(ScenarioError::at(
            line,
            format!("key `{key}` contains unsupported character `{bad}` (bare keys only)"),
        ));
    }
    Ok(())
}

fn parse_key_path(text: &str, line: usize) -> Result<Vec<String>, ScenarioError> {
    let text = text.trim();
    let mut path = Vec::new();
    for part in text.split('.') {
        let part = part.trim();
        check_bare_key(part, line)?;
        path.push(part.to_string());
    }
    Ok(path)
}

fn dotted(path: &[String], key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{}.{key}", path.join("."))
    }
}

/// Creates (or re-opens) the table at `path` under `root`.
fn open_table(root: &mut TomlTable, path: &[String], line: usize) -> Result<(), ScenarioError> {
    let mut table = root;
    for (depth, part) in path.iter().enumerate() {
        let missing = table.get(part).is_none();
        if missing {
            table.entries.push((
                part.clone(),
                Spanned {
                    value: TomlValue::Table(TomlTable {
                        entries: Vec::new(),
                        line,
                    }),
                    line,
                },
            ));
        } else if depth + 1 == path.len() {
            // Re-opening an existing leaf table is a duplicate header
            // (re-opening an *intermediate* table to add a child is fine).
            let existing = table.get(part).expect("just checked");
            if matches!(existing.value, TomlValue::Table(_)) && !missing {
                return Err(ScenarioError::at(
                    line,
                    format!("duplicate table header `[{}]`", path.join(".")),
                ));
            }
        }
        table = descend(table, part, line)?;
    }
    Ok(())
}

/// Appends a fresh element to the table array at `path`.
fn push_table_array(
    root: &mut TomlTable,
    path: &[String],
    line: usize,
) -> Result<(), ScenarioError> {
    let (last, prefix) = path.split_last().expect("non-empty path");
    let mut table = root;
    for part in prefix {
        if table.get(part).is_none() {
            table.entries.push((
                part.clone(),
                Spanned {
                    value: TomlValue::Table(TomlTable {
                        entries: Vec::new(),
                        line,
                    }),
                    line,
                },
            ));
        }
        table = descend(table, part, line)?;
    }
    match table.entries.iter_mut().find(|(k, _)| k == last) {
        None => {
            table.entries.push((
                last.clone(),
                Spanned {
                    value: TomlValue::TableArray(vec![TomlTable {
                        entries: Vec::new(),
                        line,
                    }]),
                    line,
                },
            ));
            Ok(())
        }
        Some((_, spanned)) => match &mut spanned.value {
            TomlValue::TableArray(tables) => {
                tables.push(TomlTable {
                    entries: Vec::new(),
                    line,
                });
                Ok(())
            }
            other => Err(ScenarioError::at(
                line,
                format!(
                    "`[[{}]]` conflicts with earlier {} of the same name",
                    path.join("."),
                    other.type_name()
                ),
            )),
        },
    }
}

/// Steps into the child table (or last table-array element) named `part`.
fn descend<'a>(
    table: &'a mut TomlTable,
    part: &str,
    line: usize,
) -> Result<&'a mut TomlTable, ScenarioError> {
    let spanned = table
        .entries
        .iter_mut()
        .find(|(k, _)| k == part)
        .map(|(_, v)| v)
        .expect("caller ensures presence");
    match &mut spanned.value {
        TomlValue::Table(t) => Ok(t),
        TomlValue::TableArray(ts) => Ok(ts.last_mut().expect("table arrays are never empty")),
        other => Err(ScenarioError::at(
            line,
            format!("`{part}` is a {}, not a table", other.type_name()),
        )),
    }
}

/// Resolves the table a `key = value` line belongs to.
fn resolve_mut<'a>(
    root: &'a mut TomlTable,
    path: &[String],
    line: usize,
) -> Result<&'a mut TomlTable, ScenarioError> {
    let mut table = root;
    for part in path {
        table = descend(table, part, line)?;
    }
    Ok(table)
}

/// Parses one value token (after `=` or inside an array).
fn parse_value(text: &str, line: usize) -> Result<TomlValue, ScenarioError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(ScenarioError::at(line, "missing value".to_string()));
    }
    if text.starts_with('"') {
        let (s, rest) = parse_string(text, line)?;
        if !rest.trim().is_empty() {
            return Err(ScenarioError::at(
                line,
                format!("trailing characters after string: `{}`", rest.trim()),
            ));
        }
        return Ok(TomlValue::Str(s));
    }
    if text.starts_with('[') {
        return parse_array(text, line);
    }
    if text == "true" {
        return Ok(TomlValue::Bool(true));
    }
    if text == "false" {
        return Ok(TomlValue::Bool(false));
    }
    if text.starts_with('{') {
        return Err(ScenarioError::at(
            line,
            "inline tables are not supported; use a `[section]` header".to_string(),
        ));
    }
    parse_number(text, line)
}

/// Parses a basic string starting at `text[0] == '"'`; returns the
/// decoded string and the remaining text after the closing quote.
fn parse_string(text: &str, line: usize) -> Result<(String, &str), ScenarioError> {
    let mut out = String::new();
    let mut chars = text.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &text[i + 1..])),
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => {
                    return Err(ScenarioError::at(
                        line,
                        format!("unsupported string escape `\\{other}`"),
                    ))
                }
                None => break,
            },
            _ => out.push(c),
        }
    }
    Err(ScenarioError::at(line, "unterminated string".to_string()))
}

/// Parses a single-line array. Nested arrays are supported; multiline
/// arrays are not (scenarios keep arrays short).
fn parse_array(text: &str, line: usize) -> Result<TomlValue, ScenarioError> {
    let inner = text
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| {
            ScenarioError::at(
                line,
                "unterminated array (arrays must close on the same line)".to_string(),
            )
        })?;
    let mut items = Vec::new();
    for part in split_top_level(inner, line)? {
        let part = part.trim();
        if part.is_empty() {
            continue; // tolerate a trailing comma
        }
        items.push(Spanned {
            value: parse_value(part, line)?,
            line,
        });
    }
    Ok(TomlValue::Array(items))
}

/// Splits an array body on top-level commas (outside strings/brackets).
fn split_top_level(text: &str, line: usize) -> Result<Vec<&str>, ScenarioError> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in text.char_indices() {
        if in_str {
            match c {
                '\\' if !escaped => {
                    escaped = true;
                    continue;
                }
                '"' if !escaped => in_str = false,
                _ => {}
            }
            escaped = false;
            continue;
        }
        match c {
            '"' => in_str = true,
            '[' => depth += 1,
            ']' => {
                depth = depth.checked_sub(1).ok_or_else(|| {
                    ScenarioError::at(line, "unbalanced `]` in array".to_string())
                })?;
            }
            ',' if depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    Ok(parts)
}

fn parse_number(text: &str, line: usize) -> Result<TomlValue, ScenarioError> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let looks_float = cleaned.contains('.') || cleaned.contains('e') || cleaned.contains('E');
    if looks_float {
        if let Ok(f) = cleaned.parse::<f64>() {
            if f.is_finite() {
                return Ok(TomlValue::Float(f));
            }
        }
    } else if let Ok(i) = cleaned.parse::<i64>() {
        return Ok(TomlValue::Int(i));
    }
    Err(ScenarioError::at(
        line,
        format!("`{text}` is not a valid value (string, integer, float, bool or array)"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = parse_toml(
            r#"
# comment
name = "demo # not a comment"
seed = 1_996
ratio = 0.5
on = true
dims = [4, 4, 2]

[topology]
kind = "flat"   # trailing comment
nodes = 16

[a.b]
x = -3
"#,
        )
        .expect("parses");
        assert_eq!(
            doc.get("name").unwrap().value,
            TomlValue::Str("demo # not a comment".into())
        );
        assert_eq!(doc.get("seed").unwrap().value, TomlValue::Int(1996));
        assert_eq!(doc.get("ratio").unwrap().value, TomlValue::Float(0.5));
        assert_eq!(doc.get("on").unwrap().value, TomlValue::Bool(true));
        match &doc.get("dims").unwrap().value {
            TomlValue::Array(items) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
        let topo = match &doc.get("topology").unwrap().value {
            TomlValue::Table(t) => t,
            other => panic!("expected table, got {other:?}"),
        };
        assert_eq!(topo.get("nodes").unwrap().value, TomlValue::Int(16));
        assert_eq!(topo.get("nodes").unwrap().line, 11);
        let a = match &doc.get("a").unwrap().value {
            TomlValue::Table(t) => t,
            other => panic!("expected table, got {other:?}"),
        };
        let b = match &a.get("b").unwrap().value {
            TomlValue::Table(t) => t,
            other => panic!("expected table, got {other:?}"),
        };
        assert_eq!(b.get("x").unwrap().value, TomlValue::Int(-3));
    }

    #[test]
    fn parses_table_arrays_in_order() {
        let doc = parse_toml(
            r#"
[[fault]]
at = 1

[[fault]]
at = 2
"#,
        )
        .expect("parses");
        match &doc.get("fault").unwrap().value {
            TomlValue::TableArray(ts) => {
                assert_eq!(ts.len(), 2);
                assert_eq!(ts[0].get("at").unwrap().value, TomlValue::Int(1));
                assert_eq!(ts[1].get("at").unwrap().value, TomlValue::Int(2));
            }
            other => panic!("expected table array, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse_toml("x = 1\ny 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_toml("x = 1\nx = 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate key `x`"), "{err}");
        let err = parse_toml("s = \"oops\n").unwrap_err();
        assert!(err.message.contains("unterminated string"), "{err}");
        let err = parse_toml("t = {a = 1}\n").unwrap_err();
        assert!(err.message.contains("inline tables"), "{err}");
        let err = parse_toml("[t]\nx = 1\n[t]\n").unwrap_err();
        assert!(err.message.contains("duplicate table header"), "{err}");
    }

    #[test]
    fn string_round_trips_escapes() {
        let doc = parse_toml("s = \"a\\\"b\\\\c\\nd\"\n").expect("parses");
        assert_eq!(
            doc.get("s").unwrap().value,
            TomlValue::Str("a\"b\\c\nd".into())
        );
    }
}
