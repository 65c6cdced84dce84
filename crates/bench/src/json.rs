//! One JSON value and its one encoder: the format of every checked-in
//! `BENCH_*.json`.
//!
//! A number keeps 9 decimals, and a non-finite one is `null`; an integer
//! is exact. The layout makes each record one line: a top-level object
//! puts one member per line, an array of objects puts one object per
//! line, and everything else is compact. A diff of two files is then a
//! diff of records.

use std::fmt::Write;

/// A JSON value. `Int` is exact, `Num` keeps 9 decimals, and an object
/// keeps its members in the order given.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// `obj! { "key" => value, ... }`: a [`Json::Obj`] of `Into<Json>` values.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key, $crate::Json::from($value))),*])
    };
}
pub(crate) use obj;

impl Json {
    /// The document: the layout of the module docs, then a newline.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            Json::Num(v) if v.is_finite() => write!(out, "{v:.9}").unwrap(),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let rows = !items.is_empty() && items.iter().all(|i| matches!(i, Json::Obj(_)));
                let items = items.iter().map(|i| (None, i));
                write_list(out, ['[', ']'], items, rows, depth);
            }
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(*k), v));
                write_list(out, ['{', '}'], members, depth == 0, depth);
            }
        }
    }
}

/// Writes an array's items or an object's members between `brackets`:
/// one a line, indented to their depth, if `lines`; compact otherwise.
fn write_list<'a>(
    out: &mut String,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    lines: bool,
    depth: usize,
) {
    let newline = |out: &mut String, depth: usize| {
        if lines {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    out.push(open);
    for (k, (key, value)) in items.enumerate() {
        if k > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if lines { ": " } else { ":" });
        }
        value.write(out, depth + 1);
    }
    newline(out, depth);
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from {
    ($($t:ty => |$v:ident| $json:expr),*) => {
        $(impl From<$t> for Json { fn from($v: $t) -> Json { $json } })*
    };
}
from! {
    bool => |b| Json::Bool(b), f64 => |v| Json::Num(v), i32 => |i| Json::Int(i.into()),
    u64 => |i| Json::Int(i.into()), usize => |i| Json::Int(i as i128),
    &str => |s| Json::Str(s.to_string())
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        items.iter().cloned().collect()
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_nests_escapes_and_lays_out_rows() {
        let row = |k: usize| obj! { "k" => k, "v" => [0.5, f64::NAN][k] };
        let doc = obj! {
            "name" => "a \"quoted\" \\ tab\t line\n bell\u{7}",
            "n" => -3i32,
            "x" => 1.0 / 3.0,
            "inf" => f64::INFINITY,
            "none" => None::<u64>,
            "flag" => true,
            "list" => [1.25, 2.0].as_slice(),
            "empty" => Json::Arr(Vec::new()),
            "rows" => (0..2).map(row).collect::<Json>(),
            "nested" => obj! { "ok" => false, "rows" => vec![row(0)].into_iter().collect::<Json>() },
        };
        let text = doc.encode();
        assert_eq!(
            text,
            concat!(
                "{\n",
                "  \"name\": \"a \\\"quoted\\\" \\\\ tab\\t line\\n bell\\u0007\",\n",
                "  \"n\": -3,\n",
                "  \"x\": 0.333333333,\n",
                "  \"inf\": null,\n",
                "  \"none\": null,\n",
                "  \"flag\": true,\n",
                "  \"list\": [1.250000000,2.000000000],\n",
                "  \"empty\": [],\n",
                "  \"rows\": [\n",
                "    {\"k\":0,\"v\":0.500000000},\n",
                "    {\"k\":1,\"v\":null}\n",
                "  ],\n",
                "  \"nested\": {\"ok\":false,\"rows\":[\n",
                "      {\"k\":0,\"v\":0.500000000}\n",
                "    ]}\n",
                "}\n",
            )
        );
        // A top-level array of records: one record per line.
        let rows: Json = (0..2).map(row).collect();
        assert_eq!(
            rows.encode(),
            "[\n  {\"k\":0,\"v\":0.500000000},\n  {\"k\":1,\"v\":null}\n]\n"
        );
        for text in [text, rows.encode()] {
            assert_eq!(text.matches('{').count(), text.matches('}').count());
            assert_eq!(text.matches('[').count(), text.matches(']').count());
        }
    }
}
