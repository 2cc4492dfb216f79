//! Property tests for the flat JSON-lines format, on the in-tree
//! `streamsim-quickcheck` harness: the line parser survives arbitrary
//! input, and every line the JSON sink renders parses back to the fields
//! it was rendered from.

use streamsim_prng::quickcheck::{check, Gen};
use streamsim_prng::{Rng, RngCore};

use streamsim_core::sink::{col, Column};
use streamsim_core::{
    parse_flat_json_line, render_json_lines, Artifact, ArtifactSink, Cell, JsonValue, Value,
};

/// A character chosen to stress escaping: printable ASCII, control
/// characters, JSON syntax, and multi-byte code points.
fn arbitrary_char(g: &mut Gen) -> char {
    match g.gen_range(0u32..4) {
        0 => char::from_u32(g.gen_range(0u32..0x80)).unwrap(),
        1 => g.pick(&['"', '\\', '/', '{', '}', ':', ',']),
        2 => g.pick(&['é', '≤', '\u{fffd}', '😀']),
        _ => char::from_u32(g.gen_range(0u32..0x11_0000)).unwrap_or('?'),
    }
}

fn arbitrary_text(g: &mut Gen) -> String {
    g.vec(0usize..10, arbitrary_char).into_iter().collect()
}

/// Any finite `f64`, drawn from the whole bit space.
fn finite_f64(g: &mut Gen) -> f64 {
    Some(f64::from_bits(g.next_u64()))
        .filter(|x| x.is_finite())
        .unwrap_or(0.5)
}

/// One row of random text, integer and finite number cells under random
/// artifact, table and column names.
struct RandomRow {
    names: [String; 2],
    columns: Vec<Column>,
    cells: Vec<Cell>,
}

impl RandomRow {
    fn arbitrary(g: &mut Gen) -> Self {
        let keys = g.vec(0usize..6, arbitrary_text);
        let cells = keys
            .iter()
            .map(|_| Cell {
                text: String::new(),
                value: match g.gen_range(0u32..3) {
                    0 => Value::Text(arbitrary_text(g)),
                    1 => Value::Int(g.next_u64() as i64),
                    _ => Value::Num(finite_f64(g)),
                },
            })
            .collect();
        RandomRow {
            names: [arbitrary_text(g), arbitrary_text(g)],
            columns: keys.iter().map(|k| col(k.as_str(), k.as_str())).collect(),
            cells,
        }
    }
}

impl Artifact for RandomRow {
    fn artifact(&self) -> &'static str {
        "random"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(&self.names[0], &self.names[1], "", &self.columns);
        sink.row(&self.cells);
    }
}

/// A rendered line parses back to exactly its artifact, table and cell
/// fields, in column order.
#[test]
fn rendered_lines_parse_back_to_their_fields() {
    check("rendered_lines_parse_back_to_their_fields", |g| {
        let row = RandomRow::arbitrary(g);
        let mut expected = vec![
            ("artifact".to_owned(), JsonValue::Text(row.names[0].clone())),
            ("table".to_owned(), JsonValue::Text(row.names[1].clone())),
        ];
        for (column, cell) in row.columns.iter().zip(&row.cells) {
            let value = match &cell.value {
                Value::Text(s) => JsonValue::Text(s.clone()),
                Value::Int(n) => JsonValue::Num(*n as f64),
                Value::Num(x) => JsonValue::Num(*x),
            };
            expected.push((column.key.clone(), value));
        }
        let line = render_json_lines(&row).remove(0);
        assert_eq!(parse_flat_json_line(&line), Ok(expected), "{line}");
    });
}

/// The parser returns `Ok` or `Err` on arbitrary strings and never
/// panics: soup of JSON fragments, and rendered lines, each cut short or
/// with one character inserted.
#[test]
fn arbitrary_lines_never_panic_the_parser() {
    const TOKENS: [&str; 12] = [
        "{", "}", "\"", ":", ",", "\\", "\\u00", "-", "1", "e", "nul", "\"k\"",
    ];
    check("arbitrary_lines_never_panic_the_parser", |g| {
        let mut chars: Vec<char> = if g.gen_bool(0.5) {
            let soup = g.vec(0usize..40, |g| g.pick(&TOKENS)).concat();
            soup.chars().collect()
        } else {
            render_json_lines(&RandomRow::arbitrary(g))[0]
                .chars()
                .collect()
        };
        let at = g.gen_range(0..chars.len() + 1);
        if g.gen_bool(0.5) {
            chars.truncate(at);
        } else {
            chars.insert(at, arbitrary_char(g));
        }
        let _ = parse_flat_json_line(&chars.into_iter().collect::<String>());
    });
}
