//! Structured experiment output: one emission, two renderings.
//!
//! Every experiment driver describes its results once — tables of typed
//! cells plus free-form notes — through an [`ArtifactSink`]. The sink
//! decides the rendering: [`TextSink`] reproduces the aligned
//! [`TextTable`](crate::report::TextTable) output the drivers always
//! printed, and [`JsonLinesSink`] emits one JSON object per data row
//! (extending the convention the `streamsim-bench` timing harness set).
//! A driver's result type implements [`Artifact`]; its `Display` impl is
//! just [`render_text`].
//!
//! The JSONL schema is flat by design: every line carries `artifact` and
//! `table` keys naming its origin, then one key per column. Text cells
//! keep their human formatting; numeric cells carry the *unrounded*
//! value, so downstream diffing (`streamsim-report --diff`) compares real
//! numbers, not prints. [`parse_flat_json_line`] reads the format back.

use std::fmt::Write as _;

use crate::report::TextTable;

/// The machine-readable value of a table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A label or other non-numeric content.
    Text(String),
    /// A real number (emitted unrounded to JSON).
    Num(f64),
    /// An integer (exact in JSON).
    Int(i64),
}

/// One table cell: human text plus the machine value behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// What the text rendering shows (e.g. `"78.0"` or `"64 KB"`).
    pub text: String,
    /// What the JSON rendering records (e.g. `77.9583`).
    pub value: Value,
}

impl Cell {
    /// A text cell; the value is the text itself.
    pub fn text(text: impl Into<String>) -> Self {
        let text = text.into();
        Cell {
            value: Value::Text(text.clone()),
            text,
        }
    }

    /// A numeric cell: `text` is the rounded human rendering, `value`
    /// the full-precision number.
    pub fn num(value: f64, text: impl Into<String>) -> Self {
        Cell {
            text: text.into(),
            value: Value::Num(value),
        }
    }

    /// An integer cell.
    pub fn int(value: i64, text: impl Into<String>) -> Self {
        Cell {
            text: text.into(),
            value: Value::Int(value),
        }
    }
}

/// A table column: display header plus the JSON key it maps to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Column {
    /// Header shown by the text rendering (e.g. `"hit %"`).
    pub header: String,
    /// Key used by the JSON rendering (e.g. `"hit_pct"`).
    pub key: String,
}

/// Shorthand [`Column`] constructor.
pub fn col(header: impl Into<String>, key: impl Into<String>) -> Column {
    Column {
        header: header.into(),
        key: key.into(),
    }
}

/// Receives a driver's structured output.
///
/// Call order per table: one `begin_table`, then its `row`s. `note`
/// carries free-form text (preambles, chart sketches, paper commentary)
/// and implicitly closes any open table.
pub trait ArtifactSink {
    /// Starts a table belonging to `artifact` (driver name, e.g.
    /// `"fig3"`), identified as `table` within it, with a human title.
    fn begin_table(&mut self, artifact: &str, table: &str, title: &str, columns: &[Column]);

    /// One data row of the current table. Cells beyond the declared
    /// columns are allowed (the text table grows; JSON keys them `c<i>`).
    fn row(&mut self, cells: &[Cell]);

    /// Free-form text outside any table (may span lines).
    fn note(&mut self, text: &str);
}

/// A result type that can describe itself to an [`ArtifactSink`].
pub trait Artifact {
    /// The driver name used as the `artifact` JSON key (e.g. `"fig3"`).
    fn artifact(&self) -> &'static str;

    /// Emits every table and note of this result.
    fn emit(&self, sink: &mut dyn ArtifactSink);
}

/// Renders an artifact the way the drivers' `Display` impls always have.
pub fn render_text(artifact: &dyn Artifact) -> String {
    let mut sink = TextSink::new();
    artifact.emit(&mut sink);
    sink.into_string()
}

/// Renders an artifact as JSON lines (one per data row).
pub fn render_json_lines(artifact: &dyn Artifact) -> Vec<String> {
    let mut sink = JsonLinesSink::new();
    artifact.emit(&mut sink);
    sink.into_lines()
}

/// Renders tables as titles plus aligned [`TextTable`]s, notes verbatim.
#[derive(Debug, Default)]
pub struct TextSink {
    out: String,
    pending: Option<TextTable>,
}

impl TextSink {
    /// An empty sink.
    pub fn new() -> Self {
        TextSink::default()
    }

    fn flush(&mut self) {
        if let Some(table) = self.pending.take() {
            let _ = write!(self.out, "{table}");
        }
    }

    /// The accumulated text.
    pub fn into_string(mut self) -> String {
        self.flush();
        self.out
    }
}

impl ArtifactSink for TextSink {
    fn begin_table(&mut self, _artifact: &str, _table: &str, title: &str, columns: &[Column]) {
        self.flush();
        if !title.is_empty() {
            let _ = writeln!(self.out, "{title}");
        }
        self.pending = Some(TextTable::new(
            columns.iter().map(|c| c.header.clone()).collect(),
        ));
    }

    fn row(&mut self, cells: &[Cell]) {
        if let Some(table) = self.pending.as_mut() {
            table.row(cells.iter().map(|c| c.text.clone()).collect());
        }
    }

    fn note(&mut self, text: &str) {
        self.flush();
        let _ = writeln!(self.out, "{text}");
    }
}

/// Renders each data row as one flat JSON object.
#[derive(Debug, Default)]
pub struct JsonLinesSink {
    lines: Vec<String>,
    artifact: String,
    table: String,
    keys: Vec<String>,
    stamp: Vec<(String, Value)>,
}

impl JsonLinesSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonLinesSink::default()
    }

    /// A sink that appends `stamp` key/value pairs to every row — run
    /// provenance (`run_seed`, `run_config`, ...) that identifies where
    /// a row came from. `streamsim-report --diff` ignores `run_`-prefixed
    /// keys, so stamps never register as drift.
    pub fn with_stamp(stamp: Vec<(String, Value)>) -> Self {
        JsonLinesSink {
            stamp,
            ..JsonLinesSink::default()
        }
    }

    /// The accumulated JSON lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Consumes the sink, returning its JSON lines.
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

impl ArtifactSink for JsonLinesSink {
    fn begin_table(&mut self, artifact: &str, table: &str, _title: &str, columns: &[Column]) {
        self.artifact = artifact.to_owned();
        self.table = table.to_owned();
        self.keys = columns.iter().map(|c| c.key.clone()).collect();
    }

    fn row(&mut self, cells: &[Cell]) {
        let mut line = String::from("{");
        let _ = write!(
            line,
            "\"artifact\":{},\"table\":{}",
            json_string(&self.artifact),
            json_string(&self.table)
        );
        for (i, cell) in cells.iter().enumerate() {
            let fallback;
            let key = match self.keys.get(i) {
                Some(k) => k,
                None => {
                    fallback = format!("c{i}");
                    &fallback
                }
            };
            let _ = write!(line, ",{}:", json_string(key));
            match &cell.value {
                Value::Text(s) => line.push_str(&json_string(s)),
                Value::Num(n) => line.push_str(&json_number(*n)),
                Value::Int(n) => {
                    let _ = write!(line, "{n}");
                }
            }
        }
        for (key, value) in &self.stamp {
            let _ = write!(line, ",{}:", json_string(key));
            match value {
                Value::Text(s) => line.push_str(&json_string(s)),
                Value::Num(n) => line.push_str(&json_number(*n)),
                Value::Int(n) => {
                    let _ = write!(line, "{n}");
                }
            }
        }
        line.push('}');
        self.lines.push(line);
    }

    fn note(&mut self, _text: &str) {}
}

/// A fail-stop wrapper that models a faulty artifact consumer.
///
/// Every `row` is first offered to a *gate* with its global row index
/// (counted across tables); if the gate returns `Err`, the error is
/// recorded, the row is dropped, and the sink goes quiet — no later
/// call reaches the inner sink, so the inner artifact is always a clean
/// prefix of the intended output rather than a torn one. This is the
/// DST seam for `ArtifactSink` flushing: tests feed
/// `FaultContext::sink_write` as the gate and assert the prefix
/// property under every interleaving.
pub struct GuardedSink<'a> {
    inner: &'a mut dyn ArtifactSink,
    gate: Box<dyn FnMut(usize) -> Result<(), String> + 'a>,
    rows: usize,
    error: Option<String>,
}

impl std::fmt::Debug for GuardedSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedSink")
            .field("rows", &self.rows)
            .field("error", &self.error)
            .finish()
    }
}

impl<'a> GuardedSink<'a> {
    /// Wraps `inner`, consulting `gate` before each row write.
    pub fn new(
        inner: &'a mut dyn ArtifactSink,
        gate: impl FnMut(usize) -> Result<(), String> + 'a,
    ) -> Self {
        GuardedSink {
            inner,
            gate: Box::new(gate),
            rows: 0,
            error: None,
        }
    }

    /// Rows successfully forwarded to the inner sink.
    pub fn rows_written(&self) -> usize {
        self.rows
    }

    /// The recorded write failure, if the gate ever refused a row.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

impl ArtifactSink for GuardedSink<'_> {
    fn begin_table(&mut self, artifact: &str, table: &str, title: &str, columns: &[Column]) {
        if self.error.is_none() {
            self.inner.begin_table(artifact, table, title, columns);
        }
    }

    fn row(&mut self, cells: &[Cell]) {
        if self.error.is_some() {
            return;
        }
        match (self.gate)(self.rows) {
            Ok(()) => {
                self.inner.row(cells);
                self.rows += 1;
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn note(&mut self, text: &str) {
        if self.error.is_none() {
            self.inner.note(text);
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
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

/// Formats a float as a JSON number (`null` for non-finite values).
fn json_number(n: f64) -> String {
    if n.is_finite() {
        format!("{n}")
    } else {
        "null".to_owned()
    }
}

/// A value read back from a flat JSON line.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Text(String),
    /// A JSON number.
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

/// Parses one flat JSON object line (string/number/bool/null values, no
/// nesting) into key/value pairs in file order.
///
/// This covers exactly what [`JsonLinesSink`] and the bench timing
/// harness write; it is not a general JSON parser.
///
/// # Errors
///
/// Returns a description of the first syntax problem encountered.
pub fn parse_flat_json_line(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            pairs.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(pairs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a UTF-8 sequence (input is a &str, so
                    // the bytes are valid).
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|e| format!("invalid UTF-8 in string: {e}"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Text(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected literal {word}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo;

    impl Artifact for Demo {
        fn artifact(&self) -> &'static str {
            "demo"
        }

        fn emit(&self, sink: &mut dyn ArtifactSink) {
            sink.begin_table(
                self.artifact(),
                "hit_rate",
                "Demo: hit rate",
                &[col("bench", "bench"), col("hit %", "hit_pct")],
            );
            sink.row(&[Cell::text("mgrid"), Cell::num(77.95831, "78.0")]);
            sink.row(&[Cell::text("adm"), Cell::num(4.25, "4.2")]);
            sink.note("a closing remark");
        }
    }

    #[test]
    fn text_rendering_has_title_table_and_note() {
        let text = render_text(&Demo);
        assert!(text.starts_with("Demo: hit rate\n"), "{text}");
        assert!(text.contains("bench"));
        assert!(text.contains("78.0"));
        assert!(text.ends_with("a closing remark\n"), "{text}");
    }

    #[test]
    fn json_rendering_is_one_line_per_row() {
        let lines = render_json_lines(&Demo);
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"artifact\":\"demo\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct\":77.95831}"
        );
        assert_eq!(
            lines[1],
            "{\"artifact\":\"demo\",\"table\":\"hit_rate\",\"bench\":\"adm\",\"hit_pct\":4.25}"
        );
    }

    #[test]
    fn json_lines_round_trip_through_the_parser() {
        for line in render_json_lines(&Demo) {
            let pairs = parse_flat_json_line(&line).unwrap();
            assert_eq!(pairs[0].0, "artifact");
            assert_eq!(pairs[0].1, JsonValue::Text("demo".into()));
            assert!(matches!(pairs[3].1, JsonValue::Num(_)));
        }
    }

    #[test]
    fn stamped_sink_appends_provenance_to_every_row() {
        let mut sink = JsonLinesSink::with_stamp(vec![
            ("run_seed".to_owned(), Value::Int(7)),
            ("run_config".to_owned(), Value::Text("00ff".to_owned())),
        ]);
        Demo.emit(&mut sink);
        for line in sink.lines() {
            assert!(
                line.ends_with(",\"run_seed\":7,\"run_config\":\"00ff\"}"),
                "{line}"
            );
            parse_flat_json_line(line).expect("stamped line stays valid JSON");
        }
    }

    #[test]
    fn extra_cells_get_positional_keys() {
        let mut sink = JsonLinesSink::new();
        sink.begin_table("demo", "t", "", &[col("a", "a")]);
        sink.row(&[Cell::int(1, "1"), Cell::int(2, "2")]);
        assert_eq!(
            sink.lines()[0],
            "{\"artifact\":\"demo\",\"table\":\"t\",\"a\":1,\"c1\":2}"
        );
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "he said \"hi\\there\"\nnew\tline\u{1}";
        let quoted = json_string(s);
        let line = format!("{{\"k\":{quoted}}}");
        let pairs = parse_flat_json_line(&line).unwrap();
        assert_eq!(pairs[0].1, JsonValue::Text(s.to_owned()));
    }

    #[test]
    fn parser_handles_all_value_kinds() {
        let pairs = parse_flat_json_line(
            "{\"s\":\"x\",\"n\":-1.5e3,\"i\":42,\"b\":true,\"f\":false,\"z\":null}",
        )
        .unwrap();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[1].1, JsonValue::Num(-1500.0));
        assert_eq!(pairs[2].1, JsonValue::Num(42.0));
        assert_eq!(pairs[3].1, JsonValue::Bool(true));
        assert_eq!(pairs[5].1, JsonValue::Null);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_flat_json_line("").is_err());
        assert!(parse_flat_json_line("{\"a\":}").is_err());
        assert!(parse_flat_json_line("{\"a\":1} extra").is_err());
        assert!(parse_flat_json_line("{\"a\" 1}").is_err());
        assert!(parse_flat_json_line("{\"a\":1").is_err());
    }

    #[test]
    fn unicode_survives_the_round_trip() {
        let line = "{\"k\":\"café ≤ 3\"}";
        let pairs = parse_flat_json_line(line).unwrap();
        assert_eq!(pairs[0].1, JsonValue::Text("café ≤ 3".into()));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(2.5), "2.5");
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_flat_json_line("{}").unwrap(), vec![]);
    }

    #[test]
    fn guarded_sink_with_open_gate_is_transparent() {
        let mut guarded_json = JsonLinesSink::new();
        {
            let mut guarded = GuardedSink::new(&mut guarded_json, |_| Ok(()));
            Demo.emit(&mut guarded);
            assert_eq!(guarded.rows_written(), 2);
            assert_eq!(guarded.error(), None);
        }
        assert_eq!(guarded_json.lines(), render_json_lines(&Demo).as_slice());
    }

    #[test]
    fn guarded_sink_failure_is_fail_stop_with_a_clean_prefix() {
        let mut json = JsonLinesSink::new();
        {
            let mut guarded = GuardedSink::new(&mut json, |row| {
                if row == 1 {
                    Err("disk full".into())
                } else {
                    Ok(())
                }
            });
            Demo.emit(&mut guarded);
            assert_eq!(guarded.rows_written(), 1);
            assert_eq!(guarded.error(), Some("disk full"));
            // A second table after the failure must not reopen the sink.
            guarded.begin_table("demo", "late", "too late", &[col("x", "x")]);
            guarded.row(&[Cell::text("nope")]);
            guarded.note("never lands");
        }
        // Exactly the rows before the failure — a prefix, never a tear.
        let reference = render_json_lines(&Demo);
        assert_eq!(json.lines(), &reference[..1]);
    }
}
