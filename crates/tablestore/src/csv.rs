//! Dependency-free CSV serialisation for tables.
//!
//! Supports quoting with `"` and embedded commas/newlines — enough for
//! fixtures, debugging dumps and round-trip tests. Not a general CSV parser.
//!
//! Parsing is incremental: the state machine consumes input line-by-line
//! (quote state carries across reads), so [`from_csv_path`] ingests a file
//! chunk-by-chunk without ever holding the whole text or row set in memory,
//! and [`csv_to_segment`] streams rows straight into a spill segment —
//! peak memory is one chunk regardless of file size.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::{Schema, SegmentWriter, Table, TableError, Value, DEFAULT_CHUNK_ROWS};

/// Serialises a table to CSV with a header row (decoding chunk-by-chunk).
pub fn to_csv(table: &Table) -> String {
    let mut out = String::new();
    let header: Vec<String> = table.schema().names().map(escape).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.iter_rows() {
        let cells: Vec<String> = row.values().iter().map(|v| escape(&v.as_text())).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Parses CSV text (with a header row) into a table named `name`.
///
/// Values are parsed with [`Value::parse`], so numerics become typed values
/// and empty cells become nulls.
///
/// # Errors
///
/// Returns [`TableError::Csv`] for malformed input (unterminated quotes or
/// ragged rows) and [`TableError::DuplicateAttribute`] for repeated headers.
pub fn from_csv(name: &str, text: &str) -> Result<Table, TableError> {
    let mut ingest = TableIngest::new(name, DEFAULT_CHUNK_ROWS);
    let mut parser = CsvParser::default();
    parser.feed(text, &mut |cells| ingest.accept(cells))?;
    parser.finish(&mut |cells| ingest.accept(cells))?;
    ingest.finish()
}

/// Streams a CSV file (with a header row) into an in-memory table, reading
/// and sealing chunk-by-chunk — the file text is never held whole.
///
/// # Errors
///
/// Returns [`TableError::Csv`] for I/O failures or malformed input and
/// [`TableError::DuplicateAttribute`] for repeated headers.
pub fn from_csv_path(name: &str, path: impl AsRef<Path>) -> Result<Table, TableError> {
    let file = File::open(path).map_err(|e| TableError::Csv(format!("open csv: {e}")))?;
    from_csv_reader(name, BufReader::new(file))
}

/// Streams CSV from any buffered reader into an in-memory table.
///
/// # Errors
///
/// Same conditions as [`from_csv_path`].
pub fn from_csv_reader(name: &str, reader: impl BufRead) -> Result<Table, TableError> {
    let mut ingest = TableIngest::new(name, DEFAULT_CHUNK_ROWS);
    run_parser(reader, &mut |cells| ingest.accept(cells))?;
    ingest.finish()
}

/// Streams a CSV file directly into a spill segment at `segment_path` and
/// returns the spilled, read-only table paging at most `budget` chunks.
/// Rows never accumulate in memory: each parsed row goes straight to the
/// [`SegmentWriter`], which seals and writes a chunk every `chunk_rows`
/// rows — this is the out-of-core ingest path for files larger than RAM.
///
/// # Errors
///
/// Returns [`TableError::Csv`] for I/O failures or malformed input,
/// [`TableError::DuplicateAttribute`] for repeated headers, and
/// [`TableError::Segment`] if the segment cannot be written.
pub fn csv_to_segment(
    name: &str,
    csv_path: impl AsRef<Path>,
    segment_path: impl AsRef<Path>,
    chunk_rows: usize,
    budget: usize,
) -> Result<Table, TableError> {
    let file = File::open(csv_path).map_err(|e| TableError::Csv(format!("open csv: {e}")))?;
    let mut ingest = SegmentIngest {
        name: name.to_string(),
        segment_path: segment_path.as_ref().to_path_buf(),
        chunk_rows,
        writer: None,
        data_rows: 0,
    };
    run_parser(BufReader::new(file), &mut |cells| ingest.accept(cells))?;
    match ingest.writer {
        Some(writer) => writer.finish(budget),
        None => Err(TableError::Csv("missing header row".into())),
    }
}

fn escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Drives the incremental parser over a buffered reader, line by line.
/// Quoted cells spanning lines are handled by the carried parser state.
fn run_parser(
    mut reader: impl BufRead,
    sink: &mut impl FnMut(Vec<String>) -> Result<(), TableError>,
) -> Result<(), TableError> {
    let mut parser = CsvParser::default();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| TableError::Csv(format!("read csv: {e}")))?;
        if n == 0 {
            break;
        }
        parser.feed(&line, sink)?;
    }
    parser.finish(sink)
}

/// Incremental CSV state machine. `feed` may be called any number of times
/// with arbitrary input splits (including mid-cell and mid-quote);
/// `finish` flushes the final row and validates quote termination.
#[derive(Debug, Default)]
struct CsvParser {
    row: Vec<String>,
    cell: String,
    in_quotes: bool,
    /// Saw a `"` while quoted; the next character decides whether it was an
    /// escaped quote (`""`) or the closing quote. Carrying this across
    /// `feed` calls is what makes arbitrary input splits safe.
    pending_quote: bool,
    any: bool,
}

impl CsvParser {
    fn feed(
        &mut self,
        text: &str,
        sink: &mut impl FnMut(Vec<String>) -> Result<(), TableError>,
    ) -> Result<(), TableError> {
        for c in text.chars() {
            self.any = true;
            if self.pending_quote {
                self.pending_quote = false;
                if c == '"' {
                    self.cell.push('"');
                    continue;
                }
                self.in_quotes = false;
            }
            if self.in_quotes {
                if c == '"' {
                    self.pending_quote = true;
                } else {
                    self.cell.push(c);
                }
            } else {
                match c {
                    '"' => self.in_quotes = true,
                    ',' => self.row.push(std::mem::take(&mut self.cell)),
                    '\n' => {
                        self.row.push(std::mem::take(&mut self.cell));
                        sink(std::mem::take(&mut self.row))?;
                    }
                    '\r' => {}
                    _ => self.cell.push(c),
                }
            }
        }
        Ok(())
    }

    fn finish(
        mut self,
        sink: &mut impl FnMut(Vec<String>) -> Result<(), TableError>,
    ) -> Result<(), TableError> {
        if self.pending_quote {
            self.in_quotes = false;
        }
        if self.in_quotes {
            return Err(TableError::Csv("unterminated quote".into()));
        }
        if self.any && (!self.cell.is_empty() || !self.row.is_empty()) {
            self.row.push(self.cell);
            sink(self.row)?;
        }
        Ok(())
    }
}

/// Row sink building an in-memory table: header row becomes the schema,
/// data rows are arity-checked and pushed (sealing chunks as they fill).
struct TableIngest {
    name: String,
    chunk_rows: usize,
    table: Option<Table>,
    data_rows: usize,
}

impl TableIngest {
    fn new(name: &str, chunk_rows: usize) -> Self {
        TableIngest {
            name: name.to_string(),
            chunk_rows,
            table: None,
            data_rows: 0,
        }
    }

    fn accept(&mut self, cells: Vec<String>) -> Result<(), TableError> {
        match &mut self.table {
            None => {
                let schema = Schema::from_names(cells)?;
                self.table = Some(Table::with_chunk_rows(&self.name, schema, self.chunk_rows));
                Ok(())
            }
            Some(table) => {
                self.data_rows += 1;
                check_arity(self.data_rows, cells.len(), table.schema().len())?;
                table
                    .push_row(cells.iter().map(|c| Value::parse(c)).collect())
                    .expect("arity checked above");
                Ok(())
            }
        }
    }

    fn finish(self) -> Result<Table, TableError> {
        self.table
            .ok_or_else(|| TableError::Csv("missing header row".into()))
    }
}

/// Row sink streaming straight into a [`SegmentWriter`].
struct SegmentIngest {
    name: String,
    segment_path: std::path::PathBuf,
    chunk_rows: usize,
    writer: Option<SegmentWriter>,
    data_rows: usize,
}

impl SegmentIngest {
    fn accept(&mut self, cells: Vec<String>) -> Result<(), TableError> {
        match &mut self.writer {
            None => {
                let schema = Schema::from_names(cells)?;
                self.writer = Some(SegmentWriter::create(
                    &self.segment_path,
                    &self.name,
                    schema,
                    self.chunk_rows,
                )?);
                Ok(())
            }
            Some(writer) => {
                self.data_rows += 1;
                check_arity(self.data_rows, cells.len(), writer_width(writer))?;
                writer.push_row(cells.iter().map(|c| Value::parse(c)).collect())
            }
        }
    }
}

fn writer_width(writer: &SegmentWriter) -> usize {
    writer.schema().len()
}

fn check_arity(row: usize, got: usize, expected: usize) -> Result<(), TableError> {
    if got != expected {
        return Err(TableError::Csv(format!(
            "row {row} has {got} cells, expected {expected}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let mut t = Table::builder("t").columns(["a", "b"]).build();
        t.push_row(vec![Value::text("x"), Value::Int(1)]).unwrap();
        t.push_row(vec![Value::Null, Value::Float(2.5)]).unwrap();
        let csv = to_csv(&t);
        let back = from_csv("t", &csv).unwrap();
        assert_eq!(back.row_count(), 2);
        assert_eq!(back.cell_value(0, "b").unwrap(), Value::Int(1));
        assert!(back.cell_value(1, "a").unwrap().is_null());
    }

    #[test]
    fn quoting_commas_and_quotes() {
        let mut t = Table::builder("t").columns(["q"]).build();
        t.push_row(vec![Value::text("a,b \"c\"")]).unwrap();
        let csv = to_csv(&t);
        let back = from_csv("t", &csv).unwrap();
        assert_eq!(back.cell_value(0, "q").unwrap(), Value::text("a,b \"c\""));
    }

    #[test]
    fn embedded_newline() {
        let csv = "h\n\"line1\nline2\"\n";
        let t = from_csv("t", csv).unwrap();
        assert_eq!(t.cell_value(0, "h").unwrap(), Value::text("line1\nline2"));
    }

    #[test]
    fn ragged_row_rejected() {
        let err = from_csv("t", "a,b\n1\n").unwrap_err();
        assert!(matches!(err, TableError::Csv(_)));
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(from_csv("t", ""), Err(TableError::Csv(_))));
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(matches!(
            from_csv("t", "a\n\"oops\n"),
            Err(TableError::Csv(_))
        ));
    }

    #[test]
    fn crlf_handled() {
        let t = from_csv("t", "a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.cell_value(0, "a").unwrap(), Value::Int(1));
    }

    #[test]
    fn parser_state_survives_arbitrary_splits() {
        // Split the input at every possible byte boundary; the incremental
        // parser must produce identical rows regardless of the split.
        let text = "a,b\n\"x,\"\"y\"\"\nz\",2\r\nc,\"d\"\n";
        let whole = from_csv("t", text).unwrap();
        for split in 1..text.len() {
            if !text.is_char_boundary(split) {
                continue;
            }
            let mut ingest = TableIngest::new("t", DEFAULT_CHUNK_ROWS);
            let mut parser = CsvParser::default();
            parser
                .feed(&text[..split], &mut |c| ingest.accept(c))
                .unwrap();
            parser
                .feed(&text[split..], &mut |c| ingest.accept(c))
                .unwrap();
            parser.finish(&mut |c| ingest.accept(c)).unwrap();
            assert_eq!(ingest.finish().unwrap(), whole, "split at byte {split}");
        }
    }

    #[test]
    fn file_streaming_matches_in_memory() {
        let text = "a,b\n1,2\n\"multi\nline\",y\n3,4";
        let mut path = std::env::temp_dir();
        path.push(format!("unidm-csv-stream-{}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let streamed = from_csv_path("t", &path).unwrap();
        let whole = from_csv("t", text).unwrap();
        assert_eq!(streamed, whole);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_streams_to_segment() {
        let mut csv_path = std::env::temp_dir();
        csv_path.push(format!("unidm-csv-seg-{}.csv", std::process::id()));
        let mut seg_path = std::env::temp_dir();
        seg_path.push(format!("unidm-csv-seg-{}.seg", std::process::id()));
        let mut text = String::from("id,name\n");
        for i in 0..25 {
            text.push_str(&format!("{i},user-{i}\n"));
        }
        std::fs::write(&csv_path, &text).unwrap();
        let spilled = csv_to_segment("users", &csv_path, &seg_path, 8, 2).unwrap();
        assert!(spilled.is_spilled());
        assert_eq!(spilled.row_count(), 25);
        assert_eq!(
            spilled.cell_value(24, "name").unwrap(),
            Value::text("user-24")
        );
        let whole = from_csv("users", &text).unwrap();
        assert_eq!(spilled, whole);
        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_file(&seg_path).ok();
    }
}
