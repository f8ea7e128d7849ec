//! In-memory relational table store: the data-lake substrate of the UniDM
//! reproduction.
//!
//! The paper assumes a data lake `D = {D1, ..., Dl}` of relational tables
//! with heterogeneous schemas and *no* declared join relations. This crate
//! implements that substrate:
//!
//! * [`Value`] — a dynamically typed cell value (null, text, int, float, bool).
//! * [`Schema`] / [`Column`] — ordered attribute lists.
//! * [`Record`] — one tuple, aligned with a schema.
//! * [`Table`] — named schema + rows over chunked columnar storage
//!   ([`Chunk`] / [`ColumnChunk`]): dictionary-encoded text (one
//!   [`StringPool`] per column chunk), packed ints,
//!   per-chunk statistics computed at ingest, `Arc`-shared immutable
//!   chunks, with builders, projection, sampling and per-column statistics.
//! * [`SegmentWriter`] / [`Pager`] — a spill-to-disk segment format and a
//!   budget-bounded LRU pager so lakes larger than RAM page chunks in and
//!   out behind the same `Table` API ([`Table::spill_to`],
//!   [`Table::open_segment`]).
//! * [`DataLake`] — a named collection of tables.
//! * [`csv`] — a dependency-free CSV round-trip for fixtures and debugging,
//!   including streaming chunk-by-chunk ingest ([`csv::from_csv_path`],
//!   [`csv::csv_to_segment`]).
//!
//! # Examples
//!
//! ```
//! use unidm_tablestore::{Table, Value};
//!
//! let mut t = Table::builder("cities")
//!     .column("city")
//!     .column("country")
//!     .build();
//! t.push_row(vec![Value::text("Florence"), Value::text("Italy")]).unwrap();
//! assert_eq!(t.row_count(), 1);
//! assert_eq!(t.cell_value(0, "country").unwrap().to_string(), "Italy");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
pub mod csv;
mod error;
mod lake;
mod record;
mod schema;
mod segment;
mod stats;
mod table;
mod value;

pub use chunk::{Chunk, ColumnChunk, StringPool, NULL_CODE};
pub use error::TableError;
pub use lake::DataLake;
pub use record::Record;
pub use schema::{Column, DataType, Schema};
pub use segment::{Pager, SegmentReader, SegmentWriter, DEFAULT_PAGE_BUDGET};
pub use stats::ColumnStats;
pub use table::{ColumnIter, RowIter, Table, TableBuilder, DEFAULT_CHUNK_ROWS};
pub use value::Value;
