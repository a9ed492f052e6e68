//! Result sets: the "single 2-D vector" the paper's service returns, and
//! its columnar form.
//!
//! A backend hands its result over as a [`ColumnarResult`]: owned, typed
//! column chunks gathered straight out of the executor's selection, with
//! no per-row allocation. The mediator scans those chunks in place and
//! materializes rows ([`ResultSet`]) once, for the client.

use crate::error::SqlError;
use gridfed_storage::{ColumnChunk, Row, Table, Value};
use std::fmt;

/// A query result: column names plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// An empty result with the given column names.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Position of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Values of one column across all rows (clones).
    pub fn column_values(&self, name: &str) -> Option<Vec<Value>> {
        let idx = self.column_index(name)?;
        Some(
            self.rows
                .iter()
                .map(|r| r.get(idx).cloned().unwrap_or(Value::Null))
                .collect(),
        )
    }

    /// The paper's wire format: a plain 2-D vector of rendered strings
    /// (header row first), as returned to Clarens clients.
    pub fn to_vector(&self) -> Vec<Vec<String>> {
        let mut out = Vec::with_capacity(self.rows.len() + 1);
        out.push(self.columns.clone());
        for row in &self.rows {
            out.push(row.values().iter().map(Value::render).collect());
        }
        out
    }

    /// Approximate serialized size in bytes (headers + values), used by the
    /// virtual-time transfer model.
    pub fn wire_size(&self) -> usize {
        let header: usize = self.columns.iter().map(|c| c.len() + 4).sum();
        header + self.rows.iter().map(Row::wire_size).sum::<usize>()
    }

    /// Append another result set's rows; arity and column names must match.
    pub fn append(&mut self, mut other: ResultSet) -> Result<(), String> {
        if self.columns.len() != other.columns.len() {
            return Err(format!(
                "cannot merge result sets of arity {} and {}",
                self.columns.len(),
                other.columns.len()
            ));
        }
        self.rows.append(&mut other.rows);
        Ok(())
    }
}

/// A query result in columnar form: column names plus one owned, typed
/// [`ColumnChunk`] (values and null bitmap) per column, every chunk `len`
/// rows long. Column names may repeat (`SELECT *` over a join).
#[derive(Debug, Clone)]
pub struct ColumnarResult {
    columns: Vec<String>,
    chunks: Vec<ColumnChunk>,
    rows: usize,
}

impl ColumnarResult {
    /// Assemble from chunks the caller built. Panics when a chunk's length
    /// is not `rows` or the chunk and name counts differ — the executor's
    /// gathers guarantee both.
    pub(crate) fn new(columns: Vec<String>, chunks: Vec<ColumnChunk>, rows: usize) -> Self {
        assert_eq!(columns.len(), chunks.len(), "one chunk per column");
        assert!(chunks.iter().all(|c| c.len() == rows), "ragged chunks");
        ColumnarResult {
            columns,
            chunks,
            rows,
        }
    }

    /// Transpose untyped rows into typed columns (see
    /// [`ColumnChunk::from_values`] for how a column is typed). A row of the
    /// wrong arity or a column that mixes types is a typed error, never a
    /// panic, so this is safe on rows decoded from an untrusted peer.
    pub fn from_rows(columns: Vec<String>, rows: Vec<Row>) -> Result<Self, SqlError> {
        if let Some(bad) = rows.iter().find(|r| r.arity() != columns.len()) {
            return Err(gridfed_storage::StorageError::ArityMismatch {
                expected: columns.len(),
                got: bad.arity(),
            }
            .into());
        }
        let chunks = columns
            .iter()
            .enumerate()
            .map(|(c, name)| ColumnChunk::from_values(name, rows.iter().map(|r| &r.values()[c])))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ColumnarResult::new(columns, chunks, rows.len()))
    }

    /// The live rows of a table, gathered into owned columns.
    pub fn from_table(table: &Table) -> Self {
        let live: Vec<u32> = (0..table.physical_len())
            .filter(|&p| table.is_live(p))
            .map(|p| p as u32)
            .collect();
        ColumnarResult::new(
            table.schema().names(),
            table.chunks().iter().map(|c| c.gather(&live)).collect(),
            live.len(),
        )
    }

    /// Output column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The typed columns, parallel to [`ColumnarResult::columns`].
    pub fn chunks(&self) -> &[ColumnChunk] {
        &self.chunks
    }

    /// Take the names and chunks apart (to build a table around them).
    pub fn into_parts(self) -> (Vec<String>, Vec<ColumnChunk>) {
        (self.columns, self.chunks)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.chunks.iter().map(|c| c.value_at(i)).collect())
    }

    /// Materialize every row — the one place a columnar result becomes the
    /// client's 2-D vector.
    pub fn into_result_set(self) -> ResultSet {
        let rows = (0..self.rows).map(|i| self.row(i)).collect();
        ResultSet {
            columns: self.columns,
            rows,
        }
    }

    /// Keep only the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n < self.rows {
            let keep: Vec<u32> = (0..n as u32).collect();
            for c in &mut self.chunks {
                *c = c.gather(&keep);
            }
            self.rows = n;
        }
    }

    /// The same approximate serialized size as [`ResultSet::wire_size`]
    /// of the materialized rows, computed from the typed lanes.
    pub fn wire_size(&self) -> usize {
        let header: usize = self.columns.iter().map(|c| c.len() + 4).sum();
        header + self.values_wire_size()
    }

    /// Sum of every value's [`Value::wire_size`].
    pub fn values_wire_size(&self) -> usize {
        self.chunks.iter().map(ColumnChunk::wire_size).sum()
    }
}

/// Equal when the names and every value agree (chunk encodings, such as
/// string dictionaries, may differ).
impl PartialEq for ColumnarResult {
    fn eq(&self, other: &Self) -> bool {
        self.columns == other.columns
            && self.rows == other.rows
            && self.chunks.iter().zip(&other.chunks).all(|(a, b)| {
                a.data_type() == b.data_type()
                    && (0..self.rows).all(|i| a.value_at(i) == b.value_at(i))
            })
    }
}

impl fmt::Display for ResultSet {
    /// Renders an aligned text table — what the JAS-plugin substitute and
    /// the examples print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let grid = self.to_vector();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|c| {
                grid.iter()
                    .map(|r| r.get(c).map_or(0, String::len))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        for (i, row) in grid.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[c])?;
            }
            writeln!(f)?;
            if i == 0 {
                let total: usize =
                    widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
                writeln!(f, "{}", "-".repeat(total))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs() -> ResultSet {
        ResultSet {
            columns: vec!["id".into(), "energy".into()],
            rows: vec![
                Row::new(vec![Value::Int(1), Value::Float(10.5)]),
                Row::new(vec![Value::Int(2), Value::Null]),
            ],
        }
    }

    #[test]
    fn vector_form_has_header_row() {
        let v = rs().to_vector();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], vec!["id", "energy"]);
        assert_eq!(v[2], vec!["2", "NULL"]);
    }

    #[test]
    fn column_access_is_case_insensitive() {
        let r = rs();
        assert_eq!(r.column_index("ENERGY"), Some(1));
        let vals = r.column_values("Id").unwrap();
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2)]);
        assert!(r.column_values("nope").is_none());
    }

    #[test]
    fn append_checks_arity() {
        let mut a = rs();
        let b = rs();
        a.append(b).unwrap();
        assert_eq!(a.len(), 4);
        let bad = ResultSet::empty(vec!["x".into()]);
        assert!(a.append(bad).is_err());
    }

    #[test]
    fn columnar_round_trips_rows_and_matches_wire_size() {
        let want = rs();
        let cols = ColumnarResult::from_rows(want.columns.clone(), want.rows.clone()).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols.wire_size(), want.wire_size());
        assert_eq!(cols.clone().into_result_set(), want);
        let mut head = cols;
        head.truncate(1);
        assert_eq!(head.into_result_set().rows, want.rows[..1].to_vec());
    }

    #[test]
    fn columnar_from_rows_rejects_ragged_and_mixed_rows() {
        let ragged = ColumnarResult::from_rows(
            vec!["a".into(), "b".into()],
            vec![Row::new(vec![Value::Int(1)])],
        );
        assert!(matches!(ragged, Err(SqlError::Storage(_))), "{ragged:?}");
        let mixed = ColumnarResult::from_rows(
            vec!["a".into()],
            vec![
                Row::new(vec![Value::Bool(true)]),
                Row::new(vec![Value::Int(3)]),
            ],
        );
        assert!(matches!(mixed, Err(SqlError::Storage(_))), "{mixed:?}");
    }

    #[test]
    fn display_renders_all_rows() {
        let text = rs().to_string();
        assert!(text.contains("id"));
        assert!(text.contains("10.5"));
        assert!(text.lines().count() >= 4);
    }
}
