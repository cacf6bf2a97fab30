//! Row storage and its derived equality indexes.

use crate::error::{SqlError, SqlResult};
use crate::schema::TableSchema;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// A stored row: one [`Value`] per column, in schema order.
pub type Row = Vec<Value>;

/// A table: a schema, its rows in storage order, and equality indexes over
/// the columns the layer above declared with [`Table::declare_index`].
///
/// Rows live in one vector; a row's *position* in it is its storage order,
/// which is the order `SELECT` without `ORDER BY` returns. An index maps
/// each distinct value of one column to the ascending positions of the rows
/// holding it, so a statement whose `WHERE` pins an indexed column visits
/// only that bucket — in the order the scan would have — and costs
/// O(rows sharing the key), not O(table). Indexes are derived state: they
/// are never logged, checkpointed or shipped, every mutator here keeps them
/// exact (the rows are private for that reason), and the bulk loaders
/// rebuild them. Physically removing rows renumbers every later position
/// and stays O(table).
///
/// All versioning is handled above this layer by `warp-ttdb` through extra
/// columns, exactly as the paper layers continuous versioning over an
/// unmodified PostgreSQL; it declares the row-ID and partition columns,
/// which is what its rewritten queries pin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    rows: Vec<Row>,
    indexes: Vec<ColumnIndex>,
}

/// The equality index of one column: for each distinct value (under
/// `Value`'s `Eq`, so `1`, `1.0` and `TRUE` share a bucket and all NULLs
/// share one), the ascending positions of the rows holding it.
#[derive(Debug, Clone)]
struct ColumnIndex {
    column: usize,
    buckets: HashMap<Value, Vec<usize>>,
}

impl ColumnIndex {
    fn build(column: usize, rows: &[Row]) -> Self {
        let mut index = ColumnIndex {
            column,
            buckets: HashMap::new(),
        };
        for (pos, row) in rows.iter().enumerate() {
            index.insert(&row[column], pos);
        }
        index
    }

    fn insert(&mut self, value: &Value, pos: usize) {
        match self.buckets.get_mut(value) {
            Some(bucket) => {
                let at = bucket.partition_point(|&p| p < pos);
                bucket.insert(at, pos);
            }
            None => {
                self.buckets.insert(value.clone(), vec![pos]);
            }
        }
    }

    fn remove(&mut self, value: &Value, pos: usize) {
        let bucket = self
            .buckets
            .get_mut(value)
            .expect("an indexed row's value has a bucket");
        let at = bucket
            .binary_search(&pos)
            .expect("an indexed row is in its value's bucket");
        bucket.remove(at);
        if bucket.is_empty() {
            self.buckets.remove(value);
        }
    }
}

/// The storage positions a statement has to visit, ascending: one index
/// bucket, or every position when no index applies.
#[derive(Debug)]
pub enum Candidates<'a> {
    /// Every stored row.
    Scan(std::ops::Range<usize>),
    /// The rows of one index bucket.
    Bucket(std::slice::Iter<'a, usize>),
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Candidates::Scan(range) => range.next(),
            Candidates::Bucket(positions) => positions.next().copied(),
        }
    }
}

impl Table {
    /// Creates an empty table with the given schema and no indexes.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// An empty table with this table's schema and declared indexes.
    pub fn empty_like(&self) -> Table {
        Table {
            schema: self.schema.clone(),
            rows: Vec::new(),
            indexes: self
                .indexes
                .iter()
                .map(|ix| ColumnIndex::build(ix.column, &[]))
                .collect(),
        }
    }

    /// Number of rows currently stored.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The stored rows, in storage order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Declares an equality index over `column` and builds it from the rows
    /// already stored. Declaring a column twice is a no-op.
    pub fn declare_index(&mut self, column: &str) -> SqlResult<()> {
        let column = self
            .schema
            .column_index(column)
            .ok_or_else(|| SqlError::NoSuchColumn(column.to_string()))?;
        if !self.indexes.iter().any(|ix| ix.column == column) {
            self.indexes.push(ColumnIndex::build(column, &self.rows));
        }
        Ok(())
    }

    /// The ascending positions of the rows whose `column` equals `value`
    /// (under `Value`'s `Eq`), or `None` if the column is not indexed.
    pub fn index_bucket(&self, column: usize, value: &Value) -> Option<&[usize]> {
        let index = self.indexes.iter().find(|ix| ix.column == column)?;
        Some(index.buckets.get(value).map_or(&[], Vec::as_slice))
    }

    /// The ascending positions of the rows whose `column` equals `value`
    /// under `Value`'s `Eq` (so a NULL `value` finds the NULLs): the
    /// column's bucket, filtered, or a scan when it is not indexed.
    pub fn positions_of<'a>(
        &'a self,
        column: usize,
        value: &'a Value,
    ) -> impl Iterator<Item = usize> + 'a {
        self.candidates([(column, value)])
            .filter(move |&pos| self.rows[pos][column] == *value)
    }

    /// The positions that can hold a row equal to every `(column, value)`
    /// pin: the smallest bucket among the pinned indexed columns, or a full
    /// scan when none is indexed. The caller still checks each candidate.
    pub fn candidates<'v>(
        &self,
        pins: impl IntoIterator<Item = (usize, &'v Value)>,
    ) -> Candidates<'_> {
        let mut best: Option<&[usize]> = None;
        for (column, value) in pins {
            if let Some(bucket) = self.index_bucket(column, value) {
                if best.is_none_or(|b| bucket.len() < b.len()) {
                    best = Some(bucket);
                }
            }
        }
        match best {
            Some(bucket) => Candidates::Bucket(bucket.iter()),
            None => Candidates::Scan(0..self.rows.len()),
        }
    }

    /// Appends a row. The caller must have already normalised it to schema
    /// order and validated constraints.
    pub fn push_row(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.schema.columns.len());
        let pos = self.rows.len();
        for index in &mut self.indexes {
            index.insert(&row[index.column], pos);
        }
        self.rows.push(row);
    }

    /// Overwrites the row at `pos` in place and returns the old image.
    pub(crate) fn replace_row(&mut self, pos: usize, row: Row) -> Row {
        for index in &mut self.indexes {
            let (old, new) = (&self.rows[pos][index.column], &row[index.column]);
            if old != new {
                index.remove(old, pos);
                index.insert(new, pos);
            }
        }
        std::mem::replace(&mut self.rows[pos], row)
    }

    /// Removes the rows at `positions` (ascending, distinct), keeping every
    /// other row in order, and returns them.
    pub(crate) fn remove_positions(&mut self, positions: &[usize]) -> Vec<Row> {
        if positions.is_empty() {
            return Vec::new();
        }
        let mut removed = Vec::with_capacity(positions.len());
        let mut pos = 0;
        self.rows.retain_mut(|row| {
            let hit = positions.get(removed.len()) == Some(&pos);
            pos += 1;
            if hit {
                removed.push(std::mem::take(row));
            }
            !hit
        });
        for index in &mut self.indexes {
            index.buckets.retain(|_, bucket| {
                bucket.retain_mut(|p| match positions.binary_search(p) {
                    Ok(_) => false,
                    Err(removed_below) => {
                        *p -= removed_below;
                        true
                    }
                });
                !bucket.is_empty()
            });
        }
        removed
    }

    /// For each row of `gone`, in order, removes the first stored row equal
    /// to it that an earlier entry has not already claimed; every other row
    /// keeps its order. Returns the entries of `gone` that matched a stored
    /// row.
    pub fn remove_rows<'g>(&mut self, gone: &'g [Row]) -> Vec<&'g Row> {
        let mut claimed = BTreeSet::new();
        let mut matched = Vec::new();
        for row in gone {
            // A row too narrow to pin equals no stored row either way.
            let pins = self
                .indexes
                .iter()
                .filter_map(|ix| Some((ix.column, row.get(ix.column)?)));
            let found = self
                .candidates(pins)
                .find(|pos| self.rows[*pos] == *row && !claimed.contains(pos));
            if let Some(pos) = found {
                claimed.insert(pos);
                matched.push(row);
            }
        }
        let positions: Vec<usize> = claimed.into_iter().collect();
        self.remove_positions(&positions);
        matched
    }

    /// Replaces every stored row (a bulk load: the indexes are rebuilt) and
    /// returns the old rows. As with [`Table::push_row`], the caller has
    /// already checked that the rows have the schema's width.
    pub fn replace_rows(&mut self, rows: Vec<Row>) -> Vec<Row> {
        let old = std::mem::replace(&mut self.rows, rows);
        for index in &mut self.indexes {
            *index = ColumnIndex::build(index.column, &self.rows);
        }
        old
    }

    /// Returns the value of `column` in row `row_idx`, if both exist.
    pub fn cell(&self, row_idx: usize, column: &str) -> Option<&Value> {
        let col = self.schema.column_index(column)?;
        self.rows.get(row_idx).and_then(|r| r.get(col))
    }

    /// Adds a new column to the schema and back-fills every existing row with
    /// the given default value.
    pub fn add_column_with_default(&mut self, default: Value) {
        for row in &mut self.rows {
            row.push(default.clone());
        }
    }

    /// Approximate in-memory size of the table's data in bytes. Used by the
    /// evaluation harness to report storage costs (paper Table 6).
    pub fn approximate_bytes(&self) -> usize {
        let mut total = 0;
        for row in &self.rows {
            for v in row {
                total += match v {
                    Value::Null => 1,
                    Value::Bool(_) => 1,
                    Value::Int(_) => 8,
                    Value::Float(_) => 8,
                    Value::Text(s) => s.len() + 8,
                };
            }
        }
        total
    }

    /// Checks the index invariant: every stored row is in exactly the bucket
    /// of its value in every index, and every bucket is non-empty and
    /// strictly ascending. `Err` describes the first violation.
    pub fn check_indexes(&self) -> Result<(), String> {
        for index in &self.indexes {
            let column = &self.schema.columns[index.column].name;
            let mut entries = 0;
            for (key, bucket) in &index.buckets {
                if bucket.is_empty() {
                    return Err(format!("{column}: empty bucket for {key:?}"));
                }
                if !bucket.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!(
                        "{column}: bucket {key:?} not ascending: {bucket:?}"
                    ));
                }
                for &pos in bucket {
                    let held = self.rows.get(pos).map(|row| &row[index.column]);
                    if held != Some(key) {
                        return Err(format!(
                            "{column}: bucket {key:?} lists position {pos}, holding {held:?}"
                        ));
                    }
                }
                entries += bucket.len();
            }
            // Every entry is a distinct position holding its bucket's key, so
            // equal counts mean no row is missing.
            if entries != self.rows.len() {
                return Err(format!(
                    "{column}: {entries} index entries for {} rows",
                    self.rows.len()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ColumnDef;
    use crate::schema::ColumnType;

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Integer),
                ColumnDef::new("name", ColumnType::Text),
            ],
            vec![],
        )
        .unwrap();
        Table::new(schema)
    }

    fn indexed_table() -> Table {
        let mut t = table();
        for (id, name) in [(1, "a"), (2, "b"), (1, "c"), (3, "a"), (1, "a")] {
            t.push_row(vec![Value::Int(id), Value::text(name)]);
        }
        t.declare_index("id").unwrap();
        t.declare_index("name").unwrap();
        t.check_indexes().unwrap();
        t
    }

    #[test]
    fn push_and_lookup() {
        let mut t = table();
        assert!(t.is_empty());
        t.push_row(vec![Value::Int(1), Value::text("a")]);
        t.push_row(vec![Value::Int(2), Value::text("b")]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(1, "name"), Some(&Value::text("b")));
        assert_eq!(t.cell(1, "missing"), None);
        assert_eq!(t.cell(9, "name"), None);
    }

    #[test]
    fn add_column_backfills() {
        let mut t = table();
        t.push_row(vec![Value::Int(1), Value::text("a")]);
        t.schema
            .add_column(ColumnDef::new("extra", ColumnType::Integer))
            .unwrap();
        t.add_column_with_default(Value::Int(0));
        assert_eq!(t.cell(0, "extra"), Some(&Value::Int(0)));
    }

    #[test]
    fn approximate_bytes_counts_text() {
        let mut t = table();
        t.push_row(vec![Value::Int(1), Value::text("abcd")]);
        assert_eq!(t.approximate_bytes(), 8 + 4 + 8);
    }

    #[test]
    fn declared_index_covers_existing_and_later_rows() {
        let mut t = indexed_table();
        assert_eq!(t.index_bucket(0, &Value::Int(1)), Some(&[0, 2, 4][..]));
        assert_eq!(t.index_bucket(1, &Value::text("a")), Some(&[0, 3, 4][..]));
        assert_eq!(t.index_bucket(0, &Value::Int(9)), Some(&[][..]));
        t.push_row(vec![Value::Int(9), Value::Null]);
        assert_eq!(t.index_bucket(0, &Value::Int(9)), Some(&[5][..]));
        assert_eq!(t.index_bucket(1, &Value::Null), Some(&[5][..]));
        // Numerically equal keys share a bucket.
        assert_eq!(t.index_bucket(0, &Value::Float(1.0)), Some(&[0, 2, 4][..]));
        t.check_indexes().unwrap();
        assert!(t.declare_index("nope").is_err());
        assert!(table().index_bucket(0, &Value::Int(1)).is_none());
    }

    #[test]
    fn candidates_pick_the_smallest_pinned_bucket() {
        let t = indexed_table();
        let (one, b) = (Value::Int(1), Value::text("b"));
        assert_eq!(t.candidates([(0, &one)]).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(
            t.candidates([(0, &one), (1, &b)]).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(t.candidates([]).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(table().candidates([(0, &one)]).count(), 0);
    }

    #[test]
    fn replace_row_moves_the_row_between_buckets() {
        let mut t = indexed_table();
        let old = t.replace_row(2, vec![Value::Int(2), Value::text("c")]);
        assert_eq!(old, vec![Value::Int(1), Value::text("c")]);
        assert_eq!(t.index_bucket(0, &Value::Int(1)), Some(&[0, 4][..]));
        assert_eq!(t.index_bucket(0, &Value::Int(2)), Some(&[1, 2][..]));
        t.check_indexes().unwrap();
    }

    #[test]
    fn remove_positions_renumbers_later_rows() {
        let mut t = indexed_table();
        let removed = t.remove_positions(&[1, 2]);
        assert_eq!(removed[0], vec![Value::Int(2), Value::text("b")]);
        assert_eq!(removed[1], vec![Value::Int(1), Value::text("c")]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.index_bucket(0, &Value::Int(1)), Some(&[0, 2][..]));
        assert_eq!(t.index_bucket(0, &Value::Int(2)), Some(&[][..]));
        assert_eq!(t.index_bucket(1, &Value::text("a")), Some(&[0, 1, 2][..]));
        t.check_indexes().unwrap();
    }

    #[test]
    fn remove_rows_takes_first_unclaimed_match_per_entry() {
        let mut t = indexed_table();
        let dup = vec![Value::Int(1), Value::text("a")];
        let phantom = vec![Value::Int(7), Value::text("z")];
        let gone = [dup.clone(), phantom, dup.clone(), dup.clone()];
        let matched = t.remove_rows(&gone);
        // Two stored copies of `dup`: the third request matches nothing.
        assert_eq!(matched, vec![&dup, &dup]);
        assert_eq!(
            t.rows(),
            &[
                vec![Value::Int(2), Value::text("b")],
                vec![Value::Int(1), Value::text("c")],
                vec![Value::Int(3), Value::text("a")],
            ]
        );
        t.check_indexes().unwrap();
    }

    #[test]
    fn replace_rows_and_empty_like_keep_the_declared_indexes() {
        let mut t = indexed_table();
        let old = t.replace_rows(vec![vec![Value::Int(5), Value::text("x")]]);
        assert_eq!(old.len(), 5);
        assert_eq!(t.index_bucket(0, &Value::Int(5)), Some(&[0][..]));
        assert_eq!(t.index_bucket(0, &Value::Int(1)), Some(&[][..]));
        t.check_indexes().unwrap();
        let mut e = t.empty_like();
        assert!(e.is_empty());
        e.push_row(vec![Value::Int(5), Value::text("x")]);
        assert_eq!(e.index_bucket(1, &Value::text("x")), Some(&[0][..]));
    }

    #[test]
    fn check_indexes_reports_a_stale_index() {
        let mut t = indexed_table();
        t.rows[0][0] = Value::Int(42);
        assert!(t.check_indexes().is_err());
    }
}
