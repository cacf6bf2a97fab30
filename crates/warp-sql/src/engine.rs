//! Statement execution.

use crate::ast::{AggregateFunc, Expr, SelectItem, SelectStatement, Statement};
use crate::error::{SqlError, SqlResult};
use crate::expr::{eval_expr_with, Bound};
use crate::parser::parse;
use crate::schema::TableSchema;
use crate::storage::{Candidates, Row, Table};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The result of executing a statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct QueryResult {
    /// Column names for `SELECT` results (empty for writes).
    pub columns: Vec<String>,
    /// Result rows for `SELECT` (empty for writes).
    pub rows: Vec<Row>,
    /// Number of rows inserted, updated or deleted.
    pub affected: u64,
    /// True if the query imposed a row order (`ORDER BY`): the order of
    /// `rows` is then part of the result's meaning, not a storage artifact.
    pub ordered: bool,
}

impl QueryResult {
    /// A result with no rows and no affected count.
    pub fn empty() -> Self {
        QueryResult::default()
    }

    /// Returns the single value of a single-row, single-column result.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Returns the values in the named column across all result rows.
    pub fn column_values(&self, name: &str) -> Vec<Value> {
        match self
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
        {
            Some(idx) => self
                .rows
                .iter()
                .filter_map(|r| r.get(idx).cloned())
                .collect(),
            None => Vec::new(),
        }
    }

    /// A fingerprint of the result that is stable across executions; the
    /// repair controller compares fingerprints to decide whether a re-executed
    /// query "returned the same result" (paper §3.3, §4).
    ///
    /// Row *order* contributes only when the query imposed one (`ordered`,
    /// i.e. `ORDER BY`). Otherwise rows are combined commutatively, so two
    /// results holding the same multiset of rows fingerprint identically:
    /// without `ORDER BY`, row order is an artifact of physical storage —
    /// version churn during repair may permute otherwise-identical results,
    /// and treating that as a changed result would cascade into spurious
    /// re-execution.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.columns.hash(&mut h);
        if self.ordered {
            for row in &self.rows {
                for v in row {
                    v.fingerprint_into(&mut h);
                }
                0xfeu8.hash(&mut h);
            }
        } else {
            // Commutative combine (wrapping add) over per-row hashes.
            let mut rows_digest = 0u64;
            for row in &self.rows {
                let mut rh = DefaultHasher::new();
                for v in row {
                    v.fingerprint_into(&mut rh);
                }
                rows_digest = rows_digest.wrapping_add(rh.finish());
            }
            rows_digest.hash(&mut h);
        }
        (self.rows.len() as u64).hash(&mut h);
        self.affected.hash(&mut h);
        h.finish()
    }
}

/// Exact row images removed from and added to one table while change
/// capture is active (see [`Database::begin_change_capture`]). Both sides
/// are multisets in capture order; consumers net them per row value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableChanges {
    /// Row images removed (by `DELETE`, or the pre-image of an `UPDATE`).
    pub removed: Vec<Row>,
    /// Row images added (by `INSERT`, or the post-image of an `UPDATE`).
    pub added: Vec<Row>,
}

impl TableChanges {
    /// True if neither side recorded anything.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// An in-memory SQL database: a set of named tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Row-image change capture, keyed by normalized table name. `None`
    /// means capture is off (the normal-execution state): mutating
    /// statements then pay only a branch. When on, every mutation appends
    /// the exact rows it removed/added — the mutation paths materialise
    /// those rows anyway, so capture cost is O(rows changed), never
    /// O(table). The time-travel layer turns this on for the span of a
    /// repair generation to build mutation-tracked repair commits.
    capture: Option<BTreeMap<String, TableChanges>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database {
            tables: BTreeMap::new(),
            capture: None,
        }
    }

    /// Starts capturing row-image changes. Idempotent: if capture is
    /// already active the existing capture continues (callers that share a
    /// database across repair passes rely on accumulation); use
    /// [`Database::take_change_capture`] or
    /// [`Database::discard_change_capture`] to end it.
    pub fn begin_change_capture(&mut self) {
        if self.capture.is_none() {
            self.capture = Some(BTreeMap::new());
        }
    }

    /// Ends change capture and returns everything recorded since it began
    /// (empty if capture was never started).
    pub fn take_change_capture(&mut self) -> BTreeMap<String, TableChanges> {
        self.capture.take().unwrap_or_default()
    }

    /// Ends change capture, dropping whatever was recorded.
    pub fn discard_change_capture(&mut self) {
        self.capture = None;
    }

    /// True if change capture is currently recording.
    pub fn change_capture_active(&self) -> bool {
        self.capture.is_some()
    }

    /// Records an out-of-band change for layered callers that mutate rows
    /// directly through [`Database::table_mut`] (the time-travel layer's
    /// diff application and checkpoint restore). No-op when capture is off.
    pub fn record_change(&mut self, table: &str, removed: &[Row], added: &[Row]) {
        if let Some(entry) = capture_entry(&mut self.capture, table, removed.len() + added.len()) {
            entry.removed.extend(removed.iter().cloned());
            entry.added.extend(added.iter().cloned());
        }
    }

    /// Returns the names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Returns the schema of the named table, if it exists.
    pub fn schema(&self, table: &str) -> Option<&TableSchema> {
        self.tables.get(&*table_key(table)).map(|t| &t.schema)
    }

    /// Returns a reference to the named table, if it exists.
    pub fn table(&self, table: &str) -> Option<&Table> {
        self.tables.get(&*table_key(table))
    }

    /// Returns a mutable reference to the named table, if it exists.
    ///
    /// This is used by the time-travel layer for schema surgery (extending
    /// uniqueness constraints with versioning columns, declaring indexes)
    /// and its bulk row loaders; ordinary data access goes through
    /// [`Database::execute`].
    pub fn table_mut(&mut self, table: &str) -> Option<&mut Table> {
        self.tables.get_mut(&*table_key(table))
    }

    /// Total approximate size of all stored data, in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.tables.values().map(|t| t.approximate_bytes()).sum()
    }

    /// Clones the database, copying row data only for the tables `keep_rows`
    /// accepts; every other table keeps its schema but starts empty. The
    /// partitioned repair engine uses this to give worker batches
    /// bounded-memory clones covering just their dependency footprint.
    pub fn clone_schema_subset(&self, mut keep_rows: impl FnMut(&str) -> bool) -> Database {
        let tables = self
            .tables
            .iter()
            .map(|(name, table)| {
                let copy = if keep_rows(name) {
                    table.clone()
                } else {
                    table.empty_like()
                };
                (name.clone(), copy)
            })
            .collect();
        Database {
            tables,
            capture: None,
        }
    }

    /// Appends `row` (already in schema order and width) to `table` as a
    /// one-row `INSERT` would: the same NOT NULL and uniqueness checks, and
    /// the same change capture.
    pub fn insert_row(&mut self, table: &str, row: Row) -> SqlResult<()> {
        let t = table_of(&mut self.tables, table)?;
        check_not_null(&t.schema, &row, table)?;
        append_rows(t, &mut self.capture, table, vec![row]).map(drop)
    }

    /// Overwrites the rows at the `staged` positions (ascending, distinct)
    /// with their new images as an `UPDATE` matching exactly those rows
    /// would: every image is checked for NOT NULL and uniqueness against
    /// the table as it will be before anything changes, and the swap is
    /// captured. Returns how many rows changed.
    pub fn replace_rows_at(&mut self, table: &str, staged: Vec<(usize, Row)>) -> SqlResult<u64> {
        self.check_rows_at(table, &staged, &[])?;
        let t = table_of(&mut self.tables, table)?;
        Ok(swap_staged(t, &mut self.capture, table, staged))
    }

    /// Checks what [`Database::replace_rows_at`] would check of the `staged`
    /// images — NOT NULL, and uniqueness against the table as it will be —
    /// once the rows at `removed` (ascending, distinct, none of them staged)
    /// are gone as well, and changes nothing. A caller that must rewrite
    /// several tables all or nothing checks each before it mutates any.
    pub fn check_rows_at(
        &self,
        table: &str,
        staged: &[(usize, Row)],
        removed: &[usize],
    ) -> SqlResult<()> {
        let t = self
            .table(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
        for (_, row) in staged {
            check_not_null(&t.schema, row, table)?;
        }
        check_staged_unique(t, staged, removed)
    }

    /// The ascending positions of the rows of `table` that `where_clause`
    /// (every row without one), with `params` filling its holes, holds for:
    /// the loop `SELECT`, `UPDATE` and `DELETE` find their rows with, for a
    /// caller that rewrites what it finds by position. A predicate that
    /// fails on a row is the error.
    pub fn positions_matching(
        &self,
        table: &str,
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> SqlResult<Vec<usize>> {
        let t = self
            .table(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
        let predicate = where_clause.map(|w| Bound::bind(w, &t.schema, params));
        let mut positions = Vec::new();
        matching_positions(t, predicate.as_ref(), |pos| positions.push(pos))?;
        Ok(positions)
    }

    /// Removes the rows at `positions` (ascending, distinct) as a `DELETE`
    /// matching exactly those rows would: every other row keeps its order,
    /// and the removal is captured. Returns how many rows went.
    pub fn remove_rows_at(&mut self, table: &str, positions: &[usize]) -> SqlResult<u64> {
        let t = table_of(&mut self.tables, table)?;
        Ok(remove_captured(t, &mut self.capture, table, positions))
    }

    /// Parses and executes a single SQL statement.
    pub fn execute_sql(&mut self, sql: &str) -> SqlResult<QueryResult> {
        let stmt = parse(sql)?;
        self.execute(&stmt)
    }

    /// Executes an already-parsed statement.
    pub fn execute(&mut self, stmt: &Statement) -> SqlResult<QueryResult> {
        self.execute_with(stmt, &[])
    }

    /// Executes a statement template ([`crate::parse_template`]) with
    /// `params` filling its holes. The parameters are read by reference; the
    /// statement is neither copied nor changed.
    pub fn execute_with(&mut self, stmt: &Statement, params: &[Value]) -> SqlResult<QueryResult> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                constraints,
            } => self.create_table(name, columns.clone(), constraints.clone()),
            Statement::DropTable { name } => {
                if self.tables.remove(&*table_key(name)).is_none() {
                    return Err(SqlError::NoSuchTable(name.clone()));
                }
                Ok(QueryResult::empty())
            }
            Statement::AlterTableAddColumn { table, column } => {
                let t = self
                    .tables
                    .get_mut(&*table_key(table))
                    .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
                let default = column.default.clone().unwrap_or(Value::Null);
                t.schema.add_column(column.clone())?;
                t.add_column_with_default(default);
                Ok(QueryResult::empty())
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => self.insert(table, columns, values, params),
            Statement::Select(select) => self.select(select, params),
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => self.update(table, assignments, where_clause.as_ref(), params),
            Statement::Delete {
                table,
                where_clause,
            } => self.delete(table, where_clause.as_ref(), params),
        }
    }

    fn create_table(
        &mut self,
        name: &str,
        columns: Vec<crate::ast::ColumnDef>,
        constraints: Vec<crate::ast::TableConstraint>,
    ) -> SqlResult<QueryResult> {
        let key = table_key(name).into_owned();
        if self.tables.contains_key(&key) {
            return Err(SqlError::TableExists(name.to_string()));
        }
        let schema = TableSchema::new(name, columns, constraints)?;
        self.tables.insert(key, Table::new(schema));
        Ok(QueryResult::empty())
    }

    fn insert(
        &mut self,
        table: &str,
        columns: &[String],
        values: &[Vec<Expr>],
        params: &[Value],
    ) -> SqlResult<QueryResult> {
        let t = table_of(&mut self.tables, table)?;
        let new_rows = insert_rows(t, table, columns, values, params)?;
        let affected = append_rows(t, &mut self.capture, table, new_rows)?;
        Ok(QueryResult {
            columns: vec![],
            rows: vec![],
            affected,
            ordered: false,
        })
    }

    /// The rows the `INSERT` statement template `stmt` would append, with
    /// `params` filling its holes: evaluated and NOT NULL-checked as the
    /// statement evaluates them, but neither checked for uniqueness nor
    /// appended.
    pub fn insert_images(&self, stmt: &Statement, params: &[Value]) -> SqlResult<Vec<Row>> {
        let Statement::Insert {
            table,
            columns,
            values,
        } = stmt
        else {
            return Err(SqlError::Execution(format!(
                "insert_images expects INSERT, got {stmt}"
            )));
        };
        let t = self
            .table(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.clone()))?;
        insert_rows(t, table, columns, values, params)
    }

    fn select(&mut self, select: &SelectStatement, params: &[Value]) -> SqlResult<QueryResult> {
        let t = self
            .tables
            .get(&*table_key(&select.table))
            .ok_or_else(|| SqlError::NoSuchTable(select.table.clone()))?;
        let schema = &t.schema;
        // Filter.
        let predicate = select
            .where_clause
            .as_ref()
            .map(|w| Bound::bind(w, schema, params));
        let mut matching: Vec<&Row> = Vec::new();
        matching_positions(t, predicate.as_ref(), |pos| matching.push(&t.rows()[pos]))?;
        // Sort.
        if !select.order_by.is_empty() {
            let order_by: Vec<Bound> = select
                .order_by
                .iter()
                .map(|ob| Bound::bind(&ob.expr, schema, params))
                .collect();
            let mut keyed: Vec<(Vec<Value>, &Row)> = Vec::with_capacity(matching.len());
            for row in matching {
                let mut k = Vec::with_capacity(order_by.len());
                for ob in &order_by {
                    k.push(ob.eval(row)?.into_owned());
                }
                keyed.push((k, row));
            }
            keyed.sort_by(|a, b| {
                for (i, ob) in select.order_by.iter().enumerate() {
                    let ord = a.0[i].cmp_total(&b.0[i]);
                    let ord = if ob.ascending { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            matching = keyed.into_iter().map(|(_, r)| r).collect();
        }
        // Limit.
        if let Some(limit) = select.limit {
            matching.truncate(limit as usize);
        }
        // Project. `None` is the wildcard.
        let has_aggregate = select
            .items
            .iter()
            .any(|item| matches!(item, SelectItem::Expr { expr, .. } if contains_aggregate(expr)));
        let mut columns = Vec::new();
        let mut items: Vec<Option<Bound>> = Vec::with_capacity(select.items.len());
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    columns.extend(schema.column_names());
                    items.push(None);
                }
                SelectItem::Expr { expr, alias } => {
                    columns.push(
                        alias
                            .clone()
                            .unwrap_or_else(|| expr.display(params).to_string()),
                    );
                    items.push(Some(Bound::bind(expr, schema, params)));
                }
            }
        }
        let mut rows = Vec::new();
        if has_aggregate {
            let mut out_row = Vec::new();
            for item in &items {
                match item {
                    None => return Err(SqlError::Execution("cannot mix * with aggregates".into())),
                    Some(expr) => out_row.push(eval_aggregate(expr, &matching)?),
                }
            }
            rows.push(out_row);
        } else {
            for row in &matching {
                let mut out_row = Vec::new();
                for item in &items {
                    match item {
                        None => out_row.extend(row.iter().cloned()),
                        Some(expr) => out_row.push(expr.eval(row)?.into_owned()),
                    }
                }
                rows.push(out_row);
            }
        }
        Ok(QueryResult {
            columns,
            rows,
            affected: 0,
            ordered: !select.order_by.is_empty(),
        })
    }

    fn update(
        &mut self,
        table: &str,
        assignments: &[crate::ast::Assignment],
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> SqlResult<QueryResult> {
        let t = table_of(&mut self.tables, table)?;
        let schema = &t.schema;
        let mut bound_assignments = Vec::with_capacity(assignments.len());
        for a in assignments {
            let idx = schema
                .column_index(&a.column)
                .ok_or_else(|| SqlError::NoSuchColumn(a.column.clone()))?;
            bound_assignments.push((idx, Bound::bind(&a.value, schema, params)));
        }
        // Stage the new images of the touched rows (ascending positions)
        // first, so constraint failures leave the table untouched.
        let predicate = where_clause.map(|w| Bound::bind(w, schema, params));
        let mut positions = Vec::new();
        matching_positions(t, predicate.as_ref(), |pos| positions.push(pos))?;
        let mut staged: Vec<(usize, Row)> = Vec::with_capacity(positions.len());
        for pos in positions {
            let row = &t.rows()[pos];
            let mut updated = row.clone();
            for (idx, value) in &bound_assignments {
                updated[*idx] = value.eval(row)?.into_owned();
            }
            check_not_null(schema, &updated, table)?;
            staged.push((pos, updated));
        }
        check_staged_unique(t, &staged, &[])?;
        let affected = swap_staged(t, &mut self.capture, table, staged);
        Ok(QueryResult {
            columns: vec![],
            rows: vec![],
            affected,
            ordered: false,
        })
    }

    fn delete(
        &mut self,
        table: &str,
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> SqlResult<QueryResult> {
        let t = table_of(&mut self.tables, table)?;
        let predicate = where_clause.map(|w| Bound::bind(w, &t.schema, params));
        let mut doomed = Vec::new();
        let found = matching_positions(t, predicate.as_ref(), |pos| doomed.push(pos));
        // Rows that matched before the predicate failed are dropped all the
        // same, and capture must reflect what actually happened.
        let affected = remove_captured(t, &mut self.capture, table, &doomed);
        found?;
        Ok(QueryResult {
            columns: vec![],
            rows: vec![],
            affected,
            ordered: false,
        })
    }
}

/// The key a table is stored under: its name in lower case, copied only if
/// it is not already.
pub fn table_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// The capture slot of `table`, if change capture is on and the statement
/// changed any row (an untouched table never gets a slot).
fn capture_entry<'c>(
    capture: &'c mut Option<BTreeMap<String, TableChanges>>,
    table: &str,
    rows_changed: usize,
) -> Option<&'c mut TableChanges> {
    capture
        .as_mut()
        .filter(|_| rows_changed > 0)
        .map(|c| c.entry(table_key(table).into_owned()).or_default())
}

fn table_of<'t>(tables: &'t mut BTreeMap<String, Table>, table: &str) -> SqlResult<&'t mut Table> {
    tables
        .get_mut(&*table_key(table))
        .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))
}

/// The rows an `INSERT` of `values` into `columns` appends to `t`: value
/// expressions are evaluated against an empty row (they may not reference
/// columns), unnamed columns take their defaults, and every row is
/// NOT NULL-checked.
fn insert_rows(
    t: &Table,
    table: &str,
    columns: &[String],
    values: &[Vec<Expr>],
    params: &[Value],
) -> SqlResult<Vec<Row>> {
    let schema = &t.schema;
    let mut col_indexes = Vec::with_capacity(columns.len());
    for c in columns {
        let idx = schema
            .column_index(c)
            .ok_or_else(|| SqlError::NoSuchColumn(c.to_string()))?;
        col_indexes.push(idx);
    }
    let empty_row: Row = vec![Value::Null; schema.columns.len()];
    let mut new_rows = Vec::with_capacity(values.len());
    for value_exprs in values {
        let mut row: Row = schema
            .columns
            .iter()
            .map(|c| c.default.clone().unwrap_or(Value::Null))
            .collect();
        for (expr, &idx) in value_exprs.iter().zip(&col_indexes) {
            row[idx] = eval_expr_with(expr, schema, &empty_row, params)?;
        }
        check_not_null(schema, &row, table)?;
        new_rows.push(row);
    }
    Ok(new_rows)
}

/// Appends `new_rows` (evaluated and NOT NULL-checked) once each is known
/// not to collide with a stored row or an earlier row of the batch.
fn append_rows(
    t: &mut Table,
    capture: &mut Option<BTreeMap<String, TableChanges>>,
    table: &str,
    new_rows: Vec<Row>,
) -> SqlResult<u64> {
    let constraints = unique_constraint_columns(&t.schema);
    for (i, row) in new_rows.iter().enumerate() {
        check_unique(t, &constraints, row, None, &[], &[])?;
        for earlier in &new_rows[..i] {
            check_rows_distinct(&constraints, earlier, row, table)?;
        }
    }
    if let Some(entry) = capture_entry(capture, table, new_rows.len()) {
        entry.added.extend(new_rows.iter().cloned());
    }
    let n = new_rows.len() as u64;
    for row in new_rows {
        t.push_row(row);
    }
    Ok(n)
}

/// Checks every `staged` new image (ascending positions) for uniqueness
/// against the table as it will be once they replace their rows and the
/// rows at `removed` are gone.
fn check_staged_unique(t: &Table, staged: &[(usize, Row)], removed: &[usize]) -> SqlResult<()> {
    let constraints = unique_constraint_columns(&t.schema);
    for (pos, updated) in staged {
        check_unique(t, &constraints, updated, Some(*pos), staged, removed)?;
    }
    Ok(())
}

/// Swaps the `staged` new images (ascending positions, already checked) in
/// place and captures the swap.
fn swap_staged(
    t: &mut Table,
    capture: &mut Option<BTreeMap<String, TableChanges>>,
    table: &str,
    staged: Vec<(usize, Row)>,
) -> u64 {
    let affected = staged.len() as u64;
    let mut capture = capture_entry(capture, table, staged.len());
    if let Some(entry) = &mut capture {
        entry
            .added
            .extend(staged.iter().map(|(_, row)| row.clone()));
    }
    for (pos, updated) in staged {
        let old = t.replace_row(pos, updated);
        if let Some(entry) = &mut capture {
            entry.removed.push(old);
        }
    }
    affected
}

/// Removes the rows at `positions` (ascending, distinct) and captures them.
fn remove_captured(
    t: &mut Table,
    capture: &mut Option<BTreeMap<String, TableChanges>>,
    table: &str,
    positions: &[usize],
) -> u64 {
    let removed = t.remove_positions(positions);
    let affected = removed.len() as u64;
    if let Some(entry) = capture_entry(capture, table, removed.len()) {
        entry.removed.extend(removed);
    }
    affected
}

/// Passes to `found` the ascending positions of the rows `predicate` holds
/// for, visiting the statement's [access path](access_path); stops at the
/// first row the predicate fails on, with what matched before it passed.
fn matching_positions(
    t: &Table,
    predicate: Option<&Bound>,
    mut found: impl FnMut(usize),
) -> SqlResult<()> {
    for pos in access_path(t, predicate) {
        let holds = match predicate {
            None => true,
            Some(p) => p.eval(&t.rows()[pos])?.is_truthy(),
        };
        if holds {
            found(pos);
        }
    }
    Ok(())
}

/// Chooses the storage positions a statement visits, in ascending order.
///
/// Every conjunct of the `WHERE` AND-chain that pins an indexed column to a
/// non-NULL literal names a bucket holding every row that can match; the
/// smallest such bucket is visited. Without one — no `WHERE`, `OR`, `LIKE`,
/// a comparison with NULL, an unindexed column — or when the predicate
/// could fail on a row it would skip, every position is visited. Either
/// way the caller evaluates the whole predicate on each candidate, so the
/// matching rows and their order do not depend on the path taken.
fn access_path<'t>(t: &'t Table, predicate: Option<&Bound>) -> Candidates<'t> {
    let mut pins = Vec::new();
    if let Some(p) = predicate.filter(|p| p.cannot_fail()) {
        p.each_required_equality(&mut |idx, value| {
            if !value.is_null() {
                pins.push((idx, value));
            }
        });
    }
    t.candidates(pins)
}

fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Aggregate { .. } => true,
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Unary { operand, .. } => contains_aggregate(operand),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        _ => false,
    }
}

fn eval_aggregate(expr: &Bound, rows: &[&Row]) -> SqlResult<Value> {
    match expr {
        Bound::Aggregate { func, arg } => match func {
            AggregateFunc::Count => match arg {
                None => Ok(Value::Int(rows.len() as i64)),
                Some(a) => {
                    let mut n = 0;
                    for row in rows {
                        if !a.eval(row)?.is_null() {
                            n += 1;
                        }
                    }
                    Ok(Value::Int(n))
                }
            },
            AggregateFunc::Max | AggregateFunc::Min => {
                let a = arg
                    .as_ref()
                    .ok_or_else(|| SqlError::Execution("MAX/MIN require an argument".into()))?;
                let wanted = if *func == AggregateFunc::Max {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Less
                };
                let mut best: Option<std::borrow::Cow<Value>> = None;
                for row in rows {
                    let v = a.eval(row)?;
                    if v.is_null() {
                        continue;
                    }
                    if best.as_ref().is_none_or(|b| v.cmp_total(b) == wanted) {
                        best = Some(v);
                    }
                }
                Ok(best.map_or(Value::Null, |b| b.into_owned()))
            }
            AggregateFunc::Sum => {
                let a = arg
                    .as_ref()
                    .ok_or_else(|| SqlError::Execution("SUM requires an argument".into()))?;
                let mut int_sum: i64 = 0;
                let mut float_sum: f64 = 0.0;
                let mut any = false;
                let mut is_float = false;
                for row in rows {
                    match &*a.eval(row)? {
                        Value::Null => {}
                        Value::Float(f) => {
                            is_float = true;
                            float_sum += f;
                            any = true;
                        }
                        other => {
                            let i = other.as_int().ok_or_else(|| {
                                SqlError::Type("SUM over non-numeric value".into())
                            })?;
                            int_sum += i;
                            any = true;
                        }
                    }
                }
                if !any {
                    Ok(Value::Null)
                } else if is_float {
                    Ok(Value::Float(float_sum + int_sum as f64))
                } else {
                    Ok(Value::Int(int_sum))
                }
            }
        },
        // Non-aggregate expressions inside an aggregate query are evaluated
        // against the first matching row (this mirrors the lax behaviour web
        // applications rely on in MySQL/SQLite).
        other => match rows.first() {
            Some(row) => Ok(other.eval(row)?.into_owned()),
            None => Ok(Value::Null),
        },
    }
}

fn check_not_null(schema: &TableSchema, row: &Row, table: &str) -> SqlResult<()> {
    for (col, value) in schema.columns.iter().zip(row) {
        if col.is_not_null() && value.is_null() {
            return Err(SqlError::NotNullViolation {
                table: table.to_string(),
                column: col.name.clone(),
            });
        }
    }
    Ok(())
}

/// The schema's uniqueness constraints with their columns resolved to row
/// positions, once per statement (a constraint naming an unknown column is
/// skipped).
fn unique_constraint_columns(schema: &TableSchema) -> Vec<(&Vec<String>, Vec<usize>)> {
    schema
        .unique_constraints
        .iter()
        .filter_map(|uc| {
            let idxs: Vec<usize> = uc.iter().filter_map(|c| schema.column_index(c)).collect();
            (idxs.len() == uc.len()).then_some((uc, idxs))
        })
        .collect()
}

fn rows_collide(idxs: &[usize], a: &Row, b: &Row) -> bool {
    idxs.iter().all(|&i| a[i].sql_eq(&b[i]) == Some(true))
}

/// Checks `candidate` against the table's contents as they will be once the
/// `staged` new images (ascending positions) replace their rows and the rows
/// at `removed` (ascending) are gone; the row at `skip` is the candidate's
/// own. A constraint holding an indexed column only looks at the rows
/// sharing the candidate's value there.
fn check_unique(
    t: &Table,
    constraints: &[(&Vec<String>, Vec<usize>)],
    candidate: &Row,
    skip: Option<usize>,
    staged: &[(usize, Row)],
    removed: &[usize],
) -> SqlResult<()> {
    for (uc, idxs) in constraints {
        // NULL in any constrained column exempts the row (SQL semantics).
        if idxs.iter().any(|&i| candidate[i].is_null()) {
            continue;
        }
        let is_staged = |pos: usize| staged.binary_search_by_key(&pos, |s| s.0).is_ok();
        let collides = t
            .candidates(idxs.iter().map(|&i| (i, &candidate[i])))
            .filter(|&pos| {
                Some(pos) != skip && !is_staged(pos) && removed.binary_search(&pos).is_err()
            })
            .any(|pos| rows_collide(idxs, &t.rows()[pos], candidate))
            || staged
                .iter()
                .any(|(pos, row)| Some(*pos) != skip && rows_collide(idxs, row, candidate));
        if collides {
            return Err(SqlError::UniqueViolation {
                table: t.schema.name.clone(),
                columns: (*uc).clone(),
            });
        }
    }
    Ok(())
}

fn check_rows_distinct(
    constraints: &[(&Vec<String>, Vec<usize>)],
    a: &Row,
    b: &Row,
    table: &str,
) -> SqlResult<()> {
    for (uc, idxs) in constraints {
        if idxs.iter().any(|&i| a[i].is_null() || b[i].is_null()) {
            continue;
        }
        if rows_collide(idxs, a, b) {
            return Err(SqlError::UniqueViolation {
                table: table.to_string(),
                columns: (*uc).clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiki_db() -> Database {
        let mut db = Database::new();
        db.execute_sql(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT NOT NULL UNIQUE, \
             owner TEXT, views INTEGER DEFAULT 0, body TEXT)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO page (page_id, title, owner, body) VALUES \
             (1, 'Main', 'alice', 'welcome'), (2, 'Help', 'bob', 'help text'), \
             (3, 'Sandbox', 'alice', 'scratch')",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_wildcard_and_projection() {
        let mut db = wiki_db();
        let r = db
            .execute_sql("SELECT * FROM page WHERE owner = 'alice' ORDER BY page_id")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.columns.len(), 5);
        let r = db
            .execute_sql("SELECT title FROM page WHERE page_id = 2")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::text("Help")));
    }

    #[test]
    fn select_order_by_desc_and_limit() {
        let mut db = wiki_db();
        let r = db
            .execute_sql("SELECT title FROM page ORDER BY title DESC LIMIT 2")
            .unwrap();
        let titles = r.column_values("title");
        assert_eq!(titles, vec![Value::text("Sandbox"), Value::text("Main")]);
    }

    #[test]
    fn default_values_applied_on_insert() {
        let mut db = wiki_db();
        let r = db
            .execute_sql("SELECT views FROM page WHERE page_id = 1")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn aggregates() {
        let mut db = wiki_db();
        let r = db
            .execute_sql("SELECT COUNT(*), MAX(page_id), MIN(page_id), SUM(page_id) FROM page")
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::Int(3), Value::Int(3), Value::Int(1), Value::Int(6)]
        );
        let r = db
            .execute_sql("SELECT COUNT(*) FROM page WHERE owner = 'zoe'")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = db
            .execute_sql("SELECT MAX(page_id) FROM page WHERE owner = 'zoe'")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Null));
    }

    #[test]
    fn update_with_expression_and_where() {
        let mut db = wiki_db();
        let r = db
            .execute_sql("UPDATE page SET views = views + 10 WHERE owner = 'alice'")
            .unwrap();
        assert_eq!(r.affected, 2);
        let r = db.execute_sql("SELECT SUM(views) FROM page").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(20)));
    }

    #[test]
    fn delete_with_where() {
        let mut db = wiki_db();
        let r = db
            .execute_sql("DELETE FROM page WHERE owner = 'bob'")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = db.execute_sql("SELECT COUNT(*) FROM page").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn unique_violation_on_insert() {
        let mut db = wiki_db();
        let err = db
            .execute_sql("INSERT INTO page (page_id, title) VALUES (9, 'Main')")
            .unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }));
        // Primary-key duplication is also rejected.
        let err = db
            .execute_sql("INSERT INTO page (page_id, title) VALUES (1, 'Other')")
            .unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }));
    }

    #[test]
    fn unique_violation_on_update_leaves_table_unchanged() {
        let mut db = wiki_db();
        let err = db
            .execute_sql("UPDATE page SET title = 'Main' WHERE page_id = 2")
            .unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }));
        let r = db
            .execute_sql("SELECT title FROM page WHERE page_id = 2")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::text("Help")));
    }

    /// Uniqueness is judged on the table as the whole statement leaves it:
    /// a row may take a key another touched row vacates, and two touched
    /// rows may not end on the same key.
    #[test]
    fn update_uniqueness_sees_the_other_rows_new_images() {
        let mut db = wiki_db();
        let r = db.execute_sql("UPDATE page SET page_id = page_id + 1");
        assert_eq!(r.unwrap().affected, 3);
        let r = db.execute_sql("SELECT page_id FROM page").unwrap();
        assert_eq!(
            r.column_values("page_id"),
            vec![Value::Int(2), Value::Int(3), Value::Int(4)]
        );
        let err = db
            .execute_sql("UPDATE page SET title = 'Same' WHERE owner = 'alice'")
            .unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }));
        let r = db.execute_sql("SELECT COUNT(*) FROM page WHERE title = 'Same'");
        assert_eq!(r.unwrap().scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn unique_violation_within_insert_batch() {
        let mut db = wiki_db();
        let err = db
            .execute_sql("INSERT INTO page (page_id, title) VALUES (10, 'X'), (11, 'X')")
            .unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }));
        let r = db.execute_sql("SELECT COUNT(*) FROM page").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn not_null_violation() {
        let mut db = wiki_db();
        let err = db
            .execute_sql("INSERT INTO page (page_id, title) VALUES (5, NULL)")
            .unwrap_err();
        assert!(matches!(err, SqlError::NotNullViolation { .. }));
    }

    #[test]
    fn missing_table_and_column_errors() {
        let mut db = wiki_db();
        assert!(matches!(
            db.execute_sql("SELECT * FROM nope"),
            Err(SqlError::NoSuchTable(_))
        ));
        assert!(matches!(
            db.execute_sql("SELECT nope FROM page"),
            Err(SqlError::NoSuchColumn(_))
        ));
        assert!(matches!(
            db.execute_sql("UPDATE page SET nope = 1"),
            Err(SqlError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn alter_table_add_column_backfills_default() {
        let mut db = wiki_db();
        db.execute_sql("ALTER TABLE page ADD COLUMN row_id INTEGER DEFAULT 0")
            .unwrap();
        let r = db
            .execute_sql("SELECT row_id FROM page WHERE page_id = 1")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn drop_table() {
        let mut db = wiki_db();
        db.execute_sql("DROP TABLE page").unwrap();
        assert!(db.schema("page").is_none());
        assert!(db.execute_sql("DROP TABLE page").is_err());
    }

    #[test]
    fn like_in_where() {
        let mut db = wiki_db();
        let r = db
            .execute_sql("SELECT title FROM page WHERE title LIKE 'S%'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::text("Sandbox"));
    }

    #[test]
    fn fingerprint_changes_with_data() {
        let mut db = wiki_db();
        let a = db
            .execute_sql("SELECT * FROM page ORDER BY page_id")
            .unwrap()
            .fingerprint();
        db.execute_sql("UPDATE page SET body = 'changed' WHERE page_id = 1")
            .unwrap();
        let b = db
            .execute_sql("SELECT * FROM page ORDER BY page_id")
            .unwrap()
            .fingerprint();
        assert_ne!(a, b);
        let c = db
            .execute_sql("SELECT * FROM page ORDER BY page_id")
            .unwrap()
            .fingerprint();
        assert_eq!(b, c);
    }

    #[test]
    fn change_capture_records_exact_row_images() {
        let mut db = wiki_db();
        // Capture off: mutations record nothing.
        db.execute_sql("UPDATE page SET views = 1 WHERE page_id = 1")
            .unwrap();
        assert!(db.take_change_capture().is_empty());
        db.begin_change_capture();
        assert!(db.change_capture_active());
        db.execute_sql("INSERT INTO page (page_id, title) VALUES (7, 'New')")
            .unwrap();
        db.execute_sql("UPDATE page SET views = views + 5 WHERE owner = 'alice'")
            .unwrap();
        db.execute_sql("DELETE FROM page WHERE page_id = 2")
            .unwrap();
        let changes = db.take_change_capture();
        assert!(!db.change_capture_active());
        let page = &changes["page"];
        // 1 insert + 2 update post-images added; 2 update pre-images +
        // 1 delete removed.
        assert_eq!(page.added.len(), 3);
        assert_eq!(page.removed.len(), 3);
        assert!(page.added.iter().any(|r| r[0] == Value::Int(7)));
        assert!(page.removed.iter().any(|r| r[0] == Value::Int(2)));
        // Update pre/post images differ only in the assigned column.
        let pre = page.removed.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        let post = page.added.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(pre[3], Value::Int(1));
        assert_eq!(post[3], Value::Int(6));
    }

    #[test]
    fn change_capture_survives_failed_statements_exactly() {
        let mut db = wiki_db();
        db.begin_change_capture();
        // A failed update leaves the table (and the capture) untouched.
        assert!(db
            .execute_sql("UPDATE page SET title = 'Main' WHERE page_id = 2")
            .is_err());
        // A failed insert batch adds nothing.
        assert!(db
            .execute_sql("INSERT INTO page (page_id, title) VALUES (10, 'X'), (11, 'X')")
            .is_err());
        assert!(db.take_change_capture().is_empty());
    }

    #[test]
    fn case_insensitive_table_names() {
        let mut db = wiki_db();
        let r = db.execute_sql("SELECT COUNT(*) FROM PAGE").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }
}
