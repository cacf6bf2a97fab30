//! Time-travel rollback (paper §4.2): one pass per logical row over the
//! versions the row-ID index holds for it.

use super::{cmp, int, Generation, Layout, TimeTravelDb, Timestamp, INF_GEN, INF_TIME};
use crate::dependency::{PartitionKey, PartitionSet};
use crate::repair::DirtyRegion;
use std::collections::BTreeSet;
use warp_sql::{ColumnSet, Row, SqlResult, Table, Value};

impl TimeTravelDb {
    /// Rolls back the listed rows of `table` to their state just before
    /// `to_time`, within the repair generation `gen` (paper §4.2).
    ///
    /// Returns the region the rollback dirtied:
    /// * its partitions are those of every version of the rows that `gen`
    ///   could see before the rollback — so both the current and the
    ///   restored values are covered — or the whole table when it has no
    ///   partition columns;
    /// * its columns are the application columns whose visible values
    ///   changed for any row, escalating to [`ColumnSet::All`] whenever row
    ///   membership changed (a row created after `to_time` disappears, or a
    ///   deleted row is resurrected), since membership affects every reader.
    ///
    /// Each row costs one row-ID bucket read plus one per version it
    /// rewrites. A version claimed from the current generation is closed
    /// there in place (`end_gen`), the repair generation's copy of the
    /// restored version is appended, and anything else is rewritten in
    /// place or removed keeping storage order. Every stored row equal to
    /// the version being rewritten is rewritten with it, and the NOT NULL
    /// and uniqueness checks and change capture are those of the matching
    /// `UPDATE`, `INSERT` or `DELETE`.
    pub fn rollback_rows(
        &mut self,
        table: &str,
        row_ids: &[Value],
        to_time: Timestamp,
        gen: Generation,
    ) -> SqlResult<DirtyRegion> {
        let cfg = self.config(table)?;
        let layout = &cfg.layout;
        let current = self.current_gen;
        let claims_from_current = |start_gen: i64| gen > current && start_gen <= current;
        let mut keys = BTreeSet::new();
        let mut dirty = ColumnSet::empty();
        for row_id in row_ids {
            let versions = visible_versions(self.stored(table)?, layout, row_id, gen);
            for v in &versions {
                for (pos, name) in &layout.partitions {
                    keys.insert(PartitionKey::new(table, name, &v[*pos]));
                }
            }
            // Versions created at or after `to_time` disappear from the
            // repair generation (but stay visible to the current generation
            // if they predate the repair).
            let mut best_keep: Option<&Row> = None;
            let mut wiped: Vec<&Row> = Vec::new();
            let mut wiped_was_current = false;
            for v in &versions {
                if int(&v[layout.start_time]) >= to_time {
                    if v[layout.end_time].as_int() == Some(INF_TIME) {
                        wiped_was_current = true;
                    }
                    wiped.push(v);
                    if claims_from_current(int(&v[layout.start_gen])) {
                        // Preserve for the current generation only.
                        self.set_where_equal(table, layout, v, layout.end_gen, current)?;
                    } else {
                        self.remove_where_equal(table, layout, v)?;
                    }
                } else {
                    let best_end = best_keep.map_or(i64::MIN, |b| int(&b[layout.end_time]));
                    if int(&v[layout.end_time]) > best_end {
                        best_keep = Some(v);
                    }
                }
            }
            // Account the columns this rollback visibly changed.
            match best_keep {
                // The row did not exist before `to_time`: rolling it back
                // deletes it (membership change).
                None if !wiped.is_empty() => dirty = ColumnSet::All,
                None => {}
                Some(baseline) => {
                    if int(&baseline[layout.end_time]) != INF_TIME && !wiped_was_current {
                        // The row was deleted and the rollback resurrects it
                        // (membership change).
                        dirty = ColumnSet::All;
                    }
                    if !dirty.is_all() {
                        for v in &wiped {
                            for (i, name) in &layout.app {
                                if v[*i] != baseline[*i] {
                                    dirty.insert(name);
                                }
                            }
                        }
                    }
                }
            }
            // The surviving version with the largest end_time becomes current
            // again in the repair generation.
            let Some(v) = best_keep else { continue };
            if int(&v[layout.end_time]) == INF_TIME {
                continue;
            }
            if claims_from_current(int(&v[layout.start_gen])) {
                // Keep the historical version for the current generation;
                // give the repair generation its own current copy.
                self.set_where_equal(table, layout, v, layout.end_gen, current)?;
                let mut copy = v.clone();
                copy[layout.end_time] = Value::Int(INF_TIME);
                copy[layout.start_gen] = Value::Int(gen);
                copy[layout.end_gen] = Value::Int(INF_GEN);
                self.db.insert_row(table, copy)?;
            } else {
                self.set_where_equal(table, layout, v, layout.end_time, INF_TIME)?;
            }
        }
        let partitions = if layout.partitions.is_empty() {
            PartitionSet::whole(table)
        } else {
            PartitionSet::Keys(keys)
        };
        Ok(DirtyRegion {
            partitions,
            columns: dirty,
        })
    }
}

/// The stored versions of one logical row that `gen` can see, in storage
/// order. A NULL row ID equals no row.
fn visible_versions(t: &Table, layout: &Layout, row_id: &Value, gen: Generation) -> Vec<Row> {
    if row_id.is_null() {
        return Vec::new();
    }
    t.positions_of(layout.row_id, row_id)
        .map(|pos| &t.rows()[pos])
        .filter(|row| cmp(&row[layout.end_gen], gen).is_some_and(|o| o.is_ge()))
        .cloned()
        .collect()
}

/// The statement paths the rollback kernel and the positional write
/// executor replaced, kept as their oracles.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::dependency::QueryDependency;
    use crate::plan::{Body, PlannedQuery, WritePlan};
    use crate::rewrite::partitions_of_rows;
    use crate::versioned::{
        Clash, LoggedExecution, COL_END_GEN, COL_END_TIME, COL_START_GEN, COL_START_TIME,
    };
    use warp_sql::ast::{Assignment, Expr, SelectItem, SelectStatement, Statement};
    use warp_sql::expr::eval_expr_with;
    use warp_sql::{QueryResult, SqlError};

    /// Looks up a named column in a materialised row.
    fn col_val(columns: &[String], row: &[Value], name: &str) -> Value {
        columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .and_then(|i| row.get(i).cloned())
            .unwrap_or(Value::Null)
    }

    /// Overwrites (or appends) a named column in a column/value expression
    /// list.
    fn set_col(columns: &mut Vec<String>, values: &mut Vec<Expr>, name: &str, value: Value) {
        match columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
            Some(i) => values[i] = Expr::Literal(value),
            None => {
                columns.push(name.to_string());
                values.push(Expr::Literal(value));
            }
        }
    }

    /// A predicate matching one stored row *version*: every column pinned,
    /// NULLs by `IS NULL`.
    fn version_identity(columns: &[String], row: &[Value]) -> Expr {
        let mut pred: Option<Expr> = None;
        for key in [COL_START_TIME, COL_END_TIME, COL_START_GEN, COL_END_GEN] {
            let e = Expr::col_eq(key, col_val(columns, row, key));
            pred = Some(match pred {
                Some(p) => p.and(e),
                None => e,
            });
        }
        for (i, col) in columns.iter().enumerate() {
            if [COL_START_TIME, COL_END_TIME, COL_START_GEN, COL_END_GEN]
                .iter()
                .any(|c| col.eq_ignore_ascii_case(c))
            {
                continue;
            }
            let v = row.get(i).cloned().unwrap_or(Value::Null);
            let e = if v.is_null() {
                Expr::IsNull {
                    expr: Box::new(Expr::Column(col.clone())),
                    negated: false,
                }
            } else {
                Expr::col_eq(col.as_str(), v)
            };
            pred = Some(match pred {
                Some(p) => p.and(e),
                None => e,
            });
        }
        pred.expect("at least the warp columns exist")
    }

    impl TimeTravelDb {
        /// The versioned `UPDATE` / `DELETE` as statements: the result and
        /// the mutations [`TimeTravelDb::execute_planned`] must make, one
        /// version-identity `INSERT` or `UPDATE` at a time.
        pub(crate) fn write_by_statements(
            &mut self,
            query: &mut PlannedQuery,
            time: Timestamp,
            gen: Generation,
        ) -> SqlResult<LoggedExecution> {
            query.at(time, gen);
            let PlannedQuery { plan, params } = query;
            let (write, delete) = match &plan.body {
                Body::Update(write) => (write, false),
                Body::Delete(write) => (write, true),
                _ => panic!("not an UPDATE or DELETE"),
            };
            let WritePlan {
                cfg,
                matching,
                assignments,
                pins,
                read_columns,
                write_columns,
            } = write;
            let table = plan.table.as_str();
            let read_parts = pins.resolve(&plan.table_key, params);
            let select = Statement::Select(SelectStatement {
                items: vec![SelectItem::Wildcard],
                table: table.to_string(),
                where_clause: Some(matching.clone()),
                order_by: vec![],
                limit: None,
            });
            let QueryResult { columns, rows, .. } = self.db.execute_with(&select, params)?;
            // What is applied to each matched version in place.
            let mut in_place = assignments.clone();
            in_place.push(Assignment {
                column: if delete { COL_END_TIME } else { COL_START_TIME }.to_string(),
                value: Expr::Literal(Value::Int(time)),
            });
            let mut row_ids = Vec::new();
            let mut written_rows: Vec<Vec<(String, Value)>> = Vec::new();
            for row in &rows {
                self.preserve_for_current_gen(table, &columns, row, gen)?;
                let mut row_now = self.claimed_for(gen, &columns, row);
                let mut clash = Clash::None;
                if let Some(rg) = self
                    .repair_gen
                    .filter(|_| !delete && gen == self.current_gen)
                {
                    let layout = &cfg.layout;
                    let schema = self.db.schema(table).expect("table exists");
                    let mut new = row_now.clone();
                    for a in assignments {
                        let i = (schema.column_index(&a.column))
                            .ok_or_else(|| SqlError::NoSuchColumn(a.column.clone()))?;
                        new[i] = eval_expr_with(&a.value, schema, &row_now, params)?;
                    }
                    new[layout.start_time] = Value::Int(time);
                    let t = self.db.table(table).expect("table exists");
                    let equal: Vec<usize> =
                        (0..t.len()).filter(|&p| t.rows()[p] == row_now).collect();
                    clash = self.clash(table, layout, &new, &equal)?;
                    if let Clash::RepairOnly = clash {
                        let current = Value::Int(self.current_gen);
                        let mut copy_cols = columns.clone();
                        let mut copy_vals: Vec<Expr> =
                            row_now.iter().cloned().map(Expr::Literal).collect();
                        set_col(&mut copy_cols, &mut copy_vals, COL_END_GEN, current.clone());
                        self.db.execute(&Statement::Insert {
                            table: table.to_string(),
                            columns: copy_cols,
                            values: vec![copy_vals],
                        })?;
                        let claim = Statement::Update {
                            table: table.to_string(),
                            assignments: vec![Assignment {
                                column: COL_START_GEN.to_string(),
                                value: Expr::Literal(Value::Int(rg)),
                            }],
                            where_clause: Some(version_identity(&columns, &row_now)),
                        };
                        self.db.execute(&claim)?;
                        row_now[layout.end_gen] = current;
                        let id = col_val(&columns, row, &cfg.row_id_column);
                        self.held_out.push((plan.table_key.clone(), id));
                    }
                }
                let start_gen_now = col_val(&columns, &row_now, COL_START_GEN)
                    .as_int()
                    .unwrap_or(0);
                row_ids.push(col_val(&columns, row, &cfg.row_id_column));
                let mut named_old = Vec::new();
                for col in &cfg.annotation.partition_columns {
                    named_old.push((col.clone(), col_val(&columns, row, col)));
                }
                written_rows.push(named_old);
                let mut named_new = Vec::new();
                for a in assignments {
                    if cfg
                        .annotation
                        .partition_columns
                        .iter()
                        .any(|p| p.eq_ignore_ascii_case(&a.column))
                    {
                        let schema = self.db.schema(table).expect("table exists");
                        named_new.push((
                            a.column.clone(),
                            eval_expr_with(&a.value, schema, row, params)?,
                        ));
                    }
                }
                if !named_new.is_empty() {
                    written_rows.push(named_new);
                }
                let started_before = col_val(&columns, row, COL_START_TIME)
                    .as_int()
                    .map(|s| s < time)
                    .unwrap_or(true);
                if !delete && started_before {
                    let mut hist_cols = columns.clone();
                    let mut hist_vals: Vec<Expr> =
                        row_now.iter().cloned().map(Expr::Literal).collect();
                    set_col(
                        &mut hist_cols,
                        &mut hist_vals,
                        COL_END_TIME,
                        Value::Int(time),
                    );
                    set_col(
                        &mut hist_cols,
                        &mut hist_vals,
                        COL_START_GEN,
                        Value::Int(start_gen_now),
                    );
                    let insert = Statement::Insert {
                        table: table.to_string(),
                        columns: hist_cols,
                        values: vec![hist_vals],
                    };
                    self.db.execute(&insert)?;
                }
                if let Clash::Current(e) = clash {
                    return Err(e);
                }
                let update = Statement::Update {
                    table: table.to_string(),
                    assignments: in_place.clone(),
                    where_clause: Some(version_identity(&columns, &row_now)),
                };
                self.db.execute_with(&update, params)?;
            }
            let write_partitions = partitions_of_rows(
                table,
                &cfg.annotation.partition_columns,
                written_rows.iter().map(|r| r.as_slice()),
            );
            Ok(LoggedExecution {
                result: QueryResult {
                    columns: vec![],
                    rows: vec![],
                    affected: rows.len() as u64,
                    ordered: false,
                },
                dependency: QueryDependency::write(table, read_parts, write_partitions, row_ids)
                    .with_columns(read_columns.clone(), write_columns.clone()),
            })
        }

        /// If `gen` is a repair generation and the version is still visible
        /// in the current generation, inserts a copy for the current
        /// generation and claims the version for the repair generation.
        fn preserve_for_current_gen(
            &mut self,
            table: &str,
            columns: &[String],
            row: &[Value],
            gen: Generation,
        ) -> SqlResult<()> {
            if gen <= self.current_gen {
                return Ok(());
            }
            let start_gen = col_val(columns, row, COL_START_GEN).as_int().unwrap_or(0);
            let end_gen = col_val(columns, row, COL_END_GEN)
                .as_int()
                .unwrap_or(INF_GEN);
            if start_gen > self.current_gen || end_gen < self.current_gen {
                return Ok(());
            }
            let mut copy_cols = columns.to_vec();
            let mut copy_vals: Vec<Expr> = row.iter().cloned().map(Expr::Literal).collect();
            set_col(
                &mut copy_cols,
                &mut copy_vals,
                COL_END_GEN,
                Value::Int(self.current_gen),
            );
            let insert = Statement::Insert {
                table: table.to_string(),
                columns: copy_cols,
                values: vec![copy_vals],
            };
            self.db.execute(&insert)?;
            let update = Statement::Update {
                table: table.to_string(),
                assignments: vec![Assignment {
                    column: COL_START_GEN.to_string(),
                    value: Expr::Literal(Value::Int(gen)),
                }],
                where_clause: Some(version_identity(columns, row)),
            };
            self.db.execute(&update)?;
            Ok(())
        }

        /// `row` as it is stored once the version has been claimed for
        /// `gen`.
        fn claimed_for(&self, gen: Generation, columns: &[String], row: &[Value]) -> Vec<Value> {
            let mut row_now = row.to_vec();
            if gen > self.current_gen {
                let sg = col_val(columns, row, COL_START_GEN).as_int().unwrap_or(0);
                if sg <= self.current_gen {
                    if let Some(i) = columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(COL_START_GEN))
                    {
                        row_now[i] = Value::Int(gen);
                    }
                }
            }
            row_now
        }

        /// The rollback as statements: the region
        /// [`TimeTravelDb::rollback_rows`] must return and the mutations it
        /// must make, one version-identity `UPDATE`, `DELETE` or `INSERT` at a
        /// time.
        pub(crate) fn rollback_rows_by_statements(
            &mut self,
            table: &str,
            row_ids: &[Value],
            to_time: Timestamp,
            gen: Generation,
        ) -> SqlResult<DirtyRegion> {
            let partitions = self.row_partitions(table, row_ids, gen)?;
            let cfg = self.config(table)?;
            let mut dirty = ColumnSet::empty();
            for row_id in row_ids {
                let (columns, versions) =
                    self.versions_of_row(table, &cfg.row_id_column, row_id, gen)?;
                // Versions created at or after `to_time` disappear from the
                // repair generation (but stay visible to the current generation
                // if they predate the repair).
                let mut best_keep: Option<Vec<Value>> = None;
                let mut wiped: Vec<Vec<Value>> = Vec::new();
                let mut wiped_was_current = false;
                for v in &versions {
                    let start = col_val(&columns, v, COL_START_TIME).as_int().unwrap_or(0);
                    if start >= to_time {
                        if col_val(&columns, v, COL_END_TIME).as_int() == Some(INF_TIME) {
                            wiped_was_current = true;
                        }
                        wiped.push(v.clone());
                        let start_gen = col_val(&columns, v, COL_START_GEN).as_int().unwrap_or(0);
                        let ident = version_identity(&columns, v);
                        if start_gen <= self.current_gen && gen > self.current_gen {
                            // Preserve for the current generation only.
                            let update = Statement::Update {
                                table: table.to_string(),
                                assignments: vec![Assignment {
                                    column: COL_END_GEN.to_string(),
                                    value: Expr::Literal(Value::Int(self.current_gen)),
                                }],
                                where_clause: Some(ident),
                            };
                            self.db.execute(&update)?;
                        } else {
                            let delete = Statement::Delete {
                                table: table.to_string(),
                                where_clause: Some(ident),
                            };
                            self.db.execute(&delete)?;
                        }
                    } else {
                        let end = col_val(&columns, v, COL_END_TIME).as_int().unwrap_or(0);
                        let best_end = best_keep
                            .as_ref()
                            .map(|b| col_val(&columns, b, COL_END_TIME).as_int().unwrap_or(0))
                            .unwrap_or(i64::MIN);
                        if end > best_end {
                            best_keep = Some(v.clone());
                        }
                    }
                }
                // Account the columns this rollback visibly changed.
                match &best_keep {
                    None => {
                        if !wiped.is_empty() {
                            // The row did not exist before `to_time`: rolling it
                            // back deletes it (membership change).
                            dirty = ColumnSet::All;
                        }
                    }
                    Some(baseline) => {
                        let baseline_end = col_val(&columns, baseline, COL_END_TIME)
                            .as_int()
                            .unwrap_or(0);
                        if baseline_end != INF_TIME && !wiped_was_current {
                            // The row was deleted and the rollback resurrects it
                            // (membership change).
                            dirty = ColumnSet::All;
                        }
                        if !dirty.is_all() {
                            for v in &wiped {
                                for (i, name) in columns.iter().enumerate() {
                                    if name.to_ascii_lowercase().starts_with("warp_") {
                                        continue;
                                    }
                                    if v.get(i) != baseline.get(i) {
                                        dirty.insert(name);
                                    }
                                }
                            }
                        }
                    }
                }
                // The surviving version with the largest end_time becomes current
                // again in the repair generation.
                if let Some(v) = best_keep {
                    let end = col_val(&columns, &v, COL_END_TIME).as_int().unwrap_or(0);
                    if end != INF_TIME {
                        let start_gen = col_val(&columns, &v, COL_START_GEN).as_int().unwrap_or(0);
                        if gen > self.current_gen && start_gen <= self.current_gen {
                            // Keep the historical version for the current
                            // generation; give the repair generation its own
                            // current copy.
                            let ident = version_identity(&columns, &v);
                            let update = Statement::Update {
                                table: table.to_string(),
                                assignments: vec![Assignment {
                                    column: COL_END_GEN.to_string(),
                                    value: Expr::Literal(Value::Int(self.current_gen)),
                                }],
                                where_clause: Some(ident),
                            };
                            self.db.execute(&update)?;
                            let mut copy_cols = columns.clone();
                            let mut copy_vals: Vec<Expr> =
                                v.iter().cloned().map(Expr::Literal).collect();
                            set_col(
                                &mut copy_cols,
                                &mut copy_vals,
                                COL_END_TIME,
                                Value::Int(INF_TIME),
                            );
                            set_col(
                                &mut copy_cols,
                                &mut copy_vals,
                                COL_START_GEN,
                                Value::Int(gen),
                            );
                            set_col(
                                &mut copy_cols,
                                &mut copy_vals,
                                COL_END_GEN,
                                Value::Int(INF_GEN),
                            );
                            let insert = Statement::Insert {
                                table: table.to_string(),
                                columns: copy_cols,
                                values: vec![copy_vals],
                            };
                            self.db.execute(&insert)?;
                        } else {
                            let ident = version_identity(&columns, &v);
                            let update = Statement::Update {
                                table: table.to_string(),
                                assignments: vec![Assignment {
                                    column: COL_END_TIME.to_string(),
                                    value: Expr::Literal(Value::Int(INF_TIME)),
                                }],
                                where_clause: Some(ident),
                            };
                            self.db.execute(&update)?;
                        }
                    }
                }
            }
            Ok(DirtyRegion {
                partitions,
                columns: dirty,
            })
        }

        /// All stored versions of a logical row that are visible in `gen`.
        fn versions_of_row(
            &mut self,
            table: &str,
            row_id_column: &str,
            row_id: &Value,
            gen: Generation,
        ) -> SqlResult<(Vec<String>, Vec<Vec<Value>>)> {
            let where_clause = Expr::col_eq(row_id_column, row_id.clone()).and(Expr::Binary {
                left: Box::new(Expr::Column(COL_END_GEN.into())),
                op: warp_sql::ast::BinaryOp::GtEq,
                right: Box::new(Expr::Literal(Value::Int(gen))),
            });
            let select = Statement::Select(SelectStatement {
                items: vec![SelectItem::Wildcard],
                table: table.to_string(),
                where_clause: Some(where_clause),
                order_by: vec![],
                limit: None,
            });
            let result = self.db.execute(&select)?;
            Ok((result.columns, result.rows))
        }

        /// The partitions that the stored versions of the given rows belong to
        /// (every version visible in `gen`, so both the current and the restored
        /// values are covered). Tables without partition columns report the whole
        /// table.
        fn row_partitions(
            &mut self,
            table: &str,
            row_ids: &[Value],
            gen: Generation,
        ) -> SqlResult<PartitionSet> {
            let cfg = self.config(table)?;
            if cfg.annotation.partition_columns.is_empty() {
                return Ok(PartitionSet::whole(table));
            }
            let mut named_rows: Vec<Vec<(String, Value)>> = Vec::new();
            for row_id in row_ids {
                let (columns, versions) =
                    self.versions_of_row(table, &cfg.row_id_column, row_id, gen)?;
                for v in &versions {
                    let mut named = Vec::new();
                    for col in &cfg.annotation.partition_columns {
                        named.push((col.clone(), col_val(&columns, v, col)));
                    }
                    named_rows.push(named);
                }
            }
            Ok(partitions_of_rows(
                table,
                &cfg.annotation.partition_columns,
                named_rows.iter().map(|r| r.as_slice()),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::TableAnnotation;
    use crate::delta::net_changes;
    use crate::plan::{Body, PlannedQuery};
    use crate::versioned::COL_START_GEN;
    use warp_sql::SqlError;

    /// A deterministic stream (xorshift64*), so failures reproduce.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            let x = &mut self.0;
            *x ^= *x >> 12;
            *x ^= *x << 25;
            *x ^= *x >> 27;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % n
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len() as u64) as usize]
        }
    }

    const IDS: &[&str] = &["1", "2", "3", "4"];
    const SLUGS: &[&str] = &["NULL", "NULL", "'a'", "'b'"];
    const BODIES: &[&str] = &["NULL", "'x'", "'y'"];
    const NUMS: &[&str] = &["NULL", "1", "1.0", "TRUE", "2"];
    /// Equal values with different images.
    const ONES: &[&str] = &["1", "1.0", "TRUE"];

    /// `item` has a natural row ID, a uniqueness constraint that NULLs
    /// escape (so identical versions can coexist) and two partition
    /// columns; `note` has a synthetic row ID and no partition columns.
    fn fresh_db() -> TimeTravelDb {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE item (item_id INTEGER, slug TEXT UNIQUE, body TEXT, n INTEGER)",
            TableAnnotation::new()
                .row_id("item_id")
                .partitions(["slug", "body"]),
        )
        .unwrap();
        db.create_table(
            "CREATE TABLE note (txt TEXT, k INTEGER)",
            TableAnnotation::new(),
        )
        .unwrap();
        db
    }

    /// One random application write; failures (a unique collision) are
    /// part of the history like any other outcome.
    fn random_write(db: &mut TimeTravelDb, rng: &mut Rng, time: Timestamp, gen: Generation) {
        let mut query = db.plan(&random_sql(rng)).unwrap();
        let _ = db.execute_planned(&mut query, time, gen);
    }

    /// The text of one random application write.
    fn random_sql(rng: &mut Rng) -> String {
        let (id, slug, body, n) = (
            rng.pick(IDS),
            rng.pick(SLUGS),
            rng.pick(BODIES),
            rng.pick(NUMS),
        );
        match rng.below(7) {
            // Twins: two versions equal under `Value`'s `==` whose images
            // may still differ (`1` and `1.0`).
            0 => {
                let (a, b) = (rng.pick(ONES), rng.pick(ONES));
                format!(
                    "INSERT INTO item (item_id, slug, body, n) VALUES \
                     ({id}, {slug}, {body}, {a}), ({id}, {slug}, {body}, {b})"
                )
            }
            1 => {
                format!(
                    "INSERT INTO item (item_id, slug, body, n) VALUES ({id}, {slug}, {body}, {n})"
                )
            }
            2 => format!("UPDATE item SET body = {body}, n = {n} WHERE item_id = {id}"),
            3 => format!("UPDATE item SET slug = {slug} WHERE item_id = {id}"),
            4 => format!("DELETE FROM item WHERE item_id = {id}"),
            5 => format!("INSERT INTO note (txt, k) VALUES ({body}, {id})"),
            _ => format!("UPDATE note SET txt = {body} WHERE k = {id}"),
        }
    }

    /// What the comparison loop saw, so the test can require that every
    /// case it claims to cover actually came up.
    #[derive(Default, Debug)]
    struct Seen {
        repair_gen: usize,
        current_gen: usize,
        claimed: usize,
        duplicates: usize,
        twins: usize,
        nulls: usize,
        membership: usize,
        named: usize,
        unique_err: usize,
    }

    fn compare(db: &mut TimeTravelDb, rng: &mut Rng, time: Timestamp, seen: &mut Seen) {
        let gen = db.repair_generation().unwrap_or(db.current_gen);
        let table = if rng.below(4) == 0 { "note" } else { "item" };
        let mut row_ids = Vec::new();
        for _ in 0..=rng.below(4) {
            row_ids.push(match rng.below(8) {
                0 => Value::Null,
                1 => Value::Float(2.0),
                2 => Value::text("1"),
                i => Value::Int(i as i64 - 2),
            });
        }
        let to_time = rng.below(time as u64 + 2) as Timestamp;
        let stored = db.raw().table(table).unwrap();
        let (rows, start_gen) = (stored.rows(), stored.schema.column_index(COL_START_GEN));
        let claimed = |r: &Row| gen > db.current_gen && r[start_gen.unwrap()] == Value::Int(gen);
        seen.claimed += rows.iter().any(claimed) as usize;
        let twin = |a: &Row, b: &Row| a == b && format!("{a:?}") != format!("{b:?}");
        seen.duplicates += (1..rows.len()).any(|i| rows[..i].contains(&rows[i])) as usize;
        seen.twins += (1..rows.len()).any(|i| rows[..i].iter().any(|r| twin(r, &rows[i]))) as usize;
        seen.nulls += rows.iter().any(|r| r.contains(&Value::Null)) as usize;
        if gen > db.current_gen {
            seen.repair_gen += 1;
        } else {
            seen.current_gen += 1;
        }
        // Both sides start from the same rows with an empty capture.
        db.db.discard_change_capture();
        db.db.begin_change_capture();
        let mut oracle = db.clone();
        let got = db.rollback_rows(table, &row_ids, to_time, gen);
        let want = oracle.rollback_rows_by_statements(table, &row_ids, to_time, gen);
        let case = format!("{table} {row_ids:?} to {to_time} in gen {gen}");
        assert_eq!(got, want, "{case}");
        match &got {
            Ok(region) if region.columns.is_all() => seen.membership += 1,
            Ok(region) => seen.named += !region.columns.is_empty() as usize,
            Err(SqlError::UniqueViolation { .. }) => seen.unique_err += 1,
            Err(_) => {}
        }
        assert_same_state(db, &mut oracle, &case);
    }

    /// Both sides hold the same rows, compared as debug text (`Value`'s
    /// `==` would let `1` stand for `1.0`, and each stored image must stay
    /// as it is), and captured the same netted change; the capture is
    /// re-armed afterwards if a repair generation needs it.
    fn assert_same_state(db: &mut TimeTravelDb, oracle: &mut TimeTravelDb, case: &str) {
        for t in ["item", "note"] {
            assert_eq!(
                format!("{:?}", db.raw().table(t).unwrap().rows()),
                format!("{:?}", oracle.raw().table(t).unwrap().rows()),
                "{case}: rows of {t}"
            );
        }
        assert_eq!(
            format!("{:?}", net_changes(db.db.take_change_capture())),
            format!("{:?}", net_changes(oracle.db.take_change_capture())),
            "{case}: capture"
        );
        db.check_indexes().unwrap();
        if db.repair_generation().is_some() {
            db.db.begin_change_capture();
        }
    }

    #[test]
    fn kernel_equals_the_statement_path_over_random_histories() {
        let mut seen = Seen::default();
        for seed in 1..=60u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut db = fresh_db();
            let mut time = 1;
            for _ in 0..80 {
                match rng.below(12) {
                    // Serving, in the current generation; repeating a time
                    // lets two inserts leave identical versions.
                    0..=4 => {
                        time += rng.below(2) as Timestamp;
                        let gen = db.current_gen;
                        random_write(&mut db, &mut rng, time, gen);
                    }
                    // Repair-generation writes at past times claim versions
                    // from the current generation.
                    5 | 6 => match db.repair_generation() {
                        Some(gen) => {
                            let at = 1 + rng.below(time as u64) as Timestamp;
                            random_write(&mut db, &mut rng, at, gen);
                        }
                        None => {
                            db.begin_repair_generation();
                        }
                    },
                    7 if db.repair_generation().is_some() => {
                        if rng.below(2) == 0 {
                            db.finalize_repair_generation();
                        } else {
                            // Restoring preserved versions can collide with
                            // a row served meanwhile; the history goes on.
                            let _ = db.abort_repair_generation();
                        }
                        db.db.discard_change_capture();
                    }
                    _ => compare(&mut db, &mut rng, time, &mut seen),
                }
            }
        }
        for (case, count) in [
            ("a repair generation", seen.repair_gen),
            ("the current generation", seen.current_gen),
            ("a claimed version", seen.claimed),
            ("identical versions", seen.duplicates),
            ("equal versions with different images", seen.twins),
            ("NULL columns", seen.nulls),
            ("a membership change", seen.membership),
            ("named dirty columns", seen.named),
            ("a unique collision", seen.unique_err),
        ] {
            assert!(count > 0, "no rollback met {case}: {seen:?}");
        }
    }

    /// What the write comparison saw of the versions each write matched.
    #[derive(Default, Debug)]
    struct WriteSeen {
        repair_gen: usize,
        current_gen: usize,
        claimed: usize,
        past_version: usize,
        started_at_time: usize,
        identical: usize,
        twins: usize,
        nulls: usize,
        multi_row: usize,
        unique_err: usize,
    }

    /// Runs one planned `UPDATE` or `DELETE` through the positional
    /// executor and through the statement oracle on a clone, and requires
    /// the same outcome, rows and netted capture of both.
    fn compare_write(
        db: &mut TimeTravelDb,
        query: &mut PlannedQuery,
        time: Timestamp,
        gen: Generation,
        seen: &mut WriteSeen,
    ) {
        query.at(time, gen);
        let (Body::Update(write) | Body::Delete(write)) = &query.plan.body else {
            unreachable!("only writes are compared")
        };
        let stored = db.raw().table(&query.plan.table).unwrap();
        let layout = &write.cfg.layout;
        let images: Vec<&Row> = db
            .raw()
            .positions_matching(&query.plan.table, Some(&write.matching), &query.params)
            .unwrap_or_default()
            .into_iter()
            .map(|pos| &stored.rows()[pos])
            .collect();
        let current = db.current_gen;
        for image in &images {
            let equal: Vec<&Row> = stored.rows().iter().filter(|r| *r == *image).collect();
            let same_text = |r: &Row| format!("{r:?}") == format!("{image:?}");
            seen.claimed += (gen > current && int(&image[layout.start_gen]) <= current) as usize;
            seen.past_version += (image[layout.end_time] != Value::Int(INF_TIME)) as usize;
            seen.started_at_time += (image[layout.start_time] == Value::Int(time)) as usize;
            seen.identical += (equal.iter().filter(|r| same_text(r)).count() > 1) as usize;
            seen.twins += (!equal.iter().all(|r| same_text(r))) as usize;
            seen.nulls += image.contains(&Value::Null) as usize;
        }
        seen.multi_row += (images.len() > 1) as usize;
        if gen > current {
            seen.repair_gen += 1;
        } else {
            seen.current_gen += 1;
        }
        db.db.discard_change_capture();
        db.db.begin_change_capture();
        let mut oracle = db.clone();
        let got = db.execute_planned(query, time, gen);
        let want = oracle.write_by_statements(&mut query.clone(), time, gen);
        let case = format!("`{:?}` at {time} in gen {gen}", query.params);
        assert_eq!(got, want, "{case}");
        seen.unique_err += matches!(got, Err(SqlError::UniqueViolation { .. })) as usize;
        assert_same_state(db, &mut oracle, &case);
    }

    #[test]
    fn positional_writes_equal_the_statement_path_over_random_histories() {
        let mut seen = WriteSeen::default();
        for seed in 1..=60u64 {
            let mut rng = Rng(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1);
            let mut db = fresh_db();
            let mut time = 1;
            for _ in 0..80 {
                let (at, gen) = match rng.below(10) {
                    // Serving, in the current generation; repeating a time
                    // lets a write find a version that started then.
                    0..=4 => {
                        time += rng.below(2) as Timestamp;
                        (time, db.current_gen)
                    }
                    // Repair-generation writes at past times.
                    5..=7 => match db.repair_generation() {
                        Some(gen) => (1 + rng.below(time as u64) as Timestamp, gen),
                        None => {
                            db.begin_repair_generation();
                            continue;
                        }
                    },
                    8 => {
                        if db.repair_generation().is_some() {
                            if rng.below(2) == 0 {
                                db.finalize_repair_generation();
                            } else {
                                let _ = db.abort_repair_generation();
                            }
                        }
                        continue;
                    }
                    // A rollback leaves versions restored and claimed.
                    _ => {
                        let gen = db.repair_generation().unwrap_or(db.current_gen);
                        let ids = [Value::Int(1 + rng.below(4) as i64)];
                        let to = rng.below(time as u64 + 2) as Timestamp;
                        let _ = db.rollback_rows("item", &ids, to, gen);
                        continue;
                    }
                };
                let mut query = db.plan(&random_sql(&mut rng)).unwrap();
                if query.plan.is_write() && !matches!(query.plan.body, Body::Insert(_)) {
                    compare_write(&mut db, &mut query, at, gen, &mut seen);
                } else {
                    let _ = db.execute_planned(&mut query, at, gen);
                }
            }
        }
        for (case, count) in [
            ("a repair generation", seen.repair_gen),
            ("the current generation", seen.current_gen),
            ("a claim from the current generation", seen.claimed),
            ("a past version with a finite end_time", seen.past_version),
            (
                "a version that started at the write's time",
                seen.started_at_time,
            ),
            ("identical versions", seen.identical),
            ("equal versions with different images", seen.twins),
            ("NULL columns", seen.nulls),
            ("a multi-row match", seen.multi_row),
            ("a unique collision", seen.unique_err),
        ] {
            assert!(count > 0, "no write met {case}: {seen:?}");
        }
    }
}
