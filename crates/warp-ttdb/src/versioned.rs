//! The versioned database: continuous versioning, generations, row IDs.

use crate::annotations::TableAnnotation;
use crate::dependency::{PartitionSet, QueryDependency};
use crate::plan::{Body, InsertPlan, Plan, PlannedQuery, SelectPlan};
use crate::rewrite::partitions_of_rows;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use warp_sql::ast::{ColumnConstraint, ColumnDef, Statement};
use warp_sql::engine::table_key;
use warp_sql::expr::eval_expr_with;
use warp_sql::{
    ColumnSet, ColumnType, Database, QueryResult, Row, SqlError, SqlResult, Table, Value,
};

mod rollback;
mod write;

/// Logical timestamps. The Warp server owns a monotonically increasing
/// logical clock and stamps every action with it.
pub type Timestamp = i64;

/// Repair generation numbers (paper §4.3).
pub type Generation = i64;

/// "Infinity" for `end_time`: the version is current.
pub const INF_TIME: i64 = i64::MAX;

/// "Infinity" for `end_gen`: the version has not been superseded by repair.
pub const INF_GEN: i64 = i64::MAX;

/// Synthetic row-ID column added when a table has no natural row ID.
pub const COL_ROW_ID: &str = "warp_row_id";
/// Version start-time column.
pub const COL_START_TIME: &str = "warp_start_time";
/// Version end-time column (exclusive).
pub const COL_END_TIME: &str = "warp_end_time";
/// First generation in which the version is visible.
pub const COL_START_GEN: &str = "warp_start_gen";
/// Last generation in which the version is visible.
pub const COL_END_GEN: &str = "warp_end_gen";

/// Result of executing one application query through the time-travel layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggedExecution {
    /// The application-visible result (Warp bookkeeping columns stripped).
    pub result: QueryResult,
    /// The dependency record destined for the action history graph.
    pub dependency: QueryDependency,
}

/// Aggregate storage statistics, used for the Table 6 storage accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageStats {
    /// Total row versions stored (including superseded versions).
    pub total_versions: usize,
    /// Row versions that are current in the current generation.
    pub live_rows: usize,
    /// Approximate bytes of stored data.
    pub approximate_bytes: usize,
}

/// How much of one table's row data a bounded-memory clone carries
/// (see [`TimeTravelDb::clone_subset`]). Tables absent from a scope carry
/// no rows at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowScope {
    /// Every stored row version of the table.
    AllRows,
    /// Only row versions whose partition-column values match one of these
    /// keys.
    Partitions(std::collections::BTreeSet<crate::PartitionKey>),
}

impl RowScope {
    /// Widens this scope with another (AllRows absorbs everything).
    pub fn union_with(&mut self, other: &RowScope) {
        match (&mut *self, other) {
            (RowScope::AllRows, _) => {}
            (_, RowScope::AllRows) => *self = RowScope::AllRows,
            (RowScope::Partitions(a), RowScope::Partitions(b)) => {
                a.extend(b.iter().cloned());
            }
        }
    }
}

/// Per-table configuration resolved from the programmer's annotation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TableConfig {
    pub(crate) annotation: TableAnnotation,
    /// The resolved row-ID column (natural or synthetic).
    pub(crate) row_id_column: String,
    /// True if Warp added the row-ID column itself.
    pub(crate) synthetic_row_id: bool,
    /// The application's original `CREATE TABLE` statement, kept so a
    /// recovered database can re-create the table identically.
    create_sql: String,
    layout: Layout,
}

/// The column positions of one table that the time-travel layer reads and
/// rewrites by position, resolved once when the table is created (the
/// schema never changes after that).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layout {
    row_id: usize,
    start_time: usize,
    end_time: usize,
    start_gen: usize,
    end_gen: usize,
    /// Each partition column's position and annotated name.
    partitions: Vec<(usize, String)>,
    /// Each application column's position and name (the bookkeeping
    /// `warp_*` columns excluded).
    app: Vec<(usize, String)>,
}

impl Layout {
    fn resolve(t: &Table, row_id: &str, partition_columns: &[String]) -> SqlResult<Layout> {
        let at = |name: &str| {
            t.schema
                .column_index(name)
                .ok_or_else(|| SqlError::NoSuchColumn(name.to_string()))
        };
        let mut partitions = Vec::new();
        for name in partition_columns {
            partitions.push((at(name)?, name.clone()));
        }
        let app = t
            .schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.name.to_ascii_lowercase().starts_with("warp_"))
            .map(|(i, c)| (i, c.name.clone()))
            .collect();
        Ok(Layout {
            row_id: at(row_id)?,
            start_time: at(COL_START_TIME)?,
            end_time: at(COL_END_TIME)?,
            start_gen: at(COL_START_GEN)?,
            end_gen: at(COL_END_GEN)?,
            partitions,
            app,
        })
    }

    /// True if the version `row` is valid at `(time, gen)`, compared as
    /// the validity predicate compares (a NULL bound holds for no time).
    fn valid_at(&self, row: &Row, time: Timestamp, gen: Generation) -> bool {
        cmp(&row[self.start_time], time).is_some_and(Ordering::is_le)
            && cmp(&row[self.end_time], time).is_some_and(Ordering::is_gt)
            && cmp(&row[self.start_gen], gen).is_some_and(Ordering::is_le)
            && cmp(&row[self.end_gen], gen).is_some_and(Ordering::is_ge)
    }
}

/// A bookkeeping cell as an integer, 0 if it holds none.
fn int(v: &Value) -> i64 {
    v.as_int().unwrap_or(0)
}

/// How a bookkeeping cell compares with `bound` in SQL: `None` for NULL.
fn cmp(cell: &Value, bound: i64) -> Option<Ordering> {
    (!cell.is_null()).then(|| cell.cmp_total(&Value::Int(bound)))
}

/// The ascending positions of the stored rows equal to `image`, all of
/// which share its row ID.
fn positions_equal(t: &Table, layout: &Layout, image: &Row) -> Vec<usize> {
    t.positions_of(layout.row_id, &image[layout.row_id])
        .filter(|&pos| t.rows()[pos] == *image)
        .collect()
}

/// What the new version of a current-generation write made while a repair
/// generation is open shares a unique value with.
#[derive(Debug)]
enum Clash {
    /// Nothing either generation sees.
    None,
    /// A version the current generation sees: the write fails with this.
    Current(SqlError),
    /// Only versions the repair generation sees: the write has to stay out
    /// of the repair generation.
    RepairOnly,
}

/// The time-travel database (paper §4).
///
/// See the crate-level documentation for the model. All application queries
/// go through [`TimeTravelDb::execute_logged`] (normal execution) or the
/// repair-session methods in [`crate::repair`]. The layer issues no statement
/// of its own: its bookkeeping reads and rewrites stored versions by
/// position, and only the application's own statements run through the
/// engine's executor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeTravelDb {
    db: Database,
    /// Shared, so a plan holds its table's configuration without copying
    /// the annotation and `CREATE TABLE` text.
    configs: BTreeMap<String, Arc<TableConfig>>,
    /// The plan of every statement shape executed from text so far (see
    /// [`crate::plan`]), keyed by [`warp_sql::Prepared::shape`]. Derived
    /// state: never persisted or compared, emptied by
    /// [`TimeTravelDb::garbage_collect`].
    plans: HashMap<String, Arc<Plan>>,
    current_gen: Generation,
    repair_gen: Option<Generation>,
    next_synthetic_row_id: i64,
    /// True while the incremental-checkpoint mutation tracker is armed
    /// (see [`TimeTravelDb::enable_checkpoint_capture`]).
    ckpt_capture: bool,
    /// The rows whose current-generation write was kept out of the open
    /// repair generation (see [`TimeTravelDb::take_held_out`]), as
    /// `(table, row ID)`.
    held_out: Vec<(String, Value)>,
    /// Changes parked for the next incremental checkpoint. The engine has a
    /// single live capture slot, shared with repair-delta tracking; whenever
    /// the slot has to be handed to a repair generation (or drained for a
    /// repair commit), the checkpoint-bound changes accumulated so far are
    /// swept in here and netted only when the checkpoint is actually cut.
    ckpt_changes: BTreeMap<String, warp_sql::TableChanges>,
}

impl Default for TimeTravelDb {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeTravelDb {
    /// Creates an empty time-travel database in generation 0.
    pub fn new() -> Self {
        TimeTravelDb {
            db: Database::new(),
            configs: BTreeMap::new(),
            plans: HashMap::new(),
            current_gen: 0,
            repair_gen: None,
            next_synthetic_row_id: 1,
            held_out: Vec::new(),
            ckpt_capture: false,
            ckpt_changes: BTreeMap::new(),
        }
    }

    /// The generation normal execution currently runs in.
    pub fn current_generation(&self) -> Generation {
        self.current_gen
    }

    /// The generation being constructed by an in-progress repair, if any.
    pub fn repair_generation(&self) -> Option<Generation> {
        self.repair_gen
    }

    /// Names of all application tables.
    pub fn table_names(&self) -> Vec<String> {
        self.configs.keys().cloned().collect()
    }

    /// The row-ID column of a table.
    pub fn row_id_column(&self, table: &str) -> Option<&str> {
        self.configs
            .get(&*table_key(table))
            .map(|c| c.row_id_column.as_str())
    }

    /// The partition columns of a table.
    pub fn partition_columns(&self, table: &str) -> &[String] {
        self.configs
            .get(&*table_key(table))
            .map(|c| c.annotation.partition_columns.as_slice())
            .unwrap_or(&[])
    }

    /// Total annotation lines across all tables (paper §8.1).
    pub fn annotation_lines(&self) -> usize {
        self.configs
            .values()
            .map(|c| c.annotation.annotation_lines())
            .sum()
    }

    /// Direct read-only access to the underlying engine (used by tests and by
    /// the storage accounting; applications never touch this).
    pub fn raw(&self) -> &Database {
        &self.db
    }

    /// Creates an application table and installs Warp's bookkeeping columns.
    ///
    /// The `CREATE TABLE` statement is the application's own schema; Warp
    /// then (a) adds a synthetic row-ID column if the annotation names none,
    /// (b) adds the four versioning columns, and (c) extends every uniqueness
    /// constraint with `(end_time, end_gen)` so multiple versions of a
    /// logically unique row can coexist (paper §6).
    ///
    /// Uniqueness holds per visible set: a unique value is held by at most
    /// one of the versions visible at any one `(time, gen)`. The extended
    /// constraint enforces that within one generation; while a repair
    /// generation is open, a current-generation write is also checked
    /// against the current generation's versions of the other `end_gen`
    /// (see [`TimeTravelDb::take_held_out`]).
    pub fn create_table(&mut self, create_sql: &str, annotation: TableAnnotation) -> SqlResult<()> {
        let stmt = warp_sql::parse(create_sql)?;
        let table = match &stmt {
            Statement::CreateTable { name, .. } => name.clone(),
            other => {
                return Err(SqlError::Execution(format!(
                    "create_table expects CREATE TABLE, got {other}"
                )))
            }
        };
        self.db.execute(&stmt)?;
        let (row_id_column, synthetic) = match &annotation.row_id_column {
            Some(col) => {
                if self.db.schema(&table).map(|s| s.has_column(col)) != Some(true) {
                    return Err(SqlError::NoSuchColumn(col.clone()));
                }
                (col.clone(), false)
            }
            None => (COL_ROW_ID.to_string(), true),
        };
        {
            let t = self.db.table_mut(&table).expect("just created");
            if synthetic {
                t.schema
                    .add_column(ColumnDef::new(COL_ROW_ID, ColumnType::Integer))?;
                t.add_column_with_default(Value::Null);
            }
            for col in [COL_START_TIME, COL_END_TIME, COL_START_GEN, COL_END_GEN] {
                let mut def = ColumnDef::new(col, ColumnType::Integer);
                def.constraints.push(ColumnConstraint::NotNull);
                t.schema.add_column(def)?;
                t.add_column_with_default(Value::Int(0));
            }
            t.schema
                .extend_unique_constraints(&[COL_END_TIME, COL_END_GEN]);
        }
        // The row-ID and partition columns are what the application's
        // queries pin in their WHERE clauses and what this layer finds
        // versions by, so those are the engine's indexed columns.
        let t = self.db.table_mut(&table).expect("just created");
        t.declare_index(&row_id_column)?;
        for col in &annotation.partition_columns {
            t.declare_index(col)?;
        }
        let layout = Layout::resolve(t, &row_id_column, &annotation.partition_columns)?;
        self.configs.insert(
            table_key(&table).into_owned(),
            Arc::new(TableConfig {
                annotation,
                row_id_column,
                synthetic_row_id: synthetic,
                create_sql: create_sql.to_string(),
                layout,
            }),
        );
        Ok(())
    }

    /// Executes an application query during *normal execution* at logical
    /// time `time`, in the current generation, returning the result and the
    /// dependency record.
    pub fn execute_logged(&mut self, sql: &str, time: Timestamp) -> SqlResult<LoggedExecution> {
        let mut query = self.plan(sql)?;
        self.execute_planned(&mut query, time, self.current_gen)
    }

    /// Executes an already-parsed application statement at `(time, gen)`,
    /// through a plan built for this one execution.
    ///
    /// Normal execution passes the current generation; re-execution during
    /// repair passes the repair generation and the query's *original* time.
    pub fn execute_stmt_logged(
        &mut self,
        stmt: &Statement,
        time: Timestamp,
        gen: Generation,
    ) -> SqlResult<LoggedExecution> {
        if stmt.has_params() {
            return Err(SqlError::Execution(format!(
                "a statement template cannot be executed without its parameters: {stmt}"
            )));
        }
        let plan = Plan::build(stmt.clone(), 0, &self.configs);
        self.execute_planned(
            &mut PlannedQuery::new(Arc::new(plan), Vec::new()),
            time,
            gen,
        )
    }

    /// Runs a read-only query at a past time in the current generation
    /// (continuous versioning makes old values directly addressable).
    pub fn select_at(&mut self, sql: &str, time: Timestamp) -> SqlResult<QueryResult> {
        let mut query = self.plan(sql)?;
        if query.plan.is_write() {
            return Err(SqlError::Execution(format!(
                "select_at expects SELECT, got `{sql}`"
            )));
        }
        Ok(self
            .execute_planned(&mut query, time, self.current_gen)?
            .result)
    }

    fn config(&self, table: &str) -> SqlResult<Arc<TableConfig>> {
        self.configs
            .get(&*table_key(table))
            .cloned()
            .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))
    }

    fn stored(&self, table: &str) -> SqlResult<&Table> {
        self.db
            .table(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))
    }

    /// Sets `column` to `value` in every stored row equal to `image`.
    fn set_where_equal(
        &mut self,
        table: &str,
        layout: &Layout,
        image: &Row,
        column: usize,
        value: i64,
    ) -> SqlResult<()> {
        let t = self.stored(table)?;
        let staged = positions_equal(t, layout, image)
            .into_iter()
            .map(|pos| {
                let mut row = t.rows()[pos].clone();
                row[column] = Value::Int(value);
                (pos, row)
            })
            .collect();
        self.db.replace_rows_at(table, staged).map(drop)
    }

    /// Removes every stored row equal to `image`.
    fn remove_where_equal(&mut self, table: &str, layout: &Layout, image: &Row) -> SqlResult<()> {
        let positions = positions_equal(self.stored(table)?, layout, image);
        self.db.remove_rows_at(table, &positions).map(drop)
    }

    /// Checks the new version `image` of a current-generation write made
    /// while a repair generation is open against every stored version but
    /// those at `skip` (the ones the write rewrites), by the unique values
    /// they share.
    fn clash(&self, table: &str, layout: &Layout, image: &Row, skip: &[usize]) -> SqlResult<Clash> {
        let t = self.stored(table)?;
        let sees = |row: &Row, gen: Generation| {
            int(&row[layout.start_gen]) <= gen && int(&row[layout.end_gen]) >= gen
        };
        let repair = self.repair_gen.filter(|&rg| sees(image, rg));
        let mut clash = Clash::None;
        for uc in &t.schema.unique_constraints {
            // The constraint without `end_gen`: which generations see a
            // version is what this check decides.
            let idxs: Vec<usize> = uc
                .iter()
                .filter_map(|c| t.schema.column_index(c))
                .filter(|&i| i != layout.end_gen)
                .collect();
            if idxs.iter().any(|&i| image[i].is_null()) {
                continue;
            }
            for pos in t.candidates(idxs.iter().map(|&i| (i, &image[i]))) {
                let row = &t.rows()[pos];
                let shares = idxs.iter().all(|&i| row[i].sql_eq(&image[i]) == Some(true));
                if skip.contains(&pos) || !shares {
                    continue;
                }
                if sees(row, self.current_gen) {
                    return Ok(Clash::Current(SqlError::UniqueViolation {
                        table: t.schema.name.clone(),
                        columns: uc.clone(),
                    }));
                }
                if repair.is_some_and(|rg| sees(row, rg)) {
                    clash = Clash::RepairOnly;
                }
            }
        }
        Ok(clash)
    }

    /// Drains the rows whose current-generation write had to stay out of
    /// the open repair generation, as `(table, row ID)`: the write's new
    /// version would have shared a unique value with a version only the
    /// repair generation sees. An `INSERT` adds such versions with
    /// `end_gen` = current; an `UPDATE` first forks the version it
    /// rewrites, as a repair-generation write would, and rewrites the
    /// current generation's copy. The repair generation then sees the row
    /// as it was, and the repair has to re-execute the write there.
    pub fn take_held_out(&mut self) -> Vec<(String, Value)> {
        std::mem::take(&mut self.held_out)
    }

    /// Executes a logged write again at `(time, gen)`, as recovery replays
    /// it: an `INSERT` into a table with synthetic row IDs takes the IDs it
    /// was logged with (`row_ids`, consecutive from the first) whatever the
    /// allocator holds, and the allocator ends no lower than it was.
    pub fn replay_write(
        &mut self,
        sql: &str,
        time: Timestamp,
        gen: Generation,
        row_ids: &[Value],
    ) -> SqlResult<()> {
        let mut query = self.plan(sql)?;
        let watermark = self.next_synthetic_row_id;
        if let (Body::Insert(insert), Some(first)) = (&query.plan.body, row_ids.first()) {
            if insert.cfg.synthetic_row_id {
                self.next_synthetic_row_id = int(first);
            }
        }
        let replayed = self.execute_planned(&mut query, time, gen);
        self.next_synthetic_row_id = self.next_synthetic_row_id.max(watermark);
        replayed.map(drop)
    }

    /// Splits an application query's text into its shape and its literals
    /// and pairs the literals with the shape's plan, building (and keeping)
    /// the plan if this is the first text of that shape. Fails only if the
    /// text does not lex or parse — such a text is never planned — with the
    /// error [`warp_sql::parse`] gives it; anything else wrong with the
    /// statement is reported when it is executed.
    pub fn plan(&mut self, sql: &str) -> SqlResult<PlannedQuery> {
        let warp_sql::Prepared { shape, params } = warp_sql::prepare(sql)?;
        let plan = match self.plans.get(&shape) {
            Some(plan) => plan.clone(),
            None => {
                let template = warp_sql::parse_template(sql)?;
                let plan = Arc::new(Plan::build(template, params.len(), &self.configs));
                if plan.is_reusable() {
                    self.plans.insert(shape, plan.clone());
                }
                plan
            }
        };
        Ok(PlannedQuery::new(plan, params))
    }

    /// How many statement shapes currently have a plan.
    pub fn planned_shapes(&self) -> usize {
        self.plans.len()
    }

    /// Executes a planned application query at `(time, gen)`.
    ///
    /// Normal execution passes the current generation; re-execution during
    /// repair passes the repair generation and the query's *original* time.
    /// The query can be executed again, at the same or another time.
    pub fn execute_planned(
        &mut self,
        query: &mut PlannedQuery,
        time: Timestamp,
        gen: Generation,
    ) -> SqlResult<LoggedExecution> {
        query.at(time, gen);
        let PlannedQuery { plan, params } = query;
        match &plan.body {
            Body::Select(select) => self.planned_select(plan, select, params),
            Body::Insert(insert) => self.planned_insert(plan, insert, params, gen),
            Body::Update(write) => self.planned_write(plan, write, false, params, time, gen),
            Body::Delete(write) => self.planned_write(plan, write, true, params, time, gen),
            Body::Rejected(e) => Err(e.clone()),
        }
    }

    fn planned_select(
        &mut self,
        plan: &Plan,
        select: &SelectPlan,
        params: &[Value],
    ) -> SqlResult<LoggedExecution> {
        let SelectPlan {
            stmt,
            pins,
            read_columns,
        } = select;
        let partitions = pins.resolve(&plan.table_key, params);
        #[cfg(debug_assertions)]
        warp_sql::observer::arm();
        let executed = self.db.execute_with(stmt, params);
        #[cfg(debug_assertions)]
        assert_observed_subset("SELECT", warp_sql::observer::take(), read_columns);
        let mut result = executed?;
        strip_warp_columns(&mut result);
        Ok(LoggedExecution {
            result,
            dependency: QueryDependency::read(&plan.table_key, partitions)
                .with_columns(read_columns.clone(), ColumnSet::empty()),
        })
    }

    /// The row IDs of the versions an `UPDATE` or `DELETE` would modify at
    /// `(time, gen)`, in storage order; none for any other statement.
    pub(crate) fn matching_row_ids(
        &mut self,
        query: &mut PlannedQuery,
        time: Timestamp,
        gen: Generation,
    ) -> SqlResult<Vec<Value>> {
        query.at(time, gen);
        let (Body::Update(write) | Body::Delete(write)) = &query.plan.body else {
            return Ok(Vec::new());
        };
        let table = &query.plan.table;
        let positions = self
            .db
            .positions_matching(table, Some(&write.matching), &query.params)?;
        let rows = self.stored(table)?.rows();
        let row_id = write.cfg.layout.row_id;
        Ok(positions
            .iter()
            .map(|&pos| rows[pos][row_id].clone())
            .collect())
    }

    fn planned_insert(
        &mut self,
        plan: &Plan,
        insert: &InsertPlan,
        params: &mut Vec<Value>,
        gen: Generation,
    ) -> SqlResult<LoggedExecution> {
        let InsertPlan {
            cfg,
            columns,
            values,
            row_id_at,
            stmt,
            read_columns,
        } = insert;
        let table = plan.table.as_str();
        let schema = self
            .db
            .schema(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
        let empty_row = vec![Value::Null; schema.columns.len()];
        let mut row_ids = Vec::with_capacity(values.len());
        let mut written_rows: Vec<Vec<(String, Value)>> = Vec::new();
        for row_exprs in values {
            if cfg.synthetic_row_id {
                let id = self.next_synthetic_row_id;
                self.next_synthetic_row_id += 1;
                // The plan's row reads its ID from the parameter pushed here.
                params.push(Value::Int(id));
                row_ids.push(Value::Int(id));
            } else {
                // The natural row ID must be one of the inserted columns.
                let idx = row_id_at.ok_or_else(|| {
                    SqlError::Execution(format!(
                        "INSERT into {table} must supply row-ID column {}",
                        cfg.row_id_column
                    ))
                })?;
                row_ids.push(eval_expr_with(&row_exprs[idx], schema, &empty_row, params)?);
            }
            // Record partition-column values for the write dependency.
            let mut named = Vec::new();
            for (col, expr) in columns.iter().zip(row_exprs) {
                named.push((
                    col.clone(),
                    eval_expr_with(expr, schema, &empty_row, params)?,
                ));
            }
            written_rows.push(named);
        }
        if gen == self.current_gen && self.repair_gen.is_some() {
            let mut held = false;
            for image in self.db.insert_images(stmt, params)? {
                match self.clash(table, &cfg.layout, &image, &[])? {
                    Clash::Current(e) => return Err(e),
                    Clash::RepairOnly => held = true,
                    Clash::None => {}
                }
            }
            if held {
                params[plan.holes + 2] = Value::Int(self.current_gen);
                let key = plan.table_key.as_str();
                self.held_out
                    .extend(row_ids.iter().map(|id| (key.to_string(), id.clone())));
            }
        }
        let result = self.db.execute_with(stmt, params)?;
        let write_partitions = partitions_of_rows(
            table,
            &cfg.annotation.partition_columns,
            written_rows.iter().map(|r| r.as_slice()),
        );
        // Static footprint: value expressions are the only reads; the write
        // set is `All` because an INSERT changes row membership, which every
        // reader of the table implicitly depends on.
        Ok(LoggedExecution {
            result,
            dependency: QueryDependency::write(
                table,
                PartitionSet::empty(),
                write_partitions,
                row_ids,
            )
            .with_columns(read_columns.clone(), ColumnSet::All),
        })
    }

    /// Starts a repair generation (paper §4.3) and returns its number. All
    /// repair-time operations execute in this generation while normal
    /// execution continues in the current generation.
    ///
    /// Starting a repair generation also arms the mutation delta tracker:
    /// from here until the repair is aborted or its delta drained, every
    /// stored-row mutation — re-executed writes, rollbacks, generation
    /// bookkeeping, applied row diffs — records the exact row versions it
    /// removed and added, so committing the repair costs O(rows changed)
    /// instead of O(database). Repeated calls without an intervening drain
    /// or abort keep accumulating into the same tracker (the partitioned
    /// engine re-begins the generation on worker clones per repair unit).
    pub fn begin_repair_generation(&mut self) -> Generation {
        let next = self.current_gen + 1;
        if self.repair_gen.is_none() && self.ckpt_capture {
            // The live capture slot holds normal-execution changes destined
            // for the next incremental checkpoint; park them so the repair's
            // capture starts clean and drains only the repair's own effect.
            let raw = self.db.take_change_capture();
            merge_changes(&mut self.ckpt_changes, raw);
        }
        self.repair_gen = Some(next);
        self.db.begin_change_capture();
        next
    }

    /// Completes a repair: the repair generation becomes the current
    /// generation, making the repaired state visible to normal execution.
    /// The tracked delta stays available for
    /// [`TimeTravelDb::drain_repair_delta`].
    pub fn finalize_repair_generation(&mut self) {
        if let Some(next) = self.repair_gen.take() {
            self.current_gen = next;
        }
    }

    /// Drains the mutation delta tracker: the canonical per-table row
    /// sets removed and added since the repair generation began, netted
    /// (a row version added and later removed cancels out) and sorted —
    /// byte-identical to what diffing a pre-repair snapshot against the
    /// post-repair rows would produce, at O(rows changed) cost.
    pub fn drain_repair_delta(&mut self) -> crate::delta::RepairDelta {
        let raw = self.db.take_change_capture();
        if self.ckpt_capture {
            // The repair's physical changes are also changes since the last
            // checkpoint: mirror them into the checkpoint tracker and re-arm
            // the capture slot for normal execution.
            merge_changes(&mut self.ckpt_changes, raw.clone());
            self.db.begin_change_capture();
        }
        crate::delta::net_changes(raw)
    }

    /// Aborts an in-progress repair, discarding every change made in the
    /// repair generation (used when a user-initiated repair would cause
    /// conflicts for other users, paper §5.5). The tracked delta is
    /// discarded with it (the abort's own cleanup is not a repair effect).
    ///
    /// The abort is all or nothing: if restoring the versions preserved for
    /// the current generation would break a NOT NULL or uniqueness
    /// constraint, it returns the error with every stored row, the change
    /// capture and the repair generation as they were.
    pub fn abort_repair_generation(&mut self) -> SqlResult<()> {
        let Some(next) = self.repair_gen else {
            if !self.ckpt_capture {
                self.db.discard_change_capture();
            }
            return Ok(());
        };
        // Every table's removals (versions created by or claimed for the
        // repair generation) and restorations (versions preserved for the
        // current generation) are staged and checked before any changes,
        // so the abort happens whole or not at all.
        let current = self.current_gen;
        let mut rewrites = Vec::with_capacity(self.configs.len());
        for (table, cfg) in &self.configs {
            let layout = &cfg.layout;
            let (mut removed, mut restored) = (Vec::new(), Vec::new());
            for (pos, row) in self.stored(table)?.rows().iter().enumerate() {
                if cmp(&row[layout.start_gen], next).is_some_and(Ordering::is_ge) {
                    removed.push(pos);
                } else if cmp(&row[layout.end_gen], current) == Some(Ordering::Equal) {
                    let mut row = row.clone();
                    row[layout.end_gen] = Value::Int(INF_GEN);
                    restored.push((pos, row));
                }
            }
            self.db.check_rows_at(table, &restored, &removed)?;
            rewrites.push((table.clone(), removed, restored));
        }
        // With checkpoint capture armed, the slot stays live through the
        // cleanup below: the repair's physical churn plus its own undoing
        // nets to nothing, so the checkpoint tracker stays exact without
        // special-casing the abort path.
        if !self.ckpt_capture {
            self.db.discard_change_capture();
        }
        self.repair_gen = None;
        for (table, removed, restored) in rewrites {
            self.db.remove_rows_at(&table, &removed)?;
            // The restored rows' positions, once the removed rows are gone.
            let restored = restored
                .into_iter()
                .map(|(pos, row)| (pos - removed.partition_point(|&r| r < pos), row))
                .collect();
            self.db.replace_rows_at(&table, restored)?;
        }
        Ok(())
    }

    /// Arms the incremental-checkpoint mutation tracker: from here on,
    /// every stored-row mutation is captured so cutting a checkpoint costs
    /// O(rows changed since the last one) instead of O(database). The
    /// tracker multiplexes the engine's single capture slot with repair
    /// deltas — see the sweep logic in
    /// [`TimeTravelDb::begin_repair_generation`] and
    /// [`TimeTravelDb::drain_repair_delta`]. Idempotent.
    pub fn enable_checkpoint_capture(&mut self) {
        self.ckpt_capture = true;
        if self.repair_gen.is_none() {
            self.db.begin_change_capture();
        }
        // With a repair in flight the slot already belongs to the repair
        // delta; drain_repair_delta re-arms it on our behalf.
    }

    /// True if the incremental-checkpoint tracker is armed.
    pub fn checkpoint_capture_enabled(&self) -> bool {
        self.ckpt_capture
    }

    /// Drains everything the checkpoint tracker captured since the last
    /// drain as a canonical netted delta (same representation as
    /// [`TimeTravelDb::drain_repair_delta`]) and re-arms the tracker.
    ///
    /// While a repair generation is in flight, the live capture belongs to
    /// the repair and is *not* swept: an uncommitted repair's mutations are
    /// invisible to normal execution and absent from the durable log, so a
    /// checkpoint cut mid-repair must not contain them. They reach the
    /// tracker when the repair commits (via the drain's mirroring) — or
    /// cancel out if it aborts.
    pub fn drain_checkpoint_delta(&mut self) -> crate::delta::RepairDelta {
        if self.repair_gen.is_none() {
            let raw = self.db.take_change_capture();
            merge_changes(&mut self.ckpt_changes, raw);
            if self.ckpt_capture {
                self.db.begin_change_capture();
            }
        }
        crate::delta::net_changes(std::mem::take(&mut self.ckpt_changes))
    }

    /// Disarms the checkpoint tracker, dropping whatever it held.
    pub fn discard_checkpoint_delta(&mut self) {
        self.ckpt_capture = false;
        self.ckpt_changes.clear();
        if self.repair_gen.is_none() {
            self.db.discard_change_capture();
        }
    }

    /// A raw snapshot of every stored version row of a table (bookkeeping
    /// columns included), used by the partitioned repair engine to compute
    /// per-partition diffs against worker clones.
    pub fn table_rows_snapshot(&self, table: &str) -> Vec<Vec<Value>> {
        self.db
            .table(table)
            .map(|t| t.rows().to_vec())
            .unwrap_or_default()
    }

    /// Applies a row-level diff produced by comparing a repaired clone of
    /// this database against a snapshot of it: each row in `remove` deletes
    /// one matching stored version, each row in `add` is inserted verbatim.
    /// The rows carry their own versioning columns, so no rewriting happens;
    /// the caller guarantees the diff only touches rows the current database
    /// still agrees with the snapshot on (disjoint repair partitions).
    pub fn apply_row_diff(
        &mut self,
        table: &str,
        remove: &[Vec<Value>],
        add: &[Vec<Value>],
    ) -> SqlResult<()> {
        let capture_on = self.db.change_capture_active();
        let t = self
            .db
            .table_mut(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
        check_arity(t, remove.iter().chain(add))?;
        // Order-preserving removal. ORDER-BY-less result order is not part
        // of result *semantics* (fingerprints treat such results as
        // multisets), but keeping unrelated rows in place minimizes
        // gratuitous storage-order churn from the merge.
        let matched = t.remove_rows(remove);
        let removed: Vec<Vec<Value>> = if capture_on {
            matched.into_iter().cloned().collect()
        } else {
            Vec::new()
        };
        for new in add {
            t.push_row(new.clone());
        }
        // Mirror the rows *actually* removed (requested removals that
        // matched nothing are not part of the physical effect) and added
        // into the delta tracker, so merged worker diffs land in the
        // master's repair delta like any other mutation.
        self.db.record_change(table, &removed, add);
        Ok(())
    }

    /// Checks every table's derived indexes against its rows (see
    /// [`warp_sql::Table::check_indexes`]) and that the row-ID and partition
    /// columns are still the indexed ones. Tests call this after each bulk
    /// loader and recovery path.
    pub fn check_indexes(&self) -> Result<(), String> {
        for (name, cfg) in &self.configs {
            let t = self.db.table(name).ok_or(format!("{name}: no table"))?;
            t.check_indexes().map_err(|e| format!("{name}.{e}"))?;
            let indexed =
                std::iter::once(&cfg.row_id_column).chain(&cfg.annotation.partition_columns);
            for column in indexed {
                let i = t.schema.column_index(column);
                if i.and_then(|i| t.index_bucket(i, &Value::Null)).is_none() {
                    return Err(format!("{name}.{column}: not indexed"));
                }
            }
        }
        Ok(())
    }

    /// The `(table, CREATE TABLE statement, annotation)` triples of every
    /// application table, in name order — what a checkpoint stores so
    /// recovery can re-create tables that the recovering process's
    /// [`crate::TableAnnotation`] configuration does not already define.
    pub fn table_create_statements(&self) -> Vec<(String, String, TableAnnotation)> {
        self.configs
            .iter()
            .map(|(name, cfg)| (name.clone(), cfg.create_sql.clone(), cfg.annotation.clone()))
            .collect()
    }

    /// Replaces the stored version rows of a table wholesale (all rows, in
    /// storage order, bookkeeping columns included) and rebuilds its
    /// indexes. Used by checkpoint restore; rows of the wrong width are
    /// rejected, their values are taken as they come.
    pub fn replace_table_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> SqlResult<()> {
        self.config(table)?;
        let capture_on = self.db.change_capture_active();
        let t = self
            .db
            .table_mut(table)
            .ok_or_else(|| SqlError::NoSuchTable(table.to_string()))?;
        check_arity(t, &rows)?;
        let old = t.replace_rows(rows);
        if capture_on {
            let added = t.rows().to_vec();
            self.db.record_change(table, &old, &added);
        }
        Ok(())
    }

    /// Forces the current generation pointer (and clears any in-progress
    /// repair generation). Recovery uses this to restore the generation a
    /// checkpoint or a replayed repair commit recorded; it is not part of
    /// the normal repair lifecycle.
    pub fn force_current_generation(&mut self, gen: Generation) {
        self.current_gen = gen;
        self.repair_gen = None;
    }

    /// True if partition-scoped bounded clones preserve this table's
    /// uniqueness semantics: every unique constraint (including the
    /// primary key) contains at least one partition column, so any two
    /// rows that could collide share a partition-column value and are
    /// always cloned together. A table failing this must be cloned whole —
    /// a current row outside the scope could otherwise make a re-executed
    /// insert's uniqueness check succeed on the bounded clone but fail on
    /// a full clone, and the footprint-escape fallback cannot see the
    /// divergence (the colliding row is never a recorded dependency).
    pub fn partition_clone_safe(&self, table: &str) -> bool {
        let Some(cfg) = self.configs.get(&*table_key(table)) else {
            return false;
        };
        let partition_columns = &cfg.annotation.partition_columns;
        if partition_columns.is_empty() {
            return false;
        }
        let Some(schema) = self.db.schema(table) else {
            return false;
        };
        schema.unique_constraints.iter().all(|uc| {
            uc.iter()
                .any(|c| partition_columns.iter().any(|p| p.eq_ignore_ascii_case(c)))
        })
    }

    /// Clones the database with row data restricted to `scope`: every
    /// table keeps its schema and configuration, but only scoped tables
    /// carry rows — all of them for [`RowScope::AllRows`], or just the row
    /// versions whose partition-column values fall in the scoped partition
    /// keys for [`RowScope::Partitions`]. Worker batches in the
    /// partitioned repair engine clone only their dependency footprint
    /// (down to the partition level on whole-table-hub workloads, where a
    /// single hot table would otherwise be copied wholesale into every
    /// batch) instead of the whole database.
    pub fn clone_subset(&self, scope: &BTreeMap<String, RowScope>) -> TimeTravelDb {
        let mut db = self
            .db
            .clone_schema_subset(|name| matches!(scope.get(name), Some(RowScope::AllRows)));
        for (table, table_scope) in scope {
            let RowScope::Partitions(keys) = table_scope else {
                continue;
            };
            let (Some(cfg), Some(src)) = (self.configs.get(table), self.db.table(table)) else {
                continue;
            };
            let partition_columns = &cfg.annotation.partition_columns;
            let dst = db.table_mut(table).expect("schema clone kept every table");
            if partition_columns.is_empty() {
                // Partition keys only exist for partitioned tables; an
                // unpartitioned table can only be scoped whole.
                *dst = src.clone();
                continue;
            }
            // Per column, the set of scoped partition values — so the row
            // filter below probes string sets directly instead of building
            // a fresh PartitionKey (three allocations) per row checked.
            let col_values: Vec<(usize, std::collections::BTreeSet<&str>)> = partition_columns
                .iter()
                .filter_map(|c| src.schema.column_index(c).map(|i| (i, c)))
                .map(|(i, c)| {
                    let column = c.to_ascii_lowercase();
                    let values = keys
                        .iter()
                        .filter(|k| k.column == column)
                        .map(|k| k.value.as_str())
                        .collect();
                    (i, values)
                })
                .collect();
            // Candidates come from the partition columns' indexes — once
            // per repair unit, so the cost follows the scope, not the table
            // — and pass through the filter in storage order, as the rows
            // of a whole-table filter would. A partition key holds a value's
            // rendering; `Value::displaying` names the values behind it.
            let mut positions: Vec<usize> = Vec::new();
            for (i, values) in &col_values {
                for value in values.iter().flat_map(|text| Value::displaying(text)) {
                    let bucket = src
                        .index_bucket(*i, &value)
                        .expect("create_table indexes every partition column");
                    positions.extend_from_slice(bucket);
                }
            }
            positions.sort_unstable();
            positions.dedup();
            let in_scope = |row: &Vec<Value>| {
                col_values.iter().any(|(i, values)| {
                    row.get(*i)
                        .map(|v| match v {
                            Value::Text(s) => values.contains(s.as_str()),
                            other => values.contains(other.as_display_string().as_str()),
                        })
                        .unwrap_or(false)
                })
            };
            for row in positions.into_iter().map(|pos| &src.rows()[pos]) {
                if in_scope(row) {
                    dst.push_row(row.clone());
                }
            }
        }
        TimeTravelDb {
            db,
            configs: self.configs.clone(),
            // The tables and their annotations are the same, so the plans
            // are: the clone starts warm and shares them.
            plans: self.plans.clone(),
            current_gen: self.current_gen,
            repair_gen: self.repair_gen,
            next_synthetic_row_id: self.next_synthetic_row_id,
            held_out: Vec::new(),
            // Worker clones never cut checkpoints; their mutations reach the
            // master's trackers through the merged row diffs.
            ckpt_capture: false,
            ckpt_changes: BTreeMap::new(),
        }
    }

    /// The next synthetic row ID this database would allocate.
    pub fn synthetic_id_watermark(&self) -> i64 {
        self.next_synthetic_row_id
    }

    /// Raises the synthetic row-ID watermark (never lowers it). Worker clones
    /// in the partitioned repair engine get disjoint ID ranges so inserts
    /// re-executed on different workers cannot collide after merging.
    pub fn raise_synthetic_id_watermark(&mut self, to: i64) {
        self.next_synthetic_row_id = self.next_synthetic_row_id.max(to);
    }

    /// A canonical dump of the application-visible state of every table in
    /// the current generation at the present time: bookkeeping columns are
    /// stripped and rows are sorted, so two databases that applications
    /// cannot distinguish dump identically (used to assert that the parallel
    /// repair engine ends in the same state as the sequential one).
    pub fn canonical_dump(&mut self) -> String {
        let mut out = String::new();
        for (table, cfg) in &self.configs {
            let Some(t) = self.db.table(table) else {
                continue;
            };
            let keep: Vec<usize> = t
                .schema
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.name.starts_with("warp_"))
                .map(|(i, _)| i)
                .collect();
            let mut rendered: Vec<String> = t
                .rows()
                .iter()
                .filter(|row| cfg.layout.valid_at(row, INF_TIME - 1, self.current_gen))
                .map(|row| {
                    keep.iter()
                        .map(|&i| row[i].as_display_string())
                        .collect::<Vec<_>>()
                        .join("\u{1f}")
                })
                .collect();
            rendered.sort_unstable();
            out.push_str(&format!("== {table} ==\n"));
            for r in rendered {
                out.push_str(&r);
                out.push('\n');
            }
        }
        out
    }

    /// Removes row versions that ended before `before_time` and are not
    /// visible in the current generation. Run in sync with action-history
    /// garbage collection (paper §4.2).
    pub fn garbage_collect(&mut self, before_time: Timestamp) -> SqlResult<usize> {
        // The history that survives holds, in full, every query text whose
        // shape is worth a plan; the next execution of each rebuilds it.
        self.plans.clear();
        let mut removed = 0;
        for (table, cfg) in &self.configs {
            let layout = &cfg.layout;
            let old: Vec<usize> = (self.stored(table)?.rows().iter().enumerate())
                .filter(|(_, row)| {
                    cmp(&row[layout.end_time], before_time).is_some_and(Ordering::is_le)
                        || cmp(&row[layout.end_gen], self.current_gen).is_some_and(Ordering::is_lt)
                })
                .map(|(pos, _)| pos)
                .collect();
            removed += self.db.remove_rows_at(table, &old)? as usize;
        }
        Ok(removed)
    }

    /// Storage statistics for the whole database.
    pub fn storage_stats(&self) -> StorageStats {
        let mut stats = StorageStats {
            approximate_bytes: self.db.approximate_bytes(),
            ..Default::default()
        };
        for table in self.configs.keys() {
            if let Some(t) = self.db.table(table) {
                stats.total_versions += t.len();
                let end_time_idx = t.schema.column_index(COL_END_TIME);
                let end_gen_idx = t.schema.column_index(COL_END_GEN);
                for row in t.rows() {
                    let current_time = end_time_idx
                        .and_then(|i| row.get(i))
                        .and_then(|v| v.as_int())
                        .map(|v| v == INF_TIME)
                        .unwrap_or(false);
                    let current_gen = end_gen_idx
                        .and_then(|i| row.get(i))
                        .and_then(|v| v.as_int())
                        .map(|v| v >= self.current_gen)
                        .unwrap_or(false);
                    if current_time && current_gen {
                        stats.live_rows += 1;
                    }
                }
            }
        }
        stats
    }
}

/// Rows arriving from outside the engine (a checkpoint, a replayed or merged
/// diff) must have the table's width before they reach storage.
fn check_arity<'r>(
    t: &warp_sql::Table,
    rows: impl IntoIterator<Item = &'r Vec<Value>>,
) -> SqlResult<()> {
    let width = t.schema.columns.len();
    match rows.into_iter().find(|row| row.len() != width) {
        None => Ok(()),
        Some(row) => Err(SqlError::Execution(format!(
            "row of {} values for the {width} columns of {}",
            row.len(),
            t.schema.name
        ))),
    }
}

/// Appends raw engine capture into a parked change map (both sides stay
/// un-netted; netting happens once, at drain time).
fn merge_changes(
    into: &mut BTreeMap<String, warp_sql::TableChanges>,
    from: BTreeMap<String, warp_sql::TableChanges>,
) {
    for (table, changes) in from {
        let entry = into.entry(table).or_default();
        entry.removed.extend(changes.removed);
        entry.added.extend(changes.added);
    }
}

/// Soundness guard (debug builds only): every column the engine actually
/// resolved while evaluating an application statement's read phase must be
/// in the statement's static read footprint. Warp's own bookkeeping columns
/// are injected by query rewriting and are exempt.
#[cfg(debug_assertions)]
fn assert_observed_subset(
    what: &str,
    observed: Option<std::collections::BTreeSet<String>>,
    static_read: &ColumnSet,
) {
    let Some(observed) = observed else { return };
    for col in observed {
        if col.starts_with("warp_") {
            continue;
        }
        assert!(
            static_read.contains(&col),
            "column-footprint soundness violation: {what} dynamically read column `{col}`, \
             which is missing from its static read set {static_read}"
        );
    }
}

/// Removes Warp's bookkeeping columns from an application-visible result.
fn strip_warp_columns(result: &mut QueryResult) {
    let keep: Vec<usize> = result
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.starts_with("warp_"))
        .map(|(i, _)| i)
        .collect();
    if keep.len() == result.columns.len() {
        return;
    }
    result.columns = keep.iter().map(|&i| result.columns[i].clone()).collect();
    for row in &mut result.rows {
        *row = keep.iter().map(|&i| row[i].clone()).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_db() -> TimeTravelDb {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, owner TEXT, body TEXT)",
            TableAnnotation::new().row_id("page_id").partitions(["title", "owner"]),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_table_installs_bookkeeping_columns() {
        let db = page_db();
        let schema = db.raw().schema("page").unwrap();
        for col in [COL_START_TIME, COL_END_TIME, COL_START_GEN, COL_END_GEN] {
            assert!(schema.has_column(col), "missing {col}");
        }
        assert!(
            !schema.has_column(COL_ROW_ID),
            "natural row id should be used"
        );
        // Unique constraints were extended with the versioning columns.
        assert!(schema
            .unique_constraints
            .iter()
            .all(|uc| uc.iter().any(|c| c == COL_END_TIME)));
        assert_eq!(db.row_id_column("page"), Some("page_id"));
        assert_eq!(db.annotation_lines(), 3);
    }

    #[test]
    fn synthetic_row_id_added_when_not_annotated() {
        let mut db = TimeTravelDb::new();
        db.create_table("CREATE TABLE log (msg TEXT)", TableAnnotation::new())
            .unwrap();
        assert!(db.raw().schema("log").unwrap().has_column(COL_ROW_ID));
        let out = db
            .execute_logged("INSERT INTO log (msg) VALUES ('a'), ('b')", 1)
            .unwrap();
        assert_eq!(
            out.dependency.written_row_ids,
            vec![Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn missing_row_id_or_partition_column_is_rejected() {
        let mut db = TimeTravelDb::new();
        assert!(db
            .create_table(
                "CREATE TABLE t (a TEXT)",
                TableAnnotation::new().row_id("nope")
            )
            .is_err());
        let mut db = TimeTravelDb::new();
        assert!(db
            .create_table(
                "CREATE TABLE t (a TEXT)",
                TableAnnotation::new().partitions(["nope"])
            )
            .is_err());
    }

    #[test]
    fn versioning_preserves_history() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        db.execute_logged("UPDATE page SET body = 'v2' WHERE page_id = 1", 20)
            .unwrap();
        db.execute_logged("UPDATE page SET body = 'v3' WHERE page_id = 1", 30)
            .unwrap();
        let now = db
            .execute_logged("SELECT body FROM page WHERE page_id = 1", 40)
            .unwrap();
        assert_eq!(now.result.rows[0][0], Value::text("v3"));
        assert_eq!(
            db.select_at("SELECT body FROM page WHERE page_id = 1", 15)
                .unwrap()
                .rows[0][0],
            Value::text("v1")
        );
        assert_eq!(
            db.select_at("SELECT body FROM page WHERE page_id = 1", 25)
                .unwrap()
                .rows[0][0],
            Value::text("v2")
        );
        // Exactly at the update boundary the new version is visible (half-open).
        assert_eq!(
            db.select_at("SELECT body FROM page WHERE page_id = 1", 20)
                .unwrap()
                .rows[0][0],
            Value::text("v2")
        );
        // Three versions are stored, one live.
        let stats = db.storage_stats();
        assert_eq!(stats.total_versions, 3);
        assert_eq!(stats.live_rows, 1);
    }

    #[test]
    fn delete_ends_the_version_but_keeps_history() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        let del = db
            .execute_logged("DELETE FROM page WHERE title = 'Main'", 20)
            .unwrap();
        assert_eq!(del.result.affected, 1);
        assert_eq!(del.dependency.written_row_ids, vec![Value::Int(1)]);
        assert!(db
            .execute_logged("SELECT * FROM page WHERE title = 'Main'", 30)
            .unwrap()
            .result
            .rows
            .is_empty());
        assert_eq!(
            db.select_at("SELECT body FROM page WHERE title = 'Main'", 15)
                .unwrap()
                .rows
                .len(),
            1
        );
    }

    #[test]
    fn select_results_hide_warp_columns() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        let out = db.execute_logged("SELECT * FROM page", 20).unwrap();
        assert!(out.result.columns.iter().all(|c| !c.starts_with("warp_")));
        assert_eq!(out.result.columns.len(), 4);
    }

    #[test]
    fn dependencies_record_partitions_and_row_ids() {
        let mut db = page_db();
        let ins = db
            .execute_logged(
                "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
                10,
            )
            .unwrap();
        assert!(ins.dependency.is_write);
        match &ins.dependency.write_partitions {
            PartitionSet::Keys(keys) => assert_eq!(keys.len(), 2),
            other => panic!("expected keys, got {other:?}"),
        }
        let sel = db
            .execute_logged("SELECT body FROM page WHERE title = 'Main'", 20)
            .unwrap();
        assert!(!sel.dependency.is_write);
        match &sel.dependency.read_partitions {
            PartitionSet::Keys(keys) => assert_eq!(keys.len(), 1),
            other => panic!("expected keys, got {other:?}"),
        }
        let scan = db.execute_logged("SELECT body FROM page", 21).unwrap();
        assert!(matches!(
            scan.dependency.read_partitions,
            PartitionSet::Whole { .. }
        ));
        // An update that moves a row across partitions records both values.
        let upd = db
            .execute_logged("UPDATE page SET owner = 'bob' WHERE title = 'Main'", 30)
            .unwrap();
        match &upd.dependency.write_partitions {
            PartitionSet::Keys(keys) => {
                let owners: Vec<_> = keys.iter().filter(|k| k.column == "owner").collect();
                assert_eq!(owners.len(), 2, "old and new owner partitions: {keys:?}");
            }
            other => panic!("expected keys, got {other:?}"),
        }
    }

    #[test]
    fn unique_violations_still_surface_to_the_application() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        let err = db
            .execute_logged(
                "INSERT INTO page (page_id, title, owner, body) VALUES (2, 'Main', 'bob', 'x')",
                20,
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }));
        // But updating the same row repeatedly is fine even though historical
        // versions share the title.
        db.execute_logged("UPDATE page SET body = 'v2' WHERE title = 'Main'", 30)
            .unwrap();
        db.execute_logged("UPDATE page SET body = 'v3' WHERE title = 'Main'", 40)
            .unwrap();
    }

    #[test]
    fn ddl_at_runtime_is_rejected() {
        let mut db = page_db();
        assert!(db.execute_logged("DROP TABLE page", 10).is_err());
        assert!(db.execute_logged("CREATE TABLE x (a TEXT)", 10).is_err());
    }

    #[test]
    fn texts_of_one_shape_share_one_plan() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1'), (2, 'Help', 'bob', 'h1')",
            10,
        )
        .unwrap();
        let main = db
            .plan("SELECT body FROM page WHERE title = 'Main'")
            .unwrap();
        let help = db
            .plan("select body from page where title = 'Help'")
            .unwrap();
        let again = db
            .plan("SELECT  body FROM page WHERE title='Help' -- same")
            .unwrap();
        assert!(!Arc::ptr_eq(main.plan(), help.plan()), "spelling is shape");
        assert!(Arc::ptr_eq(main.plan(), again.plan()));
        assert_eq!(db.planned_shapes(), 3);
        // The plans are derived state: a clone shares them, collection
        // drops them, the next text rebuilds them.
        let twin = db.clone();
        assert!(Arc::ptr_eq(
            &twin.plans[&"SELECT body FROM page WHERE title = ?s".to_string()],
            main.plan()
        ));
        db.garbage_collect(0).unwrap();
        assert_eq!(db.planned_shapes(), 0);
        let rebuilt = db
            .plan("SELECT body FROM page WHERE title = 'Main'")
            .unwrap();
        assert!(!Arc::ptr_eq(main.plan(), rebuilt.plan()));
        assert_eq!(db.planned_shapes(), 1);
        // A text that does not parse, runtime DDL and a missing table plan
        // nothing.
        assert!(db.plan("SELECT body FROM page WHERE").is_err());
        assert!(db.execute_logged("DROP TABLE page", 20).is_err());
        assert!(db.execute_logged("SELECT a FROM nosuch", 20).is_err());
        assert_eq!(db.planned_shapes(), 1);
    }

    #[test]
    fn a_planned_query_executes_again_at_another_time() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        db.execute_logged("UPDATE page SET body = 'v2' WHERE title = 'Main'", 20)
            .unwrap();
        let mut read = db
            .plan("SELECT body FROM page WHERE title = 'Main'")
            .unwrap();
        let gen = db.current_generation();
        for (time, body) in [(15, "v1"), (25, "v2"), (12, "v1")] {
            let out = db.execute_planned(&mut read, time, gen).unwrap();
            assert_eq!(out.result.rows[0][0], Value::text(body));
            assert_eq!(
                out.dependency.read_partitions,
                PartitionSet::Keys(
                    [crate::PartitionKey::new(
                        "page",
                        "title",
                        &Value::text("Main")
                    )]
                    .into()
                )
            );
        }
        // An INSERT allocating synthetic row IDs takes fresh ones each time.
        db.create_table("CREATE TABLE log (msg TEXT)", TableAnnotation::new())
            .unwrap();
        let mut insert = db
            .plan("INSERT INTO log (msg) VALUES ('a'), ('b')")
            .unwrap();
        let first = db.execute_planned(&mut insert, 30, gen).unwrap();
        let second = db.execute_planned(&mut insert, 31, gen).unwrap();
        assert_eq!(
            first.dependency.written_row_ids,
            vec![Value::Int(1), Value::Int(2)]
        );
        assert_eq!(
            second.dependency.written_row_ids,
            vec![Value::Int(3), Value::Int(4)]
        );
        let all = db.execute_logged("SELECT msg FROM log", 40).unwrap();
        assert_eq!(all.result.rows.len(), 4);
    }

    #[test]
    fn rollback_rows_restores_old_version() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        db.execute_logged("UPDATE page SET body = 'attacked' WHERE page_id = 1", 20)
            .unwrap();
        let gen = db.begin_repair_generation();
        db.rollback_rows("page", &[Value::Int(1)], 20, gen).unwrap();
        // In the repair generation the row is back to v1.
        let stmt = warp_sql::parse("SELECT body FROM page WHERE page_id = 1").unwrap();
        let repaired = db.execute_stmt_logged(&stmt, 100, gen).unwrap();
        assert_eq!(repaired.result.rows[0][0], Value::text("v1"));
        // The current generation still sees the attacked value until the
        // repair generation is finalized.
        let current = db
            .execute_logged("SELECT body FROM page WHERE page_id = 1", 100)
            .unwrap();
        assert_eq!(current.result.rows[0][0], Value::text("attacked"));
        db.finalize_repair_generation();
        let after = db
            .execute_logged("SELECT body FROM page WHERE page_id = 1", 110)
            .unwrap();
        assert_eq!(after.result.rows[0][0], Value::text("v1"));
    }

    #[test]
    fn rollback_of_inserted_row_removes_it_from_repair_generation() {
        let mut db = page_db();
        db.execute_logged("INSERT INTO page (page_id, title, owner, body) VALUES (7, 'Evil', 'mallory', 'attack')", 50).unwrap();
        let gen = db.begin_repair_generation();
        db.rollback_rows("page", &[Value::Int(7)], 50, gen).unwrap();
        let stmt = warp_sql::parse("SELECT * FROM page WHERE page_id = 7").unwrap();
        assert!(db
            .execute_stmt_logged(&stmt, 100, gen)
            .unwrap()
            .result
            .rows
            .is_empty());
        // Still present in the pre-repair generation.
        assert_eq!(
            db.execute_logged("SELECT * FROM page WHERE page_id = 7", 100)
                .unwrap()
                .result
                .rows
                .len(),
            1
        );
        db.finalize_repair_generation();
        assert!(db
            .execute_logged("SELECT * FROM page WHERE page_id = 7", 120)
            .unwrap()
            .result
            .rows
            .is_empty());
    }

    #[test]
    fn abort_repair_discards_repair_changes() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        let gen = db.begin_repair_generation();
        let stmt =
            warp_sql::parse("UPDATE page SET body = 'repair-edit' WHERE page_id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 60, gen).unwrap();
        db.abort_repair_generation().unwrap();
        db.check_indexes().unwrap();
        let now = db
            .execute_logged("SELECT body FROM page WHERE page_id = 1", 70)
            .unwrap();
        assert_eq!(now.result.rows[0][0], Value::text("v1"));
        assert!(db.repair_generation().is_none());
    }

    /// Restoring the version a repair-generation write preserved collides
    /// with a row the current generation inserted meanwhile: the abort
    /// fails, and fails whole.
    #[test]
    fn a_failed_abort_changes_nothing() {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, slug TEXT UNIQUE)",
            TableAnnotation::new().row_id("id"),
        )
        .unwrap();
        db.execute_logged("INSERT INTO item (id, slug) VALUES (1, 'a')", 10)
            .unwrap();
        let gen = db.begin_repair_generation();
        let stmt = warp_sql::parse("UPDATE item SET slug = 'b' WHERE id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 20, gen).unwrap();
        // No write can make the restore collide any more (the current
        // generation refuses a second 'a'), so a stored version the
        // generations do not account for is put in place directly.
        let layout = db.configs["item"].layout.clone();
        let mut stray = db.raw().table("item").unwrap().rows()[0].clone();
        stray[0] = Value::Int(2);
        stray[1] = Value::text("a");
        stray[layout.end_time] = Value::Int(INF_TIME);
        stray[layout.start_gen] = Value::Int(0);
        stray[layout.end_gen] = Value::Int(INF_GEN);
        db.apply_row_diff("item", &[], &[stray]).unwrap();
        let before = db.clone();
        let err = db.abort_repair_generation().unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }), "{err}");
        assert_eq!(
            format!("{:?}", db.raw().table("item").unwrap().rows()),
            format!("{:?}", before.raw().table("item").unwrap().rows())
        );
        assert_eq!(db.repair_generation(), Some(gen));
        assert_eq!(
            format!("{:?}", db.db.take_change_capture()),
            format!("{:?}", before.clone().db.take_change_capture())
        );
        db.check_indexes().unwrap();
    }

    #[test]
    fn writes_during_repair_do_not_disturb_current_generation() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        let gen = db.begin_repair_generation();
        let stmt = warp_sql::parse("UPDATE page SET body = 'repaired' WHERE page_id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 15, gen).unwrap();
        // Normal execution (current generation) still sees v1 and can write.
        assert_eq!(
            db.execute_logged("SELECT body FROM page WHERE page_id = 1", 30)
                .unwrap()
                .result
                .rows[0][0],
            Value::text("v1")
        );
        db.finalize_repair_generation();
        assert_eq!(
            db.execute_logged("SELECT body FROM page WHERE page_id = 1", 40)
                .unwrap()
                .result
                .rows[0][0],
            Value::text("repaired")
        );
    }

    #[test]
    fn garbage_collect_removes_old_versions() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        for t in 0..5 {
            db.execute_logged(
                &format!("UPDATE page SET body = 'v{}' WHERE page_id = 1", t + 2),
                20 + t,
            )
            .unwrap();
        }
        let before = db.storage_stats().total_versions;
        assert!(before >= 6);
        let removed = db.garbage_collect(24).unwrap();
        assert!(removed > 0);
        db.check_indexes().unwrap();
        let after = db.storage_stats();
        assert!(after.total_versions < before);
        assert_eq!(after.live_rows, 1);
        // The current value is untouched.
        assert_eq!(
            db.execute_logged("SELECT body FROM page WHERE page_id = 1", 100)
                .unwrap()
                .result
                .rows[0][0],
            Value::text("v6")
        );
    }

    /// The canonical dump must actually contain the live rows — it is the
    /// foundation of every engine-equivalence assertion, and an exact-int
    /// comparison regression at `INF_TIME` once silently emptied it (all
    /// dump comparisons then vacuously passed on empty strings).
    #[test]
    fn canonical_dump_contains_live_rows() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1'), (2, 'Help', 'bob', 'h1')",
            10,
        )
        .unwrap();
        db.execute_logged("UPDATE page SET body = 'v2' WHERE page_id = 1", 20)
            .unwrap();
        let dump = db.canonical_dump();
        assert!(dump.contains("== page =="), "{dump:?}");
        assert!(dump.contains("v2"), "current version present: {dump:?}");
        assert!(dump.contains("h1"), "{dump:?}");
        assert!(!dump.contains("v1"), "superseded version absent: {dump:?}");
        assert_eq!(dump.lines().count(), 3, "{dump:?}");
    }

    /// The tracked repair delta must equal what snapshot-diffing the whole
    /// table produces — byte for byte.
    #[test]
    fn drained_repair_delta_matches_snapshot_diff() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1'), (2, 'Help', 'bob', 'h1')",
            10,
        )
        .unwrap();
        db.execute_logged("UPDATE page SET body = 'attacked' WHERE page_id = 1", 20)
            .unwrap();
        let before = db.table_rows_snapshot("page");
        let gen = db.begin_repair_generation();
        db.rollback_rows("page", &[Value::Int(1)], 20, gen).unwrap();
        let stmt = warp_sql::parse("UPDATE page SET body = 'repaired' WHERE page_id = 2").unwrap();
        db.execute_stmt_logged(&stmt, 30, gen).unwrap();
        db.finalize_repair_generation();
        let delta = db.drain_repair_delta();
        let after = db.table_rows_snapshot("page");
        let reference = crate::delta::row_diff(&before, &after);
        assert!(!reference.is_empty());
        assert_eq!(delta.get("page"), Some(&reference));
        assert_eq!(delta.len(), 1, "untouched tables must not appear");
        // Draining again yields nothing.
        assert!(db.drain_repair_delta().is_empty());
    }

    #[test]
    fn aborted_repair_discards_the_tracked_delta() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        let gen = db.begin_repair_generation();
        let stmt = warp_sql::parse("UPDATE page SET body = 'edit' WHERE page_id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 20, gen).unwrap();
        db.abort_repair_generation().unwrap();
        assert!(db.drain_repair_delta().is_empty());
    }

    #[test]
    fn apply_row_diff_records_only_actual_removals() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        let real = db.table_rows_snapshot("page")[0].clone();
        let mut phantom = real.clone();
        phantom[0] = Value::Int(99);
        db.begin_repair_generation();
        db.apply_row_diff("page", &[real.clone(), phantom.clone()], &[phantom.clone()])
            .unwrap();
        db.check_indexes().unwrap();
        // The merged-in row is reachable through the index it landed in.
        let stmt = warp_sql::parse("SELECT title FROM page WHERE page_id = 99").unwrap();
        let found = db.execute_stmt_logged(&stmt, 20, 0).unwrap();
        assert_eq!(found.result.rows, vec![vec![Value::text("Main")]]);
        // Rows of the wrong width never reach storage.
        assert!(db
            .apply_row_diff("page", &[], &[vec![Value::Int(1)]])
            .is_err());
        let delta = db.drain_repair_delta();
        let page = &delta["page"];
        // The phantom removal matched nothing, so the net effect is:
        // remove the real row, add the phantom row.
        assert_eq!(page.remove, vec![real]);
        assert_eq!(page.add, vec![phantom]);
    }

    #[test]
    fn partition_scoped_clone_keeps_only_matching_rows() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES \
             (1, 'A', 'alice', 'x'), (2, 'B', 'bob', 'y'), (3, 'C', 'carol', 'z')",
            10,
        )
        .unwrap();
        let mut keys = std::collections::BTreeSet::new();
        keys.insert(crate::PartitionKey::new("page", "title", &Value::text("B")));
        let mut scope = BTreeMap::new();
        scope.insert("page".to_string(), RowScope::Partitions(keys));
        let clone = db.clone_subset(&scope);
        clone.check_indexes().unwrap();
        let rows = clone.table_rows_snapshot("page");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(2));
        // AllRows keeps everything; absent tables keep nothing.
        let mut scope = BTreeMap::new();
        scope.insert("page".to_string(), RowScope::AllRows);
        assert_eq!(db.clone_subset(&scope).table_rows_snapshot("page").len(), 3);
        let empty = db.clone_subset(&BTreeMap::new());
        assert!(empty.table_rows_snapshot("page").is_empty());
        // Tables cloned without rows keep their indexes for later inserts.
        empty.check_indexes().unwrap();
    }

    /// A partition scope selects rows by the *rendered* partition value, so
    /// NULL (rendered empty), numeric and boolean partition values must come
    /// through the index exactly as they came through the whole-table filter,
    /// in storage order.
    #[test]
    fn partition_scoped_clone_matches_rendered_values_of_any_type() {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE item (item_id INTEGER PRIMARY KEY, tag TEXT)",
            TableAnnotation::new().row_id("item_id").partitions(["tag"]),
        )
        .unwrap();
        db.execute_logged(
            "INSERT INTO item (item_id, tag) VALUES (1, 7), (2, '7'), (3, NULL), (4, ''), \
             (5, 2.5), (6, TRUE), (7, 'other'), (8, 1), (9, 1152921504606846976.0)",
            10,
        )
        .unwrap();
        let ids_for = |values: &[&str]| -> Vec<Value> {
            let keys = values
                .iter()
                .map(|v| crate::PartitionKey {
                    table: "item".into(),
                    column: "tag".into(),
                    value: (*v).to_string(),
                })
                .collect();
            let mut scope = BTreeMap::new();
            scope.insert("item".to_string(), RowScope::Partitions(keys));
            let clone = db.clone_subset(&scope);
            clone.check_indexes().unwrap();
            let rows = clone.table_rows_snapshot("item");
            rows.iter().map(|r| r[0].clone()).collect()
        };
        let ints = |ids: &[i64]| ids.iter().map(|i| Value::Int(*i)).collect::<Vec<_>>();
        assert_eq!(ids_for(&["7"]), ints(&[1, 2]));
        assert_eq!(ids_for(&[""]), ints(&[3, 4]));
        assert_eq!(ids_for(&["2.5", "true"]), ints(&[5, 6]));
        // `1` and TRUE share an index bucket but render differently.
        assert_eq!(ids_for(&["1"]), ints(&[8]));
        assert_eq!(ids_for(&["other", "7", "nothing"]), ints(&[1, 2, 7]));
        // A large Float renders rounded digits (2^60 as ...847000).
        assert_eq!(ids_for(&["1152921504606847000"]), ints(&[9]));
    }

    #[test]
    fn replace_table_rows_rebuilds_the_indexes() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES \
             (1, 'A', 'alice', 'x'), (2, 'B', 'bob', 'y')",
            10,
        )
        .unwrap();
        let mut rows = db.table_rows_snapshot("page");
        rows.reverse();
        rows[0][1] = Value::text("B2");
        db.replace_table_rows("page", rows).unwrap();
        db.check_indexes().unwrap();
        let by_new = db.execute_logged("SELECT page_id FROM page WHERE title = 'B2'", 20);
        assert_eq!(by_new.unwrap().result.rows, vec![vec![Value::Int(2)]]);
        let by_old = db.execute_logged("SELECT page_id FROM page WHERE title = 'B'", 20);
        assert!(by_old.unwrap().result.rows.is_empty());
        assert!(db
            .replace_table_rows("page", vec![vec![Value::Int(1)]])
            .is_err());
    }

    #[test]
    fn row_scope_union_absorbs() {
        let key = |t: &str| {
            let mut s = std::collections::BTreeSet::new();
            s.insert(crate::PartitionKey::new("page", "title", &Value::text(t)));
            s
        };
        let mut scope = RowScope::Partitions(key("A"));
        scope.union_with(&RowScope::Partitions(key("B")));
        assert!(matches!(&scope, RowScope::Partitions(s) if s.len() == 2));
        scope.union_with(&RowScope::AllRows);
        assert!(matches!(scope, RowScope::AllRows));
        scope.union_with(&RowScope::Partitions(key("C")));
        assert!(matches!(scope, RowScope::AllRows));
    }

    /// The checkpoint tracker must produce exactly the delta that
    /// snapshot-diffing the stored rows across the same span would.
    #[test]
    fn checkpoint_capture_matches_snapshot_diff() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        db.enable_checkpoint_capture();
        let before = db.table_rows_snapshot("page");
        db.execute_logged("UPDATE page SET body = 'v2' WHERE page_id = 1", 20)
            .unwrap();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (2, 'Help', 'bob', 'h1')",
            30,
        )
        .unwrap();
        let delta = db.drain_checkpoint_delta();
        let after = db.table_rows_snapshot("page");
        let reference = crate::delta::row_diff(&before, &after);
        assert_eq!(delta.get("page"), Some(&reference));
        // Draining re-arms: the next span is tracked independently.
        assert!(db.drain_checkpoint_delta().is_empty());
        db.execute_logged("DELETE FROM page WHERE page_id = 2", 40)
            .unwrap();
        assert!(!db.drain_checkpoint_delta().is_empty());
    }

    /// A committed repair's physical changes land in the checkpoint delta
    /// alongside normal-execution changes from the same span.
    #[test]
    fn checkpoint_capture_includes_committed_repairs() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1'), (2, 'Help', 'bob', 'h1')",
            10,
        )
        .unwrap();
        db.execute_logged("UPDATE page SET body = 'attacked' WHERE page_id = 1", 20)
            .unwrap();
        db.enable_checkpoint_capture();
        let before = db.table_rows_snapshot("page");
        // Normal-execution change before the repair begins.
        db.execute_logged("UPDATE page SET body = 'h2' WHERE page_id = 2", 25)
            .unwrap();
        let gen = db.begin_repair_generation();
        db.rollback_rows("page", &[Value::Int(1)], 20, gen).unwrap();
        db.finalize_repair_generation();
        let repair_delta = db.drain_repair_delta();
        // The repair delta holds only the repair's effect (page 1)...
        assert!(repair_delta["page"]
            .add
            .iter()
            .chain(&repair_delta["page"].remove)
            .all(|r| r[0] == Value::Int(1)));
        // ...while the checkpoint delta covers the whole span.
        let delta = db.drain_checkpoint_delta();
        let after = db.table_rows_snapshot("page");
        let reference = crate::delta::row_diff(&before, &after);
        assert_eq!(delta.get("page"), Some(&reference));
    }

    /// An aborted repair's churn nets out of the checkpoint delta: the
    /// capture stays armed through the abort cleanup, so the mutations and
    /// their undoing cancel.
    #[test]
    fn aborted_repair_nets_out_of_the_checkpoint_delta() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        db.enable_checkpoint_capture();
        let before = db.table_rows_snapshot("page");
        let gen = db.begin_repair_generation();
        let stmt = warp_sql::parse("UPDATE page SET body = 'edit' WHERE page_id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 20, gen).unwrap();
        db.abort_repair_generation().unwrap();
        assert!(db.drain_repair_delta().is_empty());
        let delta = db.drain_checkpoint_delta();
        let after = db.table_rows_snapshot("page");
        let reference = crate::delta::row_diff(&before, &after);
        assert!(reference.is_empty(), "abort restores the stored rows");
        assert!(
            delta.is_empty(),
            "nothing net survives the abort: {delta:?}"
        );
        // The tracker is still armed afterwards.
        db.execute_logged("UPDATE page SET body = 'v2' WHERE page_id = 1", 30)
            .unwrap();
        assert!(!db.drain_checkpoint_delta().is_empty());
    }

    /// A checkpoint cut while a repair is in flight must not contain the
    /// uncommitted repair's mutations (they are absent from the durable
    /// log the checkpoint summarises).
    #[test]
    fn checkpoint_cut_mid_repair_excludes_uncommitted_changes() {
        let mut db = page_db();
        db.execute_logged(
            "INSERT INTO page (page_id, title, owner, body) VALUES (1, 'Main', 'alice', 'v1')",
            10,
        )
        .unwrap();
        db.enable_checkpoint_capture();
        db.execute_logged("UPDATE page SET body = 'v2' WHERE page_id = 1", 20)
            .unwrap();
        let pre_repair = db.table_rows_snapshot("page");
        let gen = db.begin_repair_generation();
        let stmt = warp_sql::parse("UPDATE page SET body = 'repaired' WHERE page_id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 15, gen).unwrap();
        // Cut mid-repair: only the pre-repair normal change is present.
        let delta = db.drain_checkpoint_delta();
        let all_versions: Vec<Vec<Value>> = delta["page"].add.to_vec();
        assert!(
            all_versions
                .iter()
                .all(|r| r.iter().all(|v| v != &Value::text("repaired"))),
            "uncommitted repair rows leaked into the checkpoint: {delta:?}"
        );
        assert!(!delta.is_empty(), "the pre-repair change is present");
        // Once committed and drained, the repair reaches the next checkpoint.
        db.finalize_repair_generation();
        let _ = db.drain_repair_delta();
        let delta = db.drain_checkpoint_delta();
        let after = db.table_rows_snapshot("page");
        // Folding both checkpoint deltas over the pre-repair snapshot is not
        // directly expressible here; it suffices that the second delta turns
        // the mid-repair state into the final state.
        let reference = crate::delta::row_diff(&pre_repair, &after);
        assert_eq!(delta.get("page"), Some(&reference));
    }

    #[test]
    fn multi_row_update_versions_every_matched_row() {
        let mut db = page_db();
        db.execute_logged("INSERT INTO page (page_id, title, owner, body) VALUES (1, 'A', 'alice', 'x'), (2, 'B', 'alice', 'y'), (3, 'C', 'bob', 'z')", 10).unwrap();
        let out = db
            .execute_logged(
                "UPDATE page SET body = body || '!' WHERE owner = 'alice'",
                20,
            )
            .unwrap();
        assert_eq!(out.result.affected, 2);
        assert_eq!(out.dependency.written_row_ids.len(), 2);
        let r = db
            .execute_logged("SELECT body FROM page ORDER BY page_id", 30)
            .unwrap();
        assert_eq!(
            r.result
                .rows
                .iter()
                .map(|r| r[0].as_display_string())
                .collect::<Vec<_>>(),
            vec!["x!", "y!", "z"]
        );
        // History for both updated rows exists.
        assert_eq!(
            db.select_at(
                "SELECT body FROM page WHERE owner = 'alice' ORDER BY page_id",
                15
            )
            .unwrap()
            .rows
            .len(),
            2
        );
    }

    fn item_db() -> TimeTravelDb {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, slug TEXT UNIQUE)",
            TableAnnotation::new().row_id("id"),
        )
        .unwrap();
        db
    }

    /// The `(id, slug)` rows visible at `(time, gen)`, sorted.
    fn visible(db: &mut TimeTravelDb, time: Timestamp, gen: Generation) -> Vec<(i64, String)> {
        let mut query = db.plan("SELECT id, slug FROM item").unwrap();
        let mut rows: Vec<(i64, String)> = db
            .execute_planned(&mut query, time, gen)
            .unwrap()
            .result
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_display_string()))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn uniqueness_holds_across_an_open_repair_generation() {
        let mut db = item_db();
        db.execute_logged("INSERT INTO item (id, slug) VALUES (1, 'a')", 10)
            .unwrap();
        let gen = db.begin_repair_generation();
        let stmt = warp_sql::parse("UPDATE item SET slug = 'b' WHERE id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 20, gen).unwrap();
        // The current generation still sees (1, 'a').
        let err = db
            .execute_logged("INSERT INTO item (id, slug) VALUES (2, 'a')", 30)
            .unwrap_err();
        assert!(matches!(err, SqlError::UniqueViolation { .. }), "{err}");
        let err = db
            .execute_logged("UPDATE item SET slug = 'a' WHERE id = 1", 30)
            .map(|_| ());
        assert!(err.is_ok(), "a row may keep its own value: {err:?}");
        let current = db.current_generation();
        assert_eq!(visible(&mut db, 40, current), [(1, "a".into())]);
        assert_eq!(visible(&mut db, 40, gen), [(1, "b".into())]);
        assert!(db.take_held_out().is_empty());
        db.abort_repair_generation().unwrap();
        db.check_indexes().unwrap();
    }

    #[test]
    fn a_collision_only_the_repair_generation_sees_keeps_the_write_out_of_it() {
        let mut db = item_db();
        db.execute_logged("INSERT INTO item (id, slug) VALUES (1, 'a')", 10)
            .unwrap();
        db.execute_logged("INSERT INTO item (id, slug) VALUES (3, 'c')", 11)
            .unwrap();
        let gen = db.begin_repair_generation();
        let stmt = warp_sql::parse("UPDATE item SET slug = 'b' WHERE id = 1").unwrap();
        db.execute_stmt_logged(&stmt, 20, gen).unwrap();
        // 'b' is taken only in the repair generation: both writes succeed,
        // and neither version reaches the repair generation.
        db.execute_logged("INSERT INTO item (id, slug) VALUES (2, 'b')", 30)
            .unwrap();
        db.execute_logged("UPDATE item SET slug = 'b' WHERE id = 3", 31)
            .unwrap_err();
        db.execute_logged("DELETE FROM item WHERE id = 2", 32)
            .unwrap();
        db.execute_logged("UPDATE item SET slug = 'b' WHERE id = 3", 33)
            .unwrap();
        let current = db.current_generation();
        assert_eq!(
            visible(&mut db, 40, current),
            [(1, "a".into()), (3, "b".into())]
        );
        assert_eq!(
            visible(&mut db, 40, gen),
            [(1, "b".into()), (3, "c".into())]
        );
        let layout = db.configs["item"].layout.clone();
        let held: Vec<&Row> = (db.raw().table("item").unwrap().rows().iter())
            .filter(|r| r[0] == Value::Int(2) || r[1] == Value::text("b") && r[0] == Value::Int(3))
            .collect();
        assert!(
            held.iter()
                .all(|r| r[layout.end_gen] == Value::Int(current)),
            "{held:?}"
        );
        assert_eq!(
            db.take_held_out(),
            [
                ("item".to_string(), Value::Int(2)),
                ("item".to_string(), Value::Int(3))
            ]
        );
        db.check_indexes().unwrap();
        let mut aborted = db.clone();
        aborted.abort_repair_generation().unwrap();
        assert_eq!(
            visible(&mut aborted, 40, current),
            [(1, "a".into()), (3, "b".into())]
        );
        db.finalize_repair_generation();
        assert_eq!(
            visible(&mut db, 40, gen),
            [(1, "b".into()), (3, "c".into())]
        );
    }

    /// Interleaved current- and repair-generation inserts, updates and
    /// deletes, finalizes and aborts over seeded histories, against a model
    /// of what each generation sees: one map per generation, plus the rows
    /// the repair generation has forked (a current-generation write to one
    /// of those stays out of the repair generation).
    #[test]
    fn generations_match_a_two_map_model_over_random_histories() {
        let mut seen = [0usize; 6];
        for seed in 1..=40u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |n: u64| {
                rng ^= rng >> 12;
                rng ^= rng << 25;
                rng ^= rng >> 27;
                rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
            };
            let mut db = item_db();
            let mut cur: BTreeMap<i64, String> = BTreeMap::new();
            let mut rep: Option<BTreeMap<i64, String>> = None;
            let mut forked: std::collections::BTreeSet<i64> = Default::default();
            let (mut time, mut next_id) = (10, 1);
            for _ in 0..120 {
                time += 1;
                let slug = format!("s{}", next(6));
                let taken = |map: &BTreeMap<i64, String>, id: i64| {
                    map.iter().any(|(&other, s)| other != id && *s == slug)
                };
                let pick = |map: &BTreeMap<i64, String>, k: u64| {
                    map.keys().nth(k as usize % map.len().max(1)).copied()
                };
                let k = next(1000);
                match (next(10), rep.as_mut()) {
                    (0, None) => {
                        rep = Some(cur.clone());
                        forked.clear();
                        db.begin_repair_generation();
                    }
                    (0, Some(_)) if next(2) == 0 => {
                        cur = rep.take().unwrap();
                        db.finalize_repair_generation();
                    }
                    (0, Some(_)) => {
                        rep = None;
                        db.abort_repair_generation().unwrap();
                        seen[5] += 1;
                    }
                    (1..=3, _) => {
                        let id = next_id;
                        next_id += 1;
                        let out = db.execute_logged(
                            &format!("INSERT INTO item (id, slug) VALUES ({id}, '{slug}')"),
                            time,
                        );
                        if taken(&cur, id) {
                            assert!(matches!(out, Err(SqlError::UniqueViolation { .. })));
                            continue;
                        }
                        out.unwrap();
                        cur.insert(id, slug.clone());
                        if let Some(rep) = rep.as_mut() {
                            if taken(rep, id) {
                                forked.insert(id);
                                seen[0] += 1;
                            } else {
                                rep.insert(id, slug.clone());
                            }
                        }
                    }
                    (4..=5, _) => {
                        let Some(id) = pick(&cur, k) else { continue };
                        let out = db.execute_logged(
                            &format!("UPDATE item SET slug = '{slug}' WHERE id = {id}"),
                            time,
                        );
                        if taken(&cur, id) {
                            assert!(matches!(out, Err(SqlError::UniqueViolation { .. })));
                            seen[1] += 1;
                            continue;
                        }
                        out.unwrap();
                        cur.insert(id, slug.clone());
                        if let Some(rep) = rep.as_mut().filter(|_| !forked.contains(&id)) {
                            if taken(rep, id) {
                                forked.insert(id);
                                seen[2] += 1;
                            } else {
                                rep.insert(id, slug.clone());
                            }
                        }
                    }
                    (6, _) => {
                        let Some(id) = pick(&cur, k) else { continue };
                        db.execute_logged(&format!("DELETE FROM item WHERE id = {id}"), time)
                            .unwrap();
                        cur.remove(&id);
                        if let Some(rep) = rep.as_mut().filter(|_| !forked.contains(&id)) {
                            rep.remove(&id);
                        }
                    }
                    (_, None) => {}
                    (7..=8, Some(rep)) => {
                        let gen = db.repair_generation().unwrap();
                        let (sql, id) = match pick(rep, k).filter(|_| next(3) > 0) {
                            Some(id) => (
                                format!("UPDATE item SET slug = '{slug}' WHERE id = {id}"),
                                id,
                            ),
                            None => {
                                next_id += 1;
                                let id = next_id - 1;
                                (
                                    format!("INSERT INTO item (id, slug) VALUES ({id}, '{slug}')"),
                                    id,
                                )
                            }
                        };
                        let mut query = db.plan(&sql).unwrap();
                        let out = db.execute_planned(&mut query, time, gen);
                        if taken(rep, id) {
                            assert!(
                                matches!(out, Err(SqlError::UniqueViolation { .. })),
                                "{sql}"
                            );
                            // A refused UPDATE stops after forking the row.
                            if rep.contains_key(&id) {
                                forked.insert(id);
                            }
                            continue;
                        }
                        out.unwrap();
                        rep.insert(id, slug.clone());
                        forked.insert(id);
                        seen[3] += 1;
                    }
                    (_, Some(rep)) => {
                        let gen = db.repair_generation().unwrap();
                        let Some(id) = pick(rep, k) else { continue };
                        let mut query = db
                            .plan(&format!("DELETE FROM item WHERE id = {id}"))
                            .unwrap();
                        db.execute_planned(&mut query, time, gen).unwrap();
                        rep.remove(&id);
                        forked.insert(id);
                        seen[4] += 1;
                    }
                }
                let as_rows = |map: &BTreeMap<i64, String>| {
                    map.iter()
                        .map(|(&id, s)| (id, s.clone()))
                        .collect::<Vec<_>>()
                };
                let current = db.current_generation();
                assert_eq!(
                    visible(&mut db, time, current),
                    as_rows(&cur),
                    "seed {seed}"
                );
                if let (Some(rep), Some(gen)) = (&rep, db.repair_generation()) {
                    assert_eq!(visible(&mut db, time, gen), as_rows(rep), "seed {seed}");
                }
                db.check_indexes().unwrap();
            }
            db.take_held_out();
        }
        // Held-out inserts and updates, refused updates, repair writes and
        // deletes, and aborts each occurred.
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }
}
