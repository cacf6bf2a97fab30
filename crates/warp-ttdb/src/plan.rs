//! Prepared plans: what executing a statement needs that follows from its
//! *shape* alone.
//!
//! Application queries arrive as text, and the same few dozen statements
//! arrive again and again with different literals — when served, when
//! recovery or a standby replays them, when repair re-executes them.
//! [`warp_sql::prepare`] splits a text into its shape and its literals
//! without parsing it; per shape, the database keeps one [`Plan`]: the parsed
//! statement with a hole where each literal was, its table's configuration,
//! its static column footprint, which holes pin which partition columns, and
//! the time-travel rewrite with the execution's time and generation as two
//! more holes. An execution fills the holes by reference — it neither parses
//! nor analyses nor copies the statement.
//!
//! The plan table is derived state: a pure function of the shapes seen and
//! the tables' create-time annotations, so it is never persisted, compared
//! or invalidated, and dropping it (garbage collection does) is always safe.
//! A statement that arrives already parsed gets a one-off plan and runs
//! through the same executor.

use crate::rewrite::{and_valid, validity, Pin, Pins};
use crate::versioned::{
    TableConfig, TimeTravelDb, COL_END_GEN, COL_END_TIME, COL_ROW_ID, COL_START_GEN,
    COL_START_TIME, INF_GEN, INF_TIME,
};
use std::collections::BTreeMap;
use std::mem::Discriminant;
use std::sync::Arc;
use warp_sql::ast::Assignment;
use warp_sql::{ColumnSet, Expr, SqlError, Statement, Value};

/// The plan of one statement shape. See the [module documentation](self).
#[derive(Debug)]
pub struct Plan {
    kind: Discriminant<Statement>,
    is_write: bool,
    /// The table as the statement spells it (errors quote it verbatim).
    pub(crate) table: String,
    /// The table's lower-cased name.
    pub(crate) table_key: String,
    /// How many literals the shape has holes for. An execution's parameters
    /// are those literals, then its time, then its generation, then the last
    /// generation an `INSERT`'s versions are visible in (then, for an
    /// `INSERT` into a table with synthetic row IDs, the IDs it allocates).
    pub(crate) holes: usize,
    pub(crate) body: Body,
}

/// The executable part of a [`Plan`], by statement kind.
#[derive(Debug)]
pub(crate) enum Body {
    Select(SelectPlan),
    Insert(InsertPlan),
    Update(WritePlan),
    Delete(WritePlan),
    /// Executing the statement is this error: runtime DDL, or a table that
    /// does not exist (yet — such a plan is never kept).
    Rejected(SqlError),
}

#[derive(Debug)]
pub(crate) struct SelectPlan {
    /// The statement restricted to the versions valid at the execution's
    /// time and generation.
    pub(crate) stmt: Statement,
    pub(crate) pins: Pins,
    pub(crate) read_columns: ColumnSet,
}

#[derive(Debug)]
pub(crate) struct InsertPlan {
    pub(crate) cfg: Arc<TableConfig>,
    /// The application's column list and value rows, which the dependency
    /// record is computed from.
    pub(crate) columns: Vec<String>,
    pub(crate) values: Vec<Vec<Expr>>,
    /// Position of the natural row-ID column in `columns` (`None` for a
    /// synthetic row ID, or when the statement does not supply it).
    pub(crate) row_id_at: Option<usize>,
    /// The statement with the versioning columns (and a synthetic row ID)
    /// added to every row.
    pub(crate) stmt: Statement,
    pub(crate) read_columns: ColumnSet,
}

/// An `UPDATE` or a `DELETE`: which versions it matches, and what it
/// assigns to them.
#[derive(Debug)]
pub(crate) struct WritePlan {
    pub(crate) cfg: Arc<TableConfig>,
    /// The statement's `WHERE` clause restricted to the versions valid at
    /// the execution's time and generation.
    pub(crate) matching: Expr,
    /// The application's assignments (none for a `DELETE`).
    pub(crate) assignments: Vec<Assignment>,
    pub(crate) pins: Pins,
    pub(crate) read_columns: ColumnSet,
    /// [`ColumnSet::All`] for a `DELETE`: it changes row membership.
    pub(crate) write_columns: ColumnSet,
}

impl Plan {
    /// Plans a statement whose `holes` literals have been replaced by
    /// [`Expr::Param`]s `0..holes` (zero for a statement from
    /// [`warp_sql::parse`]).
    pub(crate) fn build(
        stmt: Statement,
        holes: usize,
        configs: &BTreeMap<String, Arc<TableConfig>>,
    ) -> Plan {
        let table = stmt.table_name().unwrap_or_default().to_string();
        let table_key = table.to_ascii_lowercase();
        let kind = std::mem::discriminant(&stmt);
        let is_write = stmt.is_write();
        let is_dml = matches!(
            stmt,
            Statement::Select(_)
                | Statement::Insert { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }
        );
        let body = if !is_dml {
            Body::Rejected(SqlError::Execution(format!(
                "applications may not issue DDL at runtime: {stmt}"
            )))
        } else {
            match configs.get(&table_key) {
                None => Body::Rejected(SqlError::NoSuchTable(table.clone())),
                Some(cfg) => Body::build(stmt, holes, cfg),
            }
        };
        Plan {
            kind,
            is_write,
            table,
            table_key,
            holes,
            body,
        }
    }

    /// True if executing the statement can modify stored data.
    pub fn is_write(&self) -> bool {
        self.is_write
    }

    /// True if `other` plans the same kind of statement against the same
    /// table — how a re-executed write is matched to an original one whose
    /// text differs.
    pub fn same_kind_and_table(&self, other: &Plan) -> bool {
        self.kind == other.kind && self.table_key == other.table_key
    }

    /// True if the plan may be kept for the shape's next execution: it
    /// depends on nothing that can change.
    pub(crate) fn is_reusable(&self) -> bool {
        !matches!(self.body, Body::Rejected(_))
    }

    /// The partitions an execution of this shape is confined to — each as
    /// table, partition column (both lower-cased) and what the shape pins
    /// the column to — if there are such: executions confined to disjoint
    /// partitions may then run concurrently against `db`, which planned the
    /// shape. Otherwise, the reason there are none.
    ///
    /// A read is confined to the partitions its `WHERE` clause pins, and a
    /// read of a table without partition columns to none: no write to such
    /// a table is confined, so it does not change under the read. A write
    /// must fix *every* partition column of the rows it writes — a row
    /// belongs to a partition per column — in its `WHERE` clause or, an
    /// `INSERT`, by a literal in each row; its table must be
    /// [clone-safe](TimeTravelDb::partition_clone_safe), so that uniqueness
    /// can only be violated within a partition; and it may not choose row
    /// IDs freely: an `UPDATE` assigns neither to the row ID nor to a
    /// partition column, an `INSERT` gives a literal natural row ID
    /// (synthetic ones come from one counter that concurrent executions
    /// would race for).
    pub fn shard_pins(&self, db: &TimeTravelDb) -> Result<Vec<(String, String, Pin)>, String> {
        let table = &self.table;
        let no = |why: &str| Err(format!("{why} {table}"));
        let partition_columns = db.partition_columns(table);
        let is_partition = |column: &str| {
            partition_columns
                .iter()
                .any(|p| p.eq_ignore_ascii_case(column))
        };
        let mut pins = Vec::new();
        match &self.body {
            Body::Rejected(e) => return Err(e.to_string()),
            Body::Select(SelectPlan { pins: pinned, .. })
            | Body::Update(WritePlan { pins: pinned, .. })
            | Body::Delete(WritePlan { pins: pinned, .. }) => {
                if let Pins::Columns(pinned) = pinned {
                    pins.clone_from(pinned);
                }
            }
            Body::Insert(insert) => {
                for row in &insert.values {
                    let values = insert.columns.iter().zip(row);
                    for (column, value) in values.filter(|(column, _)| is_partition(column)) {
                        let pin = match value {
                            Expr::Param(i) => Pin::Param(*i),
                            Expr::Literal(v) => Pin::Literal(v.clone()),
                            _ => return no("INSERT computes a partition value of"),
                        };
                        pins.push((column.to_ascii_lowercase(), pin));
                    }
                }
            }
        }
        if !self.is_write && pins.is_empty() && !partition_columns.is_empty() {
            return no("query does not pin a partition column of");
        }
        if self.is_write {
            if partition_columns.is_empty() {
                return no("write to unpartitioned table");
            }
            if !db.partition_clone_safe(table) {
                return no("a unique constraint lies outside the partition columns of");
            }
            let fixed = |p: &String| {
                pins.iter()
                    .any(|(column, _)| p.eq_ignore_ascii_case(column))
            };
            if !partition_columns.iter().all(fixed) {
                return no("write does not fix every partition column of");
            }
        }
        match &self.body {
            Body::Update(update) => {
                let row_id = &update.cfg.row_id_column;
                for Assignment { column, .. } in &update.assignments {
                    if is_partition(column) || column.eq_ignore_ascii_case(row_id) {
                        return no("UPDATE assigns to a partition or row-ID column of");
                    }
                }
            }
            Body::Insert(insert) => {
                let Some(row_id_at) = insert.row_id_at else {
                    return no("INSERT without an explicit row ID (synthetic IDs serialize) into");
                };
                for row in &insert.values {
                    match row.get(row_id_at) {
                        Some(Expr::Param(_)) => {}
                        Some(Expr::Literal(v)) if *v != Value::Null => {}
                        _ => return no("INSERT with a non-literal row ID into"),
                    }
                }
            }
            _ => {}
        }
        Ok(pins
            .into_iter()
            .map(|(column, pin)| (self.table_key.clone(), column, pin))
            .collect())
    }
}

impl Body {
    fn build(stmt: Statement, holes: usize, cfg: &Arc<TableConfig>) -> Body {
        let cfg = cfg.clone();
        let partition_columns = &cfg.annotation.partition_columns;
        // The footprint is the application statement's, before the rewrite
        // adds bookkeeping columns to it.
        let footprint = warp_sql::analyze(&stmt, &warp_sql::KeyCatalog::new());
        let write_columns = footprint.effective_write_columns();
        let read_columns = footprint.read_columns;
        let pins = Pins::of(stmt.where_clause(), partition_columns);
        let (time, gen, end_gen) = (
            Expr::Param(holes),
            Expr::Param(holes + 1),
            Expr::Param(holes + 2),
        );
        let matching = |where_clause| and_valid(where_clause, validity(time.clone(), gen.clone()));
        match stmt {
            Statement::Select(mut select) => {
                select.where_clause = Some(matching(select.where_clause.take()));
                Body::Select(SelectPlan {
                    stmt: Statement::Select(select),
                    pins,
                    read_columns,
                })
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                let mut all_columns = columns.clone();
                all_columns.extend(
                    [COL_START_TIME, COL_END_TIME, COL_START_GEN, COL_END_GEN].map(String::from),
                );
                if cfg.synthetic_row_id {
                    all_columns.push(COL_ROW_ID.to_string());
                }
                let rows = values.iter().enumerate().map(|(k, row)| {
                    let mut row = row.clone();
                    row.extend([
                        time.clone(),
                        Expr::Literal(Value::Int(INF_TIME)),
                        gen.clone(),
                        end_gen.clone(),
                    ]);
                    if cfg.synthetic_row_id {
                        row.push(Expr::Param(holes + 3 + k));
                    }
                    row
                });
                let row_id_at = columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&cfg.row_id_column))
                    .filter(|_| !cfg.synthetic_row_id);
                Body::Insert(InsertPlan {
                    stmt: Statement::Insert {
                        table,
                        columns: all_columns,
                        values: rows.collect(),
                    },
                    cfg,
                    columns,
                    values,
                    row_id_at,
                    read_columns,
                })
            }
            Statement::Update {
                assignments,
                where_clause,
                ..
            } => Body::Update(WritePlan {
                matching: matching(where_clause),
                cfg,
                assignments,
                pins,
                read_columns,
                write_columns,
            }),
            Statement::Delete { where_clause, .. } => Body::Delete(WritePlan {
                matching: matching(where_clause),
                cfg,
                assignments: Vec::new(),
                pins,
                read_columns,
                write_columns: ColumnSet::All,
            }),
            other => unreachable!("{other} is not a data statement"),
        }
    }
}

/// A statement ready to execute: the plan of its shape, and the parameters
/// that fill the plan's holes for this text.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    pub(crate) plan: Arc<Plan>,
    /// See [`Plan::holes`] for the layout.
    pub(crate) params: Vec<Value>,
}

impl PlannedQuery {
    /// Pairs a plan with the literals of one text of its shape.
    pub(crate) fn new(plan: Arc<Plan>, mut literals: Vec<Value>) -> PlannedQuery {
        debug_assert_eq!(literals.len(), plan.holes);
        // The slots an execution writes its time, generation and end
        // generation to.
        literals.extend([Value::Null, Value::Null, Value::Null]);
        PlannedQuery {
            plan,
            params: literals,
        }
    }

    /// The shared plan of the statement's shape.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Sets the execution's time and generation, with versions an `INSERT`
    /// adds visible in every later generation, dropping whatever a previous
    /// execution added after them.
    pub(crate) fn at(&mut self, time: i64, gen: i64) {
        let holes = self.plan.holes;
        self.params.truncate(holes + 3);
        self.params[holes] = Value::Int(time);
        self.params[holes + 1] = Value::Int(gen);
        self.params[holes + 2] = Value::Int(INF_GEN);
    }
}
