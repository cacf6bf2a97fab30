//! The versioned write (paper §4.2–4.4): an application's `UPDATE` or
//! `DELETE`, applied by position to the versions it matches.

use super::{int, positions_equal, Clash, Generation, TimeTravelDb, Timestamp, INF_GEN};
use crate::dependency::{PartitionKey, PartitionSet, QueryDependency};
use crate::plan::{Plan, WritePlan};
use crate::versioned::LoggedExecution;
use std::collections::BTreeSet;
use warp_sql::expr::eval_expr_with;
use warp_sql::{QueryResult, Row, SqlError, SqlResult, Value};

impl TimeTravelDb {
    /// Executes a planned `UPDATE` (or, `delete`, a `DELETE`) at
    /// `(time, gen)`.
    ///
    /// The versions valid at `(time, gen)` that the statement matches are
    /// found once, before anything changes; a predicate that fails is the
    /// error, with nothing changed. Then, for each matched version in
    /// storage order:
    /// 1. a write in a repair generation to a version the current
    ///    generation still sees *forks* it: the current generation's copy
    ///    (`end_gen` = current) is appended and the version is claimed for
    ///    the repair generation in place (`start_gen` = `gen`);
    /// 2. an `UPDATE` of a version that started before `time` appends its
    ///    history copy, ending at `time`;
    /// 3. the version is rewritten in place: the application's assignments
    ///    and `start_time` = `time`, or for a `DELETE` `end_time` = `time`.
    ///
    /// Each step rewrites every stored row equal to the version's image as
    /// it then stands, and checks and captures what the matching `INSERT`
    /// or `UPDATE` would; an error stops the write there.
    ///
    /// The generation write rule follows: a current-generation write to a
    /// row the repair generation has forked stays invisible to the repair
    /// generation (it rewrites the current generation's copy, whose
    /// `end_gen` stops short of the repair generation), and a write to an
    /// unforked row is visible to both — unless its new version would
    /// share a unique value with a version only the repair generation
    /// sees: the write then forks the row from the current side first
    /// (see [`TimeTravelDb::take_held_out`]).
    pub(super) fn planned_write(
        &mut self,
        plan: &Plan,
        write: &WritePlan,
        delete: bool,
        params: &[Value],
        time: Timestamp,
        gen: Generation,
    ) -> SqlResult<LoggedExecution> {
        let WritePlan {
            cfg,
            matching,
            assignments,
            pins,
            read_columns,
            write_columns,
        } = write;
        let table = plan.table.as_str();
        let layout = &cfg.layout;
        let read_parts = pins.resolve(&plan.table_key, params);
        #[cfg(debug_assertions)]
        warp_sql::observer::arm();
        let matched = self.db.positions_matching(table, Some(matching), params);
        #[cfg(debug_assertions)]
        super::assert_observed_subset(
            if delete { "DELETE" } else { "UPDATE" },
            warp_sql::observer::take(),
            read_columns,
        );
        let stored = self.stored(table)?;
        let images: Vec<Row> = matched?
            .into_iter()
            .map(|pos| stored.rows()[pos].clone())
            .collect();
        // An assignment to a column the table lacks fails where the in-place
        // rewrite first needs it.
        let targets: SqlResult<Vec<usize>> = assignments
            .iter()
            .map(|a| {
                stored
                    .schema
                    .column_index(&a.column)
                    .ok_or_else(|| SqlError::NoSuchColumn(a.column.clone()))
            })
            .collect();
        let current = self.current_gen;
        let mut row_ids = Vec::with_capacity(images.len());
        let mut keys = BTreeSet::new();
        for image in &images {
            let mut image_now = image.clone();
            let end_gen = image[layout.end_gen].as_int().unwrap_or(INF_GEN);
            if gen > current && int(&image[layout.start_gen]) <= current && end_gen >= current {
                let mut copy = image.clone();
                copy[layout.end_gen] = Value::Int(current);
                self.db.insert_row(table, copy)?;
                self.set_where_equal(table, layout, image, layout.start_gen, gen)?;
                image_now[layout.start_gen] = Value::Int(gen);
            }
            row_ids.push(image[layout.row_id].clone());
            for (pos, name) in &layout.partitions {
                keys.insert(PartitionKey::new(table, name, &image[*pos]));
            }
            // An assignment to a partition column also writes the partition
            // it moves the row to.
            for a in assignments {
                if layout
                    .partitions
                    .iter()
                    .any(|(_, p)| p.eq_ignore_ascii_case(&a.column))
                {
                    let schema = &self.stored(table)?.schema;
                    let value = eval_expr_with(&a.value, schema, image, params)?;
                    keys.insert(PartitionKey::new(table, &a.column, &value));
                }
            }
            let mut clash = Clash::None;
            if !delete && gen == current && self.repair_gen.is_some() {
                // The new version, checked across generations before
                // anything of this version changes.
                let targets = targets.as_ref().map_err(Clone::clone)?;
                let t = self.stored(table)?;
                let mut new = image_now.clone();
                for (a, &target) in assignments.iter().zip(targets) {
                    new[target] = eval_expr_with(&a.value, &t.schema, &image_now, params)?;
                }
                new[layout.start_time] = Value::Int(time);
                let rewritten = positions_equal(t, layout, &image_now);
                clash = self.clash(table, layout, &new, &rewritten)?;
                if let Clash::RepairOnly = clash {
                    // Fork from the current side: the repair generation
                    // keeps the version, the write goes to the copy.
                    let mut copy = image_now.clone();
                    copy[layout.end_gen] = Value::Int(current);
                    self.db.insert_row(table, copy.clone())?;
                    let rg = self.repair_gen.unwrap_or(gen);
                    self.set_where_equal(table, layout, &image_now, layout.start_gen, rg)?;
                    image_now = copy;
                    self.held_out
                        .push((plan.table_key.clone(), image[layout.row_id].clone()));
                }
            }
            if !delete && image[layout.start_time].as_int().is_none_or(|s| s < time) {
                let mut history = image_now.clone();
                history[layout.end_time] = Value::Int(time);
                history[layout.start_gen] = Value::Int(int(&image_now[layout.start_gen]));
                self.db.insert_row(table, history)?;
            }
            let targets = targets.as_ref().map_err(Clone::clone)?;
            let t = self.stored(table)?;
            let mut staged = Vec::new();
            for pos in positions_equal(t, layout, &image_now) {
                let row = &t.rows()[pos];
                let mut new = row.clone();
                if delete {
                    new[layout.end_time] = Value::Int(time);
                } else {
                    for (a, &target) in assignments.iter().zip(targets) {
                        new[target] = eval_expr_with(&a.value, &t.schema, row, params)?;
                    }
                    new[layout.start_time] = Value::Int(time);
                }
                staged.push((pos, new));
            }
            if let Clash::Current(e) = clash {
                // Where the rewrite's own uniqueness check would fail.
                return Err(e);
            }
            self.db.replace_rows_at(table, staged)?;
        }
        let write_partitions = if layout.partitions.is_empty() {
            PartitionSet::whole(table)
        } else {
            PartitionSet::Keys(keys)
        };
        Ok(LoggedExecution {
            result: QueryResult {
                columns: vec![],
                rows: vec![],
                affected: images.len() as u64,
                ordered: false,
            },
            dependency: QueryDependency::write(table, read_parts, write_partitions, row_ids)
                .with_columns(read_columns.clone(), write_columns.clone()),
        })
    }
}
