//! Repair-time database operations (paper §4.2–§4.4).
//!
//! A [`RepairSession`] is created by the database repair manager when the
//! repair controller starts a repair. It tracks the set of partitions
//! modified so far (by rollback or re-execution) so the controller can skip
//! re-executing read queries that only touched unmodified partitions, and it
//! implements the two-phase re-execution of multi-row write queries.

use crate::dependency::{PartitionSet, QueryDependency};
use crate::plan::PlannedQuery;
use crate::versioned::{Generation, LoggedExecution, TimeTravelDb, Timestamp};
use serde::{Deserialize, Serialize};
use warp_sql::{ColumnSet, SqlResult, Value};

/// One contiguous piece of repair-dirtied state: a set of partitions paired
/// with the columns whose visible values changed inside those partitions.
///
/// `columns` is [`ColumnSet::All`] whenever the change involved row
/// membership (INSERT/DELETE, row resurrection) or the columns could not be
/// bounded — in which case the region behaves exactly like the classic
/// partition-grained dirty set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirtyRegion {
    /// The partitions the repair modified.
    pub partitions: PartitionSet,
    /// The columns whose values changed within those partitions.
    pub columns: ColumnSet,
}

/// State for one in-progress repair of the database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepairSession {
    /// The generation this repair builds.
    pub generation: Generation,
    /// Regions (partitions × columns) modified so far during this repair.
    modified: Vec<DirtyRegion>,
    /// Number of queries re-executed through this session (reported in the
    /// Table 7/8 "re-executed actions" columns).
    pub reexecuted_queries: usize,
    /// Number of rows rolled back through this session.
    pub rolled_back_rows: usize,
    /// Partition-tracking precision for rollbacks. The classic (sequential)
    /// engine conservatively marks the whole table modified on every rollback;
    /// the partitioned engine needs exact partitions so that independent
    /// partitions stay independent, and so cross-partition escalation can be
    /// detected from the modified set alone.
    precise_rollback: bool,
    /// When true, every dirty region's column set is widened to `All`,
    /// reproducing the paper's row/partition-grained frontier exactly (used
    /// as the baseline in the frontier benchmark and as a kill switch).
    column_oblivious: bool,
}

impl RepairSession {
    /// Begins a repair: creates the next repair generation on the database.
    pub fn begin(db: &mut TimeTravelDb) -> Self {
        let generation = db.begin_repair_generation();
        RepairSession {
            generation,
            modified: Vec::new(),
            reexecuted_queries: 0,
            rolled_back_rows: 0,
            precise_rollback: false,
            column_oblivious: false,
        }
    }

    /// Begins a repair whose rollbacks mark the exact partitions of the row
    /// versions they touch instead of the whole table (used by the
    /// partitioned parallel repair engine).
    pub fn begin_precise(db: &mut TimeTravelDb) -> Self {
        let mut session = Self::begin(db);
        session.precise_rollback = true;
        session
    }

    /// Disables column-aware frontier pruning for this session (see
    /// [`RepairSession`]'s `column_oblivious` field).
    pub fn set_column_oblivious(&mut self, oblivious: bool) {
        self.column_oblivious = oblivious;
    }

    /// The dirty regions recorded so far, oldest first: a region once
    /// recorded stays, so a caller that has seen the first `n` needs only
    /// the rest.
    pub fn modified_regions(&self) -> &[DirtyRegion] {
        &self.modified
    }

    /// Records that the given partitions have been modified during repair,
    /// with an unknown column set (conservatively `All`).
    pub fn note_modified(&mut self, partitions: &PartitionSet) {
        self.note_modified_columns(partitions, &ColumnSet::All);
    }

    /// Records a dirty region: the given partitions were modified, and only
    /// the given columns changed within them.
    pub fn note_modified_columns(&mut self, partitions: &PartitionSet, columns: &ColumnSet) {
        if !partitions.is_empty() {
            let columns = if self.column_oblivious {
                ColumnSet::All
            } else {
                columns.clone()
            };
            self.modified.push(DirtyRegion {
                partitions: partitions.clone(),
                columns,
            });
        }
    }

    /// True if a query that depends on `partitions` may have been affected by
    /// the repair so far and therefore must be re-executed (paper §4.1).
    /// Ignores columns, so it is the conservative partition-grained check.
    pub fn is_affected(&self, partitions: &PartitionSet) -> bool {
        self.modified
            .iter()
            .any(|m| m.partitions.intersects(partitions))
    }

    /// Column-aware affectedness: true if some dirty region overlaps the
    /// given partitions *and* its changed columns overlap `columns`.
    pub fn is_affected_columns(&self, partitions: &PartitionSet, columns: &ColumnSet) -> bool {
        self.modified
            .iter()
            .any(|m| m.partitions.intersects(partitions) && m.columns.intersects(columns))
    }

    /// Rolls back the given rows to just before `to_time` and records the
    /// region it dirtied as modified.
    pub fn rollback_rows(
        &mut self,
        db: &mut TimeTravelDb,
        table: &str,
        row_ids: &[Value],
        to_time: Timestamp,
    ) -> SqlResult<()> {
        // Rolling back rows may change any partition those rows (in any of
        // their versions) belonged to. In precise mode those are the
        // partitions the rollback reports; the classic mode conservatively
        // marks the whole table instead.
        let DirtyRegion {
            partitions,
            columns,
        } = db.rollback_rows(table, row_ids, to_time, self.generation)?;
        self.rolled_back_rows += row_ids.len();
        let partitions = if self.precise_rollback {
            partitions
        } else {
            PartitionSet::whole(table)
        };
        self.note_modified_columns(&partitions, &columns);
        Ok(())
    }

    /// Re-executes a *read* query at its original time inside the repair
    /// generation and returns the new result. Continuous versioning lets
    /// untouched rows be read at exactly their original values (paper §4.2).
    pub fn reexecute_read(
        &mut self,
        db: &mut TimeTravelDb,
        query: &mut PlannedQuery,
        original_time: Timestamp,
    ) -> SqlResult<LoggedExecution> {
        self.reexecuted_queries += 1;
        db.execute_planned(query, original_time, self.generation)
    }

    /// Re-executes a *write* query at its original time inside the repair
    /// generation using two-phase re-execution (paper §4.2):
    ///
    /// 1. Evaluate the (possibly new) `WHERE` clause to find the rows the
    ///    query would now modify.
    /// 2. Roll back both the originally modified rows and the newly matched
    ///    rows to just before the query's original time, marking what the
    ///    rollback dirtied as [`RepairSession::rollback_rows`] does.
    /// 3. Execute the write.
    pub fn reexecute_write(
        &mut self,
        db: &mut TimeTravelDb,
        query: &mut PlannedQuery,
        original_time: Timestamp,
        original_row_ids: &[Value],
    ) -> SqlResult<LoggedExecution> {
        self.reexecuted_queries += 1;
        // Phase 1: find the rows matched by the new WHERE clause, evaluated
        // against the repaired state at the original time.
        let new_row_ids = db.matching_row_ids(query, original_time, self.generation)?;
        // Phase 2: roll back the union of old and new row IDs.
        let mut union: Vec<Value> = original_row_ids.to_vec();
        for id in new_row_ids {
            if !union.contains(&id) {
                union.push(id);
            }
        }
        if !union.is_empty() {
            self.rollback_rows(db, &query.plan().table, &union, original_time)?;
        }
        // Phase 3: execute the write at its original time in the repair
        // generation and record the partitions and columns it touched.
        self.execute_write(db, query, original_time)
    }

    /// Applies a brand-new write (one that did not exist during the original
    /// execution, e.g. issued by a patched application run) in the repair
    /// generation at the given time.
    pub fn execute_new_write(
        &mut self,
        db: &mut TimeTravelDb,
        query: &mut PlannedQuery,
        time: Timestamp,
    ) -> SqlResult<LoggedExecution> {
        self.reexecuted_queries += 1;
        self.execute_write(db, query, time)
    }

    /// Executes a write in the repair generation and records the partitions
    /// and columns it touched.
    fn execute_write(
        &mut self,
        db: &mut TimeTravelDb,
        query: &mut PlannedQuery,
        time: Timestamp,
    ) -> SqlResult<LoggedExecution> {
        let out = db.execute_planned(query, time, self.generation)?;
        self.note_modified_columns(
            &out.dependency.write_partitions,
            &out.dependency.write_columns,
        );
        Ok(out)
    }

    /// Finishes the repair: the repair generation becomes current.
    pub fn finalize(self, db: &mut TimeTravelDb) {
        db.finalize_repair_generation();
    }

    /// Aborts the repair, discarding all repair-generation changes.
    pub fn abort(self, db: &mut TimeTravelDb) -> SqlResult<()> {
        db.abort_repair_generation()
    }

    /// Checks whether a previously recorded dependency would be affected by
    /// this repair: some dirty region must overlap it in *both* partitions
    /// and columns. An action whose statically-derived read columns are
    /// provably disjoint from every region's dirty columns is skipped
    /// without re-execution; `All` on either side (imprecise footprints,
    /// membership changes, column-oblivious mode) degrades the check to the
    /// paper's partition-grained rule.
    pub fn dependency_affected(&self, dep: &QueryDependency) -> bool {
        self.is_affected_columns(&dep.read_partitions, &dep.read_columns)
            || self.is_affected_columns(&dep.write_partitions, &dep.write_columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::TableAnnotation;
    use crate::dependency::PartitionKey;
    use std::collections::BTreeSet;

    fn seeded_db() -> TimeTravelDb {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        )
        .unwrap();
        db.execute_logged(
            "INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'clean'), (2, 'Help', 'help')",
            10,
        )
        .unwrap();
        db
    }

    fn keys(table: &str, col: &str, vals: &[&str]) -> PartitionSet {
        PartitionSet::Keys(
            vals.iter()
                .map(|v| PartitionKey::new(table, col, &Value::text(*v)))
                .collect::<BTreeSet<_>>(),
        )
    }

    #[test]
    fn affected_tracking_by_partition() {
        let mut db = seeded_db();
        let mut session = RepairSession::begin(&mut db);
        assert!(!session.is_affected(&keys("page", "title", &["Main"])));
        session.note_modified(&keys("page", "title", &["Main"]));
        assert!(session.is_affected(&keys("page", "title", &["Main"])));
        assert!(!session.is_affected(&keys("page", "title", &["Help"])));
        assert!(session.is_affected(&PartitionSet::whole("page")));
        assert!(!session.is_affected(&PartitionSet::whole("user")));
        assert!(!session.is_affected(&PartitionSet::empty()));
    }

    #[test]
    fn reexecute_write_two_phase_rolls_back_old_and_new_rows() {
        let mut db = seeded_db();
        // The attack appended text to Main at time 20.
        db.execute_logged(
            "UPDATE page SET body = body || ' ATTACK' WHERE title = 'Main'",
            20,
        )
        .unwrap();
        // A legitimate edit at time 30 rewrote Help.
        db.execute_logged(
            "UPDATE page SET body = 'better help' WHERE title = 'Help'",
            30,
        )
        .unwrap();
        let mut session = RepairSession::begin(&mut db);
        // During repair, the patched application no longer issues the attack
        // query; instead the legitimate edit of Help is re-executed as-is.
        let mut query = db
            .plan("UPDATE page SET body = 'better help' WHERE title = 'Help'")
            .unwrap();
        let out = session
            .reexecute_write(&mut db, &mut query, 30, &[Value::Int(2)])
            .unwrap();
        assert_eq!(out.result.affected, 1);
        // Roll back the attack's effect on Main.
        session
            .rollback_rows(&mut db, "page", &[Value::Int(1)], 20)
            .unwrap();
        session.finalize(&mut db);
        let body = db
            .execute_logged("SELECT body FROM page WHERE title = 'Main'", 100)
            .unwrap();
        assert_eq!(body.result.rows[0][0], Value::text("clean"));
        let help = db
            .execute_logged("SELECT body FROM page WHERE title = 'Help'", 100)
            .unwrap();
        assert_eq!(help.result.rows[0][0], Value::text("better help"));
    }

    #[test]
    fn rows_a_narrowed_write_rolls_back_dirty_their_readers() {
        for precise in [false, true] {
            let mut db = seeded_db();
            // The injected WHERE made the write hit every page.
            let attack = db
                .execute_logged(
                    "UPDATE page SET body = 'X' WHERE title = 'Main' OR title LIKE '%'",
                    20,
                )
                .unwrap();
            let mut session = if precise {
                RepairSession::begin_precise(&mut db)
            } else {
                RepairSession::begin(&mut db)
            };
            // The patched write matches only Main; Help is rolled back.
            let mut query = db
                .plan("UPDATE page SET body = 'X' WHERE title = 'Main'")
                .unwrap();
            session
                .reexecute_write(&mut db, &mut query, 20, &attack.dependency.written_row_ids)
                .unwrap();
            assert_eq!(session.rolled_back_rows, 2);
            let reader = |title: &str, column: &str| {
                QueryDependency::read("page", keys("page", "title", &[title]))
                    .with_columns(ColumnSet::named([column]), ColumnSet::empty())
            };
            assert!(session.dependency_affected(&reader("Help", "body")));
            // Only the body changed, and only the classic mode widens the
            // rollback to the whole table.
            assert!(!session.dependency_affected(&reader("Help", "title")));
            assert_eq!(
                session.dependency_affected(&reader("Other", "body")),
                !precise
            );
        }
    }

    #[test]
    fn reexecute_read_sees_original_values_for_untouched_rows() {
        let mut db = seeded_db();
        db.execute_logged(
            "UPDATE page SET body = 'edited help' WHERE title = 'Help'",
            40,
        )
        .unwrap();
        let mut session = RepairSession::begin(&mut db);
        // A read that originally ran at time 20 must see the time-20 value of
        // Help even though Help changed later and was never rolled back.
        let mut query = db
            .plan("SELECT body FROM page WHERE title = 'Help'")
            .unwrap();
        let out = session.reexecute_read(&mut db, &mut query, 20).unwrap();
        assert_eq!(out.result.rows[0][0], Value::text("help"));
        let out = session.reexecute_read(&mut db, &mut query, 50).unwrap();
        assert_eq!(out.result.rows[0][0], Value::text("edited help"));
        assert_eq!(session.reexecuted_queries, 2);
    }

    #[test]
    fn abort_discards_repair_changes() {
        let mut db = seeded_db();
        let mut session = RepairSession::begin(&mut db);
        let mut query = db
            .plan("UPDATE page SET body = 'x' WHERE title = 'Main'")
            .unwrap();
        session.execute_new_write(&mut db, &mut query, 50).unwrap();
        session.abort(&mut db).unwrap();
        let body = db
            .execute_logged("SELECT body FROM page WHERE title = 'Main'", 100)
            .unwrap();
        assert_eq!(body.result.rows[0][0], Value::text("clean"));
    }

    #[test]
    fn dependency_affected_checks_both_sides() {
        let mut db = seeded_db();
        let mut session = RepairSession::begin(&mut db);
        session.note_modified(&keys("page", "title", &["Main"]));
        let dep_read = QueryDependency::read("page", keys("page", "title", &["Main"]));
        let dep_other = QueryDependency::read("page", keys("page", "title", &["Help"]));
        assert!(session.dependency_affected(&dep_read));
        assert!(!session.dependency_affected(&dep_other));
    }
}
