//! `warp-ttdb` — Warp's time-travel database (paper §4).
//!
//! The time-travel database layers three mechanisms over the plain SQL
//! engine in `warp-sql`, without modifying the engine itself:
//!
//! * **Continuous versioning** (§4.2): every logical row becomes a series of
//!   row *versions* carrying `warp_start_time` / `warp_end_time` columns. A
//!   version is valid for `start_time <= t < end_time`; the current version
//!   has `end_time = INF`. Updates end the old version and create a new one;
//!   deletes just end the current version. This lets repair roll individual
//!   rows back to any past time and lets re-executed read queries see the
//!   database exactly as it was when they originally ran.
//! * **Repair generations** (§4.3): rows also carry `warp_start_gen` /
//!   `warp_end_gen`. Normal execution happens in the *current* generation
//!   while repair builds the *next* generation, so the application keeps
//!   serving requests during repair. Finishing a repair switches the current
//!   generation pointer.
//! * **Row IDs and partitions** (§4.1): each table has a row-ID column
//!   (a natural key chosen by the programmer, or a synthetic `warp_row_id`
//!   added transparently) used for fine-grained rollback, and a set of
//!   partitioning columns used to compute which slices of a table a query
//!   read or wrote. Partition-level dependencies are what keep re-execution
//!   localised during repair, and each partition has a stable engine-shard
//!   owner ([`PartitionKey::shard`]) that the serving engine's request
//!   router uses to run non-conflicting requests concurrently.
//!
//! The main entry point is [`TimeTravelDb`]. During normal execution the
//! Warp server calls [`TimeTravelDb::execute_logged`], which rewrites the
//! application's query, executes it, and returns both the application-visible
//! result and a [`QueryDependency`] record for the action history graph.
//! The rewrite is planned once per statement *shape* — the query's text
//! with its literals taken out — and shared by every execution of that
//! shape, served, replayed or re-executed (see [`plan`]).
//! During repair, [`repair::RepairSession`] provides rollback and
//! re-execution primitives to the repair controller.

pub mod annotations;
pub mod delta;
pub mod dependency;
pub mod plan;
pub mod repair;
pub mod rewrite;
pub mod versioned;

pub use annotations::TableAnnotation;
pub use delta::{row_diff, RepairDelta, TableDelta};
pub use dependency::{PartitionKey, PartitionSet, QueryDependency};
pub use plan::{Plan, PlannedQuery};
pub use repair::{DirtyRegion, RepairSession};
pub use versioned::{
    Generation, LoggedExecution, RowScope, StorageStats, TimeTravelDb, Timestamp, INF_GEN, INF_TIME,
};

#[cfg(test)]
mod tests {
    use super::*;
    use warp_sql::Value;

    #[test]
    fn end_to_end_versioning_walkthrough() {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        )
        .unwrap();
        db.execute_logged(
            "INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'v1')",
            10,
        )
        .unwrap();
        db.execute_logged("UPDATE page SET body = 'v2' WHERE title = 'Main'", 20)
            .unwrap();
        // The application sees only the current version.
        let out = db
            .execute_logged("SELECT body FROM page WHERE title = 'Main'", 30)
            .unwrap();
        assert_eq!(out.result.rows[0][0], Value::text("v2"));
        // Time travel: reading at time 15 sees the original version.
        let old = db
            .select_at("SELECT body FROM page WHERE title = 'Main'", 15)
            .unwrap();
        assert_eq!(old.rows[0][0], Value::text("v1"));
    }
}
