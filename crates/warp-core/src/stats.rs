//! Statistics collected during normal execution and repair.
//!
//! These are the raw numbers behind the paper's evaluation tables: Table 6's
//! storage-per-page-visit accounting and Tables 7/8's re-execution counts
//! and repair-time breakdown.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Storage accounting for Warp's logs (Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoggingStats {
    /// Number of recorded actions (application runs).
    pub actions: usize,
    /// Number of distinct page visits observed.
    pub page_visits: usize,
    /// Bytes of browser-level logs uploaded by clients.
    pub browser_bytes: usize,
    /// Bytes of application-level logs (requests, responses, dependencies,
    /// non-determinism records).
    pub app_bytes: usize,
    /// Bytes of database-level logs (query text, results, row IDs) plus row
    /// version storage attributable to logging.
    pub db_bytes: usize,
}

impl LoggingStats {
    /// Total bytes across all three log levels.
    pub fn total_bytes(&self) -> usize {
        self.browser_bytes + self.app_bytes + self.db_bytes
    }

    /// Bytes stored per page visit, by level (the paper's Table 6 columns).
    pub fn per_page_visit(&self) -> (f64, f64, f64) {
        let n = self.page_visits.max(1) as f64;
        (
            self.browser_bytes as f64 / n,
            self.app_bytes as f64 / n,
            self.db_bytes as f64 / n,
        )
    }
}

/// Counters and wall-clock breakdown of one repair (Tables 7 and 8).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RepairStats {
    /// Page visits re-executed in the server-side browser / total page visits.
    pub page_visits_reexecuted: usize,
    /// Total page visits known to the log.
    pub page_visits_total: usize,
    /// Application runs re-executed / total recorded runs.
    pub app_runs_reexecuted: usize,
    /// Total application runs in the log.
    pub app_runs_total: usize,
    /// Database queries re-executed during repair.
    pub queries_reexecuted: usize,
    /// Total queries recorded in the log.
    pub queries_total: usize,
    /// Rows rolled back.
    pub rows_rolled_back: usize,
    /// Actions cancelled outright.
    pub actions_cancelled: usize,
    /// Conflicts queued for users.
    pub conflicts: usize,
    /// Independent dependency partitions the history decomposed into
    /// (the partitioned engine only: 0 for the walks, which plan no
    /// partitions — the frontier walk grows its candidates from the
    /// history's partition index instead).
    pub partitions_total: usize,
    /// Partitions that contained repair seeds and were actually re-executed
    /// (the partitioned engine only; 0 for the walks).
    pub partitions_repaired: usize,
    /// Escalation rounds: times re-execution touched partitions outside its
    /// own group, forcing groups to be merged and re-run (the partitioned
    /// engine only; the walks have no groups and never escalate: 0).
    pub escalations: usize,
    /// Rounds re-run on whole-database clones because a worker batch
    /// touched a table outside its bounded-memory clone's footprint
    /// (the bounded-clone partitioned engine only; the walks clone
    /// nothing: 0).
    pub bounded_clone_fallbacks: usize,
    /// The repair's worker count: 0 for the sequential engine, 1 for the
    /// frontier walk (which runs on the engine thread) and the partitioned
    /// engine's worker threads.
    pub workers: usize,
    /// Tables whose stored rows the committed repair actually changed
    /// (from the mutation-tracked delta; 0 for aborted repairs).
    pub dirty_tables: usize,
    /// Row versions the committed repair removed plus added across all
    /// dirty tables — the size of the repair's physical write set, which
    /// is also what the commit record costs to build and log.
    pub dirty_rows: usize,
    /// Requests the server answered between the repair's start and its
    /// commit (0 when nothing was served while it ran).
    pub served_during: usize,
    /// Of those, the actions folded into the repair because they met what
    /// it modified: for the walks, the ones it visited at its tail (judged
    /// like any other action, re-executed only where their reads or writes
    /// depend on what it changed); for the partitioned engine, the ones
    /// that joined a unit and re-ran with it.
    pub joined: usize,
    /// Wall-clock time spent initialising repair (finding candidate actions).
    #[serde(skip)]
    pub time_init: Duration,
    /// Wall-clock time spent loading graph nodes.
    #[serde(skip)]
    pub time_graph: Duration,
    /// Wall-clock time spent in browser re-execution.
    #[serde(skip)]
    pub time_browser: Duration,
    /// Wall-clock time spent re-executing standalone database queries.
    #[serde(skip)]
    pub time_db: Duration,
    /// Wall-clock time spent re-executing application runs.
    #[serde(skip)]
    pub time_app: Duration,
    /// Wall-clock time spent in the repair controller itself.
    #[serde(skip)]
    pub time_ctrl: Duration,
    /// Wall-clock time spent building and logging the repair commit (delta
    /// drain + record encoding; for the snapshot-diff reference path, the
    /// pre-repair snapshot and the post-repair table diffs).
    #[serde(skip)]
    pub time_commit: Duration,
    /// Total wall-clock repair time.
    #[serde(skip)]
    pub time_total: Duration,
}

impl RepairStats {
    /// Formats the re-execution counters the way the paper's Table 7 rows
    /// report them (`re-executed / total`).
    pub fn summary_counts(&self) -> String {
        format!(
            "page visits {}/{}  app runs {}/{}  queries {}/{}",
            self.page_visits_reexecuted,
            self.page_visits_total,
            self.app_runs_reexecuted,
            self.app_runs_total,
            self.queries_reexecuted,
            self.queries_total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_page_visit_divides_by_visits() {
        let stats = LoggingStats {
            actions: 10,
            page_visits: 10,
            browser_bytes: 1000,
            app_bytes: 2000,
            db_bytes: 3000,
        };
        let (b, a, d) = stats.per_page_visit();
        assert_eq!((b, a, d), (100.0, 200.0, 300.0));
        assert_eq!(stats.total_bytes(), 6000);
        // Zero page visits must not divide by zero.
        let empty = LoggingStats::default();
        let (b, _, _) = empty.per_page_visit();
        assert_eq!(b, 0.0);
    }

    #[test]
    fn summary_counts_format() {
        let stats = RepairStats {
            page_visits_reexecuted: 14,
            page_visits_total: 1011,
            app_runs_reexecuted: 13,
            app_runs_total: 1223,
            queries_reexecuted: 258,
            queries_total: 24746,
            ..Default::default()
        };
        assert_eq!(
            stats.summary_counts(),
            "page visits 14/1011  app runs 13/1223  queries 258/24746"
        );
    }
}
