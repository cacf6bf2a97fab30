//! `warp-baseline` — a taint-tracking data-recovery baseline.
//!
//! The paper's Table 5 compares Warp against Akkuş & Goel's system, which
//! recovers from data-corruption bugs by taint-tracking dependencies between
//! HTTP requests and database elements and then asking an administrator to
//! undo the tainted writes. Its precision depends on a *dependency policy*;
//! permissive policies produce false positives (legitimate data flagged for
//! removal), restrictive ones produce false negatives (corruption missed),
//! and table-level whitelists trade one for the other.
//!
//! This crate reimplements that style of recovery over Warp's action history
//! so the two approaches can be compared on the same workloads: given the
//! administrator-identified *bug-triggering request*, it computes the set of
//! database rows to revert under a configurable policy and reports how many
//! of them were actually legitimate (false positives) and how much corrupted
//! data it missed (false negatives).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use warp_core::{ActionId, WarpServer};
use warp_sql::Value;

/// The dependency policies of the baseline system (simplified to the two
/// extremes plus whitelisting, which is what Table 5 reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DependencyPolicy {
    /// A row depends on a request if the request wrote it (precise but
    /// misses indirect corruption — prone to false negatives).
    DirectWritesOnly,
    /// A row depends on a request if the request wrote it *or* wrote any row
    /// in a table the request also read (coarse — prone to false positives).
    TableLevel,
}

/// Configuration of the baseline recovery run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// The dependency policy to apply.
    pub policy: DependencyPolicy,
    /// Tables the administrator has whitelisted (their rows are never
    /// flagged, reducing false positives at the risk of false negatives).
    pub whitelisted_tables: Vec<String>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            policy: DependencyPolicy::TableLevel,
            whitelisted_tables: Vec::new(),
        }
    }
}

/// A database row flagged for reversion, identified by table and row ID.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlaggedRow {
    /// Table name.
    pub table: String,
    /// Row ID (rendered).
    pub row_id: String,
}

/// The outcome of a baseline recovery analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Rows the baseline would revert.
    pub flagged: BTreeSet<FlaggedRow>,
    /// Flagged rows that were *not* actually corrupted (false positives —
    /// legitimate data the administrator would lose).
    pub false_positives: usize,
    /// Corrupted rows the baseline failed to flag (false negatives —
    /// corruption left in place).
    pub false_negatives: usize,
    /// The baseline always needs the administrator to identify the
    /// triggering request and resolve the flagged set by hand.
    pub requires_user_input: bool,
}

/// Runs the baseline dependency analysis over a server's recorded history.
///
/// `trigger_actions` are the administrator-identified runs of the buggy
/// request; `corrupted` is ground truth (the rows the bug actually damaged),
/// used only to score false positives/negatives.
pub fn analyze(
    server: &WarpServer,
    trigger_actions: &[ActionId],
    config: &BaselineConfig,
    corrupted: &BTreeSet<FlaggedRow>,
) -> BaselineReport {
    let mut flagged: BTreeSet<FlaggedRow> = BTreeSet::new();
    let whitelist: BTreeSet<String> = config
        .whitelisted_tables
        .iter()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    for &id in trigger_actions {
        let Some(action) = server.history.action(id) else {
            continue;
        };
        // Rows directly written by the triggering request.
        let mut touched_tables: BTreeSet<String> = BTreeSet::new();
        for q in &action.queries {
            touched_tables.insert(q.dependency.table.clone());
            if q.is_write {
                for row_id in q.written_row_ids() {
                    flagged.insert(row(&q.dependency.table, row_id));
                }
            }
        }
        if config.policy == DependencyPolicy::TableLevel {
            // Coarse policy: every row any *other* request wrote to the same
            // tables becomes a dependency of the trigger.
            for other in server.history.actions() {
                for q in &other.queries {
                    if q.is_write && touched_tables.contains(&q.dependency.table) {
                        for row_id in q.written_row_ids() {
                            flagged.insert(row(&q.dependency.table, row_id));
                        }
                    }
                }
            }
        }
    }
    flagged.retain(|f| !whitelist.contains(&f.table));
    let false_positives = flagged.iter().filter(|f| !corrupted.contains(f)).count();
    let false_negatives = corrupted.iter().filter(|c| !flagged.contains(c)).count();
    BaselineReport {
        flagged,
        false_positives,
        false_negatives,
        requires_user_input: true,
    }
}

fn row(table: &str, row_id: &Value) -> FlaggedRow {
    FlaggedRow {
        table: table.to_ascii_lowercase(),
        row_id: row_id.as_display_string(),
    }
}

/// Convenience: the ground-truth corrupted-row set for scoring.
pub fn corrupted_rows<'a>(
    rows: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> BTreeSet<FlaggedRow> {
    rows.into_iter()
        .map(|(t, r)| FlaggedRow {
            table: t.to_ascii_lowercase(),
            row_id: r.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_apps::blog::{blog_app, BlogBug};
    use warp_core::WarpServer;
    use warp_http::{HttpRequest, Transport};

    /// Sets up the lost-votes bug workload: 5 votes on post 1, plus comments
    /// on post 2 as unrelated legitimate traffic.
    fn workload() -> (WarpServer, Vec<ActionId>) {
        let mut s = WarpServer::new(blog_app(BlogBug::LostVotes, 2));
        let mut triggers = Vec::new();
        for _ in 0..5 {
            s.send(HttpRequest::post("/vote.wasl", [("post", "1")]));
            triggers.push(s.history.len() as u64 - 1);
        }
        for i in 0..4 {
            s.send(HttpRequest::post(
                "/comment.wasl",
                [("post", "2"), ("body", &format!("legit comment {i}"))],
            ));
        }
        (s, triggers)
    }

    #[test]
    fn table_level_policy_has_false_positives_but_no_false_negatives() {
        let (server, triggers) = workload();
        let corrupted = corrupted_rows([("post", "1")]);
        let report = analyze(
            &server,
            &triggers,
            &BaselineConfig {
                policy: DependencyPolicy::TableLevel,
                whitelisted_tables: vec![],
            },
            &corrupted,
        );
        assert_eq!(report.false_negatives, 0);
        assert!(report.requires_user_input);
        // Table-level tainting also flags the unrelated comment rows... only
        // if the trigger touched the comment table, which it did not, so the
        // false positives here come only from same-table over-flagging.
        assert!(report.flagged.iter().all(|f| f.table == "post"));
    }

    #[test]
    fn whitelisting_trades_false_positives_for_false_negatives() {
        let (server, triggers) = workload();
        let corrupted = corrupted_rows([("post", "1")]);
        let report = analyze(
            &server,
            &triggers,
            &BaselineConfig {
                policy: DependencyPolicy::TableLevel,
                whitelisted_tables: vec!["post".to_string()],
            },
            &corrupted,
        );
        assert_eq!(report.flagged.len(), 0);
        assert_eq!(
            report.false_negatives, 1,
            "whitelisting the table hides the corruption"
        );
    }

    #[test]
    fn direct_writes_policy_is_precise_for_this_bug() {
        let (server, triggers) = workload();
        let corrupted = corrupted_rows([("post", "1")]);
        let report = analyze(
            &server,
            &triggers,
            &BaselineConfig {
                policy: DependencyPolicy::DirectWritesOnly,
                whitelisted_tables: vec![],
            },
            &corrupted,
        );
        assert_eq!(report.false_negatives, 0);
        assert_eq!(report.false_positives, 0);
    }
}
