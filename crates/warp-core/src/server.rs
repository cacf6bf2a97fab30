//! The Warp application server.
//!
//! The server is the component the browser's transport talks to. During
//! normal execution it resolves each request to a WASL script, runs it
//! through the application host (which interposes on queries and
//! non-determinism), and records the resulting action — request, response,
//! loaded files, query dependencies, non-determinism — into the action
//! history graph. It also accepts client-side browser log uploads and serves
//! the conflict-resolution flow after repairs.

use crate::apphost::{run_application, AppRunContext, AppRunResult, ExecMode};
use crate::clock::LogicalClock;
use crate::config::AppConfig;
use crate::conflict::ConflictQueue;
use crate::history::{ActionId, ActionRecord, ClientRef, HistoryGraph};
use crate::sourcefs::SourceStore;
use crate::stats::LoggingStats;
use std::collections::BTreeSet;
use warp_browser::{PageVisitRecord, ReplayConfig};
use warp_http::{HttpRequest, HttpResponse, Router, Transport};
use warp_ttdb::{StorageStats, TableAnnotation, TimeTravelDb};

/// The Warp-enabled application server (Figure 1's server side).
///
/// This is the serving *engine state*: the database, clock, history graph
/// and durable log behind one application. Applications should build a
/// [`crate::Warp`] handle with [`crate::Warp::builder()`] and serve through
/// it — the handle is cloneable and callable from many threads, and it owns
/// one engine thread running against this struct (plus, with
/// [`crate::WarpBuilder::engine_shards`] above one, a pool of shard
/// workers; at one shard the engine thread runs every request itself).
/// Constructing a `WarpServer` directly
/// ([`WarpServer::new`] / [`WarpServer::open`]) is deprecated: it is the
/// synchronous single-caller path, equivalent to a `Warp` built with
/// [`crate::Durability::Immediate`] and one shard, minus the concurrency —
/// use [`crate::Warp::builder()`] instead.
#[derive(Debug)]
pub struct WarpServer {
    /// Application name.
    pub app_name: String,
    /// Versioned application source files.
    pub sources: SourceStore,
    /// The time-travel database.
    pub db: TimeTravelDb,
    /// URL router.
    pub router: Router,
    /// The server's logical clock.
    pub clock: LogicalClock,
    /// The action history graph and per-client browser logs.
    pub history: HistoryGraph,
    /// Conflicts queued for users.
    pub conflicts: ConflictQueue,
    /// Configuration of the server-side re-execution browser.
    pub replay_config: ReplayConfig,
    /// Clients whose cookies must be invalidated on their next request
    /// (queued by repair when the repaired cookie differs, §5.3).
    pub pending_cookie_invalidations: BTreeSet<String>,
    /// Test-only reference switch: build repair commit records by
    /// snapshotting every table before repair and diffing afterwards (the
    /// O(database) strategy the mutation-tracked delta path replaced),
    /// instead of draining the delta tracker. Kept compiled in — like
    /// [`crate::scheduler::RepairStrategy::PartitionedFullClone`] — so the
    /// equivalence tests can prove both paths produce byte-identical
    /// persisted commits. Production servers leave this `false`.
    pub reference_snapshot_commit: bool,
    /// Disables column-aware frontier pruning: every repair dirty region is
    /// widened to all columns, reproducing the paper's row/partition-grained
    /// re-execution rule exactly. Used as the baseline side of the frontier
    /// benchmark and as a kill switch if a static footprint is ever doubted.
    pub column_oblivious_repair: bool,
    pub(crate) rng_counter: u64,
    pub(crate) session_counter: u64,
    /// The durable action log, when the server was opened with a storage
    /// backend (see [`crate::persist`]). `None` keeps the server in-memory.
    pub(crate) store: Option<crate::persist::LogSink>,
    /// An interrupted repair detected during recovery (a logged
    /// `RepairBegin` with no commit or abort).
    pub(crate) pending_repair: Option<crate::repair::RepairRequest>,
    /// True between a [`crate::RepairRun`]'s start and its commit:
    /// automatic checkpoints are held back, because one cut now would hold
    /// the patched sources and no pending repair.
    pub(crate) repair_in_flight: bool,
    /// While a replayed log is between a `RepairBegin` and its outcome:
    /// the `(action, generation)` of every action logged since, whose
    /// writes are held back (see [`crate::persist`]'s replay).
    pub(crate) replay_held: Option<Vec<(crate::history::ActionId, i64)>>,
    /// Bookkeeping for incremental checkpoints: what changed in the history
    /// graph since the last checkpoint (row changes are tracked inside the
    /// database; see [`crate::persist::CheckpointMarks`]).
    pub(crate) ckpt_marks: crate::persist::CheckpointMarks,
    /// The background chain-compaction worker, when started via
    /// [`WarpServer::start_maintenance`]. Dropping the server stops it.
    pub(crate) maintenance: Option<warp_store::MaintenanceWorker>,
}

/// One request the application has run for, not yet recorded.
pub(crate) struct Served {
    /// The action's logical time.
    pub(crate) time: i64,
    pub(crate) request: HttpRequest,
    /// The entry script the router resolved.
    pub(crate) entry: String,
    pub(crate) result: AppRunResult,
}

impl WarpServer {
    /// Installs an application and returns a server ready to handle requests.
    ///
    /// # Panics
    ///
    /// Panics if the application's schema or seed data is invalid — an
    /// installation error is a programming mistake in the app definition,
    /// not a runtime condition.
    pub fn new(config: AppConfig) -> Self {
        let mut sources = SourceStore::new();
        for (name, content) in &config.sources {
            sources.install(name.clone(), content.clone());
        }
        let mut db = TimeTravelDb::new();
        let clock = LogicalClock::new();
        for (create_sql, annotation) in &config.tables {
            db.create_table(create_sql, annotation.clone())
                .unwrap_or_else(|e| panic!("installing table failed: {e}"));
        }
        for sql in &config.seed_sql {
            let time = clock.tick();
            db.execute_logged(sql, time)
                .unwrap_or_else(|e| panic!("seed statement `{sql}` failed: {e}"));
        }
        WarpServer {
            app_name: config.name,
            sources,
            db,
            router: config.router,
            clock,
            history: HistoryGraph::new(),
            conflicts: ConflictQueue::new(),
            replay_config: ReplayConfig::default(),
            pending_cookie_invalidations: BTreeSet::new(),
            reference_snapshot_commit: false,
            column_oblivious_repair: false,
            rng_counter: 0,
            session_counter: 0,
            store: None,
            pending_repair: None,
            repair_in_flight: false,
            replay_held: None,
            ckpt_marks: crate::persist::CheckpointMarks::default(),
            maintenance: None,
        }
    }

    /// Adds a table after installation (used by tests and by applications
    /// that create tables during setup scripts).
    pub fn install_table(&mut self, create_sql: &str, annotation: TableAnnotation) {
        self.db
            .create_table(create_sql, annotation.clone())
            .unwrap_or_else(|e| panic!("installing table failed: {e}"));
        self.log_event(&crate::persist::LogEvent::CreateTable {
            sql: create_sql.to_string(),
            annotation,
        });
    }

    /// Handles one HTTP request during normal execution and records the
    /// action in the history graph.
    pub fn handle(&mut self, request: HttpRequest) -> HttpResponse {
        let served = self.execute(request);
        // The one copy of the response: the caller's. The action record
        // keeps the original.
        let response = served.result.response.clone();
        self.record_served(served, None, None);
        response
    }

    /// Runs the application for one request, without recording anything:
    /// the first half of [`WarpServer::handle`], which
    /// [`WarpServer::record_served`] completes.
    pub(crate) fn execute(&mut self, mut request: HttpRequest) -> Served {
        // Queued cookie invalidation: delete the client's cookies before the
        // application sees the request, and tell the browser to do the same.
        let mut invalidation_cookies = Vec::new();
        if let Some(client_id) = request.warp.client_id.clone() {
            if self.pending_cookie_invalidations.remove(&client_id) {
                for (name, _) in request.cookies.iter() {
                    invalidation_cookies.push(format!("{name}="));
                }
                request.cookies.clear();
            }
        }
        let time = self.clock.tick();
        let Some(entry) = self.router.resolve(&request.path) else {
            let response = HttpResponse::not_found(format!("no route for {}", request.path));
            return Served {
                time,
                request,
                entry: "<unrouted>".to_string(),
                result: AppRunResult {
                    response,
                    loaded_files: Vec::new(),
                    queries: Vec::new(),
                    nondet: Vec::new(),
                    used_original_queries: Vec::new(),
                    script_error: None,
                    queries_reexecuted: 0,
                },
            };
        };
        let mut result = run_application(AppRunContext {
            request: &request,
            entry_script: entry.clone(),
            sources: &self.sources,
            action_time: time,
            db: crate::apphost::DbAccess::Exclusive(&mut self.db),
            mode: ExecMode::Normal {
                clock: &self.clock,
                rng_counter: &mut self.rng_counter,
                session_counter: &mut self.session_counter,
            },
        });
        result.response.set_cookies.extend(invalidation_cookies);
        Served {
            time,
            request,
            entry,
            result,
        }
    }

    /// Records one served action — the request, and the run's response,
    /// loaded files, queries and nondeterminism — in the history graph (and
    /// the durable log, if any). The sharded engine calls this directly with
    /// `shard_meta = Some((gen, watermark))` captured at epoch start, because
    /// during a shard epoch `self.db` is checked out to the worker pool; it
    /// also defers checkpointing to the next epoch barrier, where the
    /// database is back in place.
    ///
    /// `ack` runs once the action's record is durable — it rides to the log
    /// writer with the record — or at once on a server without a log.
    pub(crate) fn record_served(
        &mut self,
        served: Served,
        shard_meta: Option<(warp_ttdb::Generation, i64)>,
        ack: Option<Box<dyn FnOnce() + Send>>,
    ) -> ActionId {
        let Served {
            time,
            request,
            entry,
            result,
        } = served;
        let client = match (
            &request.warp.client_id,
            request.warp.visit_id,
            request.warp.request_id,
        ) {
            (Some(c), Some(v), Some(r)) => Some(ClientRef {
                client_id: c.clone(),
                visit_id: v,
                request_id: r,
            }),
            _ => None,
        };
        let id = self.history.record_action(ActionRecord {
            id: 0,
            time,
            request,
            response: result.response,
            client,
            entry_script: entry,
            loaded_files: result.loaded_files,
            queries: result.queries,
            nondet: result.nondet,
            cancelled: false,
        });
        let Some(sink) = &mut self.store else {
            if let Some(ack) = ack {
                ack();
            }
            return id;
        };
        let (gen, watermark) = match shard_meta {
            Some(meta) => meta,
            None => (
                self.db.current_generation(),
                self.db.synthetic_id_watermark(),
            ),
        };
        let (kind, payload) = crate::persist::encode_action_event(
            gen,
            self.clock.now(),
            self.rng_counter,
            self.session_counter,
            watermark,
            self.history.action(id).expect("action just recorded"),
        );
        sink.append_acked(kind, payload, ack);
        if shard_meta.is_none() {
            self.maybe_checkpoint();
        }
        id
    }

    /// Accepts a batch of client-side browser logs (uploaded by the
    /// extension out of band, §5.2).
    pub fn upload_client_logs(&mut self, logs: Vec<PageVisitRecord>) {
        for log in logs {
            if self.store.is_some() {
                self.log_event(&crate::persist::LogEvent::ClientLog(log.clone()));
            }
            self.history.upload_client_log(log);
        }
        self.maybe_checkpoint();
    }

    /// Storage accounting for Warp's logs plus database versions (Table 6).
    pub fn logging_stats(&self) -> LoggingStats {
        let mut stats = self.history.logging_stats();
        // Database version storage beyond live rows is attributable to Warp.
        let db_stats: StorageStats = self.db.storage_stats();
        let extra_versions = db_stats.total_versions.saturating_sub(db_stats.live_rows);
        let avg_row_bytes = db_stats.approximate_bytes / db_stats.total_versions.max(1);
        stats.db_bytes += extra_versions * avg_row_bytes;
        stats
    }

    /// Conflicts pending for a client (what the conflict-resolution page
    /// shows when the user next logs in).
    pub fn pending_conflicts(&self, client_id: &str) -> Vec<crate::conflict::Conflict> {
        self.conflicts
            .pending_for(client_id)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Garbage-collects the action history graph and database versions older
    /// than `before_time`. On a persistent server the GC is logged and
    /// immediately followed by a checkpoint, which compacts the durable log
    /// (all segments up to the checkpoint are deleted) — GC is what reclaims
    /// storage at both layers.
    pub fn garbage_collect(&mut self, before_time: i64) -> (usize, usize) {
        let removed = self.garbage_collect_unlogged(before_time);
        if self.store.is_some() {
            self.log_event(&crate::persist::LogEvent::Gc { before_time });
            self.checkpoint();
            // The administrator just declared pre-cutoff history
            // disposable: the cold archive tier has no reader left either.
            if let Some(sink) = &mut self.store {
                let _ = sink.prune_cold();
            }
        }
        removed
    }

    /// The GC itself, shared by the public entry point and log replay.
    pub(crate) fn garbage_collect_unlogged(&mut self, before_time: i64) -> (usize, usize) {
        let actions = self.history.garbage_collect(before_time);
        let versions = self.db.garbage_collect(before_time).unwrap_or(0);
        (actions, versions)
    }
}

impl Transport for WarpServer {
    fn send(&mut self, request: HttpRequest) -> HttpResponse {
        self.handle(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_browser::Browser;

    fn tiny_wiki() -> AppConfig {
        let mut config = AppConfig::new("tiny-wiki");
        config.add_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        );
        config.seed("INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'welcome')");
        config.add_source(
            "view.wasl",
            "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             if (len(rows) == 0) { echo(\"<p>missing</p>\"); } else { echo(\"<p>\" . rows[0][\"body\"] . \"</p>\"); }",
        );
        config.add_source(
            "edit.wasl",
            "db_query(\"UPDATE page SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             echo(\"<p>saved</p>\");",
        );
        config
    }

    #[test]
    fn serves_requests_and_records_actions() {
        let mut server = WarpServer::new(tiny_wiki());
        let r = server.send(HttpRequest::get("/view.wasl?title=Main"));
        assert!(r.body.contains("welcome"));
        let r = server.send(HttpRequest::post(
            "/edit.wasl",
            [("title", "Main"), ("body", "edited")],
        ));
        assert!(r.body.contains("saved"));
        let r = server.send(HttpRequest::get("/view.wasl?title=Main"));
        assert!(r.body.contains("edited"));
        assert_eq!(server.history.len(), 3);
        let actions = server.history.actions();
        assert_eq!(actions[0].entry_script, "view.wasl");
        assert_eq!(actions[1].queries.len(), 1);
        assert!(actions[1].queries[0].is_write);
        // Times are strictly increasing.
        assert!(actions[0].time < actions[1].time && actions[1].time < actions[2].time);
    }

    #[test]
    fn unknown_routes_get_404_and_are_still_recorded() {
        let mut server = WarpServer::new(tiny_wiki());
        let r = server.send(HttpRequest::get("/nope.php"));
        assert_eq!(r.status, 404);
        assert_eq!(server.history.len(), 1);
    }

    #[test]
    fn browser_end_to_end_with_warp_headers() {
        let mut server = WarpServer::new(tiny_wiki());
        let mut browser = Browser::new("client-alice");
        let visit = browser.visit("/view.wasl?title=Main", &mut server);
        assert!(visit.response.body.contains("welcome"));
        let logs = browser.take_logs();
        server.upload_client_logs(logs);
        // The action is correlated with the browser's visit.
        let action = &server.history.actions()[0];
        let client = action.client.as_ref().unwrap();
        assert_eq!(client.client_id, "client-alice");
        assert!(server
            .history
            .client_log("client-alice", client.visit_id)
            .is_some());
    }

    #[test]
    fn cookie_invalidation_applies_on_next_request() {
        let mut server = WarpServer::new(tiny_wiki());
        server
            .pending_cookie_invalidations
            .insert("client-x".to_string());
        let mut req = HttpRequest::get("/view.wasl?title=Main");
        req.warp.client_id = Some("client-x".to_string());
        req.warp.visit_id = Some(1);
        req.warp.request_id = Some(0);
        req.cookies.set("session", "stolen");
        let r = server.handle(req);
        assert!(r.set_cookies.iter().any(|c| c == "session="));
        assert!(server.pending_cookie_invalidations.is_empty());
    }

    #[test]
    fn logging_stats_grow_with_traffic() {
        let mut server = WarpServer::new(tiny_wiki());
        let before = server.logging_stats();
        for i in 0..10 {
            server.send(HttpRequest::post(
                "/edit.wasl",
                [("title", "Main"), ("body", &format!("edit {i}"))],
            ));
        }
        let after = server.logging_stats();
        assert!(after.total_bytes() > before.total_bytes());
        assert_eq!(after.actions, 10);
    }

    #[test]
    fn garbage_collect_trims_history_and_versions() {
        let mut server = WarpServer::new(tiny_wiki());
        for i in 0..5 {
            server.send(HttpRequest::post(
                "/edit.wasl",
                [("title", "Main"), ("body", &format!("edit {i}"))],
            ));
        }
        let cutoff = server.clock.now();
        server.send(HttpRequest::get("/view.wasl?title=Main"));
        let (actions_removed, versions_removed) = server.garbage_collect(cutoff);
        assert!(actions_removed >= 4);
        assert!(versions_removed >= 4);
        assert_eq!(server.history.len(), 1);
    }
}
