//! The repair controller: rollback-and-re-execute repair of web applications.
//!
//! This module implements the paper's repair workflow end to end:
//!
//! 1. **Initiation** (§3.2, §5.5): either a retroactive patch to a source
//!    file (effective at a past time), or a user/administrator request to
//!    undo a past page visit.
//! 2. **Candidate selection**: actions that loaded the patched file (for
//!    retroactive patching) or belong to the cancelled visit (for undo).
//! 3. **Rollback and re-execution** over the time-travel database: the
//!    controller walks the action history in time order; actions explicitly
//!    queued are re-executed with patched code (non-determinism replayed),
//!    actions whose query dependencies intersect the modified partitions
//!    have their queries selectively re-executed, and everything else is
//!    skipped (§4).
//! 4. **Browser re-execution** (§5): when a response changes, the affected
//!    page visit is replayed DOM-level in a server-side browser; requests it
//!    re-issues replace the originals, requests it no longer issues are
//!    cancelled, and failures become queued conflicts.
//! 5. **Completion**: the repair generation is finalized (or aborted, for a
//!    non-admin undo that would cause conflicts for other users).
//!
//! A repair is a [`RepairRun`]: started, stepped one re-executed action at a
//! time in the repair generation of the live database, and committed — so
//! the serving engine keeps answering requests in the current generation
//! between steps and pauses only to switch generations (§4.3).

use crate::conflict::Conflict;
use crate::history::ActionId;
use crate::scheduler::{
    sort_by_time, PartitionedRepair, RepairEnv, RepairPass, RepairStrategy, Seeds, Walk,
    SYNTHETIC_ID_STRIDE,
};
use crate::server::WarpServer;
use crate::sourcefs::Patch;
use crate::stats::RepairStats;
use std::time::Instant;
use warp_sql::{SqlError, Value};
use warp_ttdb::RepairSession;

/// How a repair is initiated.
#[derive(Debug, Clone)]
pub enum RepairRequest {
    /// Retroactively apply a security patch as of `from_time` (§3).
    RetroactivePatch {
        /// The patch to apply.
        patch: Patch,
        /// The past time from which the patch should be in effect.
        from_time: i64,
    },
    /// Undo a past page visit (§5.5), e.g. an administrator reverting an
    /// accidental permission grant.
    UndoVisit {
        /// The client whose visit is undone.
        client_id: String,
        /// The visit to undo.
        visit_id: u64,
        /// Administrators may proceed even if other users get conflicts;
        /// regular users may not.
        initiated_by_admin: bool,
    },
}

/// The result of a repair.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Counters and timing breakdown (Tables 7 and 8).
    pub stats: RepairStats,
    /// Conflicts raised during this repair.
    pub conflicts: Vec<Conflict>,
    /// True if the repair was aborted (user-initiated repair that would have
    /// caused conflicts for other users).
    pub aborted: bool,
    /// IDs of the actions that were fully re-executed, sorted. The
    /// partitioned engine must produce exactly the set the sequential engine
    /// produces (asserted by the equivalence proptests).
    pub reexecuted_actions: Vec<ActionId>,
    /// IDs of the actions that were cancelled, sorted.
    pub cancelled_actions: Vec<ActionId>,
    /// The error that aborted the repair, if one did: an operation on the
    /// repair generation failed (merging a partitioned unit's delta, or an
    /// abort), so the repair could not commit as computed. A failed abort
    /// leaves the repair generation open.
    pub error: Option<SqlError>,
}

/// A repair in progress: started, stepped, committed.
///
/// [`RepairRun::start`] logs `RepairBegin`, applies the patch and picks the
/// seeds; the walks then begin the repair generation on the master
/// database. With [`RepairStrategy::Frontier`], each [`RepairRun::step`]
/// re-executes or cancels one action in that generation, and between steps
/// the server may keep serving in the current generation: those requests
/// are logged as ordinary actions, and the walk judges them at its tail
/// like any other action. [`RepairRun::commit`] is the only barrier: it
/// walks whatever is left, finalizes the generation (or, for a non-admin
/// repair with conflicts, aborts it) and logs `RepairCommit` (or
/// `RepairAbort`), whose row diff covers every mutation since
/// `RepairBegin`, the served ones included.
///
/// [`RepairStrategy::Sequential`] has no step: it walks the whole history
/// in `commit`. The partitioned strategies step their units on clones and
/// leave the master database untouched until the commit merges them.
///
/// Between `start` and `commit` the caller must not checkpoint, collect
/// garbage or upload client logs; the [`crate::Warp`] engine commits the
/// run before any such message. Automatic checkpoints are held back until
/// the commit.
///
/// ```
/// use warp_core::{AppConfig, RepairRequest, RepairRun, RepairStrategy, WarpServer};
/// use warp_http::HttpRequest;
///
/// let mut app = AppConfig::new("hello");
/// app.add_source("index.wasl", "echo(\"hi\");");
/// let mut server = WarpServer::new(app);
/// server.handle(HttpRequest::get("/index.wasl"));
/// let patch = warp_core::Patch::new("index.wasl", "echo(\"hello\");", "greet");
/// let mut run = RepairRun::start(
///     &mut server,
///     RepairRequest::RetroactivePatch { patch, from_time: 0 },
///     RepairStrategy::Partitioned { workers: 2 },
/// );
/// while run.step(&mut server) {
///     server.handle(HttpRequest::get("/index.wasl"));
/// }
/// let outcome = run.commit(&mut server);
/// assert!(!outcome.aborted);
/// ```
pub struct RepairRun {
    request: RepairRequest,
    strategy: RepairStrategy,
    initiated_by_admin: bool,
    seeds: Seeds,
    stats: RepairStats,
    started: Instant,
    /// The first action ID served after `start`.
    floor: ActionId,
    /// The master's synthetic-ID watermark at `start`.
    watermark: i64,
    engine: Engine,
    /// Every table's rows before the repair touched the master, for the
    /// snapshot-diff reference commit (`reference_snapshot_commit`).
    pre_snapshot: Option<Vec<(String, Vec<Vec<Value>>)>>,
}

/// What a [`RepairRun`] executes.
enum Engine {
    /// A walk on the master database, in the repair generation it began at
    /// `start`. `ready` once no step is left (at once for the sequential
    /// engine, which walks in `commit`).
    Walk { walk: Box<Walk>, ready: bool },
    /// The partitioned engine.
    Partitioned(Box<PartitionedRepair>),
}

impl RepairRun {
    /// Starts a repair on `server`: logs `RepairBegin` (on a persistent
    /// server), applies the retroactive patch and picks the seed actions.
    /// A walk then begins the repair generation on the master database and
    /// takes the seeds as its first candidates; the partitioned engine
    /// plans its partitions and leaves the master database untouched.
    pub fn start(
        server: &mut WarpServer,
        request: RepairRequest,
        strategy: RepairStrategy,
    ) -> Self {
        let started = Instant::now();
        let mut stats = RepairStats::default();

        // Persistence: a repair is logged as begin + (commit | abort). The
        // begin record marks an in-progress repair for crash detection; the
        // commit record carries the repair's physical effect (per-table
        // row-version deltas, cancelled actions, conflicts, the new
        // generation), so recovery replays the outcome without re-running
        // the repair. The deltas come from the database's mutation tracker
        // (armed when the repair generation begins): every stored-row
        // mutation records the exact row versions it removed and added, so
        // building the commit costs O(rows changed) — no table is ever
        // snapshotted or diffed on this path.
        if server.store.is_some() {
            server.log_event(&crate::persist::LogEvent::RepairBegin(request.clone()));
        }
        // A checkpoint cut now would hold the patched sources with no
        // pending repair: held back until the commit.
        server.repair_in_flight = true;

        // Phase 1: initiation — work out the initial re-execution/cancel sets.
        let t_init = Instant::now();
        let mut seeds = Seeds::default();
        let initiated_by_admin = match &request {
            RepairRequest::RetroactivePatch { patch, from_time } => {
                server.sources.apply_retroactive_patch(patch, *from_time);
                seeds.reexecute.extend(
                    server
                        .history
                        .actions_loading_file(&patch.filename, *from_time),
                );
                true
            }
            RepairRequest::UndoVisit {
                client_id,
                visit_id,
                initiated_by_admin,
            } => {
                seeds
                    .cancel
                    .extend(server.history.actions_for_visit(client_id, *visit_id));
                *initiated_by_admin
            }
        };
        stats.time_init = t_init.elapsed();

        // Phase 2: load the graph (totals for reporting) and plan: a walk
        // begins its repair generation now, on the master database.
        let pre_snapshot = match strategy.clone_scope() {
            None => reference_snapshot(server, &mut stats),
            Some(_) => None,
        };
        let t_graph = Instant::now();
        stats.app_runs_total = server.history.len();
        stats.queries_total = server.history.queries_total();
        stats.page_visits_total = server.history.page_visits_total();
        stats.workers = strategy.worker_count();
        let engine = match strategy.clone_scope() {
            Some(scope) => Engine::Partitioned(Box::new(PartitionedRepair::plan(
                &server.history,
                &server.db,
                &seeds,
                strategy.worker_count(),
                scope,
            ))),
            None => {
                let sequential = strategy == RepairStrategy::Sequential;
                let (env, db) = server.repair_parts();
                let mut session = if sequential {
                    RepairSession::begin(db)
                } else {
                    RepairSession::begin_precise(db)
                };
                session.set_column_oblivious(env.column_oblivious);
                let walk = if sequential {
                    let mut order: Vec<ActionId> =
                        env.history.actions().iter().map(|a| a.id).collect();
                    sort_by_time(env.history, &mut order);
                    Walk::scan(&env, session, &order, &seeds, false)
                } else {
                    Walk::frontier(&env, session, &seeds)
                };
                Engine::Walk {
                    walk: Box::new(walk),
                    ready: sequential,
                }
            }
        };
        stats.time_graph = t_graph.elapsed();
        RepairRun {
            request,
            strategy,
            initiated_by_admin,
            seeds,
            stats,
            started,
            floor: server.history.len() as ActionId,
            watermark: server.db.synthetic_id_watermark(),
            engine,
            pre_snapshot,
        }
    }

    /// Starts the crash-interrupted repair recovery found, if any (see
    /// [`WarpServer::pending_repair`]).
    pub fn resume(server: &mut WarpServer, strategy: RepairStrategy) -> Option<Self> {
        let request = server.pending_repair.take()?;
        Some(Self::start(server, request, strategy))
    }

    /// True when no step is left and the run is ready to commit.
    pub fn is_ready(&self) -> bool {
        match &self.engine {
            Engine::Walk { ready, .. } => *ready,
            Engine::Partitioned(p) => p.in_place() || p.is_done(),
        }
    }

    /// Runs the next step — the frontier walk re-executes or cancels one
    /// action; the partitioned engine advances every worker batch by one
    /// repair unit, on its clone — and returns true while steps remain.
    /// Returns false at once when the run is ready to commit.
    pub fn step(&mut self, server: &mut WarpServer) -> bool {
        if self.is_ready() {
            return false;
        }
        let (env, db) = server.repair_parts();
        match &mut self.engine {
            Engine::Walk { walk, ready } => {
                *ready = !walk.step(&env, db);
                !*ready
            }
            Engine::Partitioned(partitioned) => partitioned.step(&env, db, &self.seeds),
        }
    }

    /// True when the partitioned engine must commit before the server
    /// serves another request: foreground inserts served since `start`
    /// are about to use up the synthetic-ID headroom below its clones'
    /// ranges. The walks share the master's allocator and never must.
    pub fn must_commit(&self, server: &WarpServer) -> bool {
        matches!(self.engine, Engine::Partitioned(_))
            && server.db.synthetic_id_watermark() - self.watermark >= SYNTHETIC_ID_STRIDE / 2
    }

    /// Commits the run: the barrier. Any step left runs first. A walk then
    /// walks whatever is left, the actions served since its last step
    /// included. The partitioned engine folds in the actions served since
    /// `start`: they join the units whose modified partitions (or replayed
    /// page visits) they meet, and those units re-run with them — or, when
    /// an action meets two units or a re-run escalates, the repair is
    /// re-planned over the whole history; the unit deltas are then applied
    /// inside the repair generation. Then the generation is finalized (or,
    /// for a non-admin repair with conflicts or after an error, aborted)
    /// and `RepairCommit` (or `RepairAbort`) is logged.
    pub fn commit(mut self, server: &mut WarpServer) -> RepairOutcome {
        while self.step(server) {}
        let mut stats = self.stats;
        // The partitioned engine touches the master only from here on.
        let pre_snapshot =
            (self.pre_snapshot.take()).or_else(|| reference_snapshot(server, &mut stats));

        // Phase 3: re-execution — the rest of the walk, or folding in what
        // was served since `start` and merging the partitioned engine's
        // unit deltas.
        let floor = self.floor;
        let since_begin = matches!(self.engine, Engine::Walk { .. });
        let run = {
            let (env, db) = server.repair_parts();
            match self.engine {
                Engine::Walk { mut walk, .. } => {
                    walk.run(&env, db);
                    let run = walk.finish();
                    stats.joined = run.stats.joined;
                    run
                }
                Engine::Partitioned(mut partitioned) => {
                    let mut carried = (0, 0);
                    let replan = if partitioned.in_place() {
                        // Served between `start` and `commit`: the one
                        // unit is planned over what is there now.
                        env.history.len() as ActionId > floor
                    } else if partitioned.fold_in(&env, db, &self.seeds, floor) {
                        false
                    } else {
                        let (escalations, fallbacks) = partitioned.counters();
                        carried = (escalations + 1, fallbacks);
                        true
                    };
                    if replan {
                        *partitioned = PartitionedRepair::plan(
                            env.history,
                            db,
                            &self.seeds,
                            self.strategy.worker_count(),
                            self.strategy.clone_scope().expect("a partitioned strategy"),
                        );
                    }
                    while partitioned.step(&env, db, &self.seeds) {}
                    let result = partitioned.finish(db, self.initiated_by_admin, floor);
                    stats.partitions_total = result.partitions_total;
                    stats.partitions_repaired = result.partitions_repaired;
                    stats.escalations = result.escalations + carried.0;
                    stats.bounded_clone_fallbacks = result.bounded_fallbacks + carried.1;
                    stats.joined = result.joined;
                    result.run
                }
            }
        };
        stats.served_during = server.history.len() - floor as usize;
        let RepairPass {
            stats: pass_stats,
            conflicts,
            cancelled,
            reexecuted,
            cookie_invalidations,
            mut error,
            ..
        } = run;

        // Phase 5: completion — the repaired state becomes visible (or the
        // repair generation is discarded) atomically.
        let t_ctrl = Instant::now();
        stats.page_visits_reexecuted = pass_stats.page_visits_reexecuted;
        stats.app_runs_reexecuted = pass_stats.app_runs_reexecuted;
        stats.queries_reexecuted = pass_stats.queries_reexecuted;
        stats.rows_rolled_back = pass_stats.rows_rolled_back;
        stats.actions_cancelled = pass_stats.actions_cancelled;
        stats.time_db = pass_stats.time_db;
        stats.time_app = pass_stats.time_app;
        stats.time_browser = pass_stats.time_browser;
        stats.conflicts = conflicts.len();
        let aborted = error.is_some() || (!self.initiated_by_admin && !conflicts.is_empty());
        if aborted {
            // The abort also discards the tracked mutation delta.
            if let Err(e) = server.db.abort_repair_generation() {
                error.get_or_insert(e);
            }
        } else {
            server.db.finalize_repair_generation();
            for &id in &cancelled {
                if let Some(a) = server.history.action_mut(id) {
                    a.cancelled = true;
                }
            }
            for c in &conflicts {
                server.conflicts.push(c.clone());
            }
        }
        server
            .pending_cookie_invalidations
            .extend(cookie_invalidations.iter().cloned());

        // Build the committed repair's physical write set. The tracker was
        // fed by every mutation path — re-executed writes, rollbacks,
        // generation bookkeeping, merged unit deltas, writes served while
        // the generation was open, even writes that errored after their
        // phase-2 rollback — so the commit record can never miss one.
        let t_commit = Instant::now();
        let delta = if aborted {
            warp_ttdb::RepairDelta::new()
        } else {
            server.db.drain_repair_delta()
        };
        stats.dirty_tables = delta.len();
        stats.dirty_rows = delta.values().map(|d| d.row_count()).sum();

        // Persistence: record the repair's outcome.
        if server.store.is_some() {
            let patch = match &self.request {
                RepairRequest::RetroactivePatch { patch, from_time } => {
                    Some((patch.clone(), *from_time))
                }
                RepairRequest::UndoVisit { .. } => None,
            };
            let cookie_invalidations: Vec<String> = cookie_invalidations.iter().cloned().collect();
            server.pending_repair = None;
            if aborted {
                server.log_event(&crate::persist::LogEvent::RepairAbort {
                    patch,
                    cookie_invalidations,
                });
            } else {
                // The wire format is unchanged from the snapshot-diff days:
                // per-table `(remove, add)` row sets in table order, rows in
                // canonical key order — the tracker nets its capture into
                // exactly that shape, so existing logs still recover.
                let table_diffs: Vec<crate::persist::TableDiff> = match &pre_snapshot {
                    None => delta
                        .into_iter()
                        .map(|(table, d)| (table, d.remove, d.add))
                        .collect(),
                    // Reference path: diff every table against the
                    // pre-repair snapshot (unchanged tables are detected by
                    // direct comparison first).
                    Some(snapshot) => snapshot
                        .iter()
                        .filter(|(table, before)| {
                            server
                                .db
                                .raw()
                                .table(table)
                                .map(|t| t.rows() != before.as_slice())
                                .unwrap_or(false)
                        })
                        .filter_map(|(table, before)| {
                            let after = server.db.table_rows_snapshot(table);
                            let d = warp_ttdb::row_diff(before, &after);
                            (!d.is_empty()).then(|| (table.clone(), d.remove, d.add))
                        })
                        .collect(),
                };
                let commit = crate::persist::RepairCommitRecord {
                    patch,
                    cancelled: cancelled.iter().copied().collect(),
                    conflicts: conflicts.clone(),
                    cookie_invalidations,
                    current_gen: server.db.current_generation(),
                    watermark: server.db.synthetic_id_watermark(),
                    table_diffs,
                };
                server.log_event(&if since_begin {
                    crate::persist::LogEvent::RepairCommitSinceBegin(commit)
                } else {
                    crate::persist::LogEvent::RepairCommit(commit)
                });
            }
        }
        // Close the commit-time span before any checkpoint: a due
        // checkpoint serializes the whole server state, and folding that
        // O(database) write into `time_commit` would falsify the metric
        // the commit benchmark gates on.
        stats.time_commit += t_commit.elapsed();
        server.repair_in_flight = false;
        if server.store.is_some() {
            server.maybe_checkpoint();
        }

        stats.time_ctrl = pass_stats.time_ctrl + t_ctrl.elapsed();
        stats.time_total = self.started.elapsed();
        RepairOutcome {
            stats,
            conflicts,
            aborted,
            reexecuted_actions: reexecuted.into_iter().collect(),
            cancelled_actions: cancelled.into_iter().collect(),
            error,
        }
    }
}

/// Test-only reference implementation (`reference_snapshot_commit`):
/// every table's rows before the repair touches the master, to diff
/// against at the commit — the O(database) strategy the tracker replaced,
/// kept compiled in so equivalence of the two commit paths is provable
/// byte for byte. The time goes to `time_commit`.
fn reference_snapshot(
    server: &WarpServer,
    stats: &mut RepairStats,
) -> Option<Vec<(String, Vec<Vec<Value>>)>> {
    if server.store.is_none() || !server.reference_snapshot_commit {
        return None;
    }
    let t_commit = Instant::now();
    let snapshot = (server.db.table_names().into_iter())
        .map(|t| {
            let rows = server.db.table_rows_snapshot(&t);
            (t, rows)
        })
        .collect();
    stats.time_commit += t_commit.elapsed();
    Some(snapshot)
}

impl std::fmt::Debug for RepairRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairRun")
            .field("request", &self.request)
            .field("strategy", &self.strategy)
            .field("floor", &self.floor)
            .field("ready", &self.is_ready())
            .finish_non_exhaustive()
    }
}

impl WarpServer {
    /// Runs a repair to completion with the classic sequential engine and
    /// returns its outcome. Normal operation may continue between and after
    /// repairs; the repaired state becomes visible atomically when the
    /// repair generation is finalized.
    pub fn repair(&mut self, request: RepairRequest) -> RepairOutcome {
        self.repair_with(request, RepairStrategy::Sequential)
    }

    /// Runs a repair to completion with the given strategy: a
    /// [`RepairRun`] started, stepped to its end and committed, with
    /// nothing served in between.
    ///
    /// [`RepairStrategy::Sequential`] walks the whole history in time order
    /// on one thread, in place. [`RepairStrategy::Frontier`] walks only the
    /// actions the partition index finds depending on what the repair
    /// modified (see [`crate::scheduler`]). [`RepairStrategy::Partitioned`]
    /// splits the history into independent dependency partitions,
    /// re-executes the seeded partitions concurrently on a worker pool, and
    /// merges the results. All produce the same final state, re-executed
    /// action set and cancelled action set as the sequential engine.
    pub fn repair_with(
        &mut self,
        request: RepairRequest,
        strategy: RepairStrategy,
    ) -> RepairOutcome {
        RepairRun::start(self, request, strategy).commit(self)
    }

    /// The repair context and the master database, borrowed apart.
    pub(crate) fn repair_parts(&mut self) -> (RepairEnv<'_>, &mut warp_ttdb::TimeTravelDb) {
        let env = RepairEnv {
            sources: &self.sources,
            router: &self.router,
            history: &self.history,
            replay_config: self.replay_config,
            column_oblivious: self.column_oblivious_repair,
        };
        (env, &mut self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use warp_browser::Browser;
    use warp_http::HttpRequest;
    use warp_ttdb::TableAnnotation;

    /// A miniature wiki with a stored-XSS vulnerability in `view.wasl`
    /// (page bodies are emitted without sanitisation).
    fn vulnerable_wiki() -> AppConfig {
        let mut config = AppConfig::new("mini-wiki");
        config.add_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        );
        config.seed("INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'welcome'), (2, 'Secret', 'secret data')");
        config.add_source(
            "view.wasl",
            "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             if (len(rows) == 0) { echo(\"<p>missing</p>\"); return; } \
             echo(\"<div id=\\\"content\\\">\" . rows[0][\"body\"] . \"</div>\"); \
             echo(\"<form action=\\\"/edit.wasl\\\" method=\\\"post\\\">\
                   <input type=\\\"hidden\\\" name=\\\"title\\\" value=\\\"\" . param(\"title\") . \"\\\"/>\
                   <textarea name=\\\"body\\\">\" . rows[0][\"body\"] . \"</textarea></form>\");",
        );
        config.add_source(
            "edit.wasl",
            "db_query(\"UPDATE page SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             echo(\"<p>saved</p>\");",
        );
        config
    }

    /// The patch for the stored XSS: sanitise the body before emitting it.
    fn xss_patch() -> Patch {
        Patch::new(
            "view.wasl",
            "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             if (len(rows) == 0) { echo(\"<p>missing</p>\"); return; } \
             echo(\"<div id=\\\"content\\\">\" . htmlspecialchars(rows[0][\"body\"]) . \"</div>\"); \
             echo(\"<form action=\\\"/edit.wasl\\\" method=\\\"post\\\">\
                   <input type=\\\"hidden\\\" name=\\\"title\\\" value=\\\"\" . htmlspecialchars(param(\"title\")) . \"\\\"/>\
                   <textarea name=\\\"body\\\">\" . htmlspecialchars(rows[0][\"body\"]) . \"</textarea></form>\");",
            "sanitise page bodies (stored XSS)",
        )
    }

    /// Runs the stored-XSS scenario: the attacker injects script into Main,
    /// a victim views it (the script overwrites the Secret page via the
    /// victim's browser), and an innocent user edits an unrelated page.
    fn run_stored_xss_scenario(server: &mut WarpServer) {
        // Attacker stores the XSS payload.
        let attacker = Browser::new("attacker");
        let payload = "http_post(\"/edit.wasl\", {\"title\": \"Secret\", \"body\": \"DEFACED\"});";
        let inject = format!("<script>{payload}</script>");
        server.handle(HttpRequest::post(
            "/edit.wasl",
            [("title", "Main"), ("body", inject.as_str())],
        ));
        // The attacker needs no extension for this attack.
        let _ = attacker;
        // Victim views the infected page; the script runs in the victim's
        // browser and defaces the Secret page using their requests.
        let mut victim = Browser::new("victim");
        let _visit = victim.visit("/view.wasl?title=Main", server);
        server.upload_client_logs(victim.take_logs());
        // An unaffected user edits an unrelated page.
        let mut other = Browser::new("other");
        let mut visit = other.visit("/view.wasl?title=Main", server);
        let _ = &mut visit;
        server.upload_client_logs(other.take_logs());
    }

    #[test]
    fn stored_xss_attack_then_retroactive_patch_recovers() {
        let mut server = WarpServer::new(vulnerable_wiki());
        run_stored_xss_scenario(&mut server);
        // The attack worked: Secret is defaced.
        let check = server.handle(HttpRequest::get("/view.wasl?title=Secret"));
        assert!(check.body.contains("DEFACED"));
        // Retroactively patch the XSS.
        let outcome = server.repair(RepairRequest::RetroactivePatch {
            patch: xss_patch(),
            from_time: 0,
        });
        assert!(!outcome.aborted);
        // The defacement is gone and the original secret content is back.
        let check = server.handle(HttpRequest::get("/view.wasl?title=Secret"));
        assert!(
            !check.body.contains("DEFACED"),
            "attack effect should be undone: {}",
            check.body
        );
        assert!(check.body.contains("secret data"));
        // The attacker's stored payload is still in the page body (it is data
        // the attacker submitted), but it is now rendered harmless.
        let main = server.handle(HttpRequest::get("/view.wasl?title=Main"));
        assert!(main.body.contains("&lt;script&gt;") || !main.body.contains("<script>"));
        // Only a small fraction of actions were re-executed.
        assert!(outcome.stats.app_runs_reexecuted >= 1);
        assert!(outcome.stats.app_runs_reexecuted <= server.history.len());
    }

    #[test]
    fn a_real_changed_by_less_than_one_reexecutes_its_reader() {
        let mut config = AppConfig::new("prices");
        config.add_table(
            "CREATE TABLE item (item_id INTEGER PRIMARY KEY, name TEXT, price REAL)",
            TableAnnotation::new()
                .row_id("item_id")
                .partitions(["name"]),
        );
        config.add_table(
            "CREATE TABLE quote (quote_id INTEGER PRIMARY KEY, price REAL)",
            TableAnnotation::new().row_id("quote_id"),
        );
        config.seed("INSERT INTO item (item_id, name, price) VALUES (1, 'tea', 1.0)");
        let reprice = |price: &str| {
            format!(
                "db_query(\"UPDATE item SET price = {price} WHERE name = 'tea'\"); echo(\"ok\");"
            )
        };
        config.add_source("reprice.wasl", reprice("1.25"));
        // The reader answers with the price and keeps a quote derived from
        // it; the quote is how the re-executed run's result shows.
        config.add_source(
            "quote.wasl",
            "let price = db_query(\"SELECT price FROM item WHERE name = 'tea'\")[0][\"price\"]; \
             db_query(\"INSERT INTO quote (quote_id, price) VALUES (1, \" . price . \")\"); \
             echo(\"price \" . price);",
        );
        config.add_source(
            "quotes.wasl",
            "echo(\"quote \" . db_query(\"SELECT price FROM quote\")[0][\"price\"]);",
        );
        let mut server = WarpServer::new(config);
        server.handle(HttpRequest::get("/reprice.wasl"));
        let read = server.handle(HttpRequest::get("/quote.wasl"));
        assert!(read.body.contains("price 1.25"), "{}", read.body);
        let reader = server.history.actions()[1].id;

        // The patched writer moves the price by less than 1: the reader's
        // query returns a different result, so the reader must re-run.
        let outcome = server.repair(RepairRequest::RetroactivePatch {
            patch: Patch::new("reprice.wasl", reprice("1.75"), "fix the price"),
            from_time: 0,
        });
        assert!(!outcome.aborted);
        assert!(
            outcome.reexecuted_actions.contains(&reader),
            "{:?}",
            outcome.reexecuted_actions
        );
        let quote = server.handle(HttpRequest::get("/quotes.wasl"));
        assert!(quote.body.contains("quote 1.75"), "{}", quote.body);
    }

    #[test]
    fn unaffected_actions_are_not_reexecuted() {
        let mut server = WarpServer::new(vulnerable_wiki());
        // Plenty of traffic that never touches the vulnerable code path's
        // attack pages.
        for i in 0..20 {
            server.handle(HttpRequest::post(
                "/edit.wasl",
                [("title", "Main"), ("body", &format!("revision {i}"))],
            ));
        }
        run_stored_xss_scenario(&mut server);
        let total = server.history.len();
        let outcome = server.repair(RepairRequest::RetroactivePatch {
            patch: xss_patch(),
            from_time: 0,
        });
        // The view.wasl runs are re-executed (they loaded the patched file),
        // but the 20 edit.wasl runs are not.
        assert!(outcome.stats.app_runs_reexecuted < total);
        assert!(outcome.stats.app_runs_reexecuted <= 6);
    }

    #[test]
    fn admin_undo_of_a_visit_rolls_back_its_writes() {
        let mut server = WarpServer::new(vulnerable_wiki());
        let mut admin = Browser::new("admin");
        let visit = admin.visit("/view.wasl?title=Main", &mut server);
        let mut visit = visit;
        admin.fill(&mut visit, "body", "mistaken edit");
        let _after = admin.submit_form(&mut visit, "/edit.wasl", &mut server);
        server.upload_client_logs(admin.take_logs());
        let check = server.handle(HttpRequest::get("/view.wasl?title=Main"));
        assert!(check.body.contains("mistaken edit"));
        let outcome = server.repair(RepairRequest::UndoVisit {
            client_id: "admin".to_string(),
            visit_id: visit.visit_id,
            initiated_by_admin: true,
        });
        assert!(!outcome.aborted);
        let check = server.handle(HttpRequest::get("/view.wasl?title=Main"));
        assert!(
            check.body.contains("welcome"),
            "undo should restore the original body: {}",
            check.body
        );
    }

    #[test]
    fn non_admin_undo_that_causes_conflicts_is_aborted() {
        let mut server = WarpServer::new(vulnerable_wiki());
        // A user edit followed by a dependent read from another user whose
        // replay will conflict (no extension, so any change conflicts).
        let mut user = Browser::new("user-1");
        let mut visit = user.visit("/view.wasl?title=Main", &mut server);
        user.fill(&mut visit, "body", "user-1 content");
        let _ = user.submit_form(&mut visit, "/edit.wasl", &mut server);
        server.upload_client_logs(user.take_logs());
        // Another user (no extension) views the page written by user-1.
        let other = Browser::without_extension("user-2");
        let mut req = HttpRequest::get("/view.wasl?title=Main");
        req.warp.client_id = Some("user-2".to_string());
        req.warp.visit_id = Some(1);
        req.warp.request_id = Some(0);
        let _ = server.handle(req);
        let _ = other;
        let before = server.handle(HttpRequest::get("/view.wasl?title=Main"));
        let outcome = server.repair(RepairRequest::UndoVisit {
            client_id: "user-1".to_string(),
            visit_id: visit.visit_id,
            initiated_by_admin: false,
        });
        assert!(outcome.aborted, "non-admin undo with conflicts must abort");
        let after = server.handle(HttpRequest::get("/view.wasl?title=Main"));
        assert_eq!(
            before.body, after.body,
            "aborted repair must not change state"
        );
    }

    /// A non-admin undo with conflicts aborts; when the abort itself fails
    /// (a stored version the generations do not account for collides with
    /// the version it restores), the outcome names the error.
    #[test]
    fn a_failed_abort_is_reported_in_the_outcome() {
        let mut server = WarpServer::new(vulnerable_wiki());
        let mut user = Browser::new("user-1");
        let mut visit = user.visit("/view.wasl?title=Main", &mut server);
        user.fill(&mut visit, "body", "user-1 content");
        let _ = user.submit_form(&mut visit, "/edit.wasl", &mut server);
        server.upload_client_logs(user.take_logs());
        let mut req = HttpRequest::get("/view.wasl?title=Main");
        req.warp.client_id = Some("user-2".to_string());
        req.warp.visit_id = Some(1);
        req.warp.request_id = Some(0);
        server.handle(req);
        let request = RepairRequest::UndoVisit {
            client_id: "user-1".to_string(),
            visit_id: visit.visit_id,
            initiated_by_admin: false,
        };
        let mut run = RepairRun::start(&mut server, request, RepairStrategy::with_workers(1));
        while run.step(&mut server) {}
        let mut stray = server.db.raw().table("page").unwrap().rows()[0].clone();
        stray[0] = warp_sql::Value::Int(99);
        let width = stray.len();
        stray[width - 4..].clone_from_slice(&[
            warp_sql::Value::Int(0),
            warp_sql::Value::Int(warp_ttdb::INF_TIME),
            warp_sql::Value::Int(0),
            warp_sql::Value::Int(warp_ttdb::INF_GEN),
        ]);
        server.db.apply_row_diff("page", &[], &[stray]).unwrap();
        let outcome = run.commit(&mut server);
        assert!(outcome.aborted);
        assert!(
            matches!(outcome.error, Some(SqlError::UniqueViolation { .. })),
            "{:?}",
            outcome.error
        );
    }
}
