//! The repair walk and the partitioned parallel repair scheduler.
//!
//! The paper's repair (§4) rolls back and re-executes in time order, and
//! touches only what depends on what changed. `Walk` is that loop —
//! rollback, selective query re-execution, full application re-execution
//! and browser replay — as a resumable state machine over the history:
//!
//! * **The frontier walk** ([`RepairStrategy::Frontier`]) visits only
//!   candidates, in `(time, id)` order: the seeds, then every action the
//!   history's partition index finds touching a partition the repair has
//!   modified, once it is modified, if the action comes after the cursor.
//!   It never scans the whole history, and it runs on the master database
//!   inside the repair generation, one re-executed or cancelled action per
//!   step, so the engine serves current-generation requests between steps.
//!   Actions served meanwhile are judged at the walk's tail like any other.
//! * **The scanning walk** visits every action in time order: the classic
//!   [`RepairStrategy::Sequential`] engine (with the classic, whole-table
//!   rollback session), and each unit of the partitioned engine.
//!
//! Both give the same repair over the same history: an action the scan
//! would change something for has a query whose dependency meets the
//! modified set, so the index finds it as soon as the set does.
//!
//! The partitioned engine (`plan_partitions`, `PartitionedRepair`) is the
//! older design: it groups the history into independent dependency
//! components (union-find over partition hubs, whole-table hubs and
//! page-visit links), walks the seeded groups on clones of the database,
//! concurrently, and merges the clones' mutation-tracked deltas into the
//! master at commit. It is reachable through
//! [`RepairStrategy::Partitioned`] and
//! [`RepairStrategy::PartitionedFullClone`] only.

use crate::apphost::{run_application, AppRunContext, AppRunResult, ExecMode};
use crate::conflict::{Conflict, ConflictKind};
use crate::history::{ActionId, ActionRecord, HistoryGraph};
use crate::sourcefs::SourceStore;
use crate::stats::RepairStats;
use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use warp_browser::{replay_visit, ReplayConfig, ReplayOutcome};
use warp_http::{HttpRequest, HttpResponse, Router, Transport};
use warp_sql::SqlError;
use warp_ttdb::{PartitionKey, PartitionSet, RepairDelta, RepairSession, RowScope, TimeTravelDb};

/// How a repair is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// The classic engine: one thread walks the entire action history in
    /// time order, re-executing in place.
    Sequential,
    /// The frontier walk: one stepped walk over the candidates only, on the
    /// master database inside its repair generation, serving between steps
    /// (see the [module documentation](self)). It runs on the engine's
    /// thread, so it reports one worker in [`RepairStats::workers`].
    Frontier,
    /// The partitioned engine: the history is split into independent
    /// dependency partitions which are re-executed concurrently on `workers`
    /// threads and merged. `workers: 1` still exercises the full
    /// partition/merge machinery on a single thread.
    ///
    /// Worker batches clone only their dependency footprint — down to the
    /// partition level: a table whose footprint is a set of partition keys
    /// contributes only the row versions in those partitions, so a single
    /// hot table shared by many groups is not copied wholesale into every
    /// batch. A batch caught touching state outside its footprint —
    /// possible only through patched code or fresh browser requests —
    /// forces the round to re-run on full clones, so results are always
    /// identical to [`RepairStrategy::PartitionedFullClone`].
    Partitioned {
        /// Worker threads re-executing partitions concurrently (min 1).
        workers: usize,
    },
    /// The partitioned engine with whole-database worker clones. Reference
    /// implementation for the bounded-memory clone equivalence tests; same
    /// results as [`RepairStrategy::Partitioned`], more clone memory.
    PartitionedFullClone {
        /// Worker threads re-executing partitions concurrently (min 1).
        workers: usize,
    },
}

impl RepairStrategy {
    /// The strategy a repair worker count selects: `0` runs the sequential
    /// engine, any other count the frontier walk.
    pub fn with_workers(workers: usize) -> Self {
        match workers {
            0 => RepairStrategy::Sequential,
            _ => RepairStrategy::Frontier,
        }
    }

    /// The worker count this strategy reports in [`RepairStats::workers`].
    pub fn worker_count(&self) -> usize {
        match self {
            RepairStrategy::Sequential => 0,
            RepairStrategy::Frontier => 1,
            RepairStrategy::Partitioned { workers }
            | RepairStrategy::PartitionedFullClone { workers } => (*workers).max(1),
        }
    }

    /// How the partitioned engine's batches clone the master database;
    /// `None` for the walks.
    pub(crate) fn clone_scope(&self) -> Option<CloneScope> {
        match self {
            RepairStrategy::Sequential | RepairStrategy::Frontier => None,
            RepairStrategy::Partitioned { .. } => Some(CloneScope::Footprint),
            RepairStrategy::PartitionedFullClone { .. } => Some(CloneScope::Full),
        }
    }
}

/// How worker batches clone the master database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloneScope {
    /// Clone only the tables in the batch's dependency footprint.
    Footprint,
    /// Clone every table.
    Full,
}

/// The immutable context a repair pass executes against. Shared by reference
/// across worker threads (everything in it is plain data).
pub(crate) struct RepairEnv<'a> {
    pub sources: &'a SourceStore,
    pub router: &'a Router,
    pub history: &'a HistoryGraph,
    pub replay_config: ReplayConfig,
    /// Mirrors [`crate::server::WarpServer::column_oblivious_repair`]: when
    /// true every repair session widens its dirty columns to `All`.
    pub column_oblivious: bool,
}

/// Everything one repair pass (a walk, or one partition group) produced.
/// Mutations of shared server state (history cancellation flags, the
/// conflict queue, cookie invalidations) are collected here and applied by
/// the controller after the pass, so passes can run against clones.
#[derive(Default)]
pub(crate) struct RepairPass {
    pub stats: RepairStats,
    pub conflicts: Vec<Conflict>,
    pub cancelled: BTreeSet<ActionId>,
    pub reexecuted: BTreeSet<ActionId>,
    pub cookie_invalidations: BTreeSet<String>,
    /// Partition sets of every query actually executed during the pass
    /// (collected only for partitioned units; used for escalation checks).
    pub dynamic_deps: Vec<PartitionSet>,
    /// Tables whose stored rows this pass may have mutated.
    pub touched_tables: BTreeSet<String>,
    /// Rows rolled back through the pass's session.
    pub rolled_back_rows: usize,
    /// Partitions the pass's session modified.
    pub modified: Vec<PartitionSet>,
    /// Page visits the pass replayed in the server-side browser.
    pub replayed_visits: BTreeSet<(String, u64)>,
    /// The error that stopped the repair: it aborts instead of committing.
    pub error: Option<SqlError>,
}

/// A transport handed to the server-side re-execution browser. Requests the
/// replayed page issues are *collected* for the repair controller to process
/// (re-execute or record as new actions) instead of being executed directly.
#[derive(Debug, Default)]
struct CollectingTransport {
    requests: Vec<HttpRequest>,
}

impl Transport for CollectingTransport {
    fn send(&mut self, request: HttpRequest) -> HttpResponse {
        self.requests.push(request);
        // The replayed page does not get to observe repaired responses
        // directly; the repair controller re-executes the corresponding
        // actions itself.
        HttpResponse::ok("")
    }
}

/// The repair loop as a resumable walk (paper §4): actions queued for
/// re-execution run again with patched code, actions queued for
/// cancellation are rolled back and cancelled, and every other visited
/// action is selectively re-executed only where its recorded dependencies
/// meet the partitions modified so far. See the [module
/// documentation](self) for the two ways the candidates are chosen.
pub(crate) struct Walk {
    session: RepairSession,
    to_reexecute: BTreeSet<ActionId>,
    to_cancel: BTreeSet<ActionId>,
    request_overrides: BTreeMap<ActionId, HttpRequest>,
    pass: RepairPass,
    collect_dynamic: bool,
    /// The actions still to visit, by `(time, id)`; all after `cursor`.
    candidates: BTreeSet<(i64, ActionId)>,
    /// The last action visited.
    cursor: (i64, ActionId),
    /// `None` for the scanning walk; for the frontier walk, what of the
    /// modified set the candidates were grown from.
    frontier: Option<Grown>,
    /// Actions with smaller IDs were candidates from the start or have been
    /// checked against the whole modified set.
    checked: ActionId,
    /// The first action recorded after the walk began.
    floor: ActionId,
}

/// What of the session's modified set the frontier walk has looked up in
/// the history's partition index: a partition (or table) once looked up
/// needs no second look, since the actions it finds after the cursor were
/// all made candidates then.
#[derive(Default)]
struct Grown {
    /// Dirty regions of the session already looked up.
    regions: usize,
    keys: BTreeSet<PartitionKey>,
    /// Tables modified as a whole: every partition of them is looked up.
    whole: BTreeSet<String>,
    /// Tables with any modification: their whole-table readers and writers
    /// are looked up.
    tables: BTreeSet<String>,
}

impl Walk {
    /// The scanning walk over `order` (action IDs in time order): every
    /// listed action is visited, the seeds among them re-executed or
    /// cancelled.
    pub(crate) fn scan(
        env: &RepairEnv<'_>,
        session: RepairSession,
        order: &[ActionId],
        seeds: &Seeds,
        collect_dynamic: bool,
    ) -> Self {
        let in_order = |set: &BTreeSet<ActionId>| -> BTreeSet<ActionId> {
            order
                .iter()
                .filter(|id| set.contains(id))
                .copied()
                .collect()
        };
        let mut walk = Walk::new(session, in_order(&seeds.reexecute), in_order(&seeds.cancel));
        walk.collect_dynamic = collect_dynamic;
        walk.candidates = order.iter().map(|&id| key(env.history, id)).collect();
        walk.checked = env.history.len() as ActionId;
        walk.floor = walk.checked;
        walk
    }

    /// The frontier walk from `seeds`, over the history as it is now and
    /// as it grows.
    pub(crate) fn frontier(env: &RepairEnv<'_>, session: RepairSession, seeds: &Seeds) -> Self {
        let mut walk = Walk::new(session, seeds.reexecute.clone(), seeds.cancel.clone());
        walk.candidates = (seeds.reexecute.iter().chain(&seeds.cancel))
            .filter(|&&id| env.history.action(id).is_some())
            .map(|&id| key(env.history, id))
            .collect();
        walk.frontier = Some(Grown::default());
        walk.checked = env.history.len() as ActionId;
        walk.floor = walk.checked;
        walk
    }

    fn new(
        session: RepairSession,
        to_reexecute: BTreeSet<ActionId>,
        to_cancel: BTreeSet<ActionId>,
    ) -> Self {
        Walk {
            session,
            to_reexecute,
            to_cancel,
            request_overrides: BTreeMap::new(),
            pass: RepairPass::default(),
            collect_dynamic: false,
            candidates: BTreeSet::new(),
            cursor: (i64::MIN, 0),
            frontier: None,
            checked: 0,
            floor: 0,
        }
    }

    /// Visits candidates until one of them re-executes or cancels
    /// something, or none is left once the actions recorded since the last
    /// look have been checked (see [`Walk::fold_recorded`]). Returns true
    /// while candidates may remain.
    pub(crate) fn step(&mut self, env: &RepairEnv<'_>, db: &mut TimeTravelDb) -> bool {
        loop {
            // Actions recorded since the last look come after every action
            // recorded before it: they are looked at before the walk
            // reaches the first of them (growth may have made one a
            // candidate) or runs out.
            if (self.candidates.first()).is_none_or(|&(_, id)| id >= self.checked) {
                self.fold_recorded(env.history, db);
            }
            let Some(next) = self.candidates.pop_first() else {
                return false;
            };
            self.cursor = next;
            if next.1 >= self.floor {
                self.pass.stats.joined += 1;
            }
            let worked = self.visit(env, db, next.1);
            self.grow(env.history);
            if worked {
                return true;
            }
        }
    }

    /// Walks every candidate left, the actions recorded meanwhile included.
    pub(crate) fn run(&mut self, env: &RepairEnv<'_>, db: &mut TimeTravelDb) {
        while self.step(env, db) {}
    }

    /// Makes the actions recorded since the last look candidates: every
    /// one for the scanning walk; for the frontier walk, those whose
    /// partition footprint meets the whole modified set or that belong to
    /// a page visit the walk replayed. An action whose current-generation
    /// write had to stay out of the repair generation
    /// ([`TimeTravelDb::take_held_out`]) is queued for full re-execution.
    fn fold_recorded(&mut self, history: &HistoryGraph, db: &mut TimeTravelDb) {
        let held = db.take_held_out();
        let recorded = history
            .actions()
            .get(self.checked as usize..)
            .unwrap_or(&[]);
        if recorded.is_empty() && held.is_empty() {
            return;
        }
        // The scanning walk takes every action and needs no index.
        let regions = self.session.modified_regions();
        let modified = (self.frontier.is_some())
            .then(|| ModifiedIndex::new(regions.iter().map(|r| &r.partitions)));
        for action in recorded {
            let meets = modified.as_ref().is_none_or(|modified| {
                action.client.as_ref().is_some_and(|c| {
                    (self.pass.replayed_visits).contains(&(c.client_id.clone(), c.visit_id))
                }) || modified.overlaps_any(&action.partition_footprint().collect::<Vec<_>>())
            });
            let wrote_held = action.queries.iter().any(|q| {
                q.is_write
                    && held.iter().any(|(table, id)| {
                        q.dependency.table.eq_ignore_ascii_case(table)
                            && q.written_row_ids().contains(id)
                    })
            });
            if wrote_held {
                self.to_reexecute.insert(action.id);
            }
            if (meets || wrote_held) && (action.time, action.id) > self.cursor {
                self.candidates.insert((action.time, action.id));
            }
        }
        self.checked = history.len() as ActionId;
    }

    /// The frontier walk's growth: the actions after the cursor that the
    /// partition index finds touching what the session modified since the
    /// last look become candidates.
    fn grow(&mut self, history: &HistoryGraph) {
        let Some(grown) = self.frontier.as_mut() else {
            return;
        };
        let regions = &self.session.modified_regions()[grown.regions..];
        if regions.is_empty() {
            return;
        }
        grown.regions += regions.len();
        let index = history.partition_index();
        let cursor = self.cursor;
        let candidates = &mut self.candidates;
        let mut visit = |ids: &[ActionId]| {
            for &id in ids {
                let k = key(history, id);
                if k > cursor {
                    candidates.insert(k);
                }
            }
        };
        for region in regions {
            let (table, keys): (&str, Option<&BTreeSet<PartitionKey>>) = match &region.partitions {
                PartitionSet::Whole { table } => (table, None),
                PartitionSet::Keys(keys) => match keys.first() {
                    Some(first) => (&first.table, Some(keys)),
                    None => continue,
                },
            };
            // Keys of one set may span tables; each key names its own.
            let tables: Vec<&str> = match keys {
                None => vec![table],
                Some(keys) => keys.iter().map(|k| k.table.as_str()).collect(),
            };
            for table in tables {
                if !grown.tables.contains(table) {
                    grown.tables.insert(table.to_string());
                    if let Some(usage) = index.get(table) {
                        visit(&usage.whole_readers);
                        visit(&usage.whole_writers);
                    }
                }
            }
            match keys {
                None => {
                    if grown.whole.insert(table.to_string()) {
                        for hub in index.get(table).into_iter().flat_map(|u| u.keys.values()) {
                            visit(&hub.readers);
                            visit(&hub.writers);
                        }
                    }
                }
                Some(keys) => {
                    for k in keys {
                        if grown.whole.contains(k.table.as_str()) || !grown.keys.insert(k.clone()) {
                            continue;
                        }
                        let hub = index
                            .get(&k.table)
                            .and_then(|u| u.keys.get(&(k.column.clone(), k.value.clone())));
                        if let Some(hub) = hub {
                            visit(&hub.readers);
                            visit(&hub.writers);
                        }
                    }
                }
            }
        }
    }

    /// Queues `id` for re-execution or cancellation from a replayed visit:
    /// the frontier walk makes it a candidate if it still lies ahead.
    fn queue(&mut self, history: &HistoryGraph, id: ActionId, cancel: bool) {
        if cancel {
            self.to_cancel.insert(id);
        } else {
            self.to_reexecute.insert(id);
        }
        let k = key(history, id);
        if self.frontier.is_some() && k > self.cursor {
            self.candidates.insert(k);
        }
    }

    /// Visits one action. Returns true if it re-executed or cancelled
    /// anything.
    fn visit(&mut self, env: &RepairEnv<'_>, db: &mut TimeTravelDb, id: ActionId) -> bool {
        let action = match env.history.action(id) {
            Some(a) if !a.cancelled => a,
            _ => return false,
        };
        let run = &mut self.pass;
        let session = &mut self.session;
        if self.to_cancel.contains(&id) {
            let t = Instant::now();
            cancel_action(db, session, action, run);
            run.stats.time_db += t.elapsed();
            return true;
        }
        let explicitly_queued = self.to_reexecute.contains(&id);
        let mut needs_full_reexecution = explicitly_queued;
        if !needs_full_reexecution {
            // Selective query re-execution (§4.1): only queries whose
            // partitions were modified are re-executed; the run itself is
            // re-executed only if a read query's result changed.
            let affected: Vec<usize> = action
                .queries
                .iter()
                .enumerate()
                .filter(|(_, q)| session.dependency_affected(&q.dependency))
                .map(|(i, _)| i)
                .collect();
            if affected.is_empty() {
                return false;
            }
            let t = Instant::now();
            for i in affected {
                let q = &action.queries[i];
                let Ok(mut query) = db.plan(&q.sql) else {
                    continue;
                };
                if q.is_write {
                    match session.reexecute_write(db, &mut query, q.time, q.written_row_ids()) {
                        Ok(out) => {
                            if self.collect_dynamic {
                                collect_deps(run, std::iter::once(&out.dependency));
                            }
                            run.touched_tables.insert(q.dependency.table.clone());
                        }
                        Err(_) => {
                            run.touched_tables.insert(q.dependency.table.clone());
                        }
                    }
                    run.stats.queries_reexecuted += 1;
                } else {
                    match session.reexecute_read(db, &mut query, q.time) {
                        Ok(out) => {
                            run.stats.queries_reexecuted += 1;
                            if out.result.fingerprint() != q.result_fingerprint {
                                needs_full_reexecution = true;
                            }
                        }
                        Err(_) => needs_full_reexecution = true,
                    }
                }
            }
            run.stats.time_db += t.elapsed();
            if !needs_full_reexecution {
                return true;
            }
        }
        // Full application re-execution.
        let t_app = Instant::now();
        let effective_request = self.request_overrides.get(&id).unwrap_or(&action.request);
        let result = reexecute_action(env, db, session, action, effective_request);
        run.reexecuted.insert(id);
        run.stats.app_runs_reexecuted += 1;
        run.stats.queries_reexecuted += result.queries_reexecuted;
        if self.collect_dynamic {
            collect_deps(run, result.queries.iter().map(|q| &q.dependency));
        }
        for q in &result.queries {
            if q.is_write {
                run.touched_tables.insert(q.dependency.table.clone());
            }
        }
        // Roll back the effects of original writes the patched run no
        // longer performs (this is how an attack's database changes are
        // undone when retroactive patching makes them disappear).
        for (i, q) in action.queries.iter().enumerate() {
            let matched = result
                .used_original_queries
                .get(i)
                .copied()
                .unwrap_or(false);
            if q.is_write && !matched {
                let _ = session.rollback_rows(db, &q.dependency.table, q.written_row_ids(), q.time);
                run.stats.rows_rolled_back += q.written_row_ids().len();
                session.note_modified_columns(
                    &q.dependency.write_partitions,
                    &q.dependency.write_columns,
                );
                run.touched_tables.insert(q.dependency.table.clone());
            }
        }
        run.stats.time_app += t_app.elapsed();
        let response_changed = result.response.fingerprint() != action.response.fingerprint();
        if let Some(err) = &result.script_error {
            run.conflicts.push(Conflict::new(
                action
                    .client
                    .as_ref()
                    .map(|c| c.client_id.as_str())
                    .unwrap_or("<server>"),
                action.client.as_ref().map(|c| c.visit_id).unwrap_or(0),
                &action.request.path,
                ConflictKind::ReexecutionFailed(err.clone()),
            ));
        }
        if !response_changed {
            return true;
        }
        // Browser re-execution for the page visit that received the changed
        // response (paper §5).
        let Some(client) = &action.client else {
            return true;
        };
        let visit_key = (client.client_id.clone(), client.visit_id);
        if !run.replayed_visits.insert(visit_key) {
            return true;
        }
        run.stats.page_visits_reexecuted += 1;
        let t_browser = Instant::now();
        let replay = replay_client_visit(
            env,
            run,
            &client.client_id,
            client.visit_id,
            &result.response,
        );
        run.stats.time_browser += t_browser.elapsed();
        let Some(outcome) = replay else {
            // No client log (extension not installed): Warp cannot verify
            // the browser's behaviour; inform the user.
            run.conflicts.push(Conflict::new(
                &client.client_id,
                client.visit_id,
                &action.request.path,
                ConflictKind::BrowserReplay(warp_browser::ConflictReason::NoClientLog),
            ));
            return true;
        };
        if let Some(reason) = outcome.conflict.clone() {
            run.conflicts.push(Conflict::new(
                &client.client_id,
                client.visit_id,
                &action.request.path,
                ConflictKind::BrowserReplay(reason),
            ));
            // Per §5.4: queue the conflict and assume subsequent requests
            // are unchanged.
            return true;
        }
        // Requests re-issued by the replayed page replace the originals;
        // requests no longer issued are cancelled.
        let mut reissued: BTreeSet<u64> = BTreeSet::new();
        for replayed in &outcome.requests {
            match replayed.matched_request_id {
                Some(orig_request_id) => {
                    reissued.insert(orig_request_id);
                    if let Some(target) = env.history.action_for_request(
                        &client.client_id,
                        client.visit_id,
                        orig_request_id,
                    ) {
                        if target != id {
                            self.request_overrides
                                .insert(target, replayed.request.clone());
                            self.queue(env.history, target, false);
                        }
                    }
                }
                None => {
                    // A brand-new request that did not exist during the
                    // original execution: run it now inside the repair
                    // generation.
                    let t = Instant::now();
                    let fresh = run_fresh_in_repair(
                        env,
                        db,
                        &mut self.session,
                        &replayed.request,
                        action.time,
                    );
                    let run = &mut self.pass;
                    run.stats.queries_reexecuted += fresh.queries_reexecuted;
                    if self.collect_dynamic {
                        collect_deps(run, fresh.queries.iter().map(|q| &q.dependency));
                    }
                    for q in &fresh.queries {
                        if q.is_write {
                            run.touched_tables.insert(q.dependency.table.clone());
                        }
                    }
                    run.stats.time_app += t.elapsed();
                }
            }
        }
        for other_id in env
            .history
            .actions_for_visit(&client.client_id, client.visit_id)
        {
            if other_id == id {
                continue;
            }
            let Some(other) = env.history.action(other_id) else {
                continue;
            };
            let other_request_id = other
                .client
                .as_ref()
                .map(|c| c.request_id)
                .unwrap_or(u64::MAX);
            if !reissued.contains(&other_request_id) && !other.cancelled {
                self.queue(env.history, other_id, true);
            }
        }
        true
    }

    /// The pass the walk produced; its repair generation stays open.
    pub(crate) fn finish(self) -> RepairPass {
        let mut run = self.pass;
        run.stats.rows_rolled_back = run
            .stats
            .rows_rolled_back
            .max(self.session.rolled_back_rows);
        run.rolled_back_rows = self.session.rolled_back_rows;
        run.modified = (self.session.modified_regions().iter())
            .map(|r| r.partitions.clone())
            .collect();
        run
    }
}

/// An action's place in repair order.
fn key(history: &HistoryGraph, id: ActionId) -> (i64, ActionId) {
    (history.action(id).map_or(0, |a| a.time), id)
}

/// Runs the scanning walk over `order` (action IDs in time order) to its
/// end: one partitioned unit, or the whole history.
pub(crate) fn execute_actions(
    env: &RepairEnv<'_>,
    db: &mut TimeTravelDb,
    session: RepairSession,
    order: &[ActionId],
    seeds: &Seeds,
    collect_dynamic: bool,
) -> RepairPass {
    let mut walk = Walk::scan(env, session, order, seeds, collect_dynamic);
    walk.run(env, db);
    walk.finish()
}

fn collect_deps<'a>(
    run: &mut RepairPass,
    deps: impl Iterator<Item = &'a warp_ttdb::QueryDependency>,
) {
    for dep in deps {
        let (read, write) = crate::history::normalized_dependency_partitions(dep);
        run.dynamic_deps.extend(read.cloned());
        run.dynamic_deps.extend(write.map(Cow::into_owned));
    }
}

/// Re-executes one recorded action with the (possibly patched) sources and
/// the repair session.
fn reexecute_action(
    env: &RepairEnv<'_>,
    db: &mut TimeTravelDb,
    session: &mut RepairSession,
    action: &ActionRecord,
    request: &HttpRequest,
) -> AppRunResult {
    let entry = env
        .router
        .resolve(&request.path)
        .unwrap_or_else(|| action.entry_script.clone());
    run_application(AppRunContext {
        request,
        entry_script: entry,
        sources: env.sources,
        action_time: action.time,
        db: crate::apphost::DbAccess::Exclusive(db),
        mode: ExecMode::Repair {
            session,
            original: Some(action),
        },
    })
}

/// Executes a brand-new request (discovered during browser replay) inside
/// the repair generation at the given time.
fn run_fresh_in_repair(
    env: &RepairEnv<'_>,
    db: &mut TimeTravelDb,
    session: &mut RepairSession,
    request: &HttpRequest,
    time: i64,
) -> AppRunResult {
    let entry = match env.router.resolve(&request.path) {
        Some(e) => e,
        None => {
            return AppRunResult {
                response: HttpResponse::not_found("no route"),
                loaded_files: Vec::new(),
                queries: Vec::new(),
                nondet: Vec::new(),
                used_original_queries: Vec::new(),
                script_error: None,
                queries_reexecuted: 0,
            }
        }
    };
    run_application(AppRunContext {
        request,
        entry_script: entry,
        sources: env.sources,
        action_time: time,
        db: crate::apphost::DbAccess::Exclusive(db),
        mode: ExecMode::Repair {
            session,
            original: None,
        },
    })
}

/// Rolls back everything an action wrote and records it as cancelled.
fn cancel_action(
    db: &mut TimeTravelDb,
    session: &mut RepairSession,
    action: &ActionRecord,
    run: &mut RepairPass,
) {
    for q in &action.queries {
        if q.is_write {
            let _ = session.rollback_rows(db, &q.dependency.table, q.written_row_ids(), q.time);
            run.stats.rows_rolled_back += q.written_row_ids().len();
            session
                .note_modified_columns(&q.dependency.write_partitions, &q.dependency.write_columns);
            run.touched_tables.insert(q.dependency.table.clone());
        }
    }
    run.cancelled.insert(action.id);
    run.stats.actions_cancelled += 1;
}

/// Replays a client's page visit against the repaired response. Returns
/// `None` when the client uploaded no log for that visit.
fn replay_client_visit(
    env: &RepairEnv<'_>,
    run: &mut RepairPass,
    client_id: &str,
    visit_id: u64,
    new_response: &HttpResponse,
) -> Option<ReplayOutcome> {
    let record = env.history.client_log(client_id, visit_id)?;
    // The re-execution browser gets the cookies the original request to this
    // visit carried.
    let cookies = env
        .history
        .actions_for_visit(client_id, visit_id)
        .first()
        .and_then(|&id| env.history.action(id))
        .map(|a| a.request.cookies.clone())
        .unwrap_or_default();
    let mut transport = CollectingTransport::default();
    let config = env.replay_config;
    let outcome = replay_visit(
        record,
        new_response,
        cookies.clone(),
        &mut transport,
        &config,
    );
    // Queue a cookie invalidation if the repaired cookie differs from the
    // user's real cookie (§5.3).
    if outcome.is_clean() && outcome.cookies != cookies {
        run.cookie_invalidations.insert(client_id.to_string());
    }
    Some(outcome)
}

// ---------------------------------------------------------------------------
// Partition planning
// ---------------------------------------------------------------------------

/// Deterministic union-find over dense indices (used to cluster partition
/// groups into worker-sized rounds).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = i;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Unions two sets; the smaller index becomes the representative, which
    /// keeps group numbering deterministic.
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
    }
}

/// Builds the partition graph over all live (non-cancelled) actions and
/// returns its independent dependency groups, each sorted by `(time, id)`
/// and ordered by smallest member action ID, so numbering is deterministic:
///
/// * actions of one page visit are linked (browser replay spans the visit);
/// * for every partition with at least one writer, all of its readers and
///   writers are linked (a writer's re-execution can change what the readers
///   saw, and vice versa during rollback);
/// * a whole-table *write* links everything touching the table; a
///   whole-table *read* links with every written partition of the table;
/// * partitions nobody writes link nothing — read-sharing is harmless.
///
/// The link structure itself is maintained *incrementally* by the history
/// graph as actions are recorded ([`HistoryGraph::partition_components`]),
/// so planning a repair no longer rescans every recorded query — it only
/// reads off the components.
pub(crate) fn plan_partitions(history: &HistoryGraph) -> Vec<Vec<ActionId>> {
    let mut groups = history.partition_components();
    for ids in &mut groups {
        sort_by_time(history, ids);
    }
    groups
}

/// The partitions one repaired cluster modified, flattened so the
/// escalation check probes every other group's footprint in
/// O(footprint · log modified) instead of intersecting each pair of sets.
/// `overlaps_any(b)` is exactly `modified.any(|x| b.any(|y| x.intersects(y)))`.
struct ModifiedIndex<'a> {
    /// Every key of the modified `Keys` sets.
    keys: BTreeSet<&'a PartitionKey>,
    /// Tables modified as a whole.
    whole: BTreeSet<&'a str>,
    /// Tables with any modification (the two above, by table).
    tables: BTreeSet<&'a str>,
}

impl<'a> ModifiedIndex<'a> {
    fn new(modified: impl IntoIterator<Item = &'a PartitionSet>) -> Self {
        let mut index = ModifiedIndex {
            keys: BTreeSet::new(),
            whole: BTreeSet::new(),
            tables: BTreeSet::new(),
        };
        for set in modified {
            match set {
                PartitionSet::Whole { table } => {
                    index.whole.insert(table);
                    index.tables.insert(table);
                }
                PartitionSet::Keys(keys) => {
                    for key in keys {
                        index.tables.insert(&key.table);
                        index.keys.insert(key);
                    }
                }
            }
        }
        index
    }

    /// Calls `visit` for every recorded action whose partition footprint
    /// overlaps the modified set (an action may come more than once): the
    /// actions `overlaps_any(action.partition_footprint())` holds for, read
    /// off the history's partition index instead of probing every
    /// footprint.
    fn touching(&self, history: &HistoryGraph, mut visit: impl FnMut(ActionId)) {
        let index = history.partition_index();
        for &table in &self.tables {
            let Some(usage) = index.get(table) else {
                continue;
            };
            // A whole-table footprint meets any modification of its table,
            // and a whole-table modification meets every key of it.
            let keys = self
                .whole
                .contains(table)
                .then(|| usage.keys.values())
                .into_iter()
                .flatten();
            usage
                .whole_readers
                .iter()
                .chain(&usage.whole_writers)
                .chain(keys.flat_map(|hub| hub.readers.iter().chain(&hub.writers)))
                .for_each(|&id| visit(id));
        }
        for key in &self.keys {
            if self.whole.contains(key.table.as_str()) {
                continue;
            }
            let hub = index
                .get(&key.table)
                .and_then(|usage| usage.keys.get(&(key.column.clone(), key.value.clone())));
            if let Some(hub) = hub {
                hub.readers
                    .iter()
                    .chain(&hub.writers)
                    .for_each(|&id| visit(id));
            }
        }
    }

    fn overlaps_any<B: Borrow<PartitionSet>>(&self, sets: &[B]) -> bool {
        sets.iter().any(|set| match set.borrow() {
            PartitionSet::Whole { table } => self.tables.contains(table.as_str()),
            PartitionSet::Keys(keys) => keys
                .iter()
                .any(|k| self.keys.contains(k) || self.whole.contains(k.table.as_str())),
        })
    }
}

/// Widens a bounded-clone row scope to cover a partition set.
fn widen_scope(scope: &mut BTreeMap<String, RowScope>, partitions: &PartitionSet) {
    match partitions {
        PartitionSet::Whole { table } => {
            scope.insert(table.clone(), RowScope::AllRows);
        }
        PartitionSet::Keys(keys) => {
            for key in keys {
                match scope
                    .entry(key.table.clone())
                    .or_insert_with(|| RowScope::Partitions(BTreeSet::new()))
                {
                    RowScope::AllRows => {}
                    RowScope::Partitions(set) => {
                        set.insert(key.clone());
                    }
                }
            }
        }
    }
}

/// True if every partition the set covers lies inside the scope a bounded
/// clone was built from. An out-of-scope partition means the clone was
/// missing rows the re-execution may have needed.
fn scope_contains(scope: &BTreeMap<String, RowScope>, partitions: &PartitionSet) -> bool {
    match partitions {
        PartitionSet::Whole { table } => matches!(scope.get(table), Some(RowScope::AllRows)),
        PartitionSet::Keys(keys) => keys.iter().all(|key| match scope.get(&key.table) {
            Some(RowScope::AllRows) => true,
            Some(RowScope::Partitions(set)) => set.contains(key),
            None => false,
        }),
    }
}

// ---------------------------------------------------------------------------
// The parallel driver
// ---------------------------------------------------------------------------

/// Synthetic row-ID range reserved per worker batch (and per unit re-run at
/// commit), so inserts re-executed on different clones cannot allocate
/// colliding IDs. The first range starts one stride above the master's
/// watermark: the stride below it is left to foreground inserts served while
/// a stepped repair runs.
pub(crate) const SYNTHETIC_ID_STRIDE: i64 = 1_000_000;

/// The repair seeds: actions to re-execute with patched code, and actions to
/// cancel outright.
#[derive(Debug, Default)]
pub(crate) struct Seeds {
    pub reexecute: BTreeSet<ActionId>,
    pub cancel: BTreeSet<ActionId>,
}

impl Seeds {
    fn contains(&self, id: &ActionId) -> bool {
        self.reexecute.contains(id) || self.cancel.contains(id)
    }
}

/// What the partitioned engine produced. The repair generation has been
/// begun on the master database (and the merged diffs applied to it, unless
/// the repair is aborting); the controller finalizes or aborts it.
pub(crate) struct PartitionedResult {
    /// The merged outcome of every repaired partition.
    pub run: RepairPass,
    pub partitions_total: usize,
    pub partitions_repaired: usize,
    pub escalations: usize,
    /// Rounds that had to be re-run on full clones because a batch touched
    /// a table outside its bounded-clone footprint.
    pub bounded_fallbacks: usize,
    /// Actions recorded after the plan was made that the repair folded in.
    pub joined: usize,
}

/// What one repair unit produced: its pass, the mutation delta drained from
/// its clone right after it ran (empty in place, where the master database
/// tracks its own), and the synthetic-ID range it allocated from.
struct UnitResult {
    pass: RepairPass,
    delta: RepairDelta,
    /// First ID of the range the unit's clone allocated from.
    id_start: i64,
    /// The clone's watermark after the unit ran.
    id_end: i64,
}

/// One worker batch of a round: its units run one per step, in order, on
/// one clone of the master database.
struct Batch {
    units: Vec<usize>,
    /// Units of `units` already run.
    done: usize,
    /// Cloned at the batch's first step, dropped after its last unit.
    clone: Option<TimeTravelDb>,
    /// The row scope the clone was built from (`None`: a whole clone).
    scope: Option<BTreeMap<String, RowScope>>,
    id_start: i64,
}

/// One round of the partitioned engine: the seeded clusters of dependency
/// groups, each repaired as one unit.
struct Round {
    /// Base group indices per cluster, smallest (the union-find root) first.
    clusters: Vec<Vec<usize>>,
    /// Action IDs per unit, sorted by `(time, id)`.
    units: Vec<Vec<ActionId>>,
    /// Batch clones carry only their units' dependency footprint. Cleared
    /// when a batch escapes it: the round then re-runs on whole clones.
    bounded: bool,
    batches: Vec<Batch>,
    results: Vec<Option<UnitResult>>,
}

/// The partitioned repair engine, as a stepper.
///
/// A plan splits the history into dependency groups; each round repairs the
/// seeded clusters of groups as units. Off the master database, each
/// [`PartitionedRepair::step`] advances every worker batch by one unit on
/// the batch's clone, so the caller can serve requests between steps. Once
/// every unit of a round ran, a round that escaped its bounded clones
/// re-runs on whole clones, and a round whose re-execution touched another
/// group's partitions merges the groups and re-runs (escalation). In place
/// (at most one unit, run at the commit barrier), a step repairs the unit
/// directly on the master database. [`PartitionedRepair::finish`] merges
/// the unit deltas into the master inside one repair generation.
pub(crate) struct PartitionedRepair {
    /// The history's dependency groups at plan time, each sorted by
    /// `(time, id)`; groups are ordered by their smallest member.
    groups: Vec<Vec<ActionId>>,
    /// The group of each action ID at plan time (`usize::MAX`: none — a
    /// cancelled action, or one recorded after the plan).
    group_of: Vec<usize>,
    seeded: Vec<bool>,
    clusters: UnionFind,
    workers: usize,
    /// OS threads a step may use: the worker count, capped at the
    /// machine's parallelism.
    threads: usize,
    clone_scope: CloneScope,
    in_place: bool,
    /// First ID of batch 0's synthetic-ID range.
    id_base: i64,
    /// Ranges handed to units re-run at commit so far.
    reruns: i64,
    escalations: usize,
    bounded_fallbacks: usize,
    round: Round,
    done: bool,
    /// The error that stopped the engine: the repair aborts.
    error: Option<SqlError>,
}

impl PartitionedRepair {
    /// Plans the repair over the history as it is now. With at most one
    /// unit to repair, the repair runs in place on the master database;
    /// otherwise every unit runs on a clone.
    pub(crate) fn plan(
        history: &HistoryGraph,
        db: &TimeTravelDb,
        seeds: &Seeds,
        workers: usize,
        clone_scope: CloneScope,
    ) -> Self {
        let groups = plan_partitions(history);
        let seeded: Vec<bool> = groups
            .iter()
            .map(|g| g.iter().any(|id| seeds.contains(id)))
            .collect();
        // Merging only ever shrinks the seeded clusters, so a plan that
        // starts with at most one stays in place.
        let in_place = seeded.iter().filter(|&&s| s).count() <= 1;
        let mut group_of = vec![usize::MAX; history.len()];
        for (g, ids) in groups.iter().enumerate() {
            for &id in ids {
                group_of[id as usize] = g;
            }
        }
        let workers = workers.max(1);
        // More runnable threads than cores buys nothing for CPU-bound
        // re-execution and costs cache locality.
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(workers);
        let mut repair = PartitionedRepair {
            clusters: UnionFind::new(groups.len()),
            groups,
            group_of,
            seeded,
            workers,
            threads,
            clone_scope,
            in_place,
            id_base: db.synthetic_id_watermark() + SYNTHETIC_ID_STRIDE,
            reruns: 0,
            escalations: 0,
            bounded_fallbacks: 0,
            round: Round {
                clusters: Vec::new(),
                units: Vec::new(),
                bounded: false,
                batches: Vec::new(),
                results: Vec::new(),
            },
            done: false,
            error: None,
        };
        repair.round = repair.new_round(history, true);
        repair
    }

    /// True if the repair runs in place on the master database (so as one
    /// step at the commit barrier).
    pub(crate) fn in_place(&self) -> bool {
        self.in_place
    }

    /// True once every round is clean: nothing is left but [`finish`].
    ///
    /// [`finish`]: PartitionedRepair::finish
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// The escalation and fallback counters so far.
    pub(crate) fn counters(&self) -> (usize, usize) {
        (self.escalations, self.bounded_fallbacks)
    }

    /// Materializes the current seeded clusters as a round. With
    /// `bounded`, batch clones carry only their units' footprints.
    fn new_round(&mut self, history: &HistoryGraph, bounded: bool) -> Round {
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for g in 0..self.groups.len() {
            by_root.entry(self.clusters.find(g)).or_default().push(g);
        }
        let clusters: Vec<Vec<usize>> = by_root
            .into_values()
            .filter(|gs| gs.iter().any(|&g| self.seeded[g]))
            .collect();
        let units: Vec<Vec<ActionId>> = clusters
            .iter()
            .map(|gs| {
                let mut ids: Vec<ActionId> = gs
                    .iter()
                    .flat_map(|&g| self.groups[g].iter().copied())
                    .collect();
                sort_by_time(history, &mut ids);
                ids
            })
            .collect();
        // In place there are no batches: the one unit runs on the master.
        let n_batches = if self.in_place {
            0
        } else {
            self.workers.min(units.len())
        };
        let batch_units = deal_units(&units, n_batches);
        let batches = batch_units
            .into_iter()
            .enumerate()
            .map(|(bi, units)| Batch {
                units,
                done: 0,
                clone: None,
                scope: None,
                id_start: self.id_base + bi as i64 * SYNTHETIC_ID_STRIDE,
            })
            .collect();
        let mut results = Vec::new();
        results.resize_with(units.len(), || None);
        Round {
            clusters,
            units,
            bounded: bounded && self.clone_scope == CloneScope::Footprint,
            batches,
            results,
        }
    }

    /// Runs one step: in place, the whole (single-unit) round on the master
    /// database; otherwise the next unit of every batch, each on its
    /// batch's clone, concurrently on up to `workers` threads. A step that
    /// completes a round also settles it — fallback, escalation, or done.
    /// Returns true while steps remain.
    pub(crate) fn step(
        &mut self,
        env: &RepairEnv<'_>,
        db: &mut TimeTravelDb,
        seeds: &Seeds,
    ) -> bool {
        if self.done {
            return false;
        }
        if self.in_place {
            let mut session = RepairSession::begin_precise(db);
            session.set_column_oblivious(env.column_oblivious);
            if let Some(unit) = self.round.units.first() {
                let pass = execute_actions(env, db, session, unit, seeds, true);
                let watermark = db.synthetic_id_watermark();
                self.round.results[0] = Some(UnitResult {
                    pass,
                    delta: RepairDelta::new(),
                    id_start: watermark,
                    id_end: watermark,
                });
            }
        } else if self.advance_batches(env, db, seeds) {
            // A batch touched state outside its footprint scope: it ran
            // against a clone missing rows it may have needed, so discard
            // the round and re-run it on whole clones (the synthetic-ID
            // ranges restart from the same base, so the re-run allocates
            // exactly what a whole-clone round would have).
            self.bounded_fallbacks += 1;
            self.round = self.new_round(env.history, false);
            return true;
        }
        if self.round.batches.iter().any(|b| b.done < b.units.len()) {
            return true;
        }
        let merges = self.escalations_needed(env.history);
        if merges.is_empty() {
            self.done = true;
            return false;
        }
        if self.in_place {
            // Discard the in-place changes before re-running the merged
            // cluster against pristine state.
            if let Err(e) = db.abort_repair_generation() {
                self.error = Some(e);
                self.done = true;
                return false;
            }
        }
        self.escalations += 1;
        for (a, b) in merges {
            self.clusters.union(a, b);
        }
        // Merged clusters are re-run from fresh state; previous results are
        // discarded wholesale so every cluster's view stays consistent.
        let bounded = self.round.bounded;
        self.round = self.new_round(env.history, bounded);
        true
    }

    /// Advances every unfinished batch of the round by one unit. Returns
    /// true if a unit escaped its batch's bounded clone.
    fn advance_batches(&mut self, env: &RepairEnv<'_>, db: &TimeTravelDb, seeds: &Seeds) -> bool {
        let Round {
            clusters,
            units,
            bounded,
            batches,
            results,
        } = &mut self.round;
        let groups = &self.groups;
        let bounded = *bounded;
        let advance = |batch: &mut Batch| -> (usize, UnitResult, bool) {
            let u = batch.units[batch.done];
            batch.done += 1;
            if batch.clone.is_none() {
                batch.scope = bounded.then(|| {
                    batch_scope(
                        env.history,
                        db,
                        batch
                            .units
                            .iter()
                            .flat_map(|&u| clusters[u].iter().flat_map(|&g| groups[g].iter())),
                    )
                });
                let mut clone = match &batch.scope {
                    Some(scope) => db.clone_subset(scope),
                    None => db.clone(),
                };
                clone.raise_synthetic_id_watermark(batch.id_start);
                batch.clone = Some(clone);
            }
            let clone = batch.clone.as_mut().expect("cloned above");
            let result = run_unit(env, clone, &units[u], seeds, batch.id_start);
            let escaped = batch
                .scope
                .as_ref()
                .is_some_and(|scope| pass_escaped(&result.pass, scope));
            if batch.done == batch.units.len() {
                // The merge needs only the drained deltas, never the clone.
                batch.clone = None;
            }
            (u, result, escaped)
        };
        let work: Vec<&mut Batch> = batches
            .iter_mut()
            .filter(|b| b.done < b.units.len())
            .collect();
        let n_threads = self.threads.min(work.len()).max(1);
        let ran: Vec<(usize, UnitResult, bool)> = if n_threads == 1 {
            work.into_iter().map(advance).collect()
        } else {
            // Stream `t` takes batches `t, t + n_threads, …`; the calling
            // thread works stream 0 itself instead of sleeping on the others.
            let mut streams: Vec<Vec<&mut Batch>> = (0..n_threads).map(|_| Vec::new()).collect();
            for (i, batch) in work.into_iter().enumerate() {
                streams[i % n_threads].push(batch);
            }
            let advance = &advance;
            std::thread::scope(|scope| {
                let mut streams = streams.into_iter();
                let own = streams.next().expect("at least one stream");
                let handles: Vec<_> = streams
                    .map(|stream| {
                        scope.spawn(move || stream.into_iter().map(advance).collect::<Vec<_>>())
                    })
                    .collect();
                let mut ran: Vec<_> = own.into_iter().map(advance).collect();
                for handle in handles {
                    ran.extend(handle.join().expect("repair worker panicked"));
                }
                ran
            })
        };
        let mut escaped = false;
        for (u, result, out) in ran {
            escaped |= out;
            results[u] = Some(result);
        }
        escaped
    }

    /// The escalation check: pairs of (cluster root, group) to merge because
    /// a repaired cluster modified partitions another group (repaired or
    /// not) depends on. Recorded footprints cannot overlap across groups by
    /// construction, so this only fires when patched code or fresh browser
    /// requests touched state outside their own partition.
    fn escalations_needed(&mut self, history: &HistoryGraph) -> Vec<(usize, usize)> {
        let PartitionedRepair {
            group_of,
            clusters,
            round,
            ..
        } = self;
        let mut merges = Vec::new();
        for (ci, result) in round.results.iter().enumerate() {
            let Some(result) = result else { continue };
            if result.pass.modified.is_empty() {
                continue;
            }
            let root = round.clusters[ci][0];
            let my_root = clusters.find(root);
            let modified = ModifiedIndex::new(&result.pass.modified);
            modified.touching(history, |id| {
                let g = group_of.get(id as usize).copied().unwrap_or(usize::MAX);
                if g != usize::MAX && clusters.find(g) != my_root {
                    merges.push((root, g));
                }
            });
            // A repaired cluster's *dynamic* reads and writes also count as
            // its footprint.
            for (oc, other) in round.results.iter().enumerate() {
                let other_root = round.clusters[oc][0];
                if other
                    .as_ref()
                    .is_some_and(|o| modified.overlaps_any(&o.pass.dynamic_deps))
                    && clusters.find(other_root) != my_root
                {
                    merges.push((root, other_root));
                }
            }
        }
        merges
    }

    /// Folds the actions recorded since the plan (IDs at or above `floor`)
    /// into the run: an action that meets a unit's modified partitions —
    /// through its partition footprint, or by belonging to a page visit the
    /// unit replayed — joins that unit, and the unit re-runs on a fresh
    /// clone with the joined actions in time order (its old delta dropped).
    /// Re-runs repeat until no further action joins. Returns false when the
    /// fold needs more than that — an action meets two units, or a re-run
    /// escalates — and the caller must re-plan the repair over the whole
    /// history instead.
    pub(crate) fn fold_in(
        &mut self,
        env: &RepairEnv<'_>,
        db: &TimeTravelDb,
        seeds: &Seeds,
        floor: ActionId,
    ) -> bool {
        let history = env.history;
        if history.len() as ActionId <= floor {
            return true;
        }
        let mut owner: BTreeMap<ActionId, usize> = BTreeMap::new();
        loop {
            let indexes: Vec<ModifiedIndex<'_>> = self
                .round
                .results
                .iter()
                .map(|r| ModifiedIndex::new(r.as_ref().map_or(&[][..], |r| &r.pass.modified)))
                .collect();
            let mut grew: BTreeMap<usize, Vec<ActionId>> = BTreeMap::new();
            for action in history.actions().iter().skip(floor as usize) {
                let footprint: Vec<Cow<'_, PartitionSet>> = action.partition_footprint().collect();
                let visit = action
                    .client
                    .as_ref()
                    .map(|c| (c.client_id.clone(), c.visit_id));
                let meets = (0..indexes.len()).filter(|&u| {
                    indexes[u].overlaps_any(&footprint)
                        || visit.as_ref().is_some_and(|v| {
                            self.round.results[u]
                                .as_ref()
                                .is_some_and(|r| r.pass.replayed_visits.contains(v))
                        })
                });
                for u in meets {
                    match owner.get(&action.id) {
                        Some(&o) if o == u => {}
                        Some(_) => return false,
                        None => {
                            owner.insert(action.id, u);
                            grew.entry(u).or_default().push(action.id);
                        }
                    }
                }
            }
            drop(indexes);
            if grew.is_empty() {
                break;
            }
            for (u, joined) in grew {
                self.rerun(env, db, seeds, u, joined);
            }
        }
        owner.is_empty() || self.escalations_needed(history).is_empty()
    }

    /// Re-runs unit `u` on a fresh clone of the master database with the
    /// `joined` actions added to its order.
    fn rerun(
        &mut self,
        env: &RepairEnv<'_>,
        db: &TimeTravelDb,
        seeds: &Seeds,
        u: usize,
        joined: Vec<ActionId>,
    ) {
        let unit = &mut self.round.units[u];
        unit.extend(joined);
        sort_by_time(env.history, unit);
        let id_start =
            self.id_base + (self.round.batches.len() as i64 + self.reruns) * SYNTHETIC_ID_STRIDE;
        self.reruns += 1;
        let run_on = |mut clone: TimeTravelDb| {
            clone.raise_synthetic_id_watermark(id_start);
            run_unit(env, &mut clone, &self.round.units[u], seeds, id_start)
        };
        let scope = self
            .round
            .bounded
            .then(|| batch_scope(env.history, db, self.round.units[u].iter()));
        let mut result = run_on(match &scope {
            Some(scope) => db.clone_subset(scope),
            None => db.clone(),
        });
        if scope.is_some_and(|scope| pass_escaped(&result.pass, &scope)) {
            self.bounded_fallbacks += 1;
            result = run_on(db.clone());
        }
        self.round.results[u] = Some(result);
    }

    /// Aggregates the per-unit outcomes and merges them into the master
    /// database: all inside one repair generation that the controller
    /// finalizes atomically (an in-place repair already executed inside
    /// it). Each unit's delta was tracked against the master state its
    /// clone was taken from, and units touch disjoint partitions, so the
    /// deltas compose by direct application — no snapshots and no table
    /// diffs anywhere on this path. Skipped when the repair is going to
    /// abort (non-admin with conflicts), leaving the master untouched.
    /// `floor` is the first action ID recorded after the plan.
    pub(crate) fn finish(
        self,
        db: &mut TimeTravelDb,
        initiated_by_admin: bool,
        floor: ActionId,
    ) -> PartitionedResult {
        // Aggregate in deterministic cluster order, so the merged result is
        // identical for every worker count.
        let mut merged = RepairPass::default();
        for (ci, result) in self.round.results.iter().enumerate() {
            let Some(UnitResult { pass: run, .. }) = result else {
                continue;
            };
            merged.stats.page_visits_reexecuted += run.stats.page_visits_reexecuted;
            merged.stats.app_runs_reexecuted += run.stats.app_runs_reexecuted;
            merged.stats.queries_reexecuted += run.stats.queries_reexecuted;
            merged.stats.rows_rolled_back += run.stats.rows_rolled_back;
            merged.stats.actions_cancelled += run.stats.actions_cancelled;
            merged.stats.time_db += run.stats.time_db;
            merged.stats.time_app += run.stats.time_app;
            merged.stats.time_browser += run.stats.time_browser;
            merged
                .conflicts
                .extend(run.conflicts.iter().cloned().map(|c| c.with_partition(ci)));
            merged.cancelled.extend(run.cancelled.iter().copied());
            merged.reexecuted.extend(run.reexecuted.iter().copied());
            merged
                .cookie_invalidations
                .extend(run.cookie_invalidations.iter().cloned());
            merged.rolled_back_rows += run.rolled_back_rows;
        }
        merged.stats.conflicts = merged.conflicts.len();
        merged.error = self.error;

        let t_merge = Instant::now();
        let aborting =
            merged.error.is_some() || (!initiated_by_admin && !merged.conflicts.is_empty());
        if !self.in_place {
            assert!(
                db.synthetic_id_watermark() <= self.id_base,
                "foreground inserts reached the repair's synthetic-ID ranges"
            );
            db.begin_repair_generation();
            if !aborting {
                'merge: for result in self.round.results.iter().flatten() {
                    for (table, delta) in &result.delta {
                        // A failed merge aborts the repair: the generation
                        // with the deltas merged so far is discarded.
                        if let Err(e) = db.apply_row_diff(table, &delta.remove, &delta.add) {
                            merged.error = Some(e);
                            break 'merge;
                        }
                    }
                    if result.id_end > result.id_start {
                        // A clone overrunning its reserved ID range would
                        // collide with the next range's synthetic row IDs —
                        // corrupt the merge loudly rather than silently.
                        assert!(
                            result.id_end - result.id_start < SYNTHETIC_ID_STRIDE,
                            "repair batch allocated more than {SYNTHETIC_ID_STRIDE} synthetic row IDs"
                        );
                        db.raise_synthetic_id_watermark(result.id_end);
                    }
                }
            }
        }
        merged.stats.time_ctrl += t_merge.elapsed();

        PartitionedResult {
            run: merged,
            partitions_total: self.groups.len(),
            partitions_repaired: self.round.clusters.iter().map(|gs| gs.len()).sum(),
            escalations: self.escalations,
            bounded_fallbacks: self.bounded_fallbacks,
            joined: self
                .round
                .units
                .iter()
                .flatten()
                .filter(|&&id| id >= floor)
                .count(),
        }
    }
}

/// Deals units to `n_batches` worker batches, longest first, each to the
/// least-loaded batch. Batch *structure* (and with it clone count,
/// synthetic-ID ranges and result shape) depends only on the requested
/// worker count, so outcomes are hardware-independent.
fn deal_units(units: &[Vec<ActionId>], n_batches: usize) -> Vec<Vec<usize>> {
    let mut batch_units: Vec<Vec<usize>> = vec![Vec::new(); n_batches];
    if n_batches == 0 {
        return batch_units;
    }
    let mut batch_load: Vec<usize> = vec![0; n_batches];
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&u| (usize::MAX - units[u].len(), u));
    for u in order {
        let target = (0..n_batches)
            .min_by_key(|&b| (batch_load[b], b))
            .unwrap_or(0);
        batch_units[target].push(u);
        batch_load[target] += units[u].len();
    }
    batch_units
}

/// Sorts action IDs into repair order: by time, then ID.
pub(crate) fn sort_by_time(history: &HistoryGraph, ids: &mut [ActionId]) {
    ids.sort_by_key(|&id| (history.action(id).map(|a| a.time).unwrap_or(0), id));
}

/// The dependency-footprint row scope of a set of actions: a bounded clone
/// for them copies only these tables — and within a table whose footprint
/// is partition keys, only the row versions in those partitions.
fn batch_scope<'a>(
    history: &HistoryGraph,
    db: &TimeTravelDb,
    actions: impl Iterator<Item = &'a ActionId>,
) -> BTreeMap<String, RowScope> {
    let mut scope = BTreeMap::new();
    for action in actions.filter_map(|&id| history.action(id)) {
        for p in action.partition_footprint() {
            widen_scope(&mut scope, &p);
        }
    }
    // Partition-filtered rows are only sound for tables whose every unique
    // constraint includes a partition column (colliding rows then always
    // share a partition and are cloned together); anything else is widened
    // to the whole table so re-executed uniqueness checks see every row
    // they would see on a full clone.
    for (table, table_scope) in scope.iter_mut() {
        if matches!(table_scope, RowScope::Partitions(_)) && !db.partition_clone_safe(table) {
            *table_scope = RowScope::AllRows;
        }
    }
    scope
}

/// Repairs one unit on a clone and drains the clone's delta right after,
/// so every unit's delta stands alone.
fn run_unit(
    env: &RepairEnv<'_>,
    clone: &mut TimeTravelDb,
    unit: &[ActionId],
    seeds: &Seeds,
    id_start: i64,
) -> UnitResult {
    let mut session = RepairSession::begin_precise(clone);
    session.set_column_oblivious(env.column_oblivious);
    let pass = execute_actions(env, clone, session, unit, seeds, true);
    UnitResult {
        pass,
        delta: clone.drain_repair_delta(),
        id_start,
        id_end: clone.synthetic_id_watermark(),
    }
}

/// True if a pass touched partitions (or whole tables) outside the scope
/// its bounded clone was built from.
fn pass_escaped(pass: &RepairPass, scope: &BTreeMap<String, RowScope>) -> bool {
    pass.dynamic_deps
        .iter()
        .chain(pass.modified.iter())
        .any(|p| !scope_contains(scope, p))
        || pass.touched_tables.iter().any(|t| !scope.contains_key(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AppConfig;
    use crate::repair::RepairRequest;
    use crate::server::WarpServer;
    use crate::sourcefs::Patch;
    use warp_sql::Value;
    use warp_ttdb::TableAnnotation;

    /// A notes app with one table partitioned by `topic`: each request
    /// touches exactly one topic, so distinct topics form independent
    /// dependency partitions.
    fn notes_app(topics: usize) -> AppConfig {
        let mut config = AppConfig::new("notes");
        config.add_table(
            "CREATE TABLE note (note_id INTEGER PRIMARY KEY, topic TEXT UNIQUE, body TEXT)",
            TableAnnotation::new()
                .row_id("note_id")
                .partitions(["topic"]),
        );
        for t in 0..topics {
            config.seed(format!(
                "INSERT INTO note (note_id, topic, body) VALUES ({}, 't{t}', 'seed {t}')",
                t + 1
            ));
        }
        config.add_source(
            "post.wasl",
            "db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' \
             WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); echo(\"ok\");",
        );
        config.add_source(
            "read.wasl",
            "let rows = db_query(\"SELECT body FROM note WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
             if (len(rows) > 0) { echo(rows[0][\"body\"]); } else { echo(\"none\"); }",
        );
        config
    }

    /// The "patch" stores an upper-cased marker, so re-executed posts write
    /// different content and dependent reads change.
    fn notes_patch() -> Patch {
        Patch::new(
            "post.wasl",
            "db_query(\"UPDATE note SET body = 'PATCHED:' . sql_escape(param(\"body\")) . '' \
             WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); echo(\"ok\");",
            "sanitise stored notes",
        )
    }

    fn notes_traffic(server: &mut WarpServer, topics: usize) {
        use warp_http::HttpRequest;
        for round in 0..3 {
            for t in 0..topics {
                server.handle(HttpRequest::post(
                    "/post.wasl",
                    [
                        ("topic", format!("t{t}").as_str()),
                        ("body", format!("note {round} for {t}").as_str()),
                    ],
                ));
                server.handle(HttpRequest::get(&format!("/read.wasl?topic=t{t}")));
            }
        }
    }

    fn assert_equivalent(seq: &WarpServer, par: &WarpServer, label: &str) {
        let mut seq_db = seq.db.clone();
        let mut par_db = par.db.clone();
        assert_eq!(
            seq_db.canonical_dump(),
            par_db.canonical_dump(),
            "{label}: final database state must match the sequential engine"
        );
        let seq_cancelled: Vec<ActionId> = seq
            .history
            .actions()
            .iter()
            .filter(|a| a.cancelled)
            .map(|a| a.id)
            .collect();
        let par_cancelled: Vec<ActionId> = par
            .history
            .actions()
            .iter()
            .filter(|a| a.cancelled)
            .map(|a| a.id)
            .collect();
        assert_eq!(
            seq_cancelled, par_cancelled,
            "{label}: cancelled sets must match"
        );
    }

    #[test]
    fn partitioned_repair_matches_sequential_on_disjoint_topics() {
        let topics = 5;
        for workers in [1usize, 3] {
            let mut seq = WarpServer::new(notes_app(topics));
            notes_traffic(&mut seq, topics);
            let seq_out = seq.repair(RepairRequest::RetroactivePatch {
                patch: notes_patch(),
                from_time: 0,
            });

            let mut par = WarpServer::new(notes_app(topics));
            notes_traffic(&mut par, topics);
            let par_out = par.repair_with(
                RepairRequest::RetroactivePatch {
                    patch: notes_patch(),
                    from_time: 0,
                },
                RepairStrategy::Partitioned { workers },
            );

            assert!(!seq_out.aborted && !par_out.aborted);
            assert_eq!(
                seq_out.reexecuted_actions, par_out.reexecuted_actions,
                "workers={workers}: re-executed action sets must match"
            );
            assert_eq!(seq_out.cancelled_actions, par_out.cancelled_actions);
            assert_equivalent(&seq, &par, &format!("workers={workers}"));
            // The history decomposes into one partition per topic (each pair
            // of post+read actions shares only its own topic partition).
            assert_eq!(par_out.stats.partitions_total, topics);
            assert_eq!(par_out.stats.partitions_repaired, topics);
            assert_eq!(par_out.stats.escalations, 0);
            assert_eq!(par_out.stats.workers, workers);
        }
    }

    #[test]
    fn partition_plan_links_writers_readers_and_whole_table_scans() {
        let mut server = WarpServer::new(notes_app(4));
        use warp_http::HttpRequest;
        // t0: writer + reader; t1: reader only; t2 and t3: writers.
        server.handle(HttpRequest::post(
            "/post.wasl",
            [("topic", "t0"), ("body", "x")],
        ));
        server.handle(HttpRequest::get("/read.wasl?topic=t0"));
        server.handle(HttpRequest::get("/read.wasl?topic=t1"));
        server.handle(HttpRequest::post(
            "/post.wasl",
            [("topic", "t2"), ("body", "y")],
        ));
        server.handle(HttpRequest::post(
            "/post.wasl",
            [("topic", "t3"), ("body", "z")],
        ));
        let groups = plan_partitions(&server.history);
        // {post t0, read t0} | {read t1} | {post t2} | {post t3}
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0], vec![0, 1]);

        // A whole-table scan that coexists with writers collapses everything
        // it can see into one group.
        let mut config = notes_app(2);
        config.add_source(
            "scan.wasl",
            "let rows = db_query(\"SELECT body FROM note\"); echo(len(rows));",
        );
        let mut server = WarpServer::new(config);
        server.handle(HttpRequest::post(
            "/post.wasl",
            [("topic", "t0"), ("body", "x")],
        ));
        server.handle(HttpRequest::post(
            "/post.wasl",
            [("topic", "t1"), ("body", "y")],
        ));
        server.handle(HttpRequest::get("/scan.wasl"));
        let groups = plan_partitions(&server.history);
        assert_eq!(
            groups.len(),
            1,
            "whole-table reader joins every written partition"
        );
    }

    #[test]
    fn cross_partition_write_by_patched_code_escalates_and_stays_correct() {
        // The original code writes the topic the request names; the "patch"
        // redirects every write of t0 to t1 — a dependency that exists in no
        // recorded footprint, so the engine must detect it at re-execution
        // time and merge the partitions.
        let build = || {
            let mut server = WarpServer::new(notes_app(3));
            use warp_http::HttpRequest;
            server.handle(HttpRequest::post(
                "/post.wasl",
                [("topic", "t0"), ("body", "a")],
            ));
            server.handle(HttpRequest::get("/read.wasl?topic=t1"));
            server.handle(HttpRequest::post(
                "/post.wasl",
                [("topic", "t2"), ("body", "c")],
            ));
            server
        };
        let redirect_patch = Patch::new(
            "post.wasl",
            "let t = param(\"topic\"); if (t == \"t0\") { t = \"t1\"; } \
             db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' \
             WHERE topic = '\" . sql_escape(t) . \"'\"); echo(\"ok\");",
            "redirect t0 writes to t1",
        );
        let mut seq = build();
        let seq_out = seq.repair(RepairRequest::RetroactivePatch {
            patch: redirect_patch.clone(),
            from_time: 0,
        });
        let mut par = build();
        let par_out = par.repair_with(
            RepairRequest::RetroactivePatch {
                patch: redirect_patch,
                from_time: 0,
            },
            RepairStrategy::Partitioned { workers: 2 },
        );
        assert!(
            par_out.stats.escalations >= 1,
            "cross-partition write must escalate"
        );
        assert_eq!(seq_out.reexecuted_actions, par_out.reexecuted_actions);
        assert_equivalent(&seq, &par, "escalation");

        // The same redirect with a single seeded unit: the repair runs in
        // place on the master database, escalates there, and re-runs the
        // merged unit in place.
        let build = || {
            let mut server = WarpServer::new(notes_app(3));
            use warp_http::HttpRequest;
            server.handle(HttpRequest::post(
                "/post.wasl",
                [("topic", "t0"), ("body", "a")],
            ));
            server.handle(HttpRequest::get("/read.wasl?topic=t1"));
            server
        };
        let request = || RepairRequest::RetroactivePatch {
            patch: Patch::new(
                "post.wasl",
                "let t = param(\"topic\"); if (t == \"t0\") { t = \"t1\"; } \
                 db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' \
                 WHERE topic = '\" . sql_escape(t) . \"'\"); echo(\"ok\");",
                "redirect t0 writes to t1",
            ),
            from_time: 0,
        };
        let mut seq = build();
        let seq_out = seq.repair(request());
        let mut par = build();
        let run = crate::RepairRun::start(
            &mut par,
            request(),
            RepairStrategy::Partitioned { workers: 2 },
        );
        assert!(run.is_ready(), "one unit runs in place, at the commit");
        let par_out = run.commit(&mut par);
        assert_eq!(par_out.stats.escalations, 1);
        assert_eq!(seq_out.reexecuted_actions, par_out.reexecuted_actions);
        assert_equivalent(&seq, &par, "in-place escalation");
    }

    #[test]
    fn partitioned_undo_visit_matches_sequential() {
        use warp_browser::Browser;
        let build = || {
            let mut server = WarpServer::new(notes_app(3));
            let mut admin = Browser::new("admin");
            let mut visit = admin.visit("/read.wasl?topic=t0", &mut server);
            let _ = &mut visit;
            server.handle(warp_http::HttpRequest::post(
                "/post.wasl",
                [("topic", "t1"), ("body", "independent")],
            ));
            let mut user = Browser::new("user");
            let v = user.visit("/read.wasl?topic=t2", &mut server);
            server.upload_client_logs(admin.take_logs());
            server.upload_client_logs(user.take_logs());
            (server, v.visit_id)
        };
        let (mut seq, visit_id) = build();
        let seq_out = seq.repair(RepairRequest::UndoVisit {
            client_id: "user".into(),
            visit_id,
            initiated_by_admin: true,
        });
        let (mut par, visit_id) = build();
        let par_out = par.repair_with(
            RepairRequest::UndoVisit {
                client_id: "user".into(),
                visit_id,
                initiated_by_admin: true,
            },
            RepairStrategy::Partitioned { workers: 2 },
        );
        assert_eq!(seq_out.cancelled_actions, par_out.cancelled_actions);
        assert!(!par_out.cancelled_actions.is_empty());
        assert_equivalent(&seq, &par, "undo");
    }

    /// A two-table app: notes partitioned by topic, plus an audit table
    /// written by its own script — so worker footprints genuinely differ
    /// per table.
    fn two_table_app(topics: usize) -> AppConfig {
        let mut config = notes_app(topics);
        config.add_table(
            "CREATE TABLE audit (audit_id INTEGER PRIMARY KEY, who TEXT, what TEXT)",
            TableAnnotation::new()
                .row_id("audit_id")
                .partitions(["who"]),
        );
        config.seed("INSERT INTO audit (audit_id, who, what) VALUES (1, 'admin', 'installed')");
        config.add_source(
            "audit.wasl",
            "db_query(\"INSERT INTO audit (audit_id, who, what) VALUES (\" . param(\"id\") . \", '\" . sql_escape(param(\"who\")) . \"', '\" . sql_escape(param(\"what\")) . \"')\"); echo(\"ok\");",
        );
        config
    }

    fn two_table_traffic(server: &mut WarpServer, topics: usize) {
        use warp_http::HttpRequest;
        for t in 0..topics {
            server.handle(HttpRequest::post(
                "/post.wasl",
                [
                    ("topic", format!("t{t}").as_str()),
                    ("body", format!("note for {t}").as_str()),
                ],
            ));
            server.handle(HttpRequest::get(&format!("/read.wasl?topic=t{t}")));
            server.handle(HttpRequest::post(
                "/audit.wasl",
                [
                    ("id", format!("{}", t + 10).as_str()),
                    ("who", format!("user{t}").as_str()),
                    ("what", "posted"),
                ],
            ));
        }
    }

    #[test]
    fn bounded_memory_clones_match_full_clones() {
        let topics = 4;
        let run = |strategy: RepairStrategy| {
            let mut server = WarpServer::new(two_table_app(topics));
            two_table_traffic(&mut server, topics);
            let out = server.repair_with(
                RepairRequest::RetroactivePatch {
                    patch: notes_patch(),
                    from_time: 0,
                },
                strategy,
            );
            (server, out)
        };
        let (mut seq, seq_out) = run(RepairStrategy::Sequential);
        let (mut full, full_out) = run(RepairStrategy::PartitionedFullClone { workers: 3 });
        let (mut bounded, bounded_out) = run(RepairStrategy::Partitioned { workers: 3 });
        assert_eq!(
            full.db.canonical_dump(),
            bounded.db.canonical_dump(),
            "footprint clones and full clones must produce identical repairs"
        );
        assert_eq!(seq.db.canonical_dump(), bounded.db.canonical_dump());
        assert_eq!(seq_out.reexecuted_actions, bounded_out.reexecuted_actions);
        assert_eq!(full_out.reexecuted_actions, bounded_out.reexecuted_actions);
        assert_eq!(full_out.cancelled_actions, bounded_out.cancelled_actions);
        // The patch stays inside the notes footprint: no fallback round.
        assert_eq!(bounded_out.stats.bounded_clone_fallbacks, 0);
        assert_eq!(full_out.stats.bounded_clone_fallbacks, 0);
    }

    #[test]
    fn out_of_footprint_write_falls_back_to_full_clones_and_stays_correct() {
        // The patched post.wasl also writes the audit table — a table that
        // appears in no notes partition's recorded footprint, so bounded
        // clones must detect the escape and re-run the round on full clones.
        let cross_table_patch = Patch::new(
            "post.wasl",
            "db_query(\"UPDATE note SET body = 'P: \" . sql_escape(param(\"body\")) . \"' \
             WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
             db_query(\"UPDATE audit SET what = 'patched' WHERE who = 'admin'\"); echo(\"ok\");",
            "log patched posts to the audit table",
        );
        let run = |strategy: RepairStrategy| {
            let mut server = WarpServer::new(two_table_app(3));
            two_table_traffic(&mut server, 3);
            let out = server.repair_with(
                RepairRequest::RetroactivePatch {
                    patch: cross_table_patch.clone(),
                    from_time: 0,
                },
                strategy,
            );
            (server, out)
        };
        let (mut seq, _) = run(RepairStrategy::Sequential);
        let (mut bounded, bounded_out) = run(RepairStrategy::Partitioned { workers: 2 });
        assert!(
            bounded_out.stats.bounded_clone_fallbacks >= 1,
            "the cross-table write must force a full-clone fallback"
        );
        assert_eq!(
            seq.db.canonical_dump(),
            bounded.db.canonical_dump(),
            "fallback must preserve equivalence with the sequential engine"
        );
    }

    /// A notes app whose only unique constraint is the partition column
    /// itself (`topic` doubles as the row ID), so partition-scoped clones
    /// are sound for it and the partition-level path genuinely runs.
    fn hub_app(topics: usize) -> AppConfig {
        let mut config = AppConfig::new("hub-notes");
        config.add_table(
            "CREATE TABLE note (topic TEXT UNIQUE, body TEXT)",
            TableAnnotation::new().row_id("topic").partitions(["topic"]),
        );
        for t in 0..topics {
            config.seed(format!(
                "INSERT INTO note (topic, body) VALUES ('t{t}', 'seed {t}')"
            ));
        }
        config.add_source(
            "post.wasl",
            "db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' \
             WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); echo(\"ok\");",
        );
        config.add_source(
            "read.wasl",
            "let rows = db_query(\"SELECT body FROM note WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
             if (len(rows) > 0) { echo(rows[0][\"body\"]); } else { echo(\"none\"); }",
        );
        config
    }

    /// The "whole-table-hub" shape: every partition lives in one hot table,
    /// so table-level footprint clones would copy the entire table into
    /// every batch. Partition-level clones copy only each batch's
    /// partitions — and must still produce repairs identical to full
    /// clones and the sequential engine.
    #[test]
    fn partition_level_clones_match_full_clones_on_a_single_table_hub() {
        let topics = 6;
        let run = |strategy: RepairStrategy| {
            let mut server = WarpServer::new(hub_app(topics));
            notes_traffic(&mut server, topics);
            assert!(server.db.partition_clone_safe("note"));
            let out = server.repair_with(
                RepairRequest::RetroactivePatch {
                    patch: notes_patch(),
                    from_time: 0,
                },
                strategy,
            );
            (server, out)
        };
        let (mut seq, seq_out) = run(RepairStrategy::Sequential);
        let (mut full, full_out) = run(RepairStrategy::PartitionedFullClone { workers: 3 });
        let (mut bounded, bounded_out) = run(RepairStrategy::Partitioned { workers: 3 });
        assert_eq!(full.db.canonical_dump(), bounded.db.canonical_dump());
        assert_eq!(seq.db.canonical_dump(), bounded.db.canonical_dump());
        assert_eq!(seq_out.reexecuted_actions, bounded_out.reexecuted_actions);
        assert_eq!(full_out.reexecuted_actions, bounded_out.reexecuted_actions);
        assert_eq!(full_out.cancelled_actions, bounded_out.cancelled_actions);
        // The patch stays inside each topic partition: no fallback round.
        assert_eq!(bounded_out.stats.bounded_clone_fallbacks, 0);
    }

    /// A table partitioned by `grp` whose PRIMARY KEY (`id`) is *not* a
    /// partition column: a partition-scoped clone could miss a
    /// cross-partition id collision (the colliding row is never a recorded
    /// dependency, so no fallback would fire), so the scheduler must widen
    /// such tables to whole-table clones — and the repair must stay
    /// identical to full clones and the sequential engine even when
    /// patched code manufactures exactly that collision.
    #[test]
    fn cross_partition_unique_collision_matches_full_clones() {
        let build = || {
            let mut config = AppConfig::new("uniq");
            config.add_table(
                "CREATE TABLE item (id INTEGER PRIMARY KEY, grp TEXT, val TEXT)",
                TableAnnotation::new().row_id("id").partitions(["grp"]),
            );
            config.add_source(
                "add.wasl",
                "db_query(\"INSERT INTO item (id, grp, val) VALUES (\" . param(\"id\") . \", '\" . sql_escape(param(\"grp\")) . \"', '\" . sql_escape(param(\"val\")) . \"')\"); echo(\"ok\");",
            );
            let mut server = WarpServer::new(config);
            assert!(!server.db.partition_clone_safe("item"));
            use warp_http::HttpRequest;
            server.handle(HttpRequest::post(
                "/add.wasl",
                [("id", "1"), ("grp", "g0"), ("val", "a")],
            ));
            server.handle(HttpRequest::post(
                "/add.wasl",
                [("id", "2"), ("grp", "g1"), ("val", "b")],
            ));
            server
        };
        // The patch rewrites g0's insert to reuse id 2 — colliding with
        // g1's row, which lives in a different partition.
        let collide_patch = Patch::new(
            "add.wasl",
            "let id = param(\"id\"); if (param(\"grp\") == \"g0\") { id = \"2\"; } \
             db_query(\"INSERT INTO item (id, grp, val) VALUES (\" . id . \", '\" . sql_escape(param(\"grp\")) . \"', '\" . sql_escape(param(\"val\")) . \"')\"); echo(\"ok\");",
            "redirect g0 ids onto g1's",
        );
        let run = |strategy: RepairStrategy| {
            let mut server = build();
            let out = server.repair_with(
                RepairRequest::RetroactivePatch {
                    patch: collide_patch.clone(),
                    from_time: 0,
                },
                strategy,
            );
            (server, out)
        };
        let (mut seq, seq_out) = run(RepairStrategy::Sequential);
        let (mut full, _) = run(RepairStrategy::PartitionedFullClone { workers: 2 });
        let (mut bounded, bounded_out) = run(RepairStrategy::Partitioned { workers: 2 });
        assert_eq!(
            seq.db.canonical_dump(),
            bounded.db.canonical_dump(),
            "a cross-partition unique collision must repair identically"
        );
        assert_eq!(full.db.canonical_dump(), bounded.db.canonical_dump());
        assert_eq!(seq_out.reexecuted_actions, bounded_out.reexecuted_actions);
        // Exactly one id=2 row may survive, whichever way the collision
        // resolved.
        let rows = bounded.db.table_rows_snapshot("item");
        let id2_current = rows
            .iter()
            .filter(|r| r.first() == Some(&Value::Int(2)))
            .count();
        assert!(id2_current >= 1, "id 2 must exist: {rows:?}");
    }

    /// The flattened escalation probe answers exactly what intersecting
    /// every modified set with every footprint set answers.
    #[test]
    fn modified_index_agrees_with_pairwise_intersection() {
        let key = |table: &str, column: &str, value: &str| {
            PartitionSet::Keys(BTreeSet::from([PartitionKey::new(
                table,
                column,
                &Value::text(value),
            )]))
        };
        let mut two = key("page", "title", "a");
        two.union_with(&key("acl", "title", "a"));
        let sets = [
            PartitionSet::empty(),
            PartitionSet::whole("page"),
            PartitionSet::whole("acl"),
            key("page", "title", "a"),
            key("page", "title", "b"),
            key("page", "page_id", "a"),
            key("acl", "title", "a"),
            two,
        ];
        for a in 0..sets.len() {
            for b in a..sets.len() {
                let modified = [sets[a].clone(), sets[b].clone()];
                let index = ModifiedIndex::new(&modified);
                for c in 0..sets.len() {
                    for d in c..sets.len() {
                        let footprint = [sets[c].clone(), sets[d].clone()];
                        let pairwise = modified
                            .iter()
                            .any(|x| footprint.iter().any(|y| x.intersects(y)));
                        assert_eq!(
                            index.overlaps_any(&footprint),
                            pairwise,
                            "{modified:?} vs {footprint:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scope_containment_is_partition_precise() {
        use warp_ttdb::PartitionKey;
        let key = |v: &str| PartitionKey::new("note", "topic", &Value::text(v));
        let mut scope = BTreeMap::new();
        widen_scope(
            &mut scope,
            &PartitionSet::Keys([key("t0"), key("t1")].into_iter().collect()),
        );
        assert!(scope_contains(
            &scope,
            &PartitionSet::Keys([key("t1")].into_iter().collect())
        ));
        assert!(!scope_contains(
            &scope,
            &PartitionSet::Keys([key("t2")].into_iter().collect())
        ));
        // A whole-table dependency needs a whole-table scope.
        assert!(!scope_contains(&scope, &PartitionSet::whole("note")));
        widen_scope(&mut scope, &PartitionSet::whole("note"));
        assert!(scope_contains(&scope, &PartitionSet::whole("note")));
        assert!(scope_contains(
            &scope,
            &PartitionSet::Keys([key("t5")].into_iter().collect())
        ));
        // Other tables stay out of scope; empty sets are always contained.
        assert!(!scope_contains(&scope, &PartitionSet::whole("audit")));
        assert!(scope_contains(&scope, &PartitionSet::empty()));
    }

    /// What one walk of [`walked`] ended with: the dump, the re-executed
    /// and cancelled actions and the count of re-executed queries, plus
    /// whether the session modified a partitioned table as a whole.
    type Walked = (
        (String, BTreeSet<ActionId>, BTreeSet<ActionId>, usize),
        bool,
    );

    /// Repairs `server` with one walk — the frontier walk, or the scanning
    /// walk with the same precise session — and returns what it ended with
    /// ([`Walked`]). `undo` cancels a page visit instead of applying
    /// `patch`.
    fn walked(
        mut server: WarpServer,
        patch: Option<&Patch>,
        undo: Option<(String, u64)>,
        frontier: bool,
    ) -> Walked {
        let mut seeds = Seeds::default();
        if let Some(patch) = patch {
            server.sources.apply_retroactive_patch(patch, 0);
            seeds
                .reexecute
                .extend(server.history.actions_loading_file(&patch.filename, 0));
        }
        if let Some((client, visit)) = &undo {
            seeds
                .cancel
                .extend(server.history.actions_for_visit(client, *visit));
        }
        let (env, db) = server.repair_parts();
        let session = RepairSession::begin_precise(db);
        let mut walk = if frontier {
            Walk::frontier(&env, session, &seeds)
        } else {
            let mut order: Vec<ActionId> = env.history.actions().iter().map(|a| a.id).collect();
            sort_by_time(env.history, &mut order);
            Walk::scan(&env, session, &order, &seeds, true)
        };
        walk.run(&env, db);
        let whole = walk.session.modified_regions().iter().any(|r| {
            matches!(&r.partitions, PartitionSet::Whole { table }
                if !db.partition_columns(table).is_empty())
        });
        let pass = walk.finish();
        assert!(pass.error.is_none());
        server.db.finalize_repair_generation();
        let queries = pass.stats.queries_reexecuted;
        let dump = server.db.canonical_dump();
        ((dump, pass.reexecuted, pass.cancelled, queries), whole)
    }

    /// `server`'s history with the writes of every browser visit recorded
    /// with a whole-table write set, as a write that names no partition is
    /// indexed: rolling one back modifies its partitioned table as a whole.
    fn widen_visit_writes(server: &mut WarpServer) {
        let mut history = HistoryGraph::new();
        for action in server.history.actions() {
            let mut action = action.clone();
            if action.client.is_some() {
                for q in action.queries.iter_mut().filter(|q| q.is_write) {
                    q.dependency.write_partitions = PartitionSet::whole(&q.dependency.table);
                }
            }
            history.record_action(action);
        }
        server.history = history;
    }

    /// The frontier walk against the scanning walk over seeded histories of
    /// keyed posts and reads, whole-table scans, journal inserts and
    /// browser visits that post, repaired by patches that stay in their
    /// partition, redirect a write to another one or write another table,
    /// and by undoing a visit: the same rows, the same re-executed and
    /// cancelled actions and the same count of re-executed queries. Each
    /// history is walked again with its visits' writes recorded whole-table
    /// ([`widen_visit_writes`]), so rollbacks modify `note` as a whole.
    #[test]
    fn the_frontier_walk_equals_the_scanning_walk_over_seeded_histories() {
        let topics = 5;
        let app = || {
            let mut config = two_table_app(topics);
            config.add_source(
                "scan.wasl",
                "let rows = db_query(\"SELECT body FROM note\"); echo(len(rows));",
            );
            config
        };
        let patches = [
            notes_patch(),
            Patch::new(
                "post.wasl",
                "let t = param(\"topic\"); if (t == \"t0\") { t = \"t1\"; } \
                 db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' \
                 WHERE topic = '\" . sql_escape(t) . \"'\"); echo(\"ok\");",
                "redirect t0 writes to t1",
            ),
            Patch::new(
                "post.wasl",
                "db_query(\"UPDATE note SET body = 'P: \" . sql_escape(param(\"body\")) . \"' \
                 WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
                 db_query(\"UPDATE audit SET what = 'patched' WHERE who = 'admin'\"); echo(\"ok\");",
                "log patched posts to the audit table",
            ),
        ];
        let mut reexecuted = 0;
        let mut wholes = 0;
        for seed in 1..=24u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |n: u64| {
                rng ^= rng >> 12;
                rng ^= rng << 25;
                rng ^= rng >> 27;
                rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
            };
            let mut ops = Vec::new();
            for i in 0..40u64 {
                ops.push((next(6), next(topics as u64), i));
            }
            let build = || {
                use warp_browser::Browser;
                use warp_http::HttpRequest;
                let mut server = WarpServer::new(app());
                let mut visits = Vec::new();
                for &(op, t, i) in &ops {
                    match op {
                        0 | 1 => {
                            server.handle(HttpRequest::post(
                                "/post.wasl",
                                [
                                    ("topic", format!("t{t}").as_str()),
                                    ("body", &format!("b{i}")),
                                ],
                            ));
                        }
                        2 => {
                            server.handle(HttpRequest::get(&format!("/read.wasl?topic=t{t}")));
                        }
                        3 => {
                            server.handle(HttpRequest::get("/scan.wasl"));
                        }
                        4 => {
                            server.handle(HttpRequest::post(
                                "/audit.wasl",
                                [
                                    ("id", format!("{}", 100 + i).as_str()),
                                    ("who", format!("user{t}").as_str()),
                                    ("what", "posted"),
                                ],
                            ));
                        }
                        _ => {
                            let client = format!("c{i}");
                            let mut browser = Browser::new(client.clone());
                            let visit = browser
                                .visit(&format!("/post.wasl?topic=t{t}&body=v{i}"), &mut server);
                            server.handle(HttpRequest::get(&format!("/read.wasl?topic=t{t}")));
                            server.upload_client_logs(browser.take_logs());
                            visits.push((client, visit.visit_id));
                        }
                    }
                }
                (server, visits)
            };
            let (_, visits) = build();
            let mut cases: Vec<_> = patches.iter().map(|p| (Some(p), None)).collect();
            if !visits.is_empty() {
                let undo = visits[next(visits.len() as u64) as usize].clone();
                cases.push((None, Some(undo)));
            }
            for (patch, undo) in cases {
                for widened in [false, true] {
                    let server = || {
                        let mut server = build().0;
                        if widened {
                            widen_visit_writes(&mut server);
                        }
                        server
                    };
                    let (scan, _) = walked(server(), patch, undo.clone(), false);
                    let (frontier, whole) = walked(server(), patch, undo.clone(), true);
                    assert_eq!(
                        scan, frontier,
                        "seed {seed}, {patch:?}, undo {undo:?}, widened {widened}"
                    );
                    reexecuted += frontier.1.len();
                    wholes += usize::from(whole);
                }
            }
        }
        assert!(reexecuted > 0);
        assert!(
            wholes > 0,
            "no walk modified a partitioned table as a whole"
        );
    }

    /// A failed merge of a unit's delta aborts the partitioned repair: the
    /// error is reported, and the abort leaves the master as it was.
    #[test]
    fn a_failed_merge_aborts_the_partitioned_repair() {
        let topics = 4;
        let mut server = WarpServer::new(notes_app(topics));
        notes_traffic(&mut server, topics);
        let before = server.db.clone().canonical_dump();
        server.sources.apply_retroactive_patch(&notes_patch(), 0);
        let seeds = Seeds {
            reexecute: server
                .history
                .actions_loading_file("post.wasl", 0)
                .into_iter()
                .collect(),
            cancel: BTreeSet::new(),
        };
        let (env, db) = server.repair_parts();
        let mut repair = PartitionedRepair::plan(env.history, db, &seeds, 2, CloneScope::Full);
        assert!(!repair.in_place());
        while repair.step(&env, db, &seeds) {}
        // A row of the wrong width cannot be merged.
        let unit = repair
            .round
            .results
            .iter_mut()
            .flatten()
            .next()
            .expect("a unit");
        unit.delta
            .entry("note".into())
            .or_default()
            .add
            .push(vec![Value::Int(1)]);
        let result = repair.finish(db, true, env.history.len() as ActionId);
        assert!(result.run.error.is_some());
        db.abort_repair_generation().unwrap();
        assert_eq!(server.db.canonical_dump(), before);
    }

    /// A failed abort before an in-place escalation re-runs the merged
    /// cluster stops the partitioned engine: the repair is aborted with the
    /// error.
    #[test]
    fn a_failed_in_place_abort_aborts_the_partitioned_repair() {
        use warp_http::HttpRequest;
        let mut server = WarpServer::new(notes_app(3));
        server.handle(HttpRequest::post(
            "/post.wasl",
            [("topic", "t0"), ("body", "a")],
        ));
        server.handle(HttpRequest::get("/read.wasl?topic=t1"));
        // A stored version the generations do not account for: the
        // redirected write forks t1's row, and restoring the fork collides
        // with it.
        let layout_width = server.db.raw().table("note").unwrap().schema.columns.len();
        let mut stray = server.db.raw().table("note").unwrap().rows()[1].clone();
        assert_eq!(stray.len(), layout_width);
        stray[0] = Value::Int(99);
        server.db.apply_row_diff("note", &[], &[stray]).unwrap();
        let outcome = server.repair_with(
            RepairRequest::RetroactivePatch {
                patch: Patch::new(
                    "post.wasl",
                    "let t = param(\"topic\"); if (t == \"t0\") { t = \"t1\"; } \
                     db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' \
                     WHERE topic = '\" . sql_escape(t) . \"'\"); echo(\"ok\");",
                    "redirect t0 writes to t1",
                ),
                from_time: 0,
            },
            RepairStrategy::Partitioned { workers: 2 },
        );
        assert!(outcome.aborted, "{outcome:?}");
        assert!(
            matches!(outcome.error, Some(SqlError::UniqueViolation { .. })),
            "{:?}",
            outcome.error
        );
    }
}
