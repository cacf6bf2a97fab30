//! The partitioned parallel repair scheduler.
//!
//! The paper's scalability argument (§6–§8) is that repair cost tracks the
//! *attack's footprint*, not history size: actions whose partition-level
//! dependencies never meet cannot affect each other during repair, so their
//! re-execution order is irrelevant and they can be repaired concurrently.
//! This module makes that argument operational:
//!
//! 1. `plan_partitions` builds an explicit partition graph over the action
//!    history using the partition index ([`HistoryGraph::partition_index`])
//!    and groups actions into independent dependency components (union-find
//!    over partition hubs, whole-table hubs and page-visit links).
//! 2. `execute_actions` is the repair loop itself — rollback, selective
//!    query re-execution, full application re-execution and browser replay —
//!    extracted from the classic controller so the same code drives both the
//!    sequential engine (one pass over the whole history, in place) and each
//!    per-partition worker (a pass over one group, against a cloned
//!    database).
//! 3. `PartitionedRepair` re-executes the seeded groups as a stepper: each
//!    step advances every worker batch by one repair unit, on the batch's
//!    clone of the database, concurrently on a scoped `std::thread` pool, so
//!    the engine can serve requests between steps. A round that finishes
//!    checks for cross-partition conflicts (re-execution that touched
//!    partitions outside its own group) and escalates by merging the
//!    conflicting groups and re-running them. At commit, actions served
//!    since the plan join the units whose modified partitions they meet
//!    (those units re-run with them), and each unit's mutation-tracked
//!    delta — the exact row versions its repair removed and added, drained
//!    from its clone — is applied back onto the master database. No
//!    snapshots or whole-table diffs are taken anywhere: merge cost is
//!    O(rows changed).
//!
//! Per-partition re-execution stays equivalent to the global time order
//! because groups are closed under the recorded dependency relation, and any
//! *new* dependency surfaced by patched code is caught by the escalation
//! check before the merge is applied.

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
use warp_ttdb::{PartitionKey, PartitionSet, RepairDelta, RepairSession, RowScope, TimeTravelDb};

/// How a repair is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// The classic engine: one thread walks the entire action history in
    /// time order, re-executing in place.
    Sequential,
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
    /// engine, `n` the partitioned one on `n` workers.
    pub fn with_workers(workers: usize) -> Self {
        match workers {
            0 => RepairStrategy::Sequential,
            workers => RepairStrategy::Partitioned { workers },
        }
    }

    /// The worker count this strategy reports in [`RepairStats::workers`].
    pub fn worker_count(&self) -> usize {
        match self {
            RepairStrategy::Sequential => 0,
            RepairStrategy::Partitioned { workers }
            | RepairStrategy::PartitionedFullClone { workers } => (*workers).max(1),
        }
    }

    /// How the partitioned engine's batches clone the master database;
    /// `None` for the sequential engine.
    pub(crate) fn clone_scope(&self) -> Option<CloneScope> {
        match self {
            RepairStrategy::Sequential => None,
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

/// Everything one repair pass (sequential, or one partition group) produced.
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
    /// (collected only for partitioned runs; used for escalation checks).
    pub dynamic_deps: Vec<PartitionSet>,
    /// Tables whose stored rows this pass may have mutated.
    pub touched_tables: BTreeSet<String>,
    /// Rows rolled back through the pass's session.
    pub rolled_back_rows: usize,
    /// Partitions the pass's session modified.
    pub modified: Vec<PartitionSet>,
    /// Page visits the pass replayed in the server-side browser.
    pub replayed_visits: BTreeSet<(String, u64)>,
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

/// Runs the repair loop over `order` (action IDs in time order): actions in
/// `seed_reexecute` are re-executed with patched code, actions in
/// `seed_cancel` are rolled back and cancelled, and every other action is
/// selectively re-executed only where its recorded dependencies intersect
/// the partitions modified so far (paper §4).
pub(crate) fn execute_actions(
    env: &RepairEnv<'_>,
    db: &mut TimeTravelDb,
    mut session: RepairSession,
    order: &[ActionId],
    seed_reexecute: &BTreeSet<ActionId>,
    seed_cancel: &BTreeSet<ActionId>,
    collect_dynamic: bool,
) -> RepairPass {
    let mut run = RepairPass::default();
    let mut to_reexecute: BTreeSet<ActionId> = order
        .iter()
        .filter(|id| seed_reexecute.contains(id))
        .copied()
        .collect();
    let mut to_cancel: BTreeSet<ActionId> = order
        .iter()
        .filter(|id| seed_cancel.contains(id))
        .copied()
        .collect();
    let mut request_overrides: BTreeMap<ActionId, HttpRequest> = BTreeMap::new();
    let mut reexecuted_visits: BTreeSet<(String, u64)> = BTreeSet::new();

    for &id in order {
        let action = match env.history.action(id) {
            Some(a) if !a.cancelled => a,
            _ => continue,
        };
        if to_cancel.contains(&id) {
            let t = Instant::now();
            cancel_action(db, &mut session, action, &mut run);
            run.stats.time_db += t.elapsed();
            continue;
        }
        let explicitly_queued = to_reexecute.contains(&id);
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
                continue;
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
                            if collect_dynamic {
                                collect_deps(&mut run, std::iter::once(&out.dependency));
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
                continue;
            }
        }
        // Full application re-execution.
        let t_app = Instant::now();
        let effective_request = request_overrides.get(&id).unwrap_or(&action.request);
        let result = reexecute_action(env, db, &mut session, action, effective_request);
        run.reexecuted.insert(id);
        run.stats.app_runs_reexecuted += 1;
        run.stats.queries_reexecuted += result.queries_reexecuted;
        if collect_dynamic {
            collect_deps(&mut run, result.queries.iter().map(|q| &q.dependency));
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
            continue;
        }
        // Browser re-execution for the page visit that received the changed
        // response (paper §5).
        let Some(client) = &action.client else {
            continue;
        };
        let visit_key = (client.client_id.clone(), client.visit_id);
        if reexecuted_visits.contains(&visit_key) {
            continue;
        }
        reexecuted_visits.insert(visit_key);
        run.stats.page_visits_reexecuted += 1;
        let t_browser = Instant::now();
        let replay = replay_client_visit(
            env,
            &mut run,
            &client.client_id,
            client.visit_id,
            &result.response,
        );
        run.stats.time_browser += t_browser.elapsed();
        match replay {
            Some(outcome) => {
                if let Some(reason) = outcome.conflict.clone() {
                    run.conflicts.push(Conflict::new(
                        &client.client_id,
                        client.visit_id,
                        &action.request.path,
                        ConflictKind::BrowserReplay(reason),
                    ));
                    // Per §5.4: queue the conflict and assume subsequent
                    // requests are unchanged.
                    continue;
                }
                // Requests re-issued by the replayed page replace the
                // originals; requests no longer issued are cancelled.
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
                                    request_overrides.insert(target, replayed.request.clone());
                                    to_reexecute.insert(target);
                                }
                            }
                        }
                        None => {
                            // A brand-new request that did not exist during
                            // the original execution: run it now inside the
                            // repair generation.
                            let t = Instant::now();
                            let fresh = run_fresh_in_repair(
                                env,
                                db,
                                &mut session,
                                &replayed.request,
                                action.time,
                            );
                            run.stats.queries_reexecuted += fresh.queries_reexecuted;
                            if collect_dynamic {
                                collect_deps(&mut run, fresh.queries.iter().map(|q| &q.dependency));
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
                    let other = match env.history.action(other_id) {
                        Some(a) => a,
                        None => continue,
                    };
                    let other_request_id = other
                        .client
                        .as_ref()
                        .map(|c| c.request_id)
                        .unwrap_or(u64::MAX);
                    if !reissued.contains(&other_request_id) && !other.cancelled {
                        to_cancel.insert(other_id);
                    }
                }
            }
            None => {
                // No client log (extension not installed): Warp cannot
                // verify the browser's behaviour; inform the user.
                run.conflicts.push(Conflict::new(
                    &client.client_id,
                    client.visit_id,
                    &action.request.path,
                    ConflictKind::BrowserReplay(warp_browser::ConflictReason::NoClientLog),
                ));
            }
        }
    }

    run.stats.rows_rolled_back = run.stats.rows_rolled_back.max(session.rolled_back_rows);
    run.rolled_back_rows = session.rolled_back_rows;
    run.modified = session.modified_partitions().to_vec();
    run.replayed_visits = reexecuted_visits;
    run
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
    fn new(modified: &'a [PartitionSet]) -> Self {
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
                let pass = execute_actions(
                    env,
                    db,
                    session,
                    unit,
                    &seeds.reexecute,
                    &seeds.cancel,
                    true,
                );
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
            let _ = db.abort_repair_generation();
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

        let t_merge = Instant::now();
        let aborting = !initiated_by_admin && !merged.conflicts.is_empty();
        if !self.in_place {
            assert!(
                db.synthetic_id_watermark() <= self.id_base,
                "foreground inserts reached the repair's synthetic-ID ranges"
            );
            db.begin_repair_generation();
            if !aborting {
                for result in self.round.results.iter().flatten() {
                    for (table, delta) in &result.delta {
                        let _ = db.apply_row_diff(table, &delta.remove, &delta.add);
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
    let pass = execute_actions(
        env,
        clone,
        session,
        unit,
        &seeds.reexecute,
        &seeds.cancel,
        true,
    );
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
}
