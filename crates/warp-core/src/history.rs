//! The action history graph (paper §2.1, borrowed from Retro and extended).
//!
//! Nodes in the conceptual graph are versioned objects: source files,
//! database partitions, HTTP responses, and browser page visits. Actions are
//! application runs (one per handled HTTP request). Warp stores the graph as
//! an append-only list of [`ActionRecord`]s plus indices from objects to the
//! actions that touched them; the repair controller loads actions
//! incrementally from these indices.

use crate::stats::LoggingStats;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use warp_browser::PageVisitRecord;
use warp_http::{HttpRequest, HttpResponse};
use warp_script::Value as ScriptValue;
use warp_ttdb::{PartitionSet, QueryDependency};

/// Identifier of one recorded action (application run).
pub type ActionId = u64;

/// A recorded call to a non-deterministic function (paper §3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NondetRecord {
    /// Function name (`time`, `rand`, `session_start`, ...).
    pub func: String,
    /// The arguments it was called with.
    pub args: Vec<ScriptValue>,
    /// The value it returned during the original execution.
    pub result: ScriptValue,
}

/// A recorded database query issued by an application run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// The SQL text as issued by the application.
    pub sql: String,
    /// Logical time at which the query executed.
    pub time: i64,
    /// Fingerprint of the result the application saw.
    pub result_fingerprint: u64,
    /// True if the query modified the database.
    pub is_write: bool,
    /// Partition-level dependencies.
    pub dependency: QueryDependency,
}

impl QueryRecord {
    /// Row IDs written (for two-phase re-execution and rollback): the ones
    /// the dependency record holds.
    pub fn written_row_ids(&self) -> &[warp_sql::Value] {
        &self.dependency.written_row_ids
    }
}

/// Correlation of a server-side action with the browser that caused it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientRef {
    /// The browser's client ID.
    pub client_id: String,
    /// The page visit within that client.
    pub visit_id: u64,
    /// The request within that visit.
    pub request_id: u64,
}

/// One action in the history graph: a single application run handling one
/// HTTP request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActionRecord {
    /// The action's identifier.
    pub id: ActionId,
    /// Logical time at which the run started.
    pub time: i64,
    /// The HTTP request as received.
    pub request: HttpRequest,
    /// The HTTP response as sent.
    pub response: HttpResponse,
    /// Browser correlation, when the request carried Warp headers.
    pub client: Option<ClientRef>,
    /// The script file that handled the request.
    pub entry_script: String,
    /// Every source file loaded during the run (entry script + includes).
    pub loaded_files: Vec<String>,
    /// Database queries issued, in order.
    pub queries: Vec<QueryRecord>,
    /// Non-deterministic calls, in order.
    pub nondet: Vec<NondetRecord>,
    /// True if the action has been cancelled by a repair (its effects have
    /// been rolled back and it is skipped by later repairs).
    pub cancelled: bool,
}

impl ActionRecord {
    /// Approximate bytes this record contributes to the application-level log
    /// (Table 6 accounting: request + response + dependency metadata).
    pub fn approximate_app_bytes(&self) -> usize {
        let mut total = 64 + self.entry_script.len() + self.response.body.len() / 8;
        for f in &self.loaded_files {
            total += f.len();
        }
        for n in &self.nondet {
            total += 12 + n.func.len();
        }
        total
    }

    /// Approximate bytes this record contributes to the database-level log
    /// (query text plus the recorded result fingerprints and row IDs).
    pub fn approximate_db_bytes(&self) -> usize {
        let mut total = 0;
        for q in &self.queries {
            total += q.sql.len() + 24 + q.written_row_ids().len() * 8;
        }
        total
    }

    /// The normalized partition footprint of this action: every non-empty
    /// partition set its queries read or wrote. A write whose recorded
    /// partitions are empty but that touched rows (e.g. an INSERT that never
    /// supplied a partition column) is widened to the whole table, so the
    /// footprint never under-approximates what the action touched.
    /// The recorded sets are borrowed — a repair plans over the whole
    /// history — and only a widened write is built.
    pub fn partition_footprint(&self) -> impl Iterator<Item = Cow<'_, PartitionSet>> {
        self.queries.iter().flat_map(|q| {
            let (read, write) = normalized_dependency_partitions(&q.dependency);
            read.map(Cow::Borrowed).into_iter().chain(write)
        })
    }
}

/// Normalizes one query dependency's partition sets for indexing, partition
/// planning and escalation checks: `(read set, write set)`, each omitted
/// when empty, and the write set widened to the whole table when the query
/// wrote rows whose partitions could not be derived. Every consumer of
/// partition dependencies must go through this one definition — the
/// scheduler's escalation check and the planner's footprints have to agree
/// on it exactly.
pub(crate) fn normalized_dependency_partitions(
    dep: &warp_ttdb::QueryDependency,
) -> (Option<&PartitionSet>, Option<Cow<'_, PartitionSet>>) {
    let read = Some(&dep.read_partitions).filter(|p| !p.is_empty());
    let write = if !dep.write_partitions.is_empty() {
        Some(Cow::Borrowed(&dep.write_partitions))
    } else if dep.is_write && !dep.written_row_ids.is_empty() {
        Some(Cow::Owned(PartitionSet::whole(&dep.table)))
    } else {
        None
    };
    (read, write)
}

/// The actions that read and wrote one partition of a table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PartitionHub {
    /// Actions whose queries read this partition.
    pub readers: Vec<ActionId>,
    /// Actions whose queries wrote this partition.
    pub writers: Vec<ActionId>,
}

/// Per-table partition usage: which actions touched which partitions, plus
/// the actions whose queries conservatively covered the whole table. The
/// partitioned repair scheduler builds its dependency groups from this index
/// instead of rescanning every recorded query.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TablePartitionIndex {
    /// Actions that read the whole table (unpinned `WHERE`, full scans).
    pub whole_readers: Vec<ActionId>,
    /// Actions that wrote the whole table (or wrote rows with no derivable
    /// partition values).
    pub whole_writers: Vec<ActionId>,
    /// Per `(partition column, value)`: the actions touching that partition.
    pub keys: BTreeMap<(String, String), PartitionHub>,
}

/// The persistent log: actions, per-client browser logs, and indices.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HistoryGraph {
    actions: Vec<ActionRecord>,
    /// Index: source file name → actions that loaded it.
    by_file: BTreeMap<String, Vec<ActionId>>,
    /// Index: (client id, visit id) → actions caused by that page visit.
    by_visit: BTreeMap<(String, u64), Vec<ActionId>>,
    /// Index: table → partition usage (readers/writers per partition).
    by_partition: BTreeMap<String, TablePartitionIndex>,
    /// Incremental union-find forest over action IDs: two actions share a
    /// root iff they are dependency-linked (same page visit, or reader/writer
    /// of a common written partition, transitively). Maintained as actions
    /// arrive, so partition planning no longer rescans the whole history.
    partition_parent: Vec<ActionId>,
    /// Per-client uploaded browser logs, keyed by client then visit.
    client_logs: BTreeMap<String, BTreeMap<u64, PageVisitRecord>>,
    /// Per-client storage quota in bytes for uploaded logs (paper §5.2).
    pub client_log_quota_bytes: usize,
    /// Recorded queries across every action, kept as actions arrive (and
    /// rebuilt with them by GC), so a repair reads its totals without a
    /// history scan.
    queries_total: usize,
}

impl HistoryGraph {
    /// Creates an empty history graph with the default per-client quota.
    pub fn new() -> Self {
        HistoryGraph {
            client_log_quota_bytes: 4 * 1024 * 1024,
            ..Default::default()
        }
    }

    /// Number of recorded actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if no actions have been recorded.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Appends an action and updates the indices. Returns its ID.
    pub fn record_action(&mut self, mut action: ActionRecord) -> ActionId {
        let id = self.actions.len() as ActionId;
        action.id = id;
        // Link the new action into the incremental dependency forest first:
        // the links are derived from the indices *before* this action is
        // added to them.
        debug_assert_eq!(self.partition_parent.len() as ActionId, id);
        self.partition_parent.push(id);
        self.link_action(id, &action);
        for f in &action.loaded_files {
            self.by_file.entry(f.clone()).or_default().push(id);
        }
        if let Some(client) = &action.client {
            self.by_visit
                .entry((client.client_id.clone(), client.visit_id))
                .or_default()
                .push(id);
        }
        self.index_partitions(id, &action);
        self.queries_total += action.queries.len();
        self.actions.push(action);
        id
    }

    /// Queries recorded across every action (cancelled ones included).
    pub fn queries_total(&self) -> usize {
        self.queries_total
    }

    /// Distinct page visits the recorded actions belong to.
    pub fn page_visits_total(&self) -> usize {
        self.by_visit.len()
    }

    /// Unions the arriving action with every earlier action the batch
    /// partition rules would link it to, using only the indices (no history
    /// rescan):
    ///
    /// * the previous action of the same page visit (visits form a chain);
    /// * any whole-table writer of a table it touches;
    /// * when it *is* a whole-table write: every earlier toucher of the table;
    /// * a writer of any partition key it reads or writes;
    /// * when it is the *first* writer of a key: that key's earlier readers
    ///   and the table's whole-table readers;
    /// * when it reads a whole table: one writer of each written key.
    ///
    /// Each rule unions with one representative where earlier arrivals
    /// already connected the rest, so for cancellation-free histories the
    /// resulting components are exactly the batch plan's. Cancelled actions
    /// stay in the forest (their links are kept conservatively), which can
    /// only coarsen groups, never split ones the batch plan would join.
    fn link_action(&mut self, id: ActionId, action: &ActionRecord) {
        if let Some(client) = &action.client {
            let key = (client.client_id.clone(), client.visit_id);
            if let Some(prev) = self.by_visit.get(&key).and_then(|ids| ids.last()) {
                pl_union(&mut self.partition_parent, id, *prev);
            }
        }
        for q in &action.queries {
            let (read, write) = normalized_dependency_partitions(&q.dependency);
            if let Some(read) = read {
                self.link_partition_set(id, read, false);
            }
            if let Some(write) = write {
                self.link_partition_set(id, &write, true);
            }
        }
    }

    /// Links one normalized partition set of the arriving action (see
    /// [`HistoryGraph::link_action`] for the rules).
    fn link_partition_set(&mut self, id: ActionId, set: &PartitionSet, as_writer: bool) {
        let parent = &mut self.partition_parent;
        match set {
            PartitionSet::Whole { table } => {
                let Some(index) = self.by_partition.get(table) else {
                    return;
                };
                if as_writer {
                    // A whole-table write conflicts with everything recorded
                    // on the table so far.
                    for other in index
                        .whole_writers
                        .iter()
                        .chain(index.whole_readers.iter())
                        .chain(
                            index
                                .keys
                                .values()
                                .flat_map(|h| h.writers.iter().chain(h.readers.iter())),
                        )
                    {
                        pl_union(parent, id, *other);
                    }
                } else {
                    // A whole-table read joins every written partition (and
                    // any whole-table writer).
                    if let Some(w) = index.whole_writers.last() {
                        pl_union(parent, id, *w);
                    }
                    for hub in index.keys.values() {
                        if let Some(w) = hub.writers.last() {
                            pl_union(parent, id, *w);
                        }
                    }
                }
            }
            PartitionSet::Keys(keys) => {
                for key in keys {
                    let Some(index) = self.by_partition.get(&key.table) else {
                        continue;
                    };
                    // An earlier whole-table write conflicts with any touch.
                    if let Some(w) = index.whole_writers.last() {
                        pl_union(parent, id, *w);
                    }
                    let hub = index.keys.get(&(key.column.clone(), key.value.clone()));
                    let last_writer = hub.and_then(|h| h.writers.last()).copied();
                    match (as_writer, last_writer) {
                        // The key already has a writer: it is connected to
                        // every reader/writer of the key, so one union does.
                        (_, Some(w)) => pl_union(parent, id, w),
                        // First writer of this key: adopt the key's earlier
                        // readers and the table's whole-table readers.
                        (true, None) => {
                            if let Some(h) = hub {
                                for r in &h.readers {
                                    pl_union(parent, id, *r);
                                }
                            }
                            for r in &index.whole_readers {
                                pl_union(parent, id, *r);
                            }
                        }
                        // A read of a never-written key links nothing —
                        // read-sharing is harmless.
                        (false, None) => {}
                    }
                }
            }
        }
    }

    /// The dependency components of the live (non-cancelled) actions,
    /// computed from the incrementally-maintained forest. Each component is
    /// in ascending action-ID order; components are ordered by their
    /// smallest member.
    pub fn partition_components(&self) -> Vec<Vec<ActionId>> {
        let mut parent = self.partition_parent.clone();
        let mut members: BTreeMap<ActionId, Vec<ActionId>> = BTreeMap::new();
        for action in &self.actions {
            if action.cancelled {
                continue;
            }
            let root = pl_find(&mut parent, action.id);
            members.entry(root).or_default().push(action.id);
        }
        let mut components: Vec<Vec<ActionId>> = members.into_values().collect();
        // A component's root can be a cancelled action; order by the
        // smallest *live* member (the first, since IDs were pushed in order).
        components.sort_by_key(|c| c[0]);
        components
    }

    /// Indexes one action's queries into the partition index.
    fn index_partitions(&mut self, id: ActionId, action: &ActionRecord) {
        fn push_dedup(list: &mut Vec<ActionId>, id: ActionId) {
            // IDs are appended in increasing order, so a duplicate from a
            // second query of the same action is always the last element.
            if list.last() != Some(&id) {
                list.push(id);
            }
        }
        let mut add = |set: &PartitionSet, as_writer: bool| match set {
            PartitionSet::Whole { table } => {
                let entry = self.by_partition.entry(table.clone()).or_default();
                let list = if as_writer {
                    &mut entry.whole_writers
                } else {
                    &mut entry.whole_readers
                };
                push_dedup(list, id);
            }
            PartitionSet::Keys(keys) => {
                for key in keys {
                    let entry = self.by_partition.entry(key.table.clone()).or_default();
                    let hub = entry
                        .keys
                        .entry((key.column.clone(), key.value.clone()))
                        .or_default();
                    let list = if as_writer {
                        &mut hub.writers
                    } else {
                        &mut hub.readers
                    };
                    push_dedup(list, id);
                }
            }
        };
        for q in &action.queries {
            let (read, write) = normalized_dependency_partitions(&q.dependency);
            if let Some(read) = read {
                add(read, false);
            }
            if let Some(write) = write {
                add(&write, true);
            }
        }
    }

    /// The partition index (table → readers/writers per partition).
    pub fn partition_index(&self) -> &BTreeMap<String, TablePartitionIndex> {
        &self.by_partition
    }

    /// The action groups caused by page visits, one slice per known
    /// `(client, visit)` pair. Actions of one page visit must be repaired
    /// together (browser replay cancels and re-issues across the visit).
    pub fn visit_action_groups(&self) -> Vec<&[ActionId]> {
        self.by_visit.values().map(|ids| ids.as_slice()).collect()
    }

    /// Returns an action by ID.
    pub fn action(&self, id: ActionId) -> Option<&ActionRecord> {
        self.actions.get(id as usize)
    }

    /// Mutable access to an action (used to mark cancellation).
    pub fn action_mut(&mut self, id: ActionId) -> Option<&mut ActionRecord> {
        self.actions.get_mut(id as usize)
    }

    /// All actions, in execution order.
    pub fn actions(&self) -> &[ActionRecord] {
        &self.actions
    }

    /// Actions that loaded the given source file at or after `from_time`
    /// (the candidates for retroactive patching, §3.2).
    pub fn actions_loading_file(&self, filename: &str, from_time: i64) -> Vec<ActionId> {
        self.by_file
            .get(filename)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        self.actions
                            .get(id as usize)
                            .map(|a| a.time >= from_time && !a.cancelled)
                            .unwrap_or(false)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Actions caused by a given page visit.
    pub fn actions_for_visit(&self, client_id: &str, visit_id: u64) -> Vec<ActionId> {
        self.by_visit
            .get(&(client_id.to_string(), visit_id))
            .cloned()
            .unwrap_or_default()
    }

    /// The action that served a specific request of a page visit.
    pub fn action_for_request(
        &self,
        client_id: &str,
        visit_id: u64,
        request_id: u64,
    ) -> Option<ActionId> {
        self.actions_for_visit(client_id, visit_id)
            .into_iter()
            .find(|&id| {
                self.actions[id as usize]
                    .client
                    .as_ref()
                    .map(|c| c.request_id == request_id)
                    .unwrap_or(false)
            })
    }

    /// Stores a client-uploaded page-visit record, enforcing the per-client
    /// quota (oldest visits are dropped first).
    pub fn upload_client_log(&mut self, record: PageVisitRecord) {
        let per_client = self
            .client_logs
            .entry(record.client_id.clone())
            .or_default();
        per_client.insert(record.visit_id, record);
        let quota = self.client_log_quota_bytes;
        loop {
            let total: usize = per_client.values().map(|r| r.approximate_bytes()).sum();
            if total <= quota || per_client.len() <= 1 {
                break;
            }
            let oldest = *per_client.keys().next().expect("non-empty");
            per_client.remove(&oldest);
        }
    }

    /// The uploaded browser log for a page visit, if the client uploaded one.
    pub fn client_log(&self, client_id: &str, visit_id: u64) -> Option<&PageVisitRecord> {
        self.client_logs
            .get(client_id)
            .and_then(|m| m.get(&visit_id))
    }

    /// All page visits recorded for a client, in visit order.
    pub fn client_visits(&self, client_id: &str) -> Vec<&PageVisitRecord> {
        self.client_logs
            .get(client_id)
            .map(|m| m.values().collect())
            .unwrap_or_default()
    }

    /// Clients that have uploaded logs.
    pub fn client_ids(&self) -> Vec<String> {
        self.client_logs.keys().cloned().collect()
    }

    /// Storage accounting across the whole log (Table 6).
    pub fn logging_stats(&self) -> LoggingStats {
        let page_visits = self
            .actions
            .iter()
            .filter_map(|a| a.client.as_ref().map(|c| (c.client_id.clone(), c.visit_id)))
            .collect::<BTreeSet<_>>()
            .len()
            .max(self.actions.len().min(1));
        let mut stats = LoggingStats {
            page_visits,
            ..LoggingStats::default()
        };
        for a in &self.actions {
            stats.app_bytes += a.approximate_app_bytes();
            stats.db_bytes += a.approximate_db_bytes();
        }
        for per_client in self.client_logs.values() {
            for rec in per_client.values() {
                stats.browser_bytes += rec.approximate_bytes();
            }
        }
        stats.actions = self.actions.len();
        stats
    }

    /// Garbage-collects actions older than `before_time` (in sync with the
    /// time-travel database's version GC). Returns how many were removed.
    pub fn garbage_collect(&mut self, before_time: i64) -> usize {
        let keep: Vec<ActionRecord> = self
            .actions
            .iter()
            .filter(|a| a.time >= before_time)
            .cloned()
            .collect();
        let removed = self.actions.len() - keep.len();
        if removed == 0 {
            return 0;
        }
        // Rebuild with fresh IDs and indices.
        let logs = std::mem::take(&mut self.client_logs);
        let quota = self.client_log_quota_bytes;
        *self = HistoryGraph {
            client_log_quota_bytes: quota,
            ..Default::default()
        };
        self.client_logs = logs;
        for mut a in keep {
            a.id = 0;
            self.record_action(a);
        }
        removed
    }
}

/// Finds the root of `i` in the partition forest, with path compression.
fn pl_find(parent: &mut [ActionId], i: ActionId) -> ActionId {
    let mut root = i;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = i;
    while parent[cur as usize] != root {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

/// Unions two sets in the partition forest; the smaller ID becomes the
/// representative, which keeps component numbering deterministic.
fn pl_union(parent: &mut [ActionId], a: ActionId, b: ActionId) {
    let (ra, rb) = (pl_find(parent, a), pl_find(parent, b));
    if ra == rb {
        return;
    }
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    parent[hi as usize] = lo;
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_ttdb::PartitionSet;

    fn action(time: i64, files: &[&str], client: Option<(&str, u64, u64)>) -> ActionRecord {
        ActionRecord {
            id: 0,
            time,
            request: HttpRequest::get("/index.wasl"),
            response: HttpResponse::ok("x"),
            client: client.map(|(c, v, r)| ClientRef {
                client_id: c.to_string(),
                visit_id: v,
                request_id: r,
            }),
            entry_script: files.first().unwrap_or(&"index.wasl").to_string(),
            loaded_files: files.iter().map(|s| s.to_string()).collect(),
            queries: vec![QueryRecord {
                sql: "SELECT 1 FROM page".into(),
                time,
                result_fingerprint: 1,
                is_write: false,
                dependency: QueryDependency::read("page", PartitionSet::whole("page")),
            }],
            nondet: vec![],
            cancelled: false,
        }
    }

    #[test]
    fn record_and_index_by_file() {
        let mut g = HistoryGraph::new();
        let a = g.record_action(action(10, &["edit.wasl", "common.wasl"], None));
        let b = g.record_action(action(20, &["view.wasl", "common.wasl"], None));
        assert_eq!(g.len(), 2);
        assert_eq!(g.actions_loading_file("edit.wasl", 0), vec![a]);
        assert_eq!(g.actions_loading_file("common.wasl", 0), vec![a, b]);
        assert_eq!(g.actions_loading_file("common.wasl", 15), vec![b]);
        assert!(g.actions_loading_file("missing.wasl", 0).is_empty());
    }

    #[test]
    fn cancelled_actions_are_not_candidates() {
        let mut g = HistoryGraph::new();
        let a = g.record_action(action(10, &["edit.wasl"], None));
        g.action_mut(a).unwrap().cancelled = true;
        assert!(g.actions_loading_file("edit.wasl", 0).is_empty());
    }

    #[test]
    fn index_by_visit_and_request() {
        let mut g = HistoryGraph::new();
        let a = g.record_action(action(10, &["view.wasl"], Some(("client-1", 3, 0))));
        let b = g.record_action(action(11, &["edit.wasl"], Some(("client-1", 3, 1))));
        let _c = g.record_action(action(12, &["view.wasl"], Some(("client-2", 1, 0))));
        assert_eq!(g.actions_for_visit("client-1", 3), vec![a, b]);
        assert_eq!(g.action_for_request("client-1", 3, 1), Some(b));
        assert_eq!(g.action_for_request("client-1", 3, 9), None);
    }

    #[test]
    fn client_log_quota_drops_oldest_visits() {
        let mut g = HistoryGraph::new();
        g.client_log_quota_bytes = 400;
        for visit in 0..20u64 {
            let mut rec = PageVisitRecord::new("c1", visit, "/view.wasl");
            rec.push_event(
                warp_browser::EventKind::Input,
                "body",
                Some("x".repeat(50)),
                Some(String::new()),
            );
            g.upload_client_log(rec);
        }
        let visits = g.client_visits("c1");
        assert!(visits.len() < 20, "quota should have evicted old visits");
        // The newest visit is retained.
        assert!(g.client_log("c1", 19).is_some());
        assert!(g.client_log("c1", 0).is_none());
        // Another client is unaffected by c1's quota.
        g.upload_client_log(PageVisitRecord::new("c2", 1, "/x"));
        assert!(g.client_log("c2", 1).is_some());
    }

    #[test]
    fn logging_stats_accumulate() {
        let mut g = HistoryGraph::new();
        g.record_action(action(10, &["view.wasl"], Some(("c", 1, 0))));
        g.upload_client_log(PageVisitRecord::new("c", 1, "/view.wasl"));
        let stats = g.logging_stats();
        assert_eq!(stats.actions, 1);
        assert!(stats.app_bytes > 0);
        assert!(stats.db_bytes > 0);
        assert!(stats.browser_bytes > 0);
    }

    fn action_with_dep(time: i64, dep: QueryDependency) -> ActionRecord {
        let mut a = action(time, &["x.wasl"], None);
        a.queries = vec![QueryRecord {
            sql: "...".into(),
            time,
            result_fingerprint: 0,
            is_write: dep.is_write,
            dependency: dep,
        }];
        a
    }

    fn keys(table: &str, col: &str, v: &str) -> PartitionSet {
        PartitionSet::Keys(
            [warp_ttdb::PartitionKey::new(
                table,
                col,
                &warp_sql::Value::text(v),
            )]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn incremental_components_link_writers_readers_and_scans() {
        let mut g = HistoryGraph::new();
        // 0: write t0 · 1: read t0 · 2: read t1 · 3: write t2
        g.record_action(action_with_dep(
            1,
            QueryDependency::write(
                "note",
                keys("note", "topic", "t0"),
                keys("note", "topic", "t0"),
                vec![warp_sql::Value::Int(1)],
            ),
        ));
        g.record_action(action_with_dep(
            2,
            QueryDependency::read("note", keys("note", "topic", "t0")),
        ));
        g.record_action(action_with_dep(
            3,
            QueryDependency::read("note", keys("note", "topic", "t1")),
        ));
        g.record_action(action_with_dep(
            4,
            QueryDependency::write(
                "note",
                keys("note", "topic", "t2"),
                keys("note", "topic", "t2"),
                vec![warp_sql::Value::Int(2)],
            ),
        ));
        assert_eq!(g.partition_components(), vec![vec![0, 1], vec![2], vec![3]]);
        // 4: a whole-table read joins every written partition.
        g.record_action(action_with_dep(
            5,
            QueryDependency::read("note", PartitionSet::whole("note")),
        ));
        assert_eq!(g.partition_components(), vec![vec![0, 1, 3, 4], vec![2]]);
    }

    #[test]
    fn cancelled_actions_leave_components_but_keep_links() {
        let mut g = HistoryGraph::new();
        let w = g.record_action(action_with_dep(
            1,
            QueryDependency::write(
                "note",
                keys("note", "topic", "t0"),
                keys("note", "topic", "t0"),
                vec![warp_sql::Value::Int(1)],
            ),
        ));
        g.record_action(action_with_dep(
            2,
            QueryDependency::read("note", keys("note", "topic", "t0")),
        ));
        g.record_action(action_with_dep(
            3,
            QueryDependency::read("note", keys("note", "topic", "t0")),
        ));
        g.action_mut(w).unwrap().cancelled = true;
        // The cancelled writer is dropped from the emitted components, but
        // the readers it connected stay together (conservative coarsening).
        assert_eq!(g.partition_components(), vec![vec![1, 2]]);
    }

    #[test]
    fn union_by_smallest_id_keeps_roots_deterministic() {
        let mut parent: Vec<ActionId> = (0..5).collect();
        pl_union(&mut parent, 4, 2);
        pl_union(&mut parent, 2, 3);
        assert_eq!(pl_find(&mut parent, 4), 2);
        assert_eq!(pl_find(&mut parent, 3), 2);
        assert_eq!(pl_find(&mut parent, 0), 0);
    }

    #[test]
    fn garbage_collect_drops_old_actions_and_reindexes() {
        let mut g = HistoryGraph::new();
        g.record_action(action(10, &["a.wasl"], None));
        g.record_action(action(20, &["a.wasl"], None));
        g.record_action(action(30, &["b.wasl"], None));
        let removed = g.garbage_collect(15);
        assert_eq!(removed, 1);
        assert_eq!(g.len(), 2);
        assert_eq!(g.actions_loading_file("a.wasl", 0).len(), 1);
        assert_eq!(g.actions_loading_file("b.wasl", 0).len(), 1);
    }

    #[test]
    fn running_totals_equal_a_history_scan_before_and_after_gc() {
        fn scanned(g: &HistoryGraph) -> (usize, usize) {
            let queries = g.actions().iter().map(|a| a.queries.len()).sum();
            let visits = g
                .actions()
                .iter()
                .filter_map(|a| a.client.as_ref().map(|c| (c.client_id.clone(), c.visit_id)))
                .collect::<BTreeSet<_>>()
                .len();
            (queries, visits)
        }
        let mut g = HistoryGraph::new();
        for i in 0..12u64 {
            let client = (i % 3 != 0).then_some(("client", i / 4, i));
            let mut a = action(10 * i as i64, &["view.wasl"], client);
            let extra = a.queries[0].clone();
            a.queries.extend(std::iter::repeat_n(extra, i as usize % 3));
            let id = g.record_action(a);
            if i == 5 {
                g.action_mut(id).unwrap().cancelled = true;
            }
        }
        assert_eq!((g.queries_total(), g.page_visits_total()), scanned(&g));
        assert!(g.garbage_collect(45) > 0);
        assert_eq!((g.queries_total(), g.page_visits_total()), scanned(&g));
    }
}
