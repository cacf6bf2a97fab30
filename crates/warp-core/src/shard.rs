//! Static shard routing for the partition-sharded serving engine.
//!
//! The sharded engine (see [`crate::Warp`] and `facade.rs`) runs
//! non-conflicting requests on N shard workers concurrently. For that to be
//! safe, the engine must know — *before* executing a request — which
//! database partitions the request can possibly touch. This module derives
//! that answer statically from the application source:
//!
//! 1. [`plan_entry`] walks the compiled WASL program of the entry script
//!    (and of every literally-named include, transitively), rejects anything
//!    non-deterministic (`time`, `rand`, `session_start`), and extracts
//!    every `db_query` call site whose SQL argument is a concatenation of
//!    string literals and *sanitized request holes* —
//!    `sql_escape(param("x"))` in string position or `int(param("x"))` in
//!    integer position.
//! 2. Each template is instantiated with sentinel values, parsed with
//!    `warp-sql`, and analyzed against the table annotations
//!    ([`ShardSchema`]): reads must pin their partition columns, writes must
//!    additionally be partition-clone-safe, never move rows across
//!    partitions, and always supply an explicit row ID.
//! 3. At serve time, [`classify`] substitutes the request's actual
//!    parameters into the surviving bindings, producing the set of
//!    [`PartitionKey`]s the request can touch. If they all hash to one shard
//!    ([`PartitionKey::shard`]) the request runs there; otherwise it
//!    escalates to the serialized global lane.
//!
//! Every rejection is conservative: an imprecise footprint never routes to
//! a shard, it escalates. The canonical-dump equivalence tests in
//! `tests/tests/serving.rs` hold the whole pipeline to byte-identical
//! results against sequential serving.

use crate::sourcefs::SourceStore;
use std::collections::{BTreeMap, BTreeSet};
use warp_http::HttpRequest;
use warp_script::{BinOp, Expr as WaslExpr, Stmt as WaslStmt, Value as WaslValue};
use warp_sql::{Statement, Value as SqlValue};
use warp_ttdb::rewrite::read_partitions;
use warp_ttdb::{PartitionKey, PartitionSet, TimeTravelDb};

/// Static, per-table metadata the router needs, snapshotted from the live
/// database at an epoch boundary (the database itself is checked out to the
/// shard workers while an epoch runs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardSchema {
    tables: BTreeMap<String, TableShardInfo>,
}

#[derive(Debug, Clone)]
struct TableShardInfo {
    partition_columns: Vec<String>,
    row_id_column: Option<String>,
    clone_safe: bool,
}

impl ShardSchema {
    /// Captures the routing-relevant schema of every table.
    pub(crate) fn capture(db: &TimeTravelDb) -> Self {
        let mut tables = BTreeMap::new();
        for name in db.table_names() {
            tables.insert(
                name.to_ascii_lowercase(),
                TableShardInfo {
                    partition_columns: db.partition_columns(&name).to_vec(),
                    row_id_column: db.row_id_column(&name).map(|c| c.to_string()),
                    clone_safe: db.partition_clone_safe(&name),
                },
            );
        }
        ShardSchema { tables }
    }
}

/// How one partition-column value of a query is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BindingValue {
    /// A value fixed in the source text.
    Fixed(String),
    /// The raw string value of a request parameter (`sql_escape(param(p))`
    /// round-trips the parameter through SQL quoting back to itself).
    StrParam(String),
    /// A request parameter interpreted as an integer (`int(param(p))`).
    IntParam(String),
}

/// One partition-column constraint a request's query pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Binding {
    table: String,
    column: String,
    value: BindingValue,
}

/// The routing decision for one entry script, computed once per epoch and
/// cached by the engine.
#[derive(Debug, Clone)]
pub(crate) enum RoutePlan {
    /// Every query the entry can issue resolves to partitions derivable
    /// from source literals and request parameters.
    Shardable { bindings: Vec<Binding> },
    /// The entry must run on the serialized global lane; the string names
    /// the first reason found (for diagnostics and tests).
    Global(String),
}

impl RoutePlan {
    /// Why the entry escalates to the global lane, if it does. Production
    /// code never branches on the reason (escalation is escalation); it
    /// exists for tests and debugging.
    #[allow(dead_code)]
    pub(crate) fn global_reason(&self) -> Option<&str> {
        match self {
            RoutePlan::Global(reason) => Some(reason),
            RoutePlan::Shardable { .. } => None,
        }
    }
}

/// The routing decision for one concrete request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// All partition keys hash to this shard.
    Shard(usize),
    /// The request touches no partitions at all (static pages, reads of
    /// unpartitioned tables); any shard may run it.
    Any,
    /// Escalate to the serialized global lane.
    Global,
}

/// Host functions whose results vary between runs: any call forces the
/// global lane, so shard workers never need the nondeterminism counters.
const NONDET_FUNCS: [&str; 3] = ["time", "rand", "session_start"];

/// Builds the route plan for `entry` by static analysis of its source (as
/// visible to normal execution at time `now`) against `schema`.
pub(crate) fn plan_entry(
    entry: &str,
    sources: &SourceStore,
    now: i64,
    schema: &ShardSchema,
) -> RoutePlan {
    let mut templates = Vec::new();
    let mut visited = BTreeSet::new();
    if let Err(reason) = collect_file(entry, sources, now, &mut visited, &mut templates) {
        return RoutePlan::Global(reason);
    }
    let mut bindings = Vec::new();
    for template in &templates {
        match analyze_template(template, schema) {
            Ok(b) => bindings.extend(b),
            Err(reason) => return RoutePlan::Global(reason),
        }
    }
    RoutePlan::Shardable { bindings }
}

/// Classifies one request under a previously-computed plan.
pub(crate) fn classify(plan: &RoutePlan, request: &HttpRequest, shards: usize) -> Route {
    let bindings = match plan {
        RoutePlan::Global(_) => return Route::Global,
        RoutePlan::Shardable { bindings } => bindings,
    };
    let mut owner: Option<usize> = None;
    for binding in bindings {
        let value = match &binding.value {
            BindingValue::Fixed(v) => SqlValue::Text(v.clone()),
            BindingValue::StrParam(p) => match request.param(p) {
                Some(raw) => SqlValue::Text(raw.to_string()),
                None => return Route::Global,
            },
            BindingValue::IntParam(p) => {
                match request.param(p).and_then(|raw| raw.parse::<i64>().ok()) {
                    Some(n) => SqlValue::Int(n),
                    None => return Route::Global,
                }
            }
        };
        let key = PartitionKey::new(&binding.table, &binding.column, &value);
        let shard = key.shard(shards);
        match owner {
            None => owner = Some(shard),
            Some(existing) if existing == shard => {}
            Some(_) => return Route::Global,
        }
    }
    match owner {
        Some(shard) => Route::Shard(shard),
        None => Route::Any,
    }
}

// ---------------------------------------------------------------------------
// Source analysis
// ---------------------------------------------------------------------------

/// The kind of value a request hole injects into the SQL text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HoleKind {
    EscapedStr,
    Int,
}

#[derive(Debug, Clone)]
struct Hole {
    param: String,
    kind: HoleKind,
}

/// One `db_query` call site: literal SQL fragments interleaved with request
/// holes (`fragments.len() == holes.len() + 1`).
#[derive(Debug, Clone)]
struct QueryTemplate {
    fragments: Vec<String>,
    holes: Vec<Hole>,
}

/// Walks the compiled program of `filename` (the one the request will run;
/// see `sourcefs`) and of every literal include, transitively, collecting
/// query templates; any non-analyzable construct aborts with a reason.
fn collect_file(
    filename: &str,
    sources: &SourceStore,
    now: i64,
    visited: &mut BTreeSet<String>,
    templates: &mut Vec<QueryTemplate>,
) -> Result<(), String> {
    if !visited.insert(filename.to_string()) {
        return Ok(());
    }
    let program = match sources.program_at(filename, now) {
        None => return Err(format!("missing source: {filename}")),
        Some(Err(e)) => return Err(format!("unparseable source {filename}: {e}")),
        Some(Ok(program)) => program,
    };
    let mut includes = Vec::new();
    collect_stmts(&program.statements, &mut includes, templates)?;
    for include in includes {
        collect_file(&include, sources, now, visited, templates)?;
    }
    Ok(())
}

fn collect_stmts(
    stmts: &[WaslStmt],
    includes: &mut Vec<String>,
    templates: &mut Vec<QueryTemplate>,
) -> Result<(), String> {
    for stmt in stmts {
        match stmt {
            WaslStmt::Let { value, .. } | WaslStmt::Expr(value) => {
                collect_expr(value, templates)?;
            }
            WaslStmt::Assign { target, value } => {
                if let warp_script::ast::AssignTarget::Index { indexes, .. } = target {
                    for index in indexes {
                        collect_expr(index, templates)?;
                    }
                }
                collect_expr(value, templates)?;
            }
            WaslStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                collect_expr(cond, templates)?;
                collect_stmts(then_branch, includes, templates)?;
                collect_stmts(else_branch, includes, templates)?;
            }
            WaslStmt::While { cond, body } => {
                collect_expr(cond, templates)?;
                collect_stmts(body, includes, templates)?;
            }
            WaslStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                collect_stmts(std::slice::from_ref(init), includes, templates)?;
                collect_expr(cond, templates)?;
                collect_stmts(std::slice::from_ref(step), includes, templates)?;
                collect_stmts(body, includes, templates)?;
            }
            WaslStmt::Foreach {
                collection, body, ..
            } => {
                collect_expr(collection, templates)?;
                collect_stmts(body, includes, templates)?;
            }
            WaslStmt::Return(Some(value)) => collect_expr(value, templates)?,
            WaslStmt::Return(None) | WaslStmt::Break | WaslStmt::Continue => {}
            WaslStmt::Include(expr) => match expr {
                WaslExpr::Literal(WaslValue::Str(file)) => includes.push(file.clone()),
                _ => return Err("non-literal include path".to_string()),
            },
            WaslStmt::FnDef(def) => collect_stmts(&def.body, includes, templates)?,
        }
    }
    Ok(())
}

/// Visits one expression tree: rejects nondeterminism, extracts `db_query`
/// templates, and recurses into every operand.
fn collect_expr(expr: &WaslExpr, templates: &mut Vec<QueryTemplate>) -> Result<(), String> {
    match expr {
        WaslExpr::Call { name, args } => {
            if NONDET_FUNCS.contains(&name.as_str()) {
                return Err(format!("nondeterministic call: {name}()"));
            }
            if name == "db_query" {
                let Some(arg) = args.first() else {
                    return Err("db_query with no argument".to_string());
                };
                let Some(template) = template_of(arg) else {
                    return Err("db_query argument is not a literal/param template".to_string());
                };
                templates.push(template);
                return Ok(());
            }
            for arg in args {
                collect_expr(arg, templates)?;
            }
        }
        WaslExpr::Binary { left, right, .. } => {
            collect_expr(left, templates)?;
            collect_expr(right, templates)?;
        }
        WaslExpr::Unary { operand, .. } => collect_expr(operand, templates)?,
        WaslExpr::Index { base, index } => {
            collect_expr(base, templates)?;
            collect_expr(index, templates)?;
        }
        WaslExpr::ArrayLit(items) => {
            for item in items {
                collect_expr(item, templates)?;
            }
        }
        WaslExpr::MapLit(pairs) => {
            for (k, v) in pairs {
                collect_expr(k, templates)?;
                collect_expr(v, templates)?;
            }
        }
        WaslExpr::Literal(_) | WaslExpr::Var(_) => {}
    }
    Ok(())
}

/// Decomposes a `db_query` SQL argument into a template, if it is a concat
/// chain of string/int literals and sanitized request holes.
fn template_of(expr: &WaslExpr) -> Option<QueryTemplate> {
    let mut leaves = Vec::new();
    flatten_concat(expr, &mut leaves);
    let mut fragments = vec![String::new()];
    let mut holes = Vec::new();
    for leaf in leaves {
        match leaf {
            WaslExpr::Literal(WaslValue::Str(s)) => {
                fragments.last_mut().expect("non-empty").push_str(s);
            }
            WaslExpr::Literal(WaslValue::Int(i)) => {
                fragments
                    .last_mut()
                    .expect("non-empty")
                    .push_str(&i.to_string());
            }
            WaslExpr::Call { name, args } if name == "sql_escape" || name == "int" => {
                let param = param_name(args)?;
                holes.push(Hole {
                    param,
                    kind: if name == "sql_escape" {
                        HoleKind::EscapedStr
                    } else {
                        HoleKind::Int
                    },
                });
                fragments.push(String::new());
            }
            _ => return None,
        }
    }
    Some(QueryTemplate { fragments, holes })
}

fn flatten_concat<'e>(expr: &'e WaslExpr, out: &mut Vec<&'e WaslExpr>) {
    if let WaslExpr::Binary {
        left,
        op: BinOp::Concat,
        right,
    } = expr
    {
        flatten_concat(left, out);
        flatten_concat(right, out);
    } else {
        out.push(expr);
    }
}

/// Matches the `param("name")` call inside a sanitizer hole.
fn param_name(args: &[WaslExpr]) -> Option<String> {
    match args {
        [WaslExpr::Call { name, args }] if name == "param" => match args.as_slice() {
            [WaslExpr::Literal(WaslValue::Str(p))] => Some(p.clone()),
            _ => None,
        },
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Template analysis
// ---------------------------------------------------------------------------

/// Sentinel values are chosen to be impossible in real data and to survive
/// both `sql_escape` (no quotes) and SQL parsing unchanged.
fn str_sentinel(i: usize) -> String {
    format!("WARPSHARDSENTINEL{i}Q")
}

const INT_SENTINEL_BASE: i64 = 8_878_000_000_000;

fn int_sentinel(i: usize) -> i64 {
    INT_SENTINEL_BASE + i as i64
}

/// Renders the template with sentinels standing in for the request holes.
fn render_with_sentinels(template: &QueryTemplate) -> String {
    let mut sql = template.fragments[0].clone();
    for (i, hole) in template.holes.iter().enumerate() {
        match hole.kind {
            HoleKind::EscapedStr => sql.push_str(&str_sentinel(i)),
            HoleKind::Int => sql.push_str(&int_sentinel(i).to_string()),
        }
        sql.push_str(&template.fragments[i + 1]);
    }
    sql
}

/// Analyzes one template against the schema; returns the partition bindings
/// the query pins, or the reason it cannot run on a shard.
fn analyze_template(
    template: &QueryTemplate,
    schema: &ShardSchema,
) -> Result<Vec<Binding>, String> {
    let rendered = render_with_sentinels(template);
    let stmt =
        warp_sql::parse(&rendered).map_err(|e| format!("unparseable query template: {e}"))?;
    let Some(table) = stmt.table_name() else {
        return Err("query without a table".to_string());
    };
    let table = table.to_ascii_lowercase();
    let Some(info) = schema.tables.get(&table) else {
        return Err(format!("unknown table: {table}"));
    };
    // Maps a pinned partition value back to the hole that produced it.
    let resolve = |value: &str| -> BindingValue {
        for (i, hole) in template.holes.iter().enumerate() {
            let is_sentinel = match hole.kind {
                HoleKind::EscapedStr => value == str_sentinel(i),
                HoleKind::Int => value == int_sentinel(i).to_string(),
            };
            if is_sentinel {
                return match hole.kind {
                    HoleKind::EscapedStr => BindingValue::StrParam(hole.param.clone()),
                    HoleKind::Int => BindingValue::IntParam(hole.param.clone()),
                };
            }
        }
        BindingValue::Fixed(value.to_string())
    };
    let where_bindings = |stmt: &Statement| -> Result<Vec<Binding>, String> {
        match read_partitions(stmt, &table, &info.partition_columns) {
            PartitionSet::Keys(keys) => Ok(keys
                .iter()
                .map(|key| Binding {
                    table: key.table.clone(),
                    column: key.column.clone(),
                    value: resolve(&key.value),
                })
                .collect()),
            PartitionSet::Whole { .. } => {
                Err(format!("query does not pin a partition column of {table}"))
            }
        }
    };
    match &stmt {
        Statement::Select(_) => {
            if info.partition_columns.is_empty() {
                // Reads of unpartitioned tables are safe on any shard: every
                // write to such a table escalates to the global lane, so no
                // shard can observe a concurrent in-flight write.
                Ok(Vec::new())
            } else {
                where_bindings(&stmt)
            }
        }
        Statement::Update {
            assignments, table, ..
        } => {
            require_write_safe(info, table)?;
            for assignment in assignments {
                let col = assignment.column.to_ascii_lowercase();
                if info
                    .partition_columns
                    .iter()
                    .any(|p| p.eq_ignore_ascii_case(&col))
                {
                    return Err(format!("UPDATE moves rows across partitions of {table}"));
                }
                if info
                    .row_id_column
                    .as_deref()
                    .is_some_and(|r| r.eq_ignore_ascii_case(&col))
                {
                    return Err(format!("UPDATE rewrites the row id of {table}"));
                }
            }
            where_bindings(&stmt)
        }
        Statement::Delete { table, .. } => {
            require_write_safe(info, table)?;
            where_bindings(&stmt)
        }
        Statement::Insert {
            table,
            columns,
            values,
        } => {
            require_write_safe(info, table)?;
            let position = |col: &str| columns.iter().position(|c| c.eq_ignore_ascii_case(col));
            let Some(row_id) = info.row_id_column.as_deref() else {
                return Err(format!("table {table} has no row id column"));
            };
            let Some(row_id_pos) = position(row_id) else {
                return Err(format!(
                    "INSERT into {table} without an explicit row id (synthetic ids serialize)"
                ));
            };
            let mut bindings = Vec::new();
            for row in values {
                match row.get(row_id_pos) {
                    Some(warp_sql::Expr::Literal(v)) if *v != SqlValue::Null => {}
                    _ => {
                        return Err(format!("INSERT into {table} with a non-literal row id"));
                    }
                }
                for pcol in &info.partition_columns {
                    let Some(pos) = position(pcol) else {
                        return Err(format!(
                            "INSERT into {table} does not set partition column {pcol}"
                        ));
                    };
                    match row.get(pos) {
                        Some(warp_sql::Expr::Literal(v)) => bindings.push(Binding {
                            table: table.to_ascii_lowercase(),
                            column: pcol.to_ascii_lowercase(),
                            value: resolve(&v.as_display_string()),
                        }),
                        _ => {
                            return Err(format!(
                                "INSERT into {table} with a non-literal partition value"
                            ));
                        }
                    }
                }
            }
            Ok(bindings)
        }
        Statement::CreateTable { .. }
        | Statement::DropTable { .. }
        | Statement::AlterTableAddColumn { .. } => Err("DDL statement".to_string()),
    }
}

/// Writes may run on a shard only against partitioned, clone-safe tables
/// (every UNIQUE constraint includes a partition column, so uniqueness
/// violations can only happen within one shard's partitions).
fn require_write_safe(info: &TableShardInfo, table: &str) -> Result<(), String> {
    if info.partition_columns.is_empty() {
        return Err(format!("write to unpartitioned table {table}"));
    }
    if !info.clone_safe {
        return Err(format!(
            "table {table} has a unique constraint outside its partition columns"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_ttdb::TableAnnotation;

    fn schema() -> ShardSchema {
        let mut db = TimeTravelDb::new();
        // The canonical wiki schema: page_id's PRIMARY KEY does not include
        // the partition column, so writes are NOT clone-safe (two shards
        // could race a page_id collision) — reads still shard.
        db.create_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        )
        .unwrap();
        // No unique constraints at all → vacuously clone-safe; the natural
        // row id keeps the synthetic-id watermark untouched.
        db.create_table(
            "CREATE TABLE note (note_id INTEGER, topic TEXT, body TEXT)",
            TableAnnotation::new()
                .row_id("note_id")
                .partitions(["topic"]),
        )
        .unwrap();
        db.create_table(
            "CREATE TABLE settings (key_id INTEGER PRIMARY KEY, name TEXT, value TEXT)",
            TableAnnotation::new().row_id("key_id"),
        )
        .unwrap();
        ShardSchema::capture(&db)
    }

    fn sources_with(entry: &str, content: &str) -> SourceStore {
        let mut sources = SourceStore::new();
        sources.install(entry, content);
        sources
    }

    fn plan(content: &str) -> RoutePlan {
        plan_entry("x.wasl", &sources_with("x.wasl", content), 10, &schema())
    }

    #[test]
    fn pinned_read_routes_by_param() {
        let plan = plan(
            "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); echo(len(rows));",
        );
        let RoutePlan::Shardable { bindings } = &plan else {
            panic!("expected shardable, got {plan:?}");
        };
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings[0].column, "title");
        assert_eq!(
            bindings[0].value,
            BindingValue::StrParam("title".to_string())
        );
        let request = HttpRequest::get("/x.wasl?title=Main");
        let expected = PartitionKey::new("page", "title", &SqlValue::text("Main")).shard(4);
        assert_eq!(classify(&plan, &request, 4), Route::Shard(expected));
        // Missing parameter escalates.
        assert_eq!(
            classify(&plan, &HttpRequest::get("/x.wasl"), 4),
            Route::Global
        );
    }

    #[test]
    fn unpinned_read_escalates() {
        let p = plan("let rows = db_query(\"SELECT body FROM page\"); echo(len(rows));");
        let reason = p.global_reason().expect("escalates");
        assert!(
            reason.contains("does not pin"),
            "unexpected reason: {reason}"
        );
    }

    #[test]
    fn read_of_unpartitioned_table_runs_anywhere() {
        let p = plan("let rows = db_query(\"SELECT value FROM settings\"); echo(len(rows));");
        assert!(matches!(p, RoutePlan::Shardable { ref bindings } if bindings.is_empty()));
        assert_eq!(classify(&p, &HttpRequest::get("/x.wasl"), 4), Route::Any);
    }

    #[test]
    fn write_to_unpartitioned_table_escalates() {
        let p = plan("db_query(\"UPDATE settings SET value = 'x' WHERE name = 'theme'\");");
        assert!(matches!(p, RoutePlan::Global(_)));
    }

    #[test]
    fn nondeterminism_escalates() {
        for src in [
            "echo(time());",
            "echo(rand());",
            "echo(session_start());",
            "fn helper() { return rand(); } echo(\"static\");",
        ] {
            let p = plan(src);
            assert!(matches!(p, RoutePlan::Global(_)), "{src} should escalate");
        }
    }

    #[test]
    fn write_to_non_clone_safe_table_escalates() {
        // page's PRIMARY KEY (page_id) is outside its partition column, so
        // cross-shard writes could race a uniqueness collision.
        let p = plan(
            "db_query(\"UPDATE page SET body = 'x' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\");",
        );
        assert!(matches!(p, RoutePlan::Global(_)), "got {p:?}");
    }

    #[test]
    fn update_pinned_to_one_partition_is_shardable() {
        let p = plan(
            "db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\");",
        );
        let RoutePlan::Shardable { bindings } = &p else {
            panic!("expected shardable, got {p:?}");
        };
        assert_eq!(bindings.len(), 1);
        // The body hole is not a partition column, so only topic binds.
        assert_eq!(
            bindings[0].value,
            BindingValue::StrParam("topic".to_string())
        );
    }

    #[test]
    fn update_that_moves_partitions_escalates() {
        let p = plan(
            "db_query(\"UPDATE note SET topic = '\" . sql_escape(param(\"new\")) . \"' WHERE topic = '\" . sql_escape(param(\"old\")) . \"'\");",
        );
        assert!(matches!(p, RoutePlan::Global(_)));
    }

    #[test]
    fn insert_with_explicit_ids_binds_partition_values() {
        let p = plan(
            "db_query(\"INSERT INTO note (note_id, topic, body) VALUES (\" . int(param(\"id\")) . \", '\" . sql_escape(param(\"topic\")) . \"', 'x')\");",
        );
        let RoutePlan::Shardable { bindings } = &p else {
            panic!("expected shardable, got {p:?}");
        };
        assert_eq!(bindings.len(), 1);
        assert_eq!(
            bindings[0].value,
            BindingValue::StrParam("topic".to_string())
        );
        // The id hole is not a partition key, so it never constrains the
        // route — even a malformed id is fine (`int()` coerces it to 0
        // deterministically). Only the topic decides the shard.
        let expected = PartitionKey::new("note", "topic", &SqlValue::text("news")).shard(4);
        for target in ["/x.wasl?id=7&topic=news", "/x.wasl?id=abc&topic=news"] {
            assert_eq!(
                classify(&p, &HttpRequest::get(target), 4),
                Route::Shard(expected)
            );
        }
        // A missing topic parameter does escalate.
        assert_eq!(
            classify(&p, &HttpRequest::get("/x.wasl?id=7"), 4),
            Route::Global
        );
    }

    #[test]
    fn insert_without_row_id_escalates() {
        // Omitting note_id would draw a synthetic id from the global
        // watermark, whose order depends on shard interleaving.
        let p = plan(
            "db_query(\"INSERT INTO note (topic, body) VALUES ('\" . sql_escape(param(\"topic\")) . \"', 'x')\");",
        );
        assert!(matches!(p, RoutePlan::Global(_)));
    }

    #[test]
    fn dynamic_sql_escalates() {
        let p = plan(
            "let t = param(\"title\"); let rows = db_query(\"SELECT body FROM page WHERE title = '\" . t . \"'\"); echo(len(rows));",
        );
        assert!(matches!(p, RoutePlan::Global(_)));
    }

    #[test]
    fn includes_are_analyzed_transitively() {
        let mut sources = SourceStore::new();
        sources.install("entry.wasl", "include \"lib.wasl\"; echo(\"hi\");");
        sources.install("lib.wasl", "fn f() { return rand(); }");
        let p = plan_entry("entry.wasl", &sources, 10, &schema());
        assert!(matches!(p, RoutePlan::Global(_)));

        let mut sources = SourceStore::new();
        sources.install("entry.wasl", "include \"lib.wasl\"; echo(\"hi\");");
        sources.install("lib.wasl", "fn f(x) { return x + 1; }");
        let p = plan_entry("entry.wasl", &sources, 10, &schema());
        assert!(matches!(p, RoutePlan::Shardable { .. }));
    }

    #[test]
    fn cross_partition_requests_escalate_at_classify_time() {
        let p = plan(
            "db_query(\"UPDATE note SET body = 'x' WHERE topic = '\" . sql_escape(param(\"a\")) . \"'\"); \
             db_query(\"UPDATE note SET body = 'y' WHERE topic = '\" . sql_escape(param(\"b\")) . \"'\");",
        );
        let RoutePlan::Shardable { bindings } = &p else {
            panic!("expected shardable, got {p:?}");
        };
        assert_eq!(bindings.len(), 2);
        // Find two topics owned by different shards.
        let (mut same, mut diff) = (None, None);
        for i in 0..64 {
            let t = format!("t{i}");
            let s0 = PartitionKey::new("note", "topic", &SqlValue::text("t0")).shard(4);
            let si = PartitionKey::new("note", "topic", &SqlValue::text(&t)).shard(4);
            if si == s0 {
                same = Some(t);
            } else {
                diff = Some(t);
            }
            if same.is_some() && diff.is_some() {
                break;
            }
        }
        let (same, diff) = (same.unwrap(), diff.unwrap());
        let co = HttpRequest::get(&format!("/x.wasl?a=t0&b={same}"));
        assert!(matches!(classify(&p, &co, 4), Route::Shard(_)));
        let cross = HttpRequest::get(&format!("/x.wasl?a=t0&b={diff}"));
        assert_eq!(classify(&p, &cross, 4), Route::Global);
    }
}
