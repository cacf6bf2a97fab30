//! Static shard routing for the partition-sharded serving engine.
//!
//! The sharded engine (see [`crate::Warp`] and `facade.rs`) runs
//! non-conflicting requests on N shard workers concurrently. For that to be
//! safe, the engine must know — *before* executing a request — which
//! database partitions the request can possibly touch. This module derives
//! that answer from the one static analysis of a query (site → template →
//! plan; see the analyse-once rule in `docs/ARCHITECTURE.md`):
//!
//! 1. [`plan_entry`] takes the [`warp_script::sites()`] of the entry script's
//!    compiled program and of every literally-named include, transitively.
//!    It rejects anything non-deterministic (`time`, `rand`,
//!    `session_start`) and every `db_query` whose argument is not literal
//!    SQL text around *sanitized request holes* — `sql_escape(param("x"))`
//!    or `int(param("x"))`.
//! 2. [`site_template`] renders each site to the text a request would send
//!    and says which of its literals is which hole. The database plans that
//!    text as it plans a served query, and [`warp_ttdb::Plan::shard_pins`]
//!    says which literals pin partition columns and whether that confines
//!    the statement. A pinned literal that *is* a hole routes by the request
//!    parameter, one that is fixed text by its value; one that only
//!    contains a hole has no value known before the request runs.
//! 3. At serve time, [`classify`] substitutes the request's actual
//!    parameters into the surviving bindings, producing the set of
//!    [`PartitionKey`]s the request can touch. If they all hash to one shard
//!    ([`PartitionKey::shard`]) the request runs there; otherwise it
//!    escalates to the serialized global lane.
//!
//! Every rejection is conservative: an imprecise footprint never routes to
//! a shard, it escalates. The canonical-dump equivalence tests in
//! `tests/tests/serving.rs` hold the whole pipeline to byte-identical
//! results against sequential serving, and debug builds check every shard
//! execution against its prediction ([`stayed_on_shard`]).

use crate::history::QueryRecord;
use crate::sourcefs::SourceStore;
use std::collections::BTreeSet;
use warp_http::HttpRequest;
use warp_script::sites::{Part, Sanitizer};
use warp_script::{Expr as WaslExpr, Value as WaslValue};
use warp_sql::{SqlError, SqlResult, Value as SqlValue};
use warp_ttdb::rewrite::Pin;
use warp_ttdb::{PartitionKey, PartitionSet, TimeTravelDb};

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
#[derive(Clone)]
pub(crate) enum RoutePlan {
    /// Every query the entry can issue resolves to partitions derivable
    /// from source literals and request parameters.
    Shardable { bindings: Vec<Binding> },
    /// The entry must run on the serialized global lane; the string names
    /// the first reason found. Nothing branches on it (escalation is
    /// escalation); `Debug` prints it.
    Global(String),
}

impl std::fmt::Debug for RoutePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutePlan::Shardable { bindings } => write!(f, "Shardable {bindings:?}"),
            RoutePlan::Global(reason) => write!(f, "Global: {reason}"),
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
/// visible to normal execution at time `now`) against the tables of `db`,
/// which plans the entry's query shapes on the way.
pub(crate) fn plan_entry(
    entry: &str,
    sources: &SourceStore,
    now: i64,
    db: &mut TimeTravelDb,
) -> RoutePlan {
    match entry_bindings(entry, sources, now, db) {
        Ok(bindings) => RoutePlan::Shardable { bindings },
        Err(reason) => RoutePlan::Global(reason),
    }
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
            // A negative number is a minus sign and a literal: another
            // statement shape than the one planned, pinning nothing.
            BindingValue::IntParam(p) => match request.param(p).map(str::parse::<i64>) {
                Some(Ok(n)) if n >= 0 => SqlValue::Int(n),
                _ => return Route::Global,
            },
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

/// True if what a request's queries recorded stayed within `shard`: every
/// partition they read or wrote is one the shard owns, and a table they
/// depended on as a whole has no partitions (no shard writes those). The
/// engine asserts this of every shard execution in debug builds — the
/// router's prediction must cover what actually ran.
pub(crate) fn stayed_on_shard(
    queries: &[QueryRecord],
    shard: usize,
    shards: usize,
    db: &TimeTravelDb,
) -> bool {
    queries
        .iter()
        .flat_map(|q| {
            [
                &q.dependency.read_partitions,
                &q.dependency.write_partitions,
            ]
        })
        .all(|set| match set {
            PartitionSet::Keys(keys) => keys.iter().all(|key| key.shard(shards) == shard),
            PartitionSet::Whole { table } => db.partition_columns(table).is_empty(),
        })
}

/// The bindings of every query `entry` and its includes can issue, or the
/// first reason one of them cannot be confined to a shard.
fn entry_bindings(
    entry: &str,
    sources: &SourceStore,
    now: i64,
    db: &mut TimeTravelDb,
) -> Result<Vec<Binding>, String> {
    let mut bindings = Vec::new();
    let mut visited = BTreeSet::new();
    let mut pending = vec![entry.to_string()];
    while let Some(filename) = pending.pop() {
        if !visited.insert(filename.clone()) {
            continue;
        }
        // The compiled program the request will run (see `sourcefs`).
        let program = match sources.program_at(&filename, now) {
            None => return Err(format!("missing source: {filename}")),
            Some(Err(e)) => return Err(format!("unparseable source {filename}: {e}")),
            Some(Ok(program)) => program,
        };
        let found = warp_script::sites(program);
        if let Some(name) = NONDET_FUNCS.iter().find(|f| found.calls.contains(*f)) {
            return Err(format!("nondeterministic call: {name}()"));
        }
        for site in &found.queries {
            bindings.extend(site_bindings(&site.parts, db)?);
        }
        for include in found.includes {
            pending.push(include.ok_or("non-literal include path")?.to_string());
        }
    }
    Ok(bindings)
}

/// The partition bindings of one query site, or the reason it cannot run
/// on a shard.
fn site_bindings(parts: &[Part<'_>], db: &mut TimeTravelDb) -> Result<Vec<Binding>, String> {
    let holes = parts
        .iter()
        .filter(|part| matches!(part, Part::Hole { .. }))
        .map(request_parameter)
        .collect::<Option<Vec<BindingValue>>>()
        .ok_or("db_query argument is not a literal/param template")?;
    let unparseable = |e: SqlError| format!("unparseable query template: {e}");
    let template = site_template(parts).map_err(unparseable)?;
    let query = db.plan(&template.sql).map_err(unparseable)?;
    let pins = query.plan().shard_pins(db)?;
    pins.into_iter()
        .map(|(table, column, pin)| {
            let value = match pin {
                Pin::Literal(v) => BindingValue::Fixed(v.as_display_string()),
                Pin::Param(i) => match &template.params[i] {
                    TemplateParam::Fixed(v) => BindingValue::Fixed(v.as_display_string()),
                    TemplateParam::Hole(hole) => holes[*hole].clone(),
                    TemplateParam::Mixed => {
                        return Err(format!(
                            "{table}.{column} is pinned to text around a request parameter"
                        ))
                    }
                },
            };
            Ok(Binding {
                table,
                column,
                value,
            })
        })
        .collect()
}

/// The request parameter a hole injects, if the hole is
/// `sql_escape(param("p"))` or `int(param("p"))`.
fn request_parameter(hole: &Part<'_>) -> Option<BindingValue> {
    let Part::Hole {
        sanitizer: Some(sanitizer),
        operand: WaslExpr::Call { name, args, .. },
    } = hole
    else {
        return None;
    };
    match (&**name, args.as_slice()) {
        ("param", [WaslExpr::Literal(WaslValue::Str(p))]) => Some(match sanitizer {
            Sanitizer::SqlEscape => BindingValue::StrParam(p.clone()),
            Sanitizer::Int => BindingValue::IntParam(p.clone()),
        }),
        _ => None,
    }
}

/// The SQL text of a `db_query` site, as the database will see it.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteTemplate {
    /// The site's text with a placeholder in each hole: `x` for a
    /// `sql_escape` hole, `1` for any other.
    pub sql: String,
    /// [`warp_sql::Prepared::shape`] of `sql` — and of the text of every
    /// request, as long as a value that no sanitizer wraps is benign.
    pub shape: String,
    /// Where each of [`warp_sql::Prepared::params`] of `sql` comes from.
    pub params: Vec<TemplateParam>,
}

/// The origin of one literal of a [`SiteTemplate`].
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateParam {
    /// Source text only: every request sends this value.
    Fixed(SqlValue),
    /// Exactly the site's hole of this index (counting holes only).
    Hole(usize),
    /// Text around one or more holes: the value depends on the request but
    /// is none of its holes.
    Mixed,
}

/// Turns the parts of a query site ([`warp_script::sites()`]) into the text
/// a request will send, split as a served query is — by
/// [`warp_sql::prepare`] — into shape and literals.
/// [`warp_sql::parse_template`] of [`SiteTemplate::sql`], or a database's
/// plan for it, is then the statement every request of the site executes.
///
/// The lexer decides which literal a hole fills, not a search for the
/// placeholder. A literal whose value is the one-character placeholder holds
/// one hole or none, and nothing else (but leading zeros, which no number
/// minds); the text is rendered again with another value in every hole, and
/// the literal is the hole whose placeholder it is both times. Fails if the
/// text does not lex or the two renderings differ in shape: a hole then is
/// no literal, and the site no one statement.
pub fn site_template(parts: &[Part<'_>]) -> SqlResult<SiteTemplate> {
    let (mut sql, mut again) = (String::new(), String::new());
    // What stands for each hole in `sql` and in `again`.
    let mut placeholders = Vec::new();
    for part in parts {
        let hole = placeholders.len();
        let (first, second) = match part {
            Part::Text(text) => (text.clone(), text.clone()),
            Part::Hole {
                sanitizer: Some(Sanitizer::SqlEscape),
                ..
            } => ("x".to_string(), format!("y{hole}")),
            Part::Hole { .. } => ("1".to_string(), (hole + 2).to_string()),
        };
        sql.push_str(&first);
        again.push_str(&second);
        if matches!(part, Part::Hole { .. }) {
            placeholders.push((first, second));
        }
    }
    let (first, second) = (warp_sql::prepare(&sql)?, warp_sql::prepare(&again)?);
    if first.shape != second.shape {
        return Err(SqlError::Parse(format!(
            "a value concatenated into `{sql}` is not confined to a literal"
        )));
    }
    let params = std::iter::zip(first.params, second.params)
        .map(|(a, b)| {
            if a == b {
                return TemplateParam::Fixed(a);
            }
            let shown = (a.as_display_string(), b.as_display_string());
            placeholders
                .iter()
                .position(|hole| *hole == shown)
                .map_or(TemplateParam::Mixed, TemplateParam::Hole)
        })
        .collect();
    Ok(SiteTemplate {
        sql,
        shape: first.shape,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_ttdb::TableAnnotation;

    fn database() -> TimeTravelDb {
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
        // Two partition columns: a row belongs to a partition of each.
        db.create_table(
            "CREATE TABLE memo (memo_id INTEGER, topic TEXT, owner TEXT, body TEXT)",
            TableAnnotation::new()
                .row_id("memo_id")
                .partitions(["topic", "owner"]),
        )
        .unwrap();
        db
    }

    fn sources_with(entry: &str, content: &str) -> SourceStore {
        let mut sources = SourceStore::new();
        sources.install(entry, content);
        sources
    }

    fn plan(content: &str) -> RoutePlan {
        plan_entry(
            "x.wasl",
            &sources_with("x.wasl", content),
            10,
            &mut database(),
        )
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
        let RoutePlan::Global(reason) = &p else {
            panic!("expected escalation, got {p:?}");
        };
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
        let p = plan_entry("entry.wasl", &sources, 10, &mut database());
        assert!(matches!(p, RoutePlan::Global(_)));

        let mut sources = SourceStore::new();
        sources.install("entry.wasl", "include \"lib.wasl\"; echo(\"hi\");");
        sources.install("lib.wasl", "fn f(x) { return x + 1; }");
        let p = plan_entry("entry.wasl", &sources, 10, &mut database());
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

    #[test]
    fn a_hole_inside_a_longer_literal_escalates() {
        // The pinned value is `pre-<title>` resp. `1<n>`: neither the
        // request parameter nor fixed text, so no shard is known to own it.
        for src in [
            "db_query(\"SELECT body FROM page WHERE title = 'pre-\" . sql_escape(param(\"title\")) . \"'\");",
            "db_query(\"SELECT body FROM note WHERE topic = 1\" . int(param(\"n\")));",
            "db_query(\"SELECT body FROM note WHERE topic = \" . int(param(\"n\")) . \"0\");",
            "db_query(\"SELECT body FROM note WHERE topic = \" . int(param(\"n\")) . int(param(\"m\")));",
        ] {
            let p = plan(src);
            assert!(matches!(p, RoutePlan::Global(_)), "{src} planned {p:?}");
        }
        // Fixed text that only looks like a placeholder stays fixed text.
        let p = plan("db_query(\"SELECT body FROM page WHERE title = 'x' AND body = '\" . sql_escape(param(\"b\")) . \"'\");");
        let RoutePlan::Shardable { bindings } = &p else {
            panic!("expected shardable, got {p:?}");
        };
        assert_eq!(bindings[0].value, BindingValue::Fixed("x".to_string()));
        assert_eq!(bindings.len(), 1);
    }

    #[test]
    fn a_hole_outside_a_literal_escalates() {
        // The table, or the LIMIT, varies with the request: no one shape.
        for src in [
            "db_query(\"SELECT body FROM note\" . int(param(\"n\")) . \" WHERE topic = 'a'\");",
            "db_query(\"SELECT body FROM note WHERE topic = 'a' LIMIT \" . int(param(\"n\")));",
        ] {
            let p = plan(src);
            assert!(matches!(p, RoutePlan::Global(_)), "{src} planned {p:?}");
        }
    }

    #[test]
    fn a_write_must_pin_every_partition_column() {
        // The rows an UPDATE or DELETE writes carry both of memo's
        // partition columns; pinning one leaves the other's shard open.
        for src in [
            "db_query(\"UPDATE memo SET body = 'x' WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\");",
            "db_query(\"DELETE FROM memo WHERE owner = '\" . sql_escape(param(\"owner\")) . \"'\");",
        ] {
            let p = plan(src);
            assert!(matches!(p, RoutePlan::Global(_)), "{src} planned {p:?}");
        }
        let p = plan(
            "db_query(\"UPDATE memo SET body = 'x' WHERE topic = '\" . sql_escape(param(\"topic\")) . \"' AND owner = '\" . sql_escape(param(\"owner\")) . \"'\");",
        );
        assert!(matches!(p, RoutePlan::Shardable { ref bindings } if bindings.len() == 2));
        // A read needs one: whoever writes a row of that partition pins it.
        let p = plan(
            "db_query(\"SELECT body FROM memo WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\");",
        );
        assert!(matches!(p, RoutePlan::Shardable { ref bindings } if bindings.len() == 1));
    }

    #[test]
    fn a_negative_integer_escalates_at_classify_time() {
        // `note_id = -5` is a minus sign and a literal — not the planned
        // shape, and not a pin.
        let db = &mut database();
        db.create_table(
            "CREATE TABLE tally (tally_id INTEGER, bucket INTEGER)",
            TableAnnotation::new()
                .row_id("tally_id")
                .partitions(["bucket"]),
        )
        .unwrap();
        let sources = sources_with(
            "x.wasl",
            "db_query(\"SELECT tally_id FROM tally WHERE bucket = \" . int(param(\"b\")));",
        );
        let p = plan_entry("x.wasl", &sources, 10, db);
        assert!(matches!(
            classify(&p, &HttpRequest::get("/x.wasl?b=5"), 4),
            Route::Shard(_)
        ));
        assert_eq!(
            classify(&p, &HttpRequest::get("/x.wasl?b=-5"), 4),
            Route::Global
        );
    }
}
