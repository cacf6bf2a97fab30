//! The application repair manager's interposition layer (paper §3).
//!
//! Application code (WASL, the PHP analog) never touches the database, the
//! HTTP layer, the clock or randomness directly: every such call goes
//! through the host implemented here. During normal execution the host logs
//! the dependencies and non-determinism the repair controller will later
//! need; during repair it replays recorded non-determinism and routes
//! database queries through the repair session (time-travel re-execution).

use crate::clock::LogicalClock;
use crate::history::{ActionRecord, NondetRecord, QueryRecord};
use crate::sourcefs::SourceStore;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use warp_http::{generate_session_id, HttpRequest, HttpResponse};
use warp_script::{Host, Interpreter, Program, ScriptError, ScriptResult, Value as SVal};
use warp_sql::Value as DVal;
use warp_ttdb::{Plan, RepairSession, TimeTravelDb};

/// How an application run reaches the time-travel database.
///
/// The engine thread's global lane and all repair paths own the database
/// outright (`Exclusive`). Engine shards executing non-conflicting requests
/// in parallel share one database behind a mutex (`Shared`) and hold the
/// lock only for the duration of each individual query — script
/// interpretation, the dominant cost, runs outside the lock.
pub enum DbAccess<'a> {
    /// Sole ownership of the database for the whole run.
    Exclusive(&'a mut TimeTravelDb),
    /// Per-query locking against a database shared between engine shards.
    Shared(&'a Mutex<TimeTravelDb>),
}

impl DbAccess<'_> {
    /// Runs `f` with exclusive access to the database, acquiring the shard
    /// lock around the call if the database is shared.
    pub fn with<R>(&mut self, f: impl FnOnce(&mut TimeTravelDb) -> R) -> R {
        match self {
            DbAccess::Exclusive(db) => f(db),
            DbAccess::Shared(shared) => f(&mut shared.lock().expect("shard db lock poisoned")),
        }
    }
}

/// How the application run interacts with the database and non-determinism.
pub enum ExecMode<'a> {
    /// Normal execution: queries run in the current generation at fresh
    /// clock ticks; non-determinism is generated and recorded.
    Normal {
        /// The server's logical clock (a shared handle; ticking is atomic).
        clock: &'a LogicalClock,
        /// Deterministic randomness counter.
        rng_counter: &'a mut u64,
        /// Session-ID counter.
        session_counter: &'a mut u64,
    },
    /// Re-execution during repair: queries run in the repair generation at
    /// their original times; non-determinism is replayed from the original
    /// action record when possible.
    Repair {
        /// The repair session (tracks modified partitions, does two-phase
        /// write re-execution).
        session: &'a mut RepairSession,
        /// The original action, when re-executing a recorded run (None for
        /// brand-new runs discovered during repair).
        original: Option<&'a ActionRecord>,
    },
}

/// Everything needed to run one application request.
pub struct AppRunContext<'a> {
    /// The HTTP request being handled.
    pub request: &'a HttpRequest,
    /// The entry script resolved by the router.
    pub entry_script: String,
    /// The versioned source tree.
    pub sources: &'a SourceStore,
    /// The logical time of this run.
    pub action_time: i64,
    /// The time-travel database (exclusive, or shared between shards).
    pub db: DbAccess<'a>,
    /// Normal vs repair execution.
    pub mode: ExecMode<'a>,
}

/// The outcome of one application run.
#[derive(Debug, Clone)]
pub struct AppRunResult {
    /// The HTTP response produced.
    pub response: HttpResponse,
    /// Source files loaded (entry script plus includes).
    pub loaded_files: Vec<String>,
    /// Database queries issued, in order.
    pub queries: Vec<QueryRecord>,
    /// Non-deterministic calls, in order.
    pub nondet: Vec<NondetRecord>,
    /// For repair runs: which of the original action's queries were matched
    /// (re-executed) by this run. Unmatched original *writes* are the ones
    /// the repair controller must roll back.
    pub used_original_queries: Vec<bool>,
    /// A fatal script error, if the run failed.
    pub script_error: Option<String>,
    /// Number of queries this run re-executed through the repair session.
    pub queries_reexecuted: usize,
}

/// Runs one application request to completion.
pub fn run_application(ctx: AppRunContext<'_>) -> AppRunResult {
    let entry = ctx.entry_script;
    let original_len = match &ctx.mode {
        ExecMode::Repair {
            original: Some(o), ..
        } => o.queries.len(),
        _ => 0,
    };
    // The entry script's program is compiled once per source version (see
    // `sourcefs`); a version that failed to compile fails the request here.
    let program = match ctx.sources.program_at(&entry, ctx.action_time) {
        Some(program) => program,
        None => {
            return AppRunResult {
                response: HttpResponse::not_found(format!("no such script: {entry}")),
                loaded_files: vec![entry],
                queries: Vec::new(),
                nondet: Vec::new(),
                used_original_queries: vec![false; original_len],
                script_error: None,
                queries_reexecuted: 0,
            }
        }
    };
    let mut host = AppHost {
        request: ctx.request,
        sources: ctx.sources,
        action_time: ctx.action_time,
        db: ctx.db,
        mode: ctx.mode,
        output: String::new(),
        headers: Vec::new(),
        set_cookies: Vec::new(),
        status: 200,
        redirect: None,
        loaded_files: vec![entry],
        queries: Vec::new(),
        nondet: Vec::new(),
        nondet_cursor: BTreeMap::new(),
        used_original_queries: vec![false; original_len],
        original_plans: vec![OnceCell::new(); original_len],
        queries_reexecuted: 0,
    };
    let run = match program {
        Ok(program) => Interpreter::new().run_program(program, &mut host, BTreeMap::new()),
        Err(e) => Err(e.clone()),
    };
    let script_error = run.err().map(|e| e.to_string());
    let mut response = match (&script_error, host.redirect) {
        (Some(err), _) => HttpResponse::server_error(format!("application error: {err}")),
        (None, Some(location)) => HttpResponse::redirect(location),
        (None, None) => {
            let mut r = HttpResponse::ok(host.output);
            r.status = host.status;
            r
        }
    };
    response.headers.extend(host.headers);
    response.set_cookies.extend(host.set_cookies);
    AppRunResult {
        response,
        loaded_files: host.loaded_files,
        queries: host.queries,
        nondet: host.nondet,
        used_original_queries: host.used_original_queries,
        script_error,
        queries_reexecuted: host.queries_reexecuted,
    }
}

struct AppHost<'a> {
    request: &'a HttpRequest,
    sources: &'a SourceStore,
    action_time: i64,
    db: DbAccess<'a>,
    mode: ExecMode<'a>,
    output: String,
    headers: Vec<(String, String)>,
    set_cookies: Vec<String>,
    status: u16,
    redirect: Option<String>,
    loaded_files: Vec<String>,
    queries: Vec<QueryRecord>,
    nondet: Vec<NondetRecord>,
    /// Per-function replay position: the index into the original action's
    /// nondet log from which the next call of that function is looked for.
    nondet_cursor: BTreeMap<String, usize>,
    used_original_queries: Vec<bool>,
    /// The plan of each original query, looked up from its text the first
    /// time a re-executed write is compared against it (`None` for text
    /// that no longer parses).
    original_plans: Vec<OnceCell<Option<Arc<Plan>>>>,
    queries_reexecuted: usize,
}

impl AppHost<'_> {
    fn record_nondet(&mut self, func: &str, args: &[SVal], result: SVal) -> SVal {
        self.nondet.push(NondetRecord {
            func: func.to_string(),
            args: args.to_vec(),
            result: result.clone(),
        });
        result
    }

    /// During repair, returns the next recorded return value for `func` if
    /// the original run called it (in-order matching per call site family,
    /// paper §3.3); otherwise None and the caller generates a fresh value.
    fn replay_nondet(&mut self, func: &str) -> Option<SVal> {
        if let ExecMode::Repair {
            original: Some(original),
            ..
        } = &self.mode
        {
            let from = self.nondet_cursor.entry(func.to_string()).or_insert(0);
            let found = original.nondet[*from..].iter().position(|n| n.func == func);
            if let Some(offset) = found {
                let n = &original.nondet[*from + offset];
                *from += offset + 1;
                return Some(n.result.clone());
            }
            // The original made no further call of `func`.
            *from = original.nondet.len();
        }
        None
    }

    fn handle_nondet(&mut self, func: &str, args: &[SVal]) -> SVal {
        if let Some(v) = self.replay_nondet(func) {
            self.nondet.push(NondetRecord {
                func: func.to_string(),
                args: args.to_vec(),
                result: v.clone(),
            });
            return v;
        }
        let fresh = match &mut self.mode {
            ExecMode::Normal {
                clock,
                rng_counter,
                session_counter,
            } => match func {
                "time" => SVal::Int(clock.now()),
                "rand" => {
                    **rng_counter += 1;
                    SVal::Int(mix(**rng_counter) as i64 & 0x7fff_ffff)
                }
                "session_start" => {
                    **session_counter += 1;
                    SVal::str(generate_session_id(**session_counter))
                }
                _ => SVal::Null,
            },
            ExecMode::Repair { session, .. } => match func {
                // Fresh non-determinism during repair is derived from the
                // repair generation and action time so repair itself stays
                // deterministic.
                "time" => SVal::Int(self.action_time),
                "rand" => SVal::Int(
                    mix(self.action_time as u64 ^ session.generation as u64) as i64 & 0x7fff_ffff,
                ),
                "session_start" => SVal::str(generate_session_id(
                    (self.action_time as u64) ^ 0xdead_beef ^ session.generation as u64,
                )),
                _ => SVal::Null,
            },
        };
        self.record_nondet(func, args, fresh)
    }

    fn handle_query(&mut self, sql: &str) -> ScriptResult<SVal> {
        let sql_error = |e| ScriptError::Host(format!("SQL error in `{sql}`: {e}"));
        let execution = match &mut self.mode {
            // One visit to the database (one lock, if it is shared): plan,
            // take the query's time, execute. A text that does not parse
            // takes no time.
            ExecMode::Normal { clock, .. } => self.db.with(|db| {
                let mut query = db.plan(sql).map_err(sql_error)?;
                let time = clock.tick();
                let gen = db.current_generation();
                Ok((
                    db.execute_planned(&mut query, time, gen),
                    time,
                    query.plan().is_write(),
                ))
            })?,
            ExecMode::Repair { session, original } => {
                let mut query = self.db.with(|db| db.plan(sql)).map_err(sql_error)?;
                let is_write = query.plan().is_write();
                // Match this query against the original run's queries to find
                // its original execution time and (for writes) the rows it
                // originally modified.
                let matched = match_original_query(
                    *original,
                    &self.used_original_queries,
                    &self.original_plans,
                    &mut self.db,
                    sql,
                    query.plan(),
                );
                let (time, original_rows) = match matched {
                    Some(idx) => {
                        self.used_original_queries[idx] = true;
                        let q = &original.expect("matched implies original").queries[idx];
                        (q.time, q.written_row_ids())
                    }
                    None => (self.action_time, &[][..]),
                };
                self.queries_reexecuted += 1;
                let result = self.db.with(|db| {
                    if !is_write {
                        session.reexecute_read(db, &mut query, time)
                    } else if original_rows.is_empty() && matched.is_none() {
                        session.execute_new_write(db, &mut query, time)
                    } else {
                        session.reexecute_write(db, &mut query, time, original_rows)
                    }
                });
                (result, time, is_write)
            }
        };
        let (result, time, is_write) = execution;
        let out = result.map_err(|e| ScriptError::Host(format!("database error: {e}")))?;
        self.queries.push(QueryRecord {
            sql: sql.to_string(),
            time,
            result_fingerprint: out.result.fingerprint(),
            is_write,
            dependency: out.dependency,
        });
        if is_write {
            return Ok(SVal::Int(out.result.affected as i64));
        }
        // The result set is handed to the script by value; the column names
        // key every row's map, so all rows but the last copy them.
        let mut columns = out.result.columns;
        let last = out.result.rows.len().saturating_sub(1);
        let mut rows = Vec::with_capacity(out.result.rows.len());
        for (i, row) in out.result.rows.into_iter().enumerate() {
            let names = if i == last {
                std::mem::take(&mut columns)
            } else {
                columns.clone()
            };
            let values = row.into_iter().map(sql_to_script);
            rows.push(SVal::Map(names.into_iter().zip(values).collect()));
        }
        Ok(SVal::Array(rows))
    }
}

/// Finds the original query this re-executed query corresponds to.
///
/// Exact SQL text matches are preferred; otherwise a write is matched to the
/// first unused original write of the same kind against the same table (its
/// text may legitimately differ — e.g. the patched application sanitised the
/// content it stores). `plans` memoises the plan of each original query for
/// the app run, so a run of many writes looks each up at most once.
fn match_original_query(
    original: Option<&ActionRecord>,
    used: &[bool],
    plans: &[OnceCell<Option<Arc<Plan>>>],
    db: &mut DbAccess<'_>,
    sql: &str,
    plan: &Plan,
) -> Option<usize> {
    let original = original?;
    // Pass 1: exact text match.
    for (i, q) in original.queries.iter().enumerate() {
        if !used[i] && q.sql == sql {
            return Some(i);
        }
    }
    // Pass 2 (writes only): same statement kind against the same table.
    if plan.is_write() {
        for (i, q) in original.queries.iter().enumerate() {
            if used[i] || !q.is_write {
                continue;
            }
            let original_plan = plans[i].get_or_init(|| {
                db.with(|db| db.plan(&q.sql))
                    .ok()
                    .map(|query| query.plan().clone())
            });
            if original_plan
                .as_ref()
                .is_some_and(|o| o.same_kind_and_table(plan))
            {
                return Some(i);
            }
        }
    }
    None
}

impl Host for AppHost<'_> {
    fn call_host(&mut self, name: &str, args: &[SVal]) -> Option<ScriptResult<SVal>> {
        match name {
            "echo" | "print" => {
                for a in args {
                    self.output.push_str(&a.display_str());
                }
                Some(Ok(SVal::Null))
            }
            "param" => {
                let key = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                Some(Ok(self
                    .request
                    .param(&key)
                    .map(SVal::str)
                    .unwrap_or(SVal::Null)))
            }
            "has_param" => {
                let key = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                Some(Ok(SVal::Bool(self.request.param(&key).is_some())))
            }
            "request_method" => Some(Ok(SVal::str(self.request.method.as_str()))),
            "request_path" => Some(Ok(SVal::str(self.request.path.clone()))),
            "cookie" => {
                let key = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                Some(Ok(self
                    .request
                    .cookies
                    .get(&key)
                    .map(SVal::str)
                    .unwrap_or(SVal::Null)))
            }
            "set_cookie" => {
                let key = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                let value = args
                    .get(1)
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                self.set_cookies.push(format!("{key}={value}"));
                Some(Ok(SVal::Null))
            }
            "clear_cookie" => {
                let key = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                self.set_cookies.push(format!("{key}="));
                Some(Ok(SVal::Null))
            }
            "header" => {
                let key = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                let value = args
                    .get(1)
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                self.headers.push((key, value));
                Some(Ok(SVal::Null))
            }
            "redirect" => {
                let url = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                self.redirect = Some(url);
                Some(Ok(SVal::Null))
            }
            "http_status" => {
                if let Some(code) = args.first().and_then(|v| v.as_int()) {
                    self.status = code as u16;
                }
                Some(Ok(SVal::Null))
            }
            "db_query" => {
                let sql = args
                    .first()
                    .map(|v| v.to_display_string())
                    .unwrap_or_default();
                Some(self.handle_query(&sql))
            }
            "time" | "rand" | "session_start" => Some(Ok(self.handle_nondet(name, args))),
            _ => None,
        }
    }

    fn load_include(&mut self, filename: &str) -> Option<ScriptResult<Arc<Program>>> {
        let program = self.sources.program_at(filename, self.action_time)?;
        if !self.loaded_files.iter().any(|f| f == filename) {
            self.loaded_files.push(filename.to_string());
        }
        Some(program.clone())
    }
}

fn sql_to_script(v: DVal) -> SVal {
    match v {
        DVal::Null => SVal::Null,
        DVal::Bool(b) => SVal::Bool(b),
        DVal::Int(i) => SVal::Int(i),
        DVal::Float(f) => SVal::Float(f),
        DVal::Text(s) => SVal::Str(s),
    }
}

/// SplitMix64 step, used for deterministic "randomness".
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_ttdb::TableAnnotation;

    fn test_db() -> TimeTravelDb {
        let mut db = TimeTravelDb::new();
        db.create_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        )
        .unwrap();
        db
    }

    fn normal_run(
        db: &mut TimeTravelDb,
        clock: &LogicalClock,
        sources: &SourceStore,
        entry: &str,
        request: &HttpRequest,
    ) -> AppRunResult {
        let time = clock.tick();
        let mut rng = 0u64;
        let mut sess = 0u64;
        run_application(AppRunContext {
            request,
            entry_script: entry.to_string(),
            sources,
            action_time: time,
            db: DbAccess::Exclusive(db),
            mode: ExecMode::Normal {
                clock,
                rng_counter: &mut rng,
                session_counter: &mut sess,
            },
        })
    }

    #[test]
    fn echo_params_and_headers() {
        let mut db = test_db();
        let clock = LogicalClock::new();
        let mut sources = SourceStore::new();
        sources.install(
            "index.wasl",
            "header(\"X-App\", \"wiki\"); set_cookie(\"seen\", \"1\"); \
             echo(\"<p>\" . param(\"q\") . \"</p>\");",
        );
        let req = HttpRequest::get("/index.wasl?q=hello");
        let out = normal_run(&mut db, &clock, &sources, "index.wasl", &req);
        assert_eq!(out.response.status, 200);
        assert_eq!(out.response.body, "<p>hello</p>");
        assert_eq!(out.response.header("X-App"), Some("wiki"));
        assert_eq!(out.response.set_cookies, vec!["seen=1".to_string()]);
        assert!(out.script_error.is_none());
    }

    #[test]
    fn db_queries_are_recorded_with_dependencies() {
        let mut db = test_db();
        let clock = LogicalClock::new();
        let mut sources = SourceStore::new();
        sources.install(
            "edit.wasl",
            "db_query(\"INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'hi')\"); \
             let rows = db_query(\"SELECT body FROM page WHERE title = 'Main'\"); \
             echo(rows[0][\"body\"]);",
        );
        let req = HttpRequest::get("/edit.wasl");
        let out = normal_run(&mut db, &clock, &sources, "edit.wasl", &req);
        assert_eq!(out.response.body, "hi");
        assert_eq!(out.queries.len(), 2);
        assert!(out.queries[0].is_write);
        assert!(!out.queries[1].is_write);
        assert_eq!(
            out.queries[0].written_row_ids(),
            vec![warp_sql::Value::Int(1)]
        );
        assert!(out.queries[0].time < out.queries[1].time);
    }

    #[test]
    fn includes_are_tracked_as_loaded_files() {
        let mut db = test_db();
        let clock = LogicalClock::new();
        let mut sources = SourceStore::new();
        sources.install("common.wasl", "fn wrap(x) { return \"[\" . x . \"]\"; }");
        sources.install("view.wasl", "include \"common.wasl\"; echo(wrap(\"ok\"));");
        let req = HttpRequest::get("/view.wasl");
        let out = normal_run(&mut db, &clock, &sources, "view.wasl", &req);
        assert_eq!(out.response.body, "[ok]");
        assert_eq!(
            out.loaded_files,
            vec!["view.wasl".to_string(), "common.wasl".to_string()]
        );
    }

    #[test]
    fn missing_script_is_404_and_script_error_is_500() {
        let mut db = test_db();
        let clock = LogicalClock::new();
        let sources = SourceStore::new();
        let req = HttpRequest::get("/nope.wasl");
        let out = normal_run(&mut db, &clock, &sources, "nope.wasl", &req);
        assert_eq!(out.response.status, 404);
        let mut sources = SourceStore::new();
        sources.install("bad.wasl", "this is not valid wasl");
        let out = normal_run(&mut db, &clock, &sources, "bad.wasl", &req);
        assert_eq!(out.response.status, 500);
        assert!(out.script_error.is_some());
    }

    #[test]
    fn nondeterminism_is_recorded_and_replayed() {
        let mut db = test_db();
        let clock = LogicalClock::new();
        let mut sources = SourceStore::new();
        sources.install(
            "r.wasl",
            "echo(rand() . \",\" . rand() . \",\" . session_start());",
        );
        let req = HttpRequest::get("/r.wasl");
        let original = normal_run(&mut db, &clock, &sources, "r.wasl", &req);
        assert_eq!(original.nondet.len(), 3);
        // Build an action record and re-execute it in repair mode; the output
        // must be identical because the recorded values are replayed.
        let action = ActionRecord {
            id: 0,
            time: 1,
            request: req.clone(),
            response: original.response.clone(),
            client: None,
            entry_script: "r.wasl".into(),
            loaded_files: original.loaded_files.clone(),
            queries: original.queries.clone(),
            nondet: original.nondet.clone(),
            cancelled: false,
        };
        let mut session = RepairSession::begin(&mut db);
        let repaired = run_application(AppRunContext {
            request: &req,
            entry_script: "r.wasl".to_string(),
            sources: &sources,
            action_time: 1,
            db: DbAccess::Exclusive(&mut db),
            mode: ExecMode::Repair {
                session: &mut session,
                original: Some(&action),
            },
        });
        assert_eq!(repaired.response.body, original.response.body);
    }

    #[test]
    fn redirect_and_status() {
        let mut db = test_db();
        let clock = LogicalClock::new();
        let mut sources = SourceStore::new();
        sources.install("go.wasl", "redirect(\"/index.wasl\");");
        sources.install("forbidden.wasl", "http_status(403); echo(\"no\");");
        let req = HttpRequest::get("/go.wasl");
        let out = normal_run(&mut db, &clock, &sources, "go.wasl", &req);
        assert_eq!(out.response.status, 302);
        assert_eq!(out.response.redirect_location(), Some("/index.wasl"));
        let out = normal_run(&mut db, &clock, &sources, "forbidden.wasl", &req);
        assert_eq!(out.response.status, 403);
    }

    #[test]
    fn repair_write_matching_rolls_back_original_rows() {
        let mut db = test_db();
        let clock = LogicalClock::new();
        let mut sources = SourceStore::new();
        // The vulnerable script stores the raw parameter; the patched one
        // sanitises it.
        sources.install(
            "save.wasl",
            "db_query(\"UPDATE page SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE title = 'Main'\"); echo(\"saved\");",
        );
        db.execute_logged(
            "INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'clean')",
            clock.tick(),
        )
        .unwrap();
        let req = HttpRequest::post("/save.wasl", [("body", "<script>evil</script>")]);
        let original = normal_run(&mut db, &clock, &sources, "save.wasl", &req);
        assert!(original.queries[0].is_write);
        // Retroactively "patch" by changing what gets stored, then re-execute.
        sources.update(
            "save.wasl",
            "db_query(\"UPDATE page SET body = '\" . sql_escape(htmlspecialchars(param(\"body\"))) . \"' WHERE title = 'Main'\"); echo(\"saved\");",
            0,
        );
        let action = ActionRecord {
            id: 0,
            time: original.queries[0].time - 1,
            request: req.clone(),
            response: original.response.clone(),
            client: None,
            entry_script: "save.wasl".into(),
            loaded_files: original.loaded_files.clone(),
            queries: original.queries.clone(),
            nondet: original.nondet.clone(),
            cancelled: false,
        };
        let mut session = RepairSession::begin(&mut db);
        let repaired = run_application(AppRunContext {
            request: &req,
            entry_script: "save.wasl".to_string(),
            sources: &sources,
            action_time: action.time,
            db: DbAccess::Exclusive(&mut db),
            mode: ExecMode::Repair {
                session: &mut session,
                original: Some(&action),
            },
        });
        // The differently-texted UPDATE still matched the original write.
        assert_eq!(repaired.used_original_queries, vec![true]);
        session.finalize(&mut db);
        let body = db
            .execute_logged("SELECT body FROM page WHERE title = 'Main'", 1000)
            .unwrap();
        assert!(body.result.rows[0][0]
            .as_display_string()
            .contains("&lt;script&gt;"));
    }
}
