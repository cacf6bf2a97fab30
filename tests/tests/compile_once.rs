//! Compile once: the program a source version parses to is a derived
//! property of that version — built when the version is created, rebuilt
//! after a checkpoint restore, never a behaviour. A server that runs the
//! compiled programs must be indistinguishable from one that parses the
//! text of every entry script and include on every request: responses,
//! loaded files, recorded queries and nondeterminism, and the step at which
//! a budget trips.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use warp_apps::blog::{blog_app, BlogBug};
use warp_apps::gallery::{gallery_app, GalleryBug};
use warp_apps::wiki::wiki_app;
use warp_core::apphost::{run_application, AppRunContext, DbAccess, ExecMode};
use warp_core::clock::LogicalClock;
use warp_core::{
    AppConfig, ConflictKind, MemoryBackend, NondetRecord, Patch, RepairRequest, ServerConfig,
    SourceStore, WarpServer,
};
use warp_http::{generate_session_id, HttpRequest, HttpResponse, Router};
use warp_script::interp::Limits;
use warp_script::{
    parse_program, Host, Interpreter, Program, ScriptError, ScriptResult, Value as SVal,
};
use warp_sql::Value as DVal;
use warp_ttdb::{RepairSession, TimeTravelDb};

// ---------------------------------------------------------------------------
// The reference: an application host that parses text afresh
// ---------------------------------------------------------------------------

/// How the reference resolves the entry script and its includes.
#[derive(Debug, Clone, Copy)]
enum Scripts {
    /// Parse the version's text on every load — what the server did before
    /// programs were compiled per version.
    ParsedAfresh,
    /// The store's compiled program of the version.
    Compiled,
}

/// What one request produced, in the terms an action record keeps.
#[derive(Debug, PartialEq)]
struct Served {
    response: HttpResponse,
    loaded_files: Vec<String>,
    /// `(sql, time, result fingerprint, is_write)` per query.
    queries: Vec<(String, i64, u64, bool)>,
    nondet: Vec<NondetRecord>,
}

/// A sequential, in-memory model of the server's normal execution, written
/// against the public interfaces of the layers below it.
struct Reference {
    sources: SourceStore,
    router: Router,
    db: TimeTravelDb,
    clock: LogicalClock,
    rng: u64,
    sessions: u64,
}

impl Reference {
    fn new(config: &AppConfig) -> Self {
        let mut sources = SourceStore::new();
        for (name, content) in &config.sources {
            sources.install(name.clone(), content.clone());
        }
        let mut db = TimeTravelDb::new();
        let clock = LogicalClock::new();
        for (create_sql, annotation) in &config.tables {
            db.create_table(create_sql, annotation.clone()).unwrap();
        }
        for sql in &config.seed_sql {
            db.execute_logged(sql, clock.tick()).unwrap();
        }
        Reference {
            sources,
            router: config.router.clone(),
            db,
            clock,
            rng: 0,
            sessions: 0,
        }
    }

    fn handle(&mut self, request: &HttpRequest, scripts: Scripts, limits: Limits) -> Served {
        let time = self.clock.tick();
        let Some(entry) = self.router.resolve(&request.path) else {
            return Served {
                response: HttpResponse::not_found(format!("no route for {}", request.path)),
                loaded_files: Vec::new(),
                queries: Vec::new(),
                nondet: Vec::new(),
            };
        };
        let sources = &self.sources;
        let mut host = ReferenceHost {
            request,
            sources,
            scripts,
            time,
            db: &mut self.db,
            clock: &self.clock,
            rng: &mut self.rng,
            sessions: &mut self.sessions,
            output: String::new(),
            headers: Vec::new(),
            set_cookies: Vec::new(),
            status: 200,
            redirect: None,
            loaded_files: vec![entry.clone()],
            queries: Vec::new(),
            nondet: Vec::new(),
        };
        let mut interpreter = Interpreter::with_limits(limits);
        let run = match scripts {
            Scripts::ParsedAfresh => match sources.content_at(&entry, time) {
                Some(text) => interpreter.eval_program(text, &mut host),
                None => return host.finish_missing(&entry),
            },
            Scripts::Compiled => match sources.program_at(&entry, time) {
                Some(Ok(program)) => interpreter.run_program(program, &mut host, BTreeMap::new()),
                Some(Err(e)) => Err(e.clone()),
                None => return host.finish_missing(&entry),
            },
        };
        host.finish(run)
    }
}

struct ReferenceHost<'a> {
    request: &'a HttpRequest,
    sources: &'a SourceStore,
    scripts: Scripts,
    time: i64,
    db: &'a mut TimeTravelDb,
    clock: &'a LogicalClock,
    rng: &'a mut u64,
    sessions: &'a mut u64,
    output: String,
    headers: Vec<(String, String)>,
    set_cookies: Vec<String>,
    status: u16,
    redirect: Option<String>,
    loaded_files: Vec<String>,
    queries: Vec<(String, i64, u64, bool)>,
    nondet: Vec<NondetRecord>,
}

impl ReferenceHost<'_> {
    fn finish_missing(self, entry: &str) -> Served {
        Served {
            response: HttpResponse::not_found(format!("no such script: {entry}")),
            loaded_files: self.loaded_files,
            queries: Vec::new(),
            nondet: Vec::new(),
        }
    }

    fn finish(self, run: ScriptResult<SVal>) -> Served {
        let mut response = match (run, self.redirect) {
            (Err(e), _) => HttpResponse::server_error(format!("application error: {e}")),
            (Ok(_), Some(location)) => HttpResponse::redirect(location),
            (Ok(_), None) => {
                let mut r = HttpResponse::ok(self.output);
                r.status = self.status;
                r
            }
        };
        for (name, value) in self.headers {
            response.headers.insert(name, value);
        }
        response.set_cookies.extend(self.set_cookies);
        Served {
            response,
            loaded_files: self.loaded_files,
            queries: self.queries,
            nondet: self.nondet,
        }
    }

    fn query(&mut self, sql: &str) -> ScriptResult<SVal> {
        let stmt = warp_sql::parse(sql)
            .map_err(|e| ScriptError::Host(format!("SQL error in `{sql}`: {e}")))?;
        let time = self.clock.tick();
        let gen = self.db.current_generation();
        let out = self
            .db
            .execute_stmt_logged(&stmt, time, gen)
            .map_err(|e| ScriptError::Host(format!("database error: {e}")))?;
        self.queries.push((
            sql.to_string(),
            time,
            out.result.fingerprint(),
            stmt.is_write(),
        ));
        if stmt.is_write() {
            return Ok(SVal::Int(out.result.affected as i64));
        }
        let rows = out.result.rows.iter().map(|row| {
            let cells = out.result.columns.iter().zip(row).map(|(col, cell)| {
                let cell = match cell {
                    DVal::Null => SVal::Null,
                    DVal::Bool(b) => SVal::Bool(*b),
                    DVal::Int(i) => SVal::Int(*i),
                    DVal::Float(f) => SVal::Float(*f),
                    DVal::Text(s) => SVal::Str(s.clone()),
                };
                (col.clone(), cell)
            });
            SVal::Map(cells.collect())
        });
        Ok(SVal::Array(rows.collect()))
    }

    fn nondeterministic(&mut self, func: &str, args: &[SVal]) -> SVal {
        let result = match func {
            "time" => SVal::Int(self.clock.now()),
            "rand" => {
                *self.rng += 1;
                SVal::Int(splitmix64(*self.rng) as i64 & 0x7fff_ffff)
            }
            _ => {
                *self.sessions += 1;
                SVal::str(generate_session_id(*self.sessions))
            }
        };
        self.nondet.push(NondetRecord {
            func: func.to_string(),
            args: args.to_vec(),
            result: result.clone(),
        });
        result
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Host for ReferenceHost<'_> {
    fn call_host(&mut self, name: &str, args: &[SVal]) -> Option<ScriptResult<SVal>> {
        let arg = |i: usize| {
            args.get(i)
                .map(|v| v.to_display_string())
                .unwrap_or_default()
        };
        let value = match name {
            "echo" | "print" => {
                for a in args {
                    self.output.push_str(&a.to_display_string());
                }
                SVal::Null
            }
            "param" => self.request.param(&arg(0)).map_or(SVal::Null, SVal::str),
            "has_param" => SVal::Bool(self.request.param(&arg(0)).is_some()),
            "request_method" => SVal::str(self.request.method.as_str()),
            "request_path" => SVal::str(self.request.path.clone()),
            "cookie" => self
                .request
                .cookies
                .get(&arg(0))
                .map_or(SVal::Null, SVal::str),
            "set_cookie" => {
                self.set_cookies.push(format!("{}={}", arg(0), arg(1)));
                SVal::Null
            }
            "clear_cookie" => {
                self.set_cookies.push(format!("{}=", arg(0)));
                SVal::Null
            }
            "header" => {
                self.headers.push((arg(0), arg(1)));
                SVal::Null
            }
            "redirect" => {
                self.redirect = Some(arg(0));
                SVal::Null
            }
            "http_status" => {
                if let Some(code) = args.first().and_then(|v| v.as_int()) {
                    self.status = code as u16;
                }
                SVal::Null
            }
            "db_query" => return Some(self.query(&arg(0))),
            "time" | "rand" | "session_start" => self.nondeterministic(name, args),
            _ => return None,
        };
        Some(Ok(value))
    }

    fn load_include(&mut self, filename: &str) -> Option<ScriptResult<Arc<Program>>> {
        let program = match self.scripts {
            Scripts::ParsedAfresh => {
                parse_program(self.sources.content_at(filename, self.time)?).map(Arc::new)
            }
            Scripts::Compiled => self.sources.program_at(filename, self.time)?.clone(),
        };
        if !self.loaded_files.iter().any(|f| f == filename) {
            self.loaded_files.push(filename.to_string());
        }
        Some(program)
    }
}

/// What the server recorded for the request it served last.
fn last_served(server: &WarpServer, response: HttpResponse) -> Served {
    let action = server.history.actions().last().expect("an action");
    assert_eq!(action.response, response);
    Served {
        response,
        loaded_files: action.loaded_files.clone(),
        queries: action
            .queries
            .iter()
            .map(|q| (q.sql.clone(), q.time, q.result_fingerprint, q.is_write))
            .collect(),
        nondet: action.nondet.clone(),
    }
}

// ---------------------------------------------------------------------------
// Request generators
// ---------------------------------------------------------------------------

const USERS: u32 = 3;
const PAGES: u32 = 4;

/// Text that exercises escaping, the injection holes and SQL errors.
fn text(n: u32) -> String {
    let samples = [
        "plain words",
        "<script>alert(1)</script>",
        "it's quoted",
        "x' OR '1'='1",
        "%",
        "",
        "a \"double\" & <b>",
        "'; DROP TABLE page; --",
    ];
    format!("{} {n}", samples[n as usize % samples.len()])
}

/// One wiki request from two generator values; `sid` is the session cookie
/// of the last successful login, if any.
fn wiki_request(op: u32, n: u32, sid: Option<&str>) -> HttpRequest {
    let title = match n % (PAGES + 3) {
        0 => "Public".to_string(),
        p if p <= PAGES => format!("Page{p}"),
        _ => format!("Fresh{}", n % 5),
    };
    let user = 1 + n % USERS;
    let mut request = match op % 12 {
        0..=3 => HttpRequest::get(&format!("/view.wasl?title={title}")),
        4 | 5 => HttpRequest::post(
            "/edit.wasl",
            [("title", title.as_str()), ("body", text(n).as_str())],
        ),
        6 => HttpRequest::get("/login.wasl"),
        7 => HttpRequest::post(
            "/login.wasl",
            [
                ("user", format!("user{user}").as_str()),
                // Every fourth attempt has the wrong password.
                (
                    "password",
                    format!("pw{}", user + u32::from(n.is_multiple_of(4))).as_str(),
                ),
            ],
        ),
        8 => HttpRequest::post("/search.wasl", [("q", text(n).as_str())]),
        9 => HttpRequest::post("/calendar.wasl", [("date", text(n).as_str())]),
        10 => HttpRequest::post(
            "/acl.wasl",
            [
                ("title", title.as_str()),
                ("user", format!("user{user}").as_str()),
            ],
        ),
        _ => match n % 3 {
            0 => HttpRequest::post(
                "/maintenance.wasl",
                [("newbody", text(n).as_str()), ("thelang", title.as_str())],
            ),
            1 => HttpRequest::get("/no-such-route"),
            _ => HttpRequest::get("/evil/lure.wasl"),
        },
    };
    if let Some(sid) = sid {
        request.cookies.set("sid", sid);
    }
    request
}

fn blog_request(op: u32, n: u32) -> HttpRequest {
    let post = (1 + n % 4).to_string();
    match op % 4 {
        0 | 1 => HttpRequest::get(&format!("/read.wasl?post={post}")),
        2 => HttpRequest::post("/vote.wasl", [("post", post.as_str())]),
        _ => HttpRequest::post(
            "/comment.wasl",
            [("post", post.as_str()), ("body", text(n).as_str())],
        ),
    }
}

fn gallery_request(op: u32, n: u32, i: usize) -> HttpRequest {
    match op % 4 {
        0 | 1 => HttpRequest::get(&format!("/album.wasl?album={}", 1 + n % 2)),
        2 => HttpRequest::post(
            "/perm.wasl",
            [
                ("album", (1 + n % 2).to_string().as_str()),
                ("user", text(n).as_str()),
                ("perm_id", (100 + i).to_string().as_str()),
            ],
        ),
        _ => HttpRequest::post(
            "/resize.wasl",
            [("photo", (1 + n % 4).to_string().as_str())],
        ),
    }
}

/// Serves `requests(i, sid)` one after another on a [`WarpServer`] and on
/// the parse-afresh reference, and demands the same record of each.
fn assert_server_matches_reference(
    config: AppConfig,
    count: usize,
    request: impl Fn(usize, Option<&str>) -> HttpRequest,
) {
    let mut reference = Reference::new(&config);
    let mut server = WarpServer::new(config);
    let mut sid: Option<String> = None;
    for i in 0..count {
        let request = request(i, sid.as_deref());
        let expected = reference.handle(&request, Scripts::ParsedAfresh, Limits::default());
        let response = server.handle(request);
        if let Some(cookie) = response
            .set_cookies
            .iter()
            .find_map(|c| c.strip_prefix("sid="))
        {
            sid = Some(cookie.to_string());
        }
        assert_eq!(last_served(&server, response), expected, "request {i}");
    }
    assert_eq!(
        server.db.canonical_dump(),
        reference.db.canonical_dump(),
        "databases diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (d) Every response, loaded-file list, query text/time/result and
    /// nondeterminism record of the three applications equals the
    /// reference's, which parses every script it loads from text.
    #[test]
    fn serving_compiled_programs_equals_parsing_afresh(
        ops in proptest::collection::vec((0u32..1000, 0u32..1000), 1..40),
    ) {
        assert_server_matches_reference(wiki_app(USERS as usize, PAGES as usize), ops.len(), |i, sid| {
            wiki_request(ops[i].0, ops[i].1, sid)
        });
        assert_server_matches_reference(blog_app(BlogBug::LostComments, 4), ops.len(), |i, _| {
            blog_request(ops[i].0, ops[i].1)
        });
        assert_server_matches_reference(
            gallery_app(GalleryBug::RemovingPermissions, 4),
            ops.len(),
            |i, _| gallery_request(ops[i].0, ops[i].1, i),
        );
    }

    /// (d, budgets) Under a step budget small enough to trip inside the
    /// entry script, inside `common.wasl` or inside a function it defines,
    /// running compiled programs and parsing afresh stop at the same step:
    /// the same error, after the same queries and nondeterminism.
    #[test]
    fn step_budgets_trip_at_the_same_step(
        ops in proptest::collection::vec((0u32..1000, 0u32..1000, 1u64..260), 1..24),
    ) {
        let config = wiki_app(USERS as usize, PAGES as usize);
        let mut afresh = Reference::new(&config);
        let mut compiled = Reference::new(&config);
        let mut tripped = 0;
        for &(op, n, max_steps) in &ops {
            let request = wiki_request(op, n, None);
            let limits = Limits { max_steps, ..Limits::default() };
            let expected = afresh.handle(&request, Scripts::ParsedAfresh, limits);
            tripped += usize::from(expected.response.body.contains("budget exceeded"));
            prop_assert_eq!(compiled.handle(&request, Scripts::Compiled, limits), expected);
        }
        // The interesting range is covered: budgets do trip, and not always.
        prop_assert!(ops.len() < 8 || tripped > 0);
    }
}

// ---------------------------------------------------------------------------
// (b) Checkpoint, recovery
// ---------------------------------------------------------------------------

#[test]
fn exported_versions_import_with_their_programs_rebuilt() {
    let mut store = SourceStore::new();
    store.install("a.wasl", "echo(1);");
    store.update("a.wasl", "echo(2);", 10);
    store.apply_retroactive_patch(&Patch::new("a.wasl", "this does not parse", "broken"), 20);
    let imported = SourceStore::import_versions(store.export_versions());
    // Equality and export see text only.
    assert_eq!(imported, store);
    assert_eq!(imported.export_versions(), store.export_versions());
    for time in [0, 10, 20] {
        let (ours, theirs) = (
            store.program_at("a.wasl", time).unwrap(),
            imported.program_at("a.wasl", time).unwrap(),
        );
        assert_eq!(ours, theirs);
        if let (Ok(ours), Ok(theirs)) = (ours, theirs) {
            assert!(!Arc::ptr_eq(ours, theirs), "compiled again, not shared");
        }
    }
    assert!(imported.program_at("a.wasl", 20).unwrap().is_err());
}

#[test]
fn a_server_recovered_from_a_checkpoint_serves_identical_responses() {
    let requests =
        |from: usize| (from..from + 30).map(|i| wiki_request(i as u32 * 7, i as u32 * 13, None));
    let open = |backend: &MemoryBackend| {
        let config = ServerConfig::new(wiki_app(USERS as usize, PAGES as usize))
            .with_backend(Box::new(backend.clone()));
        WarpServer::open(config).expect("open persistent wiki").0
    };
    let backend = MemoryBackend::new();
    let mut original = open(&backend);
    for request in requests(0) {
        original.handle(request);
    }
    // A code change, then a checkpoint: recovery restores the source
    // versions from it (text only) and compiles them again.
    let now = original.clock.now();
    original.sources.update(
        "calendar.wasl",
        "include \"common.wasl\"; echo(\"v2\");",
        now,
    );
    original.checkpoint();
    for request in requests(30) {
        original.handle(request);
    }
    let mut uninterrupted = WarpServer::new(wiki_app(USERS as usize, PAGES as usize));
    uninterrupted.sources = original.sources.clone();
    for action in original.history.actions().to_vec() {
        uninterrupted.handle(action.request);
    }
    drop(original); // crash

    let mut recovered = open(&backend);
    assert_eq!(recovered.sources, uninterrupted.sources);
    for request in requests(60).chain([HttpRequest::get("/calendar.wasl?date=x")]) {
        let expected = uninterrupted.handle(request.clone());
        assert_eq!(recovered.handle(request), expected);
    }
    assert!(recovered
        .handle(HttpRequest::get("/calendar.wasl"))
        .body
        .ends_with("v2"));
}

// ---------------------------------------------------------------------------
// (c) A patch that does not parse
// ---------------------------------------------------------------------------

const BROKEN: &str = "include \"common.wasl\"; let = ;";

/// The 500 body a request gets when it loads `BROKEN`: the parser's error,
/// raised when the script is loaded.
fn broken_body() -> String {
    let error = parse_program(BROKEN).unwrap_err();
    assert_eq!(
        error.to_string(),
        "parse error: expected identifier, found Sym(\"=\")"
    );
    format!("application error: {error}")
}

#[test]
fn a_broken_script_installs_and_fails_each_request_that_loads_it() {
    let mut server = WarpServer::new(wiki_app(1, 1));
    let view = HttpRequest::get("/view.wasl?title=Page1");
    assert_eq!(server.handle(view.clone()).status, 200);
    // As the entry script, from the time of the update on.
    let now = server.clock.now();
    server.sources.update("view.wasl", BROKEN, now);
    let response = server.handle(view.clone());
    assert_eq!((response.status, response.body), (500, broken_body()));
    let action = server.history.actions().last().unwrap();
    assert_eq!(action.loaded_files, ["view.wasl"]);
    // As an include: the file is loaded (and recorded) before it fails.
    let now = server.clock.now();
    server
        .sources
        .update("view.wasl", "include \"common.wasl\"; echo(1);", now);
    server.sources.update("common.wasl", "fn broken( {", now);
    let response = server.handle(view);
    assert_eq!(response.status, 500);
    assert_eq!(
        response.body,
        format!(
            "application error: {}",
            parse_program("fn broken( {").unwrap_err()
        )
    );
    let action = server.history.actions().last().unwrap();
    assert_eq!(action.loaded_files, ["view.wasl", "common.wasl"]);
    // Other entry scripts never loaded the broken version of view.wasl.
    assert_eq!(
        server.handle(HttpRequest::get("/evil/lure.wasl")).status,
        200
    );
}

#[test]
fn a_broken_patch_applies_and_fails_reexecution_with_the_same_error() {
    let mut server = WarpServer::new(wiki_app(1, 2));
    let views: Vec<HttpRequest> = (1..=2)
        .map(|p| HttpRequest::get(&format!("/view.wasl?title=Page{p}")))
        .collect();
    for view in &views {
        assert_eq!(server.handle(view.clone()).status, 200);
    }
    server.handle(HttpRequest::get("/calendar.wasl?date=today"));
    let original = server.history.actions()[0].clone();
    let error = parse_program(BROKEN).unwrap_err().to_string();

    // One re-execution by hand, to see the response repair computes.
    let mut sources = server.sources.clone();
    sources.apply_retroactive_patch(&Patch::new("view.wasl", BROKEN, "broken"), 0);
    let mut db = server.db.clone();
    let mut session = RepairSession::begin(&mut db);
    let rerun = run_application(AppRunContext {
        request: &original.request,
        entry_script: "view.wasl".to_string(),
        sources: &sources,
        action_time: original.time,
        db: DbAccess::Exclusive(&mut db),
        mode: ExecMode::Repair {
            session: &mut session,
            original: Some(&original),
        },
    });
    assert_eq!(
        (rerun.response.status, rerun.response.body),
        (500, broken_body())
    );
    assert_eq!(rerun.script_error.as_deref(), Some(error.as_str()));
    assert_eq!(rerun.loaded_files, ["view.wasl"]);

    // The repair itself: applying the patch is not an error; each action
    // that loaded the file re-executes and reports the parse error.
    let outcome = server.repair(RepairRequest::RetroactivePatch {
        patch: Patch::new("view.wasl", BROKEN, "broken"),
        from_time: 0,
    });
    assert_eq!(outcome.reexecuted_actions, [0, 1]);
    let failures: Vec<&ConflictKind> = outcome.conflicts.iter().map(|c| &c.kind).collect();
    assert_eq!(
        failures,
        [&ConflictKind::ReexecutionFailed(error.clone()); 2]
    );
    // Going forward the patched file is the current code.
    let response = server.handle(views[0].clone());
    assert_eq!((response.status, response.body), (500, broken_body()));
}
