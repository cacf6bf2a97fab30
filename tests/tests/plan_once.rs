//! Plan once: the plan a statement is executed through is a derived
//! property of its *shape* — built the first time a text of that shape
//! arrives, shared by every later one, dropped at garbage collection,
//! never a behaviour. A database that executes query text through shared
//! plans must be indistinguishable from one that parses every text afresh:
//! results, errors, dependency records, stored rows and change capture.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use warp_apps::blog::{blog_app, BlogBug};
use warp_apps::gallery::{gallery_app, GalleryBug};
use warp_apps::scenario::{run_scenario_on, ScenarioConfig};
use warp_apps::wiki::wiki_app;
use warp_apps::workload::{run_background_workload, WorkloadConfig};
use warp_apps::AttackKind;
use warp_core::sites::sites;
use warp_core::{
    site_template, ActionRecord, AppConfig, Durability, MemoryBackend, ServerConfig, StoreOptions,
    Warp, WarpServer,
};
use warp_http::HttpRequest;
use warp_replica::{channel_pair, LogShipper, Standby};
use warp_sql::{SqlError, SqlResult};
use warp_ttdb::{LoggedExecution, Plan, RowScope, TableAnnotation, TimeTravelDb};

// ---------------------------------------------------------------------------
// (a) Planned execution ≡ parsing every text afresh
// ---------------------------------------------------------------------------

/// Literals compared against (and stored into) the Integer column `k` and
/// the Text column `name`: every literal kind the tokenizer knows and the
/// keyword literals it leaves in the shape.
const LITERALS: [&str; 12] = [
    "0", "1", "2", "3", "1.0", "2.5", "TRUE", "FALSE", "NULL", "'1'", "'a'", "'it''s'",
];

fn lit(n: usize) -> &'static str {
    LITERALS[n % LITERALS.len()]
}

/// What inserts store: few distinct values, so rows share partitions.
fn stored(n: usize) -> &'static str {
    ["0", "1", "'a'", "NULL", "1.0", "'1'", "2", "'it''s'"][n % 8]
}

/// One statement of the random history, after the generator of
/// `indexed_vs_scan.rs`: tiny domains, so shapes repeat with different
/// literals, keys collide, and statements fail now and then. `t` has a
/// natural row ID and two partition columns; `log` a synthetic row ID.
fn statement(op: usize, a: usize, b: usize) -> String {
    let (id, n) = (a % 10, b % 4);
    match op % 30 {
        0..=3 => format!(
            "INSERT INTO t (id, k, name, n) VALUES ({id}, {}, {}, {n})",
            stored(b),
            stored(a + b / 8)
        ),
        4 => format!(
            "INSERT INTO t (id, k, name, n) VALUES ({id}, {k}, 'a', 1), ({}, {k}, {}, 2)",
            (id + 1 + n / 3) % 10,
            ["'a'", "'b'"][b % 2],
            k = stored(b)
        ),
        5 => format!("SELECT * FROM t WHERE k = {}", lit(a)),
        6 => format!("SELECT * FROM t WHERE name = {}", lit(a)),
        7 => format!(
            "SELECT id, name FROM t WHERE k = {} AND name = {} AND n >= {n}",
            lit(a),
            lit(b)
        ),
        8 => format!("SELECT * FROM t WHERE k = {} OR name = {}", lit(a), lit(b)),
        9 => format!(
            "SELECT id FROM t WHERE name LIKE '{}%' AND k = {}",
            ["a", "", "1"][a % 3],
            lit(b)
        ),
        10 => format!(
            "SELECT name, n FROM t WHERE k = {} ORDER BY n DESC, id LIMIT {}",
            lit(a),
            1 + b % 3
        ),
        11 => format!(
            "SELECT COUNT(*), MAX(n), MIN(name), SUM(n) FROM t WHERE name = {}",
            lit(a)
        ),
        12 => format!("SELECT * FROM t WHERE id = {id} AND k IS NULL"),
        13 => format!("SELECT id FROM t WHERE k = {} AND 6 / n > 1", lit(a)),
        14 => format!("DELETE FROM t WHERE id = {id} AND 6 / n > {n}"),
        15 => format!("UPDATE t SET n = 6 / n WHERE k = {}", lit(a)),
        16 => format!("UPDATE t SET n = n + {n} WHERE k = {}", lit(a)),
        17 => format!("UPDATE t SET k = {} WHERE name = {}", lit(a), lit(b)),
        18 => format!(
            "UPDATE t SET name = {} WHERE id = {}",
            lit(b),
            (id + n) % 10
        ),
        19 => format!("DELETE FROM t WHERE k = {}", lit(a)),
        20 => format!("DELETE FROM t WHERE name = {} AND n < {n}", lit(a)),
        // The literal is the projected column's name.
        21 => format!("SELECT n + {n}, name || {} FROM t WHERE id = {id}", lit(a)),
        22 => format!(
            "SELECT id FROM t WHERE k IN ({}, {}) AND n NOT IN ({n}, -{id})",
            lit(a),
            lit(b)
        ),
        23 => format!(
            "INSERT INTO log (msg, n) VALUES ({}, {n}), ('second', -{id})",
            stored(a)
        ),
        24 => format!("UPDATE log SET n = n + 1 WHERE msg = {}", lit(a)),
        25 => format!("DELETE FROM log WHERE n = {n}"),
        26 => "SELECT msg, n FROM log ORDER BY n, msg".to_string(),
        // Statements that fail before, or instead of, executing.
        27 => [
            "SELECT nope FROM t WHERE k = 1",
            "SELECT id FROM nosuch WHERE k = 1",
            "INSERT INTO t (k, name) VALUES (1, 'no id')",
            "DROP TABLE t",
            "CREATE TABLE u (a INTEGER DEFAULT 1)",
            "SELECT id FROM t WHERE",
            "SELECT id FROM t LIMIT 'x'",
            "SELECT # FROM t",
            "SELECT 'open FROM t",
        ][a % 9]
            .to_string(),
        28 => format!("select Id, NAME from T where K = {}", lit(a)),
        _ => "SELECT * FROM t".to_string(),
    }
}

fn database() -> TimeTravelDb {
    let mut db = TimeTravelDb::new();
    db.create_table(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, name TEXT, n INTEGER, UNIQUE (k, name))",
        TableAnnotation::new().row_id("id").partitions(["k", "name"]),
    )
    .unwrap();
    db.create_table(
        "CREATE TABLE log (msg TEXT, n INTEGER)",
        TableAnnotation::new().partitions(["msg"]),
    )
    .unwrap();
    db.enable_checkpoint_capture();
    db
}

/// The reference: parse the text afresh, plan it for this one execution.
fn execute_afresh(db: &mut TimeTravelDb, sql: &str, time: i64) -> SqlResult<LoggedExecution> {
    let stmt = warp_sql::parse(sql)?;
    let gen = db.current_generation();
    db.execute_stmt_logged(&stmt, time, gen)
}

fn stored_rows(db: &TimeTravelDb) -> String {
    format!(
        "{:?} {:?}",
        db.table_rows_snapshot("t"),
        db.table_rows_snapshot("log")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Planned ≡ parsed afresh, statement by statement. Outcomes are
    /// compared through `Debug`, which tells `Int(1)` from `Float(1.0)`
    /// where `==` would not.
    #[test]
    fn executing_through_shared_plans_equals_parsing_afresh(
        history in proptest::collection::vec((0usize..30, 0usize..40, 0usize..40), 1..70),
        gc_at in 0usize..70,
    ) {
        let mut planned = database();
        let mut afresh = database();
        for (i, &(op, a, b)) in history.iter().enumerate() {
            let sql = statement(op, a, b);
            let time = 10 + i as i64;
            let got = format!("{:?}", planned.execute_logged(&sql, time));
            let want = format!("{:?}", execute_afresh(&mut afresh, &sql, time));
            prop_assert_eq!(got, want, "{}", sql);
            prop_assert_eq!(planned.check_indexes(), Ok(()), "after {}", sql);
            prop_assert_eq!(stored_rows(&planned), stored_rows(&afresh), "after {}", sql);
            prop_assert_eq!(afresh.planned_shapes(), 0);
            if i == gc_at {
                // Dropping the plans mid-history changes nothing.
                prop_assert_eq!(planned.garbage_collect(0).ok(), afresh.garbage_collect(0).ok());
                prop_assert_eq!(planned.planned_shapes(), 0);
            }
        }
        prop_assert_eq!(
            format!("{:?}", planned.drain_checkpoint_delta()),
            format!("{:?}", afresh.drain_checkpoint_delta())
        );
        prop_assert_eq!(planned.canonical_dump(), afresh.canonical_dump());
    }
}

// ---------------------------------------------------------------------------
// (b) Shape boundaries
// ---------------------------------------------------------------------------

fn page_db() -> TimeTravelDb {
    let mut db = TimeTravelDb::new();
    db.create_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT, views INTEGER, score REAL)",
        TableAnnotation::new().row_id("page_id").partitions(["title"]),
    )
    .unwrap();
    db.execute_logged(
        "INSERT INTO page (page_id, title, body, views, score) VALUES \
         (1, 'Main', 'welcome', 3, 0.5), (2, 'it''s', 'quoted', -2, 2.0), (3, '2', 'numeric', 2, 2.5)",
        5,
    )
    .unwrap();
    db
}

/// The text's result through the shared plan, checked against a fresh
/// parse of it; returns the plan it ran through.
fn checked(db: &mut TimeTravelDb, sql: &str) -> (Arc<Plan>, String) {
    let mut twin = db.clone();
    let plan = db.plan(sql).expect("parses").plan().clone();
    let got = format!("{:?}", db.execute_logged(sql, 50));
    let want = format!("{:?}", execute_afresh(&mut twin, sql, 50));
    assert_eq!(got, want, "{sql}");
    (plan, got)
}

#[test]
fn texts_that_differ_only_in_literals_share_one_plan_and_read_different_rows() {
    let mut db = page_db();
    let (main, main_rows) = checked(&mut db, "SELECT body FROM page WHERE title = 'Main'");
    let (quoted, quoted_rows) = checked(&mut db, "SELECT body FROM page WHERE title = 'it''s'");
    assert!(Arc::ptr_eq(&main, &quoted));
    assert!(main_rows.contains("welcome") && quoted_rows.contains("quoted"));
    assert_eq!(db.planned_shapes(), 2, "the seed INSERT and the SELECT");
    // Layout and comments are not part of the shape.
    let (commented, _) = checked(
        &mut db,
        "SELECT body -- the page's text\n  FROM page\tWHERE title='Main'",
    );
    assert!(Arc::ptr_eq(&main, &commented));
    // The dependency names the partition of *this* text's literal.
    let dep = db
        .execute_logged("SELECT body FROM page WHERE title = 'it''s'", 60)
        .unwrap()
        .dependency;
    assert!(format!("{:?}", dep.read_partitions).contains("it's"));
}

#[test]
fn every_shape_boundary_gets_the_plan_a_fresh_parse_would() {
    let mut db = page_db();
    let mut plans: Vec<Arc<Plan>> = Vec::new();
    // Runs a text whose shape no earlier text had.
    let mut distinct = |db: &mut TimeTravelDb, sql: &str| {
        let (plan, out) = checked(db, sql);
        assert!(
            !plans.iter().any(|p| Arc::ptr_eq(p, &plan)),
            "`{sql}` must not share an earlier text's plan"
        );
        plans.push(plan);
        out
    };
    // Int, float and string holes are different shapes, and the numeric
    // comparison semantics of each survive.
    assert!(distinct(&mut db, "SELECT title FROM page WHERE views = 2").contains("\"2\""));
    assert!(distinct(&mut db, "SELECT title FROM page WHERE views = 2.0").contains("\"2\""));
    distinct(&mut db, "SELECT title FROM page WHERE views = '2'");
    // A negative number is a negated hole.
    assert!(distinct(&mut db, "SELECT title FROM page WHERE views = -2").contains("it's"));
    // IN lists of different lengths.
    distinct(&mut db, "SELECT title FROM page WHERE views IN (2, 3)");
    distinct(&mut db, "SELECT title FROM page WHERE views IN (2, 3, -2)");
    // LIMIT is syntax: its count stays in the shape.
    let one = distinct(&mut db, "SELECT title FROM page ORDER BY page_id LIMIT 1");
    let two = distinct(&mut db, "SELECT title FROM page ORDER BY page_id LIMIT 2");
    assert_ne!(one, two);
    // Identifier case is kept: it names the result's columns.
    let lower = distinct(
        &mut db,
        "SELECT title, views + 1 FROM page WHERE page_id = 1",
    );
    let upper = distinct(
        &mut db,
        "SELECT TITLE, VIEWS + 1 FROM PAGE WHERE PAGE_ID = 1",
    );
    assert!(lower.contains("(views + 1)") && upper.contains("(VIEWS + 1)"));
    // The literal in a projection is part of the column's name.
    let (p1, _) = checked(
        &mut db,
        "SELECT title, views + 1 FROM page WHERE page_id = 2",
    );
    let (p7, seven) = checked(
        &mut db,
        "SELECT title, views + 7 FROM page WHERE page_id = 1",
    );
    assert!(Arc::ptr_eq(&p1, &p7));
    assert!(seven.contains("(views + 7)"));
    // The wiki's injection: a different statement, not a parameter.
    let intended = distinct(&mut db, "SELECT title FROM page WHERE title = 'zzz'");
    let injected = distinct(
        &mut db,
        "SELECT title FROM page WHERE title = 'zzz' OR title LIKE '%'",
    );
    assert!(intended.contains("rows: []"));
    assert!(injected.contains("Main") && injected.contains("it's"));
    assert!(injected.contains("Whole"), "an injected read is unpinned");
    // Writes, too.
    let (u1, _) = checked(
        &mut db,
        "UPDATE page SET body = 'a', views = views + 1 WHERE title = 'Main'",
    );
    let (u2, _) = checked(
        &mut db,
        "UPDATE page SET body = 'b''s', views = views + 10 WHERE title = '2'",
    );
    assert!(Arc::ptr_eq(&u1, &u2));
    let (d1, _) = checked(&mut db, "DELETE FROM page WHERE title = 'Main'");
    let (d2, _) = checked(&mut db, "DELETE FROM page WHERE title = 'nobody'");
    assert!(Arc::ptr_eq(&d1, &d2));
    let (i1, _) = checked(
        &mut db,
        "INSERT INTO page (page_id, title, body) VALUES (10, 'New', 'n')",
    );
    let (i2, _) = checked(
        &mut db,
        "INSERT INTO page (page_id, title, body) VALUES (11, 'Newer', 'm')",
    );
    assert!(Arc::ptr_eq(&i1, &i2));
}

// ---------------------------------------------------------------------------
// (c) Errors: today's strings, nothing poisoned, nothing cached
// ---------------------------------------------------------------------------

fn query_app() -> AppConfig {
    let mut config = AppConfig::new("plan-once");
    config.add_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
        TableAnnotation::new()
            .row_id("page_id")
            .partitions(["title"]),
    );
    config.seed("INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'welcome')");
    config.add_source(
        "q.wasl",
        "let r = db_query(param(\"q\")); echo(\"ok \" . r);",
    );
    config
}

#[test]
fn failing_statements_fail_with_the_same_strings_every_time() {
    const SQL: &str = "application error: host error: SQL error in";
    const DB: &str = "application error: host error: database error:";
    // (text, body, clock ticks: a text that does not parse takes no query time)
    let cases: [(&str, String, i64); 13] = [
        ("SELECT # FROM page", format!("{SQL} `SELECT # FROM page`: lex error: unexpected character: '#'"), 1),
        ("SELECT 'open FROM page", format!("{SQL} `SELECT 'open FROM page`: lex error: unterminated string literal"), 1),
        ("SELECT body FROM page WHERE", format!("{SQL} `SELECT body FROM page WHERE`: parse error: unexpected end of input"), 1),
        ("SELEKT 1", format!("{SQL} `SELEKT 1`: parse error: unsupported statement start: Some(Ident(\"SELEKT\"))"), 1),
        ("SELECT body FROM page LIMIT 'x'", format!("{SQL} `SELECT body FROM page LIMIT 'x'`: parse error: bad LIMIT: StringLit(\"x\")"), 1),
        ("CREATE TABLE x (a INTEGER DEFAULT 1)", format!("{DB} execution error: applications may not issue DDL at runtime: CREATE TABLE x (1 columns)"), 2),
        ("ALTER TABLE page ADD COLUMN extra TEXT DEFAULT 'q'", format!("{DB} execution error: applications may not issue DDL at runtime: ALTER TABLE page ADD COLUMN extra"), 2),
        ("DROP TABLE page", format!("{DB} execution error: applications may not issue DDL at runtime: DROP TABLE page"), 2),
        ("INSERT INTO page (page_id, title, body) VALUES (2, 'Main', 'dup')", format!("{DB} unique constraint violated on page(title, warp_end_time, warp_end_gen)"), 2),
        ("INSERT INTO page (title, body) VALUES ('NoId', 'x')", format!("{DB} execution error: INSERT into page must supply row-ID column page_id"), 2),
        ("SELECT body FROM nosuch WHERE title = 'Main'", format!("{DB} no such table: nosuch"), 2),
        ("SELECT nosuch FROM page WHERE title = 'Main'", format!("{DB} no such column: nosuch"), 2),
        ("UPDATE page SET body = 1 / 0 WHERE title = 'Main'", format!("{DB} execution error: division by zero"), 2),
    ];
    let mut server = WarpServer::new(query_app());
    for (sql, body, ticks) in &cases {
        for round in 0..2 {
            let before = server.clock.now();
            let response = server.handle(HttpRequest::post("/q.wasl", [("q", *sql)]));
            assert_eq!(response.status, 500, "{sql}");
            assert_eq!(&response.body, body, "round {round}");
            assert_eq!(server.clock.now() - before, *ticks, "{sql}");
        }
    }
    // Nothing above changed the table, and the shapes that failed at
    // execution still execute where they can succeed.
    let ok = server.handle(HttpRequest::post(
        "/q.wasl",
        [(
            "q",
            "INSERT INTO page (page_id, title, body) VALUES (2, 'Other', 'fine')",
        )],
    ));
    assert_eq!(ok.body, "ok 1");
    let read = server.handle(HttpRequest::post(
        "/q.wasl",
        [("q", "SELECT body FROM page WHERE title = 'Other'")],
    ));
    assert_eq!(read.body, "ok [{body:fine}]");
}

#[test]
fn a_shape_seen_before_its_table_exists_is_planned_once_it_does() {
    let mut db = TimeTravelDb::new();
    let early = db.execute_logged("SELECT a FROM late WHERE a = 1", 1);
    assert_eq!(early.unwrap_err(), SqlError::NoSuchTable("late".into()));
    assert_eq!(db.planned_shapes(), 0, "a rejected plan is not kept");
    db.create_table("CREATE TABLE late (a INTEGER)", TableAnnotation::new())
        .unwrap();
    db.execute_logged("INSERT INTO late (a) VALUES (1)", 2)
        .unwrap();
    let rows = db
        .execute_logged("SELECT a FROM late WHERE a = 1", 3)
        .unwrap();
    assert_eq!(rows.result.rows.len(), 1);
    assert_eq!(db.planned_shapes(), 2);
}

#[test]
fn a_statement_template_is_not_executable_without_its_parameters() {
    let mut db = page_db();
    let template = warp_sql::parse_template("SELECT body FROM page WHERE title = 'Main'").unwrap();
    assert!(template.has_params());
    let gen = db.current_generation();
    assert!(matches!(
        db.execute_stmt_logged(&template, 10, gen),
        Err(SqlError::Execution(_))
    ));
    assert!(db
        .select_at("DELETE FROM page WHERE title = 'Main'", 10)
        .is_err());
    assert_eq!(
        db.select_at("SELECT body FROM page WHERE title = 'Main'", 10)
            .unwrap()
            .rows
            .len(),
        1
    );
}

// ---------------------------------------------------------------------------
// (d) The table is derived state: cold ≡ warm
// ---------------------------------------------------------------------------

const USERS: usize = 4;

/// A deterministic burst of wiki traffic: logins, views, edits, searches.
fn wiki_traffic(round: usize) -> Vec<HttpRequest> {
    let mut out = Vec::new();
    for u in 1..=USERS {
        out.push(HttpRequest::post(
            "/login.wasl",
            [
                ("user", format!("user{u}").as_str()),
                ("password", format!("pw{u}").as_str()),
            ],
        ));
        out.push(HttpRequest::get(&format!("/view.wasl?title=Page{u}")));
        out.push(HttpRequest::post(
            "/edit.wasl",
            [
                ("title", format!("Page{u}").as_str()),
                ("body", format!("it's round {round} of user {u}").as_str()),
            ],
        ));
        out.push(HttpRequest::post(
            "/search.wasl",
            [("q", format!("round {round}").as_str())],
        ));
        out.push(HttpRequest::get("/view.wasl?title=Public"));
    }
    out
}

fn bodies(server: &mut WarpServer, requests: Vec<HttpRequest>) -> Vec<(u16, String)> {
    requests
        .into_iter()
        .map(|r| {
            let response = server.handle(r);
            (response.status, response.body)
        })
        .collect()
}

#[test]
fn garbage_collection_drops_the_plans_and_the_next_requests_rebuild_them() {
    let mut warm = WarpServer::new(wiki_app(USERS, USERS));
    let mut cold = WarpServer::new(wiki_app(USERS, USERS));
    assert_eq!(
        bodies(&mut warm, wiki_traffic(0)),
        bodies(&mut cold, wiki_traffic(0))
    );
    let planned = cold.db.planned_shapes();
    assert!(planned > 5, "the traffic planned {planned} shapes");
    // A cutoff before every action: nothing is collected but the plans.
    assert_eq!(cold.garbage_collect(0), (0, 0));
    assert_eq!(cold.db.planned_shapes(), 0);
    assert_eq!(warm.db.planned_shapes(), planned);
    assert_eq!(
        bodies(&mut warm, wiki_traffic(1)),
        bodies(&mut cold, wiki_traffic(1))
    );
    // Rebuilt: what the traffic issues, without the seed statements' shapes.
    let rebuilt = cold.db.planned_shapes();
    assert!(0 < rebuilt && rebuilt <= planned, "{rebuilt} of {planned}");
    assert_eq!(cold.db.canonical_dump(), warm.db.canonical_dump());
    let records = |s: &WarpServer| format!("{:?}", s.history.actions());
    assert_eq!(records(&cold), records(&warm));
}

#[test]
fn a_worker_clone_shares_the_plans_and_a_cold_one_behaves_the_same() {
    let mut db = page_db();
    db.execute_logged("SELECT body FROM page WHERE title = 'Main'", 20)
        .unwrap();
    let scope: BTreeMap<String, RowScope> = [("page".to_string(), RowScope::AllRows)].into();
    let mut warm = db.clone_subset(&scope);
    assert_eq!(warm.planned_shapes(), db.planned_shapes());
    let shared = warm
        .plan("SELECT body FROM page WHERE title = 'x'")
        .unwrap();
    let original = db.plan("SELECT body FROM page WHERE title = 'y'").unwrap();
    assert!(Arc::ptr_eq(shared.plan(), original.plan()));
    db.garbage_collect(0).unwrap();
    let mut cold = db.clone_subset(&scope);
    assert_eq!(cold.planned_shapes(), 0);
    for (i, sql) in [
        "SELECT body FROM page WHERE title = 'Main'",
        "UPDATE page SET views = views + 1 WHERE title = 'it''s'",
        "SELECT views FROM page WHERE title = 'it''s'",
        "DELETE FROM page WHERE title = '2'",
        "SELECT title FROM page ORDER BY page_id",
    ]
    .iter()
    .enumerate()
    {
        let time = 30 + i as i64;
        assert_eq!(
            format!("{:?}", warm.execute_logged(sql, time)),
            format!("{:?}", cold.execute_logged(sql, time)),
            "{sql}"
        );
    }
    assert_eq!(warm.canonical_dump(), cold.canonical_dump());
}

fn open_wiki(backend: &MemoryBackend, options: StoreOptions) -> WarpServer {
    let config = ServerConfig::new(wiki_app(USERS, USERS))
        .with_backend(Box::new(backend.clone()))
        .with_store_options(options);
    WarpServer::open(config).expect("open persistent wiki").0
}

/// Recovery replays the logged writes through plans of its own, into a
/// database whose plan table starts empty — from a checkpoint chain and
/// from the bare log.
#[test]
fn a_recovered_server_serves_identically_with_a_cold_plan_table() {
    for checkpoint_interval in [0, 7] {
        let options = StoreOptions {
            checkpoint_interval,
            ..StoreOptions::default()
        };
        let backend = MemoryBackend::new();
        let mut server = open_wiki(&backend, options);
        let mut twin = WarpServer::new(wiki_app(USERS, USERS));
        for round in 0..3 {
            assert_eq!(
                bodies(&mut server, wiki_traffic(round)),
                bodies(&mut twin, wiki_traffic(round))
            );
        }
        let expected = server.db.canonical_dump();
        let warm = server.db.planned_shapes();
        drop(server); // crash

        let mut recovered = open_wiki(&backend, options);
        recovered.db.check_indexes().unwrap();
        assert_eq!(recovered.db.canonical_dump(), expected);
        assert!(
            recovered.db.planned_shapes() < warm,
            "replay plans only the writes of the log's tail"
        );
        assert_eq!(
            bodies(&mut recovered, wiki_traffic(3)),
            bodies(&mut twin, wiki_traffic(3))
        );
        assert_eq!(recovered.db.canonical_dump(), twin.db.canonical_dump());
    }
}

/// A standby applies shipped records through the same replay, and a
/// promoted standby serves like the primary would have.
#[test]
fn a_promoted_standby_serves_identically() {
    let (to_standby, to_primary) = channel_pair();
    let mut standby = Standby::attach(
        wiki_app(USERS, USERS),
        Box::new(MemoryBackend::new()),
        StoreOptions::default(),
        to_primary,
    )
    .expect("attach standby");
    let (warp, _) = Warp::builder()
        .app(wiki_app(USERS, USERS))
        .backend(Box::new(MemoryBackend::new()))
        .durability(Durability::default())
        .ship_log_to(Box::new(LogShipper::new(to_standby)))
        .build()
        .expect("build primary");
    let mut twin = WarpServer::new(wiki_app(USERS, USERS));
    for round in 0..2 {
        for request in wiki_traffic(round) {
            let served = warp.serve(request.clone());
            assert_eq!(served.body, twin.handle(request).body);
        }
    }
    warp.flush();
    drop(warp);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !standby
        .pump(Duration::from_millis(20))
        .expect("pump")
        .closed
    {
        assert!(Instant::now() < deadline, "transport never closed");
    }
    let (mut promoted, _) = standby.promote().expect("promote");
    assert_eq!(promoted.db.canonical_dump(), twin.db.canonical_dump());
    assert_eq!(
        bodies(&mut promoted, wiki_traffic(2)),
        bodies(&mut twin, wiki_traffic(2))
    );
}

// ---------------------------------------------------------------------------
// (e) The tokenizer rewrite, against the tokenizer it replaced
// ---------------------------------------------------------------------------

/// `warp_sql::tokenize` as it was before it scanned bytes, kept as the
/// reference.
mod reference {
    use warp_sql::{SqlError, SqlResult};

    #[derive(Debug, Clone, PartialEq)]
    pub enum Token {
        Ident(String),
        StringLit(String),
        IntLit(i64),
        FloatLit(f64),
        Symbol(String),
    }

    pub fn tokenize(input: &str) -> SqlResult<Vec<Token>> {
        let mut tokens = Vec::new();
        let chars: Vec<char> = input.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c == '-' && i + 1 < chars.len() && chars[i + 1] == '-' {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            if c == '\'' {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= chars.len() {
                        return Err(SqlError::Lex("unterminated string literal".into()));
                    }
                    if chars[i] == '\'' {
                        if i + 1 < chars.len() && chars[i + 1] == '\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                tokens.push(Token::StringLit(s));
                continue;
            }
            if c == '"' {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    s.push(chars[i]);
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(SqlError::Lex("unterminated quoted identifier".into()));
                }
                i += 1;
                tokens.push(Token::Ident(s));
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                let mut is_float = false;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    if chars[i] == '.' {
                        if is_float || i + 1 >= chars.len() || !chars[i + 1].is_ascii_digit() {
                            break;
                        }
                        is_float = true;
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if is_float {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| SqlError::Lex(format!("bad float literal: {text}")))?;
                    tokens.push(Token::FloatLit(v));
                } else {
                    let v = text
                        .parse::<i64>()
                        .map_err(|_| SqlError::Lex(format!("bad integer literal: {text}")))?;
                    tokens.push(Token::IntLit(v));
                }
                continue;
            }
            if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(chars[start..i].iter().collect()));
                continue;
            }
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            if ["<=", ">=", "<>", "!=", "||"].contains(&two.as_str()) {
                tokens.push(Token::Symbol(two));
                i += 2;
                continue;
            }
            if "(),=<>*+-/.;".contains(c) {
                tokens.push(Token::Symbol(c.to_string()));
                i += 1;
                continue;
            }
            return Err(SqlError::Lex(format!("unexpected character: {c:?}")));
        }
        Ok(tokens)
    }
}

/// Asserts the scanner and the reference agree on `input`: tokens or error.
fn assert_tokenizes_like_the_reference(input: &str) {
    let scanned = warp_sql::tokenize(input).map(|tokens| {
        tokens
            .into_iter()
            .map(|token| match token {
                warp_sql::Token::Ident(s) => reference::Token::Ident(s),
                warp_sql::Token::StringLit(s) => reference::Token::StringLit(s),
                warp_sql::Token::IntLit(i) => reference::Token::IntLit(i),
                warp_sql::Token::FloatLit(f) => reference::Token::FloatLit(f),
                warp_sql::Token::Symbol(s) => reference::Token::Symbol(s.to_string()),
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(scanned, reference::tokenize(input), "on {input:?}");
}

#[test]
fn the_scanner_tokenizes_corner_cases_like_the_reference() {
    for input in [
        // The lexer's own unit tests.
        "SELECT a, b FROM t WHERE a = 'x''y' AND b >= 4.5",
        "a || b -- comment\n , c <> d",
        "SELECT 'abc",
        "SELECT \"Select\" FROM t",
        "1 2.5 3",
        // Boundaries of each lexeme.
        "a -- comment to the end",
        "SELECT \"open",
        "1..2 3. 4.x 5.6.7 .5 0.0",
        "99999999999999999999 9223372036854775807 9223372036854775808",
        "a<=b>=c<>d!=e||f<g>h=i",
        "x - -1 --1\n-2",
        "a ! b",
        "a | b",
        "a # b",
        "'' '''' 'a''' '''a' 'it''s' , 'it''",
        "'naïve ☃' \"tablé\" x\u{a0}y\u{2003}z\u{85}w",
        "é",
        "a\tb\r\nc\u{b}d\u{c}e",
        "_x1 x_1 1x",
        "(a,b);",
        "",
        "   ",
        "-",
        "'unterminated ''",
    ] {
        assert_tokenizes_like_the_reference(input);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random soups of the characters the lexer distinguishes.
    #[test]
    fn the_scanner_tokenizes_random_text_like_the_reference(
        picks in proptest::collection::vec(0usize..32, 0..40),
    ) {
        const PIECES: [&str; 32] = [
            "a", "Z", "_", "0", "7", "12", ".", "..", "'", "''", "\"", "-", "--", "\n", " ", "\t",
            "<", ">", "=", "!", "|", "||", "(", ")", ",", "*", "/", ";", "é", "\u{a0}", "#", "+",
        ];
        let text: String = picks.iter().map(|&p| PIECES[p]).collect();
        assert_tokenizes_like_the_reference(&text);
    }
}

/// The three applications after their workloads, the wiki also after each
/// of three attacks and its repair.
fn workload_servers() -> Vec<(&'static str, Vec<WarpServer>)> {
    let mut wiki = WarpServer::new(wiki_app(6, 6));
    run_background_workload(
        &mut wiki,
        &WorkloadConfig {
            users: 5,
            visits_per_user: 6,
            edit_percent: 50,
            with_extension: true,
        },
        1,
    );
    let mut attacked = Vec::new();
    for attack in [
        AttackKind::StoredXss,
        AttackKind::SqlInjection,
        AttackKind::AclError,
    ] {
        let config = ScenarioConfig::small(attack);
        let mut server = WarpServer::new(warp_apps::scenario::scenario_app(&config));
        run_scenario_on(&config, &mut server);
        attacked.push(server);
    }
    let mut blog = WarpServer::new(blog_app(BlogBug::LostVotes, 4));
    let mut gallery = WarpServer::new(gallery_app(GalleryBug::RemovingPermissions, 4));
    for i in 0..40u32 {
        let post = (1 + i % 4).to_string();
        blog.handle(match i % 4 {
            0 | 1 => HttpRequest::get(&format!("/read.wasl?post={post}")),
            2 => HttpRequest::post("/vote.wasl", [("post", post.as_str())]),
            _ => HttpRequest::post(
                "/comment.wasl",
                [("post", post.as_str()), ("body", "it's a <b>comment</b>")],
            ),
        });
        gallery.handle(match i % 4 {
            0 | 1 => HttpRequest::get(&format!("/album.wasl?album={}", 1 + i % 2)),
            2 => HttpRequest::post(
                "/perm.wasl",
                [
                    ("album", (1 + i % 2).to_string().as_str()),
                    ("user", "o'brien"),
                    ("perm_id", (100 + i).to_string().as_str()),
                ],
            ),
            _ => HttpRequest::post("/resize.wasl", [("photo", post.as_str())]),
        });
    }
    vec![
        ("wiki", vec![wiki]),
        ("wiki-attacks", attacked),
        ("blog", vec![blog]),
        ("gallery", vec![gallery]),
    ]
}

/// The shape of every `db_query` site of the files `action` loaded that has
/// one: what static analysis says the action's queries look like.
fn site_shapes(server: &WarpServer, action: &ActionRecord) -> BTreeSet<String> {
    let mut shapes = BTreeSet::new();
    for file in &action.loaded_files {
        let Some(Ok(program)) = server.sources.program_at(file, action.time) else {
            panic!("{file} ran, so it compiled");
        };
        for site in sites(program).queries {
            if let Ok(template) = site_template(&site.parts) {
                shapes.insert(template.shape);
            }
        }
    }
    shapes
}

/// Every recorded `db_query` text tokenizes as it did; has the shape static
/// analysis gives a call site of a file its action loaded, so what the
/// router and the lints conclude from the site holds for the query — but
/// for the injected one, which is another shape, not another parameter; and,
/// since plans pay off only where shapes repeat, nearly every query of a
/// workload meets a shape that is already planned.
#[test]
fn recorded_query_texts_tokenize_like_the_reference_and_repeat_their_sites_shapes() {
    let mut of_no_site = Vec::new();
    for (workload, servers) in workload_servers() {
        let mut shapes = BTreeSet::new();
        let (mut queries, mut hits) = (0usize, 0usize);
        for server in &servers {
            for action in server.history.actions() {
                let of_sites = site_shapes(server, action);
                for query in &action.queries {
                    assert_tokenizes_like_the_reference(&query.sql);
                    let shape = warp_sql::prepare(&query.sql)
                        .expect("recorded text lexes")
                        .shape;
                    if !of_sites.contains(&shape) {
                        of_no_site.push((workload, query.sql.clone()));
                    }
                    queries += 1;
                    if !shapes.insert(shape) {
                        hits += 1;
                    }
                }
            }
        }
        assert!(queries > 50, "{workload}: {queries} queries");
        let share = hits as f64 / queries as f64;
        println!(
            "{workload}: {queries} queries, {} distinct shapes, {:.1} % already planned",
            shapes.len(),
            100.0 * share
        );
        assert!(shapes.len() <= 40, "{workload}: {} shapes", shapes.len());
        assert!(share > 0.8, "{workload}: hit share {share}");
    }
    assert_eq!(
        of_no_site,
        [(
            "wiki-attacks",
            "UPDATE page SET body = 'INFECTED BY XSS' WHERE title = 'zzz' OR title LIKE '%'"
                .to_string()
        )]
    );
}
