//! The storage indexes are an access path, never a behaviour: a database
//! with indexes declared must be indistinguishable from one that scans —
//! results *including row order*, errors, change capture and stored rows —
//! and the indexes must stay exact through every way rows enter or leave a
//! table, including checkpoint restore and crash recovery.

use proptest::prelude::*;
use warp_browser::Browser;
use warp_core::{
    AppConfig, MemoryBackend, RepairRequest, RepairStrategy, ServerConfig, StoreOptions, WarpServer,
};
use warp_http::HttpRequest;
use warp_sql::Database;
use warp_ttdb::TableAnnotation;

/// Literals compared against (and stored into) the Integer column `k` and
/// the Text column `name`: every value type on both, so numerically equal
/// keys of different types, NULLs and type mismatches all occur.
const LITERALS: [&str; 12] = [
    "0", "1", "2", "3", "1.0", "2.5", "TRUE", "FALSE", "NULL", "'1'", "'a'", "'b'",
];

fn lit(n: usize) -> &'static str {
    LITERALS[n % LITERALS.len()]
}

/// What inserts store: fewer distinct values than the statements probe
/// for, so that rows share keys.
fn stored(n: usize) -> &'static str {
    ["0", "1", "'a'", "NULL", "1.0", "'1'", "TRUE", "'b'"][n % 8]
}

/// One statement of the random history, from three small integers. Domains
/// are tiny so that keys repeat, buckets grow and uniqueness constraints
/// (`id`, and `(k, name)`) are violated now and then — inside an insert
/// batch, against stored rows, and by updates.
fn statement(op: usize, a: usize, b: usize) -> String {
    let (id, n) = (a % 10, b % 4);
    match op % 23 {
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
        // Fallible predicates and assignments: a row the index would skip
        // can still fail the scan (`n` is 0 now and then), and a failed
        // DELETE keeps the rows it dropped before failing.
        13 => format!("SELECT id FROM t WHERE k = {} AND 6 / n > 1", lit(a)),
        14 => format!("DELETE FROM t WHERE id = {id} AND 6 / n > {n}"),
        15 => format!("UPDATE t SET n = 6 / n WHERE k = {}", lit(a)),
        16 => format!("UPDATE t SET n = n + 1 WHERE k = {}", lit(a)),
        17 => format!("UPDATE t SET k = {} WHERE name = {}", lit(a), lit(b)),
        18 => format!(
            "UPDATE t SET id = {id}, name = {} WHERE id = {}",
            lit(b),
            (id + n) % 10
        ),
        19 => format!("DELETE FROM t WHERE k = {}", lit(a)),
        20 => format!("DELETE FROM t WHERE name = {} AND n < {n}", lit(a)),
        // Every touched row moves onto a key its neighbour is vacating.
        21 => format!("UPDATE t SET id = id + 1 WHERE n >= {n}"),
        _ => "SELECT * FROM t".to_string(),
    }
}

fn database(indexed: bool) -> Database {
    let mut db = Database::new();
    db.execute_sql(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, name TEXT, n INTEGER, UNIQUE (k, name))",
    )
    .unwrap();
    if indexed {
        let t = db.table_mut("t").unwrap();
        for column in ["id", "k", "name"] {
            t.declare_index(column).unwrap();
        }
    }
    db.begin_change_capture();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Indexed ≡ scan, statement by statement. Outcomes are compared through
    /// `Debug`, which tells `Int(1)` from `Float(1.0)` where `==` would not.
    #[test]
    fn indexed_database_is_indistinguishable_from_scanning(
        history in proptest::collection::vec((0usize..23, 0usize..40, 0usize..40), 1..60),
    ) {
        let mut indexed = database(true);
        let mut scanning = database(false);
        for &(op, a, b) in &history {
            let sql = statement(op, a, b);
            let got = format!("{:?}", indexed.execute_sql(&sql));
            let want = format!("{:?}", scanning.execute_sql(&sql));
            prop_assert_eq!(got, want, "{}", sql);
            let t = indexed.table("t").unwrap();
            prop_assert_eq!(t.check_indexes(), Ok(()), "after {}", sql);
            prop_assert_eq!(
                format!("{:?}", t.rows()),
                format!("{:?}", scanning.table("t").unwrap().rows()),
                "stored rows after {}", sql
            );
        }
        prop_assert_eq!(
            format!("{:?}", indexed.take_change_capture()),
            format!("{:?}", scanning.take_change_capture())
        );
    }
}

/// The statements above must actually reach the index, or the property is
/// vacuous: a fallible predicate is the one observable difference between
/// visiting a bucket and scanning, and the engine resolves it by scanning.
#[test]
fn only_predicates_that_cannot_fail_skip_rows() {
    let mut db = database(true);
    db.execute_sql("INSERT INTO t (id, k, name, n) VALUES (1, 1, 'a', 2), (2, 2, 'b', 0)")
        .unwrap();
    let point = db.execute_sql("SELECT name FROM t WHERE id = 1 AND n > 1");
    assert_eq!(point.unwrap().rows.len(), 1);
    // Row 2 is outside bucket `id = 1`, and still fails the statement.
    assert!(db
        .execute_sql("SELECT name FROM t WHERE id = 1 AND 6 / n > 1")
        .is_err());
}

fn wiki() -> AppConfig {
    let mut config = AppConfig::new("index-wiki");
    config.add_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
        TableAnnotation::new()
            .row_id("page_id")
            .partitions(["title"]),
    );
    for p in 0..5 {
        config.seed(format!(
            "INSERT INTO page (page_id, title, body) VALUES ({}, 'Page{p}', 'seed {p}')",
            p + 1
        ));
    }
    config.add_source(
        "view.wasl",
        "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         if (len(rows) == 0) { echo(\"<p>missing</p>\"); } else { echo(\"<div>\" . rows[0][\"body\"] . \"</div>\"); }",
    );
    config.add_source(
        "edit.wasl",
        "db_query(\"UPDATE page SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         echo(\"<p>saved</p>\");",
    );
    config
}

fn open_wiki(backend: &MemoryBackend, options: StoreOptions) -> WarpServer {
    let config = ServerConfig::new(wiki())
        .with_backend(Box::new(backend.clone()))
        .with_store_options(options);
    WarpServer::open(config).expect("open persistent wiki").0
}

fn edit(server: &mut WarpServer, page: usize, body: &str) {
    let title = format!("Page{page}");
    server.handle(HttpRequest::post(
        "/edit.wasl",
        [("title", title.as_str()), ("body", body)],
    ));
}

/// Indexes are never persisted: recovery rebuilds them, through a base
/// checkpoint (bulk load), delta checkpoints and a replayed repair commit
/// (row diffs), and the log tail (ordinary statements). Each path must
/// leave them exact, and a recovered server must find its rows through
/// them.
#[test]
fn recovery_rebuilds_exact_indexes() {
    for checkpoint_interval in [0, 4] {
        let options = StoreOptions {
            checkpoint_interval,
            ..StoreOptions::default()
        };
        let backend = MemoryBackend::new();
        let mut server = open_wiki(&backend, options);
        let mut admin = Browser::new("admin-browser");
        for round in 0..4 {
            for page in 0..5 {
                edit(&mut server, page, &format!("round {round} page {page}"));
            }
        }
        let visit_id = admin.visit("/view.wasl?title=Page2", &mut server).visit_id;
        server.upload_client_logs(admin.take_logs());
        edit(&mut server, 3, "after the visit");
        let outcome = server.repair_with(
            RepairRequest::UndoVisit {
                client_id: "admin-browser".to_string(),
                visit_id,
                initiated_by_admin: true,
            },
            RepairStrategy::Partitioned { workers: 2 },
        );
        assert!(!outcome.aborted);
        server.db.check_indexes().unwrap();
        edit(&mut server, 1, "tail edit");
        let expected = server.db.canonical_dump();
        drop(server); // crash

        let mut recovered = open_wiki(&backend, options);
        recovered.db.check_indexes().unwrap();
        assert_eq!(recovered.db.canonical_dump(), expected);
        let page = recovered.handle(HttpRequest::get("/view.wasl?title=Page1"));
        assert!(page.body.contains("tail edit"), "{}", page.body);
        edit(&mut recovered, 4, "served after recovery");
        recovered.db.check_indexes().unwrap();
    }
}
