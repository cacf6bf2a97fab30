//! Criterion bench for the time-travel database primitives: versioned
//! writes, time-travel reads, and row rollback.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use warp_sql::Value;
use warp_ttdb::{RepairSession, TableAnnotation, TimeTravelDb};

fn seeded_db(rows: i64) -> TimeTravelDb {
    let mut db = TimeTravelDb::new();
    db.create_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT, body TEXT)",
        TableAnnotation::new()
            .row_id("page_id")
            .partitions(["title"]),
    )
    .unwrap();
    for i in 0..rows {
        db.execute_logged(
            &format!("INSERT INTO page (page_id, title, body) VALUES ({i}, 'T{i}', 'body {i}')"),
            i + 1,
        )
        .unwrap();
    }
    db
}

/// `rows` logical rows with `versions` stored versions each; returns the
/// database and the next unused timestamp.
fn versioned_db(rows: i64, versions: i64) -> (TimeTravelDb, i64) {
    let mut db = seeded_db(rows);
    let mut time = rows + 1;
    for v in 1..versions {
        for i in 0..rows {
            db.execute_logged(
                &format!("UPDATE page SET body = 'v{v}' WHERE title = 'T{i}'"),
                time,
            )
            .unwrap();
            time += 1;
        }
    }
    (db, time)
}

/// Access-path scaling: the cost of a point read and of a versioned update
/// should be flat in the number of rows and linear in the versions of the
/// one key they touch.
fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ttdb_scaling");
    for rows in [200, 2_000] {
        for versions in [1, 20] {
            let (mut db, mut time) = versioned_db(rows, versions);
            let stride = rows / 100;
            group.bench_function(
                format!("point_read_x100/rows={rows}/versions={versions}"),
                |b| {
                    b.iter(|| {
                        for i in 0..100 {
                            let title = i * stride;
                            let sql = format!("SELECT body FROM page WHERE title = 'T{title}'");
                            black_box(db.select_at(&sql, time).unwrap());
                        }
                    })
                },
            );
            // Each iteration updates the next hundred keys, so the version
            // count under measurement drifts by at most the iteration count.
            let mut next = 0;
            group.bench_function(
                format!("versioned_update_x100/rows={rows}/versions={versions}"),
                |b| {
                    b.iter(|| {
                        for _ in 0..100 {
                            let sql =
                                format!("UPDATE page SET body = 'new' WHERE title = 'T{next}'");
                            black_box(db.execute_logged(&sql, time).unwrap());
                            next = (next + 1) % rows;
                            time += 1;
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_ttdb(c: &mut Criterion) {
    let mut group = c.benchmark_group("ttdb_ops");
    group.bench_function("versioned_update_x100", |b| {
        b.iter(|| {
            let mut db = seeded_db(100);
            for i in 0..100 {
                db.execute_logged(
                    &format!("UPDATE page SET body = 'new' WHERE title = 'T{i}'"),
                    1000 + i,
                )
                .unwrap();
            }
        })
    });
    // A read at a past time, warm: the first read (which plans the shape)
    // runs before the timed loop.
    group.bench_function("time_travel_read_x1000", |b| {
        let mut db = seeded_db(200);
        let sql = "SELECT body FROM page WHERE title = 'T50'";
        db.select_at(sql, 60).unwrap();
        b.iter(|| {
            for _ in 0..1000 {
                black_box(db.select_at(sql, 60).unwrap());
            }
        })
    });
    group.bench_function("rollback_100_rows", |b| {
        b.iter(|| {
            let mut db = seeded_db(100);
            for i in 0..100 {
                db.execute_logged(
                    &format!("UPDATE page SET body = 'attacked' WHERE page_id = {i}"),
                    500 + i,
                )
                .unwrap();
            }
            let mut session = RepairSession::begin(&mut db);
            let ids: Vec<Value> = (0..100).map(Value::Int).collect();
            session.rollback_rows(&mut db, "page", &ids, 500).unwrap();
            session.finalize(&mut db);
        })
    });
    // The SQL-injection repair's shape: 251 rows of three versions each,
    // every one rolled back past its first update inside a repair
    // generation. The databases are built before the timed loop and the
    // used ones kept until after it, so only the rollback is timed.
    let rows = 251;
    let (mut template, _) = versioned_db(rows, 3);
    let session = RepairSession::begin_precise(&mut template);
    let ids: Vec<Value> = (0..rows).map(Value::Int).collect();
    let mut ready: Vec<_> = (0..8)
        .map(|_| (template.clone(), session.clone()))
        .collect();
    let mut used = Vec::new();
    group.bench_function("rollback_251_rows_x3_versions", |b| {
        b.iter(|| {
            let (mut db, mut session) = ready.pop().expect("a database prepared per iteration");
            session
                .rollback_rows(&mut db, "page", &ids, rows + 1)
                .unwrap();
            used.push(db);
        })
    });
    // A repair generation's writes: each of 100 updates claims a version
    // the current generation still sees, appends the current generation's
    // copy and a history copy, and rewrites the claimed version. The texts
    // and databases are built before the timed loop, as above.
    let (mut template, time) = versioned_db(100, 1);
    let gen = template.begin_repair_generation();
    let updates: Vec<String> = (0..100)
        .map(|i| format!("UPDATE page SET body = 'repaired {i}' WHERE title = 'T{i}'"))
        .collect();
    let mut ready: Vec<_> = (0..8).map(|_| template.clone()).collect();
    group.bench_function("repair_gen_update_x100", |b| {
        b.iter(|| {
            let mut db = ready.pop().expect("a database prepared per iteration");
            for sql in &updates {
                let mut query = db.plan(sql).unwrap();
                black_box(db.execute_planned(&mut query, time, gen).unwrap());
            }
            used.push(db);
        })
    });
    group.finish();
}

/// Plan once: one statement shape executed from text with a thousand
/// different literals — the tokenizer pass, the plan lookup and the
/// execution, and no parse or analysis after the first text. The texts are
/// built outside the timed loop; divide by the count for the per-query cost.
fn bench_sql_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_plan");
    let rows = 1_000;
    let mut db = seeded_db(rows);
    let mut time = rows + 1;
    let reads: Vec<String> = (0..rows)
        .map(|i| format!("SELECT body FROM page WHERE title = 'T{i}'"))
        .collect();
    group.bench_function("point_read_x1000", |b| {
        b.iter(|| {
            for sql in &reads {
                black_box(db.execute_logged(sql, time).unwrap());
            }
        })
    });
    let updates: Vec<String> = (0..rows)
        .map(|i| format!("UPDATE page SET body = 'edit of {i}' WHERE title = 'T{i}'"))
        .collect();
    // Each iteration updates the next hundred keys.
    let mut windows = updates.chunks(100).cycle();
    group.bench_function("versioned_update_x100", |b| {
        b.iter(|| {
            for sql in windows.next().expect("cycles") {
                black_box(db.execute_logged(sql, time).unwrap());
                time += 1;
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ttdb, bench_scaling, bench_sql_plan);
criterion_main!(benches);
