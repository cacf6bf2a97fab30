//! Criterion bench for the substrates: SQL execution, WASL interpretation,
//! HTML parsing, three-way merge, and the log's checksum and ship-frame
//! codecs.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::collections::BTreeMap;
use std::sync::Arc;
use warp_browser::{parse_html, three_way_merge};
use warp_script::{Host, Interpreter, NullHost, Program, ScriptResult, Value};
use warp_sql::Database;
use warp_store::{crc32, ShipFrame};

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.bench_function("sql_insert_select_x100", |b| {
        b.iter(|| {
            let mut db = Database::new();
            db.execute_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
                .unwrap();
            for i in 0..100 {
                db.execute_sql(&format!("INSERT INTO t (id, v) VALUES ({i}, 'value {i}')"))
                    .unwrap();
            }
            db.execute_sql("SELECT COUNT(*) FROM t WHERE v LIKE 'value%'")
                .unwrap()
        })
    });
    group.bench_function("wasl_fib_18", |b| {
        b.iter(|| {
            let mut host = NullHost::default();
            Interpreter::new()
                .eval_program(
                    "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } return fib(18);",
                    &mut host,
                )
                .unwrap()
        })
    });
    group.bench_function("html_parse_form_page", |b| {
        let page = format!(
            "<html><body>{}<form action=\"/e\"><textarea name=\"b\">text</textarea></form></body></html>",
            "<p>paragraph</p>".repeat(100)
        );
        b.iter(|| parse_html(&page))
    });
    group.bench_function("three_way_merge_50_lines", |b| {
        let base: String = (0..50).map(|i| format!("line {i}\n")).collect();
        let ours = base.replace("line 10", "line ten (edited)");
        let theirs = base.replace("line 40", "line forty (repaired)");
        b.iter(|| three_way_merge(&base, &ours, &theirs))
    });
    group.finish();
}

/// A host for the wiki's `view.wasl` with nothing behind it: a logged-in
/// user's request parameters and cookie, canned rows for the four queries the
/// page issues, and `common.wasl` handed out compiled. What is left to time
/// is the interpreter itself.
struct CannedWiki {
    common: Arc<Program>,
    output: String,
}

impl Host for CannedWiki {
    fn call_host(&mut self, name: &str, args: &[Value]) -> Option<ScriptResult<Value>> {
        let row = |column: &str, value: Value| {
            Value::Array(vec![Value::map([(column.to_string(), value)])])
        };
        Some(Ok(match name {
            "echo" => {
                for a in args {
                    self.output.push_str(&a.display_str());
                }
                Value::Null
            }
            "param" => Value::str("Page1"),
            "cookie" => Value::str("session-1"),
            "db_query" => match args[0].display_str().as_ref() {
                q if q.starts_with("SELECT body FROM page") => row(
                    "body",
                    Value::str("original content of page 1, <b>with markup</b>. ".repeat(8)),
                ),
                q if q.starts_with("SELECT user_name FROM session") => {
                    row("user_name", Value::str("user1"))
                }
                q if q.starts_with("SELECT is_admin FROM wikiuser") => {
                    row("is_admin", Value::Int(0))
                }
                q if q.starts_with("SELECT acl_id FROM acl") => row("acl_id", Value::Int(1)),
                q => panic!("view.wasl issued an unexpected query: {q}"),
            },
            _ => return None,
        }))
    }

    fn load_include(&mut self, filename: &str) -> Option<ScriptResult<Arc<Program>>> {
        (filename == "common.wasl").then(|| Ok(Arc::clone(&self.common)))
    }
}

/// The script layer's share of one wiki page view: `view.wasl` and
/// `common.wasl`, compiled once as the source store does, run per request.
/// One iteration is 1000 requests, so the per-request cost is the printed
/// time / 1000.
fn bench_script_request(c: &mut Criterion) {
    let app = warp_apps::wiki_app(1, 1);
    let compile = |file: &str| {
        let (_, text) = app.sources.iter().find(|(name, _)| name == file).unwrap();
        Arc::new(warp_script::parse_program(text).unwrap())
    };
    let view = compile("view.wasl");
    let mut host = CannedWiki {
        common: compile("common.wasl"),
        output: String::new(),
    };
    let mut group = c.benchmark_group("script_request");
    group.bench_function("wiki_view_x1000", |b| {
        b.iter(|| {
            let mut bytes = 0;
            for _ in 0..1000 {
                host.output.clear();
                Interpreter::new()
                    .run_program(&view, &mut host, BTreeMap::new())
                    .unwrap();
                bytes += host.output.len();
            }
            bytes
        })
    });
    group.finish();
}

/// The checksum under every segment record, checkpoint link and ship frame,
/// and the frame codec on both ends of the replication stream. One iteration
/// moves [`LOG_VOLUME`] bytes, so throughput is 64 MiB / the printed time:
/// `crc32` at the sizes of a small record, a typical request record and a
/// whole segment; `ShipFrame::Records` at a catch-up frame of 1 024 typical
/// records (encode copies and checksums each payload once; decode checksums
/// the body and slices it).
fn bench_log_bytes(c: &mut Criterion) {
    const LOG_VOLUME: usize = 64 << 20;
    let noise: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut group = c.benchmark_group("log_bytes_64MiB");
    for (label, len) in [("64B", 64), ("1300B", 1300), ("1MiB", 1 << 20)] {
        group.bench_function(format!("crc32_{label}"), |b| {
            b.iter(|| {
                let mut sum = 0u32;
                for _ in 0..LOG_VOLUME / len {
                    sum ^= crc32(black_box(&noise[..len]));
                }
                sum
            })
        });
    }
    let records: Vec<(u8, &[u8])> = noise.chunks(1300).take(1024).map(|p| (1, p)).collect();
    let frame = ShipFrame::Records {
        first_lsn: 7,
        records,
    };
    let encoded = frame.encode();
    let frames = LOG_VOLUME / encoded.len();
    group.bench_function("ship_frame_records_encode", |b| {
        b.iter(|| {
            (0..frames)
                .map(|_| black_box(&frame).encode().len())
                .sum::<usize>()
        })
    });
    group.bench_function("ship_frame_records_decode", |b| {
        b.iter(|| {
            (0..frames)
                .filter(|_| ShipFrame::decode(black_box(&encoded)).is_some())
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_substrates,
    bench_script_request,
    bench_log_bytes
);
criterion_main!(benches);
