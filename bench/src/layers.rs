//! The per-layer profile, measured from outside: a *layer replay*.
//!
//! Warp records everything a request did — the request, the files it
//! loaded, the queries it ran. After the timed phases the traced run reads
//! the first [`WINDOW`] serve-phase [`ActionRecord`]s back and times each
//! layer's public entry points on exactly those inputs, in history order,
//! on one thread. Nothing inside the program is instrumented, so the timed
//! phases pay nothing for tracing; `trace.unattributed_frac` says how much
//! of a request this outside-in view cannot see.

use crate::counting_backend::CountingBackend;
use crate::rep::{percentile_us, Metrics, ServeCounters};
use crate::workload::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write as _;
use std::sync::mpsc::channel;
use std::time::Instant;
use warp_core::{ActionId, ActionRecord, AppConfig, RepairStats, ServerConfig, WarpServer};
use warp_http::request::Method;
use warp_http::url::form_encode;
use warp_http::HttpRequest;
use warp_sql::analysis::{read_columns, write_columns};
use warp_store::{BatchPolicy, DurableStore, GroupCommitWriter, MemoryBackend, StoreOptions};

/// Serve-phase requests the replay covers.
const WINDOW: usize = 2000;

/// How many times the traced run replays; each timing is the lowest seen.
pub const REPLAYS: usize = 3;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing pass span.
    parent: usize,
    /// The action id the work belongs to (0 for a pass span).
    request: u64,
}

/// Spans are kept in memory and written out once, after everything that is
/// timed has finished.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a pass span (a root); children name it as their parent.
    fn open(&mut self, name: &'static str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: usize::MAX,
            request: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, pass: usize) {
        self.spans[pass].end_ns = self.now();
    }

    /// Times `f` as one span and returns its result and duration in ns.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: ActionId,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start_ns = self.now();
        let result = black_box(f());
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (result, end_ns - start_ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `bench/out/trace-<workload>.jsonl`, one span per line.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new(crate::OUT_DIR);
        std::fs::create_dir_all(dir).expect("creating bench/out");
        let path = dir.join(format!("trace-{workload}.jsonl"));
        let file = std::fs::File::create(&path).expect("creating the span file");
        let mut out = std::io::BufWriter::new(file);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                usize::MAX => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )
            .expect("writing the span file");
        }
        out.flush().expect("flushing the span file");
    }
}

fn mean_us(total_ns: u64, n: usize) -> f64 {
    total_ns as f64 / 1e3 / n.max(1) as f64
}

/// `DurableStore::open` alone on a copy of the recover phase's image: the
/// part of `recover_s` spent scanning and checksumming, before any replay.
pub fn store_open_seconds(image: &CountingBackend, options: StoreOptions) -> f64 {
    let copy = image.image();
    let t = Instant::now();
    black_box(DurableStore::open(Box::new(copy), options).expect("opening the image"));
    t.elapsed().as_secs_f64()
}

/// Rebuilds the wire form of a recorded request and routes it.
fn route(app: &AppConfig, recorded: &HttpRequest) -> Option<String> {
    let pairs = |map: &BTreeMap<String, String>| {
        form_encode(map.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    };
    let target = format!("{}?{}", recorded.path, pairs(&recorded.query));
    let request = match recorded.method {
        Method::Get => HttpRequest::get(&target),
        Method::Post => HttpRequest::post_raw(&target, &pairs(&recorded.form)),
    };
    app.router.resolve(&request.path)
}

/// Replays the serve-phase window through every layer and reports the
/// per-layer metrics. `history` is the action history as it stood after
/// the serve phase; `reexecuted` the actions the repair then re-executed.
pub fn replay(
    trace: &mut Trace,
    metrics: &mut Metrics,
    workload: &Workload,
    app: &AppConfig,
    history: &[ActionRecord],
    setup_actions: usize,
    reexecuted: &[ActionId],
) {
    let end = history.len().min(setup_actions + WINDOW);
    let window = &history[setup_actions..end];
    let n = window.len();
    let reexecuted: BTreeSet<ActionId> = reexecuted.iter().copied().collect();
    let sources: BTreeMap<&str, &str> = app
        .sources
        .iter()
        .map(|(name, content)| (name.as_str(), content.as_str()))
        .collect();

    // warp-http: parse the request off the wire and route it.
    let pass = trace.open("replay.http");
    let mut http_ns = 0;
    for action in window {
        http_ns += trace
            .time("http.route", pass, action.id, || {
                route(app, &action.request)
            })
            .1;
    }
    trace.close(pass);
    let http_us = mean_us(http_ns, n);
    metrics.put("http.route_us", http_us);

    // warp-script: parse every file each request loaded (the interpreter
    // re-parses the entry script and each include on every request).
    let pass = trace.open("replay.script");
    let (mut parse_ns, mut parse_calls, mut parse_bytes) = (0, 0usize, 0usize);
    let mut repair_script_ns = 0;
    for (index, action) in history.iter().enumerate() {
        let in_window = (setup_actions..end).contains(&index);
        let in_repair = reexecuted.contains(&action.id);
        if !in_window && !in_repair {
            continue;
        }
        for file in &action.loaded_files {
            let Some(source) = sources.get(file.as_str()) else {
                continue;
            };
            let ns = trace
                .time("script.parse", pass, action.id, || {
                    warp_script::parse_program(source).is_ok()
                })
                .1;
            if in_window {
                parse_ns += ns;
                parse_calls += 1;
                parse_bytes += source.len();
            }
            if in_repair {
                repair_script_ns += ns;
            }
        }
    }
    trace.close(pass);
    let script_us = mean_us(parse_ns, n);
    metrics.put("script.parse_us", script_us);
    metrics.put("script.parse_calls", parse_calls as f64 / n as f64);
    metrics.put("script.parse_bytes", parse_bytes as f64 / n as f64);
    metrics.put(
        "repair.replay_script_parse_ms",
        repair_script_ns as f64 / 1e6,
    );

    // warp-sql and warp-ttdb: every recorded query of the whole history is
    // parsed, analysed and executed at its recorded time against a fresh
    // database seeded from the app, so the window's queries meet the state
    // they met when served.
    let pass = trace.open("replay.sql+ttdb");
    let keys = warp_analyze::app_key_catalog(app);
    let mut db = WarpServer::new(app.clone()).db;
    let gen = db.current_generation();
    let (mut sql_parse_ns, mut analyze_ns, mut queries) = (0, 0, 0usize);
    let (mut read_ns, mut reads, mut write_ns, mut writes) = (0, 0usize, 0, 0usize);
    let (mut repair_sql_ns, mut repair_ttdb_ns) = (0, 0);
    for (index, action) in history.iter().enumerate() {
        let in_window = (setup_actions..end).contains(&index);
        let in_repair = reexecuted.contains(&action.id);
        for query in &action.queries {
            if !in_window && !in_repair {
                // Only brings the database to the state later queries met.
                let stmt = warp_sql::parse(&query.sql).expect("a recorded query parses");
                let _ = black_box(db.execute_stmt_logged(&stmt, query.time, gen));
                continue;
            }
            let (stmt, parse) = trace.time("sql.parse", pass, action.id, || {
                warp_sql::parse(&query.sql).expect("a recorded query parses")
            });
            let (_, analyze) = trace.time("sql.analyze", pass, action.id, || {
                (
                    read_columns(&stmt),
                    write_columns(&stmt),
                    warp_sql::analyze(&stmt, &keys),
                )
            });
            let (_, exec) = trace.time("ttdb.exec", pass, action.id, || {
                db.execute_stmt_logged(&stmt, query.time, gen).is_ok()
            });
            if in_window {
                queries += 1;
                sql_parse_ns += parse;
                analyze_ns += analyze;
                if query.is_write {
                    write_ns += exec;
                    writes += 1;
                } else {
                    read_ns += exec;
                    reads += 1;
                }
            }
            if in_repair {
                repair_sql_ns += parse;
                repair_ttdb_ns += exec;
            }
        }
    }
    trace.close(pass);
    let sql_parse_us = mean_us(sql_parse_ns, n);
    let analyze_us = mean_us(analyze_ns, n);
    let ttdb_us = mean_us(read_ns + write_ns, n);
    metrics.put("sql.parse_us", sql_parse_us);
    metrics.put("sql.analyze_us", analyze_us);
    metrics.put("sql.queries", queries as f64 / n as f64);
    metrics.put("ttdb.exec_us", ttdb_us);
    metrics.put("ttdb.read_us", mean_us(read_ns, reads));
    metrics.put("ttdb.write_us", mean_us(write_ns, writes));
    metrics.put("ttdb.writes", writes as f64 / n as f64);
    metrics.put("repair.replay_sql_parse_ms", repair_sql_ns as f64 / 1e6);
    metrics.put("repair.replay_ttdb_exec_ms", repair_ttdb_ns as f64 / 1e6);

    // warp-core: the whole request through a bare in-memory server, then
    // through a persistent one with the inline (synchronous) log sink.
    let mut handle_pass = |name: &'static str, span: &'static str, mut server: WarpServer| {
        let pass = trace.open(name);
        for action in &history[..setup_actions] {
            black_box(server.handle(action.request.clone()));
        }
        let mut ns: Vec<u64> = window
            .iter()
            .map(|action| {
                let request = action.request.clone();
                trace
                    .time(span, pass, action.id, || server.handle(request))
                    .1
            })
            .collect();
        trace.close(pass);
        let mean = mean_us(ns.iter().sum(), n);
        ns.sort_unstable();
        (mean, percentile_us(&ns, 0.50), percentile_us(&ns, 0.99))
    };
    let (handle_us, _, handle_p99_us) =
        handle_pass("replay.core", "core.handle", WarpServer::new(app.clone()));
    let options = StoreOptions {
        checkpoint_interval: 0,
        ..workload.store_options()
    };
    let backend = CountingBackend::new();
    let (persistent, _) = WarpServer::open(
        ServerConfig::new(app.clone())
            .with_backend(Box::new(backend.clone()))
            .with_store_options(options),
    )
    .expect("opening the replay store");
    let (handle_persist_us, handle_persist_p50_us, _) =
        handle_pass("replay.core+persist", "core.handle_persist", persistent);
    metrics.put("core.handle_us", handle_us);
    metrics.put("core.handle_p99_us", handle_p99_us);
    metrics.put("core.handle_persist_us", handle_persist_us);
    metrics.put("core.handle_persist_p50_us", handle_persist_p50_us);

    // warp-store: the log records that persistent replay just wrote, fed
    // back to the store one by one, 64 at a time, and through the
    // group-commit writer with a lone client waiting on each.
    let (_, recovered) =
        DurableStore::open(Box::new(backend.image()), options).expect("reading the replay log");
    let payloads: Vec<(u8, Vec<u8>)> = recovered
        .records
        .into_iter()
        .skip(setup_actions)
        .map(|(_, kind, payload)| (kind, payload))
        .collect();
    let fresh = || {
        DurableStore::open(Box::new(MemoryBackend::new()), options)
            .expect("opening an empty store")
            .0
    };
    let pass = trace.open("replay.store");
    let records = payloads.len();
    let mut store = fresh();
    let mut append_ns = 0;
    for (kind, payload) in &payloads {
        append_ns += trace
            .time("store.append", pass, 0, || {
                store.append(*kind, payload).is_ok()
            })
            .1;
    }
    let mut store = fresh();
    let mut batch_ns = 0;
    for chunk in payloads.chunks(64) {
        batch_ns += trace
            .time("store.append_batch64", pass, 0, || {
                store.append_batch(chunk).is_ok()
            })
            .1;
    }
    let writer = GroupCommitWriter::spawn(fresh(), BatchPolicy::default());
    let mut ack_ns = 0;
    for (kind, payload) in payloads {
        let (durable, wait) = channel();
        ack_ns += trace
            .time("store.ack", pass, 0, || {
                writer.submit(kind, payload);
                writer.notify_durable(move || {
                    let _ = durable.send(());
                });
                wait.recv().is_ok()
            })
            .1;
    }
    drop(writer.close());
    trace.close(pass);
    let append_us = mean_us(append_ns, records);
    let ack_us = mean_us(ack_ns, records);
    metrics.put("store.append_us", append_us);
    metrics.put("store.append_batch64_us", mean_us(batch_ns, records));
    metrics.put("store.ack_us", ack_us);
}

/// The self times: what is left of an enclosing layer's time once the
/// layers it calls are subtracted. Computed from the merged replays.
pub fn derive_self_times(metrics: &mut Metrics) {
    let get = |name: &str| metrics.get(name);
    let handle_us = get("core.handle_us");
    let attributed = get("http.route_us")
        + get("script.parse_us")
        + get("sql.parse_us")
        + get("sql.analyze_us")
        + get("ttdb.exec_us");
    let persist_self_us = get("core.handle_persist_us") - handle_us - get("store.append_us");
    // Channel hops and queueing behind the other client: what the façade
    // adds on top of executing, logging and acknowledging one request.
    // Median against median: one heavy request in the window (the
    // injection scenario's whole-table UPDATE) would skew a mean.
    let wait_self_us =
        get("serve_p50_us") - get("core.handle_persist_p50_us") - get("store.ack_us");
    // Only an input to the line above, not a metric of its own.
    metrics.0.remove("core.handle_persist_p50_us");
    metrics.put("core.apphost_self_us", handle_us - attributed);
    metrics.put("trace.unattributed_frac", 1.0 - attributed / handle_us);
    metrics.put("core.persist_self_us", persist_self_us);
    metrics.put("facade.wait_self_us", wait_self_us);
}

/// Counters the program already keeps, from the serve phase and the repair.
pub fn report_counters(metrics: &mut Metrics, serve: &ServeCounters, repair: &RepairStats) {
    let requests = serve.requests as f64;
    metrics.put("store.batches", serve.writer.batches as f64);
    metrics.put(
        "store.records_per_batch",
        serve.writer.records as f64 / serve.writer.batches.max(1) as f64,
    );
    metrics.put("store.largest_batch", serve.writer.largest_batch as f64);
    metrics.put("store.folds", serve.maintenance.folds as f64);
    metrics.put(
        "store.segments_deleted",
        serve.maintenance.segments_deleted as f64,
    );
    metrics.put(
        "store.ckpt_bytes_per_request",
        serve.device.atomic_bytes as f64 / requests,
    );
    metrics.put("device.appends", serve.device.appends as f64);
    metrics.put("device.append_bytes", serve.device.append_bytes as f64);
    metrics.put("device.atomic_writes", serve.device.atomic_writes as f64);
    metrics.put("device.atomic_bytes", serve.device.atomic_bytes as f64);
    metrics.put("device.syncs", serve.device.syncs as f64);
    metrics.put("device.deletes", serve.device.deletes as f64);

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    metrics.put("repair.time_init_ms", ms(repair.time_init));
    metrics.put("repair.time_graph_ms", ms(repair.time_graph));
    metrics.put("repair.time_browser_ms", ms(repair.time_browser));
    metrics.put("repair.time_db_ms", ms(repair.time_db));
    metrics.put("repair.time_app_ms", ms(repair.time_app));
    metrics.put("repair.time_ctrl_ms", ms(repair.time_ctrl));
    metrics.put("repair.time_commit_ms", ms(repair.time_commit));
    metrics.put(
        "repair.app_runs_reexecuted",
        repair.app_runs_reexecuted as f64,
    );
    metrics.put("repair.app_runs_total", repair.app_runs_total as f64);
    metrics.put(
        "repair.queries_reexecuted",
        repair.queries_reexecuted as f64,
    );
    metrics.put("repair.queries_total", repair.queries_total as f64);
    metrics.put(
        "repair.reexec_ratio",
        repair.app_runs_reexecuted as f64 / repair.app_runs_total.max(1) as f64,
    );
    metrics.put("repair.rows_rolled_back", repair.rows_rolled_back as f64);
    metrics.put(
        "repair.partitions_repaired",
        repair.partitions_repaired as f64,
    );
    metrics.put("repair.partitions_total", repair.partitions_total as f64);
    metrics.put("repair.escalations", repair.escalations as f64);
    metrics.put(
        "repair.clone_fallbacks",
        repair.bounded_clone_fallbacks as f64,
    );
    metrics.put("repair.dirty_rows", repair.dirty_rows as f64);
    metrics.put("repair.conflicts", repair.conflicts as f64);
}
