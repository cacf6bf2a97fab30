//! A repair that does not stop the site: the server keeps serving between
//! the steps of a [`RepairRun`], and the requests it serves meanwhile join
//! the repair wherever they meet what it modified.
//!
//! The contract, asserted against a *blocking* repair followed by the same
//! requests: the same application-visible rows, the blocking run's
//! re-executed and cancelled sets plus only actions the run reports as
//! joined, and a log from which recovery and a standby both rebuild the
//! live state byte for byte. Around it: a crash between `start` and
//! `commit`, and administrative messages that arrive while a run is in
//! flight on the `Warp` engine.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use warp_browser::Browser;
use warp_core::{
    AppConfig, MemoryBackend, Patch, RepairOutcome, RepairRequest, RepairRun, RepairStatus,
    RepairStrategy, ServerConfig, StoreOptions, Warp, WarpServer,
};
use warp_http::HttpRequest;
use warp_replica::{channel_pair, LogShipper, Standby};
use warp_store::{DurableStore, StorageBackend};
use warp_ttdb::TableAnnotation;

const TOPICS: usize = 12;

/// Notes partitioned by topic, plus a journal whose rows get synthetic row
/// IDs. `post.wasl` stores bodies raw; the patch wraps them, so a repair
/// rewrites every posted topic and changes what later reads of it saw.
fn app() -> AppConfig {
    let mut config = AppConfig::new("online-notes");
    config.add_table(
        "CREATE TABLE note (note_id INTEGER PRIMARY KEY, topic TEXT UNIQUE, body TEXT)",
        TableAnnotation::new()
            .row_id("note_id")
            .partitions(["topic"]),
    );
    config.add_table(
        "CREATE TABLE entry (topic TEXT, body TEXT)",
        TableAnnotation::new().partitions(["topic"]),
    );
    for t in 0..TOPICS {
        config.seed(format!(
            "INSERT INTO note (note_id, topic, body) VALUES ({}, 't{t}', 'seed {t}')",
            t + 1
        ));
    }
    config.add_source(
        "post.wasl",
        "db_query(\"UPDATE note SET body = '\" . sql_escape(param(\"body\")) . \"' \
         WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); echo(\"posted\");",
    );
    config.add_source(
        "read.wasl",
        "let rows = db_query(\"SELECT body FROM note WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
         if (len(rows) > 0) { echo(rows[0][\"body\"]); } else { echo(\"none\"); }",
    );
    config.add_source(
        "log.wasl",
        "db_query(\"INSERT INTO entry (topic, body) VALUES ('\" . sql_escape(param(\"topic\")) . \"', '\" \
         . sql_escape(param(\"body\")) . \"')\"); echo(\"logged\");",
    );
    config
}

fn patch() -> Patch {
    Patch::new(
        "post.wasl",
        "db_query(\"UPDATE note SET body = '[\" . sql_escape(param(\"body\")) . \"]' \
         WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); echo(\"posted\");",
        "wrap stored notes",
    )
}

fn request() -> RepairRequest {
    RepairRequest::RetroactivePatch {
        patch: patch(),
        from_time: 0,
    }
}

fn options() -> StoreOptions {
    StoreOptions {
        checkpoint_interval: 0,
        ..StoreOptions::default()
    }
}

fn open(backend: &MemoryBackend, options: StoreOptions) -> WarpServer {
    let config = ServerConfig::new(app())
        .with_backend(Box::new(backend.clone()))
        .with_store_options(options);
    WarpServer::open(config).expect("open the store").0
}

/// SplitMix64, so one proptest seed shapes a whole history.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn post(topic: usize, body: &str) -> HttpRequest {
    HttpRequest::post(
        "/post.wasl",
        [("topic", format!("t{topic}").as_str()), ("body", body)],
    )
}

fn read(topic: usize) -> HttpRequest {
    HttpRequest::get(&format!("/read.wasl?topic=t{topic}"))
}

fn log(topic: usize, body: &str) -> HttpRequest {
    HttpRequest::post(
        "/log.wasl",
        [("topic", format!("t{topic}").as_str()), ("body", body)],
    )
}

/// Records a random history on `server`: posts (the repair's seeds) on
/// half the topics, reads, journal inserts, and browser visits whose client
/// logs are uploaded. Returns the `(client, visit)` of every browser visit.
fn history(server: &mut WarpServer, rng: &mut Rng) -> Vec<(String, u64)> {
    let mut visits = Vec::new();
    for i in 0..24 {
        let topic = rng.below(TOPICS);
        match rng.below(4) {
            0 => {
                server.handle(post(topic / 2 * 2, &format!("p{i}")));
            }
            1 => {
                server.handle(read(topic));
            }
            2 => {
                server.handle(log(topic, &format!("h{i}")));
            }
            _ => {
                let client = format!("reader{i}");
                let mut browser = Browser::new(client.clone());
                let visit = browser.visit(&format!("/read.wasl?topic=t{topic}"), server);
                server.upload_client_logs(browser.take_logs());
                visits.push((client, visit.visit_id));
            }
        }
    }
    // Every even topic is posted at least once, so the repair has several
    // independent units and runs in steps.
    for topic in (0..TOPICS).step_by(2) {
        server.handle(post(topic, &format!("last {topic}")));
        server.handle(read(topic));
    }
    visits
}

/// One foreground request served while the repair runs: reads and writes
/// inside and outside the repaired topics, journal inserts (synthetic row
/// IDs), and reads that continue a page visit the repair replays.
fn foreground(rng: &mut Rng, visits: &[(String, u64)], n: usize) -> HttpRequest {
    let topic = rng.below(TOPICS);
    match rng.below(5) {
        0 => post(topic, &format!("f{n}")),
        1 => log(topic, &format!("j{n}")),
        2 if !visits.is_empty() => {
            let (client, visit) = &visits[rng.below(visits.len())];
            let mut request = read(topic);
            request.warp.client_id = Some(client.clone());
            request.warp.visit_id = Some(*visit);
            request.warp.request_id = Some(1 + n as u64);
            request
        }
        _ => read(topic),
    }
}

/// The live state a recovery and a standby must rebuild from the log.
fn assert_log_rebuilds(backend: &MemoryBackend, live: &mut WarpServer) {
    let dump = live.db.canonical_dump();
    let mut recovered = open(&backend.snapshot(), options());
    assert_eq!(recovered.history.len(), live.history.len());
    assert_eq!(recovered.db.canonical_dump(), dump, "recovery diverged");

    let (_, log) = DurableStore::open(Box::new(backend.snapshot()), options()).expect("read log");
    assert!(log.checkpoint.is_none(), "the whole log is the tail");
    let records: Vec<(u8, Vec<u8>)> = log.records.into_iter().map(|(_, k, p)| (k, p)).collect();
    let mut standby = open(&MemoryBackend::new(), options());
    for frame in records.chunks(3) {
        let frame: Vec<(u8, &[u8])> = frame.iter().map(|(k, p)| (*k, p.as_slice())).collect();
        standby.apply_replicated(&frame).expect("apply a frame");
    }
    assert_eq!(standby.history.len(), live.history.len());
    assert_eq!(standby.db.canonical_dump(), dump, "the standby diverged");
}

/// A foreground *write* into the repaired tables: a post or a journal
/// insert.
fn foreground_write(rng: &mut Rng, n: usize) -> HttpRequest {
    let topic = rng.below(TOPICS);
    if rng.below(2) == 0 {
        post(topic, &format!("w{n}"))
    } else {
        log(topic, &format!("w{n}"))
    }
}

/// The frontier walk, stepped with foreground writes (and other requests)
/// served between every pair of steps, against a blocking walk followed by
/// the same requests. `one_cluster` repairs by undoing one browser visit
/// that posted (its seeds are one dependency cluster); otherwise by the
/// patch, whose seeds are the posts of every even topic.
fn walk_equals_blocking(seed: u64, one_cluster: bool) {
    let strategy = RepairStrategy::with_workers(2);
    let mut rng = Rng(seed);
    let backend = MemoryBackend::new();
    let mut live = open(&backend, options());
    let record = |server: &mut WarpServer, rng: &mut Rng| {
        let visits = history(server, rng);
        let mut writer = Browser::new("writer");
        let topic = rng.below(TOPICS);
        let visit = writer.visit(&format!("/post.wasl?topic=t{topic}&body=oops"), server);
        server.handle(read(topic));
        server.upload_client_logs(writer.take_logs());
        (visits, visit.visit_id)
    };
    let (visits, undo) = record(&mut live, &mut rng);
    let repair = || match one_cluster {
        true => RepairRequest::UndoVisit {
            client_id: "writer".into(),
            visit_id: undo,
            initiated_by_admin: true,
        },
        false => request(),
    };
    let floor = live.history.len() as u64;

    let mut run = RepairRun::start(&mut live, repair(), strategy);
    assert!(!run.is_ready(), "the walk has steps");
    let mut served = Vec::new();
    let mut steps = 0;
    loop {
        assert!(
            live.db.repair_generation().is_some(),
            "the walk runs in the live database"
        );
        let request = foreground_write(&mut rng, served.len());
        for request in std::iter::once(request)
            .chain((0..rng.below(3)).map(|_| foreground(&mut rng, &visits, served.len())))
            .collect::<Vec<_>>()
        {
            let response = live.handle(request.clone());
            assert_eq!(response.status, 200, "{request:?}: {}", response.body);
            served.push(request);
        }
        if !run.step(&mut live) {
            break;
        }
        steps += 1;
    }
    assert!(steps > 0);
    let online = run.commit(&mut live);

    let mut blocking = WarpServer::new(app());
    record(&mut blocking, &mut Rng(seed));
    let reference = blocking.repair_with(repair(), strategy);
    for request in &served {
        blocking.handle(request.clone());
    }

    let case = format!("seed {seed}, one cluster {one_cluster}");

    assert!(!online.aborted && !reference.aborted, "{case}");
    assert_eq!(
        live.db.canonical_dump(),
        blocking.db.canonical_dump(),
        "{case}: rows differ from the blocking repair"
    );
    assert_eq!(online.stats.served_during, served.len());
    for (online_ids, reference_ids) in [
        (&online.reexecuted_actions, &reference.reexecuted_actions),
        (&online.cancelled_actions, &reference.cancelled_actions),
    ] {
        let (before, after): (Vec<u64>, Vec<u64>) = online_ids.iter().partition(|&&id| id < floor);
        assert_eq!(&before, reference_ids, "{case}");
        assert!(after.len() <= online.stats.joined, "{case}");
    }
    assert_log_rebuilds(&backend, &mut live);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_stepped_walk_ends_where_a_blocking_one_does(seed in 0..u64::MAX) {

        walk_equals_blocking(seed, true);
        walk_equals_blocking(seed, false);
    }
}

/// The journal's rows the current generation sees, with their synthetic
/// row IDs: recovery must replay inserts with the IDs they were served
/// with, though the walk's own inserts took IDs from the same allocator in
/// between.
fn journal(server: &WarpServer) -> Vec<(i64, String, String)> {
    let t = server.db.raw().table("entry").expect("the journal");
    let at = |c: &str| t.schema.column_index(c).expect("a column");
    let (id, topic, body) = (at("warp_row_id"), at("topic"), at("body"));
    let (end_time, start_gen, end_gen) = (
        at("warp_end_time"),
        at("warp_start_gen"),
        at("warp_end_gen"),
    );
    let gen = server.db.current_generation();
    let int = |v: &warp_sql::Value| v.as_int().expect("a bookkeeping integer");
    let mut rows: Vec<_> = (t.rows().iter())
        .filter(|r| {
            int(&r[start_gen]) <= gen && int(&r[end_gen]) >= gen && int(&r[end_time]) == i64::MAX
        })
        .map(|r| {
            (
                int(&r[id]),
                r[topic].as_display_string(),
                r[body].as_display_string(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// A crash between a walk's `start` and `commit`, with writes served in
/// between: recovery rebuilds the current generation as it stood (the
/// served writes replayed with their row IDs, the repair's discarded),
/// reports the repair pending, and resuming it ends where the
/// uninterrupted walk does. The patch also journals every post, so the
/// walk's inserts and the served ones share the synthetic-ID allocator.
#[test]
fn a_crash_in_the_middle_of_a_walk_resumes_to_the_same_rows() {
    let journaling = || {
        RepairRequest::RetroactivePatch {
        patch: Patch::new(
            "post.wasl",
            "db_query(\"UPDATE note SET body = '[\" . sql_escape(param(\"body\")) . \"]' \
             WHERE topic = '\" . sql_escape(param(\"topic\")) . \"'\"); \
             db_query(\"INSERT INTO entry (topic, body) VALUES ('\" . sql_escape(param(\"topic\")) . \"', 'repaired')\"); \
             echo(\"posted\");",
            "wrap and journal stored notes",
        ),
        from_time: 0,
    }
    };
    let backend = MemoryBackend::new();
    let mut live = open(&backend, options());
    let visits = history(&mut live, &mut Rng(7));
    let strategy = RepairStrategy::with_workers(2);
    let mut run = RepairRun::start(&mut live, journaling(), strategy);
    let mut rng = Rng(11);
    for n in 0..12 {
        let request = if n % 2 == 0 {
            log(n % TOPICS, &format!("served {n}"))
        } else {
            foreground(&mut rng, &visits, n)
        };
        assert_eq!(live.handle(request).status, 200);
        run.step(&mut live);
    }
    let image = backend.snapshot();
    let (at_crash, journal_at_crash) = (live.db.canonical_dump(), journal(&live));
    run.commit(&mut live);

    let (mut recovered, report) = WarpServer::open(
        ServerConfig::new(app())
            .with_backend(Box::new(image))
            .with_store_options(options()),
    )
    .expect("recover the crashed store");
    assert!(report.pending_repair);
    assert_eq!(
        recovered.db.canonical_dump(),
        at_crash,
        "recovery lost or misplaced a write served during the walk"
    );
    assert_eq!(journal(&recovered), journal_at_crash, "row IDs diverged");
    let resumed = recovered
        .resume_pending_repair(strategy)
        .expect("a pending repair");
    assert!(!resumed.aborted);
    assert_eq!(recovered.db.canonical_dump(), live.db.canonical_dump());
}

/// Online vs blocking, for one history and worker count.
fn online_equals_blocking(seed: u64, workers: usize) {
    let strategy = RepairStrategy::Partitioned { workers };
    let mut rng = Rng(seed);
    let backend = MemoryBackend::new();
    let mut live = open(&backend, options());
    let visits = history(&mut live, &mut rng);
    let floor = live.history.len() as u64;

    let mut run = RepairRun::start(&mut live, request(), strategy);
    assert!(!run.is_ready(), "several units: the run has steps");
    let mut served = Vec::new();
    loop {
        for _ in 0..rng.below(4) {
            assert!(
                live.db.repair_generation().is_none(),
                "a foreground request met an open repair generation"
            );
            let request = foreground(&mut rng, &visits, served.len());
            let response = live.handle(request.clone());
            assert_eq!(response.status, 200, "{request:?}: {}", response.body);
            served.push(request);
        }
        if !run.step(&mut live) {
            break;
        }
    }
    let online = run.commit(&mut live);

    let mut blocking = WarpServer::new(app());
    history(&mut blocking, &mut Rng(seed));
    let reference = blocking.repair_with(request(), strategy);
    for request in &served {
        blocking.handle(request.clone());
    }

    assert!(!online.aborted && !reference.aborted);
    assert_eq!(
        live.db.canonical_dump(),
        blocking.db.canonical_dump(),
        "seed {seed}, workers {workers}: rows differ from the blocking repair"
    );
    assert_eq!(online.stats.served_during, served.len());
    assert!(online.stats.joined <= served.len());
    for (online_ids, reference_ids) in [
        (&online.reexecuted_actions, &reference.reexecuted_actions),
        (&online.cancelled_actions, &reference.cancelled_actions),
    ] {
        let (before, after): (Vec<u64>, Vec<u64>) = online_ids.iter().partition(|&&id| id < floor);
        assert_eq!(&before, reference_ids, "seed {seed}, workers {workers}");
        assert!(after.len() <= online.stats.joined);
    }
    assert_log_rebuilds(&backend, &mut live);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn an_online_repair_ends_where_a_blocking_one_does(seed in 0..u64::MAX) {
        for workers in [1, 2, 4] {
            online_equals_blocking(seed, workers);
        }
    }
}

/// Requests served from threads through a sharded `Warp` while a large
/// repair runs, in whatever interleaving the engine sees them (requests
/// take the global lane while the repair runs): the state equals a
/// blocking repair followed by the same requests in the order the engine
/// recorded them, and recovery and a live standby match the primary.
#[test]
fn warp_serves_from_threads_during_a_large_repair() {
    const BIG: usize = 40;
    let big_app = || {
        let mut config = app();
        for t in TOPICS..BIG {
            config.seed(format!(
                "INSERT INTO note (note_id, topic, body) VALUES ({}, 't{t}', 'seed {t}')",
                t + 1
            ));
        }
        config
    };
    let backend = MemoryBackend::new();
    let (to_standby, to_primary) = channel_pair();
    let mut standby = Standby::attach(
        big_app(),
        Box::new(MemoryBackend::new()),
        options(),
        to_primary,
    )
    .expect("attach the standby");
    let (warp, _) = Warp::builder()
        .app(big_app())
        .backend(Box::new(backend.clone()))
        .store_options(options())
        .repair_workers(2)
        .engine_shards(2)
        .ship_log_to(Box::new(LogShipper::new(to_standby)))
        .build()
        .expect("build");
    let mut reference = WarpServer::new(big_app());
    for round in 0..3 {
        for t in 0..BIG {
            for request in [post(t, &format!("r{round} t{t}")), read(t)] {
                warp.serve(request.clone());
                reference.handle(request);
            }
        }
    }
    let floor = warp.with_server(|s| s.history.len());

    let done = Arc::new(AtomicBool::new(false));
    let handle = warp.repair(request());
    let clients: Vec<_> = (0..3u64)
        .map(|c| {
            let warp = warp.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = Rng(c);
                let mut n = 0;
                while !done.load(Ordering::Acquire) && n < 200 {
                    let topic = rng.below(BIG);
                    let request = match rng.below(3) {
                        0 => post(topic, &format!("c{c} n{n}")),
                        1 => log(topic, &format!("c{c} n{n}")),
                        _ => read(topic),
                    };
                    assert_eq!(warp.serve(request).status, 200);
                    n += 1;
                }
            })
        })
        .collect();
    let online: RepairOutcome = handle.join();
    done.store(true, Ordering::Release);
    for client in clients {
        client.join().expect("client thread");
    }
    assert!(!online.aborted);

    let reference_outcome =
        reference.repair_with(request(), RepairStrategy::Partitioned { workers: 2 });
    let served: Vec<HttpRequest> = warp.with_server(move |s| {
        s.history.actions()[floor..]
            .iter()
            .map(|a| a.request.clone())
            .collect()
    });
    for request in served {
        reference.handle(request);
    }
    let (live_dump, live_len) = warp.with_server(|s| (s.db.canonical_dump(), s.history.len()));
    assert_eq!(live_dump, reference.db.canonical_dump());
    let (before, _): (Vec<u64>, Vec<u64>) = online
        .reexecuted_actions
        .iter()
        .partition(|&&id| id < floor as u64);
    assert_eq!(before, reference_outcome.reexecuted_actions);
    assert!(online.stats.joined <= online.stats.served_during);

    warp.flush();
    let target = warp.durable_lsn();
    let deadline = Instant::now() + Duration::from_secs(20);
    while standby.applied_lsn() < target {
        standby.pump(Duration::from_millis(20)).expect("pump");
        assert!(Instant::now() < deadline, "the standby never caught up");
    }
    let standby_dump = standby
        .read_at_most_behind(0, |s| s.db.canonical_dump())
        .expect("caught up");
    assert_eq!(standby_dump, live_dump);
    drop(warp.close());
    let mut recovered = WarpServer::open(
        ServerConfig::new(big_app())
            .with_backend(Box::new(backend.snapshot()))
            .with_store_options(options()),
    )
    .expect("recover")
    .0;
    assert_eq!(recovered.history.len(), live_len);
    assert_eq!(recovered.db.canonical_dump(), live_dump);
}

/// A crash between `start` and `commit`: the store a copy of the backend
/// holds reports the pending repair, carries no checkpoint cut after
/// `RepairBegin` (though enough foreground actions arrived for one), and
/// resuming the repair ends where the uninterrupted run does.
#[test]
fn a_crash_in_the_middle_of_a_run_resumes_to_the_same_rows() {
    let small = StoreOptions {
        checkpoint_interval: 4,
        ..StoreOptions::default()
    };
    let backend = MemoryBackend::new();
    let mut live = open(&backend, small);
    let visits = history(&mut live, &mut Rng(7));
    let blobs_before: BTreeSet<String> = backend.list().expect("list").into_iter().collect();
    let strategy = RepairStrategy::Partitioned { workers: 2 };
    let mut run = RepairRun::start(&mut live, request(), strategy);
    let mut rng = Rng(11);
    for n in 0..9 {
        live.handle(foreground(&mut rng, &visits, n));
        if n % 3 == 2 {
            run.step(&mut live);
        }
    }
    let image = backend.snapshot();
    run.commit(&mut live);

    let checkpoints = |names: &BTreeSet<String>| -> BTreeSet<String> {
        names
            .iter()
            .filter(|n| n.starts_with("ckpt-"))
            .cloned()
            .collect()
    };
    let blobs_at_crash: BTreeSet<String> = image.list().expect("list").into_iter().collect();
    assert_eq!(
        checkpoints(&blobs_at_crash),
        checkpoints(&blobs_before),
        "a checkpoint was cut after RepairBegin"
    );
    let (mut recovered, report) = WarpServer::open(
        ServerConfig::new(app())
            .with_backend(Box::new(image))
            .with_store_options(small),
    )
    .expect("recover the crashed store");
    assert!(report.pending_repair);
    assert!(recovered.pending_repair().is_some());
    let resumed = recovered
        .resume_pending_repair(strategy)
        .expect("a pending repair");
    assert!(!resumed.aborted);
    assert_eq!(recovered.db.canonical_dump(), live.db.canonical_dump());
}

/// `with_server`, `checkpoint`, a second repair and `close` sent while a
/// run is in flight each wait for its commit, and every handle joins.
#[test]
fn administrative_messages_wait_for_the_running_repair() {
    let backend = MemoryBackend::new();
    let (warp, _) = Warp::builder()
        .app(app())
        .backend(Box::new(backend.clone()))
        .store_options(options())
        .repair_workers(2)
        .build()
        .expect("build");
    let mut reference = WarpServer::new(app());
    for t in 0..TOPICS {
        for request in [post(t, &format!("x{t}")), read(t)] {
            warp.serve(request.clone());
            reference.handle(request);
        }
    }
    let generation = warp.with_server(|s| s.db.current_generation());

    let first = warp.repair(request());
    let seen = warp.with_server(|s| (s.db.current_generation(), s.db.repair_generation()));
    assert_eq!(
        seen,
        (generation + 1, None),
        "with_server ran before the commit"
    );
    assert_eq!(first.status(), RepairStatus::Completed);

    let second = warp.repair(request());
    warp.checkpoint();
    assert_eq!(second.status(), RepairStatus::Completed);

    let third = warp.repair(request());
    let mut server = warp.close();
    for handle in [first, second, third] {
        assert!(!handle.join().aborted);
    }
    for _ in 0..3 {
        reference.repair_with(request(), RepairStrategy::Partitioned { workers: 2 });
    }
    assert_eq!(server.db.current_generation(), generation + 3);
    assert_eq!(server.db.canonical_dump(), reference.db.canonical_dump());
}
