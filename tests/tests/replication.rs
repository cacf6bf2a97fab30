//! Cross-crate replication tests: a primary `Warp` shipping its log to a
//! `warp_replica::Standby`, checked for byte-identity at every shipped
//! batch boundary and through a full promoted-standby attack recovery.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use warp_browser::Browser;
use warp_core::{
    AppConfig, Durability, MemoryBackend, Patch, RepairRequest, RepairRun, RepairStrategy,
    ServerConfig, ShipFrame, StorageBackend, StoreError, StoreOptions, Warp, WarpServer,
};
use warp_http::HttpRequest;
use warp_replica::{
    channel_pair, ChannelTransport, LogShipper, Received, ReplicaTransport, Standby,
};
use warp_store::{DurableStore, StoreResult};
use warp_ttdb::TableAnnotation;

/// The wiki used throughout: three pages, a view with a stored-XSS hole,
/// an edit endpoint.
fn app() -> AppConfig {
    let mut config = AppConfig::new("replica-wiki");
    config.add_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
        TableAnnotation::new()
            .row_id("page_id")
            .partitions(["title"]),
    );
    config.seed(
        "INSERT INTO page (page_id, title, body) VALUES \
         (1, 'Page0', 'p0'), (2, 'Page1', 'p1'), (3, 'Secret', 'secret data')",
    );
    config.add_source(
        "view.wasl",
        "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         if (len(rows) == 0) { echo(\"missing\"); return; } \
         echo(\"<div>\" . rows[0][\"body\"] . \"</div>\");",
    );
    config.add_source(
        "edit.wasl",
        "db_query(\"UPDATE page SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         echo(\"saved\");",
    );
    config
}

/// The retroactive fix for the view's stored-XSS hole.
fn patch() -> Patch {
    Patch::new(
        "view.wasl",
        "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         if (len(rows) == 0) { echo(\"missing\"); return; } \
         echo(\"<div>\" . htmlspecialchars(rows[0][\"body\"]) . \"</div>\");",
        "sanitise page bodies",
    )
}

/// Pumps the standby until it has applied every record the primary made
/// durable.
fn converge(standby: &mut Standby, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while standby.applied_lsn() < target {
        standby.pump(Duration::from_millis(20)).expect("pump");
        assert!(
            Instant::now() < deadline,
            "standby stuck at {} of {target}",
            standby.applied_lsn()
        );
    }
}

/// A transport wrapper with an armable corruption point: while armed, the
/// next outgoing frame loses its last byte's integrity — the torn-frame
/// shape a crash mid-write or a flipped bit in transit produces.
struct TearNext<T> {
    inner: T,
    armed: Arc<AtomicBool>,
}

impl<T: ReplicaTransport> ReplicaTransport for TearNext<T> {
    fn send(&mut self, mut frame: Vec<u8>) -> bool {
        if self.armed.swap(false, Ordering::SeqCst) {
            if let Some(last) = frame.last_mut() {
                *last ^= 0xff;
            }
        }
        self.inner.send(frame)
    }

    fn recv(&mut self, timeout: Duration) -> Received {
        self.inner.recv(timeout)
    }
}

/// One step of the random replicated workload, decoded from a generated
/// `(code, page, body)` tuple (the vendored proptest shim has no
/// `prop_oneof`/`prop_map` combinators):
///
/// * codes 0–3 — edit `page` (bodies include markup, so repairs have
///   work to do),
/// * codes 4–5 — view `page` (an action the retroactive patch
///   re-executes),
/// * code 6 — run a retroactive-patch repair on the primary mid-stream
///   (its begin/commit records replicate like any other),
/// * code 7 — fold the primary's checkpoint chain (a base checkpoint
///   deletes every shipped segment — the stream must not care).
#[derive(Debug, Clone)]
enum Op {
    Edit { page: usize, body: String },
    View { page: usize },
    Repair,
    Checkpoint,
}

fn decode_op((code, page, body): (u32, usize, String)) -> Op {
    match code {
        0..=3 => Op::Edit { page, body },
        4..=5 => Op::View { page },
        6 => Op::Repair,
        _ => Op::Checkpoint,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The standby's canonical dump is byte-identical to the primary's at
    /// *every* shipped-batch boundary — under random workloads, repair
    /// commits mid-stream, checkpoint folds on the primary, and a torn
    /// final frame. With [`Durability::Immediate`] each acknowledged
    /// request is its own durable batch, so checking after every op checks
    /// every boundary.
    #[test]
    fn standby_matches_primary_at_every_batch_boundary(
        raw_ops in proptest::collection::vec((0..8u32, 0..2usize, "[a-z<>\"']{0,12}"), 1..10),
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(decode_op).collect();
        let (to_standby, to_primary) = channel_pair();
        let armed = Arc::new(AtomicBool::new(false));
        let tearing = TearNext { inner: to_standby, armed: Arc::clone(&armed) };
        // A short checkpoint cadence so the standby folds its own chain
        // mid-stream.
        let standby_options = StoreOptions {
            checkpoint_interval: 4,
            fold_after_deltas: 2,
            ..StoreOptions::default()
        };
        let mut standby = Standby::attach(
            app(),
            Box::new(MemoryBackend::new()),
            standby_options,
            to_primary,
        )
        .expect("attach standby");
        let (warp, _) = Warp::builder()
            .app(app())
            .backend(Box::new(MemoryBackend::new()))
            .durability(Durability::Immediate)
            .repair_workers(2)
            .ship_log_to(Box::new(LogShipper::new(tearing)))
            .build()
            .expect("build primary");

        for op in &ops {
            match op {
                Op::Edit { page, body } => {
                    warp.serve(HttpRequest::post(
                        "/edit.wasl",
                        [
                            ("title", format!("Page{page}").as_str()),
                            ("body", body.as_str()),
                        ],
                    ));
                }
                Op::View { page } => {
                    warp.serve(HttpRequest::get(&format!("/view.wasl?title=Page{page}")));
                }
                Op::Repair => {
                    warp.repair(RepairRequest::RetroactivePatch {
                        patch: patch(),
                        from_time: 0,
                    })
                    .join();
                }
                Op::Checkpoint => {
                    warp.checkpoint();
                }
            }
            warp.flush();
            converge(&mut standby, warp.durable_lsn());
            let primary_dump = warp.with_server(|s| s.db.canonical_dump());
            let standby_dump = standby
                .read_at_most_behind(0, |s| s.db.canonical_dump())
                .expect("standby caught up");
            prop_assert_eq!(primary_dump, standby_dump, "diverged after {:?}", op);
        }

        // The torn final frame: the next shipped frame arrives corrupted;
        // the standby must detect it, resync, and still end identical.
        armed.store(true, Ordering::SeqCst);
        warp.serve(HttpRequest::post(
            "/edit.wasl",
            [("title", "Page0"), ("body", "after the tear")],
        ));
        warp.flush();
        converge(&mut standby, warp.durable_lsn());
        let primary_dump = warp.with_server(|s| s.db.canonical_dump());
        let standby_dump = standby
            .read_at_most_behind(0, |s| s.db.canonical_dump())
            .expect("standby caught up after torn frame");
        prop_assert_eq!(primary_dump, standby_dump);
    }
}

/// The acceptance scenario end to end, in process: a stored-XSS attack is
/// recorded on the primary, the primary dies mid-traffic, the standby
/// promotes, and a retroactive-patch repair on the *promoted* server
/// removes exactly the attack's effects — with a final state
/// byte-identical to a single-node run that never failed.
#[test]
fn promoted_standby_recovers_from_a_replicated_attack() {
    use warp_browser::Browser;
    use warp_core::WarpHost;

    let (to_standby, to_primary) = channel_pair();
    let mut standby = Standby::attach(
        app(),
        Box::new(MemoryBackend::new()),
        StoreOptions::default(),
        to_primary,
    )
    .expect("attach standby");
    let (mut warp, _) = Warp::builder()
        .app(app())
        .backend(Box::new(MemoryBackend::new()))
        .durability(Durability::Immediate)
        .ship_log_to(Box::new(LogShipper::new(to_standby)))
        .build()
        .expect("build primary");

    // Normal traffic, then the attack, then a victim's browser executes
    // the payload (defacing Secret) and uploads its logs.
    let mut victim = Browser::new("victim");
    for i in 0..3 {
        warp.serve(HttpRequest::post(
            "/edit.wasl",
            [("title", "Page1"), ("body", format!("rev {i}").as_str())],
        ));
    }
    let payload =
        "<script>http_post(\"/edit.wasl\", {\"title\": \"Secret\", \"body\": \"DEFACED\"});</script>";
    warp.serve(HttpRequest::post(
        "/edit.wasl",
        [("title", "Page0"), ("body", payload)],
    ));
    let _ = victim.visit("/view.wasl?title=Page0", &mut warp);
    warp.upload_logs(victim.take_logs());
    warp.serve(HttpRequest::post(
        "/edit.wasl",
        [("title", "Page1"), ("body", "post-attack rev")],
    ));
    warp.flush();

    // The primary dies mid-traffic. The channel (like a socket) still
    // holds the acked tail; the standby drains it and sees the close.
    drop(warp);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !standby
        .pump(Duration::from_millis(20))
        .expect("pump")
        .closed
    {
        assert!(Instant::now() < deadline, "transport never closed");
    }

    let (mut promoted, report) = standby.promote().expect("promote");
    assert!(report.recovered);
    let defaced = "Secret\u{1f}DEFACED";
    assert!(
        promoted.db.canonical_dump().contains(defaced),
        "the attack must have replicated before the crash"
    );

    // The single-node run that never failed: re-serve the promoted
    // history's requests and logs against a fresh in-memory server.
    let mut reference = WarpServer::new(app());
    for action in promoted.history.actions().to_vec() {
        reference.handle(action.request);
    }
    for client in promoted.history.client_ids() {
        let logs: Vec<_> = promoted
            .history
            .client_visits(&client)
            .into_iter()
            .cloned()
            .collect();
        reference.upload_client_logs(logs);
    }
    assert_eq!(
        promoted.db.canonical_dump(),
        reference.db.canonical_dump(),
        "promoted state must match the never-failed run before repair"
    );

    // Repair both identically: the promoted standby must remove exactly
    // the attack's effects and end byte-identical.
    let request = |patch| RepairRequest::RetroactivePatch {
        patch,
        from_time: 0,
    };
    let strategy = RepairStrategy::Partitioned { workers: 2 };
    let out_promoted = promoted.repair_with(request(patch()), strategy);
    let out_reference = reference.repair_with(request(patch()), strategy);
    assert_eq!(
        out_promoted.reexecuted_actions,
        out_reference.reexecuted_actions
    );
    assert_eq!(
        out_promoted.cancelled_actions,
        out_reference.cancelled_actions
    );
    assert!(
        !out_promoted.cancelled_actions.is_empty(),
        "the scripted defacement must be cancelled"
    );
    let dump = promoted.db.canonical_dump();
    assert_eq!(dump, reference.db.canonical_dump());
    assert!(!dump.contains(defaced), "repair must undo the defacement");
    assert!(
        dump.contains("Secret\u{1f}secret data"),
        "Secret must be restored"
    );
}

fn edit(warp: &Warp, page: usize, body: &str) {
    let response = warp.serve(HttpRequest::post(
        "/edit.wasl",
        [("title", format!("Page{page}").as_str()), ("body", body)],
    ));
    assert!(response.body.contains("saved"));
}

/// A memory backend whose reads can be made to fail — the disk going bad
/// under the shipper's resync path while appends still succeed.
#[derive(Debug, Clone)]
struct FailingReads {
    inner: MemoryBackend,
    failing: Arc<AtomicBool>,
    refused: Arc<AtomicUsize>,
}

impl StorageBackend for FailingReads {
    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        if self.failing.load(Ordering::SeqCst) {
            self.refused.fetch_add(1, Ordering::SeqCst);
            return Err(StoreError::Io(std::io::Error::other(
                "injected read failure",
            )));
        }
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.inner.append(name, data)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        self.inner.write_atomic(name, data)
    }

    fn delete(&mut self, name: &str) -> StoreResult<()> {
        self.inner.delete(name)
    }
}

/// The shipper is a *reader* of the primary's store: when the read behind
/// a standby's restart request fails, shipping stops — and nothing else.
/// The group-commit writer keeps committing, acknowledgements keep
/// releasing, the durable LSN keeps advancing.
#[test]
fn a_failed_resync_read_quiets_the_shipper_and_never_the_primary() {
    let backend = FailingReads {
        inner: MemoryBackend::new(),
        failing: Arc::new(AtomicBool::new(false)),
        refused: Arc::new(AtomicUsize::new(0)),
    };
    let (to_standby, to_primary) = channel_pair();
    let (warp, _) = Warp::builder()
        .app(app())
        .backend(Box::new(backend.clone()))
        .durability(Durability::Immediate)
        .ship_log_to(Box::new(LogShipper::new(to_standby)))
        .build()
        .expect("build primary");
    for i in 0..3 {
        edit(&warp, 0, &format!("before {i}"));
    }
    // The disk starts refusing reads, then a standby says hello: the
    // shipper must serve records 0..3 out of segments it cannot read.
    backend.failing.store(true, Ordering::SeqCst);
    let mut standby = Standby::attach(
        app(),
        Box::new(MemoryBackend::new()),
        StoreOptions::default(),
        to_primary,
    )
    .expect("attach standby");
    for i in 0..3 {
        edit(&warp, 1, &format!("after {i}"));
    }
    warp.flush();
    assert_eq!(warp.durable_lsn(), 6, "the primary kept committing");
    assert!(
        backend.refused.load(Ordering::SeqCst) > 0,
        "the resync read must have been attempted and refused"
    );
    // The shipper went quiet: nothing torn, nothing partial, reaches the
    // standby.
    standby.pump(Duration::from_millis(50)).expect("pump");
    assert_eq!(standby.applied_lsn(), 0);
    let view = warp.serve(HttpRequest::get("/view.wasl?title=Page1"));
    assert!(view.body.contains("after 2"));
}

/// Acknowledged implies present across a promotion, even for a caller that
/// promotes without a last `pump`: whole frames already received are
/// applied first. A torn frame ends that drain — what precedes it is kept,
/// and nobody is asked to resend to a standby that is about to stop
/// listening.
#[test]
fn promote_applies_the_frames_already_received() {
    const ACKED: usize = 10;
    let (to_standby, to_primary) = channel_pair();
    let armed = Arc::new(AtomicBool::new(false));
    let tearing = TearNext {
        inner: to_standby,
        armed: Arc::clone(&armed),
    };
    let mut standby = Standby::attach(
        app(),
        Box::new(MemoryBackend::new()),
        StoreOptions::default(),
        to_primary,
    )
    .expect("attach standby");
    let (warp, _) = Warp::builder()
        .app(app())
        .backend(Box::new(MemoryBackend::new()))
        .durability(Durability::Immediate)
        .ship_log_to(Box::new(LogShipper::new(tearing)))
        .build()
        .expect("build primary");
    for i in 0..ACKED / 2 {
        edit(&warp, i % 2, &format!("rev {i}"));
    }
    converge(&mut standby, warp.durable_lsn());
    // The second half is acknowledged by the primary and shipped, but the
    // standby never pumps again before it is promoted.
    for i in ACKED / 2..ACKED {
        edit(&warp, i % 2, &format!("rev {i}"));
    }
    let acked_dump = warp.with_server(|s| s.db.canonical_dump());
    // One more request whose frame tears in transit, and one after it.
    armed.store(true, Ordering::SeqCst);
    edit(&warp, 0, "torn in transit");
    edit(&warp, 1, "behind the torn frame");
    drop(warp);
    assert_eq!(standby.applied_lsn(), (ACKED / 2) as u64);

    let (mut promoted, report) = standby.promote().expect("promote");
    assert!(report.recovered);
    assert_eq!(report.records_replayed, 0, "a hand-over replays nothing");
    assert_eq!(promoted.history.len(), ACKED);
    assert_eq!(promoted.durable_lsn(), ACKED as u64);
    assert_eq!(promoted.db.canonical_dump(), acked_dump);
}

/// [`app`] plus a table with a synthetic row ID and a page that draws on
/// every counter a recovered server must continue exactly: a session ID, a
/// random number, the clock and a fresh synthetic row ID per request.
fn journal_app() -> AppConfig {
    let mut config = app();
    config.add_table(
        "CREATE TABLE note (author TEXT, body TEXT)",
        TableAnnotation::new().partitions(["author"]),
    );
    config.add_source(
        "note.wasl",
        "let sid = session_start(); \
         db_query(\"INSERT INTO note (author, body) VALUES ('\" . sql_escape(param(\"author\")) . \"', '\" . sid . \"')\"); \
         echo(sid . \" \" . rand() . \" \" . time());",
    );
    config
}

fn journal_options(checkpoint_interval: u64) -> StoreOptions {
    StoreOptions {
        checkpoint_interval,
        fold_after_deltas: 2,
        ..StoreOptions::default()
    }
}

fn open_journal(backend: &MemoryBackend, options: StoreOptions) -> WarpServer {
    let config = ServerConfig::new(journal_app())
        .with_backend(Box::new(backend.clone()))
        .with_store_options(options);
    WarpServer::open(config).expect("open a journal server").0
}

fn tagged(mut request: HttpRequest, client: &str, visit: u64) -> HttpRequest {
    request.warp.client_id = Some(client.into());
    request.warp.visit_id = Some(visit);
    request.warp.request_id = Some(0);
    request
}

/// Records a history on a never-checkpointing primary and returns its log,
/// record for record. `raw_ops` picks the traffic; a closing section makes
/// sure every record kind is in every log: a client-log upload, a committed
/// repair (begin + commit) and an aborted one (begin + abort).
fn recorded_log(raw_ops: &[(u32, usize, String)]) -> Vec<(u8, Vec<u8>)> {
    let backend = MemoryBackend::new();
    let options = journal_options(0);
    let mut primary = open_journal(&backend, options);
    let mut visits = 0u64;
    let mut step = |primary: &mut WarpServer, code: u32, page: usize, body: &str| {
        visits += 1;
        let title = format!("Page{page}");
        match code {
            0..=2 => {
                let form = [("title", title.as_str()), ("body", body)];
                primary.handle(HttpRequest::post("/edit.wasl", form));
            }
            3 => {
                primary.handle(HttpRequest::get(&format!("/view.wasl?title={title}")));
            }
            4 => {
                primary.handle(HttpRequest::post("/note.wasl", [("author", body)]));
            }
            5 => {
                let mut reader = Browser::new(format!("reader-{visits}"));
                let _ = reader.visit(&format!("/view.wasl?title={title}"), primary);
                primary.upload_client_logs(reader.take_logs());
            }
            6 => {
                let outcome = primary.repair(RepairRequest::RetroactivePatch {
                    patch: patch(),
                    from_time: 0,
                });
                assert!(!outcome.aborted);
            }
            _ => {
                // A write by one user (unlike any before it), read by
                // another without the extension: the writer's own undo
                // would change what the bystander saw, so it aborts.
                let body = format!("{body} by writer #{visits}");
                let form = [("title", title.as_str()), ("body", body.as_str())];
                let write = HttpRequest::post("/edit.wasl", form);
                primary.handle(tagged(write, "writer", visits));
                let read = HttpRequest::get(&format!("/view.wasl?title={title}"));
                primary.handle(tagged(read, "bystander", visits));
                let outcome = primary.repair(RepairRequest::UndoVisit {
                    client_id: "writer".into(),
                    visit_id: visits,
                    initiated_by_admin: false,
                });
                assert!(outcome.aborted, "a conflicting non-admin undo aborts");
            }
        }
    };
    for (code, page, body) in raw_ops {
        step(&mut primary, *code, *page, body);
    }
    for code in [5, 0, 6, 4, 7, 3] {
        step(&mut primary, code, 1, "<b>closing</b>");
    }
    drop(primary);
    let (_, recovered) = DurableStore::open(Box::new(backend), options).expect("read the log");
    assert!(recovered.checkpoint.is_none(), "the whole log is the tail");
    recovered
        .records
        .into_iter()
        .map(|(_, kind, payload)| (kind, payload))
        .collect()
}

fn records_frame(first_lsn: usize, records: &[(u8, Vec<u8>)]) -> Vec<u8> {
    ShipFrame::Records {
        first_lsn: first_lsn as u64,
        records: records.iter().map(|(k, p)| (*k, p.as_slice())).collect(),
    }
    .encode()
}

/// A `Bootstrap` frame carrying a compacted store that holds `records`.
fn bootstrap_frame(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let image = MemoryBackend::new();
    let mut source = open_journal(&image, journal_options(0));
    let borrowed: Vec<(u8, &[u8])> = records.iter().map(|(k, p)| (*k, p.as_slice())).collect();
    source.apply_replicated(&borrowed).expect("build the image");
    source.checkpoint();
    drop(source);
    let blobs: Vec<(String, Vec<u8>)> = image
        .list()
        .expect("list the image")
        .into_iter()
        .map(|name| {
            let bytes = image.read(&name).expect("read").expect("listed blob");
            (name, bytes)
        })
        .collect();
    ShipFrame::Bootstrap {
        blobs: blobs
            .iter()
            .map(|(n, b)| (n.as_str(), b.as_slice()))
            .collect(),
        next_lsn: records.len() as u64,
    }
    .encode()
}

/// The restart request the standby sent, if any.
fn restart_requested(link: &mut ChannelTransport) -> Option<u64> {
    let mut from = None;
    while let Received::Frame(bytes) = link.recv(Duration::ZERO) {
        if let Some(ShipFrame::Restart { from: lsn }) = ShipFrame::decode(&bytes) {
            from = Some(lsn);
        }
    }
    from
}

/// The log record kind of a `RepairBegin` (`warp-core`'s wire constant).
const KIND_REPAIR_BEGIN: u8 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Promotion in place ≡ crash recovery of the standby's own store. A
    /// recorded primary log is cut at a random point (every fourth case
    /// right after a `RepairBegin`, so the repair is pending) and fed to a
    /// standby by a scripted shipper — frames of random size, one of them
    /// torn and resynced, one replaced by a `Bootstrap` rebuild, the last
    /// left unpumped for `promote` to drain — while the standby cuts its
    /// own base, delta and folded checkpoints. The server `promote` hands
    /// over (which logs a `RepairInterrupted` over a pending repair) and
    /// the server `WarpServer::open` rebuilds from a copy of the standby's
    /// backend must then be indistinguishable: same dump,
    /// history, LSN and pending repair; the same responses, action IDs and
    /// dump after the same three further requests (clock, RNG, session and
    /// synthetic-ID counters continue alike); and, after one more
    /// checkpoint each, stores that recover to the same state again.
    #[test]
    fn promotion_in_place_equals_recovery_of_the_standbys_store(
        raw_ops in proptest::collection::vec((0..8u32, 0..2usize, "[a-z<>\"']{0,12}"), 0..8),
        shape in (0..1000usize, 1..6usize, 0..6u64, 0..12usize, 0..12usize),
    ) {
        let (cut_pick, frame_len, checkpoint_interval, tear_at, bootstrap_at) = shape;
        let log = recorded_log(&raw_ops);
        let begins: Vec<usize> = (0..log.len()).filter(|&i| log[i].0 == KIND_REPAIR_BEGIN).collect();
        let cut = if cut_pick % 4 == 0 {
            begins[(cut_pick / 4) % begins.len()] + 1
        } else {
            cut_pick % (log.len() + 1)
        };
        let log = &log[..cut];

        let options = journal_options(checkpoint_interval);
        let standby_disk = MemoryBackend::new();
        let (mut link, to_primary) = channel_pair();
        let mut standby = Standby::attach(
            journal_app(),
            Box::new(standby_disk.clone()),
            options,
            to_primary,
        )
        .expect("attach standby");
        prop_assert_eq!(restart_requested(&mut link), Some(0), "the hello");

        let mut next = 0;
        let mut frame_no = 0;
        while next < log.len() {
            let end = (next + frame_len).min(log.len());
            if frame_no == tear_at {
                let mut torn = records_frame(next, &log[next..end]);
                *torn.last_mut().expect("non-empty frame") ^= 0xff;
                prop_assert!(link.send(torn));
                standby.pump(Duration::ZERO).expect("pump");
                prop_assert_eq!(restart_requested(&mut link), Some(next as u64));
            }
            if frame_no == bootstrap_at {
                prop_assert!(link.send(bootstrap_frame(&log[..end])));
            } else {
                prop_assert!(link.send(records_frame(next, &log[next..end])));
            }
            next = end;
            frame_no += 1;
            if next < log.len() {
                standby.pump(Duration::ZERO).expect("pump");
                prop_assert_eq!(standby.applied_lsn(), next as u64);
            }
        }
        drop(link);

        let (mut promoted, report) = standby.promote().expect("promote");
        let disk_copy = standby_disk.snapshot();
        let (mut recovered, recovery) = WarpServer::open(
            ServerConfig::new(journal_app())
                .with_backend(Box::new(disk_copy.clone()))
                .with_store_options(options),
        )
        .expect("recover a copy of the standby's store");

        prop_assert_eq!(report.records_replayed, 0);
        prop_assert_eq!(report.recovered, recovery.recovered);
        prop_assert_eq!(report.pending_repair, recovery.pending_repair);
        prop_assert_eq!(report.pending_repair, log.last().is_some_and(|r| r.0 == KIND_REPAIR_BEGIN));
        // Promotion over a pending repair logs its `RepairInterrupted`.
        prop_assert_eq!(promoted.durable_lsn(), (cut + usize::from(report.pending_repair)) as u64);
        prop_assert_eq!(promoted.durable_lsn(), recovered.durable_lsn());
        prop_assert_eq!(promoted.history.actions(), recovered.history.actions());
        prop_assert_eq!(
            format!("{:?}", promoted.pending_repair()),
            format!("{:?}", recovered.pending_repair())
        );
        prop_assert_eq!(promoted.db.canonical_dump(), recovered.db.canonical_dump());

        let further = [
            HttpRequest::post("/note.wasl", [("author", "after the failover")]),
            HttpRequest::post("/edit.wasl", [("title", "Page0"), ("body", "<i>new primary</i>")]),
            HttpRequest::get("/view.wasl?title=Page0"),
        ];
        for request in further {
            let served = promoted.handle(request.clone());
            prop_assert_eq!(&served, &recovered.handle(request));
            prop_assert_eq!(served.status, 200);
            prop_assert_eq!(promoted.history.actions().last(), recovered.history.actions().last());
        }
        prop_assert_eq!(promoted.db.canonical_dump(), recovered.db.canonical_dump());

        // Both keep checkpointing onto the chain they have, and a crash
        // right after recovers either store to the same state.
        let dump = promoted.db.canonical_dump();
        let actions = promoted.history.len();
        for mut server in [promoted, recovered] {
            server.checkpoint_incremental();
            drop(server);
        }
        for disk in [standby_disk, disk_copy] {
            let mut again = open_journal(&disk, options);
            prop_assert_eq!(again.history.len(), actions);
            prop_assert_eq!(&again.db.canonical_dump(), &dump);
        }
    }
}

/// A primary that crashes in the middle of a walk, restarts and goes on
/// serving without resuming the repair. A standby following its log holds
/// back the writes served during the walk until the restarted primary's
/// `RepairInterrupted`, and from there on applies every write as it
/// arrives: it equals the primary at every batch boundary after the
/// restart, cuts checkpoints again, and a second recovery of the primary's
/// log rebuilds the same rows.
#[test]
fn a_standby_follows_a_primary_restarted_in_the_middle_of_a_walk() {
    let options = journal_options(0);
    let disk = MemoryBackend::new();
    let mut primary = open_journal(&disk, options);
    for n in 0..4 {
        let page = format!("Page{}", n % 2);
        let body = format!("<b>v{n}</b>");
        primary.handle(HttpRequest::post(
            "/edit.wasl",
            [("title", page.as_str()), ("body", &body)],
        ));
        primary.handle(HttpRequest::get(&format!("/view.wasl?title={page}")));
    }
    let request = RepairRequest::RetroactivePatch {
        patch: patch(),
        from_time: 0,
    };
    let mut run = RepairRun::start(&mut primary, request, RepairStrategy::with_workers(1));
    for n in 0..3 {
        let body = format!("during {n}");
        primary.handle(HttpRequest::post(
            "/edit.wasl",
            [("title", "Page0"), ("body", &body)],
        ));
        primary.handle(HttpRequest::post("/note.wasl", [("author", body.as_str())]));
        run.step(&mut primary);
    }
    // The crash: the store as it stood, mid-walk.
    let image = disk.snapshot();
    drop(run);
    drop(primary);

    let standby_options = StoreOptions {
        checkpoint_interval: 4,
        fold_after_deltas: 2,
        ..StoreOptions::default()
    };
    let standby_disk = MemoryBackend::new();
    let (mut standby, _) = WarpServer::open_standby(
        ServerConfig::new(journal_app())
            .with_backend(Box::new(standby_disk.clone()))
            .with_store_options(standby_options),
    )
    .expect("open the standby");
    let mut shipped = 0;
    let mut ship = |standby: &mut WarpServer| {
        let (_, log) =
            DurableStore::open(Box::new(image.snapshot()), options).expect("read the log");
        let records: Vec<(u8, &[u8])> = (log.records[shipped..].iter())
            .map(|(_, kind, payload)| (*kind, payload.as_slice()))
            .collect();
        standby.apply_replicated(&records).expect("apply the frame");
        shipped = log.records.len();
    };
    ship(&mut standby);

    let (mut restarted, report) = WarpServer::open(
        ServerConfig::new(journal_app())
            .with_backend(Box::new(image.clone()))
            .with_store_options(options),
    )
    .expect("restart the primary");
    assert!(report.pending_repair);
    for round in 0..4 {
        ship(&mut standby);
        assert_eq!(
            standby.db.canonical_dump(),
            restarted.db.canonical_dump(),
            "the standby diverged before round {round}"
        );
        for n in 0..3 {
            let body = format!("after {round}.{n}");
            let form = [("title", "Page1"), ("body", body.as_str())];
            restarted.handle(HttpRequest::post("/edit.wasl", form));
            restarted.handle(HttpRequest::post("/note.wasl", [("author", body.as_str())]));
        }
    }
    ship(&mut standby);
    assert_eq!(standby.db.canonical_dump(), restarted.db.canonical_dump());
    assert!(
        standby.pending_repair().is_some(),
        "the repair stays pending"
    );
    let (_, standby_store) =
        DurableStore::open(Box::new(standby_disk.snapshot()), standby_options).expect("read");
    assert!(
        standby_store.checkpoint.is_some(),
        "the standby cut no checkpoint after the restart"
    );

    let dump = restarted.db.canonical_dump();
    drop(restarted);
    let (mut again, report) = WarpServer::open(
        ServerConfig::new(journal_app())
            .with_backend(Box::new(image))
            .with_store_options(options),
    )
    .expect("recover the restarted primary");
    assert!(report.pending_repair);
    assert_eq!(again.db.canonical_dump(), dump);
}
