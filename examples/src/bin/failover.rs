//! Failover end to end: a primary ships its log to a warm standby over a
//! byte stream, dies mid-frame while serving traffic (including a stored
//! XSS attack), and the standby promotes into a full primary that serves
//! — and *repairs* — the replicated state. The promoted server's state
//! and repair outcome are verified byte-identical to an uninterrupted
//! in-memory run.
//!
//! ```text
//! usage: failover [DIR] [--phase primary|failover]
//! ```
//!
//! * `--phase primary` — serve the wiki workload forever against a
//!   file-backed store in DIR, shipping every durable batch over
//!   stdin/stdout (the process pipes stand in for a socket). The parent
//!   arms the transport's mid-frame kill point
//!   ([`warp_replica::KILL_MID_FRAME_ENV`]), so after a fixed number of
//!   shipped frames the process writes *half* a frame and aborts — the
//!   torn-stream shape a real primary crash produces. Exits abnormally
//!   *by design*. Never writes to stdout itself: stdout is the wire.
//! * `--phase failover` (default) — spawn itself as the primary, attach a
//!   [`warp_replica::Standby`] over the child's pipes, pump until the
//!   stream tears, verify the child aborted, promote, repair the stored
//!   XSS retroactively, and compare everything against an in-memory
//!   reference that never failed. Prints `FAILOVER OK`.

use std::io::Write as _;
use std::time::{Duration, Instant};
use warp_core::{
    AppConfig, FileBackend, Patch, RepairRequest, RepairStrategy, StoreOptions, Warp, WarpHost,
    WarpServer,
};
use warp_http::HttpRequest;
use warp_replica::{LogShipper, Standby, StreamTransport, KILL_MID_FRAME_ENV};
use warp_ttdb::TableAnnotation;

/// A miniature wiki with a stored-XSS hole in `view.wasl` — the same
/// scenario the crash_recovery example uses, now replicated live.
fn app() -> AppConfig {
    let mut config = AppConfig::new("failover-wiki");
    config.add_table(
        "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
        TableAnnotation::new()
            .row_id("page_id")
            .partitions(["title"]),
    );
    config.seed(
        "INSERT INTO page (page_id, title, body) VALUES \
         (1, 'Main', 'welcome'), (2, 'Page0', 'p0'), (3, 'Page1', 'p1'), \
         (4, 'Page2', 'p2'), (5, 'Secret', 'secret data')",
    );
    config.add_source(
        "view.wasl",
        "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         if (len(rows) == 0) { echo(\"<p>missing</p>\"); return; } \
         echo(\"<div id=\\\"content\\\">\" . rows[0][\"body\"] . \"</div>\"); \
         echo(\"<form action=\\\"/edit.wasl\\\" method=\\\"post\\\">\
               <input type=\\\"hidden\\\" name=\\\"title\\\" value=\\\"\" . param(\"title\") . \"\\\"/>\
               <textarea name=\\\"body\\\">\" . rows[0][\"body\"] . \"</textarea></form>\");",
    );
    config.add_source(
        "edit.wasl",
        "db_query(\"UPDATE page SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         echo(\"<p>saved</p>\");",
    );
    config
}

/// The retroactive fix: sanitise page bodies before emitting them.
fn patch() -> Patch {
    Patch::new(
        "view.wasl",
        "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
         if (len(rows) == 0) { echo(\"<p>missing</p>\"); return; } \
         echo(\"<div id=\\\"content\\\">\" . htmlspecialchars(rows[0][\"body\"]) . \"</div>\"); \
         echo(\"<form action=\\\"/edit.wasl\\\" method=\\\"post\\\">\
               <input type=\\\"hidden\\\" name=\\\"title\\\" value=\\\"\" . htmlspecialchars(param(\"title\")) . \"\\\"/>\
               <textarea name=\\\"body\\\">\" . htmlspecialchars(rows[0][\"body\"]) . \"</textarea></form>\");",
        "sanitise page bodies (stored XSS)",
    )
}

/// The workload step at which the stored-XSS attack lands. By the kill
/// point the attack *and* a victim visit that executed its payload (the
/// scripted defacement of `Secret`) have long since shipped.
const ATTACK_STEP: usize = 10;

/// Frames the primary ships completely before aborting halfway through
/// the next one. With at least one log record per frame this puts the
/// kill well past the attack (record ~20) while the endless workload
/// guarantees it always fires.
const KILL_AFTER_FRAMES: u64 = 48;

/// Serves one deterministic workload step: edits, browser-driven visits
/// (whose client logs must replicate too), and plain views.
fn drive_step<H: WarpHost>(server: &mut H, victim: &mut warp_browser::Browser, step: usize) {
    match step % 3 {
        0 => {
            server.send(HttpRequest::post(
                "/edit.wasl",
                [
                    ("title", format!("Page{}", step % 3).as_str()),
                    ("body", format!("revision {step}").as_str()),
                ],
            ));
        }
        1 => {
            // After the attack, visiting Main runs the payload in the
            // victim's browser, which posts the defacement of Secret.
            let _ = victim.visit("/view.wasl?title=Main", server);
            server.upload_logs(victim.take_logs());
        }
        _ => {
            server.send(HttpRequest::get(&format!(
                "/view.wasl?title=Page{}",
                step % 3
            )));
        }
    }
    if step == ATTACK_STEP {
        let payload =
            "<script>http_post(\"/edit.wasl\", {\"title\": \"Secret\", \"body\": \"DEFACED\"});</script>";
        server.send(HttpRequest::post(
            "/edit.wasl",
            [("title", "Main"), ("body", payload)],
        ));
    }
}

/// The child: a persistent primary shipping its log over stdin/stdout.
/// The workload never ends — the armed kill point in the transport is
/// what takes the process down, mid-frame.
fn phase_primary(dir: &str) -> ! {
    // Only the primary's own subdirectory: the parent's standby store
    // lives under the same DIR.
    let _ = std::fs::remove_dir_all(format!("{dir}/primary"));
    let backend = FileBackend::open(format!("{dir}/primary"))
        .unwrap_or_else(|e| panic!("opening primary store in {dir}: {e}"));
    let transport = StreamTransport::new(std::io::stdin(), std::io::stdout());
    let (mut warp, report) = Warp::builder()
        .app(app())
        .backend(Box::new(backend))
        .ship_log_to(Box::new(LogShipper::new(transport)))
        .build()
        .unwrap_or_else(|e| panic!("building primary in {dir}: {e}"));
    assert!(!report.recovered, "primary phase must start empty");
    let mut victim = warp_browser::Browser::new("victim-browser");
    for step in 0.. {
        drive_step(&mut warp, &mut victim, step);
    }
    unreachable!("the mid-frame kill point never fired");
}

/// The parent: standby, failover, promotion, repair, verification.
fn phase_failover(dir: &str) -> bool {
    let _ = std::fs::remove_dir_all(dir);
    let me = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(&me)
        .args([dir, "--phase", "primary"])
        .env(KILL_MID_FRAME_ENV, KILL_AFTER_FRAMES.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn primary phase");
    let child_in = child.stdin.take().expect("child stdin");
    let child_out = child.stdout.take().expect("child stdout");

    let backend = FileBackend::open(format!("{dir}/standby"))
        .unwrap_or_else(|e| panic!("opening standby store in {dir}: {e}"));
    let mut standby = Standby::attach(
        app(),
        Box::new(backend),
        StoreOptions::default(),
        StreamTransport::new(child_out, child_in),
    )
    .expect("attach standby");

    // Pump until the stream tears (the primary aborts mid-frame).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut applied = 0usize;
    loop {
        let pumped = standby.pump(Duration::from_millis(10)).expect("pump");
        applied += pumped.applied;
        if pumped.closed {
            break;
        }
        if Instant::now() > deadline {
            eprintln!("FAIL: the replication stream never closed");
            let _ = child.kill();
            let _ = child.wait();
            return false;
        }
    }
    let status = child.wait().expect("wait for primary");
    if status.success() {
        eprintln!("FAIL: primary exited cleanly instead of aborting mid-frame");
        return false;
    }
    println!(
        "primary aborted mid-frame ({status}); standby applied {applied} records \
         to LSN {}",
        standby.applied_lsn()
    );
    if applied == 0 {
        eprintln!("FAIL: nothing replicated before the crash");
        return false;
    }

    // Promote: the standby's warm server is handed over as it stands — no
    // store is reopened, no record replays.
    let started = Instant::now();
    let (mut promoted, report) = standby.promote().expect("promote");
    println!(
        "promoted in place in {:?}: records_replayed={} actions={} durable_lsn={}",
        started.elapsed(),
        report.records_replayed,
        promoted.history.len(),
        promoted.durable_lsn()
    );
    if !report.recovered || report.records_replayed != 0 || promoted.history.is_empty() {
        eprintln!("FAIL: promotion did not hand over the replicated state");
        return false;
    }
    // The attack must have replicated: the scripted defacement of Secret
    // is visible on the promoted server before repair. (Canonical dump
    // cells are \u{1f}-separated; matching the full cell distinguishes
    // Secret's body from the payload text stored in Main.)
    let defaced = "Secret\u{1f}DEFACED";
    if !promoted.db.canonical_dump().contains(defaced) {
        eprintln!("FAIL: the attack's effects did not survive the failover");
        return false;
    }

    // The uninterrupted reference: a fresh in-memory server re-serving
    // exactly the requests the promoted history holds, with the same
    // client logs uploaded — the single-node run that never failed.
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
    if promoted.db.canonical_dump() != reference.db.canonical_dump() {
        eprintln!("FAIL: promoted database differs from the in-memory reference");
        return false;
    }
    println!(
        "pre-repair state matches the uninterrupted run ({} actions)",
        promoted.history.len()
    );

    // Repair the attack retroactively on both; the promoted server must
    // produce a byte-identical outcome — failover cost it nothing.
    let request = |patch| RepairRequest::RetroactivePatch {
        patch,
        from_time: 0,
    };
    let strategy = RepairStrategy::Partitioned { workers: 2 };
    let out_promoted = promoted.repair_with(request(patch()), strategy);
    let out_reference = reference.repair_with(request(patch()), strategy);
    let mut ok = true;
    if out_promoted.reexecuted_actions != out_reference.reexecuted_actions {
        eprintln!(
            "FAIL: re-executed sets differ: {:?} vs {:?}",
            out_promoted.reexecuted_actions, out_reference.reexecuted_actions
        );
        ok = false;
    }
    if out_promoted.cancelled_actions != out_reference.cancelled_actions {
        eprintln!(
            "FAIL: cancelled sets differ: {:?} vs {:?}",
            out_promoted.cancelled_actions, out_reference.cancelled_actions
        );
        ok = false;
    }
    if promoted.db.canonical_dump() != reference.db.canonical_dump() {
        eprintln!("FAIL: post-repair databases differ");
        ok = false;
    }
    // The repair must have removed exactly the attack's effects: Secret
    // is restored (the scripted defacements were cancelled), while the
    // attacker's own edit remains — harmless now that rendering escapes.
    let dump = promoted.db.canonical_dump();
    if dump.contains(defaced) || !dump.contains("Secret\u{1f}secret data") {
        eprintln!("FAIL: repair did not restore the defaced page");
        ok = false;
    }
    if ok {
        println!(
            "FAILOVER OK: repair on the promoted standby removed the attack \
             ({} re-executed, {} cancelled)",
            out_promoted.reexecuted_actions.len(),
            out_promoted.cancelled_actions.len()
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: failover [DIR] [--phase primary|failover]");
        println!("\nSpawns a primary that ships its log over process pipes and aborts");
        println!("mid-frame while serving a wiki workload with a stored-XSS attack; a");
        println!("warm standby detects the torn stream, promotes, repairs the attack");
        println!("retroactively, and verifies state and repair outcome match an");
        println!("uninterrupted in-memory run. Default DIR is a temp directory.");
        return;
    }
    let mut dir: Option<String> = None;
    let mut phase = "failover".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--phase" => {
                phase = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--phase requires primary|failover");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                dir = Some(other.to_string());
                i += 1;
            }
        }
    }
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("warp-failover-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    match phase.as_str() {
        "primary" => phase_primary(&dir),
        "failover" => {
            let ok = phase_failover(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::io::stdout().flush();
            if !ok {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("unknown phase `{other}` (primary|failover)");
            std::process::exit(2);
        }
    }
}
