//! A repair that does not stop the site (paper §4.3), through the concurrent
//! façade. The repair re-executes inside the repair generation of the live
//! database while the engine keeps serving: it walks the repair one
//! re-executed action at a time and answers queued requests between steps
//! in the current generation. Those requests are logged as ordinary
//! actions and the repair judges them at its tail like any other; the site
//! pauses only for the commit that switches generations. The repair itself
//! is first-class — a [`warp_core::RepairHandle`] whose status is polled
//! while it runs.
//!
//! Two repairs run this way: a patch of the search page, whose seeds are
//! forty independent searches, and a patch of the SQL-injectable
//! maintenance page, whose one seed (the injection, which overwrote every
//! page) is a single dependency cluster — the shape that used to run in one
//! piece at the commit and stall the site for all of it.
//!
//! The binary checks the claim and exits non-zero unless, for both repairs,
//! every request a client thread sent while the repair ran was answered
//! with 200, and the application-visible rows after `join` equal those of a
//! reference run that served the same requests after a completed repair.

use warp_apps::attacks::AttackKind;
use warp_apps::wiki::{wiki_app, wiki_patch, wiki_search_patch};
use warp_core::{RepairRequest, Warp};
use warp_http::HttpRequest;

const PAGES: usize = 4;
const SEARCHES: usize = 40;

/// One repair to run while a client keeps sending requests: the history
/// to record first, and the repair.
struct Case {
    name: &'static str,
    history: fn(&Warp),
    repair: fn() -> RepairRequest,
}

/// History across many independent partitions: searches (which the search
/// patch re-executes, one cluster each) plus page views.
fn searches(warp: &Warp) {
    for i in 0..SEARCHES {
        warp.serve(HttpRequest::get(&format!("/search.wasl?q=page {i}")));
    }
    for i in 1..=PAGES {
        warp.serve(HttpRequest::get(&format!("/view.wasl?title=Page{i}")));
    }
}

/// The searches, then an SQL injection through the maintenance page that
/// overwrites every page, then views of the defaced pages.
fn injection(warp: &Warp) {
    searches(warp);
    warp.serve(HttpRequest::post(
        "/maintenance.wasl",
        [("thelang", "x' OR '1'='1"), ("newbody", "defaced")],
    ));
    for i in 1..=PAGES {
        warp.serve(HttpRequest::get(&format!("/view.wasl?title=Page{i}")));
    }
}

const CASES: [Case; 2] = [
    Case {
        name: "search patch (many clusters)",
        history: searches,
        repair: || RepairRequest::RetroactivePatch {
            patch: wiki_search_patch(),
            from_time: 0,
        },
    },
    Case {
        name: "SQL-injection patch (one cluster)",
        history: injection,
        repair: || RepairRequest::RetroactivePatch {
            patch: wiki_patch(AttackKind::SqlInjection).expect("the injection has a patch"),
            from_time: 0,
        },
    },
];

fn deployment(case: &Case) -> Warp {
    let warp = Warp::builder()
        .app(wiki_app(PAGES, PAGES))
        .repair_workers(2)
        .start();
    (case.history)(&warp);
    warp
}

/// What a client keeps sending while the repair runs: views, searches and
/// page writes.
fn traffic() -> Vec<HttpRequest> {
    (0..24)
        .map(|i| {
            let page = format!("Page{}", 1 + i % PAGES);
            match i % 3 {
                0 => HttpRequest::get(&format!("/view.wasl?title={page}")),
                1 => HttpRequest::get(&format!("/search.wasl?q=page {}", i % 5)),
                _ => HttpRequest::post(
                    "/maintenance.wasl",
                    [
                        ("thelang", page.as_str()),
                        ("newbody", format!("note {i}").as_str()),
                    ],
                ),
            }
        })
        .collect()
}

fn rows(warp: &Warp) -> String {
    warp.with_server(|s| s.db.canonical_dump())
}

/// Runs one case; returns true if both checks hold.
fn run(case: &Case) -> bool {
    println!("== {} ==", case.name);
    let warp = deployment(case);
    let gen_before = warp.with_server(|s| s.db.current_generation());
    // The engine steps the repair one re-executed action at a time; a
    // client keeps sending requests meanwhile and the engine answers them
    // between steps.
    let handle = warp.repair((case.repair)());
    println!("repair submitted, status: {:?}", handle.status());
    let client = {
        let warp = warp.clone();
        std::thread::spawn(move || {
            traffic()
                .into_iter()
                .map(|request| warp.serve(request).status)
                .collect::<Vec<u16>>()
        })
    };
    let outcome = handle.join();
    let statuses = client.join().expect("the client thread panicked");
    let gen_after = warp.with_server(|s| s.db.current_generation());
    println!("generation before repair: {gen_before}, after repair: {gen_after}");
    println!(
        "re-executed {} of {} application runs, {} rows rolled back",
        outcome.stats.app_runs_reexecuted,
        outcome.stats.app_runs_total,
        outcome.stats.rows_rolled_back
    );
    println!(
        "served during the repair: {} requests ({} joined the repair)",
        outcome.stats.served_during, outcome.stats.joined
    );

    let reference = deployment(case);
    reference.repair((case.repair)()).join();
    for request in traffic() {
        reference.serve(request);
    }
    let failed = statuses.iter().filter(|&&s| s != 200).count();
    let same_rows = rows(&warp) == rows(&reference);
    println!(
        "client requests answered 200: {} of {}",
        statuses.len() - failed,
        statuses.len()
    );
    println!("rows equal the repair-then-serve reference: {same_rows}");
    failed == 0 && same_rows && !outcome.aborted
}

fn main() {
    warp_examples::handle_help(
        "concurrent_repair",
        "Repair generations: the site keeps serving while a repair re-executes in the live \
         database's repair generation, and the requests it serves are judged by the repair; \
         exits 1 unless, for a many-cluster and a one-cluster repair, every request got 200 \
         and the rows equal a reference that served them after the repair.",
        None,
    );
    // Every case runs, whichever fails.
    let passed: Vec<bool> = CASES.iter().map(run).collect();
    if passed.contains(&false) {
        eprintln!("concurrent_repair: FAILED");
        std::process::exit(1);
    }
    println!("concurrent_repair OK");
}
