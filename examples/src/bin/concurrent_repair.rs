//! A repair that does not stop the site (paper §4.3), through the concurrent
//! façade. While the repair builds the next generation, the engine keeps
//! serving: it steps the partitioned repair one unit per worker batch at a
//! time, on clones of the database, and answers queued requests between
//! steps in the current generation. Those requests are logged as ordinary
//! actions and join the repair wherever they meet what it modified; the
//! site pauses only for the commit that switches generations. The repair
//! itself is first-class — a [`warp_core::RepairHandle`] whose status is
//! polled while it runs.
//!
//! The binary checks the claim and exits non-zero unless both hold: every
//! request a client thread sent while the repair ran was answered with 200,
//! and the application-visible rows after `join` equal those of a
//! reference run that served the same requests after a completed repair.

use warp_apps::wiki::{wiki_app, wiki_search_patch};
use warp_core::{RepairRequest, Warp};
use warp_http::HttpRequest;

const PAGES: usize = 4;
const SEARCHES: usize = 40;

fn deployment() -> Warp {
    let warp = Warp::builder()
        .app(wiki_app(PAGES, PAGES))
        .repair_workers(2)
        .start();
    // History across many independent partitions: searches (which the
    // patch below re-executes, one repair unit each) plus page views.
    for i in 0..SEARCHES {
        warp.serve(HttpRequest::get(&format!("/search.wasl?q=page {i}")));
    }
    for i in 1..=PAGES {
        warp.serve(HttpRequest::get(&format!("/view.wasl?title=Page{i}")));
    }
    warp
}

fn repair() -> RepairRequest {
    RepairRequest::RetroactivePatch {
        patch: wiki_search_patch(),
        from_time: 0,
    }
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

fn main() {
    warp_examples::handle_help(
        "concurrent_repair",
        "Repair generations + partitioned parallel repair: the site keeps serving while the \
         repair runs, and the requests it serves join the repair; exits 1 unless every \
         request got 200 and the rows equal a reference that served them after the repair.",
        None,
    );
    let warp = deployment();
    let gen_before = warp.with_server(|s| s.db.current_generation());
    // The partitioned engine configured on the builder steps the repair
    // two units at a time (one per worker batch); a client keeps sending
    // requests meanwhile and the engine answers them between steps.
    let handle = warp.repair(repair());
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
        "re-executed {} of {} application runs",
        outcome.stats.app_runs_reexecuted, outcome.stats.app_runs_total
    );
    println!(
        "history decomposed into {} partitions, {} repaired on {} workers ({} escalations)",
        outcome.stats.partitions_total,
        outcome.stats.partitions_repaired,
        outcome.stats.workers,
        outcome.stats.escalations,
    );
    println!(
        "served during the repair: {} requests ({} joined the repair)",
        outcome.stats.served_during, outcome.stats.joined
    );

    let reference = deployment();
    reference.repair(repair()).join();
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
    if failed > 0 || !same_rows {
        eprintln!("concurrent_repair: FAILED");
        std::process::exit(1);
    }
    println!("concurrent_repair OK");
}
