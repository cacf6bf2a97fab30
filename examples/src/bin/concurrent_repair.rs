//! Repair generations (paper §4.3) and partitioned parallel repair through
//! the concurrent façade: a repair builds the next generation and switches
//! to it atomically, and independent dependency partitions of the history
//! are re-executed concurrently on a worker pool. Serving does not overlap
//! the repair: requests that arrive while it runs queue behind it and see
//! the repaired state (`warp-perf` measures `repair_stall_ms` ≈ `repair_s`).
//! The repair itself is first-class — a [`warp_core::RepairHandle`] whose
//! status is polled while it runs.

use warp_apps::wiki::{wiki_app, wiki_search_patch};
use warp_core::{RepairRequest, Warp};
use warp_http::HttpRequest;

fn main() {
    warp_examples::handle_help(
        "concurrent_repair",
        "Repair generations + partitioned parallel repair: independent partitions are \
         repaired concurrently; requests queue behind the repair and see the repaired state.",
        None,
    );
    let warp = Warp::builder()
        .app(wiki_app(4, 4))
        .repair_workers(2)
        .start();
    // Seed history across several independent partitions: searches (which
    // the patch below re-executes) plus per-page edits that never interact.
    for i in 0..5 {
        warp.serve(HttpRequest::get(&format!("/search.wasl?q=page {i}")));
    }
    for i in 1..=4 {
        warp.serve(HttpRequest::get(&format!("/view.wasl?title=Page{i}")));
    }
    let gen_before = warp.with_server(|s| s.db.current_generation());
    // Requests submitted from here on wait for the repair. It runs the
    // partitioned engine configured on the builder, so the independent
    // search actions are re-executed concurrently on 2 workers and merged.
    let handle = warp.repair(RepairRequest::RetroactivePatch {
        patch: wiki_search_patch(),
        from_time: 0,
    });
    println!("repair submitted, status: {:?}", handle.status());
    let outcome = handle.join();
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
    // The post-repair deployment still serves traffic normally.
    let r = warp.serve(HttpRequest::get("/view.wasl?title=Page1"));
    println!("post-repair page view status: {}", r.status);
}
