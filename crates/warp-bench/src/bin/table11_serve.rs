//! Regenerates "Table 11" (a serving addition over the paper): request
//! throughput and p50/p99 latency through the concurrent `Warp` façade,
//! across the `relaxed`/`group`/`immediate` durability tiers and 1/4/8
//! client threads.
fn main() {
    let args = warp_bench::cli::args(
        "table11_serve",
        "Measures the concurrent serving façade: throughput and latency per \
         durability tier (relaxed, group commit, immediate) and client-thread \
         count. Group commit must hold its throughput close to the relaxed \
         tier while acknowledging only durable requests.",
        Some(("REQUESTS_PER_THREAD", 120)),
        &["--json"],
    );
    let rows = warp_bench::table11_serve(args.scale);
    warp_bench::cli::write_report(args.json, &rows);
}
