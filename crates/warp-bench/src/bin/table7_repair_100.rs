//! Regenerates Table 7: repair performance, including the victims-at-start variant.
fn main() {
    let args = warp_bench::cli::args(
        "table7_repair_100",
        "Regenerates Table 7: repair performance, including the victims-at-start variant. \
         With --workers, also times sequential vs partitioned parallel repair. With \
         --frontier, also measures column-aware vs partition-grained frontier pruning.",
        Some(("USERS", 20)),
        &["--workers", "--json", "--frontier"],
    );
    warp_bench::table3_and_7(args.scale, false);
    warp_bench::table3_and_7(args.scale, true);
    if args.workers.is_some() || args.json.is_some() {
        let workers = args.workers.unwrap_or(4);
        let rows = warp_bench::repair_benchmark("table7_repair_100", &[args.scale], workers);
        warp_bench::cli::write_report(args.json, &rows);
    }
    if args.frontier.is_some() {
        let rows = warp_bench::frontier_benchmark("table7_repair_100", args.scale);
        warp_bench::cli::write_report(args.frontier, &rows);
    }
}
