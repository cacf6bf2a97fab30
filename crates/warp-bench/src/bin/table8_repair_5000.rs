//! Regenerates Table 8: repair scaling with workload size.
fn main() {
    let args = warp_bench::cli::args(
        "table8_repair_5000",
        "Regenerates Table 8: repair scaling with workload size. \
         With --workers, also times sequential vs partitioned parallel repair. With \
         --frontier, also measures column-aware vs partition-grained frontier pruning.",
        Some(("MAX_USERS", 40)),
        &["--workers", "--json", "--frontier"],
    );
    warp_bench::table8_scaling(&[args.scale / 4, args.scale]);
    if args.workers.is_some() || args.json.is_some() {
        let workers = args.workers.unwrap_or(4);
        let rows = warp_bench::repair_benchmark(
            "table8_repair_5000",
            &[args.scale / 4, args.scale],
            workers,
        );
        warp_bench::cli::write_report(args.json, &rows);
    }
    if args.frontier.is_some() {
        let rows = warp_bench::frontier_benchmark("table8_repair_5000", args.scale);
        warp_bench::cli::write_report(args.frontier, &rows);
    }
}
