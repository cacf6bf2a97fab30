//! Regenerates "Table 12" (a storage addition over the paper): serving
//! throughput and latency with and without the background maintenance
//! worker (chain folds, segment retirement) running concurrently, and the
//! wall-clock cost of incremental (delta) vs whole-state (base)
//! checkpoints as the database grows 10×.
fn main() {
    let args = warp_bench::cli::args(
        "table12_storage",
        "Measures the storage subsystem under the incremental checkpoint \
         chain: sustained group-commit serving p99 with a concurrent \
         maintenance worker vs quiescent, and checkpoint latency \
         (incremental delta vs whole-state base) across database sizes. \
         The CI gate holds maintained p99 within 2x of quiescent and \
         demands the delta checkpoint stay at least 5x cheaper than the \
         whole-state encode at the largest size.",
        Some(("REQUESTS_PER_THREAD", 120)),
        &["--json"],
    );
    let rows = warp_bench::table12_storage(args.scale);
    warp_bench::cli::write_report(args.json, &rows);
}
