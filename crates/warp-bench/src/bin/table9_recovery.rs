//! Regenerates "Table 9" (a persistence addition over the paper):
//! durable-log append overhead vs in-memory serving, and recovery time vs
//! history length, for the memory and file storage backends.
fn main() {
    let args = warp_bench::cli::args(
        "table9_recovery",
        "Measures the durable storage subsystem: how much the segmented \
         action log slows down serving vs a pure in-memory server, and how \
         recovery time grows with history length (with and without a \
         checkpoint), on the memory and file backends.",
        Some(("ACTIONS", 60)),
        &["--json"],
    );
    let rows = warp_bench::table9_recovery(args.scale);
    warp_bench::cli::write_report(args.json, &rows);
}
