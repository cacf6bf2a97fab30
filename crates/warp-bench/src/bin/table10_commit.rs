//! Regenerates "Table 10" (a delta-tracking addition over the paper):
//! repair-commit cost vs database size at a fixed repair footprint. The
//! mutation-tracked `delta` commit path must stay roughly flat as the
//! database grows; the `snapshot` reference path is measured alongside to
//! show the O(database) cost it replaced.
fn main() {
    let args = warp_bench::cli::args(
        "table10_commit",
        "Measures how long building and logging a repair commit record \
         takes as the database grows 10x while the repair footprint stays \
         fixed, for the mutation-tracked delta path (production) and the \
         snapshot-diff reference path.",
        Some(("ROWS", 400)),
        &["--json"],
    );
    let rows = warp_bench::table10_commit(args.scale);
    warp_bench::cli::write_report(args.json, &rows);
}
