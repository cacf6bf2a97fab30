//! Regenerates Table 5: comparison with the taint-tracking baseline.
fn main() {
    warp_bench::cli::args(
        "table5_comparison",
        "Regenerates Table 5: comparison with the taint-tracking baseline.",
        None,
        &[],
    );
    warp_bench::table5_comparison();
}
