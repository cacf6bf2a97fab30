//! Regenerates the Table 1 analog: lines of code per component.
fn main() {
    warp_bench::cli::args(
        "loc_report",
        "Regenerates the Table 1 analog: lines of code per component.",
        None,
        &[],
    );
    warp_bench::table1_loc();
}
