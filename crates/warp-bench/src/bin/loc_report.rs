//! Regenerates the Table 1 analog: lines of Rust per crate, without tests and in total.
fn main() {
    warp_bench::cli::args(
        "loc_report",
        "Regenerates the Table 1 analog: lines of Rust per crate, without tests and in total.",
        None,
        &[],
    );
    warp_bench::table1_loc();
}
