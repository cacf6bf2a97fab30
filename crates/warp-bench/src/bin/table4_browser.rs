//! Regenerates Table 4: browser re-execution effectiveness.
fn main() {
    let args = warp_bench::cli::args(
        "table4_browser",
        "Regenerates Table 4: browser re-execution effectiveness.",
        Some(("VICTIMS", 8)),
        &[],
    );
    warp_bench::table4_browser(args.scale);
}
