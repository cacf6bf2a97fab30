//! Regenerates Table 6: logging overhead and storage per page visit.
fn main() {
    let args = warp_bench::cli::args(
        "table6_overhead",
        "Regenerates Table 6: logging overhead and storage per page visit.",
        Some(("VISITS", 200)),
        &[],
    );
    warp_bench::table6_overhead(args.scale);
}
