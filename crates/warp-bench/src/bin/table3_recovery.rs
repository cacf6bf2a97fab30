//! Regenerates Table 3 (and the Table 7 counters): attack recovery outcomes.
fn main() {
    let args = warp_bench::cli::args(
        "table3_recovery",
        "Regenerates Table 3 (and the Table 7 counters): attack recovery outcomes.",
        Some(("USERS", 12)),
        &[],
    );
    warp_bench::table3_and_7(args.scale, false);
}
