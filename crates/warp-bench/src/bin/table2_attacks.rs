//! Regenerates Table 2: the attack scenarios and their retroactive fixes.
fn main() {
    warp_bench::cli::args(
        "table2_attacks",
        "Regenerates Table 2: the attack scenarios and their retroactive fixes.",
        None,
        &[],
    );
    warp_bench::table2_attacks();
}
