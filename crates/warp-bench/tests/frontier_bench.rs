//! The frontier benchmark must produce rows that pass its own CI gate:
//! ≥ 5x fewer re-executed history nodes column-aware vs partition-grained,
//! with byte-identical canonical dumps.

use warp_bench::report::GATES;

#[test]
fn frontier_benchmark_passes_its_own_gate() {
    let rows = warp_bench::frontier_benchmark("frontier_smoke", 8);
    assert_eq!(rows.len(), 2);
    let gate = GATES.iter().find(|g| g.name == "frontier").expect("gate");
    let verdict = (gate.check)(&rows).expect("both modes recorded");
    assert!(
        verdict.pass,
        "frontier gate must pass at smoke scale: {}",
        verdict.summary
    );
}
