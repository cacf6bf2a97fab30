//! Runs `warp-perf --smoke` (every workload at 1/20 size, one repetition,
//! timed and traced) and holds its output to `BENCHMARK.json`: exactly the
//! listed workloads and metrics, every unit present, nothing failed.

use std::process::Command;
use warp_bench::json::Json;

fn names(list: &Json) -> Vec<String> {
    let items = list.as_arr().expect("a list");
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn keys(object: Option<&Json>) -> Vec<String> {
    match object {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

#[test]
fn smoke_run_emits_exactly_what_benchmark_json_lists() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out/smoke-result.json");
    let status = Command::new(env!("CARGO_BIN_EXE_warp-perf"))
        .args(["--smoke", "--seed", "3", "--out"])
        .arg(out)
        .status()
        .expect("running warp-perf");
    assert!(status.success(), "warp-perf --smoke exited with {status}");
    let result = Json::parse(&std::fs::read_to_string(out).expect("the result file"))
        .expect("the result file parses");

    let rows = result
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("rows");
    let ran: Vec<String> = names(result.get("workloads").expect("rows"));
    assert_eq!(ran, names(spec.get("workloads").expect("workloads")));
    for row in rows {
        assert_eq!(row.get("failed_frac").and_then(Json::as_f64), Some(0.0));
        for group in ["end_to_end", "per_layer"] {
            let listed = names(spec.get(group).expect("a metric list"));
            assert_eq!(keys(row.get(group)), listed, "{group} of {row:?}");
            for name in &listed {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name `{name}`"
                );
                let unit = row
                    .get(group)
                    .and_then(|g| g.get(name))
                    .and_then(|m| m.get("unit"));
                assert!(
                    unit.and_then(Json::as_str).is_some_and(|u| !u.is_empty()),
                    "`{name}` has no unit"
                );
            }
        }
    }
}
