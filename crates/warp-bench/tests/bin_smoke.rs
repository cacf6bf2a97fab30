//! Smoke tests for the report binaries: every `table*` bin (and
//! `loc_report`) must answer `--help` with exit status 0, and the
//! scale-taking bins must complete a trivial-size run. This keeps the
//! binaries that regenerate the paper's tables from silently rotting — they
//! are compiled and executed on every `cargo test`.

use std::process::Command;

/// `(path, trivial-mode args)` for every report binary in this crate.
/// `CARGO_BIN_EXE_*` is set by cargo for the package's own binaries.
const BINS: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_loc_report"), &[]),
    (env!("CARGO_BIN_EXE_table2_attacks"), &[]),
    (env!("CARGO_BIN_EXE_table3_recovery"), &["2"]),
    (env!("CARGO_BIN_EXE_table4_browser"), &["1"]),
    (env!("CARGO_BIN_EXE_table5_comparison"), &[]),
    (env!("CARGO_BIN_EXE_table6_overhead"), &["3"]),
    (env!("CARGO_BIN_EXE_table7_repair_100"), &["2"]),
    (env!("CARGO_BIN_EXE_table8_repair_5000"), &["4"]),
    (env!("CARGO_BIN_EXE_table9_recovery"), &["6"]),
    (env!("CARGO_BIN_EXE_table10_commit"), &["50"]),
    (env!("CARGO_BIN_EXE_table11_serve"), &["40"]),
    (env!("CARGO_BIN_EXE_table12_storage"), &["40"]),
    (env!("CARGO_BIN_EXE_table13_replication"), &["40"]),
    (env!("CARGO_BIN_EXE_bench_gate"), &["--help"]),
];

#[test]
fn every_table_bin_answers_help() {
    for (bin, _) in BINS {
        let out = Command::new(bin).arg("--help").output().expect("spawn");
        assert!(out.status.success(), "{bin} --help exited {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage:"),
            "{bin} --help printed no usage: {stdout}"
        );
    }
}

#[test]
fn every_table_bin_runs_in_trivial_mode() {
    for (bin, args) in BINS {
        let out = Command::new(bin).args(*args).output().expect("spawn");
        assert!(
            out.status.success(),
            "{bin} {args:?} exited {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{bin} {args:?} printed nothing");
    }
}

/// The CI benchmark-report flow end to end: `table7_repair_100` writes the
/// machine-readable report, `bench_gate` reads and evaluates it. The gate's
/// tolerance is opened wide here — this test checks the plumbing, not the
/// timing (CI runs the real 10% gate on the full-size workload).
#[test]
fn bench_report_and_gate_flow() {
    let report = std::env::temp_dir().join(format!(
        "warp-bench-smoke-{}-BENCH_repair.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&report);
    let out = Command::new(env!("CARGO_BIN_EXE_table7_repair_100"))
        .args(["3", "--workers", "2", "--json"])
        .arg(&report)
        .output()
        .expect("spawn table7");
    assert!(
        out.status.success(),
        "table7 timing run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    assert!(
        text.contains("\"workload\":\"table7_repair_100\""),
        "unexpected report: {text}"
    );
    assert!(text.contains("\"workers\":2"));
    assert!(
        text.contains("\"workers\":0"),
        "sequential baseline records must be present"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&report)
        .arg("100000")
        .output()
        .expect("spawn bench_gate");
    assert!(
        out.status.success(),
        "bench_gate failed: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // A missing report is an error, never a silent pass.
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("/nonexistent/BENCH_repair.json")
        .output()
        .expect("spawn bench_gate");
    assert_eq!(out.status.code(), Some(2));

    // The recovery, commit, serve, storage and replication gates plug into
    // the same binary: generate the reports at trivial scale and run the
    // full multi-gate check.
    let recovery = std::env::temp_dir().join(format!(
        "warp-bench-smoke-{}-BENCH_recovery.json",
        std::process::id()
    ));
    let commit = std::env::temp_dir().join(format!(
        "warp-bench-smoke-{}-BENCH_commit.json",
        std::process::id()
    ));
    let serve = std::env::temp_dir().join(format!(
        "warp-bench-smoke-{}-BENCH_serve.json",
        std::process::id()
    ));
    let storage = std::env::temp_dir().join(format!(
        "warp-bench-smoke-{}-BENCH_storage.json",
        std::process::id()
    ));
    let replication = std::env::temp_dir().join(format!(
        "warp-bench-smoke-{}-BENCH_replication.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&recovery);
    let _ = std::fs::remove_file(&commit);
    let _ = std::fs::remove_file(&serve);
    let _ = std::fs::remove_file(&storage);
    let _ = std::fs::remove_file(&replication);
    let out = Command::new(env!("CARGO_BIN_EXE_table9_recovery"))
        .arg("6")
        .arg("--json")
        .arg(&recovery)
        .output()
        .expect("spawn table9");
    assert!(out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_table10_commit"))
        .arg("50")
        .arg("--json")
        .arg(&commit)
        .output()
        .expect("spawn table10");
    assert!(
        out.status.success(),
        "table10 timing run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&commit).expect("commit report written");
    assert!(text.contains("\"mode\":\"delta\""));
    assert!(text.contains("\"mode\":\"snapshot\""));
    let out = Command::new(env!("CARGO_BIN_EXE_table11_serve"))
        .arg("40")
        .arg("--json")
        .arg(&serve)
        .output()
        .expect("spawn table11");
    assert!(
        out.status.success(),
        "table11 timing run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&serve).expect("serve report written");
    for tier in ["relaxed", "group", "immediate"] {
        assert!(
            text.contains(&format!("\"durability\":\"{tier}\"")),
            "serve report missing tier {tier}: {text}"
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_table12_storage"))
        .arg("40")
        .arg("--json")
        .arg(&storage)
        .output()
        .expect("spawn table12");
    assert!(
        out.status.success(),
        "table12 timing run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&storage).expect("storage report written");
    assert!(text.contains("\"kind\":\"serve\""));
    assert!(text.contains("\"mode\":\"incremental\""));
    assert!(text.contains("\"mode\":\"whole_state\""));
    let out = Command::new(env!("CARGO_BIN_EXE_table13_replication"))
        .arg("40")
        .arg("--json")
        .arg(&replication)
        .output()
        .expect("spawn table13");
    assert!(
        out.status.success(),
        "table13 timing run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&replication).expect("replication report written");
    assert!(text.contains("\"kind\":\"lag\""));
    assert!(text.contains("\"kind\":\"failover\""));
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&report)
        .arg("100000")
        .arg("--recovery")
        .arg(&recovery)
        .arg("--commit")
        .arg(&commit)
        .arg("--serve")
        .arg(&serve)
        // Plumbing check only: tolerance opened wide, CI runs the real 10%.
        .arg("1000")
        // Likewise: CI holds maintained p99 to 2x quiescent and warm
        // promotion to 3x cold replay, at a size where those are scaling
        // statements; at this one they are fixed costs and scheduler noise.
        .arg("--storage")
        .arg(&storage)
        .arg("1000")
        .arg("--replication")
        .arg(&replication)
        .arg("0")
        .output()
        .expect("spawn bench_gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "six-gate bench_gate failed: stdout={stdout} stderr={}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("recovery: worst overhead"));
    assert!(stdout.contains("commit: delta"));
    assert!(stdout.contains("serve: relaxed"));
    assert!(stdout.contains("storage: p99 quiescent"));
    assert!(stdout.contains("replication: lag p99"));

    // A missing side report is an error too.
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&report)
        .arg("--commit")
        .arg("/nonexistent/BENCH_commit.json")
        .output()
        .expect("spawn bench_gate");
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&recovery);
    let _ = std::fs::remove_file(&commit);
    let _ = std::fs::remove_file(&serve);
    let _ = std::fs::remove_file(&storage);
    let _ = std::fs::remove_file(&replication);
}
