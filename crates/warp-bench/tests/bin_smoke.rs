//! Smoke tests for the report binaries: every `table*` bin (and
//! `loc_report`) must answer `--help` with exit status 0, and the
//! scale-taking bins must complete a trivial-size run. This keeps the
//! binaries that regenerate the paper's tables from silently rotting — they
//! are compiled and executed on every `cargo test`.

use std::path::{Path, PathBuf};
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

/// Bad arguments are usage errors (exit 2), never a silent default run.
#[test]
fn table_bins_reject_bad_arguments() {
    let cases: &[(&str, &[&str])] = &[
        // A scale that is not a number.
        (env!("CARGO_BIN_EXE_table9_recovery"), &["6o"]),
        (env!("CARGO_BIN_EXE_table3_recovery"), &["two"]),
        // Flags the binary does not take.
        (
            env!("CARGO_BIN_EXE_table9_recovery"),
            &["6", "--workers", "2"],
        ),
        (
            env!("CARGO_BIN_EXE_table11_serve"),
            &["40", "--frontier", "x.json"],
        ),
        (
            env!("CARGO_BIN_EXE_table4_browser"),
            &["1", "--json", "x.json"],
        ),
        // A positional argument too many, or one a binary takes none of.
        (env!("CARGO_BIN_EXE_table3_recovery"), &["2", "3"]),
        (env!("CARGO_BIN_EXE_loc_report"), &["5"]),
        // A flag value that does not parse.
        (
            env!("CARGO_BIN_EXE_table7_repair_100"),
            &["2", "--workers", "two"],
        ),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(*args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("warp-bench-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Writes a report holding `rows` (JSON objects) and returns its path.
fn write_report(name: &str, rows: &[&str]) -> PathBuf {
    let path = temp_path(name);
    let text = format!(r#"{{"schema_version":1,"records":[{}]}}"#, rows.join(","));
    std::fs::write(&path, text).expect("write report");
    path
}

fn bench_gate(repair: &Path, flags: &[(&str, &PathBuf)]) -> std::process::Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_bench_gate"));
    command.arg(repair);
    for (flag, path) in flags {
        command.arg(flag).arg(path);
    }
    command.output().expect("spawn bench_gate")
}

const GATE_NAMES: [&str; 8] = [
    "repair",
    "recovery",
    "commit",
    "serve",
    "shards",
    "frontier",
    "storage",
    "replication",
];

/// `bench_gate` over reports pinned here: one set every gate passes, one
/// repair report that regresses, and one with a row missing a key.
#[test]
fn bench_gate_verdicts_on_pinned_reports() {
    let repair_row = |workers: u32, ms: f64| {
        format!(
            r#"{{"workload":"table7_repair_100","scenario":"stored_xss","users":20,"workers":{workers},"repair_ms":{ms}}}"#
        )
    };
    let repair = write_report(
        "pinned-repair.json",
        &[&repair_row(0, 100.0), &repair_row(4, 90.0)],
    );
    let recovery = write_report(
        "pinned-recovery.json",
        &[r#"{"serve_ms":100,"baseline_ms":60,"overhead_percent":66.7,"recover_ms":70}"#],
    );
    let commit = write_report(
        "pinned-commit.json",
        &[
            r#"{"mode":"delta","db_rows":1000,"commit_ms":1.0}"#,
            r#"{"mode":"delta","db_rows":10000,"commit_ms":1.2}"#,
        ],
    );
    let shard_row = |shards: u32, rps: u32| {
        format!(
            r#"{{"workload":"table11_serve_shards","durability":"relaxed","throughput_rps":{rps},"shards":{shards},"host_cpus":8}}"#
        )
    };
    let serve = write_report(
        "pinned-serve.json",
        &[
            r#"{"workload":"table11_serve","durability":"relaxed","throughput_rps":10000}"#,
            r#"{"workload":"table11_serve","durability":"group","throughput_rps":9500}"#,
            &shard_row(1, 5000),
            &shard_row(4, 10000),
        ],
    );
    let frontier = write_report(
        "pinned-frontier.json",
        &[
            r#"{"workload":"t7","users":20,"mode":"column_aware","reexecuted_actions":4,"reexecuted_queries":12,"dump_checksum":"ab"}"#,
            r#"{"workload":"t7","users":20,"mode":"partition_grained","reexecuted_actions":44,"reexecuted_queries":132,"dump_checksum":"ab"}"#,
        ],
    );
    let storage = write_report(
        "pinned-storage.json",
        &[
            r#"{"kind":"serve","maintenance":false,"p99_us":2000}"#,
            r#"{"kind":"serve","maintenance":true,"p99_us":3000}"#,
            r#"{"kind":"checkpoint","mode":"incremental","db_rows":10000,"checkpoint_ms":0.6}"#,
            r#"{"kind":"checkpoint","mode":"whole_state","db_rows":10000,"checkpoint_ms":40}"#,
        ],
    );
    let replication = write_report(
        "pinned-replication.json",
        &[
            r#"{"kind":"lag","lag_p99_records":12}"#,
            r#"{"kind":"failover","history_actions":2000,"failover_ms":10,"cold_ms":400}"#,
        ],
    );
    let side_reports = [
        ("--recovery", &recovery),
        ("--commit", &commit),
        ("--serve", &serve),
        ("--frontier", &frontier),
        ("--storage", &storage),
        ("--replication", &replication),
    ];
    let out = bench_gate(&repair, &side_reports);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout={stdout}");
    for name in GATE_NAMES {
        assert!(
            stdout.contains(&format!("bench_gate: PASS {name}: ")),
            "no PASS line for {name}: {stdout}"
        );
    }

    // Partitioned repair 50% slower than sequential is a regression.
    let slow = write_report(
        "pinned-slow.json",
        &[&repair_row(0, 100.0), &repair_row(4, 150.0)],
    );
    let out = bench_gate(&slow, &side_reports);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout={stdout}");
    assert!(stdout.contains("bench_gate: FAIL repair: "), "{stdout}");
    assert!(
        stdout.contains("bench_gate: PASS replication: "),
        "{stdout}"
    );

    // A row missing a key its gate reads is missing data, not a row to
    // skip: exit 2, naming the file, the row and the key.
    let incomplete = write_report(
        "pinned-incomplete.json",
        &[
            &repair_row(0, 100.0),
            r#"{"workload":"table7_repair_100","scenario":"stored_xss","users":20,"workers":4}"#,
            &repair_row(4, 90.0),
        ],
    );
    let out = bench_gate(&incomplete, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr={stderr}");
    assert!(
        stderr.contains(&incomplete.display().to_string()),
        "{stderr}"
    );
    assert!(
        stderr.contains("row 1") && stderr.contains("`repair_ms`"),
        "{stderr}"
    );

    // A missing report is an error, never a silent pass, and so is the
    // threshold override the gate no longer takes.
    let missing = PathBuf::from("/nonexistent/BENCH_repair.json");
    assert_eq!(bench_gate(&missing, &[]).status.code(), Some(2));
    let out = bench_gate(&repair, &[("--commit", &missing)]);
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&repair)
        .arg("10")
        .output()
        .expect("spawn bench_gate");
    assert_eq!(out.status.code(), Some(2));

    for path in [
        &repair,
        &recovery,
        &commit,
        &serve,
        &frontier,
        &storage,
        &replication,
        &slow,
        &incomplete,
    ] {
        let _ = std::fs::remove_file(path);
    }
}

fn run(bin: &str, args: &[&str], report: &PathBuf) -> String {
    let out = Command::new(bin)
        .args(args)
        .arg(report)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(report).expect("report written")
}

/// The CI benchmark-report flow end to end at trivial scale: every table
/// binary writes its report and `bench_gate` judges them all. At this
/// scale the timings are fixed costs and scheduler noise, so a gate may
/// pass or fail; the reports must be complete (never exit 2), and every
/// gate must print its verdict line.
#[test]
fn bench_report_and_gate_flow() {
    let repair = temp_path("BENCH_repair.json");
    let frontier = temp_path("BENCH_frontier.json");
    let text = run(
        env!("CARGO_BIN_EXE_table7_repair_100"),
        &["3", "--frontier"],
        &frontier,
    );
    assert!(text.contains("\"mode\":\"partition_grained\""), "{text}");
    let text = run(
        env!("CARGO_BIN_EXE_table7_repair_100"),
        &["3", "--workers", "2", "--json"],
        &repair,
    );
    assert!(
        text.contains("\"workload\":\"table7_repair_100\""),
        "unexpected report: {text}"
    );
    // `--workers 2` selects the frontier walk, which reports its one thread.
    assert!(text.contains("\"workers\":1"), "{text}");
    assert!(
        text.contains("\"workers\":0"),
        "sequential baseline records must be present"
    );
    let recovery = temp_path("BENCH_recovery.json");
    let text = run(
        env!("CARGO_BIN_EXE_table9_recovery"),
        &["6", "--json"],
        &recovery,
    );
    assert!(text.contains("\"backend\":\"file\""));
    let commit = temp_path("BENCH_commit.json");
    let text = run(
        env!("CARGO_BIN_EXE_table10_commit"),
        &["50", "--json"],
        &commit,
    );
    assert!(text.contains("\"mode\":\"delta\""));
    assert!(text.contains("\"mode\":\"snapshot\""));
    let serve = temp_path("BENCH_serve.json");
    let text = run(
        env!("CARGO_BIN_EXE_table11_serve"),
        &["40", "--json"],
        &serve,
    );
    for tier in ["relaxed", "group", "immediate"] {
        assert!(
            text.contains(&format!("\"durability\":\"{tier}\"")),
            "serve report missing tier {tier}: {text}"
        );
    }
    let storage = temp_path("BENCH_storage.json");
    let text = run(
        env!("CARGO_BIN_EXE_table12_storage"),
        &["40", "--json"],
        &storage,
    );
    assert!(text.contains("\"kind\":\"serve\""));
    assert!(text.contains("\"mode\":\"incremental\""));
    assert!(text.contains("\"mode\":\"whole_state\""));
    let replication = temp_path("BENCH_replication.json");
    let text = run(
        env!("CARGO_BIN_EXE_table13_replication"),
        &["40", "--json"],
        &replication,
    );
    assert!(text.contains("\"kind\":\"lag\""));
    assert!(text.contains("\"kind\":\"failover\""));

    let out = bench_gate(
        &repair,
        &[
            ("--recovery", &recovery),
            ("--commit", &commit),
            ("--serve", &serve),
            ("--frontier", &frontier),
            ("--storage", &storage),
            ("--replication", &replication),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "bench_gate found the reports incomplete: stdout={stdout} stderr={}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in GATE_NAMES {
        assert!(
            ["PASS", "FAIL", "SKIP"]
                .iter()
                .any(|status| stdout.contains(&format!("bench_gate: {status} {name}: "))),
            "no verdict line for {name}: {stdout}"
        );
    }

    for path in [
        &repair,
        &frontier,
        &recovery,
        &commit,
        &serve,
        &storage,
        &replication,
    ] {
        let _ = std::fs::remove_file(path);
    }
}
