//! The CI benchmark-regression gate: runs each gate of
//! [`warp_bench::report::GATES`] whose report is named on the command
//! line. `BENCH_repair.json` is the required positional argument; every
//! other report follows its gate's flag. Exit 0: every gate passed or was
//! skipped. Exit 1: a gate found a regression. Exit 2: bad arguments, or a
//! report is missing, malformed or incomplete — never a silent pass.

use std::path::PathBuf;
use std::process::exit;
use warp_bench::report::{self, GATES};

fn usage() {
    println!("usage: bench_gate BENCH_repair.json [--FLAG REPORT]...");
    println!();
    for gate in &GATES {
        let flag = gate.flag.unwrap_or("(positional)");
        println!("  {flag:<14} {:<23} {} gate", gate.report, gate.name);
    }
    println!();
    println!("Thresholds and skip rules: the gate table in warp_bench::report.");
    println!("Exit 1: a gate failed. Exit 2: a report is missing, malformed or incomplete.");
}

/// The report path given for each gate flag (`None` is the positional
/// repair report).
fn parse_args(raw: &[String]) -> Result<Vec<(Option<&'static str>, PathBuf)>, String> {
    let mut paths: Vec<(Option<&'static str>, PathBuf)> = Vec::new();
    let mut raw = raw.iter();
    while let Some(arg) = raw.next() {
        let (flag, path) = match GATES.iter().find(|g| g.flag == Some(arg.as_str())) {
            Some(gate) => {
                let path = raw.next().ok_or_else(|| format!("{arg} requires a path"))?;
                (gate.flag, path)
            }
            None if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            None => (None, arg),
        };
        if paths.iter().any(|(f, _)| *f == flag) {
            return Err(format!("unexpected argument `{arg}`"));
        }
        paths.push((flag, PathBuf::from(path)));
    }
    if !paths.iter().any(|(f, _)| f.is_none()) {
        return Err("missing BENCH_repair.json path".to_string());
    }
    Ok(paths)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        exit(if raw.is_empty() { 2 } else { 0 });
    }
    let paths = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        usage();
        exit(2);
    });
    let mut failed = false;
    for gate in &GATES {
        let Some((_, path)) = paths.iter().find(|(f, _)| *f == gate.flag) else {
            continue;
        };
        let verdict = report::load(path)
            .and_then(|rows| (gate.check)(&rows).map_err(|e| format!("{}: {e}", path.display())))
            .unwrap_or_else(|e| {
                eprintln!("bench_gate: {}: {e}", gate.name);
                exit(2);
            });
        let status = match (verdict.pass, verdict.skipped) {
            (false, _) => "FAIL",
            (true, true) => "SKIP",
            (true, false) => "PASS",
        };
        println!("bench_gate: {status} {}: {}", gate.name, verdict.summary);
        failed |= !verdict.pass;
    }
    exit(i32::from(failed));
}
