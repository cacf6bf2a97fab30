//! The CI benchmark-regression gate.
//!
//! Always reads the `BENCH_repair.json` report produced by
//! `table7_repair_100 --workers N --json BENCH_repair.json` and fails
//! (exit code 1) if partitioned parallel repair was slower than sequential
//! repair by more than the allowed slowdown on the 100-user workload.
//!
//! With `--recovery BENCH_recovery.json` it additionally fails on
//! recovery-time / logging-overhead regressions, with
//! `--commit BENCH_commit.json` on repair-commit cost that grows with
//! database size instead of with the repair's write set, with
//! `--serve BENCH_serve.json` on group-commit serving throughput falling
//! more than 10% behind the relaxed (ack-before-durable) tier or on the
//! partition-sharded engine failing its speedup floor (4 shards must reach
//! 1.5x single-shard throughput on the conflict-free workload; skipped
//! loudly when the measuring host has fewer than 4 CPUs), and with
//! `--frontier BENCH_frontier.json` on column-aware frontier pruning
//! falling under the required factor (or its final state diverging from
//! the partition-grained engine's), and with `--storage BENCH_storage.json`
//! on serving p99 under concurrent checkpoint maintenance inflating past
//! its quiescent ratio, or the incremental checkpoint losing its required
//! advantage over the whole-state encode at the largest database size,
//! and with `--replication BENCH_replication.json` on the standby's
//! steady-state lag p99 exceeding its bound or failover to the warm standby
//! losing its required advantage over cold log-replay at the largest history.
//!
//! Exit code 2 means a report was missing or incomplete — the gate never
//! passes silently on missing data.

use std::path::PathBuf;
use warp_bench::report::{
    evaluate_commit_gate, evaluate_frontier_gate, evaluate_gate, evaluate_recovery_gate,
    evaluate_replication_gate, evaluate_serve_gate, evaluate_shard_gate, evaluate_storage_gate,
    load_commit_records, load_frontier_records, load_records, load_recovery_records,
    load_replication_records, load_serve_records, load_storage_records, COMMIT_FLOOR_MS,
    COMMIT_MAX_RATIO, FRONTIER_MIN_RATIO, GATE_WORKLOAD, RECOVERY_MAX_OVERHEAD_PERCENT,
    RECOVERY_MAX_RECOVER_RATIO, REPLICATION_COLD_FLOOR_MS, REPLICATION_MAX_LAG_P99,
    REPLICATION_MIN_FAILOVER_ADVANTAGE, SHARD_GATE_SHARDS, SHARD_MIN_HOST_CPUS, SHARD_MIN_SPEEDUP,
    STORAGE_MAX_P99_RATIO, STORAGE_MIN_CKPT_ADVANTAGE,
};

/// Default allowed group-commit throughput regression vs the relaxed tier,
/// in percent (override with the optional number after `--serve PATH`).
const SERVE_MAX_REGRESSION_PERCENT: f64 = 10.0;

fn usage() {
    println!(
        "usage: bench_gate BENCH_repair.json [MAX_SLOWDOWN_PERCENT] \
         [--recovery BENCH_recovery.json] [--commit BENCH_commit.json] \
         [--serve BENCH_serve.json] [--frontier BENCH_frontier.json] \
         [--storage BENCH_storage.json [MAX_P99_RATIO]] \
         [--replication BENCH_replication.json [MIN_ADVANTAGE]]"
    );
    println!();
    println!("Fails (exit 1) if parallel repair is slower than sequential by more than");
    println!("MAX_SLOWDOWN_PERCENT (default 10) on the `{GATE_WORKLOAD}` workload.");
    println!("--recovery PATH  also fail on logging-overhead (> {RECOVERY_MAX_OVERHEAD_PERCENT}%)");
    println!(
        "                 or recovery-time (> {RECOVERY_MAX_RECOVER_RATIO}x serving) regressions"
    );
    println!("--commit PATH    also fail if delta-tracked repair commits grow more than");
    println!("                 {COMMIT_MAX_RATIO}x across the report's database sizes (floor {COMMIT_FLOOR_MS} ms)");
    println!("--serve PATH [PERCENT]  also fail if group-commit throughput falls more than");
    println!(
        "                 PERCENT (default {SERVE_MAX_REGRESSION_PERCENT}) behind the relaxed tier,"
    );
    println!(
        "                 or if {SHARD_GATE_SHARDS} engine shards miss {SHARD_MIN_SPEEDUP}x \
         single-shard throughput on the"
    );
    println!(
        "                 conflict-free workload (skipped on hosts with < {SHARD_MIN_HOST_CPUS} cpus)"
    );
    println!("--frontier PATH  also fail if column-aware repair re-executes less than");
    println!("                 {FRONTIER_MIN_RATIO}x fewer actions than the partition-grained");
    println!("                 engine, or their final database states diverge");
    println!(
        "--storage PATH [RATIO]  also fail if serving p99 under concurrent maintenance exceeds"
    );
    println!("                 RATIO (default {STORAGE_MAX_P99_RATIO}) x quiescent, or the incremental checkpoint is less than");
    println!("                 {STORAGE_MIN_CKPT_ADVANTAGE}x cheaper than whole-state at the largest database size");
    println!("--replication PATH [ADVANTAGE]  also fail if standby lag p99 exceeds {REPLICATION_MAX_LAG_P99} records, or");
    println!(
        "                 failing over to the warm standby is less than ADVANTAGE (default \
         {REPLICATION_MIN_FAILOVER_ADVANTAGE}) x faster than cold log-replay"
    );
    println!(
        "                 at the largest history (skipped when cold replay \
         takes <= {REPLICATION_COLD_FLOOR_MS} ms)"
    );
    println!("Exit 2: a report is missing or holds no comparable records.");
}

struct Args {
    repair: PathBuf,
    max_slowdown: f64,
    recovery: Option<PathBuf>,
    commit: Option<PathBuf>,
    serve: Option<PathBuf>,
    serve_max_regression: f64,
    frontier: Option<PathBuf>,
    storage: Option<PathBuf>,
    storage_max_p99_ratio: f64,
    replication: Option<PathBuf>,
    replication_min_advantage: f64,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut repair: Option<PathBuf> = None;
    let mut max_slowdown = 10.0;
    let mut recovery = None;
    let mut commit = None;
    let mut serve = None;
    let mut serve_max_regression = SERVE_MAX_REGRESSION_PERCENT;
    let mut frontier = None;
    let mut storage = None;
    let mut storage_max_p99_ratio = STORAGE_MAX_P99_RATIO;
    let mut replication = None;
    let mut replication_min_advantage = REPLICATION_MIN_FAILOVER_ADVANTAGE;
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--recovery" => {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| "--recovery requires a path".to_string())?;
                recovery = Some(PathBuf::from(value));
                i += 2;
            }
            "--commit" => {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| "--commit requires a path".to_string())?;
                commit = Some(PathBuf::from(value));
                i += 2;
            }
            "--frontier" => {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| "--frontier requires a path".to_string())?;
                frontier = Some(PathBuf::from(value));
                i += 2;
            }
            "--storage" => {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| "--storage requires a path".to_string())?;
                storage = Some(PathBuf::from(value));
                i += 2;
                // Optional limit override, e.g. `--storage PATH 3`.
                if let Some(ratio) = raw.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    storage_max_p99_ratio = ratio;
                    i += 1;
                }
            }
            "--replication" => {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| "--replication requires a path".to_string())?;
                replication = Some(PathBuf::from(value));
                i += 2;
                // Optional floor override, e.g. `--replication PATH 2`.
                if let Some(advantage) = raw.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    replication_min_advantage = advantage;
                    i += 1;
                }
            }
            "--serve" => {
                let value = raw
                    .get(i + 1)
                    .ok_or_else(|| "--serve requires a path".to_string())?;
                serve = Some(PathBuf::from(value));
                i += 2;
                // Optional tolerance override, e.g. `--serve PATH 25`.
                if let Some(pct) = raw.get(i).and_then(|v| v.parse::<f64>().ok()) {
                    serve_max_regression = pct;
                    i += 1;
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => {
                if repair.is_none() {
                    repair = Some(PathBuf::from(other));
                } else if let Ok(pct) = other.parse() {
                    max_slowdown = pct;
                } else {
                    return Err(format!("unexpected argument `{other}`"));
                }
                i += 1;
            }
        }
    }
    Ok(Args {
        repair: repair.ok_or_else(|| "missing BENCH_repair.json path".to_string())?,
        max_slowdown,
        recovery,
        commit,
        serve,
        serve_max_regression,
        frontier,
        storage,
        storage_max_p99_ratio,
        replication,
        replication_min_advantage,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        std::process::exit(if raw.is_empty() { 2 } else { 0 });
    }
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        usage();
        std::process::exit(2);
    });
    let mut failed = false;

    // Gate 1: parallel vs sequential repair time.
    let records = match load_records(&args.repair) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    };
    match evaluate_gate(&records, args.max_slowdown) {
        Ok(verdict) => {
            println!(
                "bench_gate: {GATE_WORKLOAD}: sequential {:.2} ms, parallel {:.2} ms \
                 (ratio {:.3}, limit {:.3})",
                verdict.sequential_ms,
                verdict.parallel_ms,
                verdict.ratio,
                1.0 + args.max_slowdown / 100.0,
            );
            if verdict.pass {
                println!(
                    "bench_gate: PASS — parallel repair within {}% of sequential",
                    args.max_slowdown
                );
            } else {
                println!(
                    "bench_gate: FAIL — parallel repair regressed more than {}% \
                     against sequential",
                    args.max_slowdown
                );
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    }

    // Gate 2 (optional): logging overhead and recovery time.
    if let Some(path) = &args.recovery {
        let records = match load_recovery_records(path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        };
        match evaluate_recovery_gate(&records) {
            Ok(verdict) => {
                println!(
                    "bench_gate: recovery: worst overhead {:.1}% (limit {RECOVERY_MAX_OVERHEAD_PERCENT}%), \
                     worst recover/serve {:.2}x (limit {RECOVERY_MAX_RECOVER_RATIO}x)",
                    verdict.worst_overhead_percent, verdict.worst_recover_ratio,
                );
                if verdict.pass {
                    println!("bench_gate: PASS — logging overhead and recovery time within limits");
                } else {
                    println!("bench_gate: FAIL — recovery-time or logging-overhead regression");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }
    }

    // Gate 3 (optional): delta-tracked commit cost must not scale with
    // database size.
    if let Some(path) = &args.commit {
        let records = match load_commit_records(path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        };
        match evaluate_commit_gate(&records) {
            Ok(verdict) => {
                println!(
                    "bench_gate: commit: delta {:.3} ms at {} rows -> {:.3} ms at {} rows \
                     (ratio {:.2}, limit {COMMIT_MAX_RATIO}x, floor {COMMIT_FLOOR_MS} ms)",
                    verdict.small_ms,
                    verdict.small_rows,
                    verdict.large_ms,
                    verdict.large_rows,
                    verdict.ratio,
                );
                if verdict.pass {
                    println!(
                        "bench_gate: PASS — delta-tracked commit cost is flat in database size"
                    );
                } else {
                    println!("bench_gate: FAIL — repair commit cost grows with database size");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }
    }

    // Gate 4 (optional): group-commit serving throughput vs the relaxed
    // (ack-before-durable) ceiling.
    if let Some(path) = &args.serve {
        let records = match load_serve_records(path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        };
        match evaluate_serve_gate(&records, args.serve_max_regression) {
            Ok(verdict) => {
                println!(
                    "bench_gate: serve: relaxed {:.0} rps, group {:.0} rps \
                     (ratio {:.3}, limit {:.3})",
                    verdict.relaxed_rps,
                    verdict.group_rps,
                    verdict.ratio,
                    1.0 - args.serve_max_regression / 100.0,
                );
                if verdict.pass {
                    println!(
                        "bench_gate: PASS — group commit within {}% of relaxed-tier throughput",
                        args.serve_max_regression
                    );
                } else {
                    println!(
                        "bench_gate: FAIL — group-commit serving throughput regressed more \
                         than {}% against the relaxed tier",
                        args.serve_max_regression
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }

        // Gate 4b: shard scaling on the same report — the partition-sharded
        // engine must actually buy parallel throughput.
        match evaluate_shard_gate(&records) {
            Ok(verdict) => {
                println!(
                    "bench_gate: shards: 1-shard {:.0} rps, {SHARD_GATE_SHARDS}-shard {:.0} rps \
                     (speedup {:.2}x, floor {SHARD_MIN_SPEEDUP}x, host cpus {})",
                    verdict.baseline_rps, verdict.sharded_rps, verdict.speedup, verdict.host_cpus,
                );
                if verdict.skipped {
                    println!(
                        "bench_gate: SKIP — shard speedup floor not enforced: the measuring \
                         host has {} cpu(s), fewer than the {SHARD_MIN_HOST_CPUS} needed to \
                         exhibit parallel speedup (CI runners enforce this gate)",
                        verdict.host_cpus
                    );
                } else if verdict.pass {
                    println!(
                        "bench_gate: PASS — {SHARD_GATE_SHARDS} engine shards reached \
                         {SHARD_MIN_SPEEDUP}x single-shard throughput"
                    );
                } else {
                    println!(
                        "bench_gate: FAIL — {SHARD_GATE_SHARDS} engine shards below \
                         {SHARD_MIN_SPEEDUP}x single-shard throughput on the conflict-free \
                         workload"
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }
    }

    // Gate 5 (optional): column-aware frontier pruning vs the
    // partition-grained engine, with state equivalence.
    if let Some(path) = &args.frontier {
        let records = match load_frontier_records(path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        };
        match evaluate_frontier_gate(&records) {
            Ok(verdict) => {
                println!(
                    "bench_gate: frontier: worst pruning {:.1}x (limit {FRONTIER_MIN_RATIO}x), \
                     final states {}",
                    verdict.worst_ratio,
                    if verdict.dumps_match {
                        "identical"
                    } else {
                        "DIVERGED"
                    },
                );
                if verdict.pass {
                    println!(
                        "bench_gate: PASS — column-aware repair pruned the frontier at least \
                         {FRONTIER_MIN_RATIO}x with identical final state"
                    );
                } else {
                    println!(
                        "bench_gate: FAIL — column-aware frontier pruning regressed or \
                         diverged from the partition-grained engine"
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }
    }

    // Gate 6 (optional): serving under concurrent checkpoint maintenance,
    // and incremental-vs-whole-state checkpoint scaling.
    if let Some(path) = &args.storage {
        let records = match load_storage_records(path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        };
        match evaluate_storage_gate(&records, args.storage_max_p99_ratio) {
            Ok(verdict) => {
                println!(
                    "bench_gate: storage: p99 quiescent {:.1} us, maintained {:.1} us \
                     (ratio {:.2}, limit {}x); checkpoint at {} rows: \
                     whole-state {:.3} ms, incremental {:.3} ms (advantage {:.1}x, \
                     floor {STORAGE_MIN_CKPT_ADVANTAGE}x)",
                    verdict.quiescent_p99_us,
                    verdict.maintained_p99_us,
                    verdict.p99_ratio,
                    args.storage_max_p99_ratio,
                    verdict.large_rows,
                    verdict.whole_state_ms,
                    verdict.incremental_ms,
                    verdict.ckpt_advantage,
                );
                if verdict.pass {
                    println!(
                        "bench_gate: PASS — maintenance stays off the serve path and \
                         incremental checkpoints stay O(rows changed)"
                    );
                } else {
                    println!(
                        "bench_gate: FAIL — concurrent maintenance inflated serve p99 or \
                         incremental checkpoints lost their advantage over whole-state"
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }
    }

    // Gate 7 (optional): replication — standby lag and the warm failover's
    // advantage over cold log-replay.
    if let Some(path) = &args.replication {
        let records = match load_replication_records(path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        };
        match evaluate_replication_gate(&records, args.replication_min_advantage) {
            Ok(verdict) => {
                println!(
                    "bench_gate: replication: lag p99 {:.1} records \
                     (limit {REPLICATION_MAX_LAG_P99}); at {} actions: failover {:.2} ms, \
                     cold replay {:.2} ms (advantage {:.1}x, floor {}x)",
                    verdict.lag_p99_records,
                    verdict.history_actions,
                    verdict.failover_ms,
                    verdict.cold_ms,
                    verdict.advantage,
                    args.replication_min_advantage,
                );
                if verdict.advantage_skipped {
                    println!(
                        "bench_gate: SKIP — failover advantage floor not enforced: cold \
                         replay took {:.2} ms, inside the {REPLICATION_COLD_FLOOR_MS} ms \
                         noise floor (CI runs a history large enough to enforce it)",
                        verdict.cold_ms
                    );
                }
                if verdict.pass {
                    println!(
                        "bench_gate: PASS — standby lag bounded and warm failover beats \
                         cold log-replay"
                    );
                } else {
                    println!(
                        "bench_gate: FAIL — standby lag p99 exceeded its bound or warm \
                         failover lost its advantage over cold log-replay"
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
