//! The machine-readable benchmark reports (`BENCH_*.json`) and the
//! regression gates `bench_gate` runs over them.
//!
//! A report is `{"schema_version": 1, "records": [...]}`, and each record is
//! one row: a flat [`Json::Obj`] built where the table is measured. A table
//! binary run with `--json PATH` [`append`]s its rows to `PATH`. Rows of
//! other workloads are kept verbatim, and a re-run workload's old rows are
//! replaced. [`GATES`] lists the regression gates. Each gate reads one
//! report through [`load`] and returns one [`Verdict`]. A row that lacks a
//! key its gate reads is an error naming the row, never a silently skipped
//! row.
//!
//! The keys of each report, in the order the tables write them:
//!
//! **`BENCH_repair.json`**: `table7_repair_100` / `table8_repair_5000`
//! with `--workers N` or `--json`. One row per scenario, user count and
//! engine: the sequential engine first, then the partitioned one.
//!
//! | key | meaning |
//! |---|---|
//! | `workload` | the binary that wrote the row |
//! | `scenario` | the attack scenario repaired |
//! | `users` | users in the workload |
//! | `workers` | repair worker threads; 0 is the sequential engine |
//! | `repair_ms` | repair wall clock (`RepairStats::time_total`), best of three |
//! | `total_actions` | actions in the history when repair started |
//! | `app_runs_reexecuted`, `queries_reexecuted` | re-executed work |
//! | `partitions_total`, `partitions_repaired` | dependency partitions (0 sequential) |
//! | `escalations` | cross-partition escalation rounds |
//!
//! **`BENCH_recovery.json`**: `table9_recovery`. One row per history size,
//! backend and checkpoint choice.
//!
//! | key | meaning |
//! |---|---|
//! | `workload`, `backend` | `table9_recovery`; `memory` or `file` |
//! | `actions` | actions in the history |
//! | `serve_ms`, `baseline_ms` | serving with the durable log / fully in memory |
//! | `overhead_percent` | `serve_ms / baseline_ms - 1`, in percent |
//! | `recover_ms` | reopening the store and recovering |
//! | `from_checkpoint` | recovery restored a checkpoint (bool) |
//! | `store_bytes` | bytes held by the store at recovery time |
//!
//! **`BENCH_commit.json`**: `table10_commit`. One row per database size and
//! commit mode: `delta` is the mutation-tracked production path, `snapshot`
//! the snapshot-diff reference.
//!
//! | key | meaning |
//! |---|---|
//! | `workload`, `mode` | `table10_commit`; `delta` or `snapshot` |
//! | `db_rows` | stored row versions when the repair committed |
//! | `commit_ms` | building and logging the commit record, best of three |
//! | `repair_ms` | the whole repair, for context |
//! | `dirty_tables`, `dirty_rows` | the commit's write set |
//!
//! **`BENCH_serve.json`**: `table11_serve`. One row per durability tier and
//! client-thread count, then one row per engine-shard count of the
//! [`SHARD_WORKLOAD`] sweep. Both are best of three by throughput.
//!
//! | key | meaning |
//! |---|---|
//! | `workload` | `table11_serve` or [`SHARD_WORKLOAD`] |
//! | `durability` | `relaxed`, `group` or `immediate` |
//! | `threads`, `requests` | client threads; requests served |
//! | `throughput_rps`, `p50_us`, `p99_us` | throughput; per-request latency |
//! | `writer_batches`, `largest_batch` | log-writer batching (0 without a backend) |
//! | `shards` | engine shards |
//! | `host_cpus` | CPUs of the measuring host |
//!
//! **`BENCH_frontier.json`**: `table7_repair_100` / `table8_repair_5000`
//! with `--frontier`. The same one-column attack repaired once per mode,
//! `column_aware` and `partition_grained`.
//!
//! | key | meaning |
//! |---|---|
//! | `workload`, `users`, `mode` | the binary; users; the frontier mode |
//! | `repair_ms`, `total_actions` | repair wall clock; history length |
//! | `reexecuted_actions`, `reexecuted_queries` | re-executed app runs; queries |
//! | `dump_checksum` | [`fnv1a_hex`] of the repaired canonical dump |
//!
//! **`BENCH_storage.json`**: `table12_storage`. `kind` is `serve` for the
//! rows of group-commit serving with and without the background
//! maintenance worker, and `checkpoint` for the rows timing one checkpoint
//! per database size and mode.
//!
//! | key | meaning |
//! |---|---|
//! | `workload`, `kind` | `table12_storage`; `serve` or `checkpoint` |
//! | `maintenance` | serve: the maintenance worker ran (bool) |
//! | `threads`, `requests` | serve: client threads; requests served |
//! | `throughput_rps`, `p50_us`, `p99_us` | serve: throughput; latency |
//! | `folds` | serve: chain folds the worker completed |
//! | `mode` | checkpoint: `whole_state` or `incremental` |
//! | `db_rows`, `checkpoint_ms` | checkpoint: stored row versions; wall clock |
//! | `store_bytes` | bytes held by the store afterwards |
//!
//! **`BENCH_replication.json`**: `table13_replication`. `kind` is `lag` for
//! the row of standby lag sampled under the serving workload, and
//! `failover` for the rows timing warm failover against cold log-replay,
//! one per history size.
//!
//! | key | meaning |
//! |---|---|
//! | `workload`, `kind` | `table13_replication`; `lag` or `failover` |
//! | `threads`, `requests`, `samples` | lag: client threads; requests; lag samples |
//! | `lag_p50_records`, `lag_p99_records`, `lag_max_records` | lag: records behind the primary |
//! | `history_actions`, `replicated_records` | failover: history; records the standby holds |
//! | `failover_ms`, `failover_replayed` | failover: primary death to first answer; records drained |
//! | `cold_ms`, `cold_replayed` | failover: cold open plus first answer; records replayed |

use crate::json::Json;
use std::path::Path;

/// Builds a report row from `(key, value)` pairs, in order.
pub fn row<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// Reads every row of a report. A missing file holds no rows.
pub fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let rows = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no `records` array", path.display()))?;
    Ok(rows.to_vec())
}

/// Appends rows to a report, creating it if needed. Existing rows of the
/// workloads in `rows` are replaced; every other row is kept verbatim.
pub fn append(path: &Path, rows: &[Json]) -> Result<(), String> {
    let workload = |r: &Json| r.get("workload").and_then(Json::as_str).map(str::to_string);
    let replaced: Vec<String> = rows.iter().filter_map(workload).collect();
    let mut kept = load(path)?;
    kept.retain(|r| workload(r).is_none_or(|w| !replaced.contains(&w)));
    kept.extend_from_slice(rows);
    let doc = row([
        ("schema_version", Json::Num(1.0)),
        ("records", Json::Arr(kept)),
    ]);
    std::fs::write(path, doc.to_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// FNV-1a 64-bit hash of a string, as fixed-width hex. Used to compare
/// canonical database dumps across frontier modes without storing the
/// dumps themselves in the report.
pub fn fnv1a_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// A gate's verdict over one report.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The measured values and the limits they were held to, on one line.
    pub summary: String,
    /// False if the report shows a regression.
    pub pass: bool,
    /// True if a check was not enforced because its data sat in a noise
    /// floor or the host could not show the effect. The summary says which.
    pub skipped: bool,
}

/// One regression gate of `bench_gate`.
pub struct Gate {
    /// The name `bench_gate` prints before the verdict.
    pub name: &'static str,
    /// The `bench_gate` flag naming the report; `None` is the positional one.
    pub flag: Option<&'static str>,
    /// The report file the gate reads, by its conventional name.
    pub report: &'static str,
    /// Judges the rows; `Err` if a row it needs is missing or lacks a key.
    pub check: fn(&[Json]) -> Result<Verdict, String>,
}

/// Every regression gate, in the order `bench_gate` runs them. The
/// thresholds are the constants next to each check.
pub const GATES: [Gate; 8] = [
    Gate {
        name: "repair",
        flag: None,
        report: "BENCH_repair.json",
        check: check_repair,
    },
    Gate {
        name: "recovery",
        flag: Some("--recovery"),
        report: "BENCH_recovery.json",
        check: check_recovery,
    },
    Gate {
        name: "commit",
        flag: Some("--commit"),
        report: "BENCH_commit.json",
        check: check_commit,
    },
    Gate {
        name: "serve",
        flag: Some("--serve"),
        report: "BENCH_serve.json",
        check: check_serve,
    },
    Gate {
        name: "shards",
        flag: Some("--serve"),
        report: "BENCH_serve.json",
        check: check_shard,
    },
    Gate {
        name: "frontier",
        flag: Some("--frontier"),
        report: "BENCH_frontier.json",
        check: check_frontier,
    },
    Gate {
        name: "storage",
        flag: Some("--storage"),
        report: "BENCH_storage.json",
        check: check_storage,
    },
    Gate {
        name: "replication",
        flag: Some("--replication"),
        report: "BENCH_replication.json",
        check: check_replication,
    },
];

/// One row of a report being judged, with its index for error messages.
#[derive(Clone, Copy)]
struct Row<'a>(usize, &'a Json);

impl<'a> Row<'a> {
    fn missing(self, key: &str, kind: &str) -> String {
        format!("row {}: `{key}` is missing or not a {kind}", self.0)
    }

    fn num(self, key: &str) -> Result<f64, String> {
        let value = self.1.get(key).and_then(Json::as_f64);
        value.ok_or_else(|| self.missing(key, "number"))
    }

    fn count(self, key: &str) -> Result<usize, String> {
        let value = self.1.get(key).and_then(Json::as_usize);
        value.ok_or_else(|| self.missing(key, "count"))
    }

    fn text(self, key: &str) -> Result<&'a str, String> {
        let value = self.1.get(key).and_then(Json::as_str);
        value.ok_or_else(|| self.missing(key, "string"))
    }

    fn flag(self, key: &str) -> Result<bool, String> {
        match self.1.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(self.missing(key, "bool")),
        }
    }
}

fn rows(report: &[Json]) -> impl Iterator<Item = Row<'_>> {
    report.iter().enumerate().map(|(i, r)| Row(i, r))
}

/// The rows whose `key` is `value`, or the first row that lacks `key`.
fn rows_where<'a>(report: &'a [Json], key: &str, value: &str) -> Result<Vec<Row<'a>>, String> {
    let mut matching = Vec::new();
    for row in rows(report) {
        if row.text(key)? == value {
            matching.push(row);
        }
    }
    Ok(matching)
}

fn verdict(pass: bool, summary: String) -> Result<Verdict, String> {
    Ok(Verdict {
        summary,
        pass,
        skipped: false,
    })
}

/// The workload the repair gate judges.
pub const GATE_WORKLOAD: &str = "table7_repair_100";

/// Allowed slowdown of partitioned over sequential repair, in percent.
pub const REPAIR_MAX_SLOWDOWN_PERCENT: f64 = 10.0;

/// The repair gate: on [`GATE_WORKLOAD`], summed partitioned repair time
/// (workers > 0) must be within [`REPAIR_MAX_SLOWDOWN_PERCENT`] of summed
/// sequential repair time (workers == 0). Sums are steadier than
/// per-scenario ratios on small workloads.
fn check_repair(report: &[Json]) -> Result<Verdict, String> {
    let (mut sequential_ms, mut parallel_ms) = (0.0, 0.0);
    for row in rows_where(report, "workload", GATE_WORKLOAD)? {
        let ms = row.num("repair_ms")?;
        match row.count("workers")? {
            0 => sequential_ms += ms,
            _ => parallel_ms += ms,
        }
    }
    if sequential_ms <= 0.0 || parallel_ms <= 0.0 {
        return Err(format!(
            "no sequential/parallel record pair for workload `{GATE_WORKLOAD}` \
             (run table7_repair_100 with --workers N --json first)"
        ));
    }
    let ratio = parallel_ms / sequential_ms;
    let limit = 1.0 + REPAIR_MAX_SLOWDOWN_PERCENT / 100.0;
    verdict(
        ratio <= limit,
        format!(
            "{GATE_WORKLOAD}: sequential {sequential_ms:.2} ms, parallel {parallel_ms:.2} ms \
             (ratio {ratio:.3}, limit {limit:.3})"
        ),
    )
}

/// Highest logging overhead the recovery gate tolerates, in percent.
/// Observed values sit below ~80% even on the file backend; the limit
/// leaves headroom for shared-runner noise while still catching a
/// regression that makes the durable log dominate serving.
pub const RECOVERY_MAX_OVERHEAD_PERCENT: f64 = 250.0;

/// Highest `recover_ms / serve_ms` the recovery gate tolerates. Recovery
/// replays a subset of the serving work (writes only), so it must not take
/// longer than serving did by more than this factor.
pub const RECOVERY_MAX_RECOVER_RATIO: f64 = 2.0;

/// Absolute floor (ms) under which recovery time always passes — tiny
/// workloads bottom out in timer noise, not replay cost.
pub const RECOVERY_FLOOR_MS: f64 = 50.0;

/// Baseline serving time (ms) under which the overhead check is skipped:
/// a sub-floor baseline makes `overhead_percent` a ratio of two
/// timer-noise measurements, not a statement about the durable log.
pub const RECOVERY_OVERHEAD_FLOOR_MS: f64 = 5.0;

/// The recovery gate: every row's logging overhead must stay under
/// [`RECOVERY_MAX_OVERHEAD_PERCENT`] (checked only when the in-memory
/// baseline ran at least [`RECOVERY_OVERHEAD_FLOOR_MS`]) and its recovery
/// time under `max(serve_ms × `[`RECOVERY_MAX_RECOVER_RATIO`]`,
/// `[`RECOVERY_FLOOR_MS`]`)`.
fn check_recovery(report: &[Json]) -> Result<Verdict, String> {
    if report.is_empty() {
        return Err("no recovery records (run table9_recovery with --json first)".to_string());
    }
    let (mut worst_overhead, mut worst_ratio, mut pass) = (f64::MIN, f64::MIN, true);
    for row in rows(report) {
        let (serve_ms, recover_ms) = (row.num("serve_ms")?, row.num("recover_ms")?);
        let overhead = row.num("overhead_percent")?;
        let ratio = recover_ms / serve_ms.max(1e-9);
        worst_overhead = worst_overhead.max(overhead);
        worst_ratio = worst_ratio.max(ratio);
        let overhead_regressed = row.num("baseline_ms")? >= RECOVERY_OVERHEAD_FLOOR_MS
            && overhead > RECOVERY_MAX_OVERHEAD_PERCENT;
        if overhead_regressed
            || (recover_ms > RECOVERY_FLOOR_MS && ratio > RECOVERY_MAX_RECOVER_RATIO)
        {
            pass = false;
        }
    }
    verdict(
        pass,
        format!(
            "worst overhead {worst_overhead:.1}% (limit {RECOVERY_MAX_OVERHEAD_PERCENT}%), \
             worst recover/serve {worst_ratio:.2}x (limit {RECOVERY_MAX_RECOVER_RATIO}x)"
        ),
    )
}

/// Allowed growth of delta-mode commit time across the report's database
/// sizes (the acceptance bar: roughly flat, ≤ 2× while the database grows
/// 10×, since the repair footprint is fixed).
pub const COMMIT_MAX_RATIO: f64 = 2.0;

/// Absolute floor (ms) under which the large-database commit always
/// passes — sub-floor times are timer noise, not O(database) work.
pub const COMMIT_FLOOR_MS: f64 = 5.0;

/// The commit gate: the `delta` commit time at the largest database size
/// must be under `max(smallest × `[`COMMIT_MAX_RATIO`]`,
/// `[`COMMIT_FLOOR_MS`]`)`. Needs delta rows at two or more sizes.
fn check_commit(report: &[Json]) -> Result<Verdict, String> {
    let mut delta = Vec::new();
    for row in rows_where(report, "mode", "delta")? {
        delta.push((row.count("db_rows")?, row.num("commit_ms")?));
    }
    let small = delta.iter().min_by_key(|r| r.0);
    let large = delta.iter().max_by_key(|r| r.0);
    let (Some(&(small_rows, small_ms)), Some(&(large_rows, large_ms))) = (small, large) else {
        return Err("no delta-mode commit records (run table10_commit with --json first)".into());
    };
    if small_rows == large_rows {
        return Err(format!(
            "commit report holds only one database size ({small_rows} rows); cannot check scaling"
        ));
    }
    let ratio = large_ms / small_ms.max(1e-9);
    verdict(
        large_ms <= COMMIT_FLOOR_MS || ratio <= COMMIT_MAX_RATIO,
        format!(
            "delta {small_ms:.3} ms at {small_rows} rows -> {large_ms:.3} ms at {large_rows} rows \
             (ratio {ratio:.2}, limit {COMMIT_MAX_RATIO}x, floor {COMMIT_FLOOR_MS} ms)"
        ),
    )
}

/// Allowed shortfall of best `group` throughput against best `relaxed`
/// throughput, in percent.
pub const SERVE_MAX_REGRESSION_PERCENT: f64 = 10.0;

/// The serve gate: best `group` throughput must stay within
/// [`SERVE_MAX_REGRESSION_PERCENT`] of best `relaxed` throughput. The
/// relaxed tier acknowledges before durability, so it bounds what the serve
/// path can do. Best across thread counts is compared, which is steadier on
/// shared runners than per-thread-count ratios. The [`SHARD_WORKLOAD`]
/// sweep measures a different workload and has its own gate.
fn check_serve(report: &[Json]) -> Result<Verdict, String> {
    let mut runs = Vec::new();
    for row in rows(report) {
        let tier = row.text("durability")?;
        runs.push((row.text("workload")?, tier, row.num("throughput_rps")?));
    }
    let best = |tier: &str| {
        let runs = runs.iter().filter(|r| r.0 != SHARD_WORKLOAD && r.1 == tier);
        runs.map(|r| r.2).reduce(f64::max)
    };
    let (Some(relaxed_rps), Some(group_rps)) = (best("relaxed"), best("group")) else {
        return Err(
            "no relaxed/group serving records (run table11_serve with --json first)".to_string(),
        );
    };
    let ratio = group_rps / relaxed_rps.max(1e-9);
    let limit = 1.0 - SERVE_MAX_REGRESSION_PERCENT / 100.0;
    verdict(
        ratio >= limit,
        format!(
            "relaxed {relaxed_rps:.0} rps, group {group_rps:.0} rps \
             (ratio {ratio:.3}, limit {limit:.3})"
        ),
    )
}

/// Workload name of the shard-scaling sweep appended to `BENCH_serve.json`
/// by `table11_serve`: the conflict-free clone-safe workload served at
/// 1/2/4/8 engine shards.
pub const SHARD_WORKLOAD: &str = "table11_serve_shards";

/// Required throughput speedup of [`SHARD_GATE_SHARDS`] engine shards over
/// the single-shard baseline on the conflict-free workload.
pub const SHARD_MIN_SPEEDUP: f64 = 1.5;

/// The shard count whose speedup the gate enforces.
pub const SHARD_GATE_SHARDS: usize = 4;

/// Minimum CPUs on the measuring host for the speedup floor to be
/// enforceable; below this the gate is skipped instead of failing.
pub const SHARD_MIN_HOST_CPUS: usize = 4;

/// The shard gate: on [`SHARD_WORKLOAD`], [`SHARD_GATE_SHARDS`] engine
/// shards must reach [`SHARD_MIN_SPEEDUP`]x single-shard throughput.
/// Parallel speedup needs parallel hardware, so on hosts with fewer than
/// [`SHARD_MIN_HOST_CPUS`] CPUs the verdict passes as skipped.
fn check_shard(report: &[Json]) -> Result<Verdict, String> {
    let mut sweep = Vec::new();
    for row in rows_where(report, "workload", SHARD_WORKLOAD)? {
        sweep.push((
            row.count("shards")?,
            row.num("throughput_rps")?,
            row.count("host_cpus")?,
        ));
    }
    let best = |shards: usize| {
        let runs = sweep.iter().filter(|r| r.0 == shards);
        runs.map(|r| r.1).reduce(f64::max)
    };
    let (Some(baseline_rps), Some(sharded_rps)) = (best(1), best(SHARD_GATE_SHARDS)) else {
        return Err(format!(
            "no {SHARD_WORKLOAD} records at 1 and {SHARD_GATE_SHARDS} shards \
             (run table11_serve with --json first)"
        ));
    };
    let host_cpus = sweep.iter().map(|r| r.2).max().unwrap_or(0);
    let speedup = sharded_rps / baseline_rps.max(1e-9);
    let skipped = host_cpus < SHARD_MIN_HOST_CPUS;
    let mut summary = format!(
        "1-shard {baseline_rps:.0} rps, {SHARD_GATE_SHARDS}-shard {sharded_rps:.0} rps \
         (speedup {speedup:.2}x, floor {SHARD_MIN_SPEEDUP}x, host cpus {host_cpus})"
    );
    if skipped {
        summary += &format!(
            "; floor not enforced: fewer than {SHARD_MIN_HOST_CPUS} cpus cannot show \
             parallel speedup (CI runners enforce it)"
        );
    }
    Ok(Verdict {
        summary,
        pass: skipped || speedup >= SHARD_MIN_SPEEDUP,
        skipped,
    })
}

/// Minimum frontier-pruning factor the gate demands: on the surgical
/// single-column attack, the partition-grained engine must re-execute at
/// least this many times more history nodes (application runs + queries)
/// than the column-aware engine. The attack dirties one column read by
/// almost nobody, so the column-aware frontier is a handful of nodes while
/// the partition-grained frontier is every post-attack reader of the
/// page — well past 5× at bench scale.
pub const FRONTIER_MIN_RATIO: f64 = 5.0;

/// The frontier gate: every (workload, users) pair must hold a
/// `column_aware` and a `partition_grained` row, the partition-grained one
/// must re-execute at least [`FRONTIER_MIN_RATIO`] times as many history
/// nodes (`reexecuted_actions + reexecuted_queries`), and both dump
/// checksums must match: pruning may only skip re-executions that could
/// not change the final state.
fn check_frontier(report: &[Json]) -> Result<Verdict, String> {
    let mut runs = Vec::new();
    for row in rows(report) {
        let nodes = row.count("reexecuted_actions")? + row.count("reexecuted_queries")?;
        runs.push((
            row.text("mode")?,
            row.text("workload")?,
            row.count("users")?,
            nodes as f64,
            row.text("dump_checksum")?,
        ));
    }
    let (mut worst_ratio, mut dumps_match, mut pairs) = (f64::MAX, true, 0);
    for aware in runs.iter().filter(|r| r.0 == "column_aware") {
        let Some(oblivious) = runs
            .iter()
            .find(|r| r.0 == "partition_grained" && r.1 == aware.1 && r.2 == aware.2)
        else {
            return Err(format!(
                "workload `{}` ({} users) has a column_aware record but no \
                 partition_grained counterpart",
                aware.1, aware.2
            ));
        };
        pairs += 1;
        worst_ratio = worst_ratio.min(oblivious.3 / aware.3.max(1e-9));
        dumps_match &= oblivious.4 == aware.4;
    }
    if pairs == 0 {
        return Err(
            "no frontier records (run table7_repair_100 with --frontier PATH first)".to_string(),
        );
    }
    verdict(
        dumps_match && worst_ratio >= FRONTIER_MIN_RATIO,
        format!(
            "worst pruning {worst_ratio:.1}x (limit {FRONTIER_MIN_RATIO}x), final states {}",
            if dumps_match { "identical" } else { "DIVERGED" }
        ),
    )
}

/// Highest p99 inflation the storage gate tolerates when the background
/// maintenance worker (chain folds, segment retirement, cold-tier moves)
/// runs concurrently with serving: maintained p99 must stay within this
/// factor of quiescent p99.
pub const STORAGE_MAX_P99_RATIO: f64 = 2.0;

/// Absolute p99 (µs) under which the maintained serve run always passes —
/// a sub-millisecond p99 is a healthy serve path whatever its ratio to an
/// even-smaller quiescent number.
pub const STORAGE_P99_FLOOR_US: f64 = 1000.0;

/// Minimum factor by which an incremental (delta) checkpoint must beat a
/// whole-state (base) checkpoint at the largest database size in the
/// report. The delta encodes only rows changed since the last checkpoint,
/// so on a grown database with a fixed write footprint the advantage is
/// large; this floor catches the delta path silently degrading to
/// O(database).
pub const STORAGE_MIN_CKPT_ADVANTAGE: f64 = 5.0;

/// Whole-state checkpoint time (ms) under which the advantage check is
/// skipped: when even the full base encode is timer noise, the ratio says
/// nothing about scaling.
pub const STORAGE_CKPT_FLOOR_MS: f64 = 2.0;

/// The storage gate: the best serving p99 under concurrent maintenance
/// must stay within [`STORAGE_MAX_P99_RATIO`] of the best quiescent p99
/// (passing under [`STORAGE_P99_FLOOR_US`]), and at the largest database
/// size the incremental checkpoint must be at least
/// [`STORAGE_MIN_CKPT_ADVANTAGE`] times cheaper than the whole-state one
/// (passing when the whole-state time is under [`STORAGE_CKPT_FLOOR_MS`]).
fn check_storage(report: &[Json]) -> Result<Verdict, String> {
    let mut serves = Vec::new();
    for row in rows_where(report, "kind", "serve")? {
        serves.push((row.flag("maintenance")?, row.num("p99_us")?));
    }
    let best_p99 = |maintenance: bool| {
        let runs = serves.iter().filter(|r| r.0 == maintenance);
        runs.map(|r| r.1).reduce(f64::min)
    };
    let (Some(quiescent_p99), Some(maintained_p99)) = (best_p99(false), best_p99(true)) else {
        return Err(
            "no quiescent/maintained serve record pair (run table12_storage with --json first)"
                .to_string(),
        );
    };
    let mut checkpoints = Vec::new();
    for row in rows_where(report, "kind", "checkpoint")? {
        checkpoints.push((
            row.text("mode")?,
            row.count("db_rows")?,
            row.num("checkpoint_ms")?,
        ));
    }
    let largest = |mode: &str| {
        let runs = checkpoints.iter().filter(|c| c.0 == mode);
        runs.max_by_key(|c| c.1)
    };
    let (Some(&(_, _, incremental_ms)), Some(&(_, large_rows, whole_ms))) =
        (largest("incremental"), largest("whole_state"))
    else {
        return Err(
            "no incremental/whole_state checkpoint record pair (run table12_storage with \
             --json first)"
                .to_string(),
        );
    };
    let p99_ratio = maintained_p99 / quiescent_p99.max(1e-9);
    let advantage = whole_ms / incremental_ms.max(1e-9);
    let p99_ok = maintained_p99 <= STORAGE_P99_FLOOR_US || p99_ratio <= STORAGE_MAX_P99_RATIO;
    let ckpt_ok = whole_ms <= STORAGE_CKPT_FLOOR_MS || advantage >= STORAGE_MIN_CKPT_ADVANTAGE;
    verdict(
        p99_ok && ckpt_ok,
        format!(
            "p99 quiescent {quiescent_p99:.1} us, maintained {maintained_p99:.1} us \
             (ratio {p99_ratio:.2}, limit {STORAGE_MAX_P99_RATIO}x); checkpoint at \
             {large_rows} rows: whole-state {whole_ms:.3} ms, incremental {incremental_ms:.3} ms \
             (advantage {advantage:.1}x, floor {STORAGE_MIN_CKPT_ADVANTAGE}x)"
        ),
    )
}

/// Loudest steady-state lag p99 (in records) the replication gate accepts.
/// The bound is deliberately loud: the standby applies on one thread while
/// the primary serves from many, so transient spikes are expected — but a
/// p99 past this says the standby cannot keep up with the workload at all,
/// which breaks both bounded-staleness reads and fast failover.
pub const REPLICATION_MAX_LAG_P99: f64 = 1024.0;

/// Minimum factor by which failing over to a warm standby must beat cold
/// log-replay at the largest measured history, both timed to the first
/// answered request. The standby only has to apply the stretch it was
/// behind by — promotion itself replays nothing — while the cold open
/// replays the primary's whole (never checkpointed) log.
pub const REPLICATION_MIN_FAILOVER_ADVANTAGE: f64 = 3.0;

/// Cold-open time (ms) under which the failover-advantage check is
/// skipped: when even full log replay is a few milliseconds, the ratio is
/// timer noise, not a scaling statement.
pub const REPLICATION_COLD_FLOOR_MS: f64 = 20.0;

/// The replication gate: the best lag p99 must stay under
/// [`REPLICATION_MAX_LAG_P99`] records, and at the largest history warm
/// failover must be at least [`REPLICATION_MIN_FAILOVER_ADVANTAGE`] times
/// faster than cold log-replay (skipped when the cold open is under
/// [`REPLICATION_COLD_FLOOR_MS`]).
fn check_replication(report: &[Json]) -> Result<Verdict, String> {
    let mut lags = Vec::new();
    for row in rows_where(report, "kind", "lag")? {
        lags.push(row.num("lag_p99_records")?);
    }
    let lag_p99 = (lags.into_iter().reduce(f64::min))
        .ok_or("no lag record (run table13_replication with --json first)")?;
    let mut failovers = Vec::new();
    for row in rows_where(report, "kind", "failover")? {
        failovers.push((
            row.count("history_actions")?,
            row.num("failover_ms")?,
            row.num("cold_ms")?,
        ));
    }
    let &(actions, failover_ms, cold_ms) = failovers
        .iter()
        .max_by_key(|f| f.0)
        .ok_or("no failover record (run table13_replication with --json first)")?;
    let advantage = cold_ms / failover_ms.max(1e-9);
    let skipped = cold_ms <= REPLICATION_COLD_FLOOR_MS;
    let mut summary = format!(
        "lag p99 {lag_p99:.1} records (limit {REPLICATION_MAX_LAG_P99}); at {actions} actions: \
         failover {failover_ms:.2} ms, cold replay {cold_ms:.2} ms (advantage {advantage:.1}x, \
         floor {REPLICATION_MIN_FAILOVER_ADVANTAGE}x)"
    );
    if skipped {
        summary += &format!(
            "; advantage floor not enforced: cold replay inside the \
             {REPLICATION_COLD_FLOOR_MS} ms noise floor"
        );
    }
    Ok(Verdict {
        summary,
        pass: lag_p99 <= REPLICATION_MAX_LAG_P99
            && (skipped || advantage >= REPLICATION_MIN_FAILOVER_ADVANTAGE),
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(gate: &str, report: &[Json]) -> Result<Verdict, String> {
        let gate = GATES.iter().find(|g| g.name == gate).expect("gate exists");
        (gate.check)(report)
    }

    fn passes(gate: &str, report: &[Json]) -> bool {
        check(gate, report).expect("judgeable report").pass
    }

    fn temp_report(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("warp-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Appending a table's rows twice leaves them in the report once,
    /// verbatim.
    fn round_trip(name: &str, rows: Vec<Json>) {
        let path = temp_report(name);
        append(&path, &rows).unwrap();
        assert_eq!(load(&path).unwrap(), rows);
        append(&path, &rows).unwrap();
        assert_eq!(load(&path).unwrap(), rows);
        let _ = std::fs::remove_file(&path);
    }

    fn record(workload: &str, scenario: &str, workers: usize, ms: f64) -> Json {
        row([
            ("workload", Json::Str(workload.into())),
            ("scenario", Json::Str(scenario.into())),
            ("users", Json::Num(20.0)),
            ("workers", Json::Num(workers as f64)),
            ("repair_ms", Json::Num(ms)),
            ("total_actions", Json::Num(100.0)),
        ])
    }

    fn workloads(path: &Path) -> Vec<String> {
        let rows = load(path).unwrap();
        let workload = |r: &Json| r.get("workload").and_then(Json::as_str).map(str::to_string);
        rows.iter()
            .map(|r| workload(r).unwrap_or_default())
            .collect()
    }

    #[test]
    fn report_file_round_trip_and_workload_replacement() {
        let path = temp_report("BENCH_repair.json");
        append(&path, &[record("table7_repair_100", "stored_xss", 0, 10.0)]).unwrap();
        append(
            &path,
            &[record("table8_repair_5000", "stored_xss", 4, 25.0)],
        )
        .unwrap();
        assert_eq!(load(&path).unwrap().len(), 2);
        // Re-running table7 replaces its old records, not duplicates them.
        append(
            &path,
            &[
                record("table7_repair_100", "stored_xss", 0, 11.0),
                record("table7_repair_100", "stored_xss", 4, 6.0),
            ],
        )
        .unwrap();
        assert_eq!(
            workloads(&path),
            [
                "table8_repair_5000",
                "table7_repair_100",
                "table7_repair_100"
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_keeps_rows_of_every_other_shape() {
        // A file holding two row shapes and a row with no workload at all:
        // appending repair rows replaces only their own workload's rows.
        let path = temp_report("BENCH_mixed.json");
        let other_shape = storage_ckpt_record("incremental", 1_000, 0.5);
        let stray = row([("note", Json::Str("hand-written".into()))]);
        let old = record(GATE_WORKLOAD, "stored_xss", 0, 10.0);
        let doc = row([
            ("schema_version", Json::Num(1.0)),
            (
                "records",
                Json::Arr(vec![old, other_shape.clone(), stray.clone()]),
            ),
        ]);
        std::fs::write(&path, doc.to_json()).unwrap();
        let fresh = record(GATE_WORKLOAD, "stored_xss", 4, 9.0);
        append(&path, std::slice::from_ref(&fresh)).unwrap();
        assert_eq!(load(&path).unwrap(), vec![other_shape, stray, fresh]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let records = vec![
            record(GATE_WORKLOAD, "stored_xss", 0, 100.0),
            record(GATE_WORKLOAD, "sql_injection", 0, 100.0),
            record(GATE_WORKLOAD, "stored_xss", 4, 105.0),
            record(GATE_WORKLOAD, "sql_injection", 4, 100.0),
            // Other workloads are ignored by the gate.
            record("table8_repair_5000", "stored_xss", 4, 9999.0),
        ];
        let verdict = check("repair", &records).unwrap();
        assert!(
            verdict.pass && !verdict.skipped,
            "2.5% slower is within the 10% gate: {verdict:?}"
        );
        assert!(verdict.summary.contains("ratio 1.025"), "{verdict:?}");
        let records = vec![
            record(GATE_WORKLOAD, "stored_xss", 0, 100.0),
            record(GATE_WORKLOAD, "stored_xss", 4, 112.0),
        ];
        assert!(!passes("repair", &records), "12% slower exceeds the gate");
    }

    #[test]
    fn gate_requires_both_engines() {
        let records = vec![record(GATE_WORKLOAD, "stored_xss", 0, 100.0)];
        assert!(check("repair", &records).is_err());
        assert!(check("repair", &[]).is_err());
    }

    #[test]
    fn a_row_missing_a_key_its_gate_reads_is_an_error() {
        let mut incomplete = record(GATE_WORKLOAD, "stored_xss", 4, 90.0);
        if let Json::Obj(fields) = &mut incomplete {
            fields.retain(|(k, _)| k != "repair_ms");
        }
        let records = vec![
            record(GATE_WORKLOAD, "stored_xss", 0, 100.0),
            incomplete,
            record(GATE_WORKLOAD, "stored_xss", 4, 95.0),
        ];
        let err = check("repair", &records).unwrap_err();
        assert!(
            err.contains("row 1") && err.contains("`repair_ms`"),
            "{err}"
        );
        // The key a row is selected by counts too.
        let err = check("repair", &[row([("users", Json::Num(2.0))])]).unwrap_err();
        assert!(err.contains("row 0") && err.contains("`workload`"), "{err}");
    }

    fn recovery_record(overhead: f64, serve_ms: f64, recover_ms: f64) -> Json {
        row([
            ("workload", Json::Str("table9_recovery".into())),
            ("backend", Json::Str("memory".into())),
            ("actions", Json::Num(100.0)),
            ("serve_ms", Json::Num(serve_ms)),
            (
                "baseline_ms",
                Json::Num(serve_ms / (1.0 + overhead / 100.0)),
            ),
            ("overhead_percent", Json::Num(overhead)),
            ("recover_ms", Json::Num(recover_ms)),
            ("from_checkpoint", Json::Bool(false)),
            ("store_bytes", Json::Num(1000.0)),
        ])
    }

    #[test]
    fn recovery_gate_limits_overhead_and_recovery_time() {
        // Healthy: modest overhead, recovery faster than serving.
        assert!(passes("recovery", &[recovery_record(80.0, 100.0, 70.0)]));
        // Overhead regression fails.
        assert!(!passes("recovery", &[recovery_record(400.0, 100.0, 70.0)]));
        // Recovery-time regression fails...
        assert!(!passes("recovery", &[recovery_record(80.0, 100.0, 900.0)]));
        // ...unless it is under the absolute noise floor.
        assert!(passes("recovery", &[recovery_record(80.0, 1.0, 40.0)]));
        // A huge overhead ratio over a sub-floor baseline is timer noise,
        // not a logging regression.
        assert!(passes("recovery", &[recovery_record(400.0, 0.5, 0.1)]));
        // No data is an error, not a silent pass.
        assert!(check("recovery", &[]).is_err());
    }

    fn commit_record(mode: &str, db_rows: usize, commit_ms: f64) -> Json {
        row([
            ("workload", Json::Str("table10_commit".into())),
            ("mode", Json::Str(mode.into())),
            ("db_rows", Json::Num(db_rows as f64)),
            ("commit_ms", Json::Num(commit_ms)),
            ("repair_ms", Json::Num(commit_ms * 10.0)),
            ("dirty_tables", Json::Num(1.0)),
            ("dirty_rows", Json::Num(12.0)),
        ])
    }

    #[test]
    fn commit_gate_checks_delta_flatness_only() {
        // Flat delta commits pass even though snapshot commits blow up.
        let records = vec![
            commit_record("delta", 1_000, 10.0),
            commit_record("delta", 10_000, 14.0),
            commit_record("snapshot", 1_000, 20.0),
            commit_record("snapshot", 10_000, 400.0),
        ];
        let verdict = check("commit", &records).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        assert!(verdict.summary.contains("at 10000 rows"), "{verdict:?}");
        // Delta commit growing with the database fails.
        let records = vec![
            commit_record("delta", 1_000, 10.0),
            commit_record("delta", 10_000, 95.0),
        ];
        assert!(!passes("commit", &records));
        // Sub-floor times pass regardless of ratio (timer noise).
        let records = vec![
            commit_record("delta", 1_000, 0.01),
            commit_record("delta", 10_000, 0.08),
        ];
        assert!(passes("commit", &records));
        // One size or zero records is an error.
        assert!(check("commit", &[commit_record("delta", 1_000, 1.0)]).is_err());
        assert!(check("commit", &[]).is_err());
    }

    #[test]
    fn commit_report_round_trips() {
        round_trip(
            "BENCH_commit.json",
            vec![
                commit_record("delta", 1_000, 1.5),
                commit_record("snapshot", 1_000, 9.5),
            ],
        );
    }

    fn serve_row(workload: &str, durability: &str, rps: f64, shards: usize, cpus: usize) -> Json {
        row([
            ("workload", Json::Str(workload.into())),
            ("durability", Json::Str(durability.into())),
            ("threads", Json::Num(4.0)),
            ("requests", Json::Num(400.0)),
            ("throughput_rps", Json::Num(rps)),
            ("p50_us", Json::Num(100.0)),
            ("p99_us", Json::Num(900.0)),
            ("writer_batches", Json::Num(40.0)),
            ("largest_batch", Json::Num(8.0)),
            ("shards", Json::Num(shards as f64)),
            ("host_cpus", Json::Num(cpus as f64)),
        ])
    }

    fn serve_record(durability: &str, rps: f64) -> Json {
        serve_row("table11_serve", durability, rps, 1, 8)
    }

    fn shard_record(shards: usize, rps: f64, host_cpus: usize) -> Json {
        serve_row(SHARD_WORKLOAD, "relaxed", rps, shards, host_cpus)
    }

    #[test]
    fn serve_gate_compares_best_group_vs_best_relaxed() {
        let records = vec![
            serve_record("relaxed", 9_000.0),
            serve_record("relaxed", 10_000.0),
            serve_record("group", 8_800.0),
            serve_record("group", 9_500.0),
            serve_record("immediate", 7_000.0),
        ];
        let verdict = check("serve", &records).unwrap();
        assert!(
            verdict.pass,
            "5% under relaxed passes a 10% gate: {verdict:?}"
        );
        assert!(verdict.summary.contains("ratio 0.950"), "{verdict:?}");
        // A real regression fails.
        let records = vec![
            serve_record("relaxed", 10_000.0),
            serve_record("group", 8_000.0),
        ];
        assert!(!passes("serve", &records));
        // Missing a tier is an error, not a silent pass.
        assert!(check("serve", &[serve_record("relaxed", 1.0)]).is_err());
        assert!(check("serve", &[]).is_err());
        // The shard sweep's (faster) relaxed records must not raise the
        // ceiling the group tier is judged against.
        let records = vec![
            serve_record("relaxed", 10_000.0),
            serve_record("group", 9_500.0),
            shard_record(4, 30_000.0, 8),
        ];
        assert!(passes("serve", &records));
    }

    #[test]
    fn shard_gate_enforces_speedup_on_multicore_hosts_only() {
        // 2x at 4 shards on an 8-cpu host passes the 1.5x floor.
        let records = vec![
            shard_record(1, 5_000.0, 8),
            shard_record(2, 8_000.0, 8),
            shard_record(4, 10_000.0, 8),
            shard_record(8, 11_000.0, 8),
        ];
        let verdict = check("shards", &records).unwrap();
        assert!(verdict.pass && !verdict.skipped, "{verdict:?}");
        assert!(verdict.summary.contains("speedup 2.00x"), "{verdict:?}");
        // No speedup on a multicore host fails.
        let records = vec![shard_record(1, 5_000.0, 8), shard_record(4, 5_500.0, 8)];
        let verdict = check("shards", &records).unwrap();
        assert!(!verdict.pass && !verdict.skipped, "{verdict:?}");
        // The identical measurement on a single-core host is skipped, not
        // failed: there is no parallel hardware to exhibit speedup on.
        let records = vec![shard_record(1, 5_000.0, 1), shard_record(4, 5_500.0, 1)];
        let verdict = check("shards", &records).unwrap();
        assert!(verdict.pass && verdict.skipped, "{verdict:?}");
        // Missing the sweep (or half of it) is an error, not a silent pass.
        assert!(check("shards", &[shard_record(1, 5_000.0, 8)]).is_err());
        assert!(check("shards", &[serve_record("relaxed", 1.0)]).is_err());
        assert!(check("shards", &[]).is_err());
    }

    #[test]
    fn serve_rows_without_shard_fields_are_an_error() {
        // A sweep row written without the shard axis is not read as one
        // shard on an unknown host: the gate names the missing key.
        let mut legacy = shard_record(1, 5_000.0, 8);
        if let Json::Obj(fields) = &mut legacy {
            fields.retain(|(k, _)| k != "shards" && k != "host_cpus");
        }
        let records = vec![shard_record(4, 9_000.0, 8), legacy];
        let err = check("shards", &records).unwrap_err();
        assert!(err.contains("row 1") && err.contains("`shards`"), "{err}");
    }

    #[test]
    fn serve_report_round_trips() {
        round_trip(
            "BENCH_serve.json",
            vec![
                serve_record("relaxed", 5_000.0),
                shard_record(4, 4_800.0, 2),
            ],
        );
    }

    fn frontier_record(mode: &str, reexecuted: usize, checksum: &str, users: usize) -> Json {
        row([
            ("workload", Json::Str("table7_repair_100".into())),
            ("users", Json::Num(users as f64)),
            ("mode", Json::Str(mode.into())),
            ("repair_ms", Json::Num(12.0)),
            ("total_actions", Json::Num(200.0)),
            ("reexecuted_actions", Json::Num(reexecuted as f64)),
            ("reexecuted_queries", Json::Num(reexecuted as f64 * 3.0)),
            ("dump_checksum", Json::Str(checksum.into())),
        ])
    }

    #[test]
    fn frontier_gate_demands_pruning_and_matching_dumps() {
        let records = vec![
            frontier_record("column_aware", 4, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        let verdict = check("frontier", &records).unwrap();
        assert!(verdict.pass, "11x pruning passes the 5x gate: {verdict:?}");
        assert!(verdict.summary.contains("worst pruning 11.0x"));
        assert!(verdict.summary.contains("identical"));
        // Too little pruning fails.
        let records = vec![
            frontier_record("column_aware", 20, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        assert!(!passes("frontier", &records));
        // Diverging final states fail even with strong pruning.
        let records = vec![
            frontier_record("column_aware", 4, "abcd", 20),
            frontier_record("partition_grained", 44, "ffff", 20),
        ];
        let verdict = check("frontier", &records).unwrap();
        assert!(verdict.summary.contains("DIVERGED"));
        assert!(!verdict.pass);
        // A column-aware frontier of zero passes (nothing to re-execute
        // beats everything): ratio uses a tiny denominator floor.
        let records = vec![
            frontier_record("column_aware", 0, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        assert!(passes("frontier", &records));
        // Missing a mode is an error, not a silent pass.
        assert!(check(
            "frontier",
            &[frontier_record("column_aware", 4, "abcd", 20)]
        )
        .is_err());
        assert!(check("frontier", &[]).is_err());
    }

    #[test]
    fn frontier_report_round_trips() {
        round_trip(
            "BENCH_frontier.json",
            vec![
                frontier_record("column_aware", 4, "abcd", 20),
                frontier_record("partition_grained", 44, "abcd", 20),
            ],
        );
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishes() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("warp"), fnv1a_hex("warp"));
        assert_ne!(fnv1a_hex("warp"), fnv1a_hex("wasp"));
    }

    fn storage_serve_record(maintenance: bool, p99_us: f64) -> Json {
        row([
            ("workload", Json::Str("table12_storage".into())),
            ("kind", Json::Str("serve".into())),
            ("maintenance", Json::Bool(maintenance)),
            ("threads", Json::Num(4.0)),
            ("requests", Json::Num(1600.0)),
            ("throughput_rps", Json::Num(8_000.0)),
            ("p50_us", Json::Num(p99_us / 4.0)),
            ("p99_us", Json::Num(p99_us)),
            ("folds", Json::Num(if maintenance { 3.0 } else { 0.0 })),
            ("store_bytes", Json::Num(100_000.0)),
        ])
    }

    fn storage_ckpt_record(mode: &str, db_rows: usize, checkpoint_ms: f64) -> Json {
        row([
            ("workload", Json::Str("table12_storage".into())),
            ("kind", Json::Str("checkpoint".into())),
            ("mode", Json::Str(mode.into())),
            ("db_rows", Json::Num(db_rows as f64)),
            ("checkpoint_ms", Json::Num(checkpoint_ms)),
            ("store_bytes", Json::Num(db_rows as f64 * 100.0)),
        ])
    }

    #[test]
    fn storage_gate_bounds_maintained_p99_and_demands_delta_advantage() {
        let healthy = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 3_000.0),
            storage_ckpt_record("incremental", 1_000, 0.5),
            storage_ckpt_record("whole_state", 1_000, 4.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        let verdict = check("storage", &healthy).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        assert!(verdict.summary.contains("at 10000 rows"), "{verdict:?}");
        assert!(verdict.summary.contains("ratio 1.50"), "{verdict:?}");
        assert!(verdict.summary.contains("advantage 66.7x"), "{verdict:?}");
        // Maintenance tripling p99 fails.
        let slow_serve = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 6_500.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(!passes("storage", &slow_serve));
        // ...unless the maintained p99 is under the absolute floor.
        let tiny_serve = vec![
            storage_serve_record(false, 100.0),
            storage_serve_record(true, 800.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(passes("storage", &tiny_serve));
        // An incremental checkpoint degrading to O(database) fails.
        let flat_delta = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 2_500.0),
            storage_ckpt_record("incremental", 10_000, 25.0),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(!passes("storage", &flat_delta));
        // ...unless even the whole-state encode is timer noise.
        let tiny_ckpt = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 2_500.0),
            storage_ckpt_record("incremental", 10_000, 1.0),
            storage_ckpt_record("whole_state", 10_000, 1.5),
        ];
        assert!(passes("storage", &tiny_ckpt));
        // The advantage is judged at the LARGEST size only: a small-db
        // whole-state time never stands in for the grown database.
        assert!(verdict.summary.contains("whole-state 40.000 ms"));
        // Missing either pair is an error, not a silent pass.
        assert!(check("storage", &[storage_serve_record(false, 1.0)]).is_err());
        let serve_only = [
            storage_serve_record(false, 1.0),
            storage_serve_record(true, 1.0),
        ];
        assert!(check("storage", &serve_only).is_err());
        assert!(check("storage", &[]).is_err());
    }

    #[test]
    fn storage_report_round_trips() {
        round_trip(
            "BENCH_storage.json",
            vec![
                storage_serve_record(true, 2_000.0),
                storage_ckpt_record("incremental", 1_000, 0.5),
            ],
        );
    }

    fn replication_lag_record(lag_p99: f64) -> Json {
        row([
            ("workload", Json::Str("table13_replication".into())),
            ("kind", Json::Str("lag".into())),
            ("threads", Json::Num(4.0)),
            ("requests", Json::Num(2_000.0)),
            ("samples", Json::Num(500.0)),
            ("lag_p50_records", Json::Num(lag_p99 / 4.0)),
            ("lag_p99_records", Json::Num(lag_p99)),
            ("lag_max_records", Json::Num(lag_p99 * 2.0)),
        ])
    }

    fn replication_failover_record(actions: usize, failover_ms: f64, cold_ms: f64) -> Json {
        row([
            ("workload", Json::Str("table13_replication".into())),
            ("kind", Json::Str("failover".into())),
            ("history_actions", Json::Num(actions as f64)),
            ("replicated_records", Json::Num(actions as f64 + 10.0)),
            ("failover_ms", Json::Num(failover_ms)),
            ("failover_replayed", Json::Num(12.0)),
            ("cold_ms", Json::Num(cold_ms)),
            ("cold_replayed", Json::Num(actions as f64 + 10.0)),
        ])
    }

    #[test]
    fn replication_gate_checks_lag_and_failover_advantage() {
        let healthy = vec![
            replication_lag_record(12.0),
            replication_failover_record(500, 8.0, 120.0),
            replication_failover_record(2_000, 10.0, 400.0),
        ];
        let verdict = check("replication", &healthy).unwrap();
        assert!(verdict.pass && !verdict.skipped, "{verdict:?}");
        // The advantage is judged at the LARGEST history only.
        assert!(verdict.summary.contains("at 2000 actions"), "{verdict:?}");
        assert!(verdict.summary.contains("advantage 40.0x"), "{verdict:?}");
        // A standby that cannot keep up fails the lag bound.
        let lagging = vec![
            replication_lag_record(REPLICATION_MAX_LAG_P99 * 3.0),
            replication_failover_record(2_000, 10.0, 400.0),
        ];
        assert!(!passes("replication", &lagging));
        // A promote no faster than cold replay fails the advantage floor...
        let slow_promote = vec![
            replication_lag_record(12.0),
            replication_failover_record(2_000, 200.0, 400.0),
        ];
        assert!(!passes("replication", &slow_promote));
        // ...unless even the cold open is timer noise.
        let tiny = vec![
            replication_lag_record(12.0),
            replication_failover_record(100, 6.0, 8.0),
        ];
        let verdict = check("replication", &tiny).unwrap();
        assert!(verdict.pass && verdict.skipped, "{verdict:?}");
        // Missing either kind is an error, not a silent pass.
        assert!(check("replication", &[replication_lag_record(1.0)]).is_err());
        let failover_only = [replication_failover_record(100, 1.0, 50.0)];
        assert!(check("replication", &failover_only).is_err());
        assert!(check("replication", &[]).is_err());
    }

    #[test]
    fn replication_report_round_trips() {
        round_trip(
            "BENCH_replication.json",
            vec![
                replication_lag_record(9.0),
                replication_failover_record(300, 5.0, 60.0),
            ],
        );
    }
}
