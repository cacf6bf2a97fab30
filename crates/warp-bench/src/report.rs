//! The machine-readable repair benchmark report (`BENCH_repair.json`).
//!
//! `table7_repair_100 --workers N --json PATH` and
//! `table8_repair_5000 --workers N --json PATH` run every repair twice —
//! once with the classic sequential engine and once with the partitioned
//! parallel engine — and append one [`RepairBenchRecord`] per run to the
//! report. CI uploads the report as an artifact and runs the `bench_gate`
//! binary over it, which fails the build if parallel repair regressed
//! against sequential by more than the allowed slowdown on the 100-user
//! workload (see [`evaluate_gate`]).

use crate::json::Json;
use std::path::Path;

/// The workload name the CI regression gate checks.
pub const GATE_WORKLOAD: &str = "table7_repair_100";

/// One timed repair run.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairBenchRecord {
    /// Which table binary produced the record (`table7_repair_100` /
    /// `table8_repair_5000`).
    pub workload: String,
    /// The attack scenario repaired.
    pub scenario: String,
    /// Users in the workload.
    pub users: usize,
    /// Worker threads (0 = the classic sequential engine).
    pub workers: usize,
    /// Repair wall-clock time in milliseconds (`RepairStats::time_total`).
    pub repair_ms: f64,
    /// Actions in the history when repair started.
    pub total_actions: usize,
    /// Application runs re-executed.
    pub app_runs_reexecuted: usize,
    /// Queries re-executed.
    pub queries_reexecuted: usize,
    /// Dependency partitions in the history (0 for the sequential engine).
    pub partitions_total: usize,
    /// Partitions actually repaired.
    pub partitions_repaired: usize,
    /// Cross-partition escalation rounds.
    pub escalations: usize,
}

impl RepairBenchRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("users".into(), Json::Num(self.users as f64)),
            ("workers".into(), Json::Num(self.workers as f64)),
            ("repair_ms".into(), Json::Num(self.repair_ms)),
            ("total_actions".into(), Json::Num(self.total_actions as f64)),
            (
                "app_runs_reexecuted".into(),
                Json::Num(self.app_runs_reexecuted as f64),
            ),
            (
                "queries_reexecuted".into(),
                Json::Num(self.queries_reexecuted as f64),
            ),
            (
                "partitions_total".into(),
                Json::Num(self.partitions_total as f64),
            ),
            (
                "partitions_repaired".into(),
                Json::Num(self.partitions_repaired as f64),
            ),
            ("escalations".into(), Json::Num(self.escalations as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<RepairBenchRecord> {
        Some(RepairBenchRecord {
            workload: value.get("workload")?.as_str()?.to_string(),
            scenario: value.get("scenario")?.as_str()?.to_string(),
            users: value.get("users")?.as_usize()?,
            workers: value.get("workers")?.as_usize()?,
            repair_ms: value.get("repair_ms")?.as_f64()?,
            total_actions: value.get("total_actions")?.as_usize()?,
            app_runs_reexecuted: value.get("app_runs_reexecuted")?.as_usize()?,
            queries_reexecuted: value.get("queries_reexecuted")?.as_usize()?,
            partitions_total: value.get("partitions_total")?.as_usize()?,
            partitions_repaired: value.get("partitions_repaired")?.as_usize()?,
            escalations: value.get("escalations")?.as_usize()?,
        })
    }
}

/// The shared report-file envelope: `{"schema_version": 1, "records": [..]}`.
/// Both `BENCH_repair.json` and `BENCH_recovery.json` use it, through one
/// implementation so the formats cannot drift apart.
fn load_record_array(path: &Path) -> Result<Vec<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let records = doc
        .get("records")
        .and_then(|r| r.as_arr())
        .ok_or_else(|| format!("{}: no `records` array", path.display()))?;
    Ok(records.to_vec())
}

/// Writes the shared envelope: previous records of the workloads being
/// re-run are replaced instead of accumulating duplicates.
fn write_record_array(
    path: &Path,
    mut existing: Vec<Json>,
    new: Vec<Json>,
    replaced_workloads: &[&str],
) -> Result<(), String> {
    existing.retain(|r| {
        r.get("workload")
            .and_then(|w| w.as_str())
            .map(|w| !replaced_workloads.contains(&w))
            .unwrap_or(true)
    });
    existing.extend(new);
    let doc = Json::Obj(vec![
        ("schema_version".into(), Json::Num(1.0)),
        ("records".into(), Json::Arr(existing)),
    ]);
    std::fs::write(path, doc.to_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Reads every record from a report file. Missing file → empty.
pub fn load_records(path: &Path) -> Result<Vec<RepairBenchRecord>, String> {
    Ok(load_record_array(path)?
        .iter()
        .filter_map(RepairBenchRecord::from_json)
        .collect())
}

/// Appends records to a report file (creating it if needed), keeping records
/// written by other binaries.
pub fn append_records(path: &Path, new: &[RepairBenchRecord]) -> Result<(), String> {
    let existing = load_records(path)?.iter().map(|r| r.to_json()).collect();
    let workloads: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    write_record_array(
        path,
        existing,
        new.iter().map(|r| r.to_json()).collect(),
        &workloads,
    )
}

/// One timed persistence measurement (`BENCH_recovery.json`), produced by
/// `table9_recovery`: how much the durable action log slows down serving,
/// and how long recovery takes as the history grows.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBenchRecord {
    /// Which binary produced the record (`table9_recovery`).
    pub workload: String,
    /// Storage backend measured (`memory` / `file`).
    pub backend: String,
    /// Actions in the history when the measurement was taken.
    pub actions: usize,
    /// Wall-clock serving time of the workload with logging enabled (ms).
    pub serve_ms: f64,
    /// Wall-clock serving time of the same workload fully in memory (ms).
    pub baseline_ms: f64,
    /// Logging overhead: `serve_ms / baseline_ms - 1`, in percent.
    pub overhead_percent: f64,
    /// Wall-clock `WarpServer::open` recovery time (ms).
    pub recover_ms: f64,
    /// True if recovery restored a checkpoint (vs replaying the whole log).
    pub from_checkpoint: bool,
    /// Bytes held by the durable store at recovery time.
    pub store_bytes: u64,
}

impl RecoveryBenchRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("actions".into(), Json::Num(self.actions as f64)),
            ("serve_ms".into(), Json::Num(self.serve_ms)),
            ("baseline_ms".into(), Json::Num(self.baseline_ms)),
            ("overhead_percent".into(), Json::Num(self.overhead_percent)),
            ("recover_ms".into(), Json::Num(self.recover_ms)),
            ("from_checkpoint".into(), Json::Bool(self.from_checkpoint)),
            ("store_bytes".into(), Json::Num(self.store_bytes as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<RecoveryBenchRecord> {
        Some(RecoveryBenchRecord {
            workload: value.get("workload")?.as_str()?.to_string(),
            backend: value.get("backend")?.as_str()?.to_string(),
            actions: value.get("actions")?.as_usize()?,
            serve_ms: value.get("serve_ms")?.as_f64()?,
            baseline_ms: value.get("baseline_ms")?.as_f64()?,
            overhead_percent: value.get("overhead_percent")?.as_f64()?,
            recover_ms: value.get("recover_ms")?.as_f64()?,
            from_checkpoint: matches!(value.get("from_checkpoint"), Some(Json::Bool(true))),
            store_bytes: value.get("store_bytes")?.as_f64().map(|b| b as u64)?,
        })
    }
}

/// Reads every recovery record from a report file. Missing file → empty.
pub fn load_recovery_records(path: &Path) -> Result<Vec<RecoveryBenchRecord>, String> {
    Ok(load_record_array(path)?
        .iter()
        .filter_map(RecoveryBenchRecord::from_json)
        .collect())
}

/// Writes recovery records to a report file (replacing any previous run of
/// the same workload, like [`append_records`] does for repair records).
pub fn append_recovery_records(path: &Path, new: &[RecoveryBenchRecord]) -> Result<(), String> {
    let existing = load_recovery_records(path)?
        .iter()
        .map(|r| r.to_json())
        .collect();
    let workloads: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    write_record_array(
        path,
        existing,
        new.iter().map(|r| r.to_json()).collect(),
        &workloads,
    )
}

/// One timed repair-commit measurement (`BENCH_commit.json`), produced by
/// `table10_commit`: how long building and logging the repair commit record
/// takes as the database grows while the repair footprint stays fixed. The
/// `delta` mode is the production mutation-tracked path (O(rows changed));
/// the `snapshot` mode is the snapshot-diff reference path (O(database)),
/// measured alongside so the scaling difference is visible in one report.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitBenchRecord {
    /// Which binary produced the record (`table10_commit`).
    pub workload: String,
    /// Commit construction strategy: `delta` or `snapshot`.
    pub mode: String,
    /// Stored row versions in the database when the repair committed.
    pub db_rows: usize,
    /// Wall-clock time building + logging the commit record (ms).
    pub commit_ms: f64,
    /// Total repair wall clock (ms), for context.
    pub repair_ms: f64,
    /// Tables the committed repair actually changed.
    pub dirty_tables: usize,
    /// Row versions the commit removed + added (the write-set size).
    pub dirty_rows: usize,
}

impl CommitBenchRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("db_rows".into(), Json::Num(self.db_rows as f64)),
            ("commit_ms".into(), Json::Num(self.commit_ms)),
            ("repair_ms".into(), Json::Num(self.repair_ms)),
            ("dirty_tables".into(), Json::Num(self.dirty_tables as f64)),
            ("dirty_rows".into(), Json::Num(self.dirty_rows as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<CommitBenchRecord> {
        Some(CommitBenchRecord {
            workload: value.get("workload")?.as_str()?.to_string(),
            mode: value.get("mode")?.as_str()?.to_string(),
            db_rows: value.get("db_rows")?.as_usize()?,
            commit_ms: value.get("commit_ms")?.as_f64()?,
            repair_ms: value.get("repair_ms")?.as_f64()?,
            dirty_tables: value.get("dirty_tables")?.as_usize()?,
            dirty_rows: value.get("dirty_rows")?.as_usize()?,
        })
    }
}

/// Reads every commit record from a report file. Missing file → empty.
pub fn load_commit_records(path: &Path) -> Result<Vec<CommitBenchRecord>, String> {
    Ok(load_record_array(path)?
        .iter()
        .filter_map(CommitBenchRecord::from_json)
        .collect())
}

/// Writes commit records to a report file (replacing any previous run of
/// the same workload, like [`append_records`] does for repair records).
pub fn append_commit_records(path: &Path, new: &[CommitBenchRecord]) -> Result<(), String> {
    let existing = load_commit_records(path)?
        .iter()
        .map(|r| r.to_json())
        .collect();
    let workloads: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    write_record_array(
        path,
        existing,
        new.iter().map(|r| r.to_json()).collect(),
        &workloads,
    )
}

/// One timed serving measurement (`BENCH_serve.json`), produced by
/// `table11_serve`: request throughput and latency through the concurrent
/// `Warp` façade, per durability tier and client-thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchRecord {
    /// Which binary produced the record (`table11_serve`).
    pub workload: String,
    /// Durability tier measured (`relaxed` / `group` / `immediate`).
    pub durability: String,
    /// Concurrent client threads issuing requests.
    pub threads: usize,
    /// Requests served.
    pub requests: usize,
    /// Aggregate throughput (requests per second).
    pub throughput_rps: f64,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Log-writer batches flushed during the run (0 without a backend).
    pub writer_batches: u64,
    /// Largest batch the writer flushed.
    pub largest_batch: usize,
    /// Engine shards the deployment ran with (1 = the classic single-shard
    /// engine; the [`SHARD_WORKLOAD`] sweeps this axis).
    pub shards: usize,
    /// CPUs available on the measuring host. The shard-scaling gate only
    /// enforces its speedup floor when this is at least
    /// [`SHARD_MIN_HOST_CPUS`] — a single-core container cannot exhibit
    /// parallel speedup, however correct the sharding is.
    pub host_cpus: usize,
}

impl ServeBenchRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("durability".into(), Json::Str(self.durability.clone())),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("requests".into(), Json::Num(self.requests as f64)),
            ("throughput_rps".into(), Json::Num(self.throughput_rps)),
            ("p50_us".into(), Json::Num(self.p50_us)),
            ("p99_us".into(), Json::Num(self.p99_us)),
            (
                "writer_batches".into(),
                Json::Num(self.writer_batches as f64),
            ),
            ("largest_batch".into(), Json::Num(self.largest_batch as f64)),
            ("shards".into(), Json::Num(self.shards as f64)),
            ("host_cpus".into(), Json::Num(self.host_cpus as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<ServeBenchRecord> {
        Some(ServeBenchRecord {
            workload: value.get("workload")?.as_str()?.to_string(),
            durability: value.get("durability")?.as_str()?.to_string(),
            threads: value.get("threads")?.as_usize()?,
            requests: value.get("requests")?.as_usize()?,
            throughput_rps: value.get("throughput_rps")?.as_f64()?,
            p50_us: value.get("p50_us")?.as_f64()?,
            p99_us: value.get("p99_us")?.as_f64()?,
            writer_batches: value.get("writer_batches")?.as_f64().map(|b| b as u64)?,
            largest_batch: value.get("largest_batch")?.as_usize()?,
            // Reports written before the sharded engine existed measured the
            // classic single-shard engine and said nothing about the host.
            shards: value.get("shards").and_then(Json::as_usize).unwrap_or(1),
            host_cpus: value.get("host_cpus").and_then(Json::as_usize).unwrap_or(0),
        })
    }
}

/// Reads every serving record from a report file. Missing file → empty.
pub fn load_serve_records(path: &Path) -> Result<Vec<ServeBenchRecord>, String> {
    Ok(load_record_array(path)?
        .iter()
        .filter_map(ServeBenchRecord::from_json)
        .collect())
}

/// Writes serving records to a report file (replacing any previous run of
/// the same workload, like [`append_records`] does for repair records).
pub fn append_serve_records(path: &Path, new: &[ServeBenchRecord]) -> Result<(), String> {
    let existing = load_serve_records(path)?
        .iter()
        .map(|r| r.to_json())
        .collect();
    let workloads: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    write_record_array(
        path,
        existing,
        new.iter().map(|r| r.to_json()).collect(),
        &workloads,
    )
}

/// The gate's verdict over a report.
#[derive(Debug, Clone, PartialEq)]
pub struct GateVerdict {
    /// Summed sequential repair wall clock (ms) on the gate workload.
    pub sequential_ms: f64,
    /// Summed parallel repair wall clock (ms) on the gate workload.
    pub parallel_ms: f64,
    /// `parallel_ms / sequential_ms`.
    pub ratio: f64,
    /// True if parallel repair is within the allowed slowdown.
    pub pass: bool,
}

/// Evaluates the benchmark-regression gate: on the [`GATE_WORKLOAD`],
/// parallel repair (workers > 0) must not be slower than sequential repair
/// (workers == 0) by more than `max_slowdown_percent`. Scenario times are
/// summed, which is more stable than per-scenario comparison on small
/// workloads. Returns an error when the report holds no comparable pair.
pub fn evaluate_gate(
    records: &[RepairBenchRecord],
    max_slowdown_percent: f64,
) -> Result<GateVerdict, String> {
    let gate: Vec<&RepairBenchRecord> = records
        .iter()
        .filter(|r| r.workload == GATE_WORKLOAD)
        .collect();
    let sequential_ms: f64 = gate
        .iter()
        .filter(|r| r.workers == 0)
        .map(|r| r.repair_ms)
        .sum();
    let parallel_ms: f64 = gate
        .iter()
        .filter(|r| r.workers > 0)
        .map(|r| r.repair_ms)
        .sum();
    if sequential_ms <= 0.0 || parallel_ms <= 0.0 {
        return Err(format!(
            "no sequential/parallel record pair for workload `{GATE_WORKLOAD}` \
             (run table7_repair_100 with --workers N --json first)"
        ));
    }
    let ratio = parallel_ms / sequential_ms;
    Ok(GateVerdict {
        sequential_ms,
        parallel_ms,
        ratio,
        pass: ratio <= 1.0 + max_slowdown_percent / 100.0,
    })
}

/// The recovery gate's verdict: the worst logging overhead and the worst
/// recovery-to-serve ratio seen across the report.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryGateVerdict {
    /// Highest `overhead_percent` across all records.
    pub worst_overhead_percent: f64,
    /// Highest `recover_ms / serve_ms` across all records.
    pub worst_recover_ratio: f64,
    /// True if every record stayed within the limits.
    pub pass: bool,
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

/// Evaluates the recovery-regression gate over `BENCH_recovery.json`:
/// every record's logging overhead must stay under
/// [`RECOVERY_MAX_OVERHEAD_PERCENT`] (checked only when the in-memory
/// baseline ran at least [`RECOVERY_OVERHEAD_FLOOR_MS`], so noise-sized
/// measurements never fail the gate) and its recovery time under
/// `max(serve_ms × `[`RECOVERY_MAX_RECOVER_RATIO`]`, `[`RECOVERY_FLOOR_MS`]`)`.
/// Returns an error when the report holds no records at all.
pub fn evaluate_recovery_gate(
    records: &[RecoveryBenchRecord],
) -> Result<RecoveryGateVerdict, String> {
    if records.is_empty() {
        return Err("no recovery records (run table9_recovery with --json first)".to_string());
    }
    let mut verdict = RecoveryGateVerdict {
        worst_overhead_percent: f64::MIN,
        worst_recover_ratio: f64::MIN,
        pass: true,
    };
    for r in records {
        let ratio = r.recover_ms / r.serve_ms.max(1e-9);
        verdict.worst_overhead_percent = verdict.worst_overhead_percent.max(r.overhead_percent);
        verdict.worst_recover_ratio = verdict.worst_recover_ratio.max(ratio);
        let overhead_regressed = r.baseline_ms >= RECOVERY_OVERHEAD_FLOOR_MS
            && r.overhead_percent > RECOVERY_MAX_OVERHEAD_PERCENT;
        if overhead_regressed
            || (r.recover_ms > RECOVERY_FLOOR_MS && ratio > RECOVERY_MAX_RECOVER_RATIO)
        {
            verdict.pass = false;
        }
    }
    Ok(verdict)
}

/// The commit gate's verdict: commit cost at the smallest and largest
/// database size in the report, for the mutation-tracked `delta` mode.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitGateVerdict {
    /// Delta-mode commit time at the smallest database size (ms).
    pub small_ms: f64,
    /// Delta-mode commit time at the largest database size (ms).
    pub large_ms: f64,
    /// Stored rows at the smallest / largest size.
    pub small_rows: usize,
    /// Stored rows at the largest size.
    pub large_rows: usize,
    /// `large_ms / small_ms`.
    pub ratio: f64,
    /// True if commit cost stayed flat (or under the absolute floor).
    pub pass: bool,
}

/// Allowed growth of delta-mode commit time across the report's database
/// sizes (the acceptance bar: roughly flat, ≤ 2× while the database grows
/// 10×, since the repair footprint is fixed).
pub const COMMIT_MAX_RATIO: f64 = 2.0;

/// Absolute floor (ms) under which the large-database commit always
/// passes — sub-floor times are timer noise, not O(database) work.
pub const COMMIT_FLOOR_MS: f64 = 5.0;

/// Evaluates the commit-scaling gate over `BENCH_commit.json`: the
/// mutation-tracked (`delta`) commit time at the largest database size
/// must be under `max(small × `[`COMMIT_MAX_RATIO`]`, `[`COMMIT_FLOOR_MS`]`)`.
/// Returns an error unless the report holds delta records at two or more
/// database sizes.
pub fn evaluate_commit_gate(records: &[CommitBenchRecord]) -> Result<CommitGateVerdict, String> {
    let delta: Vec<&CommitBenchRecord> = records.iter().filter(|r| r.mode == "delta").collect();
    let small = delta.iter().min_by_key(|r| r.db_rows);
    let large = delta.iter().max_by_key(|r| r.db_rows);
    let (Some(small), Some(large)) = (small, large) else {
        return Err("no delta-mode commit records (run table10_commit with --json first)".into());
    };
    if small.db_rows == large.db_rows {
        return Err(format!(
            "commit report holds only one database size ({} rows); cannot check scaling",
            small.db_rows
        ));
    }
    let ratio = large.commit_ms / small.commit_ms.max(1e-9);
    Ok(CommitGateVerdict {
        small_ms: small.commit_ms,
        large_ms: large.commit_ms,
        small_rows: small.db_rows,
        large_rows: large.db_rows,
        ratio,
        pass: large.commit_ms <= COMMIT_FLOOR_MS || ratio <= COMMIT_MAX_RATIO,
    })
}

/// The serving gate's verdict: best group-commit throughput vs best
/// relaxed-tier throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeGateVerdict {
    /// Best `relaxed` throughput across thread counts (rps).
    pub relaxed_rps: f64,
    /// Best `group` throughput across thread counts (rps).
    pub group_rps: f64,
    /// `group_rps / relaxed_rps`.
    pub ratio: f64,
    /// True if group commit held its throughput ratio.
    pub pass: bool,
}

/// Evaluates the serving-regression gate over `BENCH_serve.json`: the best
/// `group`-tier throughput must stay within `max_regression_percent` of the
/// best `relaxed`-tier throughput (the relaxed tier acknowledges without
/// waiting for durability, so it bounds what the serve path can do; group
/// commit buys durable acks and must not give back more than the allowed
/// slice). Best-across-thread-counts is compared, which is much more stable
/// on shared runners than per-thread-count ratios. Returns an error when
/// either tier is missing from the report.
pub fn evaluate_serve_gate(
    records: &[ServeBenchRecord],
    max_regression_percent: f64,
) -> Result<ServeGateVerdict, String> {
    let best = |tier: &str| -> Option<f64> {
        records
            .iter()
            // The shard-scaling sweep reuses the record shape but measures a
            // different workload; it has its own gate (`evaluate_shard_gate`)
            // and must not move the relaxed ceiling here.
            .filter(|r| r.workload != SHARD_WORKLOAD && r.durability == tier)
            .map(|r| r.throughput_rps)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    };
    let (Some(relaxed_rps), Some(group_rps)) = (best("relaxed"), best("group")) else {
        return Err(
            "no relaxed/group serving records (run table11_serve with --json first)".to_string(),
        );
    };
    let ratio = group_rps / relaxed_rps.max(1e-9);
    Ok(ServeGateVerdict {
        relaxed_rps,
        group_rps,
        ratio,
        pass: ratio >= 1.0 - max_regression_percent / 100.0,
    })
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
/// enforceable; below this the gate reports `skipped` instead of failing.
pub const SHARD_MIN_HOST_CPUS: usize = 4;

/// The shard-scaling gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardGateVerdict {
    /// Best single-shard throughput on the shard workload (rps).
    pub baseline_rps: f64,
    /// Best [`SHARD_GATE_SHARDS`]-shard throughput (rps).
    pub sharded_rps: f64,
    /// `sharded_rps / baseline_rps`.
    pub speedup: f64,
    /// CPUs on the host that produced the records.
    pub host_cpus: usize,
    /// True when the host had fewer than [`SHARD_MIN_HOST_CPUS`] CPUs, so
    /// the speedup floor was not enforced (`pass` is then true, loudly).
    pub skipped: bool,
    /// True if the gate holds (or was skipped on an undersized host).
    pub pass: bool,
}

/// Evaluates the shard-scaling gate over `BENCH_serve.json`: on the
/// conflict-free [`SHARD_WORKLOAD`], serving with [`SHARD_GATE_SHARDS`]
/// engine shards must reach at least [`SHARD_MIN_SPEEDUP`]x the
/// single-shard throughput. Parallel speedup physically requires parallel
/// hardware, so on hosts with fewer than [`SHARD_MIN_HOST_CPUS`] CPUs the
/// verdict is `skipped` (and passes) rather than a meaningless failure;
/// CI runners have enough cores and are always enforced. Returns an error
/// when the sweep is missing from the report.
pub fn evaluate_shard_gate(records: &[ServeBenchRecord]) -> Result<ShardGateVerdict, String> {
    let best = |shards: usize| -> Option<f64> {
        records
            .iter()
            .filter(|r| r.workload == SHARD_WORKLOAD && r.shards == shards)
            .map(|r| r.throughput_rps)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    };
    let (Some(baseline_rps), Some(sharded_rps)) = (best(1), best(SHARD_GATE_SHARDS)) else {
        return Err(format!(
            "no {SHARD_WORKLOAD} records at 1 and {SHARD_GATE_SHARDS} shards \
             (run table11_serve with --json first)"
        ));
    };
    let host_cpus = records
        .iter()
        .filter(|r| r.workload == SHARD_WORKLOAD)
        .map(|r| r.host_cpus)
        .max()
        .unwrap_or(0);
    let speedup = sharded_rps / baseline_rps.max(1e-9);
    let skipped = host_cpus < SHARD_MIN_HOST_CPUS;
    Ok(ShardGateVerdict {
        baseline_rps,
        sharded_rps,
        speedup,
        host_cpus,
        skipped,
        pass: skipped || speedup >= SHARD_MIN_SPEEDUP,
    })
}

/// One frontier measurement (`BENCH_frontier.json`), produced by the
/// `table7_repair_100` / `table8_repair_5000` binaries under `--frontier`:
/// the same surgical single-column attack repaired twice, once with
/// column-aware frontier pruning and once with the column-oblivious
/// (partition-grained) engine, so the report shows exactly how much of the
/// re-execution frontier the static column footprints removed.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierBenchRecord {
    /// Which table binary produced the record.
    pub workload: String,
    /// Users in the workload (frontier size scales with users).
    pub users: usize,
    /// Frontier mode: `column_aware` or `partition_grained`.
    pub mode: String,
    /// Repair wall-clock time in milliseconds (`RepairStats::time_total`).
    pub repair_ms: f64,
    /// Actions in the history when repair started.
    pub total_actions: usize,
    /// Application runs re-executed. Stays small even for the oblivious
    /// engine on this workload: a re-executed read whose result is
    /// unchanged does not cascade into an application re-run.
    pub reexecuted_actions: usize,
    /// Queries re-executed. This is where frontier pruning shows: the
    /// gate compares `reexecuted_actions + reexecuted_queries`, the total
    /// history nodes each engine had to revisit.
    pub reexecuted_queries: usize,
    /// FNV-1a 64-bit checksum (hex) of the post-repair canonical dump.
    /// Both modes must agree — pruning may only skip no-effect work.
    pub dump_checksum: String,
}

impl FrontierBenchRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("users".into(), Json::Num(self.users as f64)),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("repair_ms".into(), Json::Num(self.repair_ms)),
            ("total_actions".into(), Json::Num(self.total_actions as f64)),
            (
                "reexecuted_actions".into(),
                Json::Num(self.reexecuted_actions as f64),
            ),
            (
                "reexecuted_queries".into(),
                Json::Num(self.reexecuted_queries as f64),
            ),
            (
                "dump_checksum".into(),
                Json::Str(self.dump_checksum.clone()),
            ),
        ])
    }

    fn from_json(value: &Json) -> Option<FrontierBenchRecord> {
        Some(FrontierBenchRecord {
            workload: value.get("workload")?.as_str()?.to_string(),
            users: value.get("users")?.as_usize()?,
            mode: value.get("mode")?.as_str()?.to_string(),
            repair_ms: value.get("repair_ms")?.as_f64()?,
            total_actions: value.get("total_actions")?.as_usize()?,
            reexecuted_actions: value.get("reexecuted_actions")?.as_usize()?,
            reexecuted_queries: value.get("reexecuted_queries")?.as_usize()?,
            dump_checksum: value.get("dump_checksum")?.as_str()?.to_string(),
        })
    }
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

/// Reads every frontier record from a report file. Missing file → empty.
pub fn load_frontier_records(path: &Path) -> Result<Vec<FrontierBenchRecord>, String> {
    Ok(load_record_array(path)?
        .iter()
        .filter_map(FrontierBenchRecord::from_json)
        .collect())
}

/// Writes frontier records to a report file (replacing any previous run of
/// the same workload, like [`append_records`] does for repair records).
pub fn append_frontier_records(path: &Path, new: &[FrontierBenchRecord]) -> Result<(), String> {
    let existing = load_frontier_records(path)?
        .iter()
        .map(|r| r.to_json())
        .collect();
    let workloads: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    write_record_array(
        path,
        existing,
        new.iter().map(|r| r.to_json()).collect(),
        &workloads,
    )
}

/// The frontier gate's verdict: worst pruning ratio across comparable
/// mode pairs, and whether every pair's final states matched.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierGateVerdict {
    /// Lowest `partition_grained / column_aware` re-executed-node ratio
    /// (application runs + queries) across all (workload, users) pairs in
    /// the report.
    pub worst_ratio: f64,
    /// True if every pair's canonical-dump checksums were identical.
    pub dumps_match: bool,
    /// True if the worst ratio met [`FRONTIER_MIN_RATIO`] and dumps matched.
    pub pass: bool,
}

/// Minimum frontier-pruning factor the gate demands: on the surgical
/// single-column attack, the partition-grained engine must re-execute at
/// least this many times more history nodes (application runs + queries)
/// than the column-aware engine. The attack dirties one column read by
/// almost nobody, so the column-aware frontier is a handful of nodes while
/// the partition-grained frontier is every post-attack reader of the
/// page — well past 5× at bench scale.
pub const FRONTIER_MIN_RATIO: f64 = 5.0;

/// Evaluates the frontier gate over `BENCH_frontier.json`: every
/// (workload, users) pair must hold both a `column_aware` and a
/// `partition_grained` record, the partition-grained record must re-execute
/// at least [`FRONTIER_MIN_RATIO`] times as many history nodes
/// (`reexecuted_actions + reexecuted_queries`), and both modes' canonical
/// dump checksums must be byte-identical (pruning may only skip
/// re-executions that could not change the final state). Returns an error
/// when the report holds no comparable pair.
pub fn evaluate_frontier_gate(
    records: &[FrontierBenchRecord],
) -> Result<FrontierGateVerdict, String> {
    let mut verdict = FrontierGateVerdict {
        worst_ratio: f64::MAX,
        dumps_match: true,
        pass: true,
    };
    let mut pairs = 0usize;
    for aware in records.iter().filter(|r| r.mode == "column_aware") {
        let Some(oblivious) = records.iter().find(|r| {
            r.mode == "partition_grained" && r.workload == aware.workload && r.users == aware.users
        }) else {
            return Err(format!(
                "workload `{}` ({} users) has a column_aware record but no \
                 partition_grained counterpart",
                aware.workload, aware.users
            ));
        };
        pairs += 1;
        let nodes = |r: &FrontierBenchRecord| (r.reexecuted_actions + r.reexecuted_queries) as f64;
        let ratio = nodes(oblivious) / nodes(aware).max(1e-9);
        verdict.worst_ratio = verdict.worst_ratio.min(ratio);
        if oblivious.dump_checksum != aware.dump_checksum {
            verdict.dumps_match = false;
        }
    }
    if pairs == 0 {
        return Err(
            "no frontier records (run table7_repair_100 with --frontier PATH first)".to_string(),
        );
    }
    verdict.pass = verdict.dumps_match && verdict.worst_ratio >= FRONTIER_MIN_RATIO;
    Ok(verdict)
}

/// One storage measurement (`BENCH_storage.json`), produced by
/// `table12_storage`. Two kinds share the record shape:
///
/// * `kind == "serve"` — sustained group-commit serving throughput and
///   latency, with (`maintenance == true`) and without a concurrent
///   background maintenance worker folding the checkpoint chain and
///   retiring segments under the workload.
/// * `kind == "checkpoint"` — wall-clock cost of one checkpoint as the
///   database grows: `mode == "incremental"` writes a delta (O(rows
///   changed since the last checkpoint)), `mode == "whole_state"` encodes
///   a full base image (O(database)).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageBenchRecord {
    /// Which binary produced the record (`table12_storage`).
    pub workload: String,
    /// Measurement kind: `serve` or `checkpoint`.
    pub kind: String,
    /// Serve records: was the background maintenance worker running?
    pub maintenance: bool,
    /// Serve records: concurrent client threads.
    pub threads: usize,
    /// Serve records: requests served.
    pub requests: usize,
    /// Serve records: aggregate throughput (requests per second).
    pub throughput_rps: f64,
    /// Serve records: median per-request latency, microseconds.
    pub p50_us: f64,
    /// Serve records: 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Serve records: chain folds the maintenance worker completed during
    /// the run (0 when quiescent).
    pub folds: u64,
    /// Checkpoint records: `incremental` or `whole_state` (empty for serve).
    pub mode: String,
    /// Checkpoint records: stored row versions when the checkpoint ran.
    pub db_rows: usize,
    /// Checkpoint records: wall-clock checkpoint time (ms).
    pub checkpoint_ms: f64,
    /// Bytes held by the durable store after the measurement.
    pub store_bytes: u64,
}

impl StorageBenchRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("maintenance".into(), Json::Bool(self.maintenance)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("requests".into(), Json::Num(self.requests as f64)),
            ("throughput_rps".into(), Json::Num(self.throughput_rps)),
            ("p50_us".into(), Json::Num(self.p50_us)),
            ("p99_us".into(), Json::Num(self.p99_us)),
            ("folds".into(), Json::Num(self.folds as f64)),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("db_rows".into(), Json::Num(self.db_rows as f64)),
            ("checkpoint_ms".into(), Json::Num(self.checkpoint_ms)),
            ("store_bytes".into(), Json::Num(self.store_bytes as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<StorageBenchRecord> {
        Some(StorageBenchRecord {
            workload: value.get("workload")?.as_str()?.to_string(),
            kind: value.get("kind")?.as_str()?.to_string(),
            maintenance: matches!(value.get("maintenance"), Some(Json::Bool(true))),
            threads: value.get("threads")?.as_usize()?,
            requests: value.get("requests")?.as_usize()?,
            throughput_rps: value.get("throughput_rps")?.as_f64()?,
            p50_us: value.get("p50_us")?.as_f64()?,
            p99_us: value.get("p99_us")?.as_f64()?,
            folds: value.get("folds")?.as_f64().map(|f| f as u64)?,
            mode: value.get("mode")?.as_str()?.to_string(),
            db_rows: value.get("db_rows")?.as_usize()?,
            checkpoint_ms: value.get("checkpoint_ms")?.as_f64()?,
            store_bytes: value.get("store_bytes")?.as_f64().map(|b| b as u64)?,
        })
    }
}

/// Reads every storage record from a report file. Missing file → empty.
pub fn load_storage_records(path: &Path) -> Result<Vec<StorageBenchRecord>, String> {
    Ok(load_record_array(path)?
        .iter()
        .filter_map(StorageBenchRecord::from_json)
        .collect())
}

/// Writes storage records to a report file (replacing any previous run of
/// the same workload, like [`append_records`] does for repair records).
pub fn append_storage_records(path: &Path, new: &[StorageBenchRecord]) -> Result<(), String> {
    let existing = load_storage_records(path)?
        .iter()
        .map(|r| r.to_json())
        .collect();
    let workloads: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    write_record_array(
        path,
        existing,
        new.iter().map(|r| r.to_json()).collect(),
        &workloads,
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

/// The storage gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageGateVerdict {
    /// Best (lowest) quiescent serve p99 (µs).
    pub quiescent_p99_us: f64,
    /// Best (lowest) serve p99 with concurrent maintenance (µs).
    pub maintained_p99_us: f64,
    /// `maintained_p99_us / quiescent_p99_us`.
    pub p99_ratio: f64,
    /// Incremental checkpoint time at the largest database size (ms).
    pub incremental_ms: f64,
    /// Whole-state checkpoint time at the largest database size (ms).
    pub whole_state_ms: f64,
    /// `whole_state_ms / incremental_ms`.
    pub ckpt_advantage: f64,
    /// Stored rows at the largest measured size.
    pub large_rows: usize,
    /// True if both checks held (or bottomed out in their noise floors).
    pub pass: bool,
}

/// Evaluates the storage gate over `BENCH_storage.json`: serving p99 under
/// concurrent maintenance must stay within `max_p99_ratio` (CI runs
/// [`STORAGE_MAX_P99_RATIO`]) of quiescent p99 (best-of across records,
/// skipped under [`STORAGE_P99_FLOOR_US`]), and at the largest database size the
/// incremental checkpoint must be at least [`STORAGE_MIN_CKPT_ADVANTAGE`]
/// times cheaper than the whole-state checkpoint (skipped when the
/// whole-state time is under [`STORAGE_CKPT_FLOOR_MS`]). Returns an error
/// when either measurement pair is missing.
pub fn evaluate_storage_gate(
    records: &[StorageBenchRecord],
    max_p99_ratio: f64,
) -> Result<StorageGateVerdict, String> {
    let best_p99 = |maintenance: bool| -> Option<f64> {
        records
            .iter()
            .filter(|r| r.kind == "serve" && r.maintenance == maintenance)
            .map(|r| r.p99_us)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    };
    let (Some(quiescent_p99_us), Some(maintained_p99_us)) = (best_p99(false), best_p99(true))
    else {
        return Err(
            "no quiescent/maintained serve record pair (run table12_storage with --json first)"
                .to_string(),
        );
    };
    let largest = |mode: &str| -> Option<&StorageBenchRecord> {
        records
            .iter()
            .filter(|r| r.kind == "checkpoint" && r.mode == mode)
            .max_by_key(|r| r.db_rows)
    };
    let (Some(incremental), Some(whole)) = (largest("incremental"), largest("whole_state")) else {
        return Err(
            "no incremental/whole_state checkpoint record pair (run table12_storage with \
             --json first)"
                .to_string(),
        );
    };
    let p99_ratio = maintained_p99_us / quiescent_p99_us.max(1e-9);
    let ckpt_advantage = whole.checkpoint_ms / incremental.checkpoint_ms.max(1e-9);
    let p99_ok = maintained_p99_us <= STORAGE_P99_FLOOR_US || p99_ratio <= max_p99_ratio;
    let ckpt_ok = whole.checkpoint_ms <= STORAGE_CKPT_FLOOR_MS
        || ckpt_advantage >= STORAGE_MIN_CKPT_ADVANTAGE;
    Ok(StorageGateVerdict {
        quiescent_p99_us,
        maintained_p99_us,
        p99_ratio,
        incremental_ms: incremental.checkpoint_ms,
        whole_state_ms: whole.checkpoint_ms,
        ckpt_advantage,
        large_rows: whole.db_rows,
        pass: p99_ok && ckpt_ok,
    })
}

/// One replication measurement (`BENCH_replication.json`), produced by
/// `table13_replication`. Two kinds share the record shape:
///
/// * `kind == "lag"` — steady-state replication lag while a standby pumps
///   the shipped log under the table11 serving workload. Lag is measured
///   in *records*: the primary's durable LSN minus the standby's applied
///   LSN, sampled once per pump iteration.
/// * `kind == "failover"` — failing over to a warm standby after the
///   primary dies, against cold log-replay over the primary's full (never
///   checkpointed) log at the same history size, both to the first answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationBenchRecord {
    /// Which binary produced the record (`table13_replication`).
    pub workload: String,
    /// Measurement kind: `lag` or `failover`.
    pub kind: String,
    /// Lag records: concurrent client threads on the primary.
    pub threads: usize,
    /// Lag records: requests the primary served during the run.
    pub requests: usize,
    /// Lag records: lag samples taken (one per standby pump).
    pub samples: usize,
    /// Lag records: median lag, in records behind the primary.
    pub lag_p50_records: f64,
    /// Lag records: 99th-percentile lag, in records.
    pub lag_p99_records: f64,
    /// Lag records: worst sampled lag, in records.
    pub lag_max_records: f64,
    /// Failover records: actions in the replicated history.
    pub history_actions: usize,
    /// Failover records: log records the promoted standby holds.
    pub replicated_records: u64,
    /// Failover records: wall-clock failover (ms), from the primary's
    /// death to the first answered request — the standby drains what the
    /// stream still holds, is promoted in place, and serves.
    pub failover_ms: f64,
    /// Failover records: log records applied during that drain (what the
    /// standby was behind by when the primary died).
    pub failover_replayed: u64,
    /// Failover records: wall-clock cold open (ms) — replaying the
    /// primary's full log from scratch — plus the same first request.
    pub cold_ms: f64,
    /// Failover records: log records the cold open replayed.
    pub cold_replayed: u64,
}

impl ReplicationBenchRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("requests".into(), Json::Num(self.requests as f64)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("lag_p50_records".into(), Json::Num(self.lag_p50_records)),
            ("lag_p99_records".into(), Json::Num(self.lag_p99_records)),
            ("lag_max_records".into(), Json::Num(self.lag_max_records)),
            (
                "history_actions".into(),
                Json::Num(self.history_actions as f64),
            ),
            (
                "replicated_records".into(),
                Json::Num(self.replicated_records as f64),
            ),
            ("failover_ms".into(), Json::Num(self.failover_ms)),
            (
                "failover_replayed".into(),
                Json::Num(self.failover_replayed as f64),
            ),
            ("cold_ms".into(), Json::Num(self.cold_ms)),
            ("cold_replayed".into(), Json::Num(self.cold_replayed as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<ReplicationBenchRecord> {
        Some(ReplicationBenchRecord {
            workload: value.get("workload")?.as_str()?.to_string(),
            kind: value.get("kind")?.as_str()?.to_string(),
            threads: value.get("threads")?.as_usize()?,
            requests: value.get("requests")?.as_usize()?,
            samples: value.get("samples")?.as_usize()?,
            lag_p50_records: value.get("lag_p50_records")?.as_f64()?,
            lag_p99_records: value.get("lag_p99_records")?.as_f64()?,
            lag_max_records: value.get("lag_max_records")?.as_f64()?,
            history_actions: value.get("history_actions")?.as_usize()?,
            replicated_records: value
                .get("replicated_records")?
                .as_f64()
                .map(|v| v as u64)?,
            failover_ms: value.get("failover_ms")?.as_f64()?,
            failover_replayed: value.get("failover_replayed")?.as_f64().map(|v| v as u64)?,
            cold_ms: value.get("cold_ms")?.as_f64()?,
            cold_replayed: value.get("cold_replayed")?.as_f64().map(|v| v as u64)?,
        })
    }
}

/// Reads every replication record from a report file. Missing file → empty.
pub fn load_replication_records(path: &Path) -> Result<Vec<ReplicationBenchRecord>, String> {
    Ok(load_record_array(path)?
        .iter()
        .filter_map(ReplicationBenchRecord::from_json)
        .collect())
}

/// Writes replication records to a report file (replacing any previous run
/// of the same workload, like [`append_records`] does for repair records).
pub fn append_replication_records(
    path: &Path,
    new: &[ReplicationBenchRecord],
) -> Result<(), String> {
    let existing = load_replication_records(path)?
        .iter()
        .map(|r| r.to_json())
        .collect();
    let workloads: Vec<&str> = new.iter().map(|r| r.workload.as_str()).collect();
    write_record_array(
        path,
        existing,
        new.iter().map(|r| r.to_json()).collect(),
        &workloads,
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

/// The replication gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationGateVerdict {
    /// Best (lowest) steady-state lag p99 across lag records, in records.
    pub lag_p99_records: f64,
    /// History size (actions) of the largest failover measurement.
    pub history_actions: usize,
    /// Warm failover time at that size (ms).
    pub failover_ms: f64,
    /// Cold log-replay time at that size (ms).
    pub cold_ms: f64,
    /// `cold_ms / failover_ms`.
    pub advantage: f64,
    /// True if the advantage check bottomed out in its noise floor.
    pub advantage_skipped: bool,
    /// True if both checks held (or bottomed out in their noise floors).
    pub pass: bool,
}

/// Evaluates the replication gate over `BENCH_replication.json`:
/// steady-state lag p99 must stay under [`REPLICATION_MAX_LAG_P99`]
/// records (best-of across lag records), and at the largest measured
/// history, failing over to the warm standby must be at least `min_advantage`
/// (CI runs [`REPLICATION_MIN_FAILOVER_ADVANTAGE`]) times faster than cold
/// log-replay (skipped when the cold open is under
/// [`REPLICATION_COLD_FLOOR_MS`]). Returns an error when either
/// measurement kind is missing.
pub fn evaluate_replication_gate(
    records: &[ReplicationBenchRecord],
    min_advantage: f64,
) -> Result<ReplicationGateVerdict, String> {
    let lag_p99_records = records
        .iter()
        .filter(|r| r.kind == "lag")
        .map(|r| r.lag_p99_records)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.min(v)))
        })
        .ok_or_else(|| "no lag record (run table13_replication with --json first)".to_string())?;
    let largest = records
        .iter()
        .filter(|r| r.kind == "failover")
        .max_by_key(|r| r.history_actions)
        .ok_or_else(|| {
            "no failover record (run table13_replication with --json first)".to_string()
        })?;
    let advantage = largest.cold_ms / largest.failover_ms.max(1e-9);
    let lag_ok = lag_p99_records <= REPLICATION_MAX_LAG_P99;
    let advantage_skipped = largest.cold_ms <= REPLICATION_COLD_FLOOR_MS;
    let advantage_ok = advantage_skipped || advantage >= min_advantage;
    Ok(ReplicationGateVerdict {
        lag_p99_records,
        history_actions: largest.history_actions,
        failover_ms: largest.failover_ms,
        cold_ms: largest.cold_ms,
        advantage,
        advantage_skipped,
        pass: lag_ok && advantage_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, scenario: &str, workers: usize, ms: f64) -> RepairBenchRecord {
        RepairBenchRecord {
            workload: workload.into(),
            scenario: scenario.into(),
            users: 20,
            workers,
            repair_ms: ms,
            total_actions: 100,
            app_runs_reexecuted: 10,
            queries_reexecuted: 50,
            partitions_total: if workers > 0 { 8 } else { 0 },
            partitions_repaired: if workers > 0 { 4 } else { 0 },
            escalations: 0,
        }
    }

    #[test]
    fn report_file_round_trip_and_workload_replacement() {
        let dir = std::env::temp_dir().join(format!("warp-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_repair.json");
        let _ = std::fs::remove_file(&path);
        append_records(&path, &[record("table7_repair_100", "stored_xss", 0, 10.0)]).unwrap();
        append_records(
            &path,
            &[record("table8_repair_5000", "stored_xss", 4, 25.0)],
        )
        .unwrap();
        assert_eq!(load_records(&path).unwrap().len(), 2);
        // Re-running table7 replaces its old records, not duplicates them.
        append_records(
            &path,
            &[
                record("table7_repair_100", "stored_xss", 0, 11.0),
                record("table7_repair_100", "stored_xss", 4, 6.0),
            ],
        )
        .unwrap();
        let records = load_records(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records.iter().any(|r| r.workload == "table8_repair_5000"));
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
        let verdict = evaluate_gate(&records, 10.0).unwrap();
        assert!(
            verdict.pass,
            "2.5% slower is within the 10% gate: {verdict:?}"
        );
        let verdict = evaluate_gate(&records, 2.0).unwrap();
        assert!(!verdict.pass, "2.5% slower exceeds a 2% gate");
        assert!((verdict.ratio - 1.025).abs() < 1e-9);
    }

    #[test]
    fn gate_requires_both_engines() {
        let records = vec![record(GATE_WORKLOAD, "stored_xss", 0, 100.0)];
        assert!(evaluate_gate(&records, 10.0).is_err());
        assert!(evaluate_gate(&[], 10.0).is_err());
    }

    fn recovery_record(overhead: f64, serve_ms: f64, recover_ms: f64) -> RecoveryBenchRecord {
        RecoveryBenchRecord {
            workload: "table9_recovery".into(),
            backend: "memory".into(),
            actions: 100,
            serve_ms,
            baseline_ms: serve_ms / (1.0 + overhead / 100.0),
            overhead_percent: overhead,
            recover_ms,
            from_checkpoint: false,
            store_bytes: 1000,
        }
    }

    #[test]
    fn recovery_gate_limits_overhead_and_recovery_time() {
        // Healthy: modest overhead, recovery faster than serving.
        let ok = vec![recovery_record(80.0, 100.0, 70.0)];
        assert!(evaluate_recovery_gate(&ok).unwrap().pass);
        // Overhead regression fails.
        let slow_log = vec![recovery_record(400.0, 100.0, 70.0)];
        assert!(!evaluate_recovery_gate(&slow_log).unwrap().pass);
        // Recovery-time regression fails...
        let slow_recover = vec![recovery_record(80.0, 100.0, 900.0)];
        assert!(!evaluate_recovery_gate(&slow_recover).unwrap().pass);
        // ...unless it is under the absolute noise floor.
        let tiny = vec![recovery_record(80.0, 1.0, 40.0)];
        assert!(evaluate_recovery_gate(&tiny).unwrap().pass);
        // A huge overhead ratio over a sub-floor baseline is timer noise,
        // not a logging regression.
        let noisy = vec![recovery_record(400.0, 0.5, 0.1)];
        assert!(evaluate_recovery_gate(&noisy).unwrap().pass);
        // No data is an error, not a silent pass.
        assert!(evaluate_recovery_gate(&[]).is_err());
    }

    fn commit_record(mode: &str, db_rows: usize, commit_ms: f64) -> CommitBenchRecord {
        CommitBenchRecord {
            workload: "table10_commit".into(),
            mode: mode.into(),
            db_rows,
            commit_ms,
            repair_ms: commit_ms * 10.0,
            dirty_tables: 1,
            dirty_rows: 12,
        }
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
        let verdict = evaluate_commit_gate(&records).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        assert_eq!(verdict.large_rows, 10_000);
        // Delta commit growing with the database fails.
        let records = vec![
            commit_record("delta", 1_000, 10.0),
            commit_record("delta", 10_000, 95.0),
        ];
        assert!(!evaluate_commit_gate(&records).unwrap().pass);
        // Sub-floor times pass regardless of ratio (timer noise).
        let records = vec![
            commit_record("delta", 1_000, 0.01),
            commit_record("delta", 10_000, 0.08),
        ];
        assert!(evaluate_commit_gate(&records).unwrap().pass);
        // One size or zero records is an error.
        assert!(evaluate_commit_gate(&[commit_record("delta", 1_000, 1.0)]).is_err());
        assert!(evaluate_commit_gate(&[]).is_err());
    }

    fn serve_record(durability: &str, threads: usize, rps: f64) -> ServeBenchRecord {
        ServeBenchRecord {
            workload: "table11_serve".into(),
            durability: durability.into(),
            threads,
            requests: 400,
            throughput_rps: rps,
            p50_us: 100.0,
            p99_us: 900.0,
            writer_batches: 40,
            largest_batch: 8,
            shards: 1,
            host_cpus: 8,
        }
    }

    fn shard_record(shards: usize, rps: f64, host_cpus: usize) -> ServeBenchRecord {
        ServeBenchRecord {
            workload: SHARD_WORKLOAD.into(),
            shards,
            host_cpus,
            ..serve_record("relaxed", 8, rps)
        }
    }

    #[test]
    fn serve_gate_compares_best_group_vs_best_relaxed() {
        let records = vec![
            serve_record("relaxed", 1, 9_000.0),
            serve_record("relaxed", 4, 10_000.0),
            serve_record("group", 1, 8_800.0),
            serve_record("group", 4, 9_500.0),
            serve_record("immediate", 4, 7_000.0),
        ];
        let verdict = evaluate_serve_gate(&records, 10.0).unwrap();
        assert!(
            verdict.pass,
            "5% under relaxed passes a 10% gate: {verdict:?}"
        );
        assert!((verdict.ratio - 0.95).abs() < 1e-9);
        // A real regression fails.
        let records = vec![
            serve_record("relaxed", 4, 10_000.0),
            serve_record("group", 4, 8_000.0),
        ];
        assert!(!evaluate_serve_gate(&records, 10.0).unwrap().pass);
        // Missing a tier is an error, not a silent pass.
        assert!(evaluate_serve_gate(&[serve_record("relaxed", 1, 1.0)], 10.0).is_err());
        assert!(evaluate_serve_gate(&[], 10.0).is_err());
        // The shard sweep's (faster) relaxed records must not raise the
        // ceiling the group tier is judged against.
        let records = vec![
            serve_record("relaxed", 4, 10_000.0),
            serve_record("group", 4, 9_500.0),
            shard_record(4, 30_000.0, 8),
        ];
        assert!(evaluate_serve_gate(&records, 10.0).unwrap().pass);
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
        let verdict = evaluate_shard_gate(&records).unwrap();
        assert!(verdict.pass && !verdict.skipped, "{verdict:?}");
        assert!((verdict.speedup - 2.0).abs() < 1e-9);
        // No speedup on a multicore host fails.
        let records = vec![shard_record(1, 5_000.0, 8), shard_record(4, 5_500.0, 8)];
        let verdict = evaluate_shard_gate(&records).unwrap();
        assert!(!verdict.pass && !verdict.skipped, "{verdict:?}");
        // The identical measurement on a single-core host is skipped, not
        // failed: there is no parallel hardware to exhibit speedup on.
        let records = vec![shard_record(1, 5_000.0, 1), shard_record(4, 5_500.0, 1)];
        let verdict = evaluate_shard_gate(&records).unwrap();
        assert!(verdict.pass && verdict.skipped, "{verdict:?}");
        // Missing the sweep (or half of it) is an error, not a silent pass.
        assert!(evaluate_shard_gate(&[shard_record(1, 5_000.0, 8)]).is_err());
        assert!(evaluate_shard_gate(&[serve_record("relaxed", 4, 1.0)]).is_err());
        assert!(evaluate_shard_gate(&[]).is_err());
    }

    #[test]
    fn serve_records_without_shard_fields_load_as_single_shard() {
        // A report written before the sharded engine existed.
        let legacy = r#"{"records": [{"workload": "table11_serve",
            "durability": "group", "threads": 4, "requests": 400,
            "throughput_rps": 9000, "p50_us": 100, "p99_us": 900,
            "writer_batches": 40, "largest_batch": 8}]}"#;
        let dir = std::env::temp_dir().join(format!("warp-bench-legacy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        std::fs::write(&path, legacy).unwrap();
        let records = load_serve_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].shards, 1);
        assert_eq!(records[0].host_cpus, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_report_round_trips() {
        let dir = std::env::temp_dir().join(format!("warp-bench-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            serve_record("relaxed", 1, 5_000.0),
            serve_record("group", 8, 4_800.0),
        ];
        append_serve_records(&path, &records).unwrap();
        assert_eq!(load_serve_records(&path).unwrap(), records);
        // Re-running the workload replaces, not duplicates.
        append_serve_records(&path, &records).unwrap();
        assert_eq!(load_serve_records(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    fn frontier_record(
        mode: &str,
        reexecuted: usize,
        checksum: &str,
        users: usize,
    ) -> FrontierBenchRecord {
        FrontierBenchRecord {
            workload: "table7_repair_100".into(),
            users,
            mode: mode.into(),
            repair_ms: 12.0,
            total_actions: 200,
            reexecuted_actions: reexecuted,
            reexecuted_queries: reexecuted * 3,
            dump_checksum: checksum.into(),
        }
    }

    #[test]
    fn frontier_gate_demands_pruning_and_matching_dumps() {
        let records = vec![
            frontier_record("column_aware", 4, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        let verdict = evaluate_frontier_gate(&records).unwrap();
        assert!(verdict.pass, "11x pruning passes the 5x gate: {verdict:?}");
        assert!((verdict.worst_ratio - 11.0).abs() < 1e-9);
        assert!(verdict.dumps_match);
        // Too little pruning fails.
        let records = vec![
            frontier_record("column_aware", 20, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        assert!(!evaluate_frontier_gate(&records).unwrap().pass);
        // Diverging final states fail even with strong pruning.
        let records = vec![
            frontier_record("column_aware", 4, "abcd", 20),
            frontier_record("partition_grained", 44, "ffff", 20),
        ];
        let verdict = evaluate_frontier_gate(&records).unwrap();
        assert!(!verdict.dumps_match);
        assert!(!verdict.pass);
        // A column-aware frontier of zero passes (nothing to re-execute
        // beats everything): ratio uses a tiny denominator floor.
        let records = vec![
            frontier_record("column_aware", 0, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        assert!(evaluate_frontier_gate(&records).unwrap().pass);
        // Missing a mode is an error, not a silent pass.
        assert!(evaluate_frontier_gate(&[frontier_record("column_aware", 4, "abcd", 20)]).is_err());
        assert!(evaluate_frontier_gate(&[]).is_err());
    }

    #[test]
    fn frontier_report_round_trips() {
        let dir = std::env::temp_dir().join(format!("warp-bench-frontier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_frontier.json");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            frontier_record("column_aware", 4, "abcd", 20),
            frontier_record("partition_grained", 44, "abcd", 20),
        ];
        append_frontier_records(&path, &records).unwrap();
        assert_eq!(load_frontier_records(&path).unwrap(), records);
        // Re-running the workload replaces, not duplicates.
        append_frontier_records(&path, &records).unwrap();
        assert_eq!(load_frontier_records(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fnv1a_is_stable_and_distinguishes() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("warp"), fnv1a_hex("warp"));
        assert_ne!(fnv1a_hex("warp"), fnv1a_hex("wasp"));
    }

    fn storage_serve_record(maintenance: bool, p99_us: f64) -> StorageBenchRecord {
        StorageBenchRecord {
            workload: "table12_storage".into(),
            kind: "serve".into(),
            maintenance,
            threads: 4,
            requests: 1600,
            throughput_rps: 8_000.0,
            p50_us: p99_us / 4.0,
            p99_us,
            folds: if maintenance { 3 } else { 0 },
            mode: String::new(),
            db_rows: 0,
            checkpoint_ms: 0.0,
            store_bytes: 100_000,
        }
    }

    fn storage_ckpt_record(mode: &str, db_rows: usize, checkpoint_ms: f64) -> StorageBenchRecord {
        StorageBenchRecord {
            workload: "table12_storage".into(),
            kind: "checkpoint".into(),
            maintenance: false,
            threads: 0,
            requests: 0,
            throughput_rps: 0.0,
            p50_us: 0.0,
            p99_us: 0.0,
            folds: 0,
            mode: mode.into(),
            db_rows,
            checkpoint_ms,
            store_bytes: db_rows as u64 * 100,
        }
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
        let verdict = evaluate_storage_gate(&healthy, STORAGE_MAX_P99_RATIO).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        assert_eq!(verdict.large_rows, 10_000);
        assert!((verdict.p99_ratio - 1.5).abs() < 1e-9);
        assert!((verdict.ckpt_advantage - 40.0 / 0.6).abs() < 1e-9);
        // Maintenance tripling p99 fails.
        let slow_serve = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 6_500.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(
            !evaluate_storage_gate(&slow_serve, STORAGE_MAX_P99_RATIO)
                .unwrap()
                .pass
        );
        // ...unless the maintained p99 is under the absolute floor.
        let tiny_serve = vec![
            storage_serve_record(false, 100.0),
            storage_serve_record(true, 800.0),
            storage_ckpt_record("incremental", 10_000, 0.6),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(
            evaluate_storage_gate(&tiny_serve, STORAGE_MAX_P99_RATIO)
                .unwrap()
                .pass
        );
        // An incremental checkpoint degrading to O(database) fails.
        let flat_delta = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 2_500.0),
            storage_ckpt_record("incremental", 10_000, 25.0),
            storage_ckpt_record("whole_state", 10_000, 40.0),
        ];
        assert!(
            !evaluate_storage_gate(&flat_delta, STORAGE_MAX_P99_RATIO)
                .unwrap()
                .pass
        );
        // ...unless even the whole-state encode is timer noise.
        let tiny_ckpt = vec![
            storage_serve_record(false, 2_000.0),
            storage_serve_record(true, 2_500.0),
            storage_ckpt_record("incremental", 10_000, 1.0),
            storage_ckpt_record("whole_state", 10_000, 1.5),
        ];
        assert!(
            evaluate_storage_gate(&tiny_ckpt, STORAGE_MAX_P99_RATIO)
                .unwrap()
                .pass
        );
        // The advantage is judged at the LARGEST size only: a small-db
        // whole-state time never stands in for the grown database.
        let verdict = evaluate_storage_gate(&healthy, STORAGE_MAX_P99_RATIO).unwrap();
        assert!((verdict.whole_state_ms - 40.0).abs() < 1e-9);
        // Missing either pair is an error, not a silent pass.
        assert!(
            evaluate_storage_gate(&[storage_serve_record(false, 1.0)], STORAGE_MAX_P99_RATIO)
                .is_err()
        );
        assert!(evaluate_storage_gate(
            &[
                storage_serve_record(false, 1.0),
                storage_serve_record(true, 1.0),
            ],
            STORAGE_MAX_P99_RATIO
        )
        .is_err());
        assert!(evaluate_storage_gate(&[], STORAGE_MAX_P99_RATIO).is_err());
    }

    #[test]
    fn storage_report_round_trips() {
        let dir = std::env::temp_dir().join(format!("warp-bench-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_storage.json");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            storage_serve_record(true, 2_000.0),
            storage_ckpt_record("incremental", 1_000, 0.5),
        ];
        append_storage_records(&path, &records).unwrap();
        assert_eq!(load_storage_records(&path).unwrap(), records);
        // Re-running the workload replaces, not duplicates.
        append_storage_records(&path, &records).unwrap();
        assert_eq!(load_storage_records(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    fn replication_lag_record(lag_p99: f64) -> ReplicationBenchRecord {
        ReplicationBenchRecord {
            workload: "table13_replication".into(),
            kind: "lag".into(),
            threads: 4,
            requests: 2_000,
            samples: 500,
            lag_p50_records: lag_p99 / 4.0,
            lag_p99_records: lag_p99,
            lag_max_records: lag_p99 * 2.0,
            history_actions: 0,
            replicated_records: 0,
            failover_ms: 0.0,
            failover_replayed: 0,
            cold_ms: 0.0,
            cold_replayed: 0,
        }
    }

    fn replication_failover_record(
        actions: usize,
        failover_ms: f64,
        cold_ms: f64,
    ) -> ReplicationBenchRecord {
        ReplicationBenchRecord {
            workload: "table13_replication".into(),
            kind: "failover".into(),
            threads: 0,
            requests: 0,
            samples: 0,
            lag_p50_records: 0.0,
            lag_p99_records: 0.0,
            lag_max_records: 0.0,
            history_actions: actions,
            replicated_records: actions as u64 + 10,
            failover_ms,
            failover_replayed: 12,
            cold_ms,
            cold_replayed: actions as u64 + 10,
        }
    }

    #[test]
    fn replication_gate_checks_lag_and_failover_advantage() {
        let healthy = vec![
            replication_lag_record(12.0),
            replication_failover_record(500, 8.0, 120.0),
            replication_failover_record(2_000, 10.0, 400.0),
        ];
        let verdict =
            evaluate_replication_gate(&healthy, REPLICATION_MIN_FAILOVER_ADVANTAGE).unwrap();
        assert!(verdict.pass, "{verdict:?}");
        // The advantage is judged at the LARGEST history only.
        assert_eq!(verdict.history_actions, 2_000);
        assert!((verdict.advantage - 40.0).abs() < 1e-9);
        // A standby that cannot keep up fails the lag bound.
        let lagging = vec![
            replication_lag_record(REPLICATION_MAX_LAG_P99 * 3.0),
            replication_failover_record(2_000, 10.0, 400.0),
        ];
        assert!(
            !evaluate_replication_gate(&lagging, REPLICATION_MIN_FAILOVER_ADVANTAGE)
                .unwrap()
                .pass
        );
        // A promote no faster than cold replay fails the advantage floor...
        let slow_promote = vec![
            replication_lag_record(12.0),
            replication_failover_record(2_000, 200.0, 400.0),
        ];
        assert!(
            !evaluate_replication_gate(&slow_promote, REPLICATION_MIN_FAILOVER_ADVANTAGE)
                .unwrap()
                .pass
        );
        // ...unless even the cold open is timer noise.
        let tiny = vec![
            replication_lag_record(12.0),
            replication_failover_record(100, 6.0, 8.0),
        ];
        let verdict = evaluate_replication_gate(&tiny, REPLICATION_MIN_FAILOVER_ADVANTAGE).unwrap();
        assert!(verdict.pass && verdict.advantage_skipped);
        // Missing either kind is an error, not a silent pass.
        assert!(evaluate_replication_gate(
            &[replication_lag_record(1.0)],
            REPLICATION_MIN_FAILOVER_ADVANTAGE
        )
        .is_err());
        assert!(evaluate_replication_gate(
            &[replication_failover_record(100, 1.0, 50.0)],
            REPLICATION_MIN_FAILOVER_ADVANTAGE
        )
        .is_err());
        assert!(evaluate_replication_gate(&[], REPLICATION_MIN_FAILOVER_ADVANTAGE).is_err());
    }

    #[test]
    fn replication_report_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("warp-bench-replication-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_replication.json");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            replication_lag_record(9.0),
            replication_failover_record(300, 5.0, 60.0),
        ];
        append_replication_records(&path, &records).unwrap();
        assert_eq!(load_replication_records(&path).unwrap(), records);
        // Re-running the workload replaces, not duplicates.
        append_replication_records(&path, &records).unwrap();
        assert_eq!(load_replication_records(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_report_round_trips() {
        let dir = std::env::temp_dir().join(format!("warp-bench-commit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_commit.json");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            commit_record("delta", 1_000, 1.5),
            commit_record("snapshot", 1_000, 9.5),
        ];
        append_commit_records(&path, &records).unwrap();
        assert_eq!(load_commit_records(&path).unwrap(), records);
        // Re-running the workload replaces, not duplicates.
        append_commit_records(&path, &records).unwrap();
        assert_eq!(load_commit_records(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
