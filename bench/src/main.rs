//! `warp-perf`: the repo's one fixed benchmark. See README.md for what each
//! workload and metric means; `BENCHMARK.json` at the repo root is the list
//! of names, units and bounds this program is held to.
//!
//! ```text
//! warp-perf --workload W --seed N --seconds S --trace 0|1   one workload, result line last
//! warp-perf [--seed N] [--seconds S] [--out FILE] [--smoke] [--only W]   every workload
//! warp-perf --compare A.json B.json
//! ```

mod counting_backend;
mod layers;
mod rep;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use warp_bench::json::Json;
use workload::{Workload, WORKLOADS};

const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
/// Where span files (and, by default, the suite's result file) go.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// A metric is the best of at least this many repetitions, each a fresh
/// child process on a fresh deployment.
///
/// Best, not median: the development host's CPU flips between two speeds
/// ~20 % apart every second or so, each about half the time, so a
/// repetition is fast, slow or a blend. Over 60 repetitions per workload,
/// grouped in sixes, the median of a group spread 15–20 % (it flips with
/// the majority), the mean 8–15 %, the best 2–9 %. The noise only ever
/// adds time, so the floor is the program's own speed.
const MIN_REPS: usize = 3;

/// One metric of `BENCHMARK.json`.
struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// End-to-end metrics only: the regression bound, as a share of the
    /// baseline.
    bound: Option<f64>,
}

struct Spec {
    run_seconds: f64,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        let json = Json::parse(&text)?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            json.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("a `{key}` metric has no `{k}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json has no `workloads` list")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        if names != WORKLOADS.map(|w| w.name) {
            return Err(format!(
                "BENCHMARK.json lists workloads {names:?}, this program runs {:?}",
                WORKLOADS.map(|w| w.name)
            ));
        }
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// A JSON object from literal keys.
fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// What one workload measured: per metric, the value of every repetition.
struct Measured {
    workload: Workload,
    reps: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// Runs one repetition in a fresh child process and parses its report.
fn child_rep(workload: &Workload, seed: u64, trace: bool, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating warp-perf: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--rep", workload.name, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "repetition of `{}` exited with {}:\n{}",
            workload.name,
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().unwrap_or_default())
}

/// Repeats a workload until `seconds` are used up (at least [`MIN_REPS`]
/// times; once with `--smoke` or when tracing). An error if a repetition
/// measured something `BENCHMARK.json` does not list.
fn measure(
    spec: &Spec,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Measured, String> {
    let mut measured = Measured {
        workload: workload.scaled(smoke),
        reps: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut count = 0;
    loop {
        let rep_start = Instant::now();
        let report = child_rep(&workload, seed, trace, smoke)?;
        let number = |key: &str| {
            report
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("a repetition reported no `{key}`"))
        };
        measured.attempted += number("attempted")? as u64;
        measured.failed += number("failed")? as u64;
        for failure in report.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            eprintln!("{}: FAILED {}", workload.name, failure.to_json());
        }
        let Some(Json::Obj(values)) = report.get("metrics") else {
            return Err("a repetition reported no metrics".to_string());
        };
        for (name, value) in values {
            let value = value.as_f64().ok_or(format!("`{name}` is not a number"))?;
            measured.reps.entry(name.clone()).or_default().push(value);
        }
        count += 1;
        let next_ends = start.elapsed().as_secs_f64() + rep_start.elapsed().as_secs_f64();
        if trace || smoke || (count >= MIN_REPS && next_ends > seconds) {
            break;
        }
    }
    let listed = |name: &String| {
        spec.end_to_end.iter().any(|m| m.name == *name)
            || (trace && spec.per_layer.iter().any(|m| m.name == *name))
    };
    match measured.reps.keys().find(|name| !listed(name)) {
        Some(name) => Err(format!("`{name}` is measured but not in BENCHMARK.json")),
        None => Ok(measured),
    }
}

impl Measured {
    /// The best repetition's value of every listed metric; an error if one
    /// was not measured.
    fn best<'a>(&self, listed: &'a [MetricSpec]) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
        listed
            .iter()
            .map(|spec| {
                let values = self.reps.get(&spec.name).ok_or(format!(
                    "`{}` did not produce `{}`",
                    self.workload.name, spec.name
                ))?;
                let best = if spec.lower_is_better {
                    values.iter().copied().fold(f64::INFINITY, f64::min)
                } else {
                    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                };
                Ok((spec, best))
            })
            .collect()
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The driver's contract: one workload, and as the last line of stdout one
/// JSON object with `correct`, `attempted`, `failed` and `metrics`.
fn run_one(spec: &Spec, name: &str, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let workload = workload::find(name).ok_or(format!("no workload named `{name}`"))?;
    let measured = measure(spec, workload, seed, seconds, trace, false)?;
    let listed = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = measured
        .best(listed)?
        .into_iter()
        .map(|(m, value)| {
            let entry = obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let result = obj([
        ("correct", Json::Bool(measured.failed == 0)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    // The result line carries `correct`; the exit code says it was printed.
    Ok(true)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload (or `only`), timed and then traced: prints each metric by
/// name with its unit and writes the machine-readable result to `out`.
fn run_suite(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    only: Option<&str>,
    out: &str,
) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut rows = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        if only.is_some_and(|name| name != workload.name) {
            continue;
        }
        let timed = measure(spec, workload, seed, seconds, false, smoke)?;
        let traced = measure(spec, workload, seed, seconds, true, smoke)?;
        let sized = timed.workload;
        let reps = timed.reps.values().next().map_or(0, Vec::len);
        let traffic = match sized.requests {
            0 => "one browser session per user".to_string(),
            n => format!("{n} requests"),
        };
        println!(
            "== {} (seed {seed}, {} users, {traffic}, best of {reps} repetitions, {nproc} cores)",
            sized.name, sized.users
        );
        let mut end_to_end = Vec::new();
        for (m, value) in timed.best(&spec.end_to_end)? {
            println!("{:<32} {value:>16.4} {}", m.name, m.unit);
            let reps = timed.reps[&m.name].iter().map(|v| Json::Num(*v)).collect();
            let entry = obj([
                ("unit", Json::Str(m.unit.clone())),
                ("best", Json::Num(value)),
                ("reps", Json::Arr(reps)),
            ]);
            end_to_end.push((m.name.clone(), entry));
        }
        let failed = timed.failed + traced.failed;
        println!(
            "{:<32} {:>16.4} (failed {failed} of {})",
            "failed_frac",
            timed.failed_frac(),
            timed.attempted + traced.attempted
        );
        let mut per_layer = Vec::new();
        for (m, value) in traced.best(&spec.per_layer)? {
            println!("{:<32} {value:>16.4} {}", m.name, m.unit);
            let entry = obj([
                ("unit", Json::Str(m.unit.clone())),
                ("value", Json::Num(value)),
            ]);
            per_layer.push((m.name.clone(), entry));
        }
        correct &= failed == 0;
        rows.push(obj([
            ("name", Json::Str(sized.name.to_string())),
            ("users", Json::Num(sized.users as f64)),
            ("requests", Json::Num(sized.requests as f64)),
            ("reps", Json::Num(reps as f64)),
            ("attempted", Json::Num(timed.attempted as f64)),
            ("failed", Json::Num(timed.failed as f64)),
            ("failed_frac", Json::Num(timed.failed_frac())),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::Obj(per_layer)),
        ]));
    }
    let result = obj([
        ("commit", Json::Str(git_commit())),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::Arr(rows)),
    ]);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, result.to_json() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(correct)
}

/// Per workload × end-to-end metric: both values, how much worse B is
/// than A, and the bound. False past a bound or on a higher `failed_frac`.
fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rows = |j: &Json| -> Result<Vec<Json>, String> {
        let rows = j.get("workloads").and_then(Json::as_arr);
        Ok(rows.ok_or("a result file has no `workloads`")?.to_vec())
    };
    let (rows_a, rows_b) = (rows(&a)?, rows(&b)?);
    let mut within = true;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for row_a in &rows_a {
        let name = row_a.get("name").and_then(Json::as_str).unwrap_or_default();
        let Some(row_b) = rows_b
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let frac = |row: &Json| row.get("failed_frac").and_then(Json::as_f64).unwrap_or(1.0);
        if frac(row_b) > frac(row_a) {
            println!(
                "{name:<16} failed_frac rose from {} to {}",
                frac(row_a),
                frac(row_b)
            );
            within = false;
        }
        for m in &spec.end_to_end {
            let best = |row: &Json| {
                row.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(|e| e.get("best"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("`{name}` has no `{}`", m.name))
            };
            let (va, vb) = (best(row_a)?, best(row_b)?);
            let bound = m.bound.ok_or(format!("`{}` has no bound", m.name))?;
            let worse_by = if m.lower_is_better {
                vb / va - 1.0
            } else {
                1.0 - vb / va
            };
            let past = worse_by > bound;
            within &= !past;
            println!(
                "{name:<16} {:<24} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.1}%{}",
                m.name,
                worse_by * 100.0,
                bound * 100.0,
                if past { "  PAST BOUND" } else { "" }
            );
        }
    }
    Ok(within)
}

/// Pins the calling thread, and every thread it spawns later, to the first
/// CPU it may run on.
///
/// The development host alternates, for minutes at a time, between giving
/// the VM two CPUs and one (cross-thread ping-pong 38 µs vs 3 µs; two busy
/// threads 1.07× vs 2.0× the time of one). Anything that depends on
/// wake-up latency or parallel speed-up is then bimodal: a lone client's
/// p50 read 570 or 820 µs, a two-worker repair 0.44 or 0.23 s. On one CPU
/// the threads still interleave as they always do — two clients, engine,
/// writer, repair workers — but what is measured is CPU work and queueing,
/// which is what a code change moves.
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is valid for writes of `size` bytes, which is all the
    // call writes; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let word = mask
        .iter()
        .position(|&w| w != 0)
        .ok_or("empty CPU affinity mask")?;
    let lowest = mask[word] & mask[word].wrapping_neg();
    mask = [0u64; 16];
    mask[word] = lowest;
    // SAFETY: `mask` is valid for reads of `size` bytes, which is all the
    // call reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, mask.as_ptr()) } != 0 {
        return Err("sched_setaffinity failed".to_string());
    }
    Ok(())
}

/// The child side of [`child_rep`]: one repetition, reported as one line.
fn rep_main(name: &str, seed: u64, trace: bool, smoke: bool) -> Result<bool, String> {
    pin_to_one_cpu()?;
    let workload = workload::find(name)
        .ok_or(format!("no workload named `{name}`"))?
        .scaled(smoke);
    let result = rep::run(&workload, seed, trace);
    let metrics = result
        .metrics
        .0
        .into_iter()
        .map(|(name, value)| (name, Json::Num(value)))
        .collect();
    let failures = result.check.messages.into_iter().map(Json::Str).collect();
    let report = obj([
        ("attempted", Json::Num(result.check.attempted as f64)),
        ("failed", Json::Num(result.check.failed as f64)),
        ("failures", Json::Arr(failures)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", report.to_json());
    // The parent decides what a failed check means; the report got out.
    Ok(true)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).map(String::as_str)
    };
    fn number<T: std::str::FromStr>(text: Option<&str>, default: T) -> Result<T, String> {
        match text {
            Some(text) => text
                .parse()
                .map_err(|_| format!("`{text}` is not a number")),
            None => Ok(default),
        }
    }
    let seed: u64 = number(value("--seed"), 1)?;
    let trace = number(value("--trace"), 0u8)? != 0;
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(name) = value("--rep") {
        return rep_main(name, seed, trace, smoke);
    }
    let spec = Spec::load()?;
    if let Some(at) = args.iter().position(|a| a == "--compare") {
        return match (args.get(at + 1), args.get(at + 2)) {
            (Some(a), Some(b)) => compare(&spec, a, b),
            _ => Err("usage: warp-perf --compare A.json B.json".to_string()),
        };
    }
    let seconds = number(value("--seconds"), spec.run_seconds)?;
    match value("--workload") {
        Some(name) => run_one(&spec, name, seed, seconds, trace),
        None => {
            let default_out = format!("{OUT_DIR}/result.json");
            let out = value("--out").unwrap_or(&default_out);
            run_suite(&spec, seed, seconds, smoke, value("--only"), out)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("warp-perf: {message}");
            ExitCode::from(2)
        }
    }
}
