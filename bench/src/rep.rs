//! One repetition of one workload on a fresh deployment:
//! `set-up → serve (timed) → repair (timed, with a probe client) →
//! failover (timed) → recover (timed)`, with the outputs of every phase
//! checked. The timed phases carry no tracing; `--trace 1` adds the layer
//! replay of `crate::layers` around them.

use crate::counting_backend::{CountingBackend, DeviceCounts};
use crate::layers::{self, Trace};
use crate::workload::{Checker, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use warp_core::{Durability, RepairOutcome, ServerConfig, Warp, WarpServer};
use warp_http::HttpRequest;
use warp_replica::{channel_pair, LogShipper, Standby};
use warp_store::{MaintenanceStats, MemoryBackend, StoreOptions, WriterStats};

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// A value put earlier in the same repetition.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Merges `other` in, keeping the lower value where both have one.
    pub fn keep_lower(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            let kept = self.0.entry(name).or_insert(value);
            *kept = kept.min(value);
        }
    }
}

/// Everything one repetition measured, and what it checked.
pub struct RepResult {
    pub metrics: Metrics,
    pub check: Checker,
}

/// The serve phase's store-side counters, read before the repair runs.
pub struct ServeCounters {
    pub device: DeviceCounts,
    pub writer: WriterStats,
    pub maintenance: MaintenanceStats,
    pub requests: usize,
}

/// The `p`-quantile of sorted nanoseconds, in µs.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

const PUMP: Duration = Duration::from_millis(5);

pub fn run(workload: &Workload, seed: u64, trace: bool) -> RepResult {
    let mut check = Checker::default();
    let mut metrics = Metrics::default();

    // Set-up: install the app on a fresh persistent deployment, log the
    // users in and generate the traffic.
    let t = Instant::now();
    let app = workload.app();
    let options = workload.store_options();
    let backend = CountingBackend::new();
    let (to_standby, to_primary) = channel_pair();
    let (mut warp, _) = Warp::builder()
        .app(app.clone())
        .backend(Box::new(backend.clone()))
        .store_options(options)
        .durability(Durability::Group {
            max_batch: 64,
            max_delay: Duration::from_micros(500),
        })
        .engine_shards(1)
        .repair_workers(2)
        .background_maintenance(workload.background_maintenance())
        .ship_log_to(Box::new(LogShipper::new(to_standby)))
        .build()
        .expect("opening a fresh deployment");
    let plan = workload.set_up(&mut warp, seed, &mut check);
    let setup_actions = warp.with_server(|s| s.history.len());
    metrics.put("setup_s", t.elapsed().as_secs_f64());

    // Serve.
    let device_before = backend.counts();
    let writer_before = warp.writer_stats();
    let mut latencies_ns = Vec::new();
    let t = Instant::now();
    workload.serve(&warp, plan, &mut latencies_ns, &mut check);
    let serve_wall = t.elapsed().as_secs_f64();
    let requests = latencies_ns.len();
    latencies_ns.sort_unstable();
    metrics.put("serve_rps", requests as f64 / serve_wall);
    metrics.put("serve_p50_us", percentile_us(&latencies_ns, 0.50));
    metrics.put("serve_p99_us", percentile_us(&latencies_ns, 0.99));
    // Let the maintenance worker finish what the serve phase queued, so
    // the store the later phases see does not depend on its timer.
    let maintenance = warp
        .with_server(|s| s.run_maintenance_pass())
        .unwrap_or_default();
    let device = backend.counts().since(&device_before);
    metrics.put(
        "log_bytes_per_request",
        device.append_bytes as f64 / requests as f64,
    );
    let writer_after = warp.writer_stats();
    let counters = ServeCounters {
        device,
        writer: WriterStats {
            records: writer_after.records - writer_before.records,
            batches: writer_after.batches - writer_before.batches,
            largest_batch: writer_after.largest_batch,
        },
        maintenance,
        requests,
    };
    let history = trace.then(|| warp.with_server(|s| s.history.actions().to_vec()));

    // Repair, with one probe client whose request is due the moment the
    // repair is submitted: its latency, counted from when it was due, is
    // how long foreground traffic stalls.
    let t = Instant::now();
    let handle = warp.repair(workload.repair_request());
    let (outcome, repair_s, stall_s): (RepairOutcome, f64, f64) = std::thread::scope(|scope| {
        let probe = scope.spawn(|| {
            let response = warp.serve(HttpRequest::get("/view.wasl?title=Page2"));
            (t.elapsed().as_secs_f64(), response.status)
        });
        let outcome = handle.join();
        let repair_s = t.elapsed().as_secs_f64();
        let (stall_s, status) = probe.join().expect("probe thread panicked");
        check.check(status == 200, || format!("probe answered {status}"));
        (outcome, repair_s, stall_s)
    });
    metrics.put("repair_s", repair_s);
    metrics.put("repair_stall_ms", stall_s * 1e3);
    check.check(!outcome.aborted, || "the repair aborted".to_string());
    workload.verify_repaired(&warp, &mut check);

    // Failover: a cold standby attaches to the idle primary and catches
    // up; the primary dies; the standby is promoted and answers a request.
    let (live_dump, live_actions) = warp.with_server(|s| (s.db.canonical_dump(), s.history.len()));
    let target = warp.durable_lsn();
    let standby_options = StoreOptions {
        checkpoint_interval: 1000,
        ..options
    };
    let t = Instant::now();
    let mut standby = Standby::attach(
        app.clone(),
        Box::new(MemoryBackend::new()),
        standby_options,
        to_primary,
    )
    .expect("attaching the standby");
    let deadline = Instant::now() + Duration::from_secs(60);
    while standby.applied_lsn() < target {
        standby.pump(PUMP).expect("standby pump");
        assert!(Instant::now() < deadline, "the standby never caught up");
    }
    let catchup_s = t.elapsed().as_secs_f64();
    let primary = warp.close();
    let image = backend.image();
    drop(primary);
    let t = Instant::now();
    while !standby.pump(PUMP).expect("standby pump").closed {
        assert!(Instant::now() < deadline, "the stream never closed");
    }
    let (mut promoted, _) = standby.promote().expect("promoting the standby");
    let promote_s = t.elapsed().as_secs_f64();
    check.check(promoted.history.len() == live_actions, || {
        format!(
            "promoted server holds {} of {live_actions} actions",
            promoted.history.len()
        )
    });
    check.check(promoted.db.canonical_dump() == live_dump, || {
        "promoted database differs from the primary's".to_string()
    });
    let t = Instant::now();
    let first = promoted.handle(HttpRequest::get("/view.wasl?title=Page2"));
    let first_view_s = t.elapsed().as_secs_f64();
    check.check(first.status == 200, || {
        format!("promoted server answered {}", first.status)
    });
    drop(promoted);
    metrics.put("failover_s", catchup_s + promote_s + first_view_s);

    // Recover: open a copy of the store the primary left behind.
    let store_open_s = trace.then(|| layers::store_open_seconds(&image, options));
    let t = Instant::now();
    let (mut recovered, report) = WarpServer::open(
        ServerConfig::new(app.clone())
            .with_backend(Box::new(image.clone()))
            .with_store_options(options),
    )
    .expect("recovering the primary's store");
    let recover_s = t.elapsed().as_secs_f64();
    metrics.put("recover_s", recover_s);
    check.check(recovered.history.len() == live_actions, || {
        format!(
            "recovered server holds {} of {live_actions} actions",
            recovered.history.len()
        )
    });
    check.check(recovered.db.canonical_dump() == live_dump, || {
        "recovered database differs from the primary's".to_string()
    });
    let versions = recovered.db.storage_stats();
    drop(recovered);

    if let (Some(history), Some(store_open_s)) = (history, store_open_s) {
        // The host's speed flips within a replay, so subtracting one pass
        // from another needs the floor of each: replay a few times, keep
        // the lowest of every timing (the counts repeat), then derive.
        let t = Instant::now();
        let mut tracer = Trace::default();
        let mut replayed = Metrics::default();
        for _ in 0..layers::REPLAYS {
            // Every replay records the same spans; the last set is written.
            tracer = Trace::default();
            let mut once = Metrics::default();
            layers::replay(
                &mut tracer,
                &mut once,
                workload,
                &app,
                &history,
                setup_actions,
                &outcome.reexecuted_actions,
            );
            replayed.keep_lower(once);
        }
        metrics.keep_lower(replayed);
        layers::derive_self_times(&mut metrics);
        layers::report_counters(&mut metrics, &counters, &outcome.stats);
        metrics.put("device.reads", image.counts().reads as f64);
        metrics.put(
            "ttdb.versions_per_live_row",
            versions.total_versions as f64 / versions.live_rows.max(1) as f64,
        );
        metrics.put("recover.records_replayed", report.records_replayed as f64);
        metrics.put("recover.from_checkpoint", f64::from(report.from_checkpoint));
        metrics.put("recover.store_open_ms", store_open_s * 1e3);
        metrics.put("recover.replay_self_ms", (recover_s - store_open_s) * 1e3);
        metrics.put("replica.catchup_s", catchup_s);
        metrics.put("replica.apply_rps", target as f64 / catchup_s);
        metrics.put("replica.promote_ms", promote_s * 1e3);
        metrics.put("trace.replay_s", t.elapsed().as_secs_f64());
        metrics.put("trace.spans", tracer.len() as f64);
        tracer.write(workload.name);
    }

    metrics.put("peak_rss_mb", peak_rss_mb());
    RepResult { metrics, check }
}
