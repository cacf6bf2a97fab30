//! The concurrent serving façade: a cloneable [`Warp`] handle in front of a
//! single-writer engine thread.
//!
//! The paper's premise is that Warp logs every action *while serving
//! production traffic* — so the public API must accept requests from many
//! threads without giving up the single-writer determinism the action
//! history depends on. The design here is a classic front-end/engine split:
//!
//! * [`Warp`] is a cheap, cloneable, `Send + Sync` handle. Any number of
//!   threads call [`Warp::serve`] concurrently; each call crosses into the
//!   engine over a channel and blocks until its response (and, depending on
//!   the [`Durability`] tier, its log record's durability) comes back.
//! * The **engine** is one background thread owning a [`WarpServer`]. It
//!   processes messages in arrival order, so the recorded history is a
//!   single serializable timeline no matter how many front-end threads are
//!   pushing requests. At one shard (the default) it runs every request
//!   itself, on the **global lane**.
//! * With [`WarpBuilder::engine_shards`] above one, the same engine adds a
//!   pool of **shard workers** and becomes a router: each request's
//!   partition footprint is predicted statically (see `crate::shard`),
//!   requests whose partitions all hash to one shard execute on that
//!   shard's worker concurrently with other shards, and everything else —
//!   imprecise footprints, cross-partition requests, repairs,
//!   administrative closures — escalates to the global lane, which first
//!   drains every shard to a barrier. Action ids and times are still
//!   assigned at the single engine thread and results are recorded in
//!   dispatch order, so the history stays byte-for-byte the serializable
//!   timeline one shard produces.
//! * The **group-commit writer** (in `warp-store`) owns the durable log.
//!   Under [`Durability::Group`] and [`Durability::Immediate`], a response
//!   is released to the caller only after its log record is durable —
//!   *acknowledged implies recoverable* is an API contract, tested by the
//!   crash proptests. Under [`Durability::Relaxed`], responses return as
//!   soon as the action executes and durability trails behind.
//! * Repairs are first-class: [`Warp::repair`] returns a [`RepairHandle`]
//!   for status polling and outcome joining, and
//!   [`Warp::resume_pending_repair`] re-runs a crash-interrupted repair
//!   found during recovery. A repair does not stop the site: the engine
//!   owns it as a [`RepairRun`] and steps it one re-executed action at a
//!   time, in the repair generation of the live database, serving queued
//!   requests in the current generation between steps. Those requests are
//!   logged as ordinary actions and the repair judges them at its tail like
//!   any other action; the engine pauses only for the commit, which walks
//!   what is left and switches generations. Any message other than a
//!   request — [`Warp::with_server`],
//!   a checkpoint, another repair, [`Warp::close`] — first drives the
//!   running repair through its commit.
//!
//! No async runtime: plain `std` threads and mpsc channels, matching the
//! repair scheduler's worker-pool style.

use crate::apphost::{run_application, AppRunContext, DbAccess, ExecMode};
use crate::clock::LogicalClock;
use crate::config::{AppConfig, ServerConfig};
use crate::persist::RecoveryReport;
use crate::repair::{RepairOutcome, RepairRequest, RepairRun};
use crate::scheduler::RepairStrategy;
use crate::server::{Served, WarpServer};
use crate::shard::{classify, plan_entry, stayed_on_shard, Route, RoutePlan};
use crate::sourcefs::SourceStore;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;
use warp_browser::PageVisitRecord;
use warp_http::{HttpRequest, HttpResponse, Transport};
use warp_store::{BatchPolicy, StorageBackend, StoreOptions, StoreResult, WriterStats};
use warp_ttdb::{Generation, TimeTravelDb};

/// How durable an acknowledged request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Every action's log record is written on its own and made durable
    /// before the response returns — the classic [`WarpServer`] behavior.
    Immediate,
    /// Group commit: records from concurrent requests are coalesced into
    /// batched log writes. A response still returns only after its record
    /// is durable, so nothing acknowledged can be lost to a crash; the
    /// batching only trades a bounded ack delay for fewer backend writes.
    Group {
        /// Flush once this many records are pending.
        max_batch: usize,
        /// Wait at most this long for more records before flushing.
        max_delay: Duration,
    },
    /// Responses return as soon as the action executes; the record is
    /// appended asynchronously. A crash may lose the un-flushed tail (the
    /// log is still prefix-consistent — recovery replays what survived).
    Relaxed,
}

impl Default for Durability {
    /// Group commit with the writer's default window
    /// ([`BatchPolicy::default`]), so the two crates cannot drift apart.
    fn default() -> Self {
        let policy = BatchPolicy::default();
        Durability::Group {
            max_batch: policy.max_batch,
            max_delay: policy.max_delay,
        }
    }
}

impl Durability {
    /// Short name used in benchmark reports.
    pub fn name(&self) -> &'static str {
        match self {
            Durability::Immediate => "immediate",
            Durability::Group { .. } => "group",
            Durability::Relaxed => "relaxed",
        }
    }

    /// The writer-thread batching policy this tier selects.
    fn batch_policy(&self) -> BatchPolicy {
        match self {
            Durability::Immediate => BatchPolicy::immediate(),
            Durability::Group {
                max_batch,
                max_delay,
            } => BatchPolicy {
                max_batch: (*max_batch).max(1),
                max_delay: *max_delay,
            },
            // Relaxed callers never wait, so give the writer the default
            // coalescing window.
            Durability::Relaxed => BatchPolicy::default(),
        }
    }

    /// True if a response may only be released after its record is durable.
    fn acks_after_durability(&self) -> bool {
        !matches!(self, Durability::Relaxed)
    }
}

/// Builder for a [`Warp`] deployment: the application, where to persist it,
/// how durable acknowledgements are, and how parallel repairs run.
///
/// ```
/// use warp_core::{AppConfig, Warp};
///
/// let mut app = AppConfig::new("hello");
/// app.add_source("index.wasl", "echo(\"hi\");");
/// let warp = Warp::builder().app(app).start();
/// ```
#[derive(Default)]
pub struct WarpBuilder {
    app: AppConfig,
    backend: Option<Box<dyn StorageBackend>>,
    store_options: StoreOptions,
    durability: Durability,
    repair_workers: usize,
    engine_shards: usize,
    background_maintenance: bool,
    shipper: Option<Box<dyn warp_store::ShipperHook>>,
}

impl std::fmt::Debug for WarpBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarpBuilder")
            .field("app", &self.app)
            .field("backend", &self.backend)
            .field("store_options", &self.store_options)
            .field("durability", &self.durability)
            .field("repair_workers", &self.repair_workers)
            .field("engine_shards", &self.engine_shards)
            .field("background_maintenance", &self.background_maintenance)
            .field("shipper", &self.shipper.as_ref().map(|_| "attached"))
            .finish()
    }
}

impl WarpBuilder {
    /// The application to install (schema, sources, routes, seeds).
    pub fn app(mut self, app: AppConfig) -> Self {
        self.app = app;
        self
    }

    /// Persist state to this storage backend. Without one the deployment is
    /// in-memory and every [`Durability`] tier acknowledges immediately.
    pub fn backend(mut self, backend: Box<dyn StorageBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Log segment size and checkpoint cadence.
    pub fn store_options(mut self, options: StoreOptions) -> Self {
        self.store_options = options;
        self
    }

    /// The acknowledgement durability tier (default: [`Durability::Group`]
    /// with a 64-record / 500 µs window).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The repair strategy, by worker count ([`RepairStrategy::with_workers`]):
    /// any `n` above `0` runs the stepped frontier walk on the engine
    /// thread, and `0` (the default) the classic sequential engine.
    pub fn repair_workers(mut self, workers: usize) -> Self {
        self.repair_workers = workers;
        self
    }

    /// Shard normal execution across `shards` engine worker threads.
    ///
    /// `0` or `1` (the default) runs every request on the engine thread:
    /// no worker thread is spawned and no request is routed. With more
    /// shards, each request whose statically-predicted partition footprint
    /// lands on one shard executes on that shard's worker, concurrently
    /// with other shards; requests with imprecise or cross-shard footprints
    /// (and all repairs and administrative calls) escalate to a serialized
    /// global lane that first drains every shard to a barrier. The recorded
    /// action history is identical to the one-shard engine's, whatever the
    /// shard count:
    ///
    /// ```
    /// use warp_core::{AppConfig, Warp};
    /// use warp_http::HttpRequest;
    /// use warp_ttdb::TableAnnotation;
    ///
    /// fn app() -> AppConfig {
    ///     let mut app = AppConfig::new("notes");
    ///     app.add_table(
    ///         "CREATE TABLE note (note_id INTEGER, topic TEXT, body TEXT)",
    ///         TableAnnotation::new().row_id("note_id").partitions(["topic"]),
    ///     );
    ///     app.add_source(
    ///         "post.wasl",
    ///         "db_query(\"INSERT INTO note (note_id, topic, body) VALUES (\" \
    ///          . int(param(\"id\")) . \", '\" . sql_escape(param(\"topic\")) \
    ///          . \"', '\" . sql_escape(param(\"body\")) . \"')\"); echo(\"ok\");",
    ///     );
    ///     app
    /// }
    ///
    /// let sharded = Warp::builder().app(app()).engine_shards(4).start();
    /// let one_shard = Warp::builder().app(app()).start();
    /// for (warp, label) in [(&sharded, "sharded"), (&one_shard, "one-shard")] {
    ///     for i in 0..8 {
    ///         let target = format!("/post.wasl?id={i}&topic=t{}&body={label}-{i}", i % 3);
    ///         assert!(warp.serve(HttpRequest::get(&target)).body.contains("ok"));
    ///     }
    /// }
    /// // Same requests, same recorded history and database — shard count is
    /// // invisible in the outcome (bodies differ only by the label we wrote).
    /// let dump = |w: &Warp| w.with_server(|s| s.db.canonical_dump());
    /// assert_eq!(
    ///     dump(&sharded).replace("sharded", "x"),
    ///     dump(&one_shard).replace("one-shard", "x"),
    /// );
    /// assert_eq!(sharded.with_server(|s| s.history.len()), 8);
    /// ```
    pub fn engine_shards(mut self, shards: usize) -> Self {
        self.engine_shards = shards;
        self
    }

    /// Ship every durable log batch to a replica. The hook runs on the
    /// group-commit writer thread, after each batch commits and *before*
    /// its durability callbacks fire — by the time a client's ack
    /// releases, the batch is already on the wire. The `warp-replica`
    /// crate provides the hook (`LogShipper`) and the standby that
    /// consumes the stream; any [`warp_store::ShipperHook`] works.
    ///
    /// Shipping requires the group-commit writer, which every
    /// [`Durability`] tier of a persistent deployment uses; on an
    /// in-memory deployment (no [`WarpBuilder::backend`]) the hook is
    /// silently dropped along with the rest of the persistence machinery.
    pub fn ship_log_to(mut self, shipper: Box<dyn warp_store::ShipperHook>) -> Self {
        self.shipper = Some(shipper);
        self
    }

    /// Run checkpoint-chain compaction on a background maintenance worker:
    /// once the delta chain grows past
    /// [`StoreOptions::fold_after_deltas`] links, the worker folds it into
    /// a fresh base and retires the log segments the base subsumes — off
    /// the serve path, over its own handle onto the backend. Off by
    /// default; without it the engine folds inline by writing a full base
    /// checkpoint at the same threshold. No effect on in-memory
    /// deployments or backends that cannot hand out a second handle.
    pub fn background_maintenance(mut self, enabled: bool) -> Self {
        self.background_maintenance = enabled;
        self
    }

    /// Opens the deployment: installs the app, recovers persisted state if
    /// a backend holds any, spawns the engine thread, and returns the
    /// handle plus what recovery found (including a pending interrupted
    /// repair — see [`Warp::resume_pending_repair`]).
    pub fn build(self) -> StoreResult<(Warp, RecoveryReport)> {
        let strategy = RepairStrategy::with_workers(self.repair_workers);
        let durability = self.durability;
        let mut config = ServerConfig::new(self.app).with_store_options(self.store_options);
        if let Some(backend) = self.backend {
            config = config.with_backend(backend);
        }
        let shards = self.engine_shards;
        let (mut server, report) = WarpServer::open(config)?;
        if self.background_maintenance {
            // Must start while the store is still inline: the worker needs
            // its own backend handle, which the group-commit writer thread
            // cannot hand out once it owns the store.
            server.start_maintenance();
        }
        server.enable_group_commit(durability.batch_policy(), self.shipper);
        let (tx, rx) = channel();
        // Liveness token: shard workers hold engine senders, so the engine
        // cannot rely on channel disconnect alone to notice that every
        // public handle is gone; it watches this Arc too.
        let alive = Arc::new(());
        let watch = Arc::downgrade(&alive);
        let engine_tx = tx.clone();
        let engine = std::thread::Builder::new()
            .name("warp-engine".into())
            .spawn(move || {
                Engine::new(server, durability, strategy, shards, engine_tx).run(rx, watch)
            })
            .expect("spawning the warp engine thread");
        // The engine thread is detached: it exits when every handle is
        // dropped (channel disconnect / liveness token) or on `Warp::close`.
        drop(engine);
        Ok((
            Warp {
                tx,
                durable_acks: durability.acks_after_durability(),
                _alive: alive,
            },
            report,
        ))
    }

    /// [`WarpBuilder::build`] for in-memory deployments: no recovery report
    /// to inspect, and no store errors to handle.
    ///
    /// # Panics
    ///
    /// Panics if a backend was configured and opening it failed; use
    /// [`WarpBuilder::build`] to handle storage errors.
    pub fn start(self) -> Warp {
        let (warp, _) = self.build().unwrap_or_else(|e| panic!("Warp::build: {e}"));
        warp
    }
}

/// What the engine thread is asked to do.
enum EngineMsg {
    /// Serve one request; the response is released per the durability tier.
    Serve {
        request: HttpRequest,
        reply: Sender<HttpResponse>,
    },
    /// Run a closure against the engine's server (serialized like any other
    /// message). The closure sends its own result.
    With(Box<dyn FnOnce(&mut WarpServer) + Send>),
    /// Start a repair; the engine steps it between requests until its
    /// commit.
    Repair {
        request: RepairRequest,
        strategy: Option<RepairStrategy>,
        state: Arc<AtomicU8>,
        outcome: Sender<RepairOutcome>,
    },
    /// Resume the crash-interrupted repair, if recovery found one.
    ResumeRepair {
        state: Arc<AtomicU8>,
        outcome: Sender<RepairOutcome>,
        accepted: Sender<bool>,
    },
    /// Stop the engine and hand the server back (writer flushed and folded
    /// back into the inline sink).
    Close { reply: Sender<Box<WarpServer>> },
    /// A shard worker finished executing a dispatched request (only with
    /// more than one shard — workers send this back on the engine's own
    /// channel).
    ShardDone {
        seq: u64,
        served: Box<Served>,
        reply: Sender<HttpResponse>,
    },
}

const STATUS_QUEUED: u8 = 0;
const STATUS_RUNNING: u8 = 1;
const STATUS_COMPLETED: u8 = 2;

/// Where a repair started through [`Warp::repair`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStatus {
    /// Waiting for the engine to pick it up (requests ahead of it in the
    /// queue are still being served).
    Queued,
    /// The engine is executing it: started, and stepping between served
    /// requests until its commit. Any administrative message sent now
    /// ([`Warp::with_server`], [`Warp::checkpoint`], another repair,
    /// [`Warp::close`]) waits for that commit.
    Running,
    /// Finished; the outcome is ready to join.
    Completed,
}

/// A first-class handle onto an in-flight repair: poll [`status`]
/// (non-blocking), peek the outcome with [`try_outcome`], or block on
/// [`join`].
///
/// [`status`]: RepairHandle::status
/// [`try_outcome`]: RepairHandle::try_outcome
/// [`join`]: RepairHandle::join
#[derive(Debug)]
pub struct RepairHandle {
    state: Arc<AtomicU8>,
    rx: Receiver<RepairOutcome>,
    received: Option<RepairOutcome>,
}

impl RepairHandle {
    fn new(state: Arc<AtomicU8>, rx: Receiver<RepairOutcome>) -> Self {
        RepairHandle {
            state,
            rx,
            received: None,
        }
    }

    /// Where the repair stands right now (non-blocking). If the engine
    /// stopped before running the repair, the status stays frozen at its
    /// last value — [`RepairHandle::try_outcome`] / [`RepairHandle::join`]
    /// are the calls that detect a dead engine.
    pub fn status(&self) -> RepairStatus {
        match self.state.load(Ordering::Acquire) {
            STATUS_QUEUED => RepairStatus::Queued,
            STATUS_RUNNING => RepairStatus::Running,
            _ => RepairStatus::Completed,
        }
    }

    /// The outcome, if the repair already completed (non-blocking).
    ///
    /// # Panics
    ///
    /// Panics if the engine died (an engine panic) before the repair
    /// completed — otherwise a polling loop would spin forever on a repair
    /// that can no longer finish. [`Warp::close`] is not such a stop: it
    /// commits a running repair before the engine exits.
    pub fn try_outcome(&mut self) -> Option<&RepairOutcome> {
        if self.received.is_none() {
            match self.rx.try_recv() {
                Ok(outcome) => self.received = Some(outcome),
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    panic!("warp engine stopped before the repair completed")
                }
            }
        }
        self.received.as_ref()
    }

    /// Blocks until the repair completes and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if the engine died (an engine panic) before the repair
    /// completed; [`Warp::close`] commits a running repair first.
    pub fn join(mut self) -> RepairOutcome {
        match self.received.take() {
            Some(outcome) => outcome,
            None => self
                .rx
                .recv()
                .expect("warp engine stopped before the repair completed"),
        }
    }
}

/// The concurrent handle onto a Warp deployment. Clone it freely and call
/// [`Warp::serve`] from as many threads as you like; all requests funnel
/// into one engine thread, so the recorded action history stays a single
/// serializable timeline.
#[derive(Debug, Clone)]
pub struct Warp {
    tx: Sender<EngineMsg>,
    /// True when the configured tier releases acknowledgements only after
    /// durability (everything but [`Durability::Relaxed`]). Administrative
    /// writes routed through the handle honor the same contract.
    durable_acks: bool,
    /// Liveness token watched by the engine (whose shard workers hold
    /// channel senders, masking disconnect): when the last public handle
    /// drops, the engine drains and exits.
    _alive: Arc<()>,
}

// Compile-time guarantee of the concurrency contract: the handle is Send +
// Sync + Clone, so `&Warp` can be shared across threads.
const _: () = {
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<Warp>()
};

impl Warp {
    /// Starts configuring a deployment.
    pub fn builder() -> WarpBuilder {
        WarpBuilder::default()
    }

    /// Serves one HTTP request. Callable concurrently from many threads;
    /// under [`Durability::Immediate`] and [`Durability::Group`] the call
    /// returns only once the action's log record is durable.
    ///
    /// After [`Warp::close`] (or an engine panic) this returns a 503
    /// response instead of panicking, so draining front-end threads shut
    /// down cleanly.
    pub fn serve(&self, request: HttpRequest) -> HttpResponse {
        let (reply, rx) = channel();
        if self.tx.send(EngineMsg::Serve { request, reply }).is_err() {
            return engine_stopped_response();
        }
        rx.recv().unwrap_or_else(|_| engine_stopped_response())
    }

    /// Runs `f` against the engine's [`WarpServer`] and returns its result.
    /// The closure runs on the engine thread, serialized with serving — use
    /// it for inspection (history, stats, dumps) and administrative calls
    /// that have no first-class wrapper yet.
    ///
    /// Durability note: this call returns when the closure returns. A
    /// closure that appends log records (an administrative write) gets no
    /// automatic durability barrier — call [`Warp::flush`] afterwards, or
    /// `server.flush_durable()` inside the closure, when you need the
    /// acked-implies-recoverable guarantee the serve path provides.
    ///
    /// # Panics
    ///
    /// Panics if the engine stopped.
    pub fn with_server<R, F>(&self, f: F) -> R
    where
        F: FnOnce(&mut WarpServer) -> R + Send + 'static,
        R: Send + 'static,
    {
        let (tx, rx) = channel();
        self.tx
            .send(EngineMsg::With(Box::new(move |server| {
                let _ = tx.send(f(server));
            })))
            .expect("warp engine stopped");
        rx.recv().expect("warp engine stopped")
    }

    /// Uploads client-side browser logs (the extension's out-of-band
    /// channel, §5.2). Like [`Warp::serve`], the call returns only once the
    /// uploaded logs' records are durable (except under
    /// [`Durability::Relaxed`]) — client logs are repair evidence and get
    /// the same acknowledgement contract as actions.
    pub fn upload_client_logs(&self, logs: Vec<PageVisitRecord>) {
        let durable_acks = self.durable_acks;
        self.with_server(move |server| {
            server.upload_client_logs(logs);
            if durable_acks {
                server.flush_durable();
            }
        });
    }

    /// Starts a repair with the builder-configured strategy and returns a
    /// handle for status polling and outcome joining. The engine starts the
    /// repair in queue order and keeps serving while it runs: requests
    /// submitted after this call are answered from the current generation
    /// — the state *before* the repair — until the repair commits, and the
    /// repair judges them at its tail like any other action, re-executing
    /// them in the repair generation where they depend on what it changed,
    /// so the committed state is the one they would have produced after
    /// it. Requests submitted after [`RepairHandle::join`] returns see the
    /// repaired state. With repair workers configured, the repair is the
    /// frontier walk ([`RepairStrategy::Frontier`]), which the engine steps
    /// one re-executed action at a time, whatever the plan's shape; a
    /// [`RepairStrategy::Sequential`] repair runs in one piece at the
    /// commit.
    pub fn repair(&self, request: RepairRequest) -> RepairHandle {
        self.repair_with_strategy(request, None)
    }

    /// [`Warp::repair`] with an explicit engine strategy.
    pub fn repair_with(&self, request: RepairRequest, strategy: RepairStrategy) -> RepairHandle {
        self.repair_with_strategy(request, Some(strategy))
    }

    fn repair_with_strategy(
        &self,
        request: RepairRequest,
        strategy: Option<RepairStrategy>,
    ) -> RepairHandle {
        let state = Arc::new(AtomicU8::new(STATUS_QUEUED));
        let (outcome, rx) = channel();
        self.tx
            .send(EngineMsg::Repair {
                request,
                strategy,
                state: state.clone(),
                outcome,
            })
            .expect("warp engine stopped");
        RepairHandle::new(state, rx)
    }

    /// The crash-interrupted repair recovery found, if any (a logged
    /// `RepairBegin` with no commit or abort).
    pub fn pending_repair(&self) -> Option<RepairRequest> {
        self.with_server(|server| server.pending_repair().cloned())
    }

    /// Re-runs the crash-interrupted repair recovery found, if any. The
    /// check and the start are atomic on the engine thread, so concurrent
    /// resumers cannot run the repair twice.
    pub fn resume_pending_repair(&self) -> Option<RepairHandle> {
        let state = Arc::new(AtomicU8::new(STATUS_QUEUED));
        let (outcome, outcome_rx) = channel();
        let (accepted, accepted_rx) = channel();
        self.tx
            .send(EngineMsg::ResumeRepair {
                state: state.clone(),
                outcome,
                accepted,
            })
            .expect("warp engine stopped");
        if accepted_rx.recv().expect("warp engine stopped") {
            Some(RepairHandle::new(state, outcome_rx))
        } else {
            None
        }
    }

    /// Blocks until every log record appended so far is durable. Useful to
    /// upgrade a [`Durability::Relaxed`] deployment to a known-durable
    /// point (e.g. before a planned shutdown).
    pub fn flush(&self) {
        self.with_server(|server| server.flush_durable());
    }

    /// Takes a checkpoint now (compacting the durable log).
    pub fn checkpoint(&self) {
        self.with_server(|server| server.checkpoint());
    }

    /// The group-commit writer's batching counters.
    pub fn writer_stats(&self) -> WriterStats {
        self.with_server(|server| server.writer_stats())
    }

    /// The durable LSN watermark: the next LSN the log will assign, with
    /// every record below it on disk by the time this returns. The ack
    /// metadata the log shipper keys on, surfaced for observability
    /// (compare against a standby's applied LSN to measure lag). Always 0
    /// for in-memory deployments.
    pub fn durable_lsn(&self) -> u64 {
        self.with_server(|server| server.durable_lsn())
    }

    /// Stops the engine and returns the underlying [`WarpServer`] with
    /// everything flushed to the durable log and the store folded back to
    /// the synchronous sink. A repair still running is committed first, so
    /// the returned server holds its effects and its handle's
    /// [`RepairHandle::join`] returns the outcome. Outstanding clones of
    /// this handle keep working as dead handles: [`Warp::serve`] returns
    /// 503.
    ///
    /// # Panics
    ///
    /// Panics if the engine already stopped (a second `close`, or an engine
    /// panic).
    pub fn close(self) -> WarpServer {
        let (reply, rx) = channel();
        self.tx
            .send(EngineMsg::Close { reply })
            .expect("warp engine stopped");
        *rx.recv().expect("warp engine stopped")
    }
}

impl Transport for Warp {
    fn send(&mut self, request: HttpRequest) -> HttpResponse {
        self.serve(request)
    }
}

fn engine_stopped_response() -> HttpResponse {
    let mut response = HttpResponse::ok("warp engine stopped".to_string());
    response.status = 503;
    response
}

/// Requests the engine serves at most between two steps of a repair, so a
/// steady stream of traffic cannot starve the repair.
const SERVES_PER_STEP: usize = 64;

/// How long an idle engine waits for a message before it checks whether
/// every public handle is gone.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// A repair the engine is running, with its handle's plumbing. Between the
/// run's steps the engine serves queued requests in the current
/// generation; any other message first drives the run through its commit.
struct ActiveRepair {
    run: RepairRun,
    state: Arc<AtomicU8>,
    outcome: Sender<RepairOutcome>,
    /// Requests served since the last step.
    served: usize,
}

impl ActiveRepair {
    fn new(run: RepairRun, state: Arc<AtomicU8>, outcome: Sender<RepairOutcome>) -> Self {
        state.store(STATUS_RUNNING, Ordering::Release);
        ActiveRepair {
            run,
            state,
            outcome,
            served: 0,
        }
    }
}

/// The state a shard epoch shares with its workers: the database (checked
/// out of the engine's server for the epoch's duration), the logical clock
/// (atomic; workers tick it per query), and the source tree snapshot.
struct ShardEpoch {
    db: Mutex<TimeTravelDb>,
    clock: LogicalClock,
    sources: SourceStore,
}

/// One request dispatched to a shard worker.
struct ShardJob {
    /// Position in the serialized timeline (recording happens in `seq`
    /// order regardless of shard completion order).
    seq: u64,
    /// Pre-assigned action time, ticked at dispatch on the engine thread.
    time: i64,
    request: HttpRequest,
    entry: String,
    epoch: Arc<ShardEpoch>,
    reply: Sender<HttpResponse>,
}

/// Worker `shard` of `shards`: executes the requests routed to it.
fn shard_worker(shard: usize, shards: usize, jobs: Receiver<ShardJob>, engine: Sender<EngineMsg>) {
    while let Ok(job) = jobs.recv() {
        let ShardJob {
            seq,
            time,
            request,
            entry,
            epoch,
            reply,
        } = job;
        // The router guarantees shardable entries are deterministic, so
        // these counters are never consulted; dummies keep the engine's
        // real counters out of the concurrent path.
        let mut rng_counter = 0u64;
        let mut session_counter = 0u64;
        let result = run_application(AppRunContext {
            request: &request,
            entry_script: entry.clone(),
            sources: &epoch.sources,
            action_time: time,
            db: DbAccess::Shared(&epoch.db),
            mode: ExecMode::Normal {
                clock: &epoch.clock,
                rng_counter: &mut rng_counter,
                session_counter: &mut session_counter,
            },
        });
        debug_assert!(
            result.nondet.is_empty() && rng_counter == 0 && session_counter == 0,
            "the shard router must escalate nondeterministic entries"
        );
        debug_assert!(
            stayed_on_shard(
                &result.queries,
                shard,
                shards,
                &epoch.db.lock().expect("shard db lock poisoned")
            ),
            "{entry} left shard {shard} of {shards}: the route plan must cover what runs"
        );
        // Release the epoch BEFORE handing the result back, so a barrier's
        // `Arc::try_unwrap` succeeds once every result is recorded.
        drop(epoch);
        if engine
            .send(EngineMsg::ShardDone {
                seq,
                served: Box::new(Served {
                    time,
                    request,
                    entry,
                    result,
                }),
                reply,
            })
            .is_err()
        {
            return;
        }
    }
}

/// The engine thread: the single sequencing point of the deployment. It
/// assigns every action's id and time and appends every log record, so the
/// history is one serializable timeline. With more than one shard it also
/// routes: a request whose partition footprint lands on one shard runs on
/// that shard's worker against a shared database epoch, and everything else
/// takes the **global lane** — it drains every shard to a barrier and runs
/// on the engine thread. With one shard there is no worker and nothing is
/// routed: every request takes the global lane.
struct Engine {
    server: WarpServer,
    durable_acks: bool,
    /// The strategy for repairs that name none.
    default_strategy: RepairStrategy,
    /// The running repair, if any.
    repair: Option<ActiveRepair>,
    /// One job queue per shard worker; empty at one shard.
    workers: Vec<Sender<ShardJob>>,
    /// Round-robin cursor for [`Route::Any`] requests.
    rr_next: usize,
    /// The active epoch plus the generation and synthetic-id watermark
    /// captured when the database was checked out (constant for the epoch:
    /// repairs are barriers and sharded inserts carry explicit row ids).
    epoch: Option<(Arc<ShardEpoch>, Generation, i64)>,
    /// Per-entry route plans, invalidated at every barrier (source changes
    /// and DDL all pass through barriers).
    plans: BTreeMap<String, RoutePlan>,
    next_seq: u64,
    next_record: u64,
    in_flight: usize,
    /// Finished shard executions parked until every earlier `seq` is
    /// recorded.
    pending: BTreeMap<u64, (Box<Served>, Sender<HttpResponse>)>,
    /// Messages that arrived while a barrier was draining, replayed FIFO.
    backlog: VecDeque<EngineMsg>,
}

impl Engine {
    /// Takes over the server and, with more than one shard, spawns the
    /// shard workers, each holding a clone of `engine_tx`.
    fn new(
        server: WarpServer,
        durability: Durability,
        default_strategy: RepairStrategy,
        shards: usize,
        engine_tx: Sender<EngineMsg>,
    ) -> Self {
        let mut workers = Vec::new();
        // At `0` or `1` shards there is nothing to run concurrently.
        if shards > 1 {
            for i in 0..shards {
                let (job_tx, job_rx) = channel::<ShardJob>();
                let engine = engine_tx.clone();
                std::thread::Builder::new()
                    .name(format!("warp-shard-{i}"))
                    .spawn(move || shard_worker(i, shards, job_rx, engine))
                    .expect("spawning a shard worker thread");
                workers.push(job_tx);
            }
        }
        Engine {
            durable_acks: durability.acks_after_durability() && server.is_persistent(),
            server,
            default_strategy,
            repair: None,
            workers,
            rr_next: 0,
            epoch: None,
            plans: BTreeMap::new(),
            next_seq: 0,
            next_record: 0,
            in_flight: 0,
            pending: BTreeMap::new(),
            backlog: VecDeque::new(),
        }
    }

    /// Handles messages until [`Warp::close`], or until every public handle
    /// is gone. Shard workers hold engine senders, which mask channel
    /// disconnect, so an idle engine also watches the liveness token.
    fn run(mut self, rx: Receiver<EngineMsg>, alive: Weak<()>) {
        let close_reply = loop {
            let msg = match self.backlog.pop_front() {
                Some(msg) => msg,
                None if self.repair.is_some() => match self.drive_repair(&rx) {
                    Some(msg) => msg,
                    None => continue,
                },
                None => match rx.recv_timeout(IDLE_POLL) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout)
                        if alive.strong_count() > 0 || self.in_flight > 0 =>
                    {
                        continue
                    }
                    Err(_) => {
                        self.barrier(&rx);
                        break None;
                    }
                },
            };
            if let Some(reply) = self.handle(msg, &rx) {
                break Some(reply);
            }
        };
        let Engine {
            mut server,
            workers,
            ..
        } = self;
        // Dropping the job senders stops the workers.
        drop(workers);
        if let Some(reply) = close_reply {
            server.disable_group_commit();
            let _ = reply.send(Box::new(server));
        }
        // Otherwise dropping the server flushes and stops the group-commit
        // writer, so nothing submitted is lost.
    }

    /// Handles one message. A request is routed (or, while a repair runs,
    /// served on the global lane in the current generation, unless the run
    /// has to commit first to keep its synthetic-ID headroom); a shard
    /// result is recorded in timeline order. Everything else is a barrier
    /// that also commits the running repair first, so `with_server`,
    /// checkpoints, GC, client-log uploads, a second repair and `close` keep
    /// their ordering. Returns the close reply, if the message was a
    /// `Close`.
    fn handle(
        &mut self,
        msg: EngineMsg,
        rx: &Receiver<EngineMsg>,
    ) -> Option<Sender<Box<WarpServer>>> {
        match msg {
            EngineMsg::Serve { request, reply } => {
                if let Some(active) = self.repair.as_mut() {
                    // The run works on the database between requests, so
                    // the database stays home: the global lane.
                    if !active.run.must_commit(&self.server) {
                        active.served += 1;
                        self.serve_global(request, reply);
                        return None;
                    }
                    self.commit_repair();
                }
                self.serve(request, reply, rx);
            }
            EngineMsg::ShardDone { seq, served, reply } => {
                self.record_ready(seq, served, reply);
                // Checkpoints are barriers (they need the database home);
                // take one between epochs when the log asks for it.
                if self.in_flight == 0
                    && self
                        .server
                        .store
                        .as_ref()
                        .is_some_and(|sink| sink.checkpoint_due())
                {
                    self.barrier(rx);
                }
            }
            EngineMsg::With(f) => {
                self.quiesce(rx);
                f(&mut self.server);
            }
            EngineMsg::Repair {
                request,
                strategy,
                state,
                outcome,
            } => {
                self.quiesce(rx);
                let strategy = strategy.unwrap_or(self.default_strategy);
                let run = RepairRun::start(&mut self.server, request, strategy);
                self.repair = Some(ActiveRepair::new(run, state, outcome));
            }
            EngineMsg::ResumeRepair {
                state,
                outcome,
                accepted,
            } => {
                self.quiesce(rx);
                // The check and the start are one step on the engine thread,
                // so concurrent resumers cannot run the repair twice.
                let run = RepairRun::resume(&mut self.server, self.default_strategy);
                let _ = accepted.send(run.is_some());
                self.repair = run.map(|run| ActiveRepair::new(run, state, outcome));
            }
            EngineMsg::Close { reply } => {
                self.quiesce(rx);
                return Some(reply);
            }
        }
        None
    }

    /// What the engine does next while a repair runs: commit it once no
    /// step is left, yield to a queued message, or run the next step.
    /// Returns the message to handle, if any.
    fn drive_repair(&mut self, rx: &Receiver<EngineMsg>) -> Option<EngineMsg> {
        let active = self.repair.as_mut()?;
        if active.run.is_ready() {
            self.commit_repair();
            return None;
        }
        let msg = if active.served < SERVES_PER_STEP {
            rx.try_recv().ok()
        } else {
            None
        };
        if msg.is_none() {
            active.served = 0;
            active.run.step(&mut self.server);
            // A step is background work: give the core to a client thread
            // that is runnable on it, so its request is queued before the
            // next step. Without this, on a host with fewer cores than busy
            // threads, a short repair runs to its commit before a client
            // woken on the engine's core is scheduled at all.
            std::thread::yield_now();
        }
        msg
    }

    /// Drives the running repair, if any, through its commit and reports
    /// the outcome.
    fn commit_repair(&mut self) {
        let Some(active) = self.repair.take() else {
            return;
        };
        let result = active.run.commit(&mut self.server);
        if self.durable_acks {
            // The commit/abort record must be durable before the outcome is
            // reported.
            self.server.flush_durable();
        }
        active.state.store(STATUS_COMPLETED, Ordering::Release);
        let _ = active.outcome.send(result);
    }

    /// The serialization point for everything but a request: shard work
    /// drains, then the running repair commits.
    fn quiesce(&mut self, rx: &Receiver<EngineMsg>) {
        self.barrier(rx);
        self.commit_repair();
    }

    /// Routes one request: a shardable footprint dispatches to its owner
    /// worker, everything else drains to a barrier and takes the global
    /// lane.
    fn serve(
        &mut self,
        request: HttpRequest,
        reply: Sender<HttpResponse>,
        rx: &Receiver<EngineMsg>,
    ) {
        match self.shard_for(&request) {
            Some((entry, shard)) => self.dispatch(shard, entry, request, reply),
            None => {
                self.barrier(rx);
                self.serve_global(request, reply);
            }
        }
    }

    /// The entry script and the shard worker a request can run on, or
    /// `None` if it takes the global lane. With one shard nothing is routed.
    fn shard_for(&mut self, request: &HttpRequest) -> Option<(String, usize)> {
        if self.workers.is_empty() {
            return None;
        }
        // Unrouted paths record a 404 on the global lane, and clients with
        // a queued cookie invalidation need `WarpServer::handle`'s
        // pre-processing there.
        let entry = self.server.router.resolve(&request.path)?;
        let invalidated = request
            .warp
            .client_id
            .as_ref()
            .is_some_and(|c| self.server.pending_cookie_invalidations.contains(c));
        if invalidated {
            return None;
        }
        let plan = self.plan_for(&entry);
        let shards = self.workers.len();
        let shard = match classify(&plan, request, shards) {
            Route::Global => return None,
            Route::Shard(shard) => shard,
            Route::Any => {
                let shard = self.rr_next;
                self.rr_next = (shard + 1) % shards;
                shard
            }
        };
        Some((entry, shard))
    }

    /// Serves one request on the engine thread, with the database home.
    fn serve_global(&mut self, request: HttpRequest, reply: Sender<HttpResponse>) {
        let served = self.server.execute(request);
        self.record(served, None, reply);
    }

    /// Records a served action and releases its response to the caller:
    /// under durable acks the release rides to the log writer with the
    /// action's record — one message — and fires only after the record is
    /// durable; the engine moves on immediately, so durability waits happen
    /// off the serving path.
    fn record(
        &mut self,
        served: Served,
        shard_meta: Option<(Generation, i64)>,
        reply: Sender<HttpResponse>,
    ) {
        // The one copy of the response: the caller's.
        let response = served.result.response.clone();
        let release = move || {
            let _ = reply.send(response);
        };
        if self.durable_acks {
            self.server
                .record_served(served, shard_meta, Some(Box::new(release)));
        } else {
            self.server.record_served(served, shard_meta, None);
            release();
        }
    }

    /// The cached route plan for an entry script, planning it now if new —
    /// against the database where it is: at home, or checked out to the
    /// active epoch.
    fn plan_for(&mut self, entry: &str) -> RoutePlan {
        if let Some(plan) = self.plans.get(entry) {
            return plan.clone();
        }
        let mut checked_out = self
            .epoch
            .as_ref()
            .map(|(epoch, _, _)| epoch.db.lock().expect("shard db lock poisoned"));
        let db = checked_out.as_deref_mut().unwrap_or(&mut self.server.db);
        let plan = plan_entry(entry, &self.server.sources, self.server.clock.now(), db);
        self.plans.insert(entry.to_string(), plan.clone());
        plan
    }

    /// Sends a request to a shard worker, checking the database out into a
    /// new epoch first if none is active.
    fn dispatch(
        &mut self,
        shard: usize,
        entry: String,
        request: HttpRequest,
        reply: Sender<HttpResponse>,
    ) {
        if self.epoch.is_none() {
            let db = std::mem::replace(&mut self.server.db, TimeTravelDb::new());
            let gen = db.current_generation();
            let watermark = db.synthetic_id_watermark();
            let epoch = Arc::new(ShardEpoch {
                db: Mutex::new(db),
                clock: self.server.clock.clone(),
                sources: self.server.sources.clone(),
            });
            self.epoch = Some((epoch, gen, watermark));
        }
        let (epoch, _, _) = self.epoch.as_ref().expect("epoch just ensured");
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = self.server.clock.tick();
        self.in_flight += 1;
        self.workers[shard]
            .send(ShardJob {
                seq,
                time,
                request,
                entry,
                epoch: epoch.clone(),
                reply,
            })
            .expect("shard worker died");
    }

    /// Parks a finished execution and records the contiguous prefix of the
    /// timeline, releasing each response per the durability contract.
    fn record_ready(&mut self, seq: u64, served: Box<Served>, reply: Sender<HttpResponse>) {
        self.pending.insert(seq, (served, reply));
        while let Some((served, reply)) = self.pending.remove(&self.next_record) {
            self.next_record += 1;
            self.in_flight -= 1;
            let (_, gen, watermark) = *self.epoch.as_ref().expect("epoch active");
            self.record(*served, Some((gen, watermark)), reply);
        }
    }

    /// Drains every in-flight shard execution, reclaims the database, and
    /// invalidates the router caches. Messages arriving mid-drain are
    /// backlogged in order. This is the serialization point the global lane
    /// and every administrative operation go through; with no epoch out
    /// (always, at one shard) it does nothing.
    fn barrier(&mut self, rx: &Receiver<EngineMsg>) {
        while self.in_flight > 0 {
            match rx.recv().expect("shard workers hold a sender") {
                EngineMsg::ShardDone { seq, served, reply } => {
                    self.record_ready(seq, served, reply)
                }
                other => self.backlog.push_back(other),
            }
        }
        if let Some((epoch, _, _)) = self.epoch.take() {
            let mut epoch = epoch;
            let db = loop {
                // Workers drop their Arc before sending ShardDone, so once
                // everything in flight is recorded the engine's clone is the
                // last one — modulo a send/drop race worth a yield.
                match Arc::try_unwrap(epoch) {
                    Ok(e) => break e.db.into_inner().expect("shard db lock poisoned"),
                    Err(back) => {
                        epoch = back;
                        std::thread::yield_now();
                    }
                }
            };
            self.server.db = db;
            self.plans.clear();
            // Checkpointing was deferred while the database was checked out.
            self.server.maybe_checkpoint();
        }
    }
}

/// Uniform access to a serving Warp deployment, implemented by both the
/// concurrent [`Warp`] handle and the deprecated synchronous [`WarpServer`]
/// shim. Workloads, attack drivers and scenarios are written against this
/// trait, which is how the shim-equivalence tests drive the identical
/// workload through both front ends.
pub trait WarpHost: Transport {
    /// Runs `f` against the underlying server and returns its result.
    fn with_host<R, F>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut WarpServer) -> R + Send + 'static,
        R: Send + 'static;

    /// Uploads client-side browser logs.
    fn upload_logs(&mut self, logs: Vec<PageVisitRecord>) {
        self.with_host(move |server| server.upload_client_logs(logs));
    }

    /// Runs a repair to completion with the given strategy.
    fn host_repair(&mut self, request: RepairRequest, strategy: RepairStrategy) -> RepairOutcome {
        self.with_host(move |server| server.repair_with(request, strategy))
    }
}

impl WarpHost for WarpServer {
    fn with_host<R, F>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut WarpServer) -> R + Send + 'static,
        R: Send + 'static,
    {
        f(self)
    }
}

impl WarpHost for Warp {
    fn with_host<R, F>(&mut self, f: F) -> R
    where
        F: FnOnce(&mut WarpServer) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.with_server(f)
    }

    fn upload_logs(&mut self, logs: Vec<PageVisitRecord>) {
        // Through the durability-honoring upload path, not a bare
        // `with_host` closure.
        self.upload_client_logs(logs);
    }

    fn host_repair(&mut self, request: RepairRequest, strategy: RepairStrategy) -> RepairOutcome {
        // Through the first-class repair path, so scenarios driven over a
        // `Warp` handle exercise the same machinery applications use.
        self.repair_with(request, strategy).join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_store::MemoryBackend;
    use warp_ttdb::TableAnnotation;

    fn tiny_app() -> AppConfig {
        let mut config = AppConfig::new("facade-tiny");
        config.add_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        );
        for p in 0..4 {
            config.seed(format!(
                "INSERT INTO page (page_id, title, body) VALUES ({}, 'Page{p}', 'seed {p}')",
                p + 1
            ));
        }
        config.add_source(
            "view.wasl",
            "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             if (len(rows) == 0) { echo(\"missing\"); } else { echo(rows[0][\"body\"]); }",
        );
        config.add_source(
            "edit.wasl",
            "db_query(\"UPDATE page SET body = '\" . sql_escape(param(\"body\")) . \"' WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             echo(\"saved\");",
        );
        config
    }

    fn edit(page: usize, body: &str) -> HttpRequest {
        HttpRequest::post(
            "/edit.wasl",
            [("title", format!("Page{page}").as_str()), ("body", body)],
        )
    }

    #[test]
    fn serves_and_records_through_the_handle() {
        let warp = Warp::builder().app(tiny_app()).start();
        let r = warp.serve(HttpRequest::get("/view.wasl?title=Page0"));
        assert!(r.body.contains("seed 0"));
        warp.serve(edit(0, "edited"));
        let r = warp.serve(HttpRequest::get("/view.wasl?title=Page0"));
        assert!(r.body.contains("edited"));
        assert_eq!(warp.with_server(|s| s.history.len()), 3);
    }

    #[test]
    fn concurrent_serving_from_many_threads() {
        let warp = Warp::builder().app(tiny_app()).start();
        let threads: Vec<_> = (0..4usize)
            .map(|t| {
                let warp = warp.clone();
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let r = warp.serve(edit(t % 4, &format!("t{t} rev {i}")));
                        assert!(r.body.contains("saved"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(warp.with_server(|s| s.history.len()), 32);
    }

    /// The shard counts the façade tests drive: one (no worker) and four.
    const SHARD_COUNTS: [usize; 2] = [1, 4];

    #[test]
    fn group_commit_acks_are_durable() {
        for shards in SHARD_COUNTS {
            let backend = MemoryBackend::new();
            let (warp, report) = Warp::builder()
                .app(tiny_app())
                .backend(Box::new(backend.clone()))
                .durability(Durability::Group {
                    max_batch: 16,
                    max_delay: Duration::from_micros(200),
                })
                .engine_shards(shards)
                .build()
                .unwrap();
            assert!(!report.recovered);
            for i in 0..10 {
                warp.serve(edit(i % 4, &format!("rev {i}")));
            }
            // Every request above was acknowledged, so a crash right now
            // must lose nothing. The image is taken BEFORE the handle is
            // dropped — dropping flushes the writer, which would mask an
            // ack-before-durable regression.
            let image = backend.snapshot();
            drop(warp);
            let (warp, report) = Warp::builder()
                .app(tiny_app())
                .backend(Box::new(image))
                .engine_shards(shards)
                .build()
                .unwrap();
            assert!(report.recovered);
            assert_eq!(warp.with_server(|s| s.history.len()), 10, "{shards} shards");
            let r = warp.serve(HttpRequest::get("/view.wasl?title=Page1"));
            assert!(r.body.contains("rev 9"), "{shards} shards: {}", r.body);
        }
    }

    #[test]
    fn relaxed_tier_becomes_durable_on_flush() {
        for shards in SHARD_COUNTS {
            let backend = MemoryBackend::new();
            let warp = Warp::builder()
                .app(tiny_app())
                .backend(Box::new(backend.clone()))
                .durability(Durability::Relaxed)
                .engine_shards(shards)
                .start();
            for i in 0..6 {
                warp.serve(edit(i % 4, &format!("rev {i}")));
            }
            warp.flush();
            drop(warp);
            let (warp, _) = Warp::builder()
                .app(tiny_app())
                .backend(Box::new(backend))
                .engine_shards(shards)
                .build()
                .unwrap();
            assert_eq!(warp.with_server(|s| s.history.len()), 6, "{shards} shards");
        }
    }

    #[test]
    fn repair_handle_reports_status_and_outcome() {
        for shards in SHARD_COUNTS {
            let warp = Warp::builder()
                .app(tiny_app())
                .engine_shards(shards)
                .start();
            warp.serve(edit(1, "<script>evil</script>"));
            let patch = crate::sourcefs::Patch::new(
                "view.wasl",
                "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
                 if (len(rows) == 0) { echo(\"missing\"); } else { echo(htmlspecialchars(rows[0][\"body\"])); }",
                "sanitise output",
            );
            let handle = warp.repair(RepairRequest::RetroactivePatch {
                patch,
                from_time: 0,
            });
            let outcome = handle.join();
            assert!(!outcome.aborted, "{shards} shards");
            let r = warp.serve(HttpRequest::get("/view.wasl?title=Page1"));
            assert!(
                r.body.contains("&lt;script&gt;"),
                "{shards} shards: {}",
                r.body
            );
        }
    }

    #[test]
    fn resume_pending_repair_through_the_handle() {
        for shards in SHARD_COUNTS {
            let backend = MemoryBackend::new();
            let warp = Warp::builder()
                .app(tiny_app())
                .backend(Box::new(backend.clone()))
                .engine_shards(shards)
                .start();
            warp.serve(edit(1, "broken"));
            // Forge the crash window: RepairBegin in the log, no commit.
            let patch = crate::sourcefs::Patch::new("edit.wasl", "echo(\"noop\");", "noop");
            warp.with_server(move |server| {
                server.log_event(&crate::persist::LogEvent::RepairBegin(
                    RepairRequest::RetroactivePatch {
                        patch,
                        from_time: 0,
                    },
                ));
                server.flush_durable();
            });
            drop(warp); // crash

            let (warp, report) = Warp::builder()
                .app(tiny_app())
                .backend(Box::new(backend))
                .engine_shards(shards)
                .build()
                .unwrap();
            assert!(report.pending_repair, "{shards} shards");
            assert!(warp.pending_repair().is_some());
            let handle = warp.resume_pending_repair().expect("a repair to resume");
            let _ = handle.join();
            assert!(warp.pending_repair().is_none());
            assert!(
                warp.resume_pending_repair().is_none(),
                "a second resume finds nothing"
            );
        }
    }

    #[test]
    fn close_returns_the_engine_server_and_dead_handles_get_503() {
        for shards in SHARD_COUNTS {
            let warp = Warp::builder()
                .app(tiny_app())
                .engine_shards(shards)
                .start();
            warp.serve(edit(2, "kept"));
            let clone = warp.clone();
            let mut server = warp.close();
            assert_eq!(server.history.len(), 1, "{shards} shards");
            assert!(server.db.canonical_dump().contains("kept"));
            let r = clone.serve(HttpRequest::get("/view.wasl?title=Page2"));
            assert_eq!(r.status, 503);
        }
    }

    #[test]
    fn one_shard_spawns_no_worker_and_routes_nothing() {
        for shards in [0, 1, 4] {
            let (tx, rx) = channel();
            let server = WarpServer::new(tiny_app());
            let mut engine = Engine::new(
                server,
                Durability::Relaxed,
                RepairStrategy::Sequential,
                shards,
                tx,
            );
            let (reply, response) = channel();
            let request = HttpRequest::get("/view.wasl?title=Page0");
            assert!(engine
                .handle(EngineMsg::Serve { request, reply }, &rx)
                .is_none());
            if shards > 1 {
                // Routed to a worker, which answers on the engine channel.
                assert_eq!(engine.workers.len(), shards);
                assert_eq!(engine.plans.len(), 1);
                let done = rx.recv().expect("a shard result");
                engine.handle(done, &rx);
            } else {
                // The engine's own sender was the only one: no worker holds
                // a clone, so no worker thread exists.
                assert!(engine.workers.is_empty());
                assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
                assert!(engine.plans.is_empty(), "nothing is routed");
            }
            assert!(response.recv().unwrap().body.contains("seed 0"));
            assert_eq!(engine.server.history.len(), 1);
        }
    }

    #[test]
    fn writer_stats_surface_batching() {
        let warp = Warp::builder()
            .app(tiny_app())
            .backend(Box::new(MemoryBackend::new()))
            .durability(Durability::Immediate)
            .start();
        for i in 0..5 {
            warp.serve(edit(i % 4, "x"));
        }
        let stats = warp.writer_stats();
        assert_eq!(stats.records, 5);
        assert_eq!(stats.largest_batch, 1, "immediate tier never batches");
    }
}
