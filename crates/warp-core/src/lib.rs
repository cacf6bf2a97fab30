//! `warp-core` — the Warp intrusion-recovery system (the paper's primary
//! contribution).
//!
//! This crate ties the substrates together into the system of Figure 1:
//!
//! * The [`server::WarpServer`] is the application server: it routes HTTP
//!   requests to WASL application code, interposes on every database query
//!   and non-deterministic call through the application repair manager's
//!   host ([`apphost`]), stamps everything with a logical clock, and records
//!   actions with their input/output dependencies into the action history
//!   graph ([`history`]).
//! * The [`sourcefs::SourceStore`] holds the application's source files with
//!   full version history, so security patches can be applied *in the past*.
//! * The repair controller ([`repair`]) implements rollback-and-re-execute
//!   repair: retroactive patching (§3), partition-based selective query
//!   re-execution over the time-travel database (§4), DOM-level browser
//!   re-execution (§5), conflict queueing, and user-initiated undo. A
//!   repair is a [`RepairRun`] — started, stepped, committed — so the
//!   engine keeps serving while it runs and pauses only to switch
//!   generations (§4.3).
//! * [`history`] also stores the per-client browser logs (with quotas) and
//!   the storage accounting reported in the paper's Table 6; [`stats`]
//!   collects the repair-time breakdown reported in Tables 7 and 8.
//!
//! # Quickstart
//!
//! The public entry point is the [`Warp`] handle: configure a deployment
//! with [`Warp::builder`] (application, storage backend, [`Durability`]
//! tier, repair workers), then serve requests through the cloneable handle
//! from as many threads as you like — they funnel into one engine, so the
//! recorded history stays a single serializable timeline. With
//! [`WarpBuilder::engine_shards`] the engine additionally fans request
//! *execution* out to shard workers by statically-predicted partition
//! footprint; actions are still sequenced, recorded and logged at a single
//! point, so everything downstream (durability, recovery, repair) is
//! unchanged.
//!
//! ```
//! use warp_core::{AppConfig, Warp};
//! use warp_http::HttpRequest;
//!
//! let mut config = AppConfig::new("hello-app");
//! config.add_source(
//!     "index.wasl",
//!     "echo(\"<p>Hello \" . htmlspecialchars(param(\"name\")) . \"</p>\");",
//! );
//! let warp = Warp::builder().app(config).start();
//!
//! // Clones of the handle serve concurrently from other threads.
//! let handle = warp.clone();
//! let worker = std::thread::spawn(move || {
//!     handle.serve(HttpRequest::get("/index.wasl?name=Thread"))
//! });
//! let response = warp.serve(HttpRequest::get("/index.wasl?name=World"));
//! assert!(response.body.contains("Hello World"));
//! assert!(worker.join().unwrap().body.contains("Hello Thread"));
//!
//! // Both requests were recorded in one action history.
//! assert_eq!(warp.with_server(|server| server.history.len()), 2);
//! ```

pub mod apphost;
pub mod clock;
pub mod config;
pub mod conflict;
pub mod facade;
pub mod history;
pub mod persist;
pub mod repair;
pub mod scheduler;
pub mod server;
pub(crate) mod shard;
pub mod sourcefs;
pub mod stats;
mod wire;

pub use config::{AppConfig, ServerConfig};
pub use conflict::{Conflict, ConflictKind};
pub use facade::{Durability, RepairHandle, RepairStatus, Warp, WarpBuilder, WarpHost};
pub use history::{ActionId, ActionRecord, HistoryGraph, NondetRecord, QueryRecord};
pub use persist::RecoveryReport;
pub use repair::{RepairOutcome, RepairRequest, RepairRun};
pub use scheduler::RepairStrategy;
pub use server::WarpServer;
pub use shard::{site_template, SiteTemplate, TemplateParam};
pub use sourcefs::{Patch, SourceStore};
pub use stats::{LoggingStats, RepairStats};
// Re-export the call-site analysis that `site_template` takes its input
// from, so analysis tools need not depend on `warp-script` directly.
pub use warp_script::sites;
// Re-export the storage subsystem so applications and binaries can
// configure backends without depending on `warp-store` directly.
pub use warp_store::{
    BatchPolicy, FileBackend, MaintenanceStats, MemoryBackend, ShipFrame, ShipperHook,
    StorageBackend, StoreError, StoreOptions, WriterStats, KILL_AFTER_CKPT_WRITE_ENV,
};
