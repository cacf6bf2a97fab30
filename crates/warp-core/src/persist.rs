//! Persistence: the server's durable action log, checkpoints and recovery.
//!
//! `warp-store` provides the byte-level machinery (backends, the segmented
//! checksummed log, checkpoint blobs, compaction); this module defines what
//! Warp actually stores in it and how a byte-identical [`WarpServer`] is
//! rebuilt after a crash.
//!
//! # What is logged
//!
//! Every state transition of a persistent server appends one record:
//!
//! * `LogEvent::Action` — one handled HTTP request: the full
//!   [`ActionRecord`] (request, response, dependencies, non-determinism)
//!   plus the generation it executed in and the clock / RNG / session /
//!   synthetic-row-ID counters after it. Replaying the record re-executes
//!   the action's *write* queries at their original times, which rebuilds
//!   the time-travel database's row versions exactly (normal-execution
//!   writes are deterministic given SQL text, time and generation).
//! * `LogEvent::ClientLog` — an uploaded browser page-visit log.
//! * `LogEvent::RepairBegin` / `LogEvent::RepairCommitSinceBegin` /
//!   `LogEvent::RepairCommit` / `LogEvent::RepairAbort` — repair is *not*
//!   replayed on recovery (re-running it would need patched sources and
//!   browser replay mid recovery); instead the commit record carries the
//!   repair's physical effect: per-table row-version deltas (produced by
//!   the time-travel database's mutation tracker at O(rows changed) — the
//!   repair data path never snapshots or diffs whole tables), the
//!   cancelled-action set, the queued conflicts, cookie invalidations and
//!   the new generation. A `RepairBegin` with no matching commit or abort
//!   marks an interrupted repair; recovery surfaces it as
//!   [`WarpServer::pending_repair`] so the administrator can re-run it.
//!   The actions served while a repair ran executed with its generation
//!   open, so replay holds their writes back until the outcome: a
//!   `RepairCommitSinceBegin`, whose deltas cover them, drops them; a
//!   `RepairCommit` (the partitioned engine's, whose deltas do not) and a
//!   `RepairAbort` replay them first; so does the end of a log whose repair
//!   is still pending ([`WarpServer::end_of_log`]).
//! * `LogEvent::RepairInterrupted` — appended by a server that opens (or is
//!   promoted) over a log whose repair is still pending: the writes of the
//!   actions served since its `RepairBegin` stand as served, so replay
//!   applies the held-back writes here and holds nothing back after it.
//!   The repair stays pending.
//! * `LogEvent::Gc` — a garbage-collection cut-off, replayed as-is (GC
//!   renumbers action IDs, so it must happen at the same point of the
//!   replayed history).
//! * `LogEvent::CreateTable` — a table installed after initial deployment.
//!
//! # What is checkpointed
//!
//! A checkpoint chain is one *base* payload and the *delta* payloads cut
//! since. `warp-store` frames, names and CRCs the blobs and treats the
//! payloads as opaque; their two layouts are defined here, each as a data
//! type with one writer and one reader. Both start with `FORMAT_VERSION`.
//!
//! | layout | small state | history section | table section | writer | reader |
//! |---|---|---|---|---|---|
//! | base | the ten header fields | every action, every client log | per table: head, every stored version row | `BaseCheckpoint::encode` | `BaseCheckpoint::decode` |
//! | delta | the ten header fields | floor, actions above it, IDs cancelled below it, client logs uploaded since | per changed or new table: head, rows removed, rows added | `DeltaCheckpoint::encode` | `DeltaCheckpoint::decode` |
//!
//! The small state (`SmallState`: clock, RNG, session, generation,
//! synthetic-ID watermark, pending repair, cookie invalidations, conflicts,
//! source versions, client-log quota) and the table head (`TableHead`: name,
//! `CREATE TABLE`, annotation, column names) are the same in both.
//!
//! # Where the layouts live
//!
//! Every persisted type states its byte layout once, as a `Wire` impl
//! (`crate::wire`): the records' own types (`ActionRecord`, `Conflict`,
//! client logs, SQL and script values, …) in `wire.rs`, and the log-record
//! and checkpoint types of this module below, each a `wire_struct!` or
//! `wire_variants!` list of its fields in order. A log record's kind byte is
//! its `LogEvent` variant's tag; a checkpoint payload is `FORMAT_VERSION`
//! and then its layout. Sequences are a `u32` count and the elements, so
//! every count read back is checked against the bytes that remain.
//!
//! Everything else moves values, not bytes: the live server and a standby
//! `capture` a payload from borrowed state ([`WarpServer::checkpoint`],
//! [`WarpServer::checkpoint_incremental`]); recovery `install`s a decoded base
//! and `apply`s each decoded delta; the maintenance worker's folder
//! (`fold_checkpoint_chain`) has a decoded base `absorb` each decoded delta
//! and encodes the result.
//!
//! # Recovery
//!
//! [`WarpServer::open`] installs the application fresh (schema, seeds,
//! sources — all deterministic), restores the newest checkpoint chain if one
//! exists, then replays the log tail. Recovery therefore assumes the same
//! [`AppConfig`] the original server ran with, which is the same contract a
//! real deployment has with its schema migrations.

use crate::config::{AppConfig, ServerConfig};
use crate::conflict::Conflict;
use crate::history::{ActionId, ActionRecord, HistoryGraph};
use crate::repair::RepairRequest;
use crate::server::WarpServer;
use crate::sourcefs::Patch;
use crate::wire::{bad, wire_struct, wire_variants, Variants, Wire};
use std::borrow::Cow;
use std::collections::BTreeSet;
use warp_browser::PageVisitRecord;
use warp_sql::Value as SqlValue;
use warp_store::{CodecError, Decoder, DurableStore, Encoder, StoreError, StoreResult};
use warp_ttdb::{TableAnnotation, TimeTravelDb};

/// Version stamp of the checkpoint payload and record encodings. Bump on
/// any incompatible change; recovery refuses newer formats loudly instead
/// of misreading them.
pub const FORMAT_VERSION: u32 = 1;

const KIND_ACTION: u8 = 1;
const KIND_CLIENT_LOG: u8 = 2;
const KIND_REPAIR_BEGIN: u8 = 3;
const KIND_REPAIR_COMMIT: u8 = 4;
const KIND_REPAIR_ABORT: u8 = 5;
const KIND_GC: u8 = 6;
const KIND_CREATE_TABLE: u8 = 7;
const KIND_REPAIR_COMMIT_SINCE_BEGIN: u8 = 8;
const KIND_REPAIR_INTERRUPTED: u8 = 9;

/// One record of the durable action log.
#[derive(Debug, Clone)]
pub(crate) enum LogEvent {
    /// A handled request, with the counter state after it.
    Action(Box<ActionEvent<'static>>),
    /// An uploaded client browser log.
    ClientLog(PageVisitRecord),
    /// A repair started (crash marker; carries the request for redo).
    RepairBegin(RepairRequest),
    /// A repair committed; carries its complete physical effect. Its row
    /// diffs leave out the writes of the actions logged since its
    /// `RepairBegin`: replay applies those first (the partitioned engine,
    /// which repairs on clones, and logs written before the walk).
    RepairCommit(RepairCommitRecord),
    /// A repair committed whose row diffs cover every mutation since its
    /// `RepairBegin`, the writes of the actions served meanwhile included:
    /// replay drops those writes (the walks, which repair in the live
    /// database's repair generation).
    RepairCommitSinceBegin(RepairCommitRecord),
    /// The log's pending repair was interrupted (a crash or a promotion
    /// mid-run) and the server went on serving: the writes of the actions
    /// logged since its `RepairBegin` stand as served. The repair stays
    /// pending ([`WarpServer::pending_repair`]).
    RepairInterrupted,
    /// A repair aborted (only the side effects that survive an abort).
    RepairAbort {
        /// The retroactive patch, which stays applied to the source store
        /// even when the repair aborts.
        patch: Option<(Patch, i64)>,
        /// Cookie invalidations queued despite the abort.
        cookie_invalidations: Vec<String>,
    },
    /// History and version garbage collection ran with this cut-off.
    Gc {
        /// The GC cut-off time.
        before_time: i64,
    },
    /// A table was installed after initial deployment.
    CreateTable {
        /// The application's `CREATE TABLE` statement.
        sql: String,
        /// The table's Warp annotation.
        annotation: TableAnnotation,
    },
}

/// One table's row-version delta: `(table, removed rows, added rows)`.
pub(crate) type TableDiff = (String, Vec<Vec<SqlValue>>, Vec<Vec<SqlValue>>);

/// The physical effect of a committed repair.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepairCommitRecord {
    /// The retroactive patch the repair applied, if any.
    pub patch: Option<(Patch, i64)>,
    /// Actions cancelled by the repair.
    pub cancelled: Vec<ActionId>,
    /// Conflicts queued for users.
    pub conflicts: Vec<Conflict>,
    /// Clients whose cookies must be invalidated.
    pub cookie_invalidations: Vec<String>,
    /// The generation that became current when the repair finalized.
    pub current_gen: i64,
    /// The synthetic row-ID watermark after the repair.
    pub watermark: i64,
    /// Per-table row-version deltas `(table, removed rows, added rows)`
    /// turning the pre-repair stored rows into the post-repair rows.
    pub table_diffs: Vec<TableDiff>,
}

/// What [`WarpServer::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// True if any persisted state (checkpoint or log records) was applied.
    pub recovered: bool,
    /// True if a checkpoint was restored (rather than replaying from the
    /// initial installation).
    pub from_checkpoint: bool,
    /// Log records replayed after the checkpoint.
    pub records_replayed: usize,
    /// True if a torn final record was found and truncated.
    pub torn_tail: bool,
    /// True if an interrupted repair was detected; see
    /// [`WarpServer::pending_repair`].
    pub pending_repair: bool,
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// What changed since the last checkpoint, beyond what the database's
/// mutation tracker captures: the bookkeeping the server keeps so an
/// incremental checkpoint can be encoded without walking the full state.
///
/// Row changes are tracked by the time-travel database itself
/// ([`warp_ttdb::TimeTravelDb::drain_checkpoint_delta`]); everything here is
/// the history-graph side — which actions are new (a floor index, since
/// action IDs are append-order indices), which old actions were cancelled by
/// a repair, which client logs arrived, which tables were installed.
#[derive(Debug, Clone, Default)]
pub(crate) struct CheckpointMarks {
    /// History length at the last checkpoint; `actions()[floor..]` are new.
    pub actions_floor: usize,
    /// Actions whose `cancelled` flag flipped since (repair commits mutate
    /// history in place); the ones below the floor ride in the next delta.
    pub cancelled: BTreeSet<ActionId>,
    /// `(client_id, visit_id)` of client logs uploaded since.
    pub new_logs: Vec<(String, u64)>,
    /// Tables installed since — their schema must ride in the next delta,
    /// even with zero row changes, or a fold would lose the `CREATE TABLE`.
    pub new_tables: Vec<String>,
    /// The next automatic checkpoint must be a full base. Set when action
    /// IDs are renumbered (GC), which invalidates the floor/ID bookkeeping.
    pub needs_base: bool,
}

impl CheckpointMarks {
    /// Marks what `event` obliges the next checkpoint to carry. Every event
    /// passes through here on its way to the log, on the live server
    /// ([`WarpServer::log_event`]) and on a standby
    /// ([`WarpServer::apply_replicated`]) alike.
    pub(crate) fn note(&mut self, event: &LogEvent) {
        match event {
            LogEvent::CreateTable { sql, .. } => self.new_tables.extend(created_table_name(sql)),
            LogEvent::ClientLog(log) => self.new_logs.push((log.client_id.clone(), log.visit_id)),
            LogEvent::RepairCommit(commit) | LogEvent::RepairCommitSinceBegin(commit) => {
                self.cancelled.extend(&commit.cancelled)
            }
            LogEvent::Gc { .. } => self.needs_base = true,
            LogEvent::Action(_)
            | LogEvent::RepairBegin(_)
            | LogEvent::RepairInterrupted
            | LogEvent::RepairAbort { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------------
// The log sink: where a persistent server's records go
// ---------------------------------------------------------------------------

/// Where a persistent server's log records go.
///
/// The classic synchronous path ([`WarpServer`] used directly) appends to
/// the [`DurableStore`] inline: every record is durable before the call
/// that produced it returns. The concurrent façade ([`crate::Warp`]) moves
/// the store onto a background [`warp_store::GroupCommitWriter`] thread so
/// appends leave the request path; durability is then signalled through
/// the callback of [`LogSink::append_acked`], which the writer runs only
/// after the record and every record submitted before it have been
/// appended.
#[derive(Debug)]
pub(crate) enum LogSink {
    /// Synchronous appends straight into the store.
    Inline(DurableStore),
    /// Asynchronous appends through the group-commit writer thread.
    Writer {
        writer: warp_store::GroupCommitWriter,
        /// Records submitted since the last checkpoint. The writer owns the
        /// store, so the engine tracks the checkpoint cadence itself to
        /// avoid a message round-trip per action.
        since_checkpoint: u64,
        /// [`StoreOptions::checkpoint_interval`] captured before the store
        /// moved onto the writer thread.
        checkpoint_interval: u64,
        /// Delta links written since the last base, mirrored from the store
        /// for the same reason as `since_checkpoint`.
        deltas_since_base: usize,
        /// [`StoreOptions::fold_after_deltas`] captured before the store
        /// moved onto the writer thread.
        fold_after_deltas: usize,
    },
}

impl LogSink {
    /// Appends one encoded record.
    ///
    /// # Panics
    ///
    /// Panics if the inline backend fails; the writer thread enforces the
    /// same contract asynchronously (it panics, and the next durability
    /// interaction with it propagates the failure).
    pub(crate) fn append(&mut self, kind: u8, payload: Vec<u8>) {
        self.append_acked(kind, payload, None);
    }

    /// Appends one encoded record and runs `ack`, if any, once it — and
    /// every record appended before it — is durable: at once for the inline
    /// sink (appends are synchronous), after the covering batch commits for
    /// the writer sink, which gets the record and its callback as one
    /// message. This is how a served action's record reaches the log when
    /// its response must wait for durability.
    pub(crate) fn append_acked(
        &mut self,
        kind: u8,
        payload: Vec<u8>,
        ack: Option<Box<dyn FnOnce() + Send>>,
    ) {
        match self {
            LogSink::Inline(store) => {
                store
                    .append(kind, &payload)
                    .unwrap_or_else(|e| panic!("durable log append failed: {e}"));
                if let Some(ack) = ack {
                    ack();
                }
            }
            LogSink::Writer {
                writer,
                since_checkpoint,
                ..
            } => {
                match ack {
                    Some(ack) => writer.submit_acked(kind, payload, ack),
                    None => writer.submit(kind, payload),
                }
                *since_checkpoint += 1;
            }
        }
    }

    /// Appends a batch of already-encoded records, borrowed from wherever
    /// they arrived: one backend write on the inline sink (the standby's),
    /// one submission per record through the writer.
    pub(crate) fn append_batch(&mut self, records: &[(u8, &[u8])]) {
        match self {
            LogSink::Inline(store) => {
                store
                    .append_batch(records)
                    .unwrap_or_else(|e| panic!("durable log append failed: {e}"));
            }
            LogSink::Writer { .. } => {
                for (kind, payload) in records {
                    self.append(*kind, payload.to_vec());
                }
            }
        }
    }

    /// Blocks until everything appended so far is durable (no-op inline).
    pub(crate) fn flush(&self) {
        if let LogSink::Writer { writer, .. } = self {
            writer.flush();
        }
    }

    /// True once the checkpoint interval has elapsed.
    pub(crate) fn checkpoint_due(&self) -> bool {
        match self {
            LogSink::Inline(store) => store.checkpoint_due(),
            LogSink::Writer {
                since_checkpoint,
                checkpoint_interval,
                ..
            } => *checkpoint_interval > 0 && *since_checkpoint >= *checkpoint_interval,
        }
    }

    /// Writes a checkpoint (flushing pending records first on the writer
    /// path) and compacts the log.
    pub(crate) fn write_checkpoint(&mut self, payload: Vec<u8>) {
        match self {
            LogSink::Inline(store) => {
                store
                    .write_checkpoint(&payload)
                    .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
            }
            LogSink::Writer {
                writer,
                since_checkpoint,
                deltas_since_base,
                ..
            } => {
                writer.write_checkpoint(payload);
                *since_checkpoint = 0;
                *deltas_since_base = 0;
            }
        }
    }

    /// Writes a delta checkpoint chained onto the current tip (flushing
    /// pending records first on the writer path). Returns `false` when the
    /// store declined because no records landed since the last checkpoint —
    /// in which case nothing could have changed and the payload was empty
    /// anyway (every server state transition appends a record).
    pub(crate) fn write_delta_checkpoint(&mut self, payload: Vec<u8>) -> bool {
        match self {
            LogSink::Inline(store) => store
                .write_delta_checkpoint(&payload)
                .unwrap_or_else(|e| panic!("delta checkpoint write failed: {e}"))
                .is_some(),
            LogSink::Writer {
                writer,
                since_checkpoint,
                deltas_since_base,
                ..
            } => {
                let written = writer.write_delta_checkpoint(payload).is_some();
                *since_checkpoint = 0;
                if written {
                    *deltas_since_base += 1;
                }
                written
            }
        }
    }

    /// True once any checkpoint chain exists on disk (a delta needs a
    /// parent to name). A message round-trip on the writer path — callers
    /// are on the checkpoint cadence, not the per-record path.
    pub(crate) fn has_checkpoint(&self) -> bool {
        match self {
            LogSink::Inline(store) => store.has_checkpoint(),
            LogSink::Writer { writer, .. } => writer.has_checkpoint(),
        }
    }

    /// True once the delta chain is long enough that the next automatic
    /// checkpoint should fold it into a fresh base (the inline fallback for
    /// servers running without a background maintenance worker).
    pub(crate) fn should_fold(&self) -> bool {
        match self {
            LogSink::Inline(store) => {
                let fold = store.options().fold_after_deltas;
                fold > 0 && store.deltas_since_base() >= fold
            }
            LogSink::Writer {
                deltas_since_base,
                fold_after_deltas,
                ..
            } => *fold_after_deltas > 0 && *deltas_since_base >= *fold_after_deltas,
        }
    }

    /// Deletes every cold blob, returning bytes freed. Best-effort: cold
    /// blobs are an archival tier, so a backend hiccup here is not fatal.
    pub(crate) fn prune_cold(&mut self) -> u64 {
        match self {
            LogSink::Inline(store) => store.prune_cold_blobs().unwrap_or(0),
            LogSink::Writer { writer, .. } => writer.prune_cold_blobs(),
        }
    }

    /// Bytes currently held by the backend (segments + checkpoints).
    pub(crate) fn total_bytes(&self) -> u64 {
        match self {
            LogSink::Inline(store) => store.total_bytes().unwrap_or(0),
            LogSink::Writer { writer, .. } => writer.total_bytes(),
        }
    }

    /// The writer's batching counters (zeroes for the inline sink).
    pub(crate) fn writer_stats(&self) -> warp_store::WriterStats {
        match self {
            LogSink::Inline(_) => warp_store::WriterStats::default(),
            LogSink::Writer { writer, .. } => writer.stats(),
        }
    }

    /// The durable LSN watermark: the next LSN to be assigned, with every
    /// record below it on disk. On the writer path this flushes first, so
    /// the returned watermark covers everything appended before the call.
    pub(crate) fn durable_lsn(&self) -> u64 {
        match self {
            LogSink::Inline(store) => store.next_lsn(),
            LogSink::Writer { writer, .. } => writer.durable_lsn(),
        }
    }
}

// ---------------------------------------------------------------------------
// Log records (the layouts of their fields live in `wire.rs`)
// ---------------------------------------------------------------------------

type DecResult<T> = Result<T, CodecError>;

/// The payload of a [`LogEvent::Action`] record: the generation the action
/// executed in, the logical clock, RNG counter, session counter and
/// synthetic row-ID watermark after it, and the action. The serving path
/// writes it from a borrowed action, the one it just put in the history
/// graph; decoding owns it.
#[derive(Debug, Clone)]
pub(crate) struct ActionEvent<'a> {
    pub gen: i64,
    pub clock_after: i64,
    pub rng_after: u64,
    pub session_after: u64,
    pub watermark_after: i64,
    pub action: Cow<'a, ActionRecord>,
}

wire_struct! {
    ActionEvent<'_> { gen, clock_after, rng_after, session_after, watermark_after, action }
    RepairCommitRecord {
        patch, cancelled, conflicts, cookie_invalidations, current_gen, watermark, table_diffs,
    }
}

wire_variants! {
    LogEvent "log record kind" {
        KIND_ACTION => Action(event),
        KIND_CLIENT_LOG => ClientLog(record),
        KIND_REPAIR_BEGIN => RepairBegin(request),
        KIND_REPAIR_COMMIT => RepairCommit(commit),
        KIND_REPAIR_COMMIT_SINCE_BEGIN => RepairCommitSinceBegin(commit),
        KIND_REPAIR_INTERRUPTED => RepairInterrupted,
        KIND_REPAIR_ABORT => RepairAbort { patch, cookie_invalidations },
        KIND_GC => Gc { before_time },
        KIND_CREATE_TABLE => CreateTable { sql, annotation },
    }
}

/// The encoded [`LogEvent::Action`] record of `action`, which the serving path
/// builds straight from the action it just put in the history graph.
pub(crate) fn encode_action_event(
    gen: i64,
    clock_after: i64,
    rng_after: u64,
    session_after: u64,
    watermark_after: i64,
    action: &ActionRecord,
) -> (u8, Vec<u8>) {
    let event = ActionEvent {
        gen,
        clock_after,
        rng_after,
        session_after,
        watermark_after,
        action: Cow::Borrowed(action),
    };
    let mut e = Encoder::new();
    event.put(&mut e);
    (KIND_ACTION, e.into_bytes())
}

impl LogEvent {
    /// `(record kind, encoded payload)` for the durable log.
    pub(crate) fn encode(&self) -> (u8, Vec<u8>) {
        let mut e = Encoder::new();
        let kind = self.put_variant(&mut e, false);
        (kind, e.into_bytes())
    }

    /// Decodes one log record.
    pub(crate) fn decode(kind: u8, payload: &[u8]) -> DecResult<LogEvent> {
        let mut d = Decoder::new(payload);
        let event = LogEvent::get_variant(kind, &mut d)?;
        d.finish()?;
        Ok(event)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payloads (the module documentation tabulates the two layouts)
// ---------------------------------------------------------------------------

/// A checkpoint layout: its payload is `FORMAT_VERSION`, then the layout.
trait Payload: Wire {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        FORMAT_VERSION.put(&mut e);
        self.put(&mut e);
        e.into_bytes()
    }

    /// Reads a payload `encode` wrote, refusing other format versions.
    fn decode(payload: &[u8]) -> DecResult<Self> {
        let mut d = Decoder::new(payload);
        let version = u32::get(&mut d)?;
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "checkpoint format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let layout = Self::get(&mut d)?;
        d.finish()?;
        Ok(layout)
    }
}

impl Payload for BaseCheckpoint<'_> {}
impl Payload for DeltaCheckpoint<'_> {}

/// The table an application's `CREATE TABLE` statement names.
fn created_table_name(create_sql: &str) -> Option<String> {
    let stmt = warp_sql::parse(create_sql).ok()?;
    stmt.table_name().map(|n| n.to_string())
}

/// The small server state both layouts carry wholesale: counters, pending
/// repair, cookie invalidations, conflicts, source versions and the client-log
/// quota — O(1) or bounded by active repairs, never by database size.
struct SmallState<'a> {
    clock: i64,
    rng: u64,
    session: u64,
    current_gen: i64,
    watermark: i64,
    /// An unresumed interrupted repair must survive a checkpoint: writing a
    /// base compacts away the `RepairBegin` record that marks it.
    pending_repair: Option<Cow<'a, RepairRequest>>,
    invalidations: Cow<'a, BTreeSet<String>>,
    conflicts: Cow<'a, [Conflict]>,
    /// `(file, time, content, retroactive)` per source version.
    sources: Vec<(String, i64, String, bool)>,
    quota: u64,
}

impl<'a> SmallState<'a> {
    fn capture(server: &'a WarpServer) -> Self {
        SmallState {
            clock: server.clock.now(),
            rng: server.rng_counter,
            session: server.session_counter,
            current_gen: server.db.current_generation(),
            watermark: server.db.synthetic_id_watermark(),
            pending_repair: server.pending_repair.as_ref().map(Cow::Borrowed),
            invalidations: Cow::Borrowed(&server.pending_cookie_invalidations),
            conflicts: Cow::Borrowed(server.conflicts.all()),
            sources: server.sources.export_versions(),
            quota: server.history.client_log_quota_bytes as u64,
        }
    }

    /// Overwrites the server's small state. The quota lands on the current
    /// history graph, so install before uploading the payload's client logs.
    fn install(self, server: &mut WarpServer) {
        server.clock.fast_forward(self.clock);
        server.rng_counter = self.rng;
        server.session_counter = self.session;
        server.db.force_current_generation(self.current_gen);
        server.db.raise_synthetic_id_watermark(self.watermark);
        server.pending_repair = self.pending_repair.map(Cow::into_owned);
        server.pending_cookie_invalidations = self.invalidations.into_owned();
        server.conflicts = crate::conflict::ConflictQueue::new();
        for c in self.conflicts.into_owned() {
            server.conflicts.push(c);
        }
        server.sources = crate::sourcefs::SourceStore::import_versions(self.sources);
        server.history.client_log_quota_bytes = self.quota as usize;
    }
}

/// What a checkpoint says about a table besides its rows.
struct TableHead {
    name: String,
    create_sql: String,
    annotation: TableAnnotation,
    /// Schema column names, checked against the installed schema on restore.
    columns: Vec<String>,
}

fn schema_columns(server: &WarpServer, table: &str) -> Vec<String> {
    server
        .db
        .raw()
        .schema(table)
        .map(|s| s.columns.iter().map(|c| c.name.clone()).collect())
        .unwrap_or_default()
}

impl TableHead {
    /// The head of every installed table, in table-name order.
    fn capture(server: &WarpServer) -> Vec<TableHead> {
        let tables = server.db.table_create_statements();
        tables
            .into_iter()
            .map(|(name, create_sql, annotation)| TableHead {
                columns: schema_columns(server, &name),
                name,
                create_sql,
                annotation,
            })
            .collect()
    }

    /// Creates the table if the installed application lacks it, then checks
    /// that the schema the rows were written under is the installed one.
    fn install(&self, server: &mut WarpServer) -> StoreResult<()> {
        let name = &self.name;
        if server.db.row_id_column(name).is_none() {
            server
                .db
                .create_table(&self.create_sql, self.annotation.clone())
                .map_err(|e| corrupt(format!("re-creating table {name}: {e}")))?;
        }
        let actual = schema_columns(server, name);
        if actual != self.columns {
            return Err(corrupt(format!(
                "table {name}: checkpoint columns {:?} do not match the installed schema \
                 {actual:?} (recovery requires the AppConfig the data was written with)",
                self.columns
            )));
        }
        Ok(())
    }
}

/// Appends recovered actions to the history graph, which must assign each the
/// ID it was recorded under — or the payload does not continue this history.
fn restore_actions(
    history: &mut HistoryGraph,
    actions: impl IntoIterator<Item = ActionRecord>,
) -> StoreResult<()> {
    for action in actions {
        let expected = action.id;
        let assigned = history.record_action(action);
        if assigned != expected {
            return Err(corrupt(format!(
                "action {expected} recovered as action {assigned}"
            )));
        }
    }
    Ok(())
}

/// The base layout: the complete server state.
struct BaseCheckpoint<'a> {
    small: SmallState<'a>,
    actions: Cow<'a, [ActionRecord]>,
    logs: Vec<Cow<'a, PageVisitRecord>>,
    /// Per table, every stored version row in storage order.
    tables: Vec<(TableHead, Cow<'a, [Vec<SqlValue>]>)>,
}

impl<'a> BaseCheckpoint<'a> {
    fn capture(server: &'a WarpServer) -> Self {
        let history = &server.history;
        let logs = history
            .client_ids()
            .iter()
            .flat_map(|client| history.client_visits(client))
            .map(Cow::Borrowed)
            .collect();
        let tables = TableHead::capture(server)
            .into_iter()
            .map(|head| {
                let rows = server.db.raw().table(&head.name).map(|t| t.rows());
                (head, Cow::Borrowed(rows.unwrap_or_default()))
            })
            .collect();
        BaseCheckpoint {
            small: SmallState::capture(server),
            actions: Cow::Borrowed(history.actions()),
            logs,
            tables,
        }
    }

    /// Replaces the state of a freshly installed server with this one.
    fn install(self, server: &mut WarpServer) -> StoreResult<()> {
        server.history = HistoryGraph::new();
        self.small.install(server);
        restore_actions(&mut server.history, self.actions.into_owned())?;
        for log in self.logs {
            server.history.upload_client_log(log.into_owned());
        }
        for (head, rows) in self.tables {
            head.install(server)?;
            server
                .db
                .replace_table_rows(&head.name, rows.into_owned())
                .map_err(|e| corrupt(format!("restoring rows of {}: {e}", head.name)))?;
        }
        Ok(())
    }

    /// Applies a delta to this image, as [`DeltaCheckpoint::apply`] applies it
    /// to a server: a client log replaces the one of the same visit, a removed
    /// row takes out its first match and leaves the other rows in place.
    fn absorb(&mut self, delta: DeltaCheckpoint<'a>) -> DecResult<()> {
        if self.actions.len() as u64 != delta.floor {
            return Err(bad(format!(
                "delta continues {} actions, image has {}",
                delta.floor,
                self.actions.len()
            )));
        }
        self.small = delta.small;
        let actions = self.actions.to_mut();
        actions.extend(delta.new_actions.into_owned());
        for id in delta.cancelled {
            actions
                .get_mut(id as usize)
                .ok_or_else(|| bad(format!("delta cancels unknown action {id}")))?
                .cancelled = true;
        }
        for log in delta.logs {
            let same_visit = self
                .logs
                .iter_mut()
                .find(|l| l.client_id == log.client_id && l.visit_id == log.visit_id);
            match same_visit {
                Some(existing) => *existing = log,
                None => self.logs.push(log),
            }
        }
        for (head, diff) in delta.tables {
            match self.tables.iter_mut().find(|(h, _)| h.name == head.name) {
                Some((_, rows)) => {
                    let rows = rows.to_mut();
                    for gone in &diff.remove {
                        if let Some(pos) = rows.iter().position(|r| r == gone) {
                            rows.remove(pos);
                        }
                    }
                    rows.extend(diff.add);
                }
                None => self.tables.push((head, Cow::Owned(diff.add))),
            }
        }
        Ok(())
    }
}

/// The delta layout: the small state wholesale, the large state as what
/// changed since the previous chain link. Encoding cost is O(rows and actions
/// changed), which keeps checkpoint latency flat as the database grows.
struct DeltaCheckpoint<'a> {
    small: SmallState<'a>,
    /// History length at the previous link. It anchors ID continuity (checked
    /// on apply, like per-record action IDs): new actions sit above it,
    /// cancellations reference below it.
    floor: u64,
    new_actions: Cow<'a, [ActionRecord]>,
    cancelled: Vec<ActionId>,
    logs: Vec<Cow<'a, PageVisitRecord>>,
    tables: Vec<(TableHead, warp_ttdb::TableDelta)>,
}

wire_struct! {
    SmallState<'_> {
        clock, rng, session, current_gen, watermark, pending_repair, invalidations, conflicts,
        sources, quota,
    }
    TableHead { name, create_sql, annotation, columns }
    BaseCheckpoint<'_> { small, actions, logs, tables }
    DeltaCheckpoint<'_> { small, floor, new_actions, cancelled, logs, tables }
}

impl<'a> DeltaCheckpoint<'a> {
    /// `rows` is the database's drained checkpoint tracker; the caller resets
    /// [`CheckpointMarks`] only once the store accepts the write (a declined
    /// write means nothing changed — the tracker and the marks were empty).
    fn capture(server: &'a WarpServer, mut rows: warp_ttdb::RepairDelta) -> Self {
        let marks = &server.ckpt_marks;
        let floor = marks.actions_floor.min(server.history.len());
        // The current record per uploaded (client, visit): a later upload for
        // the same visit replaced the earlier one, and the quota may have
        // evicted some entirely.
        let log_keys: BTreeSet<&(String, u64)> = marks.new_logs.iter().collect();
        let logs = log_keys
            .into_iter()
            .filter_map(|(client, visit)| server.history.client_log(client, *visit))
            .map(Cow::Borrowed)
            .collect();
        // Every table with row changes, plus tables installed since the last
        // checkpoint even when untouched — a fold must not lose their schema
        // once the CreateTable log record is compacted away.
        let tables = TableHead::capture(server)
            .into_iter()
            .filter_map(|head| {
                let diff = rows.remove(&head.name);
                (diff.is_some() || marks.new_tables.contains(&head.name))
                    .then(|| (head, diff.unwrap_or_default()))
            })
            .collect();
        DeltaCheckpoint {
            small: SmallState::capture(server),
            floor: floor as u64,
            new_actions: Cow::Borrowed(&server.history.actions()[floor..]),
            cancelled: marks
                .cancelled
                .range(..floor as ActionId)
                .copied()
                .collect(),
            logs,
            tables,
        }
    }

    /// Applies the delta to a server that already holds the base (and any
    /// earlier deltas) of the same chain.
    fn apply(self, server: &mut WarpServer) -> StoreResult<()> {
        if server.history.len() as u64 != self.floor {
            return Err(corrupt(format!(
                "delta checkpoint continues a history of {} actions, found {}; the chain links \
                 do not fit together",
                self.floor,
                server.history.len()
            )));
        }
        self.small.install(server);
        restore_actions(&mut server.history, self.new_actions.into_owned())?;
        for id in self.cancelled {
            server
                .history
                .action_mut(id)
                .ok_or_else(|| corrupt(format!("delta checkpoint cancels unknown action {id}")))?
                .cancelled = true;
        }
        for log in self.logs {
            server.history.upload_client_log(log.into_owned());
        }
        for (head, diff) in self.tables {
            head.install(server)?;
            server
                .db
                .apply_row_diff(&head.name, &diff.remove, &diff.add)
                .map_err(|e| corrupt(format!("applying delta checkpoint to {}: {e}", head.name)))?;
        }
        Ok(())
    }
}

/// Folds a base checkpoint payload and its delta payloads (oldest first)
/// into a single equivalent base payload, without a server: the maintenance
/// worker needs no `AppConfig`, and the fold is a pure function of the blobs.
/// `None` when any payload fails to decode — the worker then leaves the chain
/// alone rather than writing a wrong base over a recoverable one.
pub(crate) fn fold_checkpoint_chain(base: &[u8], deltas: &[Vec<u8>]) -> Option<Vec<u8>> {
    let mut image = BaseCheckpoint::decode(base).ok()?;
    for delta in deltas {
        image.absorb(DeltaCheckpoint::decode(delta).ok()?).ok()?;
    }
    Some(image.encode())
}

// ---------------------------------------------------------------------------
// The persistent server: open / replay / write path
// ---------------------------------------------------------------------------

/// Applies one log record to a recovering (or standby) server.
///
/// The writes of the actions logged between a `RepairBegin` and its outcome
/// are held back: the live server executed them in the current generation
/// while the repair generation was open, which replay cannot reproduce
/// before it knows the outcome. A `RepairCommitSinceBegin` drops them (its
/// diff covers them); a legacy `RepairCommit`, a `RepairAbort`, a
/// `RepairInterrupted`, the next `RepairBegin` or `Gc`, and the end of the
/// log ([`WarpServer::end_of_log`]) replay them in order.
fn apply_event(server: &mut WarpServer, event: LogEvent) -> StoreResult<()> {
    match event {
        LogEvent::Action(event) => {
            let ActionEvent {
                gen,
                clock_after,
                rng_after,
                session_after,
                watermark_after,
                action,
            } = *event;
            // Mirror the cookie-invalidation consumption `handle` performed.
            if let Some(client) = &action.client {
                server
                    .pending_cookie_invalidations
                    .remove(&client.client_id);
            }
            match server.replay_held.as_mut() {
                Some(held) => held.push((action.id, gen)),
                None => replay_writes(&mut server.db, &action, gen)?,
            }
            server.clock.fast_forward(clock_after);
            server.rng_counter = rng_after;
            server.session_counter = session_after;
            server.db.raise_synthetic_id_watermark(watermark_after);
            restore_actions(&mut server.history, [action.into_owned()])?;
        }
        LogEvent::ClientLog(record) => server.history.upload_client_log(record),
        LogEvent::RepairBegin(request) => {
            settle_held(server)?;
            server.replay_held = Some(Vec::new());
            server.pending_repair = Some(request);
        }
        LogEvent::RepairCommit(commit) => {
            settle_held(server)?;
            apply_commit(server, commit)?;
        }
        LogEvent::RepairCommitSinceBegin(commit) => {
            server.replay_held = None;
            apply_commit(server, commit)?;
        }
        LogEvent::RepairInterrupted => settle_held(server)?,
        LogEvent::RepairAbort {
            patch,
            cookie_invalidations,
        } => {
            settle_held(server)?;
            server.pending_repair = None;
            if let Some((patch, from_time)) = &patch {
                server.sources.apply_retroactive_patch(patch, *from_time);
            }
            server
                .pending_cookie_invalidations
                .extend(cookie_invalidations);
        }
        LogEvent::Gc { before_time } => {
            settle_held(server)?;
            server.garbage_collect_unlogged(before_time);
        }
        LogEvent::CreateTable { sql, annotation } => {
            let name = created_table_name(&sql)
                .ok_or_else(|| corrupt(format!("replaying DDL: `{sql}` names no table")))?;
            if server.db.row_id_column(&name).is_none() {
                server
                    .db
                    .create_table(&sql, annotation)
                    .map_err(|e| corrupt(format!("replaying CREATE TABLE {name}: {e}")))?;
            }
        }
    }
    Ok(())
}

/// Re-executes an action's writes at their original times in the recorded
/// generation; this reproduces the row versions the original execution
/// created. Reads need no replay.
fn replay_writes(db: &mut TimeTravelDb, action: &ActionRecord, gen: i64) -> StoreResult<()> {
    for q in action.queries.iter().filter(|q| q.is_write) {
        // Planned per shape, like the execution being replayed: a tail of
        // one statement with many literals is parsed once.
        db.replay_write(&q.sql, q.time, gen, q.written_row_ids())
            .map_err(|e| corrupt(format!("replaying `{}`: {e}", q.sql)))?;
    }
    Ok(())
}

/// Replays, in log order, the writes held back since a replayed
/// `RepairBegin` (see [`apply_event`]).
fn settle_held(server: &mut WarpServer) -> StoreResult<()> {
    for (id, gen) in server.replay_held.take().unwrap_or_default() {
        let action = server
            .history
            .action(id)
            .ok_or_else(|| corrupt(format!("held-back action {id} is not in the history")))?;
        replay_writes(&mut server.db, action, gen)?;
    }
    Ok(())
}

/// Applies a committed repair's physical effect.
fn apply_commit(server: &mut WarpServer, commit: RepairCommitRecord) -> StoreResult<()> {
    server.pending_repair = None;
    if let Some((patch, from_time)) = &commit.patch {
        server.sources.apply_retroactive_patch(patch, *from_time);
    }
    for (table, remove, add) in &commit.table_diffs {
        server
            .db
            .apply_row_diff(table, remove, add)
            .map_err(|e| corrupt(format!("applying repair diff to {table}: {e}")))?;
    }
    server.db.force_current_generation(commit.current_gen);
    server.db.raise_synthetic_id_watermark(commit.watermark);
    for id in commit.cancelled {
        if let Some(a) = server.history.action_mut(id) {
            a.cancelled = true;
        }
    }
    for c in commit.conflicts {
        server.conflicts.push(c);
    }
    server
        .pending_cookie_invalidations
        .extend(commit.cookie_invalidations);
    Ok(())
}

impl WarpServer {
    /// Installs the application and opens its durable store, recovering any
    /// persisted state: the newest checkpoint is restored and the log tail
    /// replayed, rebuilding the history graph, partition index, time-travel
    /// database, counters and queued conflicts exactly as they were. Without
    /// a storage backend in `config` this is [`WarpServer::new`].
    ///
    /// Recovery requires the same [`AppConfig`] the data was written with
    /// (the schema/seed/install step is replayed from it, not persisted).
    pub fn open(config: ServerConfig) -> StoreResult<(WarpServer, RecoveryReport)> {
        let (mut server, report) = Self::open_standby(config)?;
        server.end_of_log()?;
        Ok((server, report))
    }

    /// [`WarpServer::open`] for a standby, which goes on applying the
    /// primary's log ([`WarpServer::apply_replicated`]): the writes of the
    /// actions served while a logged repair is still pending stay held
    /// back, since the outcome record that decides them may yet arrive.
    /// They are not in the database until then, nor in a checkpoint (none
    /// is cut meanwhile); [`WarpServer::end_of_log`] replays them when the
    /// standby is promoted.
    pub fn open_standby(config: ServerConfig) -> StoreResult<(WarpServer, RecoveryReport)> {
        let ServerConfig {
            app,
            backend,
            store_options,
        } = config;
        let mut server = WarpServer::new(app);
        let Some(backend) = backend else {
            return Ok((server, RecoveryReport::default()));
        };
        let (store, recovered) = DurableStore::open(backend, store_options)?;
        let mut report = RecoveryReport {
            recovered: recovered.checkpoint.is_some() || !recovered.records.is_empty(),
            from_checkpoint: recovered.checkpoint.is_some(),
            records_replayed: recovered.records.len(),
            torn_tail: recovered.torn_tail,
            pending_repair: false,
        };
        if let Some(payload) = &recovered.checkpoint {
            BaseCheckpoint::decode(payload)?.install(&mut server)?;
        }
        // Fold the delta chain onto the base, oldest link first, then replay
        // the log tail at or after the chain tip.
        for payload in &recovered.deltas {
            DeltaCheckpoint::decode(payload)?.apply(&mut server)?;
        }
        // Arm the incremental-checkpoint tracker at the chain tip: from here
        // on the database records row changes so the next automatic
        // checkpoint can be a delta instead of a whole-state write. The tail
        // replays *after* the arming because no link of the chain covers it
        // yet — the next delta must carry its actions and rows, exactly as
        // it does on a standby that applied the same records live.
        server.db.enable_checkpoint_capture();
        server.reset_checkpoint_marks();
        for (lsn, kind, payload) in &recovered.records {
            let event = LogEvent::decode(*kind, payload)
                .map_err(|e| corrupt(format!("log record {lsn}: {e}")))?;
            server.ckpt_marks.note(&event);
            apply_event(&mut server, event)?;
        }
        report.pending_repair = server.pending_repair.is_some();
        server.store = Some(LogSink::Inline(store));
        Ok((server, report))
    }

    /// Ends a replayed log: the writes of the actions served while its last
    /// repair ran, held back awaiting an outcome record that never came (a
    /// crash or a promotion mid-run), are replayed in order. The repair
    /// stays pending ([`WarpServer::pending_repair`]). A
    /// `RepairInterrupted` record is logged, so that replay — a later
    /// recovery or a standby of this server — holds back nothing this
    /// server serves from here on.
    pub fn end_of_log(&mut self) -> StoreResult<()> {
        if self.replay_held.is_none() {
            return Ok(());
        }
        settle_held(self)?;
        self.log_event(&LogEvent::RepairInterrupted);
        Ok(())
    }

    /// Appends one event to the durable log (no-op for in-memory servers).
    ///
    /// # Panics
    ///
    /// Panics if the backend fails: a server that promised durability and
    /// can no longer write its log must not keep serving silently.
    pub(crate) fn log_event(&mut self, event: &LogEvent) {
        if let Some(sink) = &mut self.store {
            self.ckpt_marks.note(event);
            let (kind, payload) = event.encode();
            sink.append(kind, payload);
        }
    }

    /// Moves the durable store onto a background group-commit writer thread
    /// governed by `policy`. With a `shipper`, every durable batch is handed
    /// to it before the batch's durability callbacks run (the log-shipping
    /// entry point; see [`crate::WarpBuilder::ship_log_to`]). No-op for
    /// in-memory servers or when the writer is already active. Used by the
    /// [`crate::Warp`] engine; the classic synchronous [`WarpServer`] keeps
    /// the inline sink.
    pub(crate) fn enable_group_commit(
        &mut self,
        policy: warp_store::BatchPolicy,
        shipper: Option<Box<dyn warp_store::ShipperHook>>,
    ) {
        if matches!(self.store, Some(LogSink::Inline(_))) {
            let Some(LogSink::Inline(store)) = self.store.take() else {
                unreachable!("matched above");
            };
            let checkpoint_interval = store.options().checkpoint_interval;
            let fold_after_deltas = store.options().fold_after_deltas;
            let since_checkpoint = store.tail_len();
            let deltas_since_base = store.deltas_since_base();
            let writer = match shipper {
                None => warp_store::GroupCommitWriter::spawn(store, policy),
                Some(hook) => {
                    warp_store::GroupCommitWriter::spawn_with_shipper(store, policy, hook)
                }
            };
            self.store = Some(LogSink::Writer {
                writer,
                since_checkpoint,
                checkpoint_interval,
                deltas_since_base,
                fold_after_deltas,
            });
        }
    }

    /// Stops the group-commit writer (flushing everything) and returns the
    /// store to the inline sink. No-op unless the writer is active.
    pub(crate) fn disable_group_commit(&mut self) {
        if matches!(self.store, Some(LogSink::Writer { .. })) {
            let Some(LogSink::Writer { writer, .. }) = self.store.take() else {
                unreachable!("matched above");
            };
            let (store, _) = writer.close();
            self.store = Some(LogSink::Inline(store));
        }
    }

    /// True if this server persists its state.
    pub fn is_persistent(&self) -> bool {
        self.store.is_some()
    }

    /// Takes a checkpoint now: the complete server state is written to the
    /// store and the log is compacted (all segments deleted). On the
    /// group-commit path, pending records are flushed first — the
    /// checkpoint payload reflects their effects, and the writer appends
    /// them before compacting. No-op for in-memory servers, and on a
    /// standby while it holds back writes for a pending repair
    /// ([`WarpServer::open_standby`]): the checkpoint would cover their log
    /// records without their rows.
    pub fn checkpoint(&mut self) {
        if self.store.is_none() || self.replay_held.is_some() {
            return;
        }
        let payload = BaseCheckpoint::capture(self).encode();
        let sink = self.store.as_mut().expect("checked above");
        sink.write_checkpoint(payload);
        self.reset_checkpoint_marks();
    }

    /// Takes an *incremental* checkpoint: a delta link chained onto the
    /// newest checkpoint, carrying only what changed since — O(rows and
    /// actions changed), independent of database size. Falls back to a full
    /// base checkpoint when the chain has no base yet, when GC renumbered
    /// action IDs, or when the chain grew past
    /// [`warp_store::StoreOptions::fold_after_deltas`] links on a server
    /// with no background maintenance worker to fold it. No-op where
    /// [`WarpServer::checkpoint`] is.
    pub fn checkpoint_incremental(&mut self) {
        let Some(sink) = self.store.as_ref().filter(|_| self.replay_held.is_none()) else {
            return;
        };
        let fold_inline = self.maintenance.is_none() && sink.should_fold();
        if self.ckpt_marks.needs_base || !sink.has_checkpoint() || fold_inline {
            self.checkpoint();
            return;
        }
        let rows = self.db.drain_checkpoint_delta();
        let payload = DeltaCheckpoint::capture(self, rows).encode();
        let sink = self.store.as_mut().expect("checked above");
        if sink.write_delta_checkpoint(payload) {
            self.reset_checkpoint_marks();
            if let Some(worker) = &self.maintenance {
                worker.nudge();
            }
        }
    }

    /// Resets the incremental-checkpoint bookkeeping after any checkpoint
    /// write: the marks restart from the current history length and the
    /// database's tracker restarts empty.
    fn reset_checkpoint_marks(&mut self) {
        if self.db.checkpoint_capture_enabled() {
            let _ = self.db.drain_checkpoint_delta();
        }
        self.ckpt_marks = CheckpointMarks {
            actions_floor: self.history.len(),
            ..CheckpointMarks::default()
        };
    }

    /// Takes a checkpoint if the configured interval has elapsed — an
    /// incremental one on the automatic cadence; see
    /// [`WarpServer::checkpoint_incremental`].
    pub(crate) fn maybe_checkpoint(&mut self) {
        if !self.repair_in_flight
            && self
                .store
                .as_ref()
                .map(|s| s.checkpoint_due())
                .unwrap_or(false)
        {
            self.checkpoint_incremental();
        }
    }

    /// Starts the background maintenance worker: over its own handle onto
    /// the same backend, it folds delta-checkpoint chains into fresh bases
    /// and retires (or cold-stores, with
    /// [`warp_store::StoreOptions::cold_retention`]) the log segments a
    /// base subsumes — so compaction never runs on the serve path. Returns
    /// `false` for in-memory servers, for backends that cannot hand out a
    /// second handle, or once the store has moved onto the group-commit
    /// writer (start maintenance before enabling group commit, as
    /// [`crate::WarpBuilder`] does). Idempotent once running.
    pub fn start_maintenance(&mut self) -> bool {
        if self.maintenance.is_some() {
            return true;
        }
        let Some(LogSink::Inline(store)) = &self.store else {
            return false;
        };
        let Some(backend) = store.clone_backend() else {
            return false;
        };
        let config = warp_store::MaintenanceConfig::from_options(&store.options());
        let folder: warp_store::ChainFolder = Box::new(fold_checkpoint_chain);
        self.maintenance = Some(warp_store::MaintenanceWorker::spawn(
            backend, folder, config,
        ));
        true
    }

    /// Stops the background maintenance worker after one final pass,
    /// returning its lifetime counters. `None` when it was not running.
    pub fn stop_maintenance(&mut self) -> Option<warp_store::MaintenanceStats> {
        self.maintenance.take().map(|w| w.close())
    }

    /// The maintenance worker's lifetime counters so far (`None` when it is
    /// not running).
    pub fn maintenance_stats(&self) -> Option<warp_store::MaintenanceStats> {
        self.maintenance.as_ref().map(|w| w.stats())
    }

    /// Runs one maintenance pass synchronously — fold the chain if it is
    /// long enough, then retire covered segments — and returns the worker's
    /// counters afterwards. `None` when the worker is not running. Mostly
    /// for tests and administrative tooling; production deployments let the
    /// worker pace itself.
    pub fn run_maintenance_pass(&self) -> Option<warp_store::MaintenanceStats> {
        self.maintenance.as_ref().map(|w| w.run_once())
    }

    /// Blocks until every log record appended so far is durable. Immediate
    /// on the synchronous path; on the group-commit path this is the
    /// barrier the façade uses before reporting repair outcomes (and that
    /// `Relaxed`-tier callers can use to upgrade to durability on demand).
    pub fn flush_durable(&mut self) {
        if let Some(sink) = &self.store {
            sink.flush();
        }
    }

    /// The interrupted repair recovery found (a `RepairBegin` record with no
    /// matching commit or abort), if any. The crash discarded all of the
    /// repair's effects, so re-running it via
    /// [`WarpServer::resume_pending_repair`] redoes it from scratch.
    pub fn pending_repair(&self) -> Option<&RepairRequest> {
        self.pending_repair.as_ref()
    }

    /// Re-runs the interrupted repair recovery detected, if any.
    pub fn resume_pending_repair(
        &mut self,
        strategy: crate::scheduler::RepairStrategy,
    ) -> Option<crate::repair::RepairOutcome> {
        crate::repair::RepairRun::resume(self, strategy).map(|run| run.commit(self))
    }

    /// The durable LSN watermark: the next LSN the log will assign, with
    /// every record below it on disk. On the group-commit path this
    /// flushes first, so the watermark covers everything appended before
    /// the call — the ack metadata a log shipper keys on. Always 0 for
    /// in-memory servers.
    pub fn durable_lsn(&self) -> u64 {
        self.store.as_ref().map(|s| s.durable_lsn()).unwrap_or(0)
    }

    /// Applies a batch of replicated log records — one shipped frame — on
    /// the standby apply path used by `warp-replica`. The whole batch is
    /// appended to this server's own durable log in one write (keeping its
    /// LSNs aligned with the primary's), then each record's effects are
    /// applied exactly as crash recovery would apply them, with the
    /// incremental-checkpoint bookkeeping the live path would have kept —
    /// so the standby builds its *own* checkpoint chain, and the server is
    /// at every batch boundary the one [`WarpServer::open`] would rebuild
    /// from its store. Takes a checkpoint when the configured interval has
    /// elapsed by the end of the batch.
    ///
    /// # Errors
    ///
    /// Fails when a record does not decode (nothing of the batch is logged
    /// or applied) or does not continue this server's history — the
    /// replication stream and the local state have diverged, which is a
    /// bug, not a recoverable condition.
    pub fn apply_replicated(&mut self, records: &[(u8, &[u8])]) -> StoreResult<()> {
        let events = records
            .iter()
            .map(|(kind, payload)| LogEvent::decode(*kind, payload))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| corrupt(format!("replicated record: {e}")))?;
        if let Some(sink) = &mut self.store {
            sink.append_batch(records);
        }
        for event in events {
            self.ckpt_marks.note(&event);
            apply_event(self, event)?;
        }
        self.maybe_checkpoint();
        Ok(())
    }

    /// Bytes currently held by the durable store (segments + checkpoints);
    /// 0 for in-memory servers.
    pub fn store_bytes(&self) -> u64 {
        self.store.as_ref().map(|s| s.total_bytes()).unwrap_or(0)
    }

    /// The group-commit writer's batching counters (all zero on the
    /// synchronous path and for in-memory servers).
    pub fn writer_stats(&self) -> warp_store::WriterStats {
        self.store
            .as_ref()
            .map(|s| s.writer_stats())
            .unwrap_or_default()
    }
}

/// Builds a `ServerConfig` whose app is installed fresh — used by tests and
/// callers that want an in-memory server through the same entry point.
impl From<AppConfig> for ServerConfig {
    fn from(app: AppConfig) -> Self {
        ServerConfig::new(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{ClientRef, NondetRecord, QueryRecord};
    use std::collections::BTreeMap;
    use warp_browser::{ConflictReason, EventKind, RecordedRequest};
    use warp_http::Transport;
    use warp_script::Value as ScriptValue;
    use warp_sql::ColumnSet;
    use warp_store::MemoryBackend;
    use warp_ttdb::TableAnnotation;
    use warp_ttdb::{PartitionKey, PartitionSet, QueryDependency};

    fn tiny_app() -> AppConfig {
        let mut config = AppConfig::new("tiny");
        config.add_table(
            "CREATE TABLE page (page_id INTEGER PRIMARY KEY, title TEXT UNIQUE, body TEXT)",
            TableAnnotation::new()
                .row_id("page_id")
                .partitions(["title"]),
        );
        config.seed("INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'welcome')");
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

    fn persistent(backend: &MemoryBackend) -> WarpServer {
        let (server, _) =
            WarpServer::open(ServerConfig::new(tiny_app()).with_backend(Box::new(backend.clone())))
                .expect("open persistent server");
        server
    }

    #[test]
    fn log_events_round_trip_through_the_codec() {
        let mut server = WarpServer::new(tiny_app());
        let mut req =
            warp_http::HttpRequest::post("/edit.wasl", [("title", "Main"), ("body", "x")]);
        req.warp.client_id = Some("c1".into());
        req.warp.visit_id = Some(3);
        req.warp.request_id = Some(0);
        req.cookies.set("sid", "abc");
        server.handle(req);
        let action = server.history.actions()[0].clone();
        let event = LogEvent::Action(Box::new(ActionEvent {
            gen: 0,
            clock_after: server.clock.now(),
            rng_after: 7,
            session_after: 8,
            watermark_after: server.db.synthetic_id_watermark(),
            action: Cow::Owned(action.clone()),
        }));
        let (kind, payload) = event.encode();
        match LogEvent::decode(kind, &payload).unwrap() {
            LogEvent::Action(decoded) => assert_eq!(*decoded.action, action),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn actions_survive_a_crash_and_reopen() {
        let mem = MemoryBackend::new();
        let mut server = persistent(&mem);
        let r = server.send(warp_http::HttpRequest::get("/view.wasl?title=Main"));
        assert!(r.body.contains("welcome"));
        server.send(warp_http::HttpRequest::post(
            "/edit.wasl",
            [("title", "Main"), ("body", "edited")],
        ));
        let mut expected_db = server.db.clone();
        let expected_dump = expected_db.canonical_dump();
        let expected_clock = server.clock.now();
        drop(server); // crash

        let (mut recovered, report) =
            WarpServer::open(ServerConfig::new(tiny_app()).with_backend(Box::new(mem.clone())))
                .unwrap();
        assert!(report.recovered);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(recovered.history.len(), 2);
        assert_eq!(recovered.clock.now(), expected_clock);
        assert_eq!(recovered.db.canonical_dump(), expected_dump);
        // The recovered server keeps serving — and the edit is visible.
        let r = recovered.send(warp_http::HttpRequest::get("/view.wasl?title=Main"));
        assert!(r.body.contains("edited"));
    }

    #[test]
    fn checkpoint_compacts_and_restores_identically() {
        let mem = MemoryBackend::new();
        let mut server = persistent(&mem);
        for i in 0..6 {
            server.send(warp_http::HttpRequest::post(
                "/edit.wasl",
                [("title", "Main"), ("body", format!("rev {i}").as_str())],
            ));
        }
        server.checkpoint();
        // More traffic after the checkpoint → replayed from the log tail.
        server.send(warp_http::HttpRequest::post(
            "/edit.wasl",
            [("title", "Main"), ("body", "post-ckpt")],
        ));
        let mut expected_db = server.db.clone();
        let expected_dump = expected_db.canonical_dump();
        let expected_len = server.history.len();
        drop(server);

        let (mut recovered, report) =
            WarpServer::open(ServerConfig::new(tiny_app()).with_backend(Box::new(mem.clone())))
                .unwrap();
        assert!(report.from_checkpoint);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered.history.len(), expected_len);
        assert_eq!(recovered.db.canonical_dump(), expected_dump);
        // The recovered partition index matches a fresh rebuild.
        assert!(!recovered.history.partition_index().is_empty());
    }

    #[test]
    fn interrupted_repair_is_detected_and_resumable() {
        let mem = MemoryBackend::new();
        let mut server = persistent(&mem);
        server.send(warp_http::HttpRequest::post(
            "/edit.wasl",
            [("title", "Main"), ("body", "<script>evil</script>")],
        ));
        // Forge the crash window: a RepairBegin hits the log, then the
        // process dies before the commit record is written.
        let patch = crate::sourcefs::Patch::new(
            "view.wasl",
            "let rows = db_query(\"SELECT body FROM page WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); \
             if (len(rows) == 0) { echo(\"missing\"); } else { echo(htmlspecialchars(rows[0][\"body\"])); }",
            "sanitise output",
        );
        let request = RepairRequest::RetroactivePatch {
            patch,
            from_time: 0,
        };
        server.log_event(&LogEvent::RepairBegin(request.clone()));
        drop(server);

        let (recovered, report) =
            WarpServer::open(ServerConfig::new(tiny_app()).with_backend(Box::new(mem.clone())))
                .unwrap();
        assert!(report.pending_repair);
        assert!(matches!(
            recovered.pending_repair(),
            Some(RepairRequest::RetroactivePatch { .. })
        ));

        // A checkpoint compacts away the RepairBegin record; the pending
        // repair must survive inside the checkpoint payload (plus a second
        // crash before anyone resumes it).
        let mut recovered = recovered;
        recovered.checkpoint();
        drop(recovered);
        let (mut recovered, report) =
            WarpServer::open(ServerConfig::new(tiny_app()).with_backend(Box::new(mem.clone())))
                .unwrap();
        assert!(
            report.pending_repair,
            "pending repair must survive checkpoint compaction"
        );
        // Redoing the interrupted repair works and commits durably.
        let outcome = recovered
            .resume_pending_repair(crate::scheduler::RepairStrategy::Sequential)
            .expect("a pending repair to resume");
        assert!(!outcome.aborted);
        assert!(recovered.pending_repair().is_none());
        drop(recovered);
        let (after, report) =
            WarpServer::open(ServerConfig::new(tiny_app()).with_backend(Box::new(mem.clone())))
                .unwrap();
        assert!(
            !report.pending_repair,
            "commit record must clear the marker"
        );
        let _ = after;
    }

    fn count_blobs(mem: &MemoryBackend) -> (usize, usize, usize) {
        use warp_store::StorageBackend;
        let names = mem.list().expect("list blobs");
        (
            names.iter().filter(|n| n.starts_with("ckpt-base-")).count(),
            names
                .iter()
                .filter(|n| n.starts_with("ckpt-delta-"))
                .count(),
            names.iter().filter(|n| n.starts_with("seg-")).count(),
        )
    }

    fn open_with(
        mem: &MemoryBackend,
        options: warp_store::StoreOptions,
    ) -> (WarpServer, RecoveryReport) {
        WarpServer::open(
            ServerConfig::new(tiny_app())
                .with_backend(Box::new(mem.clone()))
                .with_store_options(options),
        )
        .expect("open persistent server")
    }

    fn edit(server: &mut WarpServer, body: &str) {
        server.send(warp_http::HttpRequest::post(
            "/edit.wasl",
            [("title", "Main"), ("body", body)],
        ));
    }

    #[test]
    fn automatic_checkpoints_grow_a_delta_chain_and_recover() {
        let mem = MemoryBackend::new();
        let options = warp_store::StoreOptions {
            checkpoint_interval: 2,
            fold_after_deltas: 100,
            ..warp_store::StoreOptions::default()
        };
        let mut server = open_with(&mem, options).0;
        for i in 0..7 {
            edit(&mut server, &format!("rev {i}"));
        }
        // Interval 2: the first due checkpoint is a base (no chain yet),
        // the following ones are delta links; deltas delete nothing.
        let (bases, deltas, _) = count_blobs(&mem);
        assert_eq!(bases, 1);
        assert_eq!(deltas, 2);
        let mut expected_db = server.db.clone();
        let expected_dump = expected_db.canonical_dump();
        let expected_clock = server.clock.now();
        drop(server); // crash
        let (mut recovered, report) = open_with(&mem, options);
        assert!(report.from_checkpoint);
        assert_eq!(report.records_replayed, 1, "one action after the tip");
        assert_eq!(recovered.history.len(), 7);
        assert_eq!(recovered.clock.now(), expected_clock);
        assert_eq!(recovered.db.canonical_dump(), expected_dump);
        let r = recovered.send(warp_http::HttpRequest::get("/view.wasl?title=Main"));
        assert!(r.body.contains("rev 6"));
    }

    /// A log tail replayed by recovery is covered by no chain link yet, so
    /// the next delta checkpoint must carry it: a second crash after that
    /// delta recovers everything, tail included.
    #[test]
    fn a_delta_cut_after_recovery_carries_the_replayed_tail() {
        let mem = MemoryBackend::new();
        let options = warp_store::StoreOptions {
            checkpoint_interval: 2,
            fold_after_deltas: 100,
            ..warp_store::StoreOptions::default()
        };
        let mut server = open_with(&mem, options).0;
        for i in 0..7 {
            edit(&mut server, &format!("rev {i}"));
        }
        drop(server); // crash with one record past the chain tip
        let (mut recovered, report) = open_with(&mem, options);
        assert_eq!(report.records_replayed, 1);
        let (_, deltas_before, _) = count_blobs(&mem);
        for i in 7..10 {
            edit(&mut recovered, &format!("rev {i}"));
        }
        assert!(count_blobs(&mem).1 > deltas_before, "a delta was cut");
        let dump = recovered.db.canonical_dump();
        drop(recovered); // crash again
        let (mut again, _) = open_with(&mem, options);
        assert_eq!(again.history.len(), 10);
        assert_eq!(again.db.canonical_dump(), dump);
    }

    fn visit_request(client: &str, visit: u64, body: &str) -> warp_http::HttpRequest {
        let mut req =
            warp_http::HttpRequest::post("/edit.wasl", [("title", "Main"), ("body", body)]);
        req.warp.client_id = Some(client.into());
        req.warp.visit_id = Some(visit);
        req.warp.request_id = Some(0);
        req
    }

    fn undo_visit(server: &mut WarpServer, client: &str, visit: u64) {
        let outcome = server.repair_with(
            RepairRequest::UndoVisit {
                client_id: client.into(),
                visit_id: visit,
                initiated_by_admin: true,
            },
            crate::scheduler::RepairStrategy::Sequential,
        );
        assert!(!outcome.aborted);
    }

    /// A log of the visit with one input event, so that two uploads for the
    /// same visit differ.
    fn typed_log(client: &str, visit: u64) -> PageVisitRecord {
        let mut log = PageVisitRecord::new(client, visit, "/edit.wasl");
        log.push_event(
            EventKind::Input,
            "body",
            Some("x".into()),
            Some(String::new()),
        );
        log
    }

    /// Manual checkpoints only, so each test decides what a chain link holds.
    fn manual() -> warp_store::StoreOptions {
        warp_store::StoreOptions {
            checkpoint_interval: 0,
            ..warp_store::StoreOptions::default()
        }
    }

    #[test]
    fn folding_the_chain_in_payload_space_matches_applying_the_deltas() {
        // `tiny_app` plus scripts that delete and re-create the page.
        let app = || {
            let mut config = tiny_app();
            config.add_source(
                "delete.wasl",
                "db_query(\"DELETE FROM page WHERE title = 'Main'\"); echo(\"deleted\");",
            );
            config.add_source(
                "create.wasl",
                "db_query(\"INSERT INTO page (page_id, title, body) VALUES (1, 'Main', 'reborn')\"); \
                 echo(\"created\");",
            );
            config
        };
        let mem = MemoryBackend::new();
        let (mut server, _) = WarpServer::open(
            ServerConfig::new(app())
                .with_backend(Box::new(mem.clone()))
                .with_store_options(manual()),
        )
        .expect("open persistent server");
        server.handle(visit_request("mallory", 7, "undo me"));
        edit(&mut server, "rev 0");
        server.upload_client_logs(vec![PageVisitRecord::new("mallory", 7, "/edit.wasl")]);
        server.checkpoint();
        // Delta 1: new actions and a client log.
        edit(&mut server, "rev 1");
        server.upload_client_logs(vec![PageVisitRecord::new("c1", 1, "/view.wasl")]);
        server.checkpoint_incremental();
        // Delta 2: a table installed and no row changed.
        server.install_table(
            "CREATE TABLE note (note_id INTEGER PRIMARY KEY, text TEXT)",
            TableAnnotation::new().row_id("note_id"),
        );
        server.checkpoint_incremental();
        // Delta 3: a second upload for a visit the base already holds, a
        // repair whose cancellation lands below the floor, and a row removed
        // and added again.
        server.upload_client_logs(vec![typed_log("mallory", 7)]);
        undo_visit(&mut server, "mallory", 7);
        server.send(warp_http::HttpRequest::post("/delete.wasl", []));
        server.send(warp_http::HttpRequest::post("/create.wasl", []));
        server.checkpoint_incremental();
        drop(server);
        let (_, recovered) =
            DurableStore::open(Box::new(mem.clone()), manual()).expect("reopen raw store");
        let base = recovered.checkpoint.expect("a base on disk");
        let deltas: Vec<DeltaCheckpoint> = recovered
            .deltas
            .iter()
            .map(|d| DeltaCheckpoint::decode(d).expect("delta decodes"))
            .collect();
        // The chain holds the cases it is meant to.
        assert_eq!(deltas.len(), 3);
        assert!(
            matches!(&deltas[1].tables[..], [(head, diff)] if head.name == "note" && diff.is_empty())
        );
        assert_eq!(deltas[2].logs.len(), 1);
        assert_eq!(deltas[2].cancelled, vec![0]);
        assert!(matches!(&deltas[2].tables[..], [(head, diff)]
            if head.name == "page" && !diff.remove.is_empty() && !diff.add.is_empty()));

        let folded =
            fold_checkpoint_chain(&base, &recovered.deltas).expect("chain payloads decode");
        // Restoring the folded base must land exactly where restoring the
        // base and then applying each delta lands.
        let restore = |payload: &[u8]| {
            let mut server = WarpServer::new(app());
            let base = BaseCheckpoint::decode(payload).expect("base decodes");
            base.install(&mut server).expect("restore base");
            server
        };
        let via_fold = restore(&folded);
        let mut via_chain = restore(&base);
        for delta in deltas {
            delta.apply(&mut via_chain).expect("apply delta");
        }
        assert!(
            BaseCheckpoint::capture(&via_fold).encode()
                == BaseCheckpoint::capture(&via_chain).encode(),
            "the fold and the chain restore different servers"
        );
    }

    /// FNV-1a, 64 bit.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The base and delta payloads of a fixed history.
    fn pinned_chain() -> (Vec<u8>, Vec<u8>) {
        let mem = MemoryBackend::new();
        let mut server = open_with(&mem, manual()).0;
        server.handle(visit_request("mallory", 7, "by mallory"));
        edit(&mut server, "rev 0");
        server.upload_client_logs(vec![PageVisitRecord::new("mallory", 7, "/edit.wasl")]);
        server.checkpoint();
        edit(&mut server, "rev 1");
        server.install_table(
            "CREATE TABLE note (note_id INTEGER PRIMARY KEY, text TEXT)",
            TableAnnotation::new().row_id("note_id"),
        );
        server.upload_client_logs(vec![typed_log("mallory", 7)]);
        undo_visit(&mut server, "mallory", 7);
        server.checkpoint_incremental();
        drop(server);
        let (_, recovered) =
            DurableStore::open(Box::new(mem.clone()), manual()).expect("reopen raw store");
        let base = recovered.checkpoint.expect("a base on disk");
        let [delta] = &recovered.deltas[..] else {
            panic!("one delta on disk, found {}", recovered.deltas.len());
        };
        (base, delta.clone())
    }

    /// The payload bytes of [`pinned_chain`], pinned at the commit before the
    /// layouts became data types: a change to either layout must bump
    /// `FORMAT_VERSION`, not slip through.
    #[test]
    fn checkpoint_payload_bytes_are_pinned() {
        let (base, delta) = pinned_chain();
        assert_eq!((base.len(), fnv1a(&base)), (1653, 0x403c_99e6_ead0_a52c));
        assert_eq!((delta.len(), fnv1a(&delta)), (1969, 0xf317_3692_ac80_ce04));
        // Each layout's decoder and encoder are inverses.
        assert!(BaseCheckpoint::decode(&base).unwrap().encode() == base);
        assert!(DeltaCheckpoint::decode(&delta).unwrap().encode() == delta);
    }

    /// One record of every log kind (two repair requests, one per variant),
    /// reaching every tag of every persisted enum: all five SQL and seven
    /// script value tags (a `Float` of each, a script array and map), both
    /// methods, both partition and column sets, all event kinds, conflict
    /// kinds and conflict reasons, cookies and every `WarpHeaders` field.
    fn pinned_records() -> Vec<(u8, Vec<u8>)> {
        use crate::conflict::ConflictKind as K;
        use warp_http::Method;
        let sql_values = vec![
            SqlValue::Null,
            SqlValue::Bool(true),
            SqlValue::Int(-7),
            SqlValue::Float(1.25),
            SqlValue::Text("row".into()),
        ];
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), ScriptValue::Float(-0.5));
        map.insert("n".to_string(), ScriptValue::Null);
        let script_values = vec![
            ScriptValue::Bool(false),
            ScriptValue::Int(42),
            ScriptValue::Str("s".into()),
            ScriptValue::Array(vec![ScriptValue::Int(1), ScriptValue::Map(map)]),
        ];
        let mut request =
            warp_http::HttpRequest::post("/edit.wasl", [("title", "Main"), ("body", "x")]);
        request.query.insert("q".into(), "1".into());
        request
            .headers
            .insert("Referer".into(), "/view.wasl".into());
        request.cookies.set("sid", "abc");
        request.cookies.set("theme", "dark");
        request.warp.client_id = Some("c1".into());
        request.warp.visit_id = Some(3);
        request.warp.request_id = Some(0);
        let mut response = warp_http::HttpResponse::ok("<p>saved</p>");
        response.status = 302;
        response.headers.insert("Location".into(), "/".into());
        response.set_cookies.push("sid=abc".into());
        let keys = [("page", "title", "Main"), ("page", "title", "Other")]
            .iter()
            .map(|(t, c, v)| PartitionKey {
                table: (*t).into(),
                column: (*c).into(),
                value: (*v).into(),
            })
            .collect();
        let dependency = QueryDependency {
            table: "page".into(),
            is_read: true,
            is_write: true,
            read_partitions: PartitionSet::Whole {
                table: "page".into(),
            },
            write_partitions: PartitionSet::Keys(keys),
            written_row_ids: sql_values.clone(),
            read_columns: ColumnSet::All,
            write_columns: ColumnSet::Named(["body".to_string(), "title".to_string()].into()),
        };
        let action = ActionRecord {
            id: 5,
            time: 17,
            request,
            response,
            client: Some(ClientRef {
                client_id: "c1".into(),
                visit_id: 3,
                request_id: 0,
            }),
            entry_script: "edit.wasl".into(),
            loaded_files: vec!["edit.wasl".into(), "lib.wasl".into()],
            queries: vec![QueryRecord {
                sql: "UPDATE page SET body = 'x' WHERE title = 'Main'".into(),
                time: 16,
                result_fingerprint: 0xdead_beef,
                is_write: true,
                dependency,
            }],
            nondet: vec![NondetRecord {
                func: "rand".into(),
                args: script_values,
                result: ScriptValue::Float(0.75),
            }],
            cancelled: true,
        };
        let mut log = PageVisitRecord::new("c1", 3, "/edit.wasl?title=Main");
        log.caused_by_visit = Some(2);
        log.in_frame = true;
        log.push_event(EventKind::Input, "body", Some("x".into()), Some("y".into()));
        log.push_event(EventKind::Click, "save", None, None);
        log.push_event(EventKind::Submit, "form", Some("f".into()), None);
        log.requests.push(RecordedRequest {
            request_id: 0,
            method: Method::Get,
            path: "/view.wasl".into(),
            params: [("title".to_string(), "Main".to_string())].into(),
        });
        let patch = Patch::new("view.wasl", "echo(\"fixed\");", "CVE-0");
        let conflict = |kind, partition: Option<usize>| Conflict {
            client_id: "c1".into(),
            visit_id: 3,
            url: "/view.wasl".into(),
            kind,
            resolved: partition.is_some(),
            partition,
        };
        let conflicts = vec![
            conflict(K::BrowserReplay(ConflictReason::NoClientLog), None),
            conflict(
                K::BrowserReplay(ConflictReason::MissingTarget("t".into())),
                Some(2),
            ),
            conflict(
                K::BrowserReplay(ConflictReason::TextMergeConflict("m".into())),
                None,
            ),
            conflict(K::BrowserReplay(ConflictReason::FramingDenied), Some(0)),
            conflict(K::ActionCancelled, None),
            conflict(K::ReexecutionFailed("boom".into()), Some(9)),
        ];
        let commit = RepairCommitRecord {
            patch: Some((patch.clone(), 4)),
            cancelled: vec![1, 5],
            conflicts,
            cookie_invalidations: vec!["c1".into()],
            current_gen: 2,
            watermark: -100,
            table_diffs: vec![("page".into(), vec![sql_values.clone()], vec![sql_values])],
        };
        let events = [
            LogEvent::ClientLog(log),
            LogEvent::RepairBegin(RepairRequest::RetroactivePatch {
                patch: patch.clone(),
                from_time: 4,
            }),
            LogEvent::RepairBegin(RepairRequest::UndoVisit {
                client_id: "c1".into(),
                visit_id: 3,
                initiated_by_admin: true,
            }),
            LogEvent::RepairCommit(commit.clone()),
            LogEvent::RepairCommitSinceBegin(commit),
            LogEvent::RepairInterrupted,
            LogEvent::RepairAbort {
                patch: None,
                cookie_invalidations: vec!["c2".into(), "c3".into()],
            },
            LogEvent::Gc { before_time: 12 },
            LogEvent::CreateTable {
                sql: "CREATE TABLE note (note_id INTEGER PRIMARY KEY, text TEXT)".into(),
                annotation: TableAnnotation::new()
                    .row_id("note_id")
                    .partitions(["text"]),
            },
        ];
        let mut records = vec![encode_action_event(1, 18, 7, 8, -3, &action)];
        records.extend(events.iter().map(LogEvent::encode));
        records
    }

    /// The log-record bytes of [`pinned_records`], pinned at the commit
    /// before the layouts became `Wire` impls: a change to any record layout
    /// must bump `FORMAT_VERSION`, not slip through.
    #[test]
    fn log_record_bytes_are_pinned() {
        let records = pinned_records();
        let pins: Vec<(u8, usize, u64)> = records
            .iter()
            .map(|(kind, payload)| (*kind, payload.len(), fnv1a(payload)))
            .collect();
        assert_eq!(
            pins,
            vec![
                (KIND_ACTION, 647, 0x6102_3839_0b50_11a3),
                (KIND_CLIENT_LOG, 161, 0xc177_31e2_eec3_cb82),
                (KIND_REPAIR_BEGIN, 49, 0xb48e_7cad_8b4d_b065),
                (KIND_REPAIR_BEGIN, 16, 0x46b2_3156_4514_3ef0),
                (KIND_REPAIR_COMMIT, 417, 0x1803_308d_76e6_3898),
                (KIND_REPAIR_COMMIT_SINCE_BEGIN, 417, 0x1803_308d_76e6_3898),
                (KIND_REPAIR_INTERRUPTED, 0, 0xcbf2_9ce4_8422_2325),
                (KIND_REPAIR_ABORT, 17, 0xae17_9eb8_cac9_b88e),
                (KIND_GC, 8, 0x24b3_1456_53d7_6249),
                (KIND_CREATE_TABLE, 86, 0x75c7_6c97_3727_0767),
            ]
        );
        // Each record's decoder and encoder are inverses.
        for (kind, payload) in &records {
            let event = LogEvent::decode(*kind, payload).expect("a pinned record decodes");
            assert!(event.encode() == (*kind, payload.clone()), "kind {kind}");
        }
    }

    /// A status that does not fit a `u16` is corrupt: 65 736 was read back
    /// as `65_736 as u16`, status 200.
    #[test]
    fn an_out_of_range_status_is_an_error() {
        let (kind, mut payload) = pinned_records().swap_remove(0);
        // The response's status (302), then its one header, `Location`.
        let status: Vec<u8> = [302u32, 1, 8]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let at = payload
            .windows(status.len() + 8)
            .position(|w| w.starts_with(&status) && w.ends_with(b"Location"))
            .expect("the response status");
        payload[at..at + 4].copy_from_slice(&65_736u32.to_le_bytes());
        assert!(LogEvent::decode(kind, &payload).is_err());
        payload[at..at + 4].copy_from_slice(&u32::from(u16::MAX).to_le_bytes());
        assert!(LogEvent::decode(kind, &payload).is_ok());
    }

    /// Every decoder of a persisted payload — each log record kind, both
    /// checkpoint layouts and the chain fold — returns on any input: random
    /// bytes, every truncation and single-byte mutations of the pinned
    /// payloads. A truncated payload is always an error.
    #[test]
    fn decoding_arbitrary_bytes_returns_instead_of_panicking() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (base, delta) = pinned_chain();
        let decode_everything = |bytes: &[u8]| {
            for kind in 0..=KIND_CREATE_TABLE + 1 {
                let _ = LogEvent::decode(kind, bytes);
            }
            let _ = BaseCheckpoint::decode(bytes);
            let _ = DeltaCheckpoint::decode(bytes);
            let _ = fold_checkpoint_chain(bytes, &[]);
            let _ = fold_checkpoint_chain(&base, &[bytes.to_vec()]);
        };
        for _ in 0..500 {
            let len = (noise() % 96) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| noise() as u8).collect();
            decode_everything(&bytes);
        }
        // Each pinned payload, cut short and with one byte changed.
        enum Layout {
            Record(u8),
            Base,
            Delta,
        }
        let mut payloads: Vec<(Layout, Vec<u8>)> = pinned_records()
            .into_iter()
            .map(|(kind, payload)| (Layout::Record(kind), payload))
            .collect();
        payloads.push((Layout::Base, base.clone()));
        payloads.push((Layout::Delta, delta.clone()));
        let decode = |layout: &Layout, bytes: &[u8]| match layout {
            Layout::Record(kind) => LogEvent::decode(*kind, bytes).is_ok(),
            Layout::Base => {
                BaseCheckpoint::decode(bytes).is_ok()
                    | fold_checkpoint_chain(bytes, std::slice::from_ref(&delta)).is_some()
            }
            Layout::Delta => {
                DeltaCheckpoint::decode(bytes).is_ok()
                    | fold_checkpoint_chain(&base, &[bytes.to_vec()]).is_some()
            }
        };
        for (layout, payload) in &payloads {
            for cut in 0..payload.len() {
                assert!(!decode(layout, &payload[..cut]), "a cut at {cut} decodes");
            }
            let mut mutated = payload.clone();
            for at in 0..payload.len() {
                for value in [!payload[at], noise() as u8] {
                    mutated[at] = value;
                    decode(layout, &mutated);
                }
                mutated[at] = payload[at];
            }
        }
    }

    #[test]
    fn a_corrupt_client_log_count_is_an_error_not_an_allocation() {
        let mem = MemoryBackend::new();
        let mut server = open_with(&mem, manual()).0;
        edit(&mut server, "rev 0");
        server.upload_client_logs(vec![PageVisitRecord::new("count-marker", 1, "/view.wasl")]);
        server.checkpoint();
        drop(server);
        let (mut store, recovered) =
            DurableStore::open(Box::new(mem.clone()), manual()).expect("reopen raw store");
        let mut base = recovered.checkpoint.expect("a base on disk");
        // The log is the payload's only one and starts with its client ID, so
        // the count sits before that string's length prefix.
        let marker = base
            .windows(12)
            .position(|w| w == b"count-marker")
            .expect("the log's client ID");
        let count = marker - 8..marker - 4;
        assert_eq!(base[count.clone()], 1u32.to_le_bytes());
        base[count].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(fold_checkpoint_chain(&base, &[]).is_none());
        store
            .write_checkpoint(&base)
            .expect("write the patched base");
        drop(store);
        let reopened =
            WarpServer::open(ServerConfig::new(tiny_app()).with_backend(Box::new(mem.clone())));
        assert!(reopened.is_err(), "a corrupt count must fail recovery");
    }

    #[test]
    fn repair_commit_between_two_deltas_recovers_exactly() {
        let mem = MemoryBackend::new();
        let options = warp_store::StoreOptions {
            checkpoint_interval: 2,
            fold_after_deltas: 100,
            ..warp_store::StoreOptions::default()
        };
        let mut server = open_with(&mem, options).0;
        edit(&mut server, "<script>evil</script>");
        for i in 0..4 {
            edit(&mut server, &format!("rev {i}"));
        }
        let (_, deltas_before, _) = count_blobs(&mem);
        assert!(deltas_before >= 1, "a delta precedes the repair");
        let patch = crate::sourcefs::Patch::new(
            "edit.wasl",
            "db_query(\"UPDATE page SET body = '[' . sql_escape(param(\"body\")) . ']' \
             WHERE title = '\" . sql_escape(param(\"title\")) . \"'\"); echo(\"saved\");",
            "bracket bodies",
        );
        let _ = patch; // the undo path exercises cancellation instead
        let outcome = server.repair_with(
            RepairRequest::UndoVisit {
                client_id: "nobody".into(),
                visit_id: 99,
                initiated_by_admin: true,
            },
            crate::scheduler::RepairStrategy::Sequential,
        );
        assert!(!outcome.aborted);
        for i in 4..8 {
            edit(&mut server, &format!("rev {i}"));
        }
        let (_, deltas_after, _) = count_blobs(&mem);
        assert!(
            deltas_after > deltas_before,
            "a delta follows the repair commit"
        );
        let mut expected_db = server.db.clone();
        let expected_dump = expected_db.canonical_dump();
        let expected_gen = server.db.current_generation();
        let expected_len = server.history.len();
        drop(server);
        let (mut recovered, _) = open_with(&mem, options);
        assert_eq!(recovered.history.len(), expected_len);
        assert_eq!(recovered.db.current_generation(), expected_gen);
        assert_eq!(recovered.db.canonical_dump(), expected_dump);
    }

    #[test]
    fn cancelled_actions_ride_the_next_delta_checkpoint() {
        let mem = MemoryBackend::new();
        let options = warp_store::StoreOptions {
            checkpoint_interval: 2,
            fold_after_deltas: 100,
            ..warp_store::StoreOptions::default()
        };
        let mut server = open_with(&mem, options).0;
        // Action 0 belongs to a client visit; several more actions push it
        // below the next checkpoint floor.
        let mut req =
            warp_http::HttpRequest::post("/edit.wasl", [("title", "Main"), ("body", "undo me")]);
        req.warp.client_id = Some("mallory".into());
        req.warp.visit_id = Some(7);
        req.warp.request_id = Some(0);
        server.handle(req);
        for i in 0..4 {
            edit(&mut server, &format!("rev {i}"));
        }
        let outcome = server.repair_with(
            RepairRequest::UndoVisit {
                client_id: "mallory".into(),
                visit_id: 7,
                initiated_by_admin: true,
            },
            crate::scheduler::RepairStrategy::Sequential,
        );
        assert!(outcome.cancelled_actions.contains(&0));
        // More traffic cuts another delta carrying the cancellation flip.
        for i in 4..8 {
            edit(&mut server, &format!("rev {i}"));
        }
        drop(server);
        let (recovered, _) = open_with(&mem, options);
        assert!(
            recovered.history.action(0).expect("action 0").cancelled,
            "the cancellation flip must survive via the delta chain"
        );
    }

    #[test]
    fn servers_without_a_worker_fold_inline_at_the_threshold() {
        let mem = MemoryBackend::new();
        let options = warp_store::StoreOptions {
            checkpoint_interval: 1,
            fold_after_deltas: 2,
            ..warp_store::StoreOptions::default()
        };
        let mut server = open_with(&mem, options).0;
        for i in 0..4 {
            edit(&mut server, &format!("rev {i}"));
        }
        // Interval 1: base, delta, delta, then the chain is past the fold
        // threshold and — with no maintenance worker — the engine compacts
        // inline with a fresh full base.
        let (bases, deltas, _) = count_blobs(&mem);
        assert_eq!((bases, deltas), (1, 0), "inline fold compacts the chain");
        drop(server);
        let (recovered, report) = open_with(&mem, options);
        assert!(report.from_checkpoint);
        assert_eq!(recovered.history.len(), 4);
    }

    #[test]
    fn background_maintenance_folds_the_chain_off_the_serve_path() {
        let mem = MemoryBackend::new();
        let options = warp_store::StoreOptions {
            checkpoint_interval: 1,
            fold_after_deltas: 2,
            ..warp_store::StoreOptions::default()
        };
        let mut server = open_with(&mem, options).0;
        assert!(server.start_maintenance(), "memory backends clone");
        for i in 0..5 {
            edit(&mut server, &format!("rev {i}"));
        }
        let stats = server
            .maintenance
            .as_ref()
            .expect("worker running")
            .run_once();
        assert!(stats.folds >= 1, "the worker folded the chain: {stats:?}");
        let mut expected_db = server.db.clone();
        let expected_dump = expected_db.canonical_dump();
        let stats = server.stop_maintenance().expect("worker was running");
        assert_eq!(stats.errors, 0, "no failed passes: {stats:?}");
        drop(server);
        let (recovered, report) = open_with(&mem, options);
        assert!(report.from_checkpoint);
        assert_eq!(recovered.history.len(), 5);
        let mut db = recovered.db.clone();
        assert_eq!(db.canonical_dump(), expected_dump);
    }

    #[test]
    fn gc_forces_a_base_checkpoint_and_prunes_the_cold_tier() {
        let mem = MemoryBackend::new();
        let options = warp_store::StoreOptions {
            checkpoint_interval: 2,
            fold_after_deltas: 100,
            cold_retention: true,
            ..warp_store::StoreOptions::default()
        };
        let mut server = open_with(&mem, options).0;
        for i in 0..6 {
            edit(&mut server, &format!("rev {i}"));
        }
        drop(server);
        let mut server = open_with(&mem, options).0;
        // GC renumbers action IDs: the checkpoint that follows must be a
        // full base, and the cold archive loses its last reader.
        let cutoff = server.clock.now();
        edit(&mut server, "after gc");
        server.garbage_collect(cutoff);
        use warp_store::StorageBackend;
        let names = mem.list().expect("list blobs");
        assert!(
            !names.iter().any(|n| n.starts_with("cold-")),
            "GC prunes cold blobs: {names:?}"
        );
        let (bases, deltas, _) = count_blobs(&mem);
        assert_eq!((bases, deltas), (1, 0));
        drop(server);
        let (recovered, report) = open_with(&mem, options);
        assert!(report.from_checkpoint);
        assert_eq!(recovered.history.len(), 1);
    }

    #[test]
    fn in_memory_open_is_plain_new() {
        let (server, report) = WarpServer::open(ServerConfig::new(tiny_app())).unwrap();
        assert!(!server.is_persistent());
        assert!(!report.recovered);
        assert_eq!(server.store_bytes(), 0);
    }
}
