//! `warp-store` — the durable storage subsystem under the Warp server.
//!
//! The paper's premise is that the action history *outlives the intrusion*:
//! an administrator discovers a compromise weeks later and retroactively
//! repairs from the log. That only works if the log survives process death.
//! This crate provides the storage layer that makes the reproduction a
//! restartable system:
//!
//! * [`StorageBackend`] — a pluggable blob store (named blobs that support
//!   atomic replace and append). [`MemoryBackend`] keeps everything in
//!   shared memory (handles survive "crashes" of the server that used
//!   them, which is what the crash tests exploit); [`FileBackend`] maps
//!   blobs to files in a directory.
//! * [`DurableStore`] — a segmented, checksummed, append-only record log
//!   plus an incremental *checkpoint chain* over any backend. Records are
//!   opaque `(kind, payload)` pairs; `warp-core` defines the actual record
//!   types (actions, row-version deltas, repair commits) and their encoding
//!   on top of [`codec`]. [`DurableStore::append_batch`] writes a whole
//!   batch of records with one backend write — the group-commit primitive.
//! * [`GroupCommitWriter`] — a background thread that owns the store and
//!   coalesces appends from the serving path, running durability callbacks
//!   only once every record submitted before them is on disk. This is what
//!   lets the server acknowledge requests *after* durability without paying
//!   one backend write per request (see `writer`).
//! * [`MaintenanceWorker`] — a second background thread, over its own
//!   backend handle, that folds long delta chains into a new base and
//!   retires (or cold-stores) subsumed segments, so compaction never runs
//!   on the serve path (see `maintenance`).
//!
//! # On-disk layout
//!
//! A store is a flat namespace of blobs:
//!
//! ```text
//! seg-00000000000000000000.log         segment: magic "WARPSEG1", records
//! seg-00000000000000000417.log         next segment (name = first LSN)
//! ckpt-base-00000000000000000400.bin   base checkpoint covering LSN < 400
//! ckpt-delta-00000000000000000460.bin  delta: changes in LSN 400..460
//! ckpt-delta-00000000000000000500.bin  delta: changes in LSN 460..500
//! cold-...0000-...0400.zseg            compressed retired segment
//! ```
//!
//! Each record is framed `[len: u32][crc32: u32][kind: u8][payload]`; the
//! CRC covers kind + payload. Segments roll at
//! [`StoreOptions::segment_bytes`].
//!
//! Checkpoints form a chain: a *base* holds complete state after records
//! `0..n`; a *delta* names its parent LSN and holds only what changed
//! since. Writing a delta is O(payload) and deletes nothing. Writing a
//! base compacts: subsumed segments and older checkpoints are deleted
//! (or, with [`StoreOptions::cold_retention`], segments are first
//! re-encoded as compressed cold blobs that repair can still replay via
//! [`DurableStore::replay_cold`]). The base blob is always fsynced —
//! content and directory entry — *before* anything it subsumes is
//! deleted.
//!
//! # Crash recovery
//!
//! [`DurableStore::open`] resolves the newest *fully valid* chain (magic,
//! CRC, and parent links verified), hands back the base payload plus the
//! delta payloads oldest-first for the caller to fold, then scans the
//! surviving segments for records at or after the chain tip. A torn or
//! missing link makes recovery fall back to the next older candidate —
//! sound precisely because deltas never delete log segments. A torn or
//! corrupt record in the final segment — the expected shape of a crash
//! mid-append — ends the log there: the valid prefix is kept, the tail is
//! truncated, and the store is immediately appendable again. Corruption
//! *before* the final record is reported as [`StoreError::Corrupt`]
//! instead of being silently skipped.

pub mod backend;
pub mod codec;
pub mod compress;
pub mod log;
pub mod maintenance;
pub mod ship;
pub mod writer;

pub use backend::{FileBackend, MemoryBackend, StorageBackend};
pub use codec::{crc32, CodecError, Crc32, Decoder, Encoder};
pub use log::{DurableStore, Recovered, StoreOptions, KILL_AFTER_CKPT_WRITE_ENV};
pub use maintenance::{ChainFolder, MaintenanceConfig, MaintenanceStats, MaintenanceWorker};
pub use ship::{ShipFrame, ShipperHook, FRAME_HEADER, MAX_FRAME_BODY};
pub use writer::{BatchPolicy, GroupCommitWriter, WriterStats};

/// Errors surfaced by the storage subsystem.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error from the backend.
    Io(std::io::Error),
    /// Stored bytes failed validation (bad magic, CRC mismatch away from
    /// the log tail, missing records between a checkpoint and the log).
    Corrupt(String),
    /// A record or checkpoint payload failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Codec(e) => write!(f, "undecodable store data: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;
