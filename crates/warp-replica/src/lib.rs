//! `warp-replica` — log shipping to a warm standby.
//!
//! The paper's recovery machinery replays the durable action log *after
//! the fact*; this crate makes the same log a *live replication stream*.
//! Every batch the primary's group-commit writer commits is framed with
//! its LSN and a CRC and shipped to a standby, which applies it exactly
//! as crash recovery would — into its own store, with its own checkpoint
//! chain — so it can serve bounded-staleness reads now and take over as a
//! full, repair-capable primary the moment the real one dies.
//!
//! The pieces:
//!
//! * [`LogShipper`] — the primary side. A [`warp_store::ShipperHook`]
//!   that runs on the group-commit writer thread; attach it with
//!   [`warp_core::WarpBuilder::ship_log_to`]. Ships each durable batch
//!   before its durability callbacks fire, answers standby restart
//!   requests from the live segments (or with a full store copy once a
//!   base checkpoint compacted the gap away), and heartbeats its durable
//!   watermark while idle.
//! * [`Standby`] — the replica side. Applies the stream frame by frame
//!   ([`warp_core::WarpServer::apply_replicated`]), detects torn frames
//!   and gaps and resyncs from its durable watermark, serves reads at an
//!   explicit staleness bound ([`Standby::read_at_most_behind`]), and
//!   promotes ([`Standby::promote`]) by handing over its warm server in
//!   place — the log was applied once, as it arrived; nothing reopens or
//!   replays. Ordinary crash recovery is for a standby that dies itself:
//!   it re-attaches over its own store.
//! * [`ReplicaTransport`] — the pluggable link: [`channel_pair`] for
//!   in-process wiring, [`StreamTransport`] for a length-prefixed byte
//!   stream over anything socket-shaped (the failover example runs it
//!   over process pipes).
//!
//! Replication never weakens the primary's durability story: batches
//! ship *after* they are durable, a slow or dead standby only makes
//! itself stale, and every frame is CRC-checked so a torn stream is
//! detected and resynced rather than applied.

mod shipper;
mod standby;
mod transport;

pub use shipper::LogShipper;
pub use standby::{Pumped, Standby};
pub use transport::{
    channel_pair, ChannelTransport, Received, ReplicaTransport, StreamTransport, KILL_MID_FRAME_ENV,
};

use warp_store::StoreError;

/// Errors surfaced by the replication subsystem.
#[derive(Debug)]
pub enum ReplicaError {
    /// The standby's own store failed (open, append, checkpoint, or an
    /// undecodable replicated record).
    Store(StoreError),
    /// A bounded-staleness read was refused: the standby's known lag
    /// exceeds the caller's bound.
    TooStale {
        /// The standby's known lag, in records.
        lag: u64,
        /// The bound the caller asked for.
        max_lag: u64,
    },
    /// The configuration cannot support a standby (e.g. a backend that
    /// cannot hand out a second handle).
    Unsupported(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Store(e) => write!(f, "standby store error: {e}"),
            ReplicaError::TooStale { lag, max_lag } => {
                write!(f, "standby is {lag} records behind (bound: {max_lag})")
            }
            ReplicaError::Unsupported(msg) => write!(f, "replication unsupported: {msg}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<StoreError> for ReplicaError {
    fn from(e: StoreError) -> Self {
        ReplicaError::Store(e)
    }
}

/// Result alias for replication operations.
pub type ReplicaResult<T> = Result<T, ReplicaError>;
