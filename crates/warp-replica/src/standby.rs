//! The standby: a warm replica continuously applying the shipped log.

use crate::transport::{Received, ReplicaTransport};
use crate::{ReplicaError, ReplicaResult};
use std::time::Duration;
use warp_core::{AppConfig, RecoveryReport, ServerConfig, WarpServer};
use warp_store::{ShipFrame, StorageBackend, StoreOptions};

/// What one [`Standby::pump`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pumped {
    /// Log records applied (after overlap trimming).
    pub applied: usize,
    /// The transport is closed and fully drained — the primary is gone;
    /// the only moves left are serving stale reads and
    /// [`Standby::promote`].
    pub closed: bool,
}

/// A warm standby replica of one Warp deployment.
///
/// The standby owns its *own* store over its own backend and a live
/// [`WarpServer`] kept warm by applying every shipped frame exactly as
/// crash recovery would ([`WarpServer::apply_replicated`]): re-executed
/// writes, fast-forwarded counters, repair commits and cancellation
/// flags. A frame's records are read as slices of the received bytes,
/// appended to the standby's log in one write and then applied; the
/// standby runs its own checkpoint cadence over that log. The warm server
/// therefore *is*, at every frame boundary, the server crash recovery
/// would rebuild from the standby's store — which is why promotion is a
/// hand-over ([`Standby::promote`]) and not a second recovery, and why a
/// standby that itself crashes simply re-attaches over the same backend.
///
/// Stream discipline: the standby says hello (and recovers from any torn
/// or lost frame) with a [`ShipFrame::Restart`] carrying its durable
/// watermark; the shipper answers with the gap, or with a full
/// [`ShipFrame::Bootstrap`] store copy when the primary's segments no
/// longer reach back that far. Frames that arrive torn — a CRC mismatch,
/// or a gap where records are missing — never corrupt the standby: the
/// bad frame is dropped and a restart is requested from the exact record
/// after the last one durably applied.
pub struct Standby {
    app: AppConfig,
    options: StoreOptions,
    backend: Box<dyn StorageBackend>,
    server: WarpServer,
    transport: Box<dyn ReplicaTransport>,
    primary_durable: u64,
    closed: bool,
}

impl Standby {
    /// Opens (or re-opens — any state already in `backend` is recovered
    /// and resumed from) a standby over its own backend and announces
    /// itself to the shipper. The backend must support a second handle
    /// ([`StorageBackend::try_clone`]); both built-in backends do.
    pub fn attach(
        app: AppConfig,
        backend: Box<dyn StorageBackend>,
        options: StoreOptions,
        transport: impl ReplicaTransport + 'static,
    ) -> ReplicaResult<Standby> {
        let server_backend = backend.try_clone().ok_or_else(|| {
            ReplicaError::Unsupported("standby backend cannot hand out a second handle".into())
        })?;
        let config = ServerConfig::new(app.clone())
            .with_backend(server_backend)
            .with_store_options(options);
        let (server, _) = WarpServer::open_standby(config)?;
        let mut standby = Standby {
            app,
            options,
            backend,
            server,
            transport: Box::new(transport),
            primary_durable: 0,
            closed: false,
        };
        standby.request_restart();
        Ok(standby)
    }

    /// Processes incoming frames: waits up to `timeout` for the first,
    /// then drains and applies everything already buffered. Call it in a
    /// loop (or from a dedicated thread) to keep the standby warm.
    pub fn pump(&mut self, timeout: Duration) -> ReplicaResult<Pumped> {
        let mut summary = Pumped::default();
        let mut wait = timeout;
        loop {
            if self.closed {
                summary.closed = true;
                return Ok(summary);
            }
            match self.transport.recv(wait) {
                Received::Frame(bytes) => {
                    if !self.handle_frame(&bytes, &mut summary)? {
                        // Torn in transit or out of sequence: drop it and
                        // restart from the last record durably applied.
                        // Nothing bad reached the store.
                        self.request_restart();
                    }
                }
                Received::Idle => return Ok(summary),
                Received::Closed => {
                    self.closed = true;
                    summary.closed = true;
                    return Ok(summary);
                }
            }
            wait = Duration::ZERO;
        }
    }

    /// Applies one received frame. `false` means the frame was unusable —
    /// it failed its CRC, or it skips records (a frame went missing) — and
    /// nothing of it was applied.
    fn handle_frame(&mut self, bytes: &[u8], summary: &mut Pumped) -> ReplicaResult<bool> {
        let Some(frame) = ShipFrame::decode(bytes) else {
            return Ok(false);
        };
        match frame {
            ShipFrame::Records { first_lsn, records } => {
                let expect = self.server.durable_lsn();
                if first_lsn > expect {
                    return Ok(false);
                }
                // Overlap (a resync re-served records we already have) is
                // trimmed; the rest applies in order, as one batch.
                let skip = ((expect - first_lsn) as usize).min(records.len());
                self.server.apply_replicated(&records[skip..])?;
                summary.applied += records.len() - skip;
                let end = first_lsn + records.len() as u64;
                self.primary_durable = self.primary_durable.max(end);
            }
            ShipFrame::Watermark { durable_lsn } => {
                self.primary_durable = self.primary_durable.max(durable_lsn);
            }
            ShipFrame::Bootstrap { blobs, next_lsn } => {
                self.rebuild_from(&blobs)?;
                self.primary_durable = self.primary_durable.max(next_lsn);
            }
            // Wrong direction; a self-connected loopback is a bug, not
            // corruption.
            ShipFrame::Restart { .. } => {}
        }
        Ok(true)
    }

    /// Replaces the standby's store wholesale with a shipped copy of the
    /// primary's and re-opens the warm server over it.
    fn rebuild_from(&mut self, blobs: &[(&str, &[u8])]) -> ReplicaResult<()> {
        for name in self.backend.list()? {
            self.backend.delete(&name)?;
        }
        for (name, bytes) in blobs {
            self.backend.write_atomic(name, bytes)?;
        }
        self.backend.sync()?;
        let server_backend = self.backend.try_clone().ok_or_else(|| {
            ReplicaError::Unsupported("standby backend cannot hand out a second handle".into())
        })?;
        let config = ServerConfig::new(self.app.clone())
            .with_backend(server_backend)
            .with_store_options(self.options);
        let (server, _) = WarpServer::open_standby(config)?;
        self.server = server;
        Ok(())
    }

    fn request_restart(&mut self) {
        let frame = ShipFrame::Restart {
            from: self.server.durable_lsn(),
        };
        if !self.transport.send(frame.encode()) {
            self.closed = true;
        }
    }

    /// The LSN up to which this standby has durably applied the stream.
    pub fn applied_lsn(&self) -> u64 {
        self.server.durable_lsn()
    }

    /// The primary's durable LSN as last heard (records or heartbeat).
    pub fn primary_durable_lsn(&self) -> u64 {
        self.primary_durable
    }

    /// How far behind the primary this standby *knows* itself to be:
    /// the last-heard primary watermark minus the applied LSN.
    pub fn lag(&self) -> u64 {
        self.primary_durable.saturating_sub(self.applied_lsn())
    }

    /// True once the transport is closed and drained (the primary is
    /// gone).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Serves a read against the warm server if the standby is at most
    /// `max_lag` records behind the primary's last-heard watermark — the
    /// explicit staleness bound for read offloading. The closure gets
    /// `&mut WarpServer` because the query APIs take `&mut self`; the
    /// contract is read-only (serve GETs, dump state, inspect history) —
    /// writes belong on the primary, and a written-to standby will
    /// diverge and force a resync.
    ///
    /// The bound is on *known* lag: a standby that has not heard from the
    /// primary recently may be further behind than it knows. Pump first
    /// for a fresh bound.
    pub fn read_at_most_behind<R>(
        &mut self,
        max_lag: u64,
        f: impl FnOnce(&mut WarpServer) -> R,
    ) -> ReplicaResult<R> {
        let lag = self.lag();
        if lag > max_lag {
            return Err(ReplicaError::TooStale { lag, max_lag });
        }
        Ok(f(&mut self.server))
    }

    /// Promotes this standby into a full primary, in place: every whole,
    /// in-sequence frame the transport already holds is applied (so nothing
    /// the primary acknowledged is lost to a caller that promotes without
    /// a last [`pump`](Standby::pump); the first torn or out-of-sequence
    /// frame ends the drain, and nobody is asked to resend), the stream is
    /// dropped, and the warm server is handed over as it stands. No store
    /// is reopened and no record replays: the server already applied every
    /// record through the recovery path (only the writes of actions served
    /// during a repair whose outcome never arrived were held back, and are
    /// applied now: [`WarpServer::end_of_log`]), logs to the standby's own store
    /// and has its checkpoint tracker armed, and its plan and program
    /// caches arrive warm. The report says what a recovery's would —
    /// `recovered` if any replicated state is held, `pending_repair` if a
    /// repair was interrupted mid-stream — with `records_replayed` zero.
    ///
    /// The returned [`WarpServer`] serves and *repairs*: replicated repair
    /// commits, cancellation flags and pending-repair markers are all in
    /// it, and in the standby's log should it crash in turn.
    pub fn promote(mut self) -> ReplicaResult<(WarpServer, RecoveryReport)> {
        let mut drained = Pumped::default();
        while !self.closed {
            match self.transport.recv(Duration::ZERO) {
                Received::Frame(bytes) => {
                    if !self.handle_frame(&bytes, &mut drained)? {
                        break;
                    }
                }
                Received::Idle | Received::Closed => break,
            }
        }
        // The log ends here: writes held back for a repair whose outcome
        // never arrived are replayed.
        self.server.end_of_log()?;
        let report = RecoveryReport {
            recovered: self.server.durable_lsn() > 0,
            pending_repair: self.server.pending_repair().is_some(),
            ..RecoveryReport::default()
        };
        Ok((self.server, report))
    }
}
