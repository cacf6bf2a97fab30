//! The primary-side shipper: a [`warp_store::ShipperHook`] that turns the
//! group-commit writer's durable batches into a replication stream.

use crate::transport::{Received, ReplicaTransport};
use std::time::Duration;
use warp_store::{DurableStore, ShipFrame, ShipperHook};

/// Catch-up frames hold at most this many records (and never span a
/// segment), so a standby resyncing a long gap never receives one giant
/// frame.
const CATCHUP_CHUNK: usize = 1024;

/// Ships every durable batch to one standby over a
/// [`ReplicaTransport`]. Attach it with
/// [`warp_core::WarpBuilder::ship_log_to`] (or directly via
/// [`warp_store::GroupCommitWriter::spawn_with_shipper`]); it then runs
/// on the group-commit writer thread, which is what makes the resync
/// paths cheap and race-free — between batches the hook holds `&mut
/// DurableStore` and reads a perfectly consistent log.
///
/// Protocol, from this side:
///
/// * Nothing ships until the standby's hello — a
///   [`ShipFrame::Restart`] carrying its durable watermark — arrives.
/// * A restart from LSN `f` is served from the live segments
///   ([`DurableStore::scan_records_from`]) when they still cover `f`, or
///   by a full [`ShipFrame::Bootstrap`] copy when a base checkpoint
///   already compacted the gap away.
/// * Once caught up, every durable batch ships as a
///   [`ShipFrame::Records`] the moment it commits — before the batch's
///   durability callbacks fire, so an acknowledged request is already on
///   the wire to the standby.
/// * While idle, the writer polls the hook every few milliseconds: queued
///   restarts are answered and a [`ShipFrame::Watermark`] heartbeat goes
///   out whenever the durable LSN moved, keeping the standby's lag
///   measurable with no record traffic.
///
/// A dead transport (peer gone) or a failed resync read stops shipping but
/// never disturbs the primary: the hook goes quiet and the writer keeps
/// committing.
pub struct LogShipper {
    transport: Box<dyn ReplicaTransport>,
    /// The next LSN the standby expects, once its hello arrived.
    peer_next: Option<u64>,
    /// The durable LSN last advertised via a watermark heartbeat.
    advertised: Option<u64>,
    /// The transport died or a resync read failed; the shipper is
    /// permanently quiet.
    dead: bool,
}

impl LogShipper {
    /// Wraps a transport end. The shipper stays quiet until the standby's
    /// hello arrives on it.
    pub fn new(transport: impl ReplicaTransport + 'static) -> LogShipper {
        LogShipper {
            transport: Box::new(transport),
            peer_next: None,
            advertised: None,
            dead: false,
        }
    }

    fn send(&mut self, frame: &ShipFrame) -> bool {
        if !self.dead && !self.transport.send(frame.encode()) {
            self.go_quiet();
        }
        !self.dead
    }

    fn go_quiet(&mut self) {
        self.dead = true;
        self.peer_next = None;
    }

    /// Drains queued control frames (restarts) without blocking.
    fn drain_control(&mut self, store: &mut DurableStore) {
        while !self.dead {
            match self.transport.recv(Duration::ZERO) {
                Received::Frame(bytes) => {
                    if let Some(ShipFrame::Restart { from }) = ShipFrame::decode(&bytes) {
                        self.serve_restart(store, from);
                    }
                    // Anything else (torn or non-control) is ignored: the
                    // standby re-sends its restart until records flow.
                }
                Received::Idle => return,
                Received::Closed => {
                    self.go_quiet();
                    return;
                }
            }
        }
    }

    /// Answers a restart request: catch the standby up from `from` to the
    /// current durable LSN — framed segment by segment, straight out of
    /// each segment's bytes, while the segments still cover the gap; by a
    /// full store copy when they no longer do. A read error ends shipping,
    /// like a dead transport: the standby is this store's reader, not a
    /// reason to stop the primary.
    fn serve_restart(&mut self, store: &mut DurableStore, from: u64) {
        let streamed = store.scan_records_from(from, |first_lsn, records| {
            records.chunks(CATCHUP_CHUNK).enumerate().all(|(i, chunk)| {
                self.send(&ShipFrame::Records {
                    first_lsn: first_lsn + (i * CATCHUP_CHUNK) as u64,
                    records: chunk.to_vec(),
                })
            })
        });
        match streamed {
            Ok(true) => {}
            Ok(false) => {
                // The segments no longer reach back to `from`: ship the
                // whole store. The copy is consistent because this thread
                // owns the store — nothing commits mid-copy.
                let Ok(blobs) = store.export_blobs() else {
                    return self.go_quiet();
                };
                let blobs = blobs
                    .iter()
                    .map(|(name, bytes)| (name.as_str(), bytes.as_slice()))
                    .collect();
                self.send(&ShipFrame::Bootstrap {
                    blobs,
                    next_lsn: store.next_lsn(),
                });
            }
            Err(_) => return self.go_quiet(),
        }
        if self.dead {
            return;
        }
        // Nothing commits while this thread reads, so the standby now has
        // (or has in flight) everything below the durable LSN.
        self.peer_next = Some(store.next_lsn().max(from));
        self.advertised = Some(store.next_lsn());
    }

    fn heartbeat(&mut self, store: &DurableStore) {
        let durable = store.next_lsn();
        if self.advertised == Some(durable) {
            return;
        }
        if self.send(&ShipFrame::Watermark {
            durable_lsn: durable,
        }) {
            self.advertised = Some(durable);
        }
    }
}

impl ShipperHook for LogShipper {
    fn batch_durable(
        &mut self,
        store: &mut DurableStore,
        first_lsn: u64,
        records: &[(u8, Vec<u8>)],
    ) {
        self.drain_control(store);
        let Some(next) = self.peer_next else {
            return; // no hello yet — the restart will catch these records up
        };
        if first_lsn == next {
            let frame = ShipFrame::Records {
                first_lsn,
                records: records.iter().map(|(k, p)| (*k, p.as_slice())).collect(),
            };
            if self.send(&frame) {
                self.peer_next = Some(first_lsn + records.len() as u64);
                self.advertised = Some(store.next_lsn());
            }
        } else {
            // The stream and the log disagree (a restart raced the
            // batch): re-serve from where the standby actually is.
            self.serve_restart(store, next);
        }
    }

    fn poll(&mut self, store: &mut DurableStore) {
        self.drain_control(store);
        if self.peer_next.is_some() {
            self.heartbeat(store);
        }
    }
}
