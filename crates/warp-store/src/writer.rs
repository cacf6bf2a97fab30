//! The group-commit log writer: a background thread that owns the
//! [`DurableStore`] and coalesces record appends from the serving path.
//!
//! The paper's server must log every action *while serving production
//! traffic*; paying one backend write per action on the request path caps
//! throughput at the storage latency. The writer moves that cost off the
//! request path: the engine submits records (and durability callbacks) over
//! a [`std::sync::mpsc`] channel and keeps serving; the writer thread drains
//! the channel, appends everything it drained with a single
//! [`DurableStore::append_batch`] call, and only then runs the callbacks.
//! A callback therefore fires strictly after every record submitted before
//! it is durable — "acknowledged implies recoverable" is enforced by
//! message order, not timing. A served request's record and the callback
//! that releases its response travel as *one* message
//! ([`GroupCommitWriter::submit_acked`]), so the writer is woken once per
//! request and never parks between the two.
//!
//! Batching policy: the writer flushes once [`BatchPolicy::max_batch`]
//! records are pending, or as soon as the channel runs dry while a
//! durability callback is waiting (so a lone client never waits on an
//! artificial delay); with records pending but nobody waiting on them, it
//! idles up to [`BatchPolicy::max_delay`] to let the batch grow. Under
//! load, batches form naturally: while one batch is being written, new
//! records accumulate in the channel and become the next batch.
//!
//! No async runtime is involved — plain threads and channels, matching the
//! repair scheduler's worker-pool style.

use crate::log::DurableStore;
use crate::ship::ShipperHook;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle writer with a shipper attached wakes to let the
/// shipper service standby control traffic (restarts, heartbeats).
const SHIPPER_POLL_INTERVAL: Duration = Duration::from_millis(5);

/// When the writer flushes a pending batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once this many records are pending (≥ 1).
    pub max_batch: usize,
    /// How long the writer may idle to let a batch grow when records are
    /// pending but *no durability callback is waiting* on them (the relaxed
    /// tier). When a callback is pending and the channel runs dry, the
    /// writer flushes immediately — a lone client never pays this delay;
    /// batches form whenever the channel holds more than one record, which
    /// is exactly when the engine outpaces the backend. Zero means "flush
    /// as soon as the channel is drained" in all cases.
    pub max_delay: Duration,
}

impl BatchPolicy {
    /// One record per write, no waiting: the per-record durability of the
    /// classic synchronous path, just off-thread.
    pub fn immediate() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_micros(500),
        }
    }
}

/// Counters the writer keeps about its batching behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Records appended through the writer.
    pub records: u64,
    /// Batches written (backend writes for records).
    pub batches: u64,
    /// Largest single batch.
    pub largest_batch: usize,
}

enum WriterMsg {
    /// Append one record (asynchronously). Durability is signalled by the
    /// callback riding along, if any, or by a later `Notify`.
    Record {
        kind: u8,
        payload: Vec<u8>,
        notify: Option<Box<dyn FnOnce() + Send>>,
    },
    /// Run this callback once every record submitted before it is durable.
    Notify(Box<dyn FnOnce() + Send>),
    /// Flush pending records, then write a *base* checkpoint (compacting
    /// the log).
    Checkpoint {
        payload: Vec<u8>,
        reply: Sender<u64>,
    },
    /// Flush pending records, then write a *delta* checkpoint chained on
    /// the current tip (compacting nothing).
    DeltaCheckpoint {
        payload: Vec<u8>,
        reply: Sender<Option<u64>>,
    },
    /// Flush, then delete every cold blob (the GC path); replies with
    /// bytes freed.
    PruneCold(Sender<u64>),
    /// Flush, then report whether any checkpoint chain exists on disk.
    HasCheckpoint(Sender<bool>),
    /// Flush, then report the backend's total stored bytes.
    TotalBytes(Sender<u64>),
    /// Flush, then report the durable LSN watermark (the next LSN to be
    /// assigned; every record below it is on disk).
    DurableLsn(Sender<u64>),
    /// Report batching counters.
    Stats(Sender<WriterStats>),
    /// Flush and hand the store back (used to shut the writer down).
    Close(Sender<(DurableStore, WriterStats)>),
}

/// Handle onto the background writer thread. All methods are cheap message
/// sends except the ones that explicitly wait for a reply.
///
/// # Panics
///
/// The writer thread panics if the backend fails an append or checkpoint
/// write — same contract as the synchronous path: a server that promised
/// durability and can no longer write its log must not keep serving
/// silently. Handle methods panic if the writer thread is gone.
#[derive(Debug)]
pub struct GroupCommitWriter {
    tx: Sender<WriterMsg>,
    thread: Option<JoinHandle<()>>,
}

impl GroupCommitWriter {
    /// Moves `store` onto a new writer thread governed by `policy`.
    pub fn spawn(store: DurableStore, policy: BatchPolicy) -> GroupCommitWriter {
        Self::spawn_inner(store, policy, None)
    }

    /// Like [`spawn`](GroupCommitWriter::spawn), but with a replication
    /// hook attached: after every durable batch the writer calls
    /// [`ShipperHook::batch_durable`] (before durability callbacks run),
    /// and while idle it calls [`ShipperHook::poll`] every few
    /// milliseconds so the hook can answer standby control frames.
    pub fn spawn_with_shipper(
        store: DurableStore,
        policy: BatchPolicy,
        shipper: Box<dyn ShipperHook>,
    ) -> GroupCommitWriter {
        Self::spawn_inner(store, policy, Some(shipper))
    }

    fn spawn_inner(
        store: DurableStore,
        policy: BatchPolicy,
        shipper: Option<Box<dyn ShipperHook>>,
    ) -> GroupCommitWriter {
        let (tx, rx) = channel();
        let thread = std::thread::Builder::new()
            .name("warp-log-writer".into())
            .spawn(move || writer_loop(store, policy, rx, shipper))
            .expect("spawning the group-commit log writer");
        GroupCommitWriter {
            tx,
            thread: Some(thread),
        }
    }

    /// Submits one record for asynchronous append.
    pub fn submit(&self, kind: u8, payload: Vec<u8>) {
        self.send(WriterMsg::Record {
            kind,
            payload,
            notify: None,
        });
    }

    /// Submits one record and runs `f` once it — and everything submitted
    /// before it — is durable: [`submit`](GroupCommitWriter::submit) then
    /// [`notify_durable`](GroupCommitWriter::notify_durable), as a single
    /// message.
    pub fn submit_acked(&self, kind: u8, payload: Vec<u8>, f: impl FnOnce() + Send + 'static) {
        self.send(WriterMsg::Record {
            kind,
            payload,
            notify: Some(Box::new(f)),
        });
    }

    /// Runs `f` once everything submitted before this call is durable.
    pub fn notify_durable(&self, f: impl FnOnce() + Send + 'static) {
        self.send(WriterMsg::Notify(Box::new(f)));
    }

    /// Blocks until everything submitted before this call is durable.
    pub fn flush(&self) {
        let (tx, rx) = channel();
        self.notify_durable(move || {
            let _ = tx.send(());
        });
        rx.recv().expect("group-commit writer thread died");
    }

    /// Flushes pending records, then writes `payload` as a *base*
    /// checkpoint (compacting the log). Returns the checkpoint LSN.
    pub fn write_checkpoint(&self, payload: Vec<u8>) -> u64 {
        let (reply, rx) = channel();
        self.send(WriterMsg::Checkpoint { payload, reply });
        rx.recv().expect("group-commit writer thread died")
    }

    /// Flushes pending records, then writes `payload` as a *delta*
    /// checkpoint chained on the current tip. Returns the delta's LSN, or
    /// `None` when no records landed since the last checkpoint (nothing
    /// was written).
    pub fn write_delta_checkpoint(&self, payload: Vec<u8>) -> Option<u64> {
        let (reply, rx) = channel();
        self.send(WriterMsg::DeltaCheckpoint { payload, reply });
        rx.recv().expect("group-commit writer thread died")
    }

    /// Flushes, then deletes every cold blob. Returns bytes freed.
    pub fn prune_cold_blobs(&self) -> u64 {
        let (reply, rx) = channel();
        self.send(WriterMsg::PruneCold(reply));
        rx.recv().expect("group-commit writer thread died")
    }

    /// Flushes, then reports whether a checkpoint chain exists on disk
    /// (deltas need a base to chain onto).
    pub fn has_checkpoint(&self) -> bool {
        let (reply, rx) = channel();
        self.send(WriterMsg::HasCheckpoint(reply));
        rx.recv().expect("group-commit writer thread died")
    }

    /// Flushes, then reports the backend's total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        let (reply, rx) = channel();
        self.send(WriterMsg::TotalBytes(reply));
        rx.recv().expect("group-commit writer thread died")
    }

    /// Flushes, then reports the durable LSN watermark: the next LSN to
    /// be assigned. Every record submitted before this call is on disk
    /// below the returned LSN by the time it returns.
    pub fn durable_lsn(&self) -> u64 {
        let (reply, rx) = channel();
        self.send(WriterMsg::DurableLsn(reply));
        rx.recv().expect("group-commit writer thread died")
    }

    /// The writer's batching counters so far.
    pub fn stats(&self) -> WriterStats {
        let (reply, rx) = channel();
        self.send(WriterMsg::Stats(reply));
        rx.recv().expect("group-commit writer thread died")
    }

    /// Flushes everything, stops the thread, and hands the store back.
    pub fn close(mut self) -> (DurableStore, WriterStats) {
        let (reply, rx) = channel();
        self.send(WriterMsg::Close(reply));
        let result = rx.recv().expect("group-commit writer thread died");
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        result
    }

    fn send(&self, msg: WriterMsg) {
        self.tx
            .send(msg)
            .unwrap_or_else(|_| panic!("group-commit writer thread died"));
    }
}

impl Drop for GroupCommitWriter {
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        // Ask the thread to flush and stop; if it already died (panicked),
        // joining below surfaces nothing extra — the panic already aborted
        // whatever durability promise was in flight.
        let (reply, rx) = channel();
        if self.tx.send(WriterMsg::Close(reply)).is_ok() {
            let _ = rx.recv();
        }
        let _ = thread.join();
    }
}

fn writer_loop(
    mut store: DurableStore,
    policy: BatchPolicy,
    rx: Receiver<WriterMsg>,
    mut shipper: Option<Box<dyn ShipperHook>>,
) {
    let max_batch = policy.max_batch.max(1);
    let mut stats = WriterStats::default();
    let mut records: Vec<(u8, Vec<u8>)> = Vec::new();
    let mut notifies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();

    // Queues `msg`; control messages are returned to the caller instead.
    fn enqueue(
        msg: WriterMsg,
        records: &mut Vec<(u8, Vec<u8>)>,
        notifies: &mut Vec<Box<dyn FnOnce() + Send>>,
    ) -> Option<WriterMsg> {
        match msg {
            WriterMsg::Record {
                kind,
                payload,
                notify,
            } => {
                records.push((kind, payload));
                notifies.extend(notify);
                None
            }
            WriterMsg::Notify(f) => {
                notifies.push(f);
                None
            }
            control => Some(control),
        }
    }

    loop {
        // With a shipper attached, an idle writer still wakes periodically
        // so the hook can answer standby control frames (a restart request
        // must not wait for the next durable batch).
        let first = match shipper.as_mut() {
            None => match rx.recv() {
                Ok(msg) => msg,
                // Every handle dropped without Close (the engine
                // panicked); nothing is pending — each iteration flushes
                // before looping.
                Err(_) => return,
            },
            Some(hook) => loop {
                match rx.recv_timeout(SHIPPER_POLL_INTERVAL) {
                    Ok(msg) => break msg,
                    Err(RecvTimeoutError::Timeout) => hook.poll(&mut store),
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            },
        };
        let mut control = enqueue(first, &mut records, &mut notifies);

        // Coalesce: drain whatever else is already queued, up to
        // `max_batch`. Once the channel runs dry the policy splits:
        //
        // * a durability callback is pending → someone is blocked on this
        //   batch, flush *now* (a lone client never pays `max_delay`);
        // * records but no callbacks (the relaxed tier) → idle up to
        //   `max_delay` to let the batch grow, since nobody is waiting.
        if control.is_none() && !records.is_empty() {
            let deadline = Instant::now() + policy.max_delay;
            while records.len() < max_batch {
                let msg = match rx.try_recv() {
                    Ok(msg) => msg,
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => {
                        if !notifies.is_empty() || policy.max_delay.is_zero() {
                            break;
                        }
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match rx.recv_timeout(deadline - now) {
                            Ok(msg) => msg,
                            Err(RecvTimeoutError::Timeout)
                            | Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                };
                control = enqueue(msg, &mut records, &mut notifies);
                if control.is_some() {
                    break;
                }
            }
        }

        // Flush: one append for the whole batch, then the callbacks. The
        // channel is FIFO, so every record submitted before a control
        // message has been drained (and is about to be appended) by the
        // time the control message is handled.
        if !records.is_empty() {
            let first_lsn = store
                .append_batch(&records)
                .unwrap_or_else(|e| panic!("durable log append failed: {e}"));
            stats.records += records.len() as u64;
            stats.batches += 1;
            stats.largest_batch = stats.largest_batch.max(records.len());
            // Ship before the durability callbacks run: by the time a
            // client's ack fires, the batch is already on the wire.
            if let Some(hook) = shipper.as_mut() {
                hook.batch_durable(&mut store, first_lsn, &records);
            }
            records.clear();
        }
        for notify in notifies.drain(..) {
            notify();
        }

        match control {
            None => {}
            Some(WriterMsg::Checkpoint { payload, reply }) => {
                let lsn = store
                    .write_checkpoint(&payload)
                    .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
                let _ = reply.send(lsn);
            }
            Some(WriterMsg::DeltaCheckpoint { payload, reply }) => {
                let lsn = store
                    .write_delta_checkpoint(&payload)
                    .unwrap_or_else(|e| panic!("delta checkpoint write failed: {e}"));
                let _ = reply.send(lsn);
            }
            Some(WriterMsg::PruneCold(reply)) => {
                let freed = store
                    .prune_cold_blobs()
                    .unwrap_or_else(|e| panic!("cold blob pruning failed: {e}"));
                let _ = reply.send(freed);
            }
            Some(WriterMsg::HasCheckpoint(reply)) => {
                let _ = reply.send(store.has_checkpoint());
            }
            Some(WriterMsg::TotalBytes(reply)) => {
                let _ = reply.send(store.total_bytes().unwrap_or(0));
            }
            Some(WriterMsg::DurableLsn(reply)) => {
                let _ = reply.send(store.next_lsn());
            }
            Some(WriterMsg::Stats(reply)) => {
                let _ = reply.send(stats);
            }
            Some(WriterMsg::Close(reply)) => {
                // One last poll so the shipper can flush watermarks and
                // answer any queued control frames before the store moves.
                if let Some(hook) = shipper.as_mut() {
                    hook.poll(&mut store);
                }
                drop(shipper);
                let _ = reply.send((store, stats));
                return;
            }
            Some(WriterMsg::Record { .. }) | Some(WriterMsg::Notify(_)) => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, StorageBackend};
    use crate::log::StoreOptions;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn store(backend: &MemoryBackend) -> DurableStore {
        DurableStore::open(Box::new(backend.clone()), StoreOptions::default())
            .unwrap()
            .0
    }

    #[test]
    fn records_submitted_before_a_notify_are_durable_when_it_fires() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(store(&mem), BatchPolicy::default());
        let observed = Arc::new(AtomicUsize::new(0));
        for i in 0..20u8 {
            writer.submit(1, vec![i]);
            let mem = mem.clone();
            let observed = observed.clone();
            let expect = i as usize + 1;
            writer.notify_durable(move || {
                // Reopen the backend inside the callback: all `expect`
                // records submitted so far must already be recoverable.
                let (_, recovered) =
                    DurableStore::open(Box::new(mem), StoreOptions::default()).unwrap();
                assert!(
                    recovered.records.len() >= expect,
                    "notify fired with only {} of {expect} records durable",
                    recovered.records.len()
                );
                observed.fetch_add(1, Ordering::SeqCst);
            });
        }
        writer.flush();
        assert_eq!(observed.load(Ordering::SeqCst), 20);
        let (store, stats) = writer.close();
        assert_eq!(store.next_lsn(), 20);
        assert_eq!(stats.records, 20);
        assert!(stats.batches <= 20);
    }

    #[test]
    fn an_acked_record_is_durable_with_its_predecessors_when_its_callback_fires() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(store(&mem), BatchPolicy::default());
        let observed = Arc::new(AtomicUsize::new(0));
        for i in 0..20u8 {
            // An unacked record (a client-log upload, say) before each
            // acked one: the callback covers both.
            writer.submit(2, vec![i]);
            let mem = mem.clone();
            let observed = observed.clone();
            let expect = 2 * (i as usize + 1);
            writer.submit_acked(1, vec![i], move || {
                let (_, recovered) =
                    DurableStore::open(Box::new(mem), StoreOptions::default()).unwrap();
                assert!(
                    recovered.records.len() >= expect,
                    "ack fired with only {} of {expect} records durable",
                    recovered.records.len()
                );
                observed.fetch_add(1, Ordering::SeqCst);
            });
        }
        writer.flush();
        assert_eq!(observed.load(Ordering::SeqCst), 20);
        let (store, stats) = writer.close();
        assert_eq!(store.next_lsn(), 40);
        assert_eq!(stats.records, 40);
    }

    #[test]
    fn a_lone_acked_record_is_flushed_without_waiting_out_the_batch_delay() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(
            store(&mem),
            BatchPolicy {
                max_batch: 64,
                max_delay: Duration::from_secs(60),
            },
        );
        let (tx, rx) = channel();
        writer.submit_acked(1, b"a".to_vec(), move || {
            let _ = tx.send(());
        });
        // Nothing else is coming: the writer must not sit out `max_delay`.
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the ack of a lone record fires at once");
    }

    #[test]
    fn bursts_coalesce_into_fewer_backend_writes() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(
            store(&mem),
            BatchPolicy {
                max_batch: 64,
                max_delay: Duration::from_millis(5),
            },
        );
        for i in 0..64u8 {
            writer.submit(1, vec![i; 8]);
        }
        writer.flush();
        let stats = writer.stats();
        assert_eq!(stats.records, 64);
        assert!(
            stats.batches < 64,
            "a burst must coalesce: {} batches for {} records",
            stats.batches,
            stats.records
        );
        assert!(stats.largest_batch > 1);
        drop(writer);
        let (_, recovered) = DurableStore::open(Box::new(mem), StoreOptions::default()).unwrap();
        assert_eq!(recovered.records.len(), 64);
    }

    #[test]
    fn immediate_policy_writes_every_record_on_its_own() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(store(&mem), BatchPolicy::immediate());
        for i in 0..10u8 {
            writer.submit(2, vec![i]);
        }
        writer.flush();
        let stats = writer.stats();
        assert_eq!(stats.records, 10);
        assert_eq!(stats.largest_batch, 1);
        assert_eq!(stats.batches, 10);
    }

    #[test]
    fn checkpoint_through_the_writer_flushes_then_compacts() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(store(&mem), BatchPolicy::default());
        writer.submit(1, b"a".to_vec());
        writer.submit(1, b"b".to_vec());
        let lsn = writer.write_checkpoint(b"STATE@2".to_vec());
        assert_eq!(lsn, 2, "both pending records precede the checkpoint");
        writer.submit(1, b"c".to_vec());
        let (store, _) = writer.close();
        drop(store);
        let (_, recovered) = DurableStore::open(Box::new(mem.clone()), StoreOptions::default())
            .expect("reopen after checkpoint");
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"STATE@2".as_slice()));
        assert_eq!(recovered.records, vec![(2, 1, b"c".to_vec())]);
        assert!(mem.list().unwrap().iter().any(|n| n.starts_with("ckpt-")));
    }

    #[test]
    fn delta_checkpoint_through_the_writer_chains_on_the_base() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(store(&mem), BatchPolicy::default());
        assert!(!writer.has_checkpoint());
        writer.submit(1, b"a".to_vec());
        let base = writer.write_checkpoint(b"BASE@1".to_vec());
        assert_eq!(base, 1);
        assert!(writer.has_checkpoint());
        writer.submit(1, b"b".to_vec());
        // The delta flushes the pending record first, so it covers LSN 2.
        assert_eq!(writer.write_delta_checkpoint(b"D@2".to_vec()), Some(2));
        // Nothing new: the delta is skipped.
        assert_eq!(writer.write_delta_checkpoint(b"noop".to_vec()), None);
        writer.submit(1, b"c".to_vec());
        drop(writer);
        let (_, recovered) = DurableStore::open(Box::new(mem), StoreOptions::default()).unwrap();
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"BASE@1".as_slice()));
        assert_eq!(recovered.deltas, vec![b"D@2".to_vec()]);
        assert_eq!(recovered.checkpoint_lsn, 2);
        assert_eq!(recovered.records, vec![(2, 1, b"c".to_vec())]);
    }

    #[test]
    fn drop_flushes_pending_records() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(store(&mem), BatchPolicy::default());
        for i in 0..7u8 {
            writer.submit(3, vec![i]);
        }
        drop(writer);
        let (_, recovered) = DurableStore::open(Box::new(mem), StoreOptions::default()).unwrap();
        assert_eq!(recovered.records.len(), 7);
    }

    #[test]
    fn total_bytes_accounts_pending_records() {
        let mem = MemoryBackend::new();
        let writer = GroupCommitWriter::spawn(store(&mem), BatchPolicy::default());
        writer.submit(1, vec![0; 100]);
        assert!(writer.total_bytes() > 100);
    }
}
