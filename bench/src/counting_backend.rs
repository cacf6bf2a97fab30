//! The benchmark's storage stand-in: a [`MemoryBackend`] that counts what
//! the store asks of it. These counts are the `device.*` layer and the
//! source of `log_bytes_per_request`.
//!
//! Flush policy: nothing here (or in `FileBackend::append`) reaches a disk,
//! so a `sync` costs nothing. The benchmark reports the *number and size* of
//! device operations, never a device latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use warp_store::{MemoryBackend, StorageBackend, StoreResult};

/// What the store asked of the device so far. The store appends only to
/// log segments; checkpoints arrive as atomic writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    pub appends: u64,
    pub append_bytes: u64,
    pub atomic_writes: u64,
    pub atomic_bytes: u64,
    pub syncs: u64,
    pub deletes: u64,
    pub reads: u64,
}

impl DeviceCounts {
    /// What happened after `earlier` was read.
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            atomic_writes: self.atomic_writes - earlier.atomic_writes,
            atomic_bytes: self.atomic_bytes - earlier.atomic_bytes,
            syncs: self.syncs - earlier.syncs,
            deletes: self.deletes - earlier.deletes,
            reads: self.reads - earlier.reads,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    atomic_writes: AtomicU64,
    atomic_bytes: AtomicU64,
    syncs: AtomicU64,
    deletes: AtomicU64,
    reads: AtomicU64,
}

/// A counting wrapper around [`MemoryBackend`]. Clones (and
/// [`StorageBackend::try_clone`] handles, which the maintenance worker
/// uses) share both the blobs and the counters.
#[derive(Debug, Clone, Default)]
pub struct CountingBackend {
    inner: MemoryBackend,
    counters: Arc<Counters>,
}

// Statistics only: the counters publish no other data, so `Relaxed` is
// enough; they are read after the threads that bump them were joined or
// flushed.
fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

impl CountingBackend {
    pub fn new() -> Self {
        CountingBackend::default()
    }

    pub fn counts(&self) -> DeviceCounts {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let c = &self.counters;
        DeviceCounts {
            appends: load(&c.appends),
            append_bytes: load(&c.append_bytes),
            atomic_writes: load(&c.atomic_writes),
            atomic_bytes: load(&c.atomic_bytes),
            syncs: load(&c.syncs),
            deletes: load(&c.deletes),
            reads: load(&c.reads),
        }
    }

    /// An independent deep copy of the blobs with fresh counters: the disk
    /// image the recover phase opens, so its reads are counted on their own.
    pub fn image(&self) -> CountingBackend {
        CountingBackend {
            inner: self.inner.snapshot(),
            counters: Arc::default(),
        }
    }
}

impl StorageBackend for CountingBackend {
    fn list(&self) -> StoreResult<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> StoreResult<Option<Vec<u8>>> {
        bump(&self.counters.reads, 1);
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        bump(&self.counters.appends, 1);
        bump(&self.counters.append_bytes, data.len() as u64);
        self.inner.append(name, data)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> StoreResult<()> {
        bump(&self.counters.atomic_writes, 1);
        bump(&self.counters.atomic_bytes, data.len() as u64);
        self.inner.write_atomic(name, data)
    }

    fn delete(&mut self, name: &str) -> StoreResult<()> {
        bump(&self.counters.deletes, 1);
        self.inner.delete(name)
    }

    fn sync(&mut self) -> StoreResult<()> {
        bump(&self.counters.syncs, 1);
        self.inner.sync()
    }

    fn try_clone(&self) -> Option<Box<dyn StorageBackend>> {
        Some(Box::new(self.clone()))
    }

    fn total_bytes(&self) -> StoreResult<u64> {
        self.inner.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_hand_counted_sequence() {
        let mut backend = CountingBackend::new();
        backend.append("seg-1", b"abc").unwrap();
        backend.append("seg-1", b"de").unwrap();
        backend.write_atomic("ckpt-1", b"0123456789").unwrap();
        backend.sync().unwrap();
        assert_eq!(backend.read("seg-1").unwrap().unwrap(), b"abcde");
        assert_eq!(backend.read("missing").unwrap(), None);
        backend.delete("ckpt-1").unwrap();
        assert_eq!(backend.list().unwrap(), vec!["seg-1".to_string()]);
        assert_eq!(
            backend.counts(),
            DeviceCounts {
                appends: 2,
                append_bytes: 5,
                atomic_writes: 1,
                atomic_bytes: 10,
                syncs: 1,
                deletes: 1,
                reads: 2,
            }
        );
    }

    #[test]
    fn clones_share_counters_and_images_do_not() {
        let mut backend = CountingBackend::new();
        let mut second = backend.try_clone().expect("clonable");
        second.append("seg-1", b"xy").unwrap();
        backend.append("seg-1", b"z").unwrap();
        assert_eq!(backend.counts().appends, 2);
        assert_eq!(backend.counts().append_bytes, 3);

        let mut image = backend.image();
        assert_eq!(image.counts(), DeviceCounts::default());
        assert_eq!(image.read("seg-1").unwrap().unwrap(), b"xyz");
        image.append("seg-1", b"!").unwrap();
        assert_eq!(backend.read("seg-1").unwrap().unwrap(), b"xyz");
        assert_eq!(backend.counts().appends, 2);
    }
}
