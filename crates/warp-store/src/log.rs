//! The segmented record log and checkpoint-chain store.
//!
//! Checkpoints form a *chain*: a base image (`ckpt-base-`) plus zero or
//! more delta checkpoints (`ckpt-delta-`), each naming its parent LSN.
//! Recovery folds the newest valid chain; a torn or corrupt link makes
//! recovery fall back to the next older candidate, which stays sound
//! because delta checkpoints never delete log segments — only a base
//! checkpoint compacts. Segments subsumed by a base can optionally be kept
//! as compressed cold blobs (`cold-*.zseg`), still replayable for repair.

use crate::backend::StorageBackend;
use crate::codec::{crc32, Crc32};
use crate::compress;
use crate::{StoreError, StoreResult};

/// Magic prefix of every log segment.
const SEGMENT_MAGIC: &[u8; 8] = b"WARPSEG1";
/// Magic prefix of base checkpoint blobs (chain roots).
const BASE_MAGIC: &[u8; 8] = b"WARPCKB1";
/// Magic prefix of delta checkpoint blobs (chain links).
const DELTA_MAGIC: &[u8; 8] = b"WARPCKD1";
/// Magic prefix of cold (compressed) segment blobs.
const COLD_MAGIC: &[u8; 8] = b"WARPCOLD";
/// Bytes of record framing before the payload: length + CRC.
const FRAME_BYTES: usize = 8;
/// Header bytes of a chain blob: magic + lsn + parent + crc + len.
const CHAIN_HEADER: usize = 32;
/// Parent field value for blobs with no parent (bases).
const NO_PARENT: u64 = u64::MAX;

/// When this environment variable is set, the store aborts the process
/// immediately after a base checkpoint blob is written and synced but
/// *before* the segments and older checkpoints it subsumes are deleted.
/// `examples/crash_recovery` uses it to prove the durability ordering:
/// a crash at this point must recover from the new checkpoint.
pub const KILL_AFTER_CKPT_WRITE_ENV: &str = "WARP_STORE_KILL_AFTER_CKPT_WRITE";

/// Tunables for the durable store.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Roll to a new log segment once the active one exceeds this size.
    pub segment_bytes: usize,
    /// Take a checkpoint (and compact the log) every this many records.
    /// `0` disables automatic checkpoints; explicit checkpoints still work.
    pub checkpoint_interval: u64,
    /// Fold the delta chain into a new base once it grows this many links
    /// (enforced by the background maintenance worker; `0` disables).
    pub fold_after_deltas: usize,
    /// Keep segments subsumed by a base checkpoint as compressed cold
    /// blobs instead of deleting them, so repair can still replay history
    /// older than the live log. Cold blobs are ignored by recovery and
    /// reclaimed by [`DurableStore::prune_cold_blobs`] (the GC path).
    pub cold_retention: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            segment_bytes: 64 * 1024,
            checkpoint_interval: 512,
            fold_after_deltas: 8,
            cold_retention: false,
        }
    }
}

/// What [`DurableStore::open`] found in the backend.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The newest valid base checkpoint payload, if any.
    pub checkpoint: Option<Vec<u8>>,
    /// Delta checkpoint payloads chained onto the base, oldest first.
    /// The caller folds these into the base state before replaying
    /// [`records`](Recovered::records).
    pub deltas: Vec<Vec<u8>>,
    /// The LSN the checkpoint *chain* covers records below (the tip of
    /// the chain; 0 when none). Records at or after this LSN appear in
    /// [`records`](Recovered::records).
    pub checkpoint_lsn: u64,
    /// Log records at or after the chain tip, as `(lsn, kind, payload)`.
    pub records: Vec<(u64, u8, Vec<u8>)>,
    /// True if a torn or corrupt final record was found and truncated away.
    pub torn_tail: bool,
}

/// A segmented, checksummed, append-only record log with incremental
/// checkpoint chains, over any [`StorageBackend`]. See the crate docs for
/// the layout and recovery semantics.
#[derive(Debug)]
pub struct DurableStore {
    backend: Box<dyn StorageBackend>,
    options: StoreOptions,
    /// LSN the next appended record receives.
    next_lsn: u64,
    /// Name and current byte size of the segment being appended to.
    active: Option<(String, usize)>,
    /// Records appended since the last checkpoint (base or delta).
    records_since_checkpoint: u64,
    /// LSN of the newest checkpoint in the chain (the tip).
    last_ckpt_lsn: u64,
    /// Whether any checkpoint chain exists on disk.
    has_checkpoint: bool,
    /// Delta links written since the last base.
    deltas_since_base: usize,
    /// Reused frame-encoding buffer for [`append_batch`] — the group
    /// commit path allocates no per-record scratch.
    scratch: Vec<u8>,
}

fn segment_name(first_lsn: u64) -> String {
    format!("seg-{first_lsn:020}.log")
}

pub(crate) fn base_name(lsn: u64) -> String {
    format!("ckpt-base-{lsn:020}.bin")
}

pub(crate) fn delta_name(lsn: u64) -> String {
    format!("ckpt-delta-{lsn:020}.bin")
}

fn cold_name(first_lsn: u64, end_lsn: u64) -> String {
    format!("cold-{first_lsn:020}-{end_lsn:020}.zseg")
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// The first LSN of every `seg-` segment in the backend, ascending.
fn segment_lsns(backend: &dyn StorageBackend) -> StoreResult<Vec<u64>> {
    let mut lsns: Vec<u64> = backend
        .list()?
        .iter()
        .filter_map(|n| parse_name(n, "seg-", ".log"))
        .collect();
    lsns.sort_unstable();
    Ok(lsns)
}

fn parse_cold_name(name: &str) -> Option<(u64, u64)> {
    let middle = name.strip_prefix("cold-")?.strip_suffix(".zseg")?;
    let (first, end) = middle.split_once('-')?;
    Some((first.parse().ok()?, end.parse().ok()?))
}

/// Which flavor of checkpoint blob a name denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CkptKind {
    /// `ckpt-delta-` chain link.
    Delta,
    /// `ckpt-base-` chain root.
    Base,
}

/// Parses any checkpoint blob name.
pub(crate) fn parse_checkpoint_blob_name(name: &str) -> Option<(u64, CkptKind)> {
    if let Some(lsn) = parse_name(name, "ckpt-base-", ".bin") {
        return Some((lsn, CkptKind::Base));
    }
    if let Some(lsn) = parse_name(name, "ckpt-delta-", ".bin") {
        return Some((lsn, CkptKind::Delta));
    }
    None
}

/// One record parsed out of a segment; the payload stays a slice of it.
enum Scan<'a> {
    Record {
        kind: u8,
        payload: &'a [u8],
        end: usize,
    },
    /// The bytes at `valid_end..` are torn or corrupt.
    Torn {
        valid_end: usize,
    },
    End,
}

fn scan_record(blob: &[u8], pos: usize) -> Scan<'_> {
    if pos >= blob.len() {
        return Scan::End;
    }
    if blob.len() - pos < FRAME_BYTES {
        return Scan::Torn { valid_end: pos };
    }
    let len = u32::from_le_bytes([blob[pos], blob[pos + 1], blob[pos + 2], blob[pos + 3]]) as usize;
    let crc = u32::from_le_bytes([blob[pos + 4], blob[pos + 5], blob[pos + 6], blob[pos + 7]]);
    let body_start = pos + FRAME_BYTES;
    if len == 0 || blob.len() - body_start < len {
        return Scan::Torn { valid_end: pos };
    }
    let body = &blob[body_start..body_start + len];
    if crc32(body) != crc {
        return Scan::Torn { valid_end: pos };
    }
    Scan::Record {
        kind: body[0],
        payload: &body[1..],
        end: body_start + len,
    }
}

/// A resolved checkpoint chain: the newest base plus every delta link up
/// to the tip, all CRC-verified.
#[derive(Debug)]
pub(crate) struct Chain {
    /// LSN of the base image (records below it are only in cold blobs).
    pub base_lsn: u64,
    /// The base checkpoint payload.
    pub base_payload: Vec<u8>,
    /// LSN of the newest link; records at or after it are in the live log.
    pub tip_lsn: u64,
    /// Delta payloads from oldest to newest.
    pub delta_payloads: Vec<Vec<u8>>,
}

/// Encodes a chain blob: magic + lsn + parent + crc(payload) + len + payload.
pub(crate) fn encode_chain_blob(magic: &[u8; 8], lsn: u64, parent: u64, payload: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(CHAIN_HEADER + payload.len());
    blob.extend_from_slice(magic);
    blob.extend_from_slice(&lsn.to_le_bytes());
    blob.extend_from_slice(&parent.to_le_bytes());
    blob.extend_from_slice(&crc32(payload).to_le_bytes());
    blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    blob.extend_from_slice(payload);
    blob
}

/// Decodes and validates a chain blob, returning `(parent, payload)`.
fn decode_chain_blob(blob: &[u8], expected_lsn: u64, magic: &[u8; 8]) -> Option<(u64, Vec<u8>)> {
    if blob.len() < CHAIN_HEADER || &blob[..8] != magic {
        return None;
    }
    let lsn = u64::from_le_bytes(blob[8..16].try_into().ok()?);
    let parent = u64::from_le_bytes(blob[16..24].try_into().ok()?);
    let crc = u32::from_le_bytes(blob[24..28].try_into().ok()?);
    let len = u32::from_le_bytes(blob[28..32].try_into().ok()?) as usize;
    if lsn != expected_lsn || blob.len() != CHAIN_HEADER + len {
        return None;
    }
    let payload = &blob[CHAIN_HEADER..];
    if crc32(payload) != crc {
        return None;
    }
    Some((parent, payload.to_vec()))
}

/// Reads the blob for one chain link and validates it; `Ok(None)` means
/// missing or invalid. The returned parent is `None` for bases.
fn read_valid_link(
    backend: &dyn StorageBackend,
    lsn: u64,
    kind: CkptKind,
) -> StoreResult<Option<(Option<u64>, Vec<u8>)>> {
    let name = match kind {
        CkptKind::Base => base_name(lsn),
        CkptKind::Delta => delta_name(lsn),
    };
    let Some(blob) = backend.read(&name)? else {
        return Ok(None);
    };
    Ok(match kind {
        CkptKind::Base => decode_chain_blob(&blob, lsn, BASE_MAGIC).map(|(_, p)| (None, p)),
        CkptKind::Delta => {
            decode_chain_blob(&blob, lsn, DELTA_MAGIC).map(|(parent, p)| (Some(parent), p))
        }
    })
}

/// Tries each checkpoint flavor at `lsn`, preferring a base (a fold may
/// have replaced the delta at the same LSN with a base).
fn read_any_valid_link(
    backend: &dyn StorageBackend,
    lsn: u64,
) -> StoreResult<Option<(Option<u64>, Vec<u8>)>> {
    for kind in [CkptKind::Base, CkptKind::Delta] {
        if let Some(link) = read_valid_link(backend, lsn, kind)? {
            return Ok(Some(link));
        }
    }
    Ok(None)
}

/// Walks parent links from a candidate tip down to a base. `Ok(None)`
/// means some link was missing, torn, or malformed — the caller falls
/// back to the next older candidate.
fn try_resolve_chain(
    backend: &dyn StorageBackend,
    tip_lsn: u64,
    tip_kind: CkptKind,
) -> StoreResult<Option<Chain>> {
    let mut deltas_rev: Vec<Vec<u8>> = Vec::new();
    let Some((mut parent, mut payload)) = read_valid_link(backend, tip_lsn, tip_kind)? else {
        return Ok(None);
    };
    let mut lsn = tip_lsn;
    loop {
        match parent {
            None => {
                deltas_rev.reverse();
                return Ok(Some(Chain {
                    base_lsn: lsn,
                    base_payload: payload,
                    tip_lsn,
                    delta_payloads: deltas_rev,
                }));
            }
            Some(p) => {
                // Parent links must strictly decrease, so the walk always
                // terminates; anything else is a malformed link.
                if p >= lsn {
                    return Ok(None);
                }
                deltas_rev.push(payload);
                let Some((next_parent, next_payload)) = read_any_valid_link(backend, p)? else {
                    return Ok(None);
                };
                lsn = p;
                parent = next_parent;
                payload = next_payload;
            }
        }
    }
}

/// Finds the newest fully valid checkpoint chain in the backend. Shared
/// by [`DurableStore::open`] and the background maintenance worker.
pub(crate) fn scan_chain(backend: &dyn StorageBackend) -> StoreResult<Option<Chain>> {
    let names = backend.list()?;
    let mut candidates: Vec<(u64, CkptKind)> = names
        .iter()
        .filter_map(|n| parse_checkpoint_blob_name(n))
        .collect();
    // Newest tip wins; at equal LSN a base subsumes a delta (CkptKind's
    // derive order ranks Delta < Base).
    candidates.sort_by_key(|&(lsn, kind)| (lsn, kind as u8));
    for &(lsn, kind) in candidates.iter().rev() {
        if let Some(chain) = try_resolve_chain(backend, lsn, kind)? {
            return Ok(Some(chain));
        }
    }
    Ok(None)
}

fn maybe_kill_after_ckpt_write() {
    if std::env::var_os(KILL_AFTER_CKPT_WRITE_ENV).is_some() {
        std::process::abort();
    }
}

impl DurableStore {
    /// Opens a store over a backend, recovering whatever state survives:
    /// the newest valid checkpoint chain and every decodable record after
    /// its tip. A torn tail (crash mid-append) is truncated; corruption
    /// anywhere else is an error.
    pub fn open(
        backend: Box<dyn StorageBackend>,
        options: StoreOptions,
    ) -> StoreResult<(DurableStore, Recovered)> {
        let mut store = DurableStore {
            backend,
            options,
            next_lsn: 0,
            active: None,
            records_since_checkpoint: 0,
            last_ckpt_lsn: 0,
            has_checkpoint: false,
            deltas_since_base: 0,
            scratch: Vec::new(),
        };
        let chain = scan_chain(store.backend.as_ref())?;
        let (checkpoint, deltas, checkpoint_lsn) = match chain {
            Some(c) => (Some(c.base_payload), c.delta_payloads, c.tip_lsn),
            None => (None, Vec::new(), 0),
        };
        store.has_checkpoint = checkpoint.is_some();
        store.deltas_since_base = deltas.len();
        store.last_ckpt_lsn = checkpoint_lsn;

        // Scan segments in LSN order. Segments older than the chain tip
        // survive delta checkpoints (only bases compact), so records below
        // the tip are skipped rather than returned.
        let seg_lsns = segment_lsns(store.backend.as_ref())?;
        let mut records = Vec::new();
        let mut torn_tail = false;
        let mut next_lsn = checkpoint_lsn;
        for (i, &first_lsn) in seg_lsns.iter().enumerate() {
            let is_last = i + 1 == seg_lsns.len();
            let name = segment_name(first_lsn);
            let blob = store
                .backend
                .read(&name)?
                .ok_or_else(|| StoreError::Corrupt(format!("segment {name} vanished")))?;
            if blob.len() < SEGMENT_MAGIC.len() || &blob[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
                if is_last && blob.len() < SEGMENT_MAGIC.len() {
                    // Crash while creating the segment: drop it entirely.
                    store.backend.delete(&name)?;
                    torn_tail = true;
                    break;
                }
                return Err(StoreError::Corrupt(format!("segment {name}: bad magic")));
            }
            if first_lsn > next_lsn.max(checkpoint_lsn) {
                return Err(StoreError::Corrupt(format!(
                    "segment {name} starts at LSN {first_lsn} but only {next_lsn} records precede it"
                )));
            }
            let mut lsn = first_lsn;
            let mut pos = SEGMENT_MAGIC.len();
            loop {
                match scan_record(&blob, pos) {
                    Scan::Record { kind, payload, end } => {
                        if lsn >= checkpoint_lsn {
                            records.push((lsn, kind, payload.to_vec()));
                        }
                        lsn += 1;
                        pos = end;
                    }
                    Scan::End => break,
                    Scan::Torn { valid_end } => {
                        if !is_last {
                            return Err(StoreError::Corrupt(format!(
                                "segment {name}: corrupt record at byte {valid_end} is not at the log tail"
                            )));
                        }
                        // Truncate the torn bytes so future appends start
                        // from a clean prefix.
                        store.backend.write_atomic(&name, &blob[..valid_end])?;
                        torn_tail = true;
                        pos = valid_end;
                        break;
                    }
                }
            }
            next_lsn = lsn.max(next_lsn);
            if is_last && lsn >= checkpoint_lsn && pos < store.options.segment_bytes {
                store.active = Some((name, pos));
            }
        }
        if next_lsn < checkpoint_lsn {
            // The log was torn below the chain tip. The chain still covers
            // those records, so appending resumes at the tip — in a fresh
            // segment, because positions in the old one no longer line up
            // with LSNs.
            next_lsn = checkpoint_lsn;
            store.active = None;
        }
        store.next_lsn = next_lsn;
        store.records_since_checkpoint = next_lsn - checkpoint_lsn;
        let recovered = Recovered {
            checkpoint,
            deltas,
            checkpoint_lsn,
            records,
            torn_tail,
        };
        Ok((store, recovered))
    }

    /// Appends one record and returns its LSN.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> StoreResult<u64> {
        self.append_batch(&[(kind, payload)])
    }

    /// Appends a batch of records with a *single* backend write and returns
    /// the LSN of the first one (records receive consecutive LSNs). This is
    /// the group-commit primitive: the writer thread coalesces records from
    /// concurrent requests and pays the per-write backend cost once for the
    /// whole batch. The batch lands in one segment even if it overshoots
    /// [`StoreOptions::segment_bytes`] — the next append rolls — so a batch
    /// is never split across a segment boundary. Frame encoding reuses one
    /// scratch buffer across calls; the hot path allocates nothing per
    /// record, and payloads may be owned or borrowed — a standby appends a
    /// received frame's records as slices of the frame.
    pub fn append_batch<P: AsRef<[u8]>>(&mut self, records: &[(u8, P)]) -> StoreResult<u64> {
        let first_lsn = self.next_lsn;
        if records.is_empty() {
            return Ok(first_lsn);
        }
        let needs_roll = match &self.active {
            Some((_, size)) => *size >= self.options.segment_bytes,
            None => true,
        };
        if needs_roll {
            let name = segment_name(self.next_lsn);
            self.backend.append(&name, SEGMENT_MAGIC)?;
            self.active = Some((name, SEGMENT_MAGIC.len()));
        }
        let mut frames = std::mem::take(&mut self.scratch);
        frames.clear();
        for (kind, payload) in records {
            let payload = payload.as_ref();
            frames.extend_from_slice(&((1 + payload.len()) as u32).to_le_bytes());
            let mut crc = Crc32::new();
            crc.update(std::slice::from_ref(kind));
            crc.update(payload);
            frames.extend_from_slice(&crc.finish().to_le_bytes());
            frames.push(*kind);
            frames.extend_from_slice(payload);
        }
        let (name, size) = self.active.as_mut().expect("active segment");
        let result = self.backend.append(name, &frames);
        *size += frames.len();
        self.scratch = frames;
        result?;
        self.next_lsn += records.len() as u64;
        self.records_since_checkpoint += records.len() as u64;
        Ok(first_lsn)
    }

    /// The tunables this store was opened with.
    pub fn options(&self) -> StoreOptions {
        self.options
    }

    /// Writes a *base* checkpoint covering every record appended so far,
    /// then compacts: all log segments and every other checkpoint blob are
    /// deleted (the base subsumes them). With
    /// [`StoreOptions::cold_retention`] on, subsumed segments are first
    /// re-encoded as compressed cold blobs so their records stay
    /// replayable for repair.
    ///
    /// Durability ordering: the new blob (and the directory entry for it)
    /// is synced *before* anything it subsumes is deleted, so a crash in
    /// between leaves both states recoverable — never neither.
    pub fn write_checkpoint(&mut self, payload: &[u8]) -> StoreResult<u64> {
        let lsn = self.next_lsn;
        let blob = encode_chain_blob(BASE_MAGIC, lsn, NO_PARENT, payload);
        let new_name = base_name(lsn);
        self.backend.write_atomic(&new_name, &blob)?;
        self.backend.sync()?;
        maybe_kill_after_ckpt_write();
        if self.options.cold_retention {
            self.cold_store_segments(lsn)?;
            self.backend.sync()?;
        }
        // Compaction: the new base makes the whole log and every other
        // checkpoint blob redundant.
        for name in self.backend.list()? {
            let stale_segment = parse_name(&name, "seg-", ".log").is_some();
            let stale_ckpt = parse_checkpoint_blob_name(&name).is_some() && name != new_name;
            if stale_segment || stale_ckpt {
                self.backend.delete(&name)?;
            }
        }
        self.active = None;
        self.records_since_checkpoint = 0;
        self.deltas_since_base = 0;
        self.last_ckpt_lsn = lsn;
        self.has_checkpoint = true;
        Ok(lsn)
    }

    /// Writes a *delta* checkpoint link whose parent is the current chain
    /// tip. Deletes nothing — that is what keeps fallback past a torn link
    /// sound — so its cost is O(payload), independent of database size.
    /// Returns `Ok(None)` without writing when no records landed since the
    /// last checkpoint. Requires a base checkpoint on disk; callers check
    /// [`has_checkpoint`](DurableStore::has_checkpoint) and write a base
    /// first.
    pub fn write_delta_checkpoint(&mut self, payload: &[u8]) -> StoreResult<Option<u64>> {
        if !self.has_checkpoint {
            return Err(StoreError::Corrupt(
                "delta checkpoint with no base checkpoint on disk".into(),
            ));
        }
        if self.records_since_checkpoint == 0 {
            return Ok(None);
        }
        let lsn = self.next_lsn;
        let blob = encode_chain_blob(DELTA_MAGIC, lsn, self.last_ckpt_lsn, payload);
        self.backend.write_atomic(&delta_name(lsn), &blob)?;
        self.backend.sync()?;
        self.records_since_checkpoint = 0;
        self.deltas_since_base += 1;
        self.last_ckpt_lsn = lsn;
        Ok(Some(lsn))
    }

    /// Re-encodes every segment fully covered by a base at `below` into a
    /// compressed cold blob. Idempotent: rewriting an existing cold blob
    /// produces identical content.
    fn cold_store_segments(&mut self, below: u64) -> StoreResult<()> {
        let seg_lsns = segment_lsns(self.backend.as_ref())?;
        for (i, &first) in seg_lsns.iter().enumerate() {
            let end = seg_lsns.get(i + 1).copied().unwrap_or(self.next_lsn);
            if end > below {
                continue;
            }
            let name = segment_name(first);
            let Some(raw) = self.backend.read(&name)? else {
                continue;
            };
            let blob = encode_cold_blob(first, end, &raw);
            self.backend.write_atomic(&cold_name(first, end), &blob)?;
        }
        Ok(())
    }

    /// Replays every record preserved in cold blobs, oldest first, as
    /// `(lsn, kind, payload)` — history older than the live log, kept for
    /// repair. Corrupt cold blobs are an error, not silent loss.
    pub fn replay_cold(&self) -> StoreResult<Vec<(u64, u8, Vec<u8>)>> {
        let mut ranges: Vec<(u64, u64)> = self
            .backend
            .list()?
            .iter()
            .filter_map(|n| parse_cold_name(n))
            .collect();
        ranges.sort_unstable();
        let mut records = Vec::new();
        for (first, end) in ranges {
            let name = cold_name(first, end);
            let blob = self
                .backend
                .read(&name)?
                .ok_or_else(|| StoreError::Corrupt(format!("cold blob {name} vanished")))?;
            let raw = decode_cold_blob(&blob, first, end)
                .ok_or_else(|| StoreError::Corrupt(format!("cold blob {name} is corrupt")))?;
            let mut lsn = first;
            let mut pos = SEGMENT_MAGIC.len();
            loop {
                match scan_record(&raw, pos) {
                    Scan::Record { kind, payload, end } => {
                        records.push((lsn, kind, payload.to_vec()));
                        lsn += 1;
                        pos = end;
                    }
                    Scan::End => break,
                    Scan::Torn { valid_end } => {
                        return Err(StoreError::Corrupt(format!(
                            "cold blob {name}: corrupt record at byte {valid_end}"
                        )));
                    }
                }
            }
        }
        Ok(records)
    }

    /// Deletes every cold blob (the GC path: once repair history is
    /// discarded, cold segments have no reader). Returns bytes freed.
    pub fn prune_cold_blobs(&mut self) -> StoreResult<u64> {
        let mut freed = 0u64;
        for name in self.backend.list()? {
            if parse_cold_name(&name).is_some() {
                if let Some(blob) = self.backend.read(&name)? {
                    freed += blob.len() as u64;
                }
                self.backend.delete(&name)?;
            }
        }
        if freed > 0 {
            self.backend.sync()?;
        }
        Ok(freed)
    }

    /// True once [`StoreOptions::checkpoint_interval`] records accumulated
    /// since the last checkpoint (base or delta).
    pub fn checkpoint_due(&self) -> bool {
        self.options.checkpoint_interval > 0
            && self.records_since_checkpoint >= self.options.checkpoint_interval
    }

    /// True if any checkpoint chain exists on disk (a delta has a parent
    /// to name).
    pub fn has_checkpoint(&self) -> bool {
        self.has_checkpoint
    }

    /// The LSN of the newest checkpoint link (the chain tip; 0 when none).
    pub fn last_checkpoint_lsn(&self) -> u64 {
        self.last_ckpt_lsn
    }

    /// Delta links written since the last base checkpoint.
    pub fn deltas_since_base(&self) -> usize {
        self.deltas_since_base
    }

    /// A second handle onto this store's backend, if the backend supports
    /// one — what the background maintenance worker runs over.
    pub fn clone_backend(&self) -> Option<Box<dyn StorageBackend>> {
        self.backend.try_clone()
    }

    /// The LSN the next record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records appended since the last checkpoint (the log tail length).
    pub fn tail_len(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Total bytes currently stored (segments, checkpoints, cold blobs).
    pub fn total_bytes(&self) -> StoreResult<u64> {
        self.backend.total_bytes()
    }

    /// Streams every record with LSN ≥ `from` out of the live segments, one
    /// segment at a time — the log-shipping resync path: a standby that
    /// lost frames asks to restart from its durable watermark, and the
    /// shipper frames the gap from here. `visit` gets each segment's
    /// records as `(kind, payload)` slices of the segment just read, with
    /// the LSN of the first; returning `false` stops the scan (the peer is
    /// gone). Segments wholly below `from` are not read at all.
    ///
    /// Returns `Ok(false)` when the segments cannot serve the stream — a
    /// base checkpoint compacted `from` away, or the log has a hole above
    /// it (a tail torn below the chain tip resumes in a fresh segment); the
    /// caller falls back to a full bootstrap, even if some segments were
    /// already visited. `from ≥ next_lsn` visits nothing.
    ///
    /// Only call on a quiescent store (the group-commit writer thread owns
    /// the store, so its shipper hook reads a consistent log).
    pub fn scan_records_from(
        &self,
        from: u64,
        mut visit: impl FnMut(u64, &[(u8, &[u8])]) -> bool,
    ) -> StoreResult<bool> {
        if from >= self.next_lsn {
            return Ok(true);
        }
        let seg_lsns = segment_lsns(self.backend.as_ref())?;
        // The segments serve `from` only if some segment starts at or
        // below it; anything older was compacted by a base checkpoint.
        let covering = seg_lsns.partition_point(|&first| first <= from);
        if covering == 0 {
            return Ok(false);
        }
        let mut next = seg_lsns[covering - 1];
        for &first_lsn in &seg_lsns[covering - 1..] {
            if first_lsn != next {
                return Ok(false);
            }
            let name = segment_name(first_lsn);
            let blob = self
                .backend
                .read(&name)?
                .ok_or_else(|| StoreError::Corrupt(format!("segment {name} vanished")))?;
            if blob.len() < SEGMENT_MAGIC.len() || &blob[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
                return Err(StoreError::Corrupt(format!("segment {name}: bad magic")));
            }
            let mut records = Vec::new();
            let mut pos = SEGMENT_MAGIC.len();
            loop {
                match scan_record(&blob, pos) {
                    Scan::Record { kind, payload, end } => {
                        if next >= from {
                            records.push((kind, payload));
                        }
                        next += 1;
                        pos = end;
                    }
                    Scan::End => break,
                    Scan::Torn { valid_end } => {
                        // A live store truncated any torn tail at open and
                        // has only written whole frames since.
                        return Err(StoreError::Corrupt(format!(
                            "segment {name}: corrupt record at byte {valid_end} in a live store"
                        )));
                    }
                }
            }
            if !records.is_empty() && !visit(next - records.len() as u64, &records) {
                break;
            }
        }
        Ok(true)
    }

    /// A consistent copy of every blob in the backend, for bootstrapping a
    /// standby whose restart LSN predates what the segments can serve.
    /// Consistency comes from *where* this runs: the group-commit writer
    /// thread owns the store, so nothing mutates the backend mid-copy.
    pub fn export_blobs(&self) -> StoreResult<Vec<(String, Vec<u8>)>> {
        let mut blobs = Vec::new();
        for name in self.backend.list()? {
            if let Some(bytes) = self.backend.read(&name)? {
                blobs.push((name, bytes));
            }
        }
        Ok(blobs)
    }
}

/// Encodes a cold blob: magic + first + end + raw_len + crc(raw) + packed.
fn encode_cold_blob(first_lsn: u64, end_lsn: u64, raw: &[u8]) -> Vec<u8> {
    let packed = compress::compress(raw);
    let mut blob = Vec::with_capacity(32 + packed.len());
    blob.extend_from_slice(COLD_MAGIC);
    blob.extend_from_slice(&first_lsn.to_le_bytes());
    blob.extend_from_slice(&end_lsn.to_le_bytes());
    blob.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    blob.extend_from_slice(&crc32(raw).to_le_bytes());
    blob.extend_from_slice(&packed);
    blob
}

/// Decodes and verifies a cold blob back into raw segment bytes.
fn decode_cold_blob(blob: &[u8], expected_first: u64, expected_end: u64) -> Option<Vec<u8>> {
    if blob.len() < 32 || &blob[..8] != COLD_MAGIC {
        return None;
    }
    let first = u64::from_le_bytes(blob[8..16].try_into().ok()?);
    let end = u64::from_le_bytes(blob[16..24].try_into().ok()?);
    let raw_len = u32::from_le_bytes(blob[24..28].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(blob[28..32].try_into().ok()?);
    if first != expected_first || end != expected_end {
        return None;
    }
    let raw = compress::decompress(&blob[32..], raw_len).ok()?;
    if crc32(&raw) != crc {
        return None;
    }
    Some(raw)
}

/// Combines a base checkpoint payload and the delta payloads chained on
/// it into one folded base payload; `None` when the payloads do not
/// decode.
pub(crate) type FoldFn = dyn Fn(&[u8], &[Vec<u8>]) -> Option<Vec<u8>>;

/// Folds the current delta chain into a new base checkpoint at the chain
/// tip, then deletes the subsumed chain blobs. Segments the new base
/// covers are *not* touched here — [`retire_covered_segments`] handles
/// them, so retention policy stays in one place. Runs on the maintenance
/// worker's *own* backend handle, concurrently with the writer appending:
/// the fold writes at the existing tip LSN, so delta links the writer adds
/// meanwhile still chain onto it.
///
/// `fold` combines a base payload and delta payloads into a new base
/// payload; `None` aborts the fold (payloads undecodable).
///
/// Returns the new base LSN, or `None` when the chain has fewer than
/// `min_deltas` links.
pub(crate) fn fold_chain(
    backend: &mut dyn StorageBackend,
    min_deltas: usize,
    fold: &FoldFn,
) -> StoreResult<Option<u64>> {
    let Some(chain) = scan_chain(backend)? else {
        return Ok(None);
    };
    if chain.delta_payloads.is_empty() || chain.delta_payloads.len() < min_deltas {
        return Ok(None);
    }
    let folded = fold(&chain.base_payload, &chain.delta_payloads)
        .ok_or_else(|| StoreError::Corrupt("checkpoint chain payloads failed to fold".into()))?;
    let tip = chain.tip_lsn;
    let new_name = base_name(tip);
    let blob = encode_chain_blob(BASE_MAGIC, tip, NO_PARENT, &folded);
    backend.write_atomic(&new_name, &blob)?;
    backend.sync()?;
    // Delete chain blobs the new base subsumes. Anything at a higher LSN
    // was written by the engine meanwhile and chains onto the new base.
    for name in backend.list()? {
        if let Some((lsn, kind)) = parse_checkpoint_blob_name(&name) {
            if lsn < tip || (lsn == tip && kind != CkptKind::Base) {
                backend.delete(&name)?;
            }
        }
    }
    Ok(Some(tip))
}

/// Deletes (or, with `cold_retention`, compresses then deletes) every
/// segment whose records all fall below `base_lsn`. The last listed
/// segment is never touched — the writer may be appending to it.
/// Returns `(cold_stored, deleted)` counts.
pub(crate) fn retire_covered_segments(
    backend: &mut dyn StorageBackend,
    base_lsn: u64,
    cold_retention: bool,
) -> StoreResult<(u64, u64)> {
    let seg_lsns = segment_lsns(backend)?;
    let mut cold_stored = 0u64;
    let mut deleted = 0u64;
    let mut doomed = Vec::new();
    // A segment is fully covered iff its successor starts at or below the
    // base LSN; the last segment has no successor and is left alone.
    for (i, &first) in seg_lsns.iter().enumerate() {
        let Some(&end) = seg_lsns.get(i + 1) else {
            break;
        };
        if end > base_lsn {
            continue;
        }
        let name = segment_name(first);
        if cold_retention {
            let Some(raw) = backend.read(&name)? else {
                continue;
            };
            let blob = encode_cold_blob(first, end, &raw);
            backend.write_atomic(&cold_name(first, end), &blob)?;
            cold_stored += 1;
        }
        doomed.push(name);
    }
    if !doomed.is_empty() {
        // Cold blobs (and the base that justified the deletions) must be
        // durable before the segments they replace disappear.
        backend.sync()?;
        for name in doomed {
            backend.delete(&name)?;
            deleted += 1;
        }
    }
    Ok((cold_stored, deleted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn open_mem(backend: &MemoryBackend, options: StoreOptions) -> (DurableStore, Recovered) {
        DurableStore::open(Box::new(backend.clone()), options).unwrap()
    }

    #[test]
    fn records_survive_reopen() {
        let mem = MemoryBackend::new();
        let (mut store, recovered) = open_mem(&mem, StoreOptions::default());
        assert!(recovered.records.is_empty());
        assert_eq!(store.append(1, b"alpha").unwrap(), 0);
        assert_eq!(store.append(2, b"beta").unwrap(), 1);
        drop(store);
        let (store, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(store.next_lsn(), 2);
        assert_eq!(
            recovered.records,
            vec![(0, 1, b"alpha".to_vec()), (1, 2, b"beta".to_vec())]
        );
        assert!(!recovered.torn_tail);
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 64,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        for i in 0..40u8 {
            store.append(i, &[i; 16]).unwrap();
        }
        let segments = mem
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("seg-"))
            .count();
        assert!(segments > 1, "log must have rolled, got {segments} segment");
        let (_, recovered) = open_mem(&mem, options);
        assert_eq!(recovered.records.len(), 40);
        for (i, (lsn, kind, payload)) in recovered.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(*kind, i as u8);
            assert_eq!(payload, &vec![i as u8; 16]);
        }
    }

    #[test]
    fn append_batch_assigns_consecutive_lsns_and_recovers() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"solo").unwrap();
        let first = store
            .append_batch(&[(2, b"a".to_vec()), (3, b"b".to_vec()), (4, b"c".to_vec())])
            .unwrap();
        assert_eq!(first, 1);
        assert_eq!(store.next_lsn(), 4);
        // An empty batch is a no-op that still reports the next LSN.
        assert_eq!(store.append_batch::<&[u8]>(&[]).unwrap(), 4);
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(
            recovered.records,
            vec![
                (0, 1, b"solo".to_vec()),
                (1, 2, b"a".to_vec()),
                (2, 3, b"b".to_vec()),
                (3, 4, b"c".to_vec()),
            ]
        );
    }

    #[test]
    fn batches_are_not_split_across_segments() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 48,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        // One batch far larger than a segment stays in one segment...
        let batch: Vec<(u8, Vec<u8>)> = (0..8).map(|i| (i, vec![i; 16])).collect();
        store.append_batch(&batch).unwrap();
        let segments = mem
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("seg-"))
            .count();
        assert_eq!(segments, 1, "a batch must land in one segment");
        // ...and the next append rolls to a fresh one.
        store.append(9, b"next").unwrap();
        let segments = mem
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("seg-"))
            .count();
        assert_eq!(segments, 2);
        let (_, recovered) = open_mem(&mem, options);
        assert_eq!(recovered.records.len(), 9);
        assert_eq!(recovered.records[8], (8, 9, b"next".to_vec()));
    }

    type Numbered = Vec<(u64, u8, Vec<u8>)>;

    /// Collects what [`DurableStore::scan_records_from`] visits, as
    /// `(lsn, kind, payload)`, with the number of visits.
    fn scan_from(store: &DurableStore, from: u64) -> Option<(Numbered, usize)> {
        let mut seen = Vec::new();
        let mut visits = 0;
        let served = store
            .scan_records_from(from, |first_lsn, records| {
                visits += 1;
                for (i, (kind, payload)) in records.iter().enumerate() {
                    seen.push((first_lsn + i as u64, *kind, payload.to_vec()));
                }
                true
            })
            .unwrap();
        served.then_some((seen, visits))
    }

    #[test]
    fn scan_from_streams_the_gap_one_segment_at_a_time() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 64,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        for i in 0..20u8 {
            store.append(i, &[i; 16]).unwrap();
        }
        let segments = mem
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("seg-"))
            .count();
        let (all, visits) = scan_from(&store, 0).unwrap();
        assert_eq!(visits, segments);
        assert_eq!(all.len(), 20);
        for (i, (lsn, kind, payload)) in all.iter().enumerate() {
            assert_eq!((*lsn, *kind), (i as u64, i as u8));
            assert_eq!(payload, &vec![i as u8; 16]);
        }
        // A mid-segment start trims that segment and skips the ones below.
        let (tail, visits) = scan_from(&store, 13).unwrap();
        assert_eq!(tail, all[13..]);
        assert!(visits < segments);
        // Caught up already: served, nothing to visit.
        assert_eq!(scan_from(&store, 20), Some((Vec::new(), 0)));
        // The visitor can stop the scan.
        let mut visits = 0;
        let served = store.scan_records_from(0, |_, _| {
            visits += 1;
            false
        });
        assert!(served.unwrap());
        assert_eq!(visits, 1);
    }

    #[test]
    fn scan_from_refuses_what_the_segments_no_longer_hold() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 1 << 20,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        store.append(1, b"one").unwrap();
        store.append(1, b"two").unwrap();
        store.write_checkpoint(b"BASE@2").unwrap();
        store.append(1, b"three").unwrap();
        store.append(1, b"four").unwrap();
        // Compacted away by the base.
        assert_eq!(scan_from(&store, 1), None);
        assert_eq!(scan_from(&store, 2).unwrap().0.len(), 2);
        store.write_delta_checkpoint(b"D@4").unwrap();
        drop(store);
        // Tear record four: the delta still covers it, so the store resumes
        // at LSN 4 in a fresh segment and the log has a hole at LSN 3.
        let name = segment_name(2);
        let full = mem.read(&name).unwrap().unwrap().len();
        mem.truncate_blob(&name, full - 2);
        let (mut store, _) = open_mem(&mem, options);
        store.append(1, b"five").unwrap();
        assert_eq!(scan_from(&store, 2), None, "a hole above `from`");
        assert_eq!(scan_from(&store, 3), None, "`from` inside the hole");
        assert_eq!(
            scan_from(&store, 4).unwrap().0,
            vec![(4, 1, b"five".to_vec())]
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"kept").unwrap();
        store.append(1, b"torn away").unwrap();
        let name = segment_name(0);
        let full = mem.read(&name).unwrap().unwrap().len();
        mem.truncate_blob(&name, full - 3);
        let (mut store, recovered) = open_mem(&mem, StoreOptions::default());
        assert!(recovered.torn_tail);
        assert_eq!(recovered.records, vec![(0, 1, b"kept".to_vec())]);
        // The store reuses LSN 1 for the next record and stays consistent.
        assert_eq!(store.append(1, b"replacement").unwrap(), 1);
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(
            recovered.records,
            vec![(0, 1, b"kept".to_vec()), (1, 1, b"replacement".to_vec())]
        );
    }

    #[test]
    fn corrupt_bytes_inside_the_log_are_an_error_not_data_loss() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 32,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        for _ in 0..8 {
            store.append(1, b"0123456789abcdef").unwrap();
        }
        // Flip a byte in the FIRST segment (not the tail).
        let first = segment_name(0);
        let mut blob = mem.read(&first).unwrap().unwrap();
        let idx = blob.len() - 4;
        blob[idx] ^= 0xFF;
        let mut handle = mem.clone();
        handle.write_atomic(&first, &blob).unwrap();
        let err = DurableStore::open(Box::new(mem.clone()), options).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn checkpoint_compacts_and_recovers() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"one").unwrap();
        store.append(1, b"two").unwrap();
        let lsn = store.write_checkpoint(b"STATE@2").unwrap();
        assert_eq!(lsn, 2);
        // The log was compacted away.
        assert!(mem.list().unwrap().iter().all(|n| !n.starts_with("seg-")));
        store.append(1, b"three").unwrap();
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"STATE@2".as_slice()));
        assert_eq!(recovered.checkpoint_lsn, 2);
        assert_eq!(recovered.records, vec![(2, 1, b"three".to_vec())]);
    }

    #[test]
    fn newer_checkpoint_replaces_older_ones() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"a").unwrap();
        store.write_checkpoint(b"CKPT1").unwrap();
        store.append(1, b"b").unwrap();
        store.write_checkpoint(b"CKPT2").unwrap();
        let ckpts: Vec<String> = mem
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("ckpt-"))
            .collect();
        assert_eq!(
            ckpts.len(),
            1,
            "older checkpoint must be deleted: {ckpts:?}"
        );
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"CKPT2".as_slice()));
        assert!(recovered.records.is_empty());
    }

    #[test]
    fn corrupt_checkpoint_is_ignored_if_log_still_covers_it() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 1 << 20,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        store.append(7, b"only record").unwrap();
        // A checkpoint blob that fails its CRC: recovery falls back to the
        // full log.
        let mut handle = mem.clone();
        handle.write_atomic(&base_name(1), b"garbage").unwrap();
        let (_, recovered) = open_mem(&mem, options);
        assert!(recovered.checkpoint.is_none());
        assert_eq!(recovered.records, vec![(0, 7, b"only record".to_vec())]);
    }

    #[test]
    fn checkpoint_due_follows_interval() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 1 << 20,
            checkpoint_interval: 3,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        store.append(1, b"x").unwrap();
        store.append(1, b"x").unwrap();
        assert!(!store.checkpoint_due());
        store.append(1, b"x").unwrap();
        assert!(store.checkpoint_due());
        store.write_checkpoint(b"S").unwrap();
        assert!(!store.checkpoint_due());
        assert_eq!(store.tail_len(), 0);
    }

    #[test]
    fn delta_checkpoints_chain_and_recover() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"a").unwrap();
        store.write_checkpoint(b"BASE@1").unwrap();
        store.append(1, b"b").unwrap();
        assert_eq!(store.write_delta_checkpoint(b"D@2").unwrap(), Some(2));
        // No new records: a delta is a no-op.
        assert_eq!(store.write_delta_checkpoint(b"noop").unwrap(), None);
        store.append(1, b"c").unwrap();
        store.append(1, b"d").unwrap();
        assert_eq!(store.write_delta_checkpoint(b"D@4").unwrap(), Some(4));
        store.append(1, b"tail").unwrap();
        assert_eq!(store.deltas_since_base(), 2);
        assert_eq!(store.last_checkpoint_lsn(), 4);
        drop(store);

        let (store, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"BASE@1".as_slice()));
        assert_eq!(
            recovered.deltas,
            vec![b"D@2".to_vec(), b"D@4".to_vec()],
            "deltas fold oldest first"
        );
        assert_eq!(recovered.checkpoint_lsn, 4);
        assert_eq!(recovered.records, vec![(4, 1, b"tail".to_vec())]);
        assert_eq!(store.deltas_since_base(), 2);
        // Deltas deleted nothing: records b..d are still in segments.
        assert!(mem.list().unwrap().iter().any(|n| n.starts_with("seg-")));
    }

    #[test]
    fn delta_checkpoint_without_a_base_is_an_error() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"x").unwrap();
        assert!(!store.has_checkpoint());
        assert!(store.write_delta_checkpoint(b"D").is_err());
    }

    #[test]
    fn torn_delta_link_falls_back_to_the_previous_chain() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"a").unwrap();
        store.write_checkpoint(b"BASE@1").unwrap();
        store.append(1, b"b").unwrap();
        store.write_delta_checkpoint(b"D@2").unwrap();
        store.append(1, b"c").unwrap();
        store.write_delta_checkpoint(b"D@3").unwrap();
        drop(store);
        // Corrupt the newest delta: recovery falls back to the chain
        // ending at D@2 and replays record c from the (retained) log.
        let mut handle = mem.clone();
        let newest = delta_name(3);
        let mut blob = mem.read(&newest).unwrap().unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0xFF;
        handle.write_atomic(&newest, &blob).unwrap();
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"BASE@1".as_slice()));
        assert_eq!(recovered.deltas, vec![b"D@2".to_vec()]);
        assert_eq!(recovered.checkpoint_lsn, 2);
        assert_eq!(recovered.records, vec![(2, 1, b"c".to_vec())]);
    }

    #[test]
    fn broken_mid_chain_link_falls_back_to_the_base() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"a").unwrap();
        store.write_checkpoint(b"BASE@1").unwrap();
        store.append(1, b"b").unwrap();
        store.write_delta_checkpoint(b"D@2").unwrap();
        store.append(1, b"c").unwrap();
        store.write_delta_checkpoint(b"D@3").unwrap();
        drop(store);
        // Delete the MIDDLE link: the chain ending at D@3 is unresolvable,
        // and the D@2 candidate is gone too, so recovery lands on the base
        // and replays b and c from segments.
        let mut handle = mem.clone();
        handle.delete(&delta_name(2)).unwrap();
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"BASE@1".as_slice()));
        assert!(recovered.deltas.is_empty());
        assert_eq!(recovered.checkpoint_lsn, 1);
        assert_eq!(
            recovered.records,
            vec![(1, 1, b"b".to_vec()), (2, 1, b"c".to_vec())]
        );
    }

    #[test]
    fn log_torn_below_the_chain_tip_resumes_at_the_tip() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 1 << 20,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        store.write_checkpoint(b"BASE@0").unwrap();
        store.append(1, b"one").unwrap();
        store.append(1, b"two").unwrap();
        store.write_delta_checkpoint(b"D@2").unwrap();
        drop(store);
        // Tear the segment back to before record two. The delta still
        // covers both records, so nothing is lost; the store must resume
        // appending at the tip.
        let name = segment_name(0);
        let full = mem.read(&name).unwrap().unwrap().len();
        mem.truncate_blob(&name, full - 5);
        let (mut store, recovered) = open_mem(&mem, options);
        assert_eq!(recovered.checkpoint_lsn, 2);
        assert_eq!(recovered.deltas, vec![b"D@2".to_vec()]);
        assert!(recovered.records.is_empty());
        assert_eq!(store.next_lsn(), 2);
        assert_eq!(store.append(1, b"three").unwrap(), 2);
        let (_, recovered) = open_mem(&mem, options);
        assert_eq!(recovered.records, vec![(2, 1, b"three".to_vec())]);
    }

    #[test]
    fn base_checkpoint_with_cold_retention_keeps_history_replayable() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 64,
            checkpoint_interval: 0,
            cold_retention: true,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        for i in 0..20u8 {
            store.append(i, &[i; 16]).unwrap();
        }
        store.write_checkpoint(b"BASE@20").unwrap();
        let names = mem.list().unwrap();
        assert!(names.iter().all(|n| !n.starts_with("seg-")));
        assert!(
            names.iter().any(|n| n.starts_with("cold-")),
            "cold blobs must exist: {names:?}"
        );
        // Cold records replay exactly, oldest first.
        let cold = store.replay_cold().unwrap();
        assert_eq!(cold.len(), 20);
        for (i, (lsn, kind, payload)) in cold.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(*kind, i as u8);
            assert_eq!(payload, &vec![i as u8; 16]);
        }
        // Recovery ignores cold blobs entirely.
        let (mut store, recovered) = open_mem(&mem, options);
        assert_eq!(recovered.checkpoint_lsn, 20);
        assert!(recovered.records.is_empty());
        // GC reclaims them.
        let freed = store.prune_cold_blobs().unwrap();
        assert!(freed > 0);
        assert!(mem.list().unwrap().iter().all(|n| !n.starts_with("cold-")));
        assert!(store.replay_cold().unwrap().is_empty());
    }

    #[test]
    fn fold_chain_rewrites_the_chain_as_one_base() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.append(1, b"a").unwrap();
        store.write_checkpoint(b"B").unwrap();
        store.append(1, b"b").unwrap();
        store.write_delta_checkpoint(b"1").unwrap();
        store.append(1, b"c").unwrap();
        store.write_delta_checkpoint(b"2").unwrap();
        store.append(1, b"tail").unwrap();
        // Concatenating payloads stands in for the real state fold.
        let fold = |base: &[u8], deltas: &[Vec<u8>]| {
            let mut out = base.to_vec();
            for d in deltas {
                out.extend_from_slice(d);
            }
            Some(out)
        };
        let mut handle: Box<dyn StorageBackend> = Box::new(mem.clone());
        let lsn = fold_chain(handle.as_mut(), 2, &fold).unwrap();
        assert_eq!(lsn, Some(3));
        // Below the threshold, folding is a no-op.
        assert_eq!(fold_chain(handle.as_mut(), 2, &fold).unwrap(), None);
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"B12".as_slice()));
        assert!(recovered.deltas.is_empty());
        assert_eq!(recovered.checkpoint_lsn, 3);
        assert_eq!(recovered.records, vec![(3, 1, b"tail".to_vec())]);
        // Exactly one checkpoint blob remains.
        let ckpts = mem
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("ckpt-"))
            .count();
        assert_eq!(ckpts, 1);
    }

    #[test]
    fn fold_then_more_deltas_still_chain_correctly() {
        let mem = MemoryBackend::new();
        let (mut store, _) = open_mem(&mem, StoreOptions::default());
        store.write_checkpoint(b"B").unwrap();
        store.append(1, b"x").unwrap();
        store.write_delta_checkpoint(b"1").unwrap();
        let fold = |base: &[u8], deltas: &[Vec<u8>]| {
            let mut out = base.to_vec();
            for d in deltas {
                out.extend_from_slice(d);
            }
            Some(out)
        };
        let mut handle: Box<dyn StorageBackend> = Box::new(mem.clone());
        assert_eq!(fold_chain(handle.as_mut(), 1, &fold).unwrap(), Some(1));
        // The store handle did not observe the fold, but its tip LSN is
        // unchanged (the fold wrote the base *at* the tip), so the next
        // delta's parent link resolves to the folded base.
        store.append(1, b"y").unwrap();
        store.write_delta_checkpoint(b"2").unwrap();
        let (_, recovered) = open_mem(&mem, StoreOptions::default());
        assert_eq!(recovered.checkpoint.as_deref(), Some(b"B1".as_slice()));
        assert_eq!(recovered.deltas, vec![b"2".to_vec()]);
        assert_eq!(recovered.checkpoint_lsn, 2);
    }

    #[test]
    fn retire_covered_segments_never_touches_the_last_segment() {
        let mem = MemoryBackend::new();
        let options = StoreOptions {
            segment_bytes: 64,
            checkpoint_interval: 0,
            ..StoreOptions::default()
        };
        let (mut store, _) = open_mem(&mem, options);
        for i in 0..30u8 {
            store.append(1, &[i; 16]).unwrap();
        }
        let segments_before = mem
            .list()
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("seg-"))
            .count();
        assert!(segments_before >= 3);
        // Pretend a base exists at the current head: every segment except
        // the last is fully covered.
        let mut handle: Box<dyn StorageBackend> = Box::new(mem.clone());
        let (cold, deleted) =
            retire_covered_segments(handle.as_mut(), store.next_lsn(), true).unwrap();
        assert_eq!(cold as usize, segments_before - 1);
        assert_eq!(deleted as usize, segments_before - 1);
        let names = mem.list().unwrap();
        assert_eq!(names.iter().filter(|n| n.starts_with("seg-")).count(), 1);
        // The store keeps appending into its (untouched) active segment.
        store.append(1, b"after").unwrap();
    }
}
