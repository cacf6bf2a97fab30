//! Log-shipping frames and the writer-thread hook that emits them.
//!
//! Replication reuses the durable log as a live stream: every batch the
//! group-commit writer makes durable is also *shipped* — framed with its
//! first LSN and a CRC and handed to a [`ShipperHook`] running on the
//! writer thread itself. The hook has `&mut DurableStore` access between
//! batches, which is what makes resync cheap and race-free: when a standby
//! asks to restart from its durable watermark, the hook re-reads the gap
//! straight out of the live segments ([`DurableStore::scan_records_from`]),
//! or falls back to copying the whole store
//! ([`DurableStore::export_blobs`]) when a base checkpoint already
//! compacted the requested records away.
//!
//! This module defines only the *frame vocabulary* and the hook trait; the
//! shipper and standby state machines live in the `warp-replica` crate, on
//! top of `warp-core`'s event encoding. Keeping the frame codec here means
//! both ends agree on bytes without `warp-replica` reaching into segment
//! internals.
//!
//! # Wire format
//!
//! Every frame is self-delimiting and self-checking, mirroring the segment
//! record framing:
//!
//! ```text
//! [len: u32][crc32: u32][body: len bytes]
//! ```
//!
//! `crc32` covers the body; the body starts with a one-byte tag followed
//! by [`codec`](crate::codec)-encoded fields. A frame that fails the
//! length or CRC check decodes to `None` — the receiver treats that as a
//! torn stream and requests a restart from its watermark.

use crate::codec::{crc32, CodecError, Decoder, Encoder};
use crate::log::DurableStore;

/// Byte count of the `[len][crc]` frame header.
pub const FRAME_HEADER: usize = 8;

/// Frames cannot exceed this body size (a decode guard against reading a
/// garbage length out of a corrupt stream and allocating it).
pub const MAX_FRAME_BODY: usize = 1 << 30;

const TAG_RECORDS: u8 = 1;
const TAG_WATERMARK: u8 = 2;
const TAG_RESTART: u8 = 3;
const TAG_BOOTSTRAP: u8 = 4;

/// One message on the replication stream, in either direction. Record
/// payloads and bootstrap blobs are *borrowed*: the sender frames them
/// straight out of the segment (or batch) that holds them, and a decoded
/// frame points into the received bytes — neither end copies a payload to
/// build or to read a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipFrame<'a> {
    /// Shipper → standby: a durable batch. `first_lsn` is the LSN of
    /// `records[0]`; the rest follow consecutively.
    Records {
        /// LSN of the first record in the batch.
        first_lsn: u64,
        /// The `(kind, payload)` records, exactly as appended.
        records: Vec<(u8, &'a [u8])>,
    },
    /// Shipper → standby: heartbeat carrying the primary's durable LSN,
    /// so lag is measurable even when no records flow.
    Watermark {
        /// The primary's durable LSN (next LSN to be assigned).
        durable_lsn: u64,
    },
    /// Standby → shipper: start (or restart, after a torn frame) shipping
    /// from this LSN. Sent once at attach as the hello, and again whenever
    /// the standby detects a gap or a corrupt frame.
    Restart {
        /// The LSN the standby wants next — its durable watermark.
        from: u64,
    },
    /// Shipper → standby: a full consistent copy of the primary's store,
    /// sent when the requested restart LSN predates what the live segments
    /// can serve. The standby replaces its store wholesale and resumes at
    /// `next_lsn`.
    Bootstrap {
        /// Every blob in the primary's backend at the copy instant.
        blobs: Vec<(&'a str, &'a [u8])>,
        /// The primary's next LSN at the copy instant; streaming resumes
        /// here.
        next_lsn: u64,
    },
}

impl<'a> ShipFrame<'a> {
    /// Encodes the frame, header included, ready for any transport. The
    /// frame is built in one exactly-sized buffer: each payload byte is
    /// copied into it once and checksummed once.
    pub fn encode(&self) -> Vec<u8> {
        // Tag, one u64, and for the sequences a count plus a length prefix
        // (and a kind byte) per element.
        let body_len = 1
            + 8
            + match self {
                ShipFrame::Records { records, .. } => {
                    4 + records.iter().map(|(_, p)| 1 + 4 + p.len()).sum::<usize>()
                }
                ShipFrame::Bootstrap { blobs, .. } => {
                    4 + blobs
                        .iter()
                        .map(|(n, b)| 4 + n.len() + 4 + b.len())
                        .sum::<usize>()
                }
                ShipFrame::Watermark { .. } | ShipFrame::Restart { .. } => 0,
            };
        let mut enc = Encoder::with_capacity(FRAME_HEADER + body_len);
        // The header is filled in once the body it describes is in place.
        enc.u64(0);
        match self {
            ShipFrame::Records { first_lsn, records } => {
                enc.u8(TAG_RECORDS);
                enc.u64(*first_lsn);
                enc.seq(records, |e, (kind, payload)| {
                    e.u8(*kind);
                    e.bytes(payload);
                });
            }
            ShipFrame::Watermark { durable_lsn } => {
                enc.u8(TAG_WATERMARK);
                enc.u64(*durable_lsn);
            }
            ShipFrame::Restart { from } => {
                enc.u8(TAG_RESTART);
                enc.u64(*from);
            }
            ShipFrame::Bootstrap { blobs, next_lsn } => {
                enc.u8(TAG_BOOTSTRAP);
                enc.u64(*next_lsn);
                enc.seq(blobs, |e, (name, bytes)| {
                    e.str(name);
                    e.bytes(bytes);
                });
            }
        }
        let mut frame = enc.into_bytes();
        let (header, body) = frame.split_at_mut(FRAME_HEADER);
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(body).to_le_bytes());
        frame
    }

    /// Decodes one whole frame (header included); record payloads and blobs
    /// stay slices of `frame`. `None` means torn or corrupt — wrong length,
    /// bad CRC, or an undecodable body.
    pub fn decode(frame: &'a [u8]) -> Option<ShipFrame<'a>> {
        if frame.len() < FRAME_HEADER {
            return None;
        }
        let len = u32::from_le_bytes(frame[0..4].try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(frame[4..8].try_into().ok()?);
        if len > MAX_FRAME_BODY || frame.len() != FRAME_HEADER + len {
            return None;
        }
        let body = &frame[FRAME_HEADER..];
        if crc32(body) != crc {
            return None;
        }
        let mut dec = Decoder::new(body);
        let frame = match dec.u8().ok()? {
            TAG_RECORDS => {
                let first_lsn = dec.u64().ok()?;
                let records = dec.seq(|d| Ok((d.u8()?, d.slice()?))).ok()?;
                ShipFrame::Records { first_lsn, records }
            }
            TAG_WATERMARK => ShipFrame::Watermark {
                durable_lsn: dec.u64().ok()?,
            },
            TAG_RESTART => ShipFrame::Restart {
                from: dec.u64().ok()?,
            },
            TAG_BOOTSTRAP => {
                let next_lsn = dec.u64().ok()?;
                let blobs = dec
                    .seq(|d| {
                        let name = std::str::from_utf8(d.slice()?)
                            .map_err(|e| CodecError(format!("invalid UTF-8 blob name: {e}")))?;
                        Ok((name, d.slice()?))
                    })
                    .ok()?;
                ShipFrame::Bootstrap { blobs, next_lsn }
            }
            _ => return None,
        };
        dec.finish().ok()?;
        Some(frame)
    }
}

/// A replication hook run *on the group-commit writer thread*. Attached
/// via [`GroupCommitWriter::spawn_with_shipper`](crate::writer::GroupCommitWriter::spawn_with_shipper).
///
/// Both methods get `&mut DurableStore` because they run between batches
/// on the thread that owns the store — resync reads see a fully
/// consistent log with no locking.
pub trait ShipperHook: Send {
    /// Called after each batch becomes durable, *before* durability
    /// callbacks run. `first_lsn` is the LSN the batch started at.
    fn batch_durable(
        &mut self,
        store: &mut DurableStore,
        first_lsn: u64,
        records: &[(u8, Vec<u8>)],
    );

    /// Called when the writer is idle (and once at shutdown), so the hook
    /// can service standby control traffic (restarts, heartbeats) even
    /// when no records flow.
    fn poll(&mut self, store: &mut DurableStore);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<ShipFrame<'static>> {
        vec![
            ShipFrame::Records {
                first_lsn: 42,
                records: vec![(1, b"alpha"), (7, b""), (4, &[0xff; 9])],
            },
            ShipFrame::Watermark { durable_lsn: 99 },
            ShipFrame::Restart { from: 0 },
            ShipFrame::Bootstrap {
                blobs: vec![("seg-0.log", &[1, 2, 3])],
                next_lsn: 17,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            assert_eq!(ShipFrame::decode(&bytes), Some(frame));
        }
    }

    /// The bytes the owned-`Vec` encoder this one replaced produced for the
    /// same frames: borrowing the payloads changed no byte on the wire.
    #[test]
    fn borrowed_encoding_is_byte_equal_to_the_owned_one() {
        let frames = sample_frames();
        let records: &[u8] = &[
            42, 0, 0, 0, 64, 195, 181, 137, 1, 42, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 5, 0, 0, 0,
            97, 108, 112, 104, 97, 7, 0, 0, 0, 0, 4, 9, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255,
            255, 255,
        ];
        let bootstrap: &[u8] = &[
            33, 0, 0, 0, 94, 186, 0, 103, 4, 17, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 115,
            101, 103, 45, 48, 46, 108, 111, 103, 3, 0, 0, 0, 1, 2, 3,
        ];
        assert_eq!(frames[0].encode(), records);
        assert_eq!(frames[3].encode(), bootstrap);
        // The buffer was sized exactly: no reallocation copied the body.
        let encoded = frames[0].encode();
        assert_eq!(encoded.capacity(), encoded.len());
    }

    #[test]
    fn torn_and_corrupt_frames_decode_to_none() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert_eq!(ShipFrame::decode(&bytes[..cut]), None, "cut at {cut}");
            }
            // Every single-bit flip — in the length, the CRC, the tag, a
            // count, a payload — is caught, and none panics the decoder.
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(ShipFrame::decode(&flipped), None, "bit {bit} flipped");
            }
            let mut extended = bytes;
            extended.push(0);
            assert_eq!(ShipFrame::decode(&extended), None);
        }
    }

    /// A body that passes the CRC but lies about its contents (a count or a
    /// length larger than the bytes that follow) is rejected, not trusted.
    #[test]
    fn well_checksummed_garbage_bodies_decode_to_none() {
        let bodies: [&[u8]; 4] = [
            &[TAG_RECORDS, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff],
            &[
                TAG_RECORDS,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                1,
                0,
                0,
                0,
                9,
                0xff,
                0xff,
                0xff,
                0x7f,
            ],
            &[
                TAG_BOOTSTRAP,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                0,
                1,
                0,
                0,
                0,
                1,
                0,
                0,
                0,
                0xff,
                0,
                0,
                0,
                0,
            ],
            &[9, 1, 2, 3],
        ];
        for body in bodies {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&crc32(body).to_le_bytes());
            frame.extend_from_slice(body);
            assert_eq!(ShipFrame::decode(&frame), None, "body {body:?}");
        }
    }
}
