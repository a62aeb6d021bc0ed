//! Physical encoding of durable SSC metadata.
//!
//! §4.2.2 specifies the record format: "A log record consists of a
//! monotonically increasing log sequence number, the logical and physical
//! block addresses, and an identifier indicating whether this is a
//! page-level or block-level mapping." This module serializes records and
//! checkpoints into the exact bytes the device would flush, with a CRC-32
//! frame so recovery can detect torn tails — which is what makes the
//! atomic-append assumption and the two-slot checkpoint scheme *testable*
//! rather than assumed.
//!
//! ## Log record frame (40 bytes, [`crate::wal::RECORD_BYTES`])
//!
//! ```text
//! offset  size  field
//!      0     8  log sequence number
//!      8     1  record type tag
//!      9     8  logical address (LBA or LBN)
//!     17     8  physical address / packed pointer (or 0)
//!     25     8  bitmap payload (valid bitmap for InsertBlock, else 0)
//!     33     3  reserved (zero)
//!     36     4  CRC-32 over bytes 0..36
//! ```
//!
//! `InsertBlock` carries two 64-bit bitmaps (valid and dirty), which do
//! not fit one frame alongside its addresses; it is therefore the one
//! two-frame record: frame A (`TAG_INSERT_BLOCK`) carries lbn/pbn/valid,
//! frame B (`TAG_INSERT_BLOCK_DIRTY`) carries lbn/pbn/dirty. Recovery
//! treats an A without its intact B as torn — safe, because the pair is
//! always flushed inside one atomic append.

use simkit::crc32;

use crate::wal::{LogRecord, RECORD_BYTES};

const TAG_INSERT_PAGE: u8 = 1;
const TAG_REMOVE_PAGE: u8 = 2;
const TAG_INSERT_BLOCK: u8 = 3;
const TAG_INSERT_BLOCK_DIRTY: u8 = 4;
const TAG_REMOVE_BLOCK: u8 = 5;
const TAG_MASK_BLOCK_PAGE: u8 = 6;
const TAG_SET_CLEAN: u8 = 7;
/// Dirty flag folded into the tag for InsertPage.
const FLAG_DIRTY: u8 = 0x80;

/// One wire frame.
type Frame = [u8; RECORD_BYTES as usize];

fn frame(lsn: u64, tag: u8, logical: u64, physical: u64, bitmap: u64) -> Frame {
    let mut out = [0u8; RECORD_BYTES as usize];
    out[0..8].copy_from_slice(&lsn.to_le_bytes());
    out[8] = tag;
    out[9..17].copy_from_slice(&logical.to_le_bytes());
    out[17..25].copy_from_slice(&physical.to_le_bytes());
    out[25..33].copy_from_slice(&bitmap.to_le_bytes());
    let crc = crc32(&out[0..36]);
    out[36..40].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Appends the one or two CRC-framed wire frames for `record` directly to
/// a byte stream, with no per-record frame `Vec`, so flush and checkpoint
/// loops can encode thousands of records with zero heap traffic.
pub(crate) fn encode_record_into(lsn: u64, record: &LogRecord, out: &mut Vec<u8>) {
    match *record {
        LogRecord::InsertPage { lba, ppn, dirty } => {
            let tag = TAG_INSERT_PAGE | if dirty { FLAG_DIRTY } else { 0 };
            out.extend_from_slice(&frame(lsn, tag, lba, ppn, 0));
        }
        LogRecord::RemovePage { lba } => {
            out.extend_from_slice(&frame(lsn, TAG_REMOVE_PAGE, lba, 0, 0))
        }
        LogRecord::InsertBlock {
            lbn,
            pbn,
            valid,
            dirty,
        } => {
            out.extend_from_slice(&frame(lsn, TAG_INSERT_BLOCK, lbn, pbn, valid));
            out.extend_from_slice(&frame(lsn, TAG_INSERT_BLOCK_DIRTY, lbn, pbn, dirty));
        }
        LogRecord::RemoveBlock { lbn } => {
            out.extend_from_slice(&frame(lsn, TAG_REMOVE_BLOCK, lbn, 0, 0))
        }
        LogRecord::MaskBlockPage { lba } => {
            out.extend_from_slice(&frame(lsn, TAG_MASK_BLOCK_PAGE, lba, 0, 0))
        }
        LogRecord::SetClean { lba } => out.extend_from_slice(&frame(lsn, TAG_SET_CLEAN, lba, 0, 0)),
    }
}

/// Number of wire frames [`encode_record_into`] appends for `record`.
pub(crate) fn record_frames(record: &LogRecord) -> u64 {
    match record {
        LogRecord::InsertBlock { .. } => 2,
        _ => 1,
    }
}

/// Result of decoding a frame stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DecodeEnd {
    /// Every frame decoded cleanly.
    Clean,
    /// Decoding stopped at byte offset because of a bad CRC, a truncated
    /// frame, an unknown tag, or a torn two-frame record.
    Torn {
        /// Offset of the first unusable byte.
        at: usize,
    },
}

/// Decodes a byte stream of frames back into `(lsn, record)` pairs,
/// stopping (not failing) at the first sign of a torn tail.
pub(crate) fn decode_records(bytes: &[u8]) -> (Vec<(u64, LogRecord)>, DecodeEnd) {
    let frame_len = RECORD_BYTES as usize;
    let mut out = Vec::new();
    let mut offset = 0;
    while offset + frame_len <= bytes.len() {
        let buf = &bytes[offset..offset + frame_len];
        let stored_crc = u32::from_le_bytes(buf[36..40].try_into().expect("4 bytes"));
        if crc32(&buf[0..36]) != stored_crc {
            return (out, DecodeEnd::Torn { at: offset });
        }
        let lsn = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
        let tag = buf[8];
        let logical = u64::from_le_bytes(buf[9..17].try_into().expect("8 bytes"));
        let physical = u64::from_le_bytes(buf[17..25].try_into().expect("8 bytes"));
        let bitmap = u64::from_le_bytes(buf[25..33].try_into().expect("8 bytes"));
        let record = match tag & !FLAG_DIRTY {
            TAG_INSERT_PAGE => LogRecord::InsertPage {
                lba: logical,
                ppn: physical,
                dirty: tag & FLAG_DIRTY != 0,
            },
            TAG_REMOVE_PAGE => LogRecord::RemovePage { lba: logical },
            TAG_INSERT_BLOCK => {
                // Two-frame record: the dirty half must follow intact.
                let next = offset + frame_len;
                if next + frame_len > bytes.len() {
                    return (out, DecodeEnd::Torn { at: offset });
                }
                let buf2 = &bytes[next..next + frame_len];
                let crc2 = u32::from_le_bytes(buf2[36..40].try_into().expect("4 bytes"));
                if crc32(&buf2[0..36]) != crc2 || buf2[8] != TAG_INSERT_BLOCK_DIRTY {
                    return (out, DecodeEnd::Torn { at: offset });
                }
                let dirty = u64::from_le_bytes(buf2[25..33].try_into().expect("8 bytes"));
                offset = next;
                LogRecord::InsertBlock {
                    lbn: logical,
                    pbn: physical,
                    valid: bitmap,
                    dirty,
                }
            }
            TAG_INSERT_BLOCK_DIRTY => {
                // A dirty half without its leading half: torn.
                return (out, DecodeEnd::Torn { at: offset });
            }
            TAG_REMOVE_BLOCK => LogRecord::RemoveBlock { lbn: logical },
            TAG_MASK_BLOCK_PAGE => LogRecord::MaskBlockPage { lba: logical },
            TAG_SET_CLEAN => LogRecord::SetClean { lba: logical },
            _ => return (out, DecodeEnd::Torn { at: offset }),
        };
        out.push((lsn, record));
        offset += frame_len;
    }
    if offset == bytes.len() {
        (out, DecodeEnd::Clean)
    } else {
        (out, DecodeEnd::Torn { at: offset })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference encoder: one record as one or two CRC-framed wire frames,
    /// each its own allocation. [`encode_record_into`] must produce its bytes.
    fn encode_record(lsn: u64, record: &LogRecord) -> Vec<Frame> {
        match *record {
            LogRecord::InsertPage { lba, ppn, dirty } => {
                let tag = TAG_INSERT_PAGE | if dirty { FLAG_DIRTY } else { 0 };
                vec![frame(lsn, tag, lba, ppn, 0)]
            }
            LogRecord::RemovePage { lba } => vec![frame(lsn, TAG_REMOVE_PAGE, lba, 0, 0)],
            LogRecord::InsertBlock {
                lbn,
                pbn,
                valid,
                dirty,
            } => vec![
                frame(lsn, TAG_INSERT_BLOCK, lbn, pbn, valid),
                frame(lsn, TAG_INSERT_BLOCK_DIRTY, lbn, pbn, dirty),
            ],
            LogRecord::RemoveBlock { lbn } => vec![frame(lsn, TAG_REMOVE_BLOCK, lbn, 0, 0)],
            LogRecord::MaskBlockPage { lba } => vec![frame(lsn, TAG_MASK_BLOCK_PAGE, lba, 0, 0)],
            LogRecord::SetClean { lba } => vec![frame(lsn, TAG_SET_CLEAN, lba, 0, 0)],
        }
    }

    fn all_record_kinds() -> Vec<LogRecord> {
        vec![
            LogRecord::InsertPage {
                lba: 0xDEAD_BEEF,
                ppn: 42,
                dirty: true,
            },
            LogRecord::InsertPage {
                lba: 7,
                ppn: 1 << 40,
                dirty: false,
            },
            LogRecord::RemovePage { lba: u64::MAX - 1 },
            LogRecord::InsertBlock {
                lbn: 3,
                pbn: 99,
                valid: u64::MAX,
                dirty: 0b1010,
            },
            LogRecord::RemoveBlock { lbn: 1 << 50 },
            LogRecord::MaskBlockPage { lba: 12345 },
            LogRecord::SetClean { lba: 0 },
        ]
    }

    fn encode_all(records: &[LogRecord]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (i, r) in records.iter().enumerate() {
            for f in encode_record(i as u64 + 1, r) {
                bytes.extend_from_slice(&f);
            }
        }
        bytes
    }

    #[test]
    fn encode_record_into_matches_encode_record() {
        let records = all_record_kinds();
        let mut streamed = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let before = streamed.len();
            encode_record_into(i as u64 + 1, r, &mut streamed);
            let frames = encode_record(i as u64 + 1, r);
            assert_eq!(frames.len() as u64, record_frames(r));
            assert_eq!(
                streamed.len() - before,
                frames.len() * RECORD_BYTES as usize
            );
        }
        assert_eq!(streamed, encode_all(&records));
    }

    #[test]
    fn round_trip_every_record_kind() {
        let records = all_record_kinds();
        let bytes = encode_all(&records);
        let (decoded, end) = decode_records(&bytes);
        assert_eq!(end, DecodeEnd::Clean);
        assert_eq!(decoded.len(), records.len());
        for (i, (lsn, record)) in decoded.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(record, &records[i], "record {i}");
        }
    }

    #[test]
    fn truncated_tail_is_detected_not_misread() {
        let records = all_record_kinds();
        let bytes = encode_all(&records);
        // Cut at every possible byte: decoding must never return garbage,
        // only a clean prefix.
        for cut in 0..bytes.len() {
            let (decoded, end) = decode_records(&bytes[..cut]);
            if cut == bytes.len() {
                assert_eq!(end, DecodeEnd::Clean);
            }
            // Whatever decoded must be a prefix of the original records.
            for (i, (_, record)) in decoded.iter().enumerate() {
                assert_eq!(record, &records[i], "cut {cut}");
            }
            if cut < bytes.len() {
                assert!(decoded.len() <= records.len());
            }
            let _ = end;
        }
    }

    #[test]
    fn corrupted_byte_stops_decoding() {
        let records = all_record_kinds();
        let bytes = encode_all(&records);
        let mut corrupt = bytes.clone();
        // Flip one byte in the middle of the third frame.
        let target = 2 * RECORD_BYTES as usize + 12;
        corrupt[target] ^= 0xFF;
        let (decoded, end) = decode_records(&corrupt);
        assert!(matches!(end, DecodeEnd::Torn { .. }));
        assert_eq!(decoded.len(), 2, "only the intact prefix decodes");
    }

    #[test]
    fn torn_insert_block_pair_is_rejected_whole() {
        let record = LogRecord::InsertBlock {
            lbn: 5,
            pbn: 6,
            valid: 0xF0,
            dirty: 0x10,
        };
        let frames = encode_record(9, &record);
        assert_eq!(frames.len(), 2);
        // Only the first half present: torn, nothing decoded.
        let (decoded, end) = decode_records(&frames[0]);
        assert!(matches!(end, DecodeEnd::Torn { .. }));
        assert!(decoded.is_empty());
        // Only the second half present: also torn.
        let (decoded, end) = decode_records(&frames[1]);
        assert!(matches!(end, DecodeEnd::Torn { .. }));
        assert!(decoded.is_empty());
    }

    #[test]
    fn unknown_tag_is_torn() {
        let mut f = frame(1, 0x33, 0, 0, 0);
        // Recompute CRC so only the tag is "wrong".
        let crc = crc32(&f[0..36]);
        f[36..40].copy_from_slice(&crc.to_le_bytes());
        let (decoded, end) = decode_records(&f);
        assert!(decoded.is_empty());
        assert!(matches!(end, DecodeEnd::Torn { at: 0 }));
    }
}
