//! Out-of-band (OOB) page metadata.
//!
//! Each flash page carries a small (64–224 byte) OOB area written together
//! with the page data. The paper's SSC stores the *reverse map* there — the
//! logical address each physical page holds — plus per-page flags, so that
//! garbage collection and eviction can translate physical→logical without
//! consulting the forward map, and so an SSD can rebuild its mapping by
//! scanning OOB areas after a crash (§4.1, §6.4).

use std::fmt;

/// The `lba` word of a device-internal page.
const NO_LBA: u64 = u64::MAX;
/// The bit of `seq_dirty` that holds the dirty flag.
const DIRTY: u64 = 1 << 63;

/// Metadata stored in a page's out-of-band area: the logical block address
/// (user-data pages only), whether the page was dirty when written, and the
/// write's sequence number.
///
/// The device keeps one per physical page, so it is packed into two words:
/// `u64::MAX` as the LBA marks an internal page, and the dirty flag rides in
/// the top bit of the sequence number. The modelled on-flash record is
/// [`OobData::ENCODED_LEN`] bytes regardless.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OobData {
    lba: u64,
    seq_dirty: u64,
}

const _: () = assert!(std::mem::size_of::<OobData>() == 16);

impl OobData {
    /// OOB contents for a user-data page.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is `u64::MAX` (the internal-page marker) or `seq` is
    /// `1 << 63` or more (the dirty bit).
    pub const fn for_lba(lba: u64, dirty: bool, seq: u64) -> Self {
        assert!(lba != NO_LBA, "OOB lba u64::MAX marks an internal page");
        assert!(seq < DIRTY, "OOB sequence number must be below 2^63");
        OobData {
            lba,
            seq_dirty: seq | if dirty { DIRTY } else { 0 },
        }
    }

    /// OOB contents for a device-internal page (log, checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if `seq` is `1 << 63` or more.
    pub const fn internal(seq: u64) -> Self {
        assert!(seq < DIRTY, "OOB sequence number must be below 2^63");
        OobData {
            lba: NO_LBA,
            seq_dirty: seq,
        }
    }

    /// The logical block address stored in this page, if the page holds
    /// user data. `None` for internal pages (log segments, checkpoints).
    #[inline]
    pub const fn lba(&self) -> Option<u64> {
        if self.lba == NO_LBA {
            None
        } else {
            Some(self.lba)
        }
    }

    /// Whether the page content was dirty (write-back data not yet on disk)
    /// when written.
    #[inline]
    pub const fn dirty(&self) -> bool {
        self.seq_dirty & DIRTY != 0
    }

    /// Monotonic sequence number of the write, used to disambiguate multiple
    /// physical copies of one logical page during recovery scans.
    #[inline]
    pub const fn seq(&self) -> u64 {
        self.seq_dirty & !DIRTY
    }

    /// Serialized size in bytes: 8-byte LBA + 1-byte flags + 8-byte
    /// sequence. A test checks that it fits the smallest OOB area.
    pub const ENCODED_LEN: usize = 17;
}

impl Default for OobData {
    fn default() -> Self {
        OobData::internal(0)
    }
}

impl fmt::Debug for OobData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OobData")
            .field("lba", &self.lba())
            .field("dirty", &self.dirty())
            .field("seq", &self.seq())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let d = OobData::for_lba(7, true, 3);
        assert_eq!(d.lba(), Some(7));
        assert!(d.dirty());
        assert_eq!(d.seq(), 3);
        let i = OobData::internal(9);
        assert_eq!(i.lba(), None);
        assert!(!i.dirty());
        assert_eq!(i.seq(), 9);
    }

    #[test]
    fn fields_round_trip_at_the_edges() {
        for lba in [0, u64::MAX - 1] {
            for seq in [0, (1 << 63) - 1] {
                for dirty in [false, true] {
                    let d = OobData::for_lba(lba, dirty, seq);
                    assert_eq!((d.lba(), d.dirty(), d.seq()), (Some(lba), dirty, seq));
                }
            }
        }
        for seq in [0, (1 << 63) - 1] {
            let i = OobData::internal(seq);
            assert_eq!((i.lba(), i.dirty(), i.seq()), (None, false, seq));
        }
        assert_eq!(OobData::default(), OobData::internal(0));
        assert_eq!(
            format!("{:?}", OobData::for_lba(4, true, 2)),
            "OobData { lba: Some(4), dirty: true, seq: 2 }"
        );
    }

    #[test]
    #[should_panic(expected = "marks an internal page")]
    fn for_lba_rejects_the_internal_marker() {
        OobData::for_lba(u64::MAX, false, 0);
    }

    #[test]
    #[should_panic(expected = "below 2^63")]
    fn for_lba_rejects_a_seq_with_the_dirty_bit() {
        OobData::for_lba(0, false, 1 << 63);
    }

    #[test]
    fn encoded_len_fits_smallest_oob_area() {
        // The paper cites 64-224 byte OOB areas; our record must fit the
        // smallest.
        const _FITS: () = assert!(OobData::ENCODED_LEN <= 64);
    }
}
