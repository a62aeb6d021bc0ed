//! Per-erase-block simulator state.

use crate::page::PageState;

/// Aggregate state of an erase block, as visible to FTL/SSC policy code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockState {
    /// Pages currently `Valid`.
    pub valid_pages: u32,
    /// Pages currently `Invalid`.
    pub invalid_pages: u32,
    /// Index of the next programmable page; equals `pages_per_block` when
    /// the block is fully written.
    pub write_ptr: u32,
    /// Number of times the block has been erased.
    pub erase_count: u64,
}

impl BlockState {
    /// Pages still programmable in this block.
    pub fn free_pages(&self, pages_per_block: u32) -> u32 {
        pages_per_block - self.write_ptr
    }

    /// Returns `true` if no page has been programmed since the last erase.
    pub fn is_empty(&self) -> bool {
        self.write_ptr == 0
    }

    /// Returns `true` if every page has been programmed.
    pub fn is_full(&self, pages_per_block: u32) -> bool {
        self.write_ptr == pages_per_block
    }
}

/// Iterates the set bits of a per-block bitmap (such as
/// [`crate::FlashDevice::valid_mask`]) as page indices, ascending — i.e. in
/// programming order.
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

/// A simulated erase block: a write pointer, a validity bitmap and wear
/// accounting. Programming is strictly sequential, so the three page states
/// need no per-page storage: page `i` is `Free` iff `i >= write_ptr`,
/// `Valid` iff bit `i` of `valid` is set, and `Invalid` otherwise.
/// [`crate::Geometry::new`] rejects blocks wider than
/// [`crate::Geometry::MAX_PAGES_PER_BLOCK`], so the bitmap always fits.
#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    pub(crate) write_ptr: u32,
    pub(crate) valid: u64,
    pub(crate) erase_count: u64,
}

impl Block {
    /// Snapshot of the aggregate state.
    pub fn state(&self) -> BlockState {
        let valid_pages = self.valid.count_ones();
        BlockState {
            valid_pages,
            invalid_pages: self.write_ptr - valid_pages,
            write_ptr: self.write_ptr,
            erase_count: self.erase_count,
        }
    }

    #[inline]
    pub(crate) fn is_free(&self, page: u32) -> bool {
        page >= self.write_ptr
    }

    pub(crate) fn page_state(&self, page: u32) -> PageState {
        if self.is_free(page) {
            PageState::Free
        } else if self.valid & (1 << page) != 0 {
            PageState::Valid
        } else {
            PageState::Invalid
        }
    }

    pub(crate) fn erase(&mut self) {
        self.write_ptr = 0;
        self.valid = 0;
        self.erase_count += 1;
    }

    /// Programs the next `count` pages, all `Valid`.
    pub(crate) fn program(&mut self, count: u32) {
        debug_assert!(count >= 1 && self.write_ptr + count <= u64::BITS);
        self.valid |= (u64::MAX >> (u64::BITS - count)) << self.write_ptr;
        self.write_ptr += count;
    }

    /// Consumes the next page without making it valid (a failed program).
    pub(crate) fn consume(&mut self) {
        self.write_ptr += 1;
    }

    pub(crate) fn revalidate(&mut self, page: u32) -> bool {
        debug_assert!(!self.is_free(page));
        let was_invalid = self.valid & (1 << page) == 0;
        self.valid |= 1 << page;
        was_invalid
    }

    pub(crate) fn invalidate(&mut self, page: u32) -> bool {
        debug_assert!(!self.is_free(page));
        // The cells keep their content until the block is erased; a
        // crash-recovered mapping may legitimately read a superseded
        // (but never torn) version.
        let was_valid = self.valid & (1 << page) != 0;
        self.valid &= !(1 << page);
        was_valid
    }

    /// Invalidates every page of `mask` at once, returning how many were
    /// `Valid`: [`Block::invalidate`] over the mask's set bits.
    pub(crate) fn invalidate_mask(&mut self, mask: u64) -> u32 {
        debug_assert_eq!(mask & !low_bits(self.write_ptr), 0);
        let were_valid = (self.valid & mask).count_ones();
        self.valid &= !mask;
        were_valid
    }
}

/// A mask of the `count` lowest bits (`count` may be 64).
#[inline]
pub(crate) fn low_bits(count: u32) -> u64 {
    u64::MAX.checked_shr(u64::BITS - count).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_empty() {
        let b = Block::default();
        let s = b.state();
        assert!(s.is_empty());
        assert!(!s.is_full(8));
        assert_eq!(s.free_pages(8), 8);
        assert_eq!(s.erase_count, 0);
        assert_eq!(b.page_state(0), PageState::Free);
    }

    #[test]
    fn program_and_invalidate_track_counts() {
        let mut b = Block::default();
        b.program(1);
        b.program(1);
        assert_eq!(b.state().valid_pages, 2);
        assert_eq!(b.state().write_ptr, 2);
        assert!(b.invalidate(0));
        assert_eq!(b.state().valid_pages, 1);
        assert_eq!(b.state().invalid_pages, 1);
        assert_eq!(b.page_state(0), PageState::Invalid);
        assert_eq!(b.page_state(1), PageState::Valid);
        assert_eq!(b.page_state(2), PageState::Free);
        // Double-invalidate is a no-op.
        assert!(!b.invalidate(0));
        assert_eq!(b.state().invalid_pages, 1);
        assert!(b.revalidate(0));
        assert!(!b.revalidate(0));
        assert_eq!(b.state().invalid_pages, 0);
    }

    #[test]
    fn consumed_pages_are_invalid_and_runs_fill_the_widest_block() {
        let mut b = Block::default();
        b.consume();
        assert_eq!(b.page_state(0), PageState::Invalid);
        b.program(63);
        let s = b.state();
        assert!(s.is_full(64));
        assert_eq!((s.valid_pages, s.invalid_pages), (63, 1));
        assert_eq!(b.valid, u64::MAX << 1);
    }

    #[test]
    fn mask_invalidation_counts_only_valid_pages() {
        let mut b = Block::default();
        b.program(64);
        assert!(b.invalidate(3));
        assert_eq!(b.invalidate_mask(0b1111 | 1 << 63), 4);
        assert_eq!(b.valid, u64::MAX >> 1 & !0b1111);
        assert_eq!(b.invalidate_mask(0b1111), 0);
        assert_eq!(b.invalidate_mask(0), 0);
        assert_eq!(
            [0, 1, 63, 64].map(low_bits),
            [0, 1, u64::MAX >> 1, u64::MAX]
        );
    }

    #[test]
    fn set_bits_ascend() {
        assert_eq!(set_bits(0).count(), 0);
        assert_eq!(set_bits(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(
            set_bits(u64::MAX).collect::<Vec<_>>(),
            (0..64).collect::<Vec<_>>()
        );
        assert_eq!(set_bits(1 << 63).collect::<Vec<_>>(), [63]);
    }

    #[test]
    fn erase_resets_and_counts_wear() {
        let mut b = Block::default();
        b.program(4);
        assert!(b.state().is_full(4));
        b.erase();
        let s = b.state();
        assert!(s.is_empty());
        assert_eq!(s.valid_pages, 0);
        assert_eq!(s.invalid_pages, 0);
        assert_eq!(s.erase_count, 1);
        b.erase();
        assert_eq!(b.state().erase_count, 2);
    }
}
