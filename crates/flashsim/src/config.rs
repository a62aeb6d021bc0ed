//! Device geometry and configuration.

use crate::addr::{Pbn, Ppn};
use crate::timing::FlashTiming;

/// Static geometry of a simulated flash device.
///
/// All conversions between flat physical numbers and the
/// (plane, block, page) hierarchy live here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    planes: u32,
    blocks_per_plane: u32,
    pages_per_block: u32,
    /// `log2(pages_per_block)`: page numbers split by shift and mask.
    page_shift: u32,
    page_size: usize,
    oob_size: usize,
}

impl Geometry {
    /// Widest erase block the stack supports: page validity is one `u64`
    /// bitmap per block in the flash device, the hybrid FTL and the SSC.
    pub const MAX_PAGES_PER_BLOCK: u32 = u64::BITS;

    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, if `pages_per_block` exceeds
    /// [`Geometry::MAX_PAGES_PER_BLOCK`], or if it is not a power of two.
    pub fn new(
        planes: u32,
        blocks_per_plane: u32,
        pages_per_block: u32,
        page_size: usize,
        oob_size: usize,
    ) -> Self {
        assert!(planes > 0, "geometry needs at least one plane");
        assert!(
            blocks_per_plane > 0,
            "geometry needs at least one block per plane"
        );
        assert!(
            pages_per_block > 0,
            "geometry needs at least one page per block"
        );
        assert!(
            pages_per_block <= Self::MAX_PAGES_PER_BLOCK,
            "{pages_per_block} pages per block exceed the {}-bit per-block validity bitmap",
            Self::MAX_PAGES_PER_BLOCK
        );
        assert!(
            pages_per_block.is_power_of_two(),
            "{pages_per_block} pages per block is not a power of two"
        );
        assert!(page_size > 0, "geometry needs a non-zero page size");
        Geometry {
            planes,
            blocks_per_plane,
            pages_per_block,
            page_shift: pages_per_block.trailing_zeros(),
            page_size,
            oob_size,
        }
    }

    /// Number of planes.
    pub const fn planes(&self) -> u32 {
        self.planes
    }

    /// Erase blocks per plane.
    pub const fn blocks_per_plane(&self) -> u32 {
        self.blocks_per_plane
    }

    /// Pages per erase block.
    pub const fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// `log2` of [`Geometry::pages_per_block`], a power of two: a page
    /// number shifted right by it is its block number.
    pub const fn page_shift(&self) -> u32 {
        self.page_shift
    }

    /// Page payload size in bytes.
    pub const fn page_size(&self) -> usize {
        self.page_size
    }

    /// Out-of-band area size per page in bytes.
    pub const fn oob_size(&self) -> usize {
        self.oob_size
    }

    /// Total number of erase blocks in the device.
    pub const fn total_blocks(&self) -> u64 {
        self.planes as u64 * self.blocks_per_plane as u64
    }

    /// Total number of pages in the device.
    pub const fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Total data capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Erase block size in bytes (256 KB with default geometry).
    pub(crate) const fn block_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_size as u64
    }

    /// Builds the flat page number for (plane, block-in-plane, page-in-block).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn ppn(&self, plane: u32, block: u32, page: u32) -> Ppn {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(block < self.blocks_per_plane, "block {block} out of range");
        assert!(page < self.pages_per_block, "page {page} out of range");
        let pbn = plane as u64 * self.blocks_per_plane as u64 + block as u64;
        Ppn(pbn << self.page_shift | page as u64)
    }

    /// Builds the flat block number for (plane, block-in-plane).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    pub fn pbn(&self, plane: u32, block: u32) -> Pbn {
        assert!(plane < self.planes, "plane {plane} out of range");
        assert!(block < self.blocks_per_plane, "block {block} out of range");
        Pbn(plane as u64 * self.blocks_per_plane as u64 + block as u64)
    }

    /// Returns the block containing `ppn`.
    pub fn block_of(&self, ppn: Ppn) -> Pbn {
        Pbn(ppn.raw() >> self.page_shift)
    }

    /// Returns the in-block page index of `ppn`.
    pub fn page_in_block(&self, ppn: Ppn) -> u32 {
        (ppn.raw() & (self.pages_per_block as u64 - 1)) as u32
    }

    /// Returns the plane containing `pbn`.
    pub fn plane_of(&self, pbn: Pbn) -> u32 {
        (pbn.raw() / self.blocks_per_plane as u64) as u32
    }

    /// Returns the first page of `pbn`.
    pub fn first_page(&self, pbn: Pbn) -> Ppn {
        Ppn(pbn.raw() << self.page_shift)
    }

    /// Returns `true` if `ppn` addresses an existing page.
    pub fn ppn_in_range(&self, ppn: Ppn) -> bool {
        ppn.raw() < self.total_pages()
    }

    /// Returns `true` if `pbn` addresses an existing block.
    pub fn pbn_in_range(&self, pbn: Pbn) -> bool {
        pbn.raw() < self.total_blocks()
    }
}

/// Full configuration of a simulated flash device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashConfig {
    /// Device geometry.
    pub geometry: Geometry,
    /// Operation timing model.
    pub timing: FlashTiming,
    /// Erase endurance limit per block; `None` disables wear-out errors.
    ///
    /// MLC flash in the paper is rated at 10,000 erase cycles (§2).
    pub endurance: Option<u64>,
}

impl FlashConfig {
    /// The paper's Table 2 configuration: 10 planes, 256 erase blocks per
    /// plane, 64 pages of 4 KB per block (640 MB per device before scaling)
    /// and Intel 300-series latencies.
    ///
    /// The paper scales "the size of each plane to vary the SSD capacity";
    /// use [`FlashConfig::with_capacity_bytes`] for the same effect.
    pub fn paper_default() -> Self {
        FlashConfig {
            geometry: Geometry::new(10, 256, 64, 4096, 224),
            timing: FlashTiming::paper_default(),
            endurance: None,
        }
    }

    /// A tiny geometry for unit tests: 2 planes, 8 blocks/plane, 8 pages of
    /// 512 bytes.
    pub fn small_test() -> Self {
        FlashConfig {
            geometry: Geometry::new(2, 8, 8, 512, 16),
            timing: FlashTiming::paper_default(),
            endurance: None,
        }
    }

    /// Scales `blocks_per_plane` so total capacity is at least `bytes`,
    /// keeping the paper's plane count, block shape and timing.
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        let base = Self::paper_default();
        let g = base.geometry;
        let per_plane_block_bytes = g.block_bytes();
        let blocks_needed = bytes.div_ceil(per_plane_block_bytes * g.planes() as u64);
        FlashConfig {
            geometry: Geometry::new(
                g.planes(),
                blocks_needed.max(1) as u32,
                g.pages_per_block(),
                g.page_size(),
                g.oob_size(),
            ),
            ..base
        }
    }

    /// Sets the per-block erase endurance limit.
    pub fn with_endurance(mut self, cycles: u64) -> Self {
        self.endurance = Some(cycles);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = FlashConfig::paper_default();
        let g = c.geometry;
        assert_eq!(g.planes(), 10);
        assert_eq!(g.blocks_per_plane(), 256);
        assert_eq!(g.pages_per_block(), 64);
        assert_eq!(g.page_size(), 4096);
        assert_eq!(g.block_bytes(), 256 * 1024);
        assert_eq!(g.capacity_bytes(), 10 * 256 * 256 * 1024);
    }

    #[test]
    fn ppn_round_trips() {
        let g = FlashConfig::paper_default().geometry;
        for (plane, block, page) in [(0, 0, 0), (9, 255, 63), (3, 17, 42)] {
            let ppn = g.ppn(plane, block, page);
            let pbn = g.block_of(ppn);
            assert_eq!(g.plane_of(pbn), plane);
            assert_eq!(g.page_in_block(ppn), page);
            assert_eq!(g.pbn(plane, block), pbn);
        }
    }

    #[test]
    fn range_checks() {
        let g = FlashConfig::small_test().geometry;
        assert!(g.ppn_in_range(Ppn(g.total_pages() - 1)));
        assert!(!g.ppn_in_range(Ppn(g.total_pages())));
        assert!(g.pbn_in_range(Pbn(g.total_blocks() - 1)));
        assert!(!g.pbn_in_range(Pbn(g.total_blocks())));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ppn_builder_rejects_bad_plane() {
        let g = FlashConfig::small_test().geometry;
        g.ppn(99, 0, 0);
    }

    #[test]
    fn with_capacity_scales_blocks() {
        let c = FlashConfig::with_capacity_bytes(1 << 30); // 1 GiB
        assert!(c.geometry.capacity_bytes() >= 1 << 30);
        // Should not be wildly over-provisioned (within one block per plane).
        assert!(c.geometry.capacity_bytes() < (1 << 30) + c.geometry.block_bytes() * 10);
        assert_eq!(c.geometry.planes(), 10);
    }

    #[test]
    fn with_endurance_sets_limit() {
        let c = FlashConfig::small_test().with_endurance(10_000);
        assert_eq!(c.endurance, Some(10_000));
    }

    #[test]
    #[should_panic(expected = "at least one plane")]
    fn zero_planes_rejected() {
        Geometry::new(0, 1, 1, 512, 0);
    }

    #[test]
    #[should_panic(expected = "65 pages per block exceed the 64-bit per-block validity bitmap")]
    fn blocks_wider_than_the_validity_bitmap_rejected() {
        Geometry::new(1, 1, 65, 512, 0);
    }

    #[test]
    #[should_panic(expected = "48 pages per block is not a power of two")]
    fn blocks_of_a_non_power_of_two_rejected() {
        Geometry::new(1, 1, 48, 512, 0);
    }

    #[test]
    fn widest_block_is_accepted() {
        let g = Geometry::new(1, 1, Geometry::MAX_PAGES_PER_BLOCK, 512, 0);
        assert_eq!(g.pages_per_block(), 64);
    }
}
