//! The SSC's hybrid forward mapping.
//!
//! "The SSC keeps the entire mapping in its memory. However, the SSC maps a
//! fixed portion of the flash blocks at a 4 KB page granularity and the rest
//! at the granularity of a 256 KB erase block, similar to hybrid FTL mapping
//! mechanisms" (§4.1). Both levels are sparse hash maps keyed by the *disk*
//! address space (the unified address space):
//!
//! * the **page map** holds log-block contents: LBA → physical page, with
//!   the dirty flag packed into the pointer;
//! * the **block map** holds data blocks: LBN → [`BlockEntry`], carrying the
//!   physical block plus a validity bitmap and "an eight-byte dirty-block
//!   bitmap recording which pages within the erase block contain dirty
//!   data" (§4.1).

use flashsim::{set_bits, Ppn};
use sparsemap::SparseHashMap;

/// A page-map value: physical page number with the dirty flag packed into
/// the top bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagePtr(u64);

const DIRTY_BIT: u64 = 1 << 63;

impl PagePtr {
    /// Packs a physical page and dirty flag.
    ///
    /// # Panics
    ///
    /// Panics if the page number uses the top bit (devices that large are
    /// beyond any simulated geometry).
    pub fn new(ppn: Ppn, dirty: bool) -> Self {
        assert!(ppn.raw() & DIRTY_BIT == 0, "ppn too large to pack");
        PagePtr(ppn.raw() | if dirty { DIRTY_BIT } else { 0 })
    }

    /// The physical page.
    pub fn ppn(self) -> Ppn {
        Ppn(self.0 & !DIRTY_BIT)
    }

    /// Whether the cached page is dirty.
    pub fn dirty(self) -> bool {
        self.0 & DIRTY_BIT != 0
    }

    /// Returns a copy with the dirty flag cleared.
    pub fn cleaned(self) -> Self {
        PagePtr(self.0 & !DIRTY_BIT)
    }
}

/// A block-map value: one data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Physical erase block holding the data, page `i` at offset `i`.
    pub pbn: u64,
    /// Bitmap of offsets that hold live cached data.
    pub valid: u64,
    /// Bitmap of offsets whose data is dirty (subset of `valid`).
    pub dirty: u64,
}

impl BlockEntry {
    /// Creates an entry; `dirty` is masked to `valid`.
    pub fn new(pbn: u64, valid: u64, dirty: u64) -> Self {
        BlockEntry {
            pbn,
            valid,
            dirty: dirty & valid,
        }
    }

    /// Whether offset `i` holds live data.
    pub fn is_valid(&self, i: u32) -> bool {
        self.valid & (1 << i) != 0
    }

    /// Whether offset `i` is dirty.
    pub fn is_dirty(&self, i: u32) -> bool {
        self.dirty & (1 << i) != 0
    }

    /// Number of live pages.
    pub fn valid_count(&self) -> u32 {
        self.valid.count_ones()
    }

    /// Returns `true` if no page is dirty (the block is a silent-eviction
    /// candidate).
    pub fn is_clean(&self) -> bool {
        self.dirty == 0
    }

    /// Clears validity (and dirtiness) of offset `i`.
    pub fn mask_page(&mut self, i: u32) {
        self.valid &= !(1u64 << i);
        self.dirty &= !(1u64 << i);
    }

    /// Clears the dirty flag of offset `i`.
    pub fn clean_page(&mut self, i: u32) {
        self.dirty &= !(1u64 << i);
    }
}

/// Where a lookup was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// Found in the page-level map (a log block).
    PageLevel {
        /// Physical page.
        ppn: Ppn,
        /// Dirty flag.
        dirty: bool,
    },
    /// Found in the block-level map (a data block).
    BlockLevel {
        /// Physical page (block base + offset).
        ppn: Ppn,
        /// Dirty flag from the dirty bitmap.
        dirty: bool,
    },
}

impl Resolved {
    /// The physical page either way.
    pub fn ppn(&self) -> Ppn {
        match *self {
            Resolved::PageLevel { ppn, .. } | Resolved::BlockLevel { ppn, .. } => ppn,
        }
    }

    /// The dirty flag either way.
    pub fn dirty(&self) -> bool {
        match *self {
            Resolved::PageLevel { dirty, .. } | Resolved::BlockLevel { dirty, .. } => dirty,
        }
    }
}

/// The combined hybrid forward map.
#[derive(Debug, Clone)]
pub struct SscMaps {
    /// LBA → log page. Private so that only [`SscMaps::insert_page`] and
    /// [`SscMaps::remove_page`] change its key set; read via
    /// [`SscMaps::pages`].
    pages: SparseHashMap<PagePtr>,
    /// LBN → data block.
    pub blocks: SparseHashMap<BlockEntry>,
    /// LBN → bitmap of its page-mapped offsets: an index derived from
    /// `pages` (DESIGN.md §7) so a merge asks one question per logical
    /// block, not one per offset. A zero bitmap is never stored.
    log_occupancy: SparseHashMap<u64>,
    ppb: u32,
}

impl SscMaps {
    /// Creates empty maps for a device with `ppb` pages per erase block.
    ///
    /// # Panics
    ///
    /// Panics if `ppb` exceeds 64 (the bitmap width; the paper's geometry
    /// uses 64).
    pub fn new(ppb: u32) -> Self {
        Self::with_capacity(ppb, 0, 0)
    }

    /// Creates empty maps pre-sized for `page_hint` page-level and
    /// `block_hint` block-level entries, avoiding rehash churn while the
    /// cache warms up. Hints are advisory: the maps still grow on demand,
    /// and oversized hints are clamped so a huge configured device cannot
    /// balloon an idle map.
    ///
    /// # Panics
    ///
    /// Panics if `ppb` exceeds 64 (the bitmap width; the paper's geometry
    /// uses 64).
    pub fn with_capacity(ppb: u32, page_hint: usize, block_hint: usize) -> Self {
        assert!(
            ppb <= 64,
            "dirty/valid bitmaps support at most 64 pages per block"
        );
        const MAX_HINT: usize = 1 << 22;
        SscMaps {
            pages: SparseHashMap::with_capacity(page_hint.min(MAX_HINT)),
            blocks: SparseHashMap::with_capacity(block_hint.min(MAX_HINT)),
            log_occupancy: SparseHashMap::new(),
            ppb,
        }
    }

    /// The page-level map, read-only.
    pub fn pages(&self) -> &SparseHashMap<PagePtr> {
        &self.pages
    }

    /// Bitmap of the offsets of `lbn` that are page-mapped (bit `i` set iff
    /// `pages` holds `lbn * ppb + i`).
    pub fn log_offsets(&self, lbn: u64) -> u64 {
        self.log_occupancy.get(lbn).copied().unwrap_or(0)
    }

    /// Full index contents sorted by LBN: `(lbn, bitmap)`. Oracle-test
    /// hook for comparing against a per-offset scan of `pages`.
    #[cfg(test)]
    pub(crate) fn log_occupancy_snapshot(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<_> = self.log_occupancy.iter().map(|(k, v)| (k, *v)).collect();
        out.sort_unstable();
        out
    }

    /// Real heap bytes of both maps and the log-occupancy index (which,
    /// not being modelled device memory, appears in no Table 4 figure).
    pub fn heap_bytes(&self) -> u64 {
        self.pages.memory().heap_bytes
            + self.blocks.memory().heap_bytes
            + self.log_occupancy.memory().heap_bytes
    }

    /// Pages per erase block.
    pub fn ppb(&self) -> u32 {
        self.ppb
    }

    /// Splits an LBA into (lbn, offset).
    pub fn split(&self, lba: u64) -> (u64, u32) {
        (lba / self.ppb as u64, (lba % self.ppb as u64) as u32)
    }

    /// Resolves `lba` to its newest physical location, page level first.
    pub fn lookup(&self, lba: u64) -> Option<Resolved> {
        if let Some(ptr) = self.pages.get(lba) {
            return Some(Resolved::PageLevel {
                ppn: ptr.ppn(),
                dirty: ptr.dirty(),
            });
        }
        let (lbn, offset) = self.split(lba);
        let entry = self.blocks.get(lbn)?;
        if entry.is_valid(offset) {
            Some(Resolved::BlockLevel {
                ppn: Ppn(entry.pbn * self.ppb as u64 + offset as u64),
                dirty: entry.is_dirty(offset),
            })
        } else {
            None
        }
    }

    /// Returns `true` if `lba` is present and dirty.
    pub fn is_dirty(&self, lba: u64) -> bool {
        self.lookup(lba).is_some_and(|r| r.dirty())
    }

    /// Inserts a page-level mapping, returning the previous pointer.
    pub fn insert_page(&mut self, lba: u64, ptr: PagePtr) -> Option<PagePtr> {
        let old = self.pages.insert(lba, ptr);
        if old.is_none() {
            let (lbn, offset) = self.split(lba);
            *self.log_occupancy.get_or_insert_with(lbn, || 0) |= 1 << offset;
        }
        old
    }

    /// Removes a page-level mapping.
    pub fn remove_page(&mut self, lba: u64) -> Option<PagePtr> {
        let old = self.pages.remove(lba)?;
        let (lbn, offset) = self.split(lba);
        let bits = self
            .log_occupancy
            .get_mut(lbn)
            .expect("a mapped page has its occupancy bit");
        *bits &= !(1u64 << offset);
        if *bits == 0 {
            self.log_occupancy.remove(lbn);
        }
        Some(old)
    }

    /// Inserts a block-level mapping, returning the previous entry.
    pub fn insert_block(&mut self, lbn: u64, entry: BlockEntry) -> Option<BlockEntry> {
        self.blocks.insert(lbn, entry)
    }

    /// Removes a block-level mapping.
    pub fn remove_block(&mut self, lbn: u64) -> Option<BlockEntry> {
        self.blocks.remove(lbn)
    }

    /// Masks one page of a block-level entry (page invalidated by overwrite
    /// or eviction); drops the entry when its last page goes. Returns the
    /// entry as it now stands: `None` when it was dropped (or never there).
    pub fn mask_block_page(&mut self, lba: u64) -> Option<BlockEntry> {
        let (lbn, offset) = self.split(lba);
        let entry = self.blocks.get_mut(lbn)?;
        entry.mask_page(offset);
        if entry.valid == 0 {
            self.blocks.remove(lbn);
            return None;
        }
        Some(*entry)
    }

    /// Clears the dirty flag of `lba` at whichever level holds it.
    /// Returns `true` if the block was present.
    pub fn set_clean(&mut self, lba: u64) -> bool {
        if let Some(ptr) = self.pages.get_mut(lba) {
            *ptr = ptr.cleaned();
            return true;
        }
        let (lbn, offset) = self.split(lba);
        if let Some(entry) = self.blocks.get_mut(lbn) {
            if entry.is_valid(offset) {
                entry.clean_page(offset);
                return true;
            }
        }
        false
    }

    /// All dirty LBAs within `[start, end)` — the data behind `exists`.
    pub fn dirty_in_range(&self, start: u64, end: u64) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .pages
            .iter()
            .filter(|(lba, ptr)| *lba >= start && *lba < end && ptr.dirty())
            .map(|(lba, _)| lba)
            .collect();
        for (lbn, entry) in self.blocks.iter() {
            for offset in set_bits(entry.dirty) {
                let lba = lbn * self.ppb as u64 + offset as u64;
                if lba >= start && lba < end {
                    out.push(lba);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of cached blocks (live pages) across both levels.
    pub fn cached_pages(&self) -> u64 {
        self.pages.len() as u64
            + self
                .blocks
                .iter()
                .map(|(_, e)| e.valid_count() as u64)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pageptr_packing() {
        let p = PagePtr::new(Ppn(12345), true);
        assert_eq!(p.ppn(), Ppn(12345));
        assert!(p.dirty());
        let c = p.cleaned();
        assert!(!c.dirty());
        assert_eq!(c.ppn(), Ppn(12345));
        let q = PagePtr::new(Ppn(7), false);
        assert!(!q.dirty());
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn pageptr_rejects_huge_ppn() {
        PagePtr::new(Ppn(1 << 63), false);
    }

    #[test]
    fn block_entry_bitmaps() {
        let mut e = BlockEntry::new(3, 0b1011, 0b1111);
        assert_eq!(e.dirty, 0b1011, "dirty masked to valid");
        assert!(e.is_valid(0));
        assert!(!e.is_valid(2));
        assert_eq!(e.valid_count(), 3);
        assert!(!e.is_clean());
        e.clean_page(0);
        assert!(e.is_valid(0));
        assert!(!e.is_dirty(0));
        e.mask_page(1);
        assert!(!e.is_valid(1));
        assert!(!e.is_dirty(1));
        e.clean_page(3);
        assert!(e.is_clean());
    }

    #[test]
    fn lookup_prefers_page_level() {
        let mut m = SscMaps::new(8);
        m.insert_block(0, BlockEntry::new(5, 0xFF, 0));
        m.insert_page(3, PagePtr::new(Ppn(100), true));
        let r = m.lookup(3).unwrap();
        assert_eq!(r.ppn(), Ppn(100));
        assert!(r.dirty());
        // Other offsets resolve via the block map.
        let r = m.lookup(4).unwrap();
        assert_eq!(r.ppn(), Ppn(5 * 8 + 4));
        assert!(!r.dirty());
    }

    #[test]
    fn log_offsets_follow_page_inserts_and_removes() {
        let mut m = SscMaps::new(8);
        assert_eq!(m.log_offsets(1), 0);
        m.insert_page(9, PagePtr::new(Ppn(1), false));
        m.insert_page(15, PagePtr::new(Ppn(2), true));
        // Re-pointing a mapped page leaves its bit alone.
        assert!(m.insert_page(9, PagePtr::new(Ppn(3), true)).is_some());
        assert_eq!(m.log_offsets(1), 0b1000_0010);
        assert_eq!(m.log_offsets(0), 0, "neighbouring LBN untouched");
        assert!(m.remove_page(10).is_none(), "absent page: nothing changes");
        m.remove_page(9);
        assert_eq!(m.log_offsets(1), 0b1000_0000);
        m.remove_page(15);
        assert_eq!(m.log_occupancy_snapshot(), vec![], "zero bitmap dropped");
        // The index is host bookkeeping: it shows up in heap bytes only.
        let pages_and_blocks = m.pages().memory().heap_bytes + m.blocks.memory().heap_bytes;
        assert!(m.heap_bytes() > pages_and_blocks);
    }

    #[test]
    fn lookup_misses() {
        let mut m = SscMaps::new(8);
        assert!(m.lookup(9).is_none());
        m.insert_block(1, BlockEntry::new(2, 0b0001, 0));
        assert!(m.lookup(8).is_some());
        assert!(m.lookup(9).is_none(), "masked offset is a miss");
    }

    #[test]
    fn mask_block_page_drops_empty_entries() {
        let mut m = SscMaps::new(8);
        m.insert_block(0, BlockEntry::new(1, 0b0011, 0b0001));
        assert_eq!(m.mask_block_page(0), Some(BlockEntry::new(1, 0b0010, 0)));
        assert_eq!(m.blocks.get(0), Some(&BlockEntry::new(1, 0b0010, 0)));
        assert_eq!(m.mask_block_page(1), None);
        assert!(
            m.blocks.get(0).is_none(),
            "entry dropped when last page masked"
        );
        // Masking in absent entries is a no-op.
        assert_eq!(m.mask_block_page(17), None);
    }

    #[test]
    fn set_clean_both_levels() {
        let mut m = SscMaps::new(8);
        m.insert_page(1, PagePtr::new(Ppn(50), true));
        m.insert_block(1, BlockEntry::new(2, 0b0100, 0b0100)); // lba 10 dirty
        assert!(m.is_dirty(1));
        assert!(m.is_dirty(10));
        assert!(m.set_clean(1));
        assert!(m.set_clean(10));
        assert!(!m.is_dirty(1));
        assert!(!m.is_dirty(10));
        assert!(!m.set_clean(99), "absent block reports not-present");
    }

    #[test]
    fn dirty_in_range_merges_levels() {
        let mut m = SscMaps::new(8);
        m.insert_page(5, PagePtr::new(Ppn(1), true));
        m.insert_page(6, PagePtr::new(Ppn(2), false));
        m.insert_block(2, BlockEntry::new(9, 0b0011, 0b0010)); // lba 17 dirty
        assert_eq!(m.dirty_in_range(0, 100), vec![5, 17]);
        assert_eq!(m.dirty_in_range(6, 17), Vec::<u64>::new());
        assert_eq!(m.dirty_in_range(17, 18), vec![17]);
    }

    #[test]
    fn cached_pages_counts_both_levels() {
        let mut m = SscMaps::new(8);
        m.insert_page(100, PagePtr::new(Ppn(1), false));
        m.insert_block(0, BlockEntry::new(1, 0b0111, 0));
        assert_eq!(m.cached_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn rejects_wide_blocks() {
        SscMaps::new(65);
    }
}
