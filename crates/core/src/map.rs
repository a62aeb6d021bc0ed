//! The SSC's hybrid forward mapping.
//!
//! "The SSC keeps the entire mapping in its memory. However, the SSC maps a
//! fixed portion of the flash blocks at a 4 KB page granularity and the rest
//! at the granularity of a 256 KB erase block, similar to hybrid FTL mapping
//! mechanisms" (§4.1). Both levels live in one sparse hash map keyed by
//! logical block number in the *disk* address space (the unified address
//! space), one [`LbnEntry`] per logical block that has anything cached:
//!
//! * its **data block**, if any: a [`BlockEntry`] carrying the physical
//!   block plus a validity bitmap and "an eight-byte dirty-block bitmap
//!   recording which pages within the erase block contain dirty data"
//!   (§4.1);
//! * its **log row**: the log-block pages that hold newer (or the only)
//!   copies of its offsets — a [`SparseRow`] of physical pages with the
//!   dirty flag packed into the pointer, slot `i` for offset `i`.
//!
//! The sparse hash by LBN and the bitmap-plus-packed-array group are the
//! paper's; it keys page-granularity entries by block address in the same
//! kind of table, and `Ssc::map_memory` still *charges* the log directory
//! at that rate. Filing them as one row inside the logical block's entry is
//! ours: a lookup resolves its LBN with one search of the map (an operation
//! makes several on one LBN; the map answers a repeat of its last search,
//! hit or miss, from a memo), and a merge takes a block's log pages as one
//! array. The rows' arrays come from a [`RowPool`] the maps own, and go
//! back there when a row grows into a bigger array, empties or is taken.

use flashsim::{set_bits, Ppn};
use sparsemap::{RowPool, SparseHashMap, SparseRow};

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
    pub(crate) fn is_valid(&self, i: u32) -> bool {
        self.valid & (1 << i) != 0
    }

    /// Whether offset `i` is dirty.
    pub(crate) fn is_dirty(&self, i: u32) -> bool {
        self.dirty & (1 << i) != 0
    }

    /// Number of live pages.
    pub(crate) fn valid_count(&self) -> u32 {
        self.valid.count_ones()
    }

    /// Returns `true` if no page is dirty (the block is a silent-eviction
    /// candidate).
    pub(crate) fn is_clean(&self) -> bool {
        self.dirty == 0
    }

    /// Clears validity (and dirtiness) of offset `i`.
    pub(crate) fn mask_page(&mut self, i: u32) {
        self.valid &= !(1u64 << i);
        self.dirty &= !(1u64 << i);
    }

    /// Clears the dirty flag of offset `i`.
    pub(crate) fn clean_page(&mut self, i: u32) {
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

/// Everything the SSC maps for one logical block: its data block, if it
/// has one, and the log pages that supersede or extend it.
#[derive(Debug, Default)]
pub struct LbnEntry {
    /// The data block.
    pub block: Option<BlockEntry>,
    /// The log directory: slot `i` holds the log page of offset `i`.
    /// Disjoint from the data block's valid bits — an LBA has one live copy.
    pub log: SparseRow<PagePtr>,
}

impl LbnEntry {
    /// Live pages across the data block and the log.
    pub(crate) fn live_pages(&self) -> u32 {
        self.block.map_or(0, |b| b.valid_count()) + self.log.len() as u32
    }

    fn is_empty(&self) -> bool {
        self.block.is_none() && self.log.is_empty()
    }

    /// Masks `offset` out of the data block, dropping the block with its
    /// last live page. Returns the block's `pbn` if there was a block.
    fn mask(&mut self, offset: u32) -> Option<u64> {
        let mut block = self.block?;
        block.mask_page(offset);
        self.block = (block.valid != 0).then_some(block);
        Some(block.pbn)
    }
}

/// What [`SscMaps::remove_lba`] took out of the maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Removed {
    /// A log page.
    Page(PagePtr),
    /// One page of the data block `pbn`; `survivor` is the block's entry as
    /// it now stands, `None` when that was its last live page.
    BlockPage {
        /// Physical block that held the page.
        pbn: u64,
        /// The entry after masking, if any page is left.
        survivor: Option<BlockEntry>,
    },
}

/// The combined hybrid forward map.
#[derive(Debug)]
pub struct SscMaps {
    /// LBN → data block and log row. An entry with neither is never stored.
    lbns: SparseHashMap<LbnEntry>,
    /// The log rows' spare arrays.
    pool: RowPool<PagePtr>,
    /// Page-level entries across all rows.
    pages: usize,
    /// Entries that have a data block.
    blocks: usize,
    ppb: u32,
    /// `log2(ppb)`.
    shift: u32,
}

impl SscMaps {
    /// Creates empty maps for a device with `ppb` pages per erase block.
    ///
    /// # Panics
    ///
    /// Panics if `ppb` exceeds 64 (the bitmap width; the paper's geometry
    /// uses 64) or is not a power of two.
    pub fn new(ppb: u32) -> Self {
        Self::with_capacity(ppb, 0, 0)
    }

    /// Creates empty maps pre-sized for `page_hint` page-level and
    /// `block_hint` block-level entries (in the worst case every log page
    /// belongs to a logical block of its own), avoiding rehash churn while
    /// the cache warms up. Hints are advisory: the map still grows on
    /// demand, and oversized hints are clamped so a huge configured device
    /// cannot balloon an idle map.
    ///
    /// # Panics
    ///
    /// Panics if `ppb` exceeds 64 (the bitmap width; the paper's geometry
    /// uses 64) or is not a power of two.
    pub fn with_capacity(ppb: u32, page_hint: usize, block_hint: usize) -> Self {
        assert!(
            ppb <= 64,
            "dirty/valid bitmaps support at most 64 pages per block"
        );
        assert!(
            ppb.is_power_of_two(),
            "{ppb} pages per block is not a power of two"
        );
        const MAX_HINT: usize = 1 << 22;
        SscMaps {
            lbns: SparseHashMap::with_capacity(page_hint.saturating_add(block_hint).min(MAX_HINT)),
            pool: RowPool::new(),
            pages: 0,
            blocks: 0,
            ppb,
            shift: ppb.trailing_zeros(),
        }
    }

    /// Everything mapped for `lbn`, in one search.
    pub fn lbn(&self, lbn: u64) -> Option<&LbnEntry> {
        self.lbns.get(lbn)
    }

    /// Every mapped logical block, in unspecified order.
    pub fn lbns(&self) -> impl Iterator<Item = (u64, &LbnEntry)> {
        self.lbns.iter()
    }

    /// The data block of `lbn`.
    pub fn block(&self, lbn: u64) -> Option<BlockEntry> {
        self.lbns.get(lbn)?.block
    }

    /// Every data block, in unspecified order.
    pub fn blocks(&self) -> impl Iterator<Item = (u64, &BlockEntry)> {
        self.lbns
            .iter()
            .filter_map(|(lbn, e)| Some((lbn, e.block.as_ref()?)))
    }

    /// Number of data blocks.
    pub(crate) fn block_count(&self) -> usize {
        self.blocks
    }

    /// Number of page-level (log) entries.
    pub(crate) fn page_count(&self) -> usize {
        self.pages
    }

    /// The log page of `lba`, if it has one.
    pub fn page(&self, lba: u64) -> Option<PagePtr> {
        let (lbn, offset) = self.split(lba);
        self.lbns.get(lbn)?.log.get(offset).copied()
    }

    /// Real heap bytes of the map, its rows and their pool.
    pub fn heap_bytes(&self) -> u64 {
        let rows: usize = self.lbns.iter().map(|(_, e)| e.log.heap_bytes()).sum();
        self.lbns.memory().heap_bytes + (rows + self.pool.heap_bytes()) as u64
    }

    /// Pages per erase block.
    pub fn ppb(&self) -> u32 {
        self.ppb
    }

    /// Splits an LBA into (lbn, offset).
    pub fn split(&self, lba: u64) -> (u64, u32) {
        (lba >> self.shift, (lba & (self.ppb as u64 - 1)) as u32)
    }

    /// Resolves `lba` to its newest physical location, page level first.
    #[inline]
    pub fn lookup(&self, lba: u64) -> Option<Resolved> {
        let (lbn, offset) = self.split(lba);
        let entry = self.lbns.get(lbn)?;
        if let Some(ptr) = entry.log.get(offset) {
            return Some(Resolved::PageLevel {
                ppn: ptr.ppn(),
                dirty: ptr.dirty(),
            });
        }
        let block = entry.block.filter(|b| b.is_valid(offset))?;
        Some(Resolved::BlockLevel {
            ppn: Ppn(block.pbn << self.shift | offset as u64),
            dirty: block.is_dirty(offset),
        })
    }

    /// Returns `true` if `lba` is present and dirty.
    #[cfg(test)]
    pub(crate) fn is_dirty(&self, lba: u64) -> bool {
        self.lookup(lba).is_some_and(|r| r.dirty())
    }

    /// Inserts a page-level mapping, returning the previous pointer.
    pub fn insert_page(&mut self, lba: u64, ptr: PagePtr) -> Option<PagePtr> {
        let (lbn, offset) = self.split(lba);
        let entry = self.lbns.get_or_insert_with(lbn, LbnEntry::default);
        let old = entry.log.insert(offset, ptr, &mut self.pool);
        self.pages += usize::from(old.is_none());
        old
    }

    /// Applies `edit` to `lbn`'s entry, if it has one, and drops the entry
    /// should the edit leave it with neither a data block nor a log page.
    /// The edit gets the row pool alongside.
    fn edit<R>(
        &mut self,
        lbn: u64,
        edit: impl FnOnce(&mut LbnEntry, &mut RowPool<PagePtr>) -> R,
    ) -> Option<R> {
        let entry = self.lbns.get_mut(lbn)?;
        let result = edit(entry, &mut self.pool);
        if entry.is_empty() {
            self.lbns.remove(lbn);
        }
        Some(result)
    }

    /// Removes a page-level mapping.
    pub fn remove_page(&mut self, lba: u64) -> Option<PagePtr> {
        let (lbn, offset) = self.split(lba);
        let old = self.edit(lbn, |e, pool| e.log.remove(offset, pool))??;
        self.pages -= 1;
        Some(old)
    }

    /// Removes every page-level mapping of `lbn`, appending `(offset, ppn)`
    /// to `out` in ascending offset order, and returns the bitmap of the
    /// offsets that were dirty.
    pub fn take_log(&mut self, lbn: u64, out: &mut Vec<(u32, Ppn)>) -> u64 {
        let mut dirty = 0;
        let taken = self.edit(lbn, |e, pool| {
            let taken = e.log.len();
            e.log.drain(pool, |offset, ptr| {
                dirty |= u64::from(ptr.dirty()) << offset;
                out.push((offset, ptr.ppn()));
            });
            taken
        });
        self.pages -= taken.unwrap_or(0);
        dirty
    }

    /// Inserts a block-level mapping, returning the previous entry.
    pub fn insert_block(&mut self, lbn: u64, block: BlockEntry) -> Option<BlockEntry> {
        let entry = self.lbns.get_or_insert_with(lbn, LbnEntry::default);
        let old = entry.block.replace(block);
        self.blocks += usize::from(old.is_none());
        old
    }

    /// Removes a block-level mapping.
    pub fn remove_block(&mut self, lbn: u64) -> Option<BlockEntry> {
        let old = self.edit(lbn, |e, _| e.block.take())??;
        self.blocks -= 1;
        Some(old)
    }

    /// Masks one page of a block-level entry (page invalidated by overwrite
    /// or eviction); drops the entry when its last page goes. Returns the
    /// entry as it now stands: `None` when it was dropped (or never there).
    pub(crate) fn mask_block_page(&mut self, lba: u64) -> Option<BlockEntry> {
        let (lbn, offset) = self.split(lba);
        let survivor = self.edit(lbn, |e, _| e.mask(offset).map(|_| e.block))??;
        self.blocks -= usize::from(survivor.is_none());
        survivor
    }

    /// Removes the live copy of `lba` at whichever level holds it, with one
    /// probe, and reports what went.
    pub(crate) fn remove_lba(&mut self, lba: u64) -> Option<Removed> {
        let (lbn, offset) = self.split(lba);
        let removed = self.edit(lbn, |e, pool| {
            if let Some(ptr) = e.log.remove(offset, pool) {
                return Some(Removed::Page(ptr));
            }
            e.block.filter(|b| b.is_valid(offset))?;
            let pbn = e.mask(offset)?;
            Some(Removed::BlockPage {
                pbn,
                survivor: e.block,
            })
        })??;
        match removed {
            Removed::Page(_) => self.pages -= 1,
            Removed::BlockPage { survivor, .. } => self.blocks -= usize::from(survivor.is_none()),
        }
        Some(removed)
    }

    /// Clears the dirty flag of `lba` at whichever level holds it. Returns
    /// `None` if `lba` is not cached, else which level held it: `Some(None)`
    /// for a log page, `Some(Some(entry))` for a data-block page — `entry`
    /// being the block's entry as it now stands.
    pub(crate) fn set_clean(&mut self, lba: u64) -> Option<Option<BlockEntry>> {
        let (lbn, offset) = self.split(lba);
        let entry = self.lbns.get_mut(lbn)?;
        if let Some(ptr) = entry.log.get_mut(offset) {
            *ptr = ptr.cleaned();
            return Some(None);
        }
        let block = entry.block.as_mut().filter(|b| b.is_valid(offset))?;
        block.clean_page(offset);
        Some(Some(*block))
    }

    /// All dirty LBAs within `[start, end)` — the data behind `exists`.
    pub(crate) fn dirty_in_range(&self, start: u64, end: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for (lbn, entry) in self.lbns.iter() {
            let first = lbn * self.ppb as u64;
            let logged = entry.log.iter().filter(|(_, ptr)| ptr.dirty());
            let in_block = set_bits(entry.block.map_or(0, |b| b.dirty));
            logged
                .map(|(offset, _)| offset)
                .chain(in_block)
                .map(|offset| first + u64::from(offset))
                .filter(|lba| (start..end).contains(lba))
                .for_each(|lba| out.push(lba));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of cached blocks (live pages) across both levels.
    pub fn cached_pages(&self) -> u64 {
        self.lbns
            .iter()
            .map(|(_, e)| u64::from(e.live_pages()))
            .sum()
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

    /// The log bitmap of `lbn` (zero when it has no entry).
    fn log_offsets(m: &SscMaps, lbn: u64) -> u64 {
        m.lbn(lbn).map_or(0, |e| e.log.bits())
    }

    #[test]
    fn log_offsets_follow_page_inserts_and_removes() {
        let mut m = SscMaps::new(8);
        assert_eq!(log_offsets(&m, 1), 0);
        m.insert_page(9, PagePtr::new(Ppn(1), false));
        m.insert_page(15, PagePtr::new(Ppn(2), true));
        // Re-pointing a mapped page leaves its bit and the count alone.
        assert!(m.insert_page(9, PagePtr::new(Ppn(3), true)).is_some());
        assert_eq!(log_offsets(&m, 1), 0b1000_0010);
        assert_eq!(m.page_count(), 2);
        assert_eq!(log_offsets(&m, 0), 0, "neighbouring LBN untouched");
        assert!(m.remove_page(10).is_none(), "absent page: nothing changes");
        assert_eq!(m.remove_page(9), Some(PagePtr::new(Ppn(3), true)));
        assert_eq!(log_offsets(&m, 1), 0b1000_0000);
        let rows_held = m.heap_bytes();
        m.remove_page(15);
        assert!(m.lbn(1).is_none(), "an entry left with nothing is dropped");
        assert_eq!(m.page_count(), 0);
        // The emptied row's array waits in the pool, still counted, and the
        // next row takes it without growing the heap.
        let pooled = m.heap_bytes();
        assert!(
            pooled > rows_held,
            "heap bytes count the pool's array and list"
        );
        m.insert_page(12, PagePtr::new(Ppn(4), false));
        assert_eq!(m.heap_bytes(), pooled, "the next row reuses the array");
    }

    #[test]
    fn take_log_empties_the_row_in_offset_order() {
        let mut m = SscMaps::new(8);
        m.insert_block(2, BlockEntry::new(7, 0b0001, 0));
        for (offset, ppn) in [(5, 50), (1, 10), (3, 30)] {
            m.insert_page(16 + offset, PagePtr::new(Ppn(ppn), false));
        }
        m.insert_page(8, PagePtr::new(Ppn(1), false));
        m.insert_page(20, PagePtr::new(Ppn(40), true));
        let mut taken = vec![(0, Ppn(0))];
        let dirty = m.take_log(2, &mut taken);
        let ppns = [(0, 0), (1, 10), (3, 30), (4, 40), (5, 50)];
        assert_eq!(
            taken,
            ppns.map(|(o, p)| (o, Ppn(p))),
            "appended in offset order"
        );
        assert_eq!(dirty, 1 << 4);
        assert_eq!(m.page_count(), 1, "the other LBN keeps its page");
        // The data block keeps the entry alive; a log-only entry goes.
        assert!(m.lbn(2).is_some_and(|e| e.log.is_empty()));
        taken.clear();
        assert_eq!(m.take_log(1, &mut taken), 0);
        assert_eq!(taken, [(0, Ppn(1))]);
        assert!(m.lbn(1).is_none());
        taken.clear();
        assert_eq!(m.take_log(9, &mut taken), 0);
        assert!(taken.is_empty(), "absent LBN: nothing to take");
        assert_eq!((m.page_count(), m.block_count()), (0, 1));
    }

    #[test]
    fn remove_lba_reports_what_it_removed() {
        let mut m = SscMaps::new(8);
        m.insert_block(0, BlockEntry::new(4, 0b0110, 0b0100));
        m.insert_page(0, PagePtr::new(Ppn(99), true));
        assert_eq!(m.remove_lba(3), None, "offset not valid in the block");
        assert_eq!(m.remove_lba(80), None, "unmapped LBN");
        assert_eq!(
            m.remove_lba(0),
            Some(Removed::Page(PagePtr::new(Ppn(99), true)))
        );
        assert_eq!(
            m.remove_lba(2),
            Some(Removed::BlockPage {
                pbn: 4,
                survivor: Some(BlockEntry::new(4, 0b0010, 0)),
            })
        );
        assert_eq!(
            m.remove_lba(1),
            Some(Removed::BlockPage {
                pbn: 4,
                survivor: None,
            })
        );
        assert!(m.lbn(0).is_none());
        assert_eq!((m.page_count(), m.block_count()), (0, 0));
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
        assert_eq!(m.block(0), Some(BlockEntry::new(1, 0b0010, 0)));
        assert_eq!(m.mask_block_page(1), None);
        assert!(m.lbn(0).is_none(), "entry dropped when last page masked");
        assert_eq!(m.block_count(), 0);
        // Masking in absent entries is a no-op.
        assert_eq!(m.mask_block_page(17), None);
        // A log page keeps the logical block's entry, not its data block.
        m.insert_block(3, BlockEntry::new(2, 0b0001, 0));
        m.insert_page(25, PagePtr::new(Ppn(9), false));
        assert_eq!(m.mask_block_page(24), None);
        assert_eq!((m.block(3), m.block_count()), (None, 0));
        assert!(m.page(25).is_some());
    }

    #[test]
    fn set_clean_both_levels() {
        let mut m = SscMaps::new(8);
        m.insert_page(1, PagePtr::new(Ppn(50), true));
        m.insert_block(1, BlockEntry::new(2, 0b0100, 0b0100)); // lba 10 dirty
        assert!(m.is_dirty(1));
        assert!(m.is_dirty(10));
        assert_eq!(m.set_clean(1), Some(None), "a log page");
        assert_eq!(m.set_clean(10), Some(Some(BlockEntry::new(2, 0b0100, 0))));
        assert!(!m.is_dirty(1));
        assert!(!m.is_dirty(10));
        assert_eq!(m.set_clean(99), None, "absent block reports not-present");
        assert_eq!(m.set_clean(11), None, "so does an invalid offset");
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
