//! The write-back manager's dirty-block table (§4.4).
//!
//! "The cache manager maintains an in-memory table of cached dirty blocks.
//! ... The dirty-block table is stored as a linear hash table containing
//! metadata about each dirty block. The metadata consists of an 8-byte
//! associated disk block number, an optional 8-byte checksum, two 2-byte
//! indexes to the previous and next blocks in the LRU cache replacement
//! list, and a 2-byte block state, for a total of 14-22 bytes."
//!
//! The FlashTier manager tracks only **dirty** blocks here — clean blocks
//! cost the host nothing, which is where the 89% host-memory saving of
//! Table 4 comes from. The table is the crate's slot table, one record per
//! slot it has handed out: its hash index is chained through the records
//! rather than linear, so it stores no key beyond the entry's own LBA and a
//! removal leaves no tombstone. Records and bucket heads grow with the
//! most dirty blocks tracked at once, up to the capacity, so the real
//! bytes follow the dirty count rather than the cache size.

use sparsemap::MapMemory;

use crate::slot_cache::SlotCache;

/// Modeled bytes per entry (no checksum: 8 LBA + 2+2 LRU + 2 state).
pub const ENTRY_BYTES: u64 = 14;

/// The dirty-block table: LBA set plus LRU ordering, growing on demand up
/// to a capacity.
///
/// # Examples
///
/// ```
/// use cachemgr::DirtyTable;
///
/// let mut table = DirtyTable::new(4);
/// table.touch(10);
/// table.touch(20);
/// table.touch(10); // 10 becomes most recent
/// assert_eq!(table.lru_block(), Some(20));
/// ```
#[derive(Debug, Clone)]
pub struct DirtyTable {
    /// Every entry is a dirty block, so entries are filed clean: the
    /// slot table's dirty sub-list stays empty.
    cache: SlotCache,
}

impl DirtyTable {
    /// Creates an empty table that grows to at most `capacity` dirty
    /// blocks.
    pub fn new(capacity: usize) -> Self {
        DirtyTable {
            cache: SlotCache::new(capacity),
        }
    }

    /// Number of tracked dirty blocks.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Returns `true` if no dirty block is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum dirty blocks the table can hold.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Returns `true` if `lba` is tracked as dirty.
    pub fn contains(&self, lba: u64) -> bool {
        self.cache.get(lba).is_some()
    }

    /// Refreshes the recency of `lba` if it is tracked, with a single index
    /// probe. Returns whether it was.
    pub(crate) fn touch_if_present(&mut self, lba: u64) -> bool {
        match self.cache.get(lba) {
            Some(slot) => {
                self.cache.touch(slot);
                true
            }
            None => false,
        }
    }

    /// Records `lba` as dirty (or refreshes its recency). Returns `false`
    /// when the table is full and the block was not already present.
    pub fn touch(&mut self, lba: u64) -> bool {
        if self.touch_if_present(lba) {
            return true;
        }
        match self.cache.pop_free() {
            Some(slot) => {
                self.cache.fill(slot, lba, false);
                true
            }
            None => false,
        }
    }

    /// Removes `lba` (it was cleaned or evicted). Returns `true` if present.
    pub fn remove(&mut self, lba: u64) -> bool {
        match self.cache.get(lba) {
            Some(slot) => {
                self.cache.remove(slot);
                true
            }
            None => false,
        }
    }

    /// The least recently used dirty block.
    pub fn lru_block(&self) -> Option<u64> {
        Some(self.cache.entry(self.cache.lru()?)?.0)
    }

    /// Starting from the LRU block, expands to the contiguous dirty run
    /// containing it (§4.4: "the cache manager prioritizes cleaning of
    /// contiguous dirty blocks, which can be merged together for writing to
    /// disk"). Replaces the contents of `run` (a buffer the caller reuses
    /// from one destage to the next) with the run in ascending LBA order;
    /// empty when the table is empty.
    pub fn lru_run(&self, max_len: usize, run: &mut Vec<u64>) {
        run.clear();
        let Some(seed) = self.lru_block() else {
            return;
        };
        run.push(seed);
        // Extend downward, then upward, while neighbours are dirty too.
        let mut lo = seed;
        while run.len() < max_len && lo > 0 && self.contains(lo - 1) {
            lo -= 1;
            run.push(lo);
        }
        let mut hi = seed;
        while run.len() < max_len && self.contains(hi + 1) {
            hi += 1;
            run.push(hi);
        }
        run.sort_unstable();
    }

    /// Iterates all tracked dirty blocks in slot order, which is the same
    /// on every run (neither LBA nor recency order).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.cache.entries().map(|(_, lba, _)| lba)
    }

    /// Host-memory report, using the paper's 14-byte-per-dirty-block model.
    pub fn memory(&self) -> MapMemory {
        MapMemory {
            entries: self.len(),
            modeled_bytes: self.len() as u64 * ENTRY_BYTES,
            heap_bytes: self.cache.heap_bytes() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_cache::Model;

    /// Oracle under forced collisions: every key shares one bucket, so one
    /// chain holds up to the whole table and removals unlink its head,
    /// middle and tail. After every step the slots, the index and the LRU
    /// order must equal the reference model.
    #[test]
    fn colliding_keys_match_the_model() {
        let mut t = DirtyTable::new(12);
        let keys = t.cache.colliding(16);
        let mut model = Model::new(t.capacity());
        let mut rng = simkit::SimRng::seed_from(0xD1C7_C0DE);
        let mut longest = 0;
        for step in 0..4000 {
            let lba = keys[rng.gen_range(keys.len() as u64) as usize];
            let chain = t.cache.chain(lba);
            longest = longest.max(chain.len());
            if rng.gen_bool(0.55) {
                assert_eq!(t.touch(lba), model.touch(lba, false, &chain), "{step}");
            } else {
                assert_eq!(t.remove(lba), model.remove(lba, &chain), "{step}");
            }
            for &k in &keys {
                let want = model.slot_of.get(&k).copied();
                assert_eq!(t.cache.get(k), want, "step {step}: lba {k}");
                assert_eq!(t.contains(k), want.is_some(), "step {step}: lba {k}");
            }
            let order: Vec<u64> = t
                .cache
                .lru_order()
                .into_iter()
                .map(|s| t.cache.entry(s).unwrap().0)
                .collect();
            assert_eq!(order, model.lru_order(), "step {step}");
            assert_eq!(t.len(), model.slot_of.len(), "step {step}");
            assert_eq!(t.cache.chained(), t.len(), "step {step}");
        }
        assert!(longest >= 3, "longest chain {longest}");
        assert!(
            model.removed_at.iter().all(|&n| n > 50),
            "{:?}",
            model.removed_at
        );
    }

    #[test]
    fn touch_remove_contains() {
        let mut t = DirtyTable::new(4);
        assert!(t.touch(10));
        assert!(t.touch(20));
        assert!(t.contains(10));
        assert_eq!(t.len(), 2);
        assert!(t.remove(10));
        assert!(!t.remove(10));
        assert!(!t.contains(10));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn capacity_limit() {
        let mut t = DirtyTable::new(2);
        assert!(t.touch(1));
        assert!(t.touch(2));
        assert!(!t.touch(3), "table full");
        // Refreshing an existing entry still works.
        assert!(t.touch(1));
        t.remove(2);
        assert!(t.touch(3));
    }

    #[test]
    fn lru_order() {
        let mut t = DirtyTable::new(4);
        t.touch(1);
        t.touch(2);
        t.touch(3);
        assert_eq!(t.lru_block(), Some(1));
        t.touch(1); // refresh
        assert_eq!(t.lru_block(), Some(2));
        t.remove(2);
        assert_eq!(t.lru_block(), Some(3));
    }

    #[test]
    fn touch_if_present_refreshes_without_inserting() {
        let mut t = DirtyTable::new(4);
        t.touch(1);
        t.touch(2);
        assert!(!t.touch_if_present(9));
        assert_eq!(t.len(), 2, "absent blocks are not recorded");
        assert!(t.touch_if_present(1));
        assert_eq!(t.lru_block(), Some(2), "same LRU effect as touch");
    }

    #[test]
    fn lru_run_expands_contiguous() {
        let mut t = DirtyTable::new(16);
        // Contiguous dirty region 10..14 plus stragglers.
        for lba in [12u64, 100, 10, 11, 13, 50] {
            t.touch(lba);
        }
        // LRU block is 12; its run is 10..=13.
        assert_eq!(t.lru_block(), Some(12));
        let mut run = vec![99; 3];
        t.lru_run(8, &mut run);
        assert_eq!(run, vec![10, 11, 12, 13], "stale contents replaced");
        // Bounded by max_len.
        t.lru_run(2, &mut run);
        assert_eq!(run.len(), 2);
        assert!(run.contains(&12));
    }

    #[test]
    fn lru_run_empty_table() {
        let t = DirtyTable::new(4);
        let mut run = vec![7];
        t.lru_run(8, &mut run);
        assert!(run.is_empty());
        assert_eq!(t.lru_block(), None);
        assert!(t.is_empty());
    }

    #[test]
    fn memory_tracks_only_dirty_entries() {
        let mut t = DirtyTable::new(1000);
        for lba in 0..100u64 {
            t.touch(lba);
        }
        let m = t.memory();
        assert_eq!(m.entries, 100);
        assert_eq!(m.modeled_bytes, 100 * ENTRY_BYTES);
    }

    /// Real bytes are the slot table grown so far: one half-cache-line
    /// record (which also carries the free list) per slot its allocation
    /// holds, doubling and clipped at the capacity, plus the bucket heads,
    /// eight per record up to the count of a full table, twice its slots
    /// rounded up.
    #[test]
    fn heap_bytes_count_records_and_heads() {
        let record = crate::slot_cache::SlotCache::RECORD_BYTES;
        assert_eq!(record, 32);
        let mut t = DirtyTable::new(1000);
        let mut tracked = 0;
        for (len, records, heads) in [
            (0, 0, 2),
            (1, 1, 8),
            (3, 4, 32),
            (100, 128, 1024),
            (300, 512, 2048),
            (600, 1000, 2048),
            (1000, 1000, 2048),
        ] {
            while tracked < len {
                assert!(t.touch(tracked));
                tracked += 1;
            }
            assert_eq!(t.cache.buckets(), heads, "{len} blocks");
            let heap = (records * record + heads * 4) as u64;
            assert_eq!(t.memory().heap_bytes, heap, "{len} blocks");
        }
        assert!(!t.touch(tracked), "full at its capacity");
        // Removals free slots for reuse but keep what the table grew.
        for lba in 0..500 {
            t.remove(lba);
        }
        assert_eq!(t.memory().heap_bytes, (1000 * record + 2048 * 4) as u64);
    }

    #[test]
    fn iter_covers_all() {
        let mut t = DirtyTable::new(8);
        for lba in [5u64, 9, 1] {
            t.touch(lba);
        }
        let mut seen: Vec<u64> = t.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 5, 9]);
    }
}
