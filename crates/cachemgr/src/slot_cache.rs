//! The slot table both cache managers keep (§4.4, §6.1): one record per
//! cache slot handed out, like the paper's dirty-block entry with its "two
//! 2-byte indexes to the previous and next blocks in the LRU cache
//! replacement list". A record holds its block's LBA, dirty bit, hash-chain
//! link and replacement-list neighbours (plus a second pair for Native's
//! dirty list), so a hit reads one bucket head and one record and relinks
//! its neighbours. Bucket heads and the LIFO free list complete the table.
//! Records and heads grow with the highest slot handed out, never past the
//! table's capacity, so the host holds state only for what it tracks.

/// No slot: the end of a chain or list, or an empty bucket.
const NIL: u32 = u32::MAX;

/// The replacement list: every occupied slot, most recent first.
const MAIN: usize = 0;
/// Dirty slots only, in the main list's relative order.
const DIRTY: usize = 1;

/// Bucket heads for `records` records of a table of `capacity` slots: a
/// power of two, eight per record so that a probe for an absent LBA seldom
/// reads a record, but never more than twice the capacity (rounded up),
/// the count of a full table; and at least two, so a bucket is a hash's
/// top bits.
fn buckets_for(records: usize, capacity: usize) -> usize {
    let full = (2 * capacity).next_power_of_two();
    (8 * records).next_power_of_two().min(full).max(2)
}

/// The Fibonacci hash of `lba`: its top bits pick a bucket, which spreads
/// sequential LBAs.
fn hash(lba: u64) -> u64 {
    lba.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One slot's record: 29 bytes, aligned to 32 so it never straddles a
/// cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Slot {
    lba: u64,
    /// The next slot on this slot's hash chain; the slot itself while it is
    /// on none, which is exactly while it is free.
    chain: u32,
    /// Per list (`MAIN`, `DIRTY`): the more recent neighbour...
    prev: [u32; 2],
    /// ...and the less recent one; a free slot's `next[MAIN]` links the
    /// free list.
    next: [u32; 2],
    dirty: bool,
}

impl Slot {
    /// A free record: on no chain and on no list.
    fn free(slot: u32) -> Self {
        Slot {
            lba: 0,
            chain: slot,
            prev: [NIL; 2],
            next: [NIL; 2],
            dirty: false,
        }
    }
}

fn some(slot: u32) -> Option<u32> {
    (slot != NIL).then_some(slot)
}

/// Slot table: LBA index, two recency lists and free list over slots
/// `0..capacity`, holding records only for the slots it has handed out.
///
/// Slot discipline, which fixes every slot number a manager hands out:
/// [`SlotCache::pop_free`] takes the top of the free list, else grows the
/// table by its lowest never-used slot; a victim [`SlotCache::evict`]ed to
/// make room is refilled directly, a slot [`SlotCache::remove`]d goes back
/// on top of the free list, and [`SlotCache::restore`] rebuilds the free
/// list in slot order.
#[derive(Debug, Clone)]
pub(crate) struct SlotCache {
    /// Records of slots `0..high-water`: every slot ever handed out.
    slots: Vec<Slot>,
    /// Bucket `b`'s first slot: see [`buckets_for`].
    heads: Vec<u32>,
    /// `64 - log2(buckets)`: a bucket is the hash's top bits.
    shift: u32,
    /// The most records the table grows to.
    capacity: usize,
    /// The free list's top: a stack linked through the free records' idle
    /// `next[MAIN]`. The never-used slots above the records follow it.
    free: u32,
    len: usize,
    /// Per list, its most and least recent slot.
    head: [u32; 2],
    tail: [u32; 2],
    dirty_count: usize,
}

impl SlotCache {
    /// An empty table of up to `capacity` slots; it holds no record yet.
    pub(crate) fn new(capacity: usize) -> Self {
        let buckets = buckets_for(0, capacity);
        SlotCache {
            slots: Vec::new(),
            heads: vec![NIL; buckets],
            shift: 64 - buckets.trailing_zeros(),
            capacity,
            free: NIL,
            len: 0,
            head: [NIL; 2],
            tail: [NIL; 2],
            dirty_count: 0,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Dirty slots.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty_count
    }

    /// Where `lba`'s chain starts.
    fn bucket(&self, lba: u64) -> usize {
        (hash(lba) >> self.shift) as usize
    }

    /// The slot holding `lba`, if any.
    pub(crate) fn get(&self, lba: u64) -> Option<u32> {
        let mut slot = self.heads[self.bucket(lba)];
        while slot != NIL && self.slots[slot as usize].lba != lba {
            slot = self.slots[slot as usize].chain;
        }
        some(slot)
    }

    /// `slot`'s LBA and dirty bit, or `None` while it is free.
    pub(crate) fn entry(&self, slot: u32) -> Option<(u64, bool)> {
        let rec = self.slots.get(slot as usize)?;
        (rec.chain != slot).then_some((rec.lba, rec.dirty))
    }

    /// Every occupied slot's `(slot, lba, dirty)`, in slot order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u64, bool)> + '_ {
        (0..self.slots.len() as u32).filter_map(|s| self.entry(s).map(|(l, d)| (s, l, d)))
    }

    /// The least recently used slot.
    pub(crate) fn lru(&self) -> Option<u32> {
        some(self.tail[MAIN])
    }

    /// The least recently used dirty slot.
    pub(crate) fn lru_dirty(&self) -> Option<u32> {
        some(self.tail[DIRTY])
    }

    /// Takes the free slot on top of the free list, else the lowest
    /// never-used one; `None` once every slot is in use.
    pub(crate) fn pop_free(&mut self) -> Option<u32> {
        if let Some(slot) = some(self.free) {
            self.free = self.slots[slot as usize].next[MAIN];
            return Some(slot);
        }
        let slot = self.slots.len();
        if slot == self.capacity {
            return None;
        }
        self.grow_to(slot + 1);
        Some(slot as u32)
    }

    /// Grows the records to `n` (at most the capacity), each new one free
    /// and off the free list. Their allocation doubles, clipped at the
    /// capacity; the bucket heads double while the records outgrow an
    /// eighth of them, and the occupied records are re-chained into the
    /// new heads.
    fn grow_to(&mut self, n: usize) {
        debug_assert!(n <= self.capacity, "slot {n} past the capacity");
        let have = self.slots.len();
        if n > self.slots.capacity() {
            let want = n.max(2 * self.slots.capacity()).min(self.capacity);
            self.slots.reserve_exact(want - have);
        }
        self.slots.extend((have as u32..n as u32).map(Slot::free));
        let buckets = buckets_for(n, self.capacity);
        if buckets > self.heads.len() {
            self.heads = vec![NIL; buckets];
            self.shift = 64 - buckets.trailing_zeros();
            for s in 0..have as u32 {
                if self.slots[s as usize].chain != s {
                    let bucket = self.bucket(self.slots[s as usize].lba);
                    self.slots[s as usize].chain = std::mem::replace(&mut self.heads[bucket], s);
                }
            }
        }
    }

    /// Files `lba` in `slot` (free, and off the free list) as the most
    /// recently used block.
    pub(crate) fn fill(&mut self, slot: u32, lba: u64, dirty: bool) {
        let bucket = self.bucket(lba);
        let rec = &mut self.slots[slot as usize];
        debug_assert_eq!(rec.chain, slot, "slot {slot} in use or still on a chain");
        rec.lba = lba;
        rec.dirty = dirty;
        rec.chain = std::mem::replace(&mut self.heads[bucket], slot);
        self.len += 1;
        self.push_front(MAIN, slot);
        if dirty {
            self.push_front(DIRTY, slot);
            self.dirty_count += 1;
        }
    }

    /// Makes `slot` the most recently used, on the dirty list too if it is
    /// dirty.
    pub(crate) fn touch(&mut self, slot: u32) {
        self.refront(MAIN, slot);
        if self.slots[slot as usize].dirty {
            self.refront(DIRTY, slot);
        }
    }

    /// Sets `slot`'s dirty bit; returns whether it changed. A slot turns
    /// dirty at the front of the dirty list, so it must be the most recently
    /// used to keep that list in the main list's order.
    pub(crate) fn set_dirty(&mut self, slot: u32, dirty: bool) -> bool {
        debug_assert!(self.entry(slot).is_some(), "slot {slot} not in use");
        if std::mem::replace(&mut self.slots[slot as usize].dirty, dirty) == dirty {
            return false;
        }
        if dirty {
            debug_assert_eq!(self.head[MAIN], slot, "dirtied off the front");
            self.push_front(DIRTY, slot);
            self.dirty_count += 1;
        } else {
            self.unlink(DIRTY, slot);
            self.dirty_count -= 1;
        }
        true
    }

    /// Empties `slot` and hands it to the caller to refill: an evicted
    /// victim's slot skips the free list.
    pub(crate) fn evict(&mut self, slot: u32) {
        self.unchain(slot);
        self.len -= 1;
        self.unlink(MAIN, slot);
        if std::mem::take(&mut self.slots[slot as usize].dirty) {
            self.unlink(DIRTY, slot);
            self.dirty_count -= 1;
        }
    }

    /// Empties `slot` and pushes it on the free list, to be filled next.
    pub(crate) fn remove(&mut self, slot: u32) {
        self.evict(slot);
        self.slots[slot as usize].next[MAIN] = std::mem::replace(&mut self.free, slot);
    }

    /// Fills a new, empty table with recovered `(slot, lba, dirty)`
    /// entries in the order given, growing it to the highest restored
    /// slot. The unused slots below that go on the free list, lowest on
    /// top; the never-used ones above it follow in the same order.
    pub(crate) fn restore(&mut self, entries: impl IntoIterator<Item = (u32, u64, bool)>) {
        debug_assert_eq!(self.len(), 0, "restore into a new table");
        for (slot, lba, dirty) in entries {
            if slot as usize >= self.slots.len() {
                self.grow_to(slot as usize + 1);
            }
            self.fill(slot, lba, dirty);
        }
        self.free = NIL;
        for s in (0..self.slots.len() as u32).rev() {
            if self.slots[s as usize].chain == s {
                self.slots[s as usize].next[MAIN] = std::mem::replace(&mut self.free, s);
            }
        }
    }

    /// Real heap bytes: the records and bucket heads grown so far (the free
    /// list lives in the records).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.heads.capacity() * std::mem::size_of::<u32>()
    }

    /// Unlinks `slot` from its hash chain and marks it as on none.
    fn unchain(&mut self, slot: u32) {
        let bucket = self.bucket(self.slots[slot as usize].lba);
        let mut pred = NIL;
        let mut at = self.heads[bucket];
        while at != slot {
            pred = at;
            at = self.slots[at as usize].chain;
        }
        let succ = std::mem::replace(&mut self.slots[slot as usize].chain, slot);
        match pred {
            NIL => self.heads[bucket] = succ,
            pred => self.slots[pred as usize].chain = succ,
        }
    }

    fn push_front(&mut self, list: usize, slot: u32) {
        let head = std::mem::replace(&mut self.head[list], slot);
        let rec = &mut self.slots[slot as usize];
        rec.prev[list] = NIL;
        rec.next[list] = head;
        match head {
            NIL => self.tail[list] = slot,
            head => self.slots[head as usize].prev[list] = slot,
        }
    }

    fn unlink(&mut self, list: usize, slot: u32) {
        let rec = &self.slots[slot as usize];
        let (prev, next) = (rec.prev[list], rec.next[list]);
        match prev {
            NIL => self.head[list] = next,
            prev => self.slots[prev as usize].next[list] = next,
        }
        match next {
            NIL => self.tail[list] = prev,
            next => self.slots[next as usize].prev[list] = prev,
        }
    }

    fn refront(&mut self, list: usize, slot: u32) {
        if self.head[list] != slot {
            self.unlink(list, slot);
            self.push_front(list, slot);
        }
    }
}

#[cfg(test)]
impl SlotCache {
    /// The slots from `start` on, following `link`.
    fn walk(&self, start: u32, link: impl Fn(&Slot) -> u32) -> Vec<u32> {
        std::iter::successors(some(start), |&s| some(link(&self.slots[s as usize]))).collect()
    }

    /// The slots on `lba`'s chain, head first.
    pub(crate) fn chain(&self, lba: u64) -> Vec<u32> {
        self.walk(self.heads[self.bucket(lba)], |rec| rec.chain)
    }

    /// Total chained slots.
    pub(crate) fn chained(&self) -> usize {
        let chain = |&head: &u32| self.walk(head, |rec| rec.chain).len();
        self.heads.iter().map(chain).sum()
    }

    /// The first `n` LBAs that share bucket 0 once the table is full:
    /// keys that force one long chain. Their hash's top bits are zero, so
    /// they share bucket 0 at every smaller bucket count too.
    pub(crate) fn colliding(&self, n: usize) -> Vec<u64> {
        let shift = 64 - buckets_for(self.capacity, self.capacity).trailing_zeros();
        (0..)
            .filter(|&lba| hash(lba) >> shift == 0)
            .take(n)
            .collect()
    }

    /// The main list's slots, least recent first.
    pub(crate) fn lru_order(&self) -> Vec<u32> {
        self.walk(self.tail[MAIN], |rec| rec.prev[MAIN])
    }

    /// The dirty list's slots, least recent first.
    pub(crate) fn dirty_order(&self) -> Vec<u32> {
        self.walk(self.tail[DIRTY], |rec| rec.prev[DIRTY])
    }

    /// The slot the next fill from the free list takes.
    pub(crate) fn next_free(&self) -> Option<u32> {
        let fresh = self.slots.len();
        some(self.free).or((fresh < self.capacity).then_some(fresh as u32))
    }

    /// Bucket heads.
    pub(crate) fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// Bytes of one slot's record.
    pub(crate) const RECORD_BYTES: usize = std::mem::size_of::<Slot>();
}

/// A reference model of a slot-indexed LRU table, for the oracles of both
/// managers and of [`SlotCache`]: LBA -> slot map, recency deque and LIFO
/// free list, with the table's slot discipline (the lowest free slot fills
/// first, an evicted victim's slot is reused directly, a removed slot is
/// pushed back, recovery refills in slot order). It also counts where on
/// its chain each removed slot sat.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Model {
    pub(crate) slot_of: std::collections::HashMap<u64, u32>,
    /// Front = most recently used.
    pub(crate) recency: std::collections::VecDeque<u64>,
    slots: usize,
    free: Vec<u32>,
    /// Removals seen at a chain's head, middle and tail.
    pub(crate) removed_at: [u32; 3],
}

#[cfg(test)]
impl Model {
    pub(crate) fn new(slots: usize) -> Self {
        let free = (0..slots as u32).rev().collect();
        Model {
            slots,
            free,
            ..Model::default()
        }
    }

    /// Touches `lba`: refreshes it, or files it in a free slot, or, when
    /// `evict` holds, in the LRU block's slot. `chain` is the index's chain
    /// for the evicted block before the step. Returns `false` when the
    /// table is full and may not evict.
    pub(crate) fn touch(&mut self, lba: u64, evict: bool, chain: &[u32]) -> bool {
        if self.slot_of.contains_key(&lba) {
            self.recency.retain(|&l| l != lba);
        } else {
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None if evict => {
                    let victim = *self.recency.back().expect("full table has blocks");
                    self.unfile(victim, chain)
                }
                None => return false,
            };
            self.slot_of.insert(lba, slot);
        }
        self.recency.push_front(lba);
        true
    }

    /// Removes `lba` if present, pushing its slot back on the free list.
    /// `chain` is its chain before the step.
    pub(crate) fn remove(&mut self, lba: u64, chain: &[u32]) -> bool {
        let present = self.slot_of.contains_key(&lba);
        if present {
            let slot = self.unfile(lba, chain);
            self.free.push(slot);
        }
        present
    }

    /// Recovery: keeps only the blocks `keep` accepts, refiled in slot
    /// order (the highest slot most recent), and rebuilds the free list.
    pub(crate) fn recover(&mut self, keep: impl Fn(u64) -> bool) {
        self.slot_of.retain(|&lba, _| keep(lba));
        let mut by_slot: Vec<(u32, u64)> = self.slot_of.iter().map(|(&l, &s)| (s, l)).collect();
        by_slot.sort_unstable();
        self.recency = by_slot.iter().rev().map(|&(_, lba)| lba).collect();
        let used: std::collections::HashSet<u32> = self.slot_of.values().copied().collect();
        self.free = (0..self.slots as u32)
            .rev()
            .filter(|s| !used.contains(s))
            .collect();
    }

    /// The slot the next fill from the free list takes.
    pub(crate) fn next_free(&self) -> Option<u32> {
        self.free.last().copied()
    }

    fn unfile(&mut self, lba: u64, chain: &[u32]) -> u32 {
        let slot = self.slot_of.remove(&lba).expect("filed");
        self.recency.retain(|&l| l != lba);
        let at = chain.iter().position(|&s| s == slot).expect("on its chain");
        let position = match at {
            0 => 0,
            _ if at + 1 == chain.len() => 2,
            _ => 1,
        };
        self.removed_at[position] += 1;
        slot
    }

    /// The recency order, least recent first (as [`SlotCache::lru_order`]).
    pub(crate) fn lru_order(&self) -> Vec<u64> {
        self.recency.iter().rev().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};

    /// Files `lba` as the most recent block like a manager does: refresh it
    /// if present, else fill a free slot or the LRU victim's.
    fn access(c: &mut SlotCache, lba: u64, dirty: bool) -> u32 {
        if let Some(slot) = c.get(lba) {
            c.touch(slot);
            if dirty {
                c.set_dirty(slot, true);
            }
            return slot;
        }
        let slot = c.pop_free().unwrap_or_else(|| {
            let victim = c.lru().expect("full table has blocks");
            c.evict(victim);
            victim
        });
        c.fill(slot, lba, dirty);
        slot
    }

    fn lbas(c: &SlotCache, slots: Vec<u32>) -> Vec<u64> {
        slots.into_iter().map(|s| c.entry(s).unwrap().0).collect()
    }

    #[test]
    fn push_touch_pop_order() {
        let mut c = SlotCache::new(8);
        for lba in 0..4 {
            access(&mut c, lba, false);
        }
        assert_eq!(c.len(), 4);
        // LRU order: 0 oldest.
        assert_eq!(c.lru(), Some(0));
        c.touch(0);
        assert_eq!(c.lru(), Some(1));
        for want in [1, 2, 3, 0] {
            let victim = c.lru().unwrap();
            assert_eq!(victim, want);
            c.remove(victim);
        }
        assert_eq!(c.lru(), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn remove_middle_and_reinsert() {
        let mut c = SlotCache::new(4);
        for lba in [10, 11, 12] {
            access(&mut c, lba, false);
        }
        c.remove(1);
        assert_eq!(c.get(11), None);
        assert_eq!(lbas(&c, c.lru_order()), [10, 12]);
        // The removed slot is the next to fill.
        assert_eq!(access(&mut c, 11, false), 1);
        assert_eq!(lbas(&c, c.lru_order()), [10, 12, 11]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn fill_links_a_free_slot() {
        let mut c = SlotCache::new(4);
        c.pop_free();
        let slot = c.pop_free().unwrap();
        c.fill(slot, 7, false);
        assert_eq!(c.get(7), Some(1));
        assert_eq!(c.lru_order(), [1]);
        assert_eq!(c.len(), 1, "slot 0 was taken, not filled");
        assert_eq!(c.next_free(), Some(2), "slot 0 is off the free list too");
    }

    #[test]
    fn single_element_edge_cases() {
        let mut c = SlotCache::new(2);
        access(&mut c, 5, true);
        assert_eq!((c.lru(), c.lru_dirty()), (Some(0), Some(0)));
        c.touch(0);
        c.remove(0);
        assert_eq!((c.lru(), c.lru_dirty(), c.dirty_len()), (None, None, 0));
        assert!(c.lru_order().is_empty());
        assert_eq!(c.chained(), 0);
    }

    #[test]
    fn slot_zero_is_distinguishable_from_nil() {
        let mut c = SlotCache::new(2);
        access(&mut c, 0, false);
        assert_eq!(c.get(0), Some(0));
        assert_eq!(c.get(1), None);
        access(&mut c, 1, false);
        c.remove(0);
        assert_eq!(c.get(1), Some(1));
        assert_eq!(c.get(0), None);
        assert_eq!(c.entry(0), None);
    }

    /// Recency against a reference deque: fills, refreshes, removals and
    /// LRU evictions over a 32-slot table.
    #[test]
    fn lru_matches_reference_deque() {
        for case in 0..128u64 {
            let mut rng = simkit::SimRng::seed_from(0xB100_1000 ^ case);
            let n = 1 + rng.gen_range(399) as usize;
            let mut c = SlotCache::new(32);
            // Reference: front = most recent.
            let mut reference: VecDeque<u64> = VecDeque::new();
            for _ in 0..n {
                let lba = rng.gen_range(48);
                match rng.gen_range(3) {
                    0 => {
                        access(&mut c, lba, false);
                        reference.retain(|&l| l != lba);
                        reference.push_front(lba);
                        reference.truncate(32);
                    }
                    1 => {
                        if let Some(slot) = c.get(lba) {
                            c.remove(slot);
                        }
                        reference.retain(|&l| l != lba);
                    }
                    _ => {
                        let victim = c.lru().map(|s| c.entry(s).unwrap().0);
                        assert_eq!(victim, reference.pop_back());
                        if let Some(slot) = c.lru() {
                            c.remove(slot);
                        }
                    }
                }
                assert_eq!(c.len(), reference.len());
                let lru = c.lru().map(|s| c.entry(s).unwrap().0);
                assert_eq!(lru, reference.back().copied());
            }
            let want: Vec<u64> = reference.iter().rev().copied().collect();
            assert_eq!(lbas(&c, c.lru_order()), want, "case {case}");
        }
    }

    /// Random fill / touch / dirty / clean / remove / recovery schedules.
    /// After every step the dirty list must be the main list filtered to
    /// dirty slots, the main list and every slot must match the model, and
    /// the next free slot must be the one the model predicts.
    #[test]
    fn dirty_list_follows_the_main_list_and_slots_follow_the_model() {
        for case in 0..64u64 {
            let mut rng = simkit::SimRng::seed_from(0x5107_CAC4 ^ case);
            let capacity = 1 + rng.gen_range(24) as usize;
            let span = 2 * capacity as u64 + 1;
            let mut c = SlotCache::new(capacity);
            let mut model = Model::new(capacity);
            let mut dirty: HashSet<u64> = HashSet::new();
            for step in 0..400 {
                let lba = rng.gen_range(span);
                match rng.gen_range(16) {
                    0..=8 => {
                        // A host read (clean) or write (dirty) of `lba`.
                        let write = rng.gen_bool(0.4);
                        let victim = c.lru().map(|s| c.entry(s).unwrap().0);
                        let chain = victim.map_or(Vec::new(), |v| c.chain(v));
                        if c.get(lba).is_none() && c.next_free().is_none() {
                            dirty.remove(&victim.unwrap());
                        }
                        access(&mut c, lba, write);
                        model.touch(lba, true, &chain);
                        if write {
                            dirty.insert(lba);
                        }
                    }
                    9..=10 => {
                        // The cleaner destages the LRU dirty block.
                        if let Some(slot) = c.lru_dirty() {
                            assert!(c.set_dirty(slot, false));
                            assert!(!c.set_dirty(slot, false));
                            dirty.remove(&c.entry(slot).unwrap().0);
                        }
                    }
                    11..=13 => {
                        let chain = c.chain(lba);
                        if let Some(slot) = c.get(lba) {
                            c.remove(slot);
                        }
                        model.remove(lba, &chain);
                        dirty.remove(&lba);
                    }
                    _ => {
                        // Crash: some entries survive, refiled in slot order.
                        let kept: Vec<(u32, u64, bool)> = (0..capacity as u32)
                            .filter_map(|s| c.entry(s).map(|(l, d)| (s, l, d)))
                            .filter(|&(_, l, _)| l % 3 != step % 3)
                            .collect();
                        c = SlotCache::new(capacity);
                        assert_eq!((c.len(), c.next_free()), (0, Some(0)));
                        c.restore(kept.iter().copied());
                        let survivors: HashSet<u64> = kept.iter().map(|e| e.1).collect();
                        model.recover(|l| survivors.contains(&l));
                        dirty.retain(|l| survivors.contains(l));
                    }
                }
                let main = c.lru_order();
                let want: Vec<u32> = main
                    .iter()
                    .copied()
                    .filter(|&s| c.entry(s).unwrap().1)
                    .collect();
                assert_eq!(c.dirty_order(), want, "case {case} step {step}");
                assert_eq!(lbas(&c, main), model.lru_order(), "case {case} step {step}");
                assert_eq!(c.next_free(), model.next_free(), "case {case} step {step}");
                for (&l, &s) in &model.slot_of {
                    assert_eq!(c.get(l), Some(s), "case {case} step {step}");
                    assert_eq!(c.entry(s), Some((l, dirty.contains(&l))));
                }
                assert_eq!(c.len(), model.slot_of.len());
                assert_eq!(c.chained(), c.len());
                assert_eq!(c.dirty_len(), dirty.len());
            }
        }
    }

    /// Growth on demand against the model: random fills (with and without
    /// evicting), removals and recoveries over tables of up to 160 slots,
    /// so fills cross every doubling of the records and bucket heads and a
    /// recovery restores slots the new table has not grown to, leaving
    /// gaps below its highest slot and never-used slots above it. After
    /// every step the index, the replacement order, the chains and the
    /// next free slot must match the model, and the bucket heads must be
    /// the fewest that keep twice the records.
    #[test]
    fn growth_on_demand_matches_the_model() {
        let mut short_restores = 0;
        for case in 0..32u64 {
            let mut rng = simkit::SimRng::seed_from(0x6E0F_0DE5 ^ case);
            let capacity = 1 + rng.gen_range(160) as usize;
            let span = 2 * capacity as u64 + 3;
            let mut c = SlotCache::new(capacity);
            let mut model = Model::new(capacity);
            let mut grown = 0;
            for step in 0..8 * capacity as u64 + 64 {
                let lba = rng.gen_range(span);
                if step % span == span - 1 {
                    // Crash: three blocks in four survive, refiled in slot
                    // order into a table that holds no record.
                    let kept: Vec<(u32, u64, bool)> =
                        c.entries().filter(|&(_, l, _)| l % 4 != step % 4).collect();
                    c = SlotCache::new(capacity);
                    assert_eq!((c.heap_bytes(), c.next_free()), (2 * 4, Some(0)));
                    c.restore(kept.iter().copied());
                    let survivors: HashSet<u64> = kept.iter().map(|e| e.1).collect();
                    model.recover(|l| survivors.contains(&l));
                    if c.slots.len() < capacity && c.len() < c.slots.len() {
                        short_restores += 1;
                    }
                } else {
                    match rng.gen_range(16) {
                        0..=8 => {
                            let victim = c.lru().map(|s| c.entry(s).unwrap().0);
                            let chain = victim.map_or(Vec::new(), |v| c.chain(v));
                            access(&mut c, lba, false);
                            assert!(model.touch(lba, true, &chain));
                        }
                        9..=11 => {
                            let filed = match c.get(lba) {
                                Some(slot) => {
                                    c.touch(slot);
                                    true
                                }
                                None => c.pop_free().map(|slot| c.fill(slot, lba, false)).is_some(),
                            };
                            assert_eq!(
                                filed,
                                model.touch(lba, false, &[]),
                                "case {case} step {step}"
                            );
                        }
                        _ => {
                            let chain = c.chain(lba);
                            if let Some(slot) = c.get(lba) {
                                c.remove(slot);
                            }
                            model.remove(lba, &chain);
                        }
                    }
                }
                for (&l, &s) in &model.slot_of {
                    assert_eq!(c.get(l), Some(s), "case {case} step {step}: lba {l}");
                }
                assert_eq!(c.get(span), None);
                assert_eq!(
                    lbas(&c, c.lru_order()),
                    model.lru_order(),
                    "case {case} step {step}"
                );
                assert_eq!(c.len(), model.slot_of.len(), "case {case} step {step}");
                assert_eq!(c.chained(), c.len(), "case {case} step {step}");
                assert_eq!(c.next_free(), model.next_free(), "case {case} step {step}");
                assert_eq!(
                    c.buckets(),
                    buckets_for(c.slots.len(), capacity),
                    "case {case} step {step}"
                );
                grown = grown.max(c.slots.len());
            }
            assert_eq!(grown, capacity, "case {case}: the table never filled");
            assert!(c.slots.len() <= c.slots.capacity() && c.slots.capacity() <= capacity);
        }
        // Recoveries that left free slots both below and above their mark.
        assert!(short_restores >= 8, "{short_restores}");
    }
}
