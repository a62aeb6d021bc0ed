//! The LBA -> slot index both managers share (§4.4, §6.1). Their slot
//! arrays already hold each slot's LBA, so the index adds only bucket heads
//! and one chain link per slot, and never allocates after construction.

/// End of a chain, or an empty bucket.
const NIL: u32 = u32::MAX;

/// Chained hash index over slots `0..slots`.
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex {
    /// Slot `s`'s successor at `next[s]` (itself while on no chain), bucket
    /// `b`'s head at `next[slots + b]`: a power of two of buckets, at least
    /// twice the slots.
    next: Vec<u32>,
    slots: usize,
    /// `64 - log2(buckets)`: a bucket is the hash's top bits.
    shift: u32,
}

impl SlotIndex {
    pub(crate) fn new(slots: usize) -> Self {
        let buckets = (2 * slots).next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let next = (0..slots as u32).chain(vec![NIL; buckets]).collect();
        SlotIndex { next, slots, shift }
    }

    /// Where `lba`'s chain starts: Fibonacci hashing spreads sequential LBAs.
    fn head(&self, lba: u64) -> usize {
        self.slots + (lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The first slot on `lba`'s chain that the caller's slot array `holds`.
    pub(crate) fn get(&self, lba: u64, holds: impl Fn(u32) -> bool) -> Option<u32> {
        let mut slot = self.next[self.head(lba)];
        while slot != NIL && !holds(slot) {
            slot = self.next[slot as usize];
        }
        (slot != NIL).then_some(slot)
    }

    /// Files `slot`, on no chain yet, under `lba`.
    pub(crate) fn insert(&mut self, lba: u64, slot: u32) {
        debug_assert_eq!(self.next[slot as usize], slot, "slot already indexed");
        let head = self.head(lba);
        self.next[slot as usize] = std::mem::replace(&mut self.next[head], slot);
    }

    /// Unlinks `slot`, filed under `lba`. Panics if it is not on that chain.
    pub(crate) fn remove(&mut self, lba: u64, slot: u32) {
        let mut link = self.head(lba);
        while self.next[link] != slot {
            link = self.next[link] as usize;
        }
        self.next[link] = std::mem::replace(&mut self.next[slot as usize], slot);
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.next.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
impl SlotIndex {
    /// The slots on the chain headed at `next[head]`, head first.
    fn chain_at(&self, head: usize) -> Vec<u32> {
        let mut chain = Vec::new();
        let mut slot = self.next[head];
        while slot != NIL {
            chain.push(slot);
            slot = self.next[slot as usize];
        }
        chain
    }

    /// The slots on `lba`'s chain, head first.
    pub(crate) fn chain(&self, lba: u64) -> Vec<u32> {
        self.chain_at(self.head(lba))
    }

    /// Total chained slots.
    pub(crate) fn len(&self) -> usize {
        (self.slots..self.next.len())
            .map(|h| self.chain_at(h).len())
            .sum()
    }

    /// The first `n` LBAs that share bucket 0: keys that force one long
    /// chain.
    pub(crate) fn colliding(&self, n: usize) -> Vec<u64> {
        (0..)
            .filter(|&lba| self.head(lba) == self.slots)
            .take(n)
            .collect()
    }
}

/// A reference model of a slot-indexed LRU table, for the collision
/// oracles of both managers: LBA -> slot map, recency deque and LIFO free
/// list, with the managers' slot discipline (the lowest free slot fills
/// first, an evicted victim's slot is reused directly, a removed slot is
/// pushed back). It also counts where on its chain each removed slot sat.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Model {
    pub(crate) slot_of: std::collections::HashMap<u64, u32>,
    /// Front = most recently used.
    pub(crate) recency: std::collections::VecDeque<u64>,
    free: Vec<u32>,
    /// Removals seen at a chain's head, middle and tail.
    pub(crate) removed_at: [u32; 3],
}

#[cfg(test)]
impl Model {
    pub(crate) fn new(slots: usize) -> Self {
        let free = (0..slots as u32).rev().collect();
        Model {
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

    /// The recency order, least recent first (as `LruList::iter_lru`).
    pub(crate) fn lru_order(&self) -> Vec<u64> {
        self.recency.iter().rev().copied().collect()
    }
}
