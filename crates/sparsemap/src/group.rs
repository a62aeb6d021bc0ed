//! A sparse group: `M = 32` buckets stored as a packed array plus an
//! occupancy bitmap.
//!
//! The paper (§4.1): "Each group is stored sparsely as an array that holds
//! values for allocated block addresses and an occupancy bitmap of size `M`,
//! with one bit for each bucket. A bit at location `i` is set to 1 if and
//! only if bucket `i` is non-empty. A lookup for bucket `i` calculates the
//! value location from the number of 1s in the bitmap before location `i`."

/// Buckets per group. The paper sets `M = 32`, "which reduces the overhead
/// of bitmap to just 3.5 bits per key".
pub(crate) const GROUP_SIZE: usize = 32;

/// One sparse group of [`GROUP_SIZE`] buckets.
///
/// Occupied buckets store `(key, value)` pairs packed densely in `slots`, in
/// bucket order; `occupancy` has bit `i` set iff bucket `i` is occupied, so
/// `occupancy.count_ones() == slots.len()`. Removal frees the slot and clears
/// the bit (the paper: "an invalid or unallocated bucket results in
/// reclaiming memory and the occupancy bitmap is updated accordingly"); the
/// group keeps no memory of a bucket having been used.
#[derive(Debug, Clone)]
pub(crate) struct Group<V> {
    occupancy: u32,
    slots: Vec<(u64, V)>,
}

impl<V> Group<V> {
    /// Creates an empty group.
    pub(crate) fn new() -> Self {
        Group {
            occupancy: 0,
            slots: Vec::new(),
        }
    }

    /// Packed slot index for bucket `i`: the number of occupied buckets
    /// before `i`.
    #[inline]
    fn rank(&self, i: usize) -> usize {
        debug_assert!(i < GROUP_SIZE);
        (self.occupancy & ((1u32 << i) - 1)).count_ones() as usize
    }

    /// The run of occupied buckets that starts at bucket `i`, read off the
    /// bitmap: the packed slot of bucket `i` and the entries of buckets
    /// `i..i + len`, which sit contiguously from there. `None` — decided
    /// without touching `slots` — when bucket `i` is empty.
    #[inline]
    pub(crate) fn run(&self, i: usize) -> Option<(usize, &[(u64, V)])> {
        let from_i = self.occupancy >> i;
        if from_i & 1 == 0 {
            return None;
        }
        // The shift fed zeros in at the top: the run ends with the group.
        let len = (!from_i).trailing_zeros() as usize;
        let first = self.rank(i);
        Some((first, &self.slots[first..first + len]))
    }

    /// The packed entries, in bucket order.
    #[inline]
    pub(crate) fn entries(&self) -> &[(u64, V)] {
        &self.slots
    }

    /// The packed entries, mutably: for updating a value or exchanging two
    /// entries. Which buckets are occupied does not change.
    #[inline]
    pub(crate) fn entries_mut(&mut self) -> &mut [(u64, V)] {
        &mut self.slots
    }

    /// Stores `(key, value)` into the empty bucket `i`, returning its packed
    /// slot.
    pub(crate) fn insert(&mut self, i: usize, key: u64, value: V) -> usize {
        debug_assert!(self.run(i).is_none());
        let slot = self.rank(i);
        self.occupancy |= 1 << i;
        self.slots.insert(slot, (key, value));
        slot
    }

    /// Takes the entry out of the occupied bucket `i`, freeing its slot and
    /// clearing its bit.
    pub(crate) fn take(&mut self, i: usize) -> (u64, V) {
        debug_assert!(self.run(i).is_some());
        self.occupancy &= !(1 << i);
        self.slots.remove(self.rank(i))
    }

    /// Number of occupied buckets.
    pub(crate) fn len(&self) -> usize {
        self.occupancy.count_ones() as usize
    }

    /// Heap bytes held by this group's packed slot array.
    pub(crate) fn slot_heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u64, V)>()
    }

    /// Consumes the group, returning its packed `(key, value)` pairs.
    pub(crate) fn into_slots(self) -> Vec<(u64, V)> {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(key, value)` in bucket `i`, if occupied.
    fn get(g: &Group<u32>, i: usize) -> Option<(u64, u32)> {
        g.run(i).map(|(_, run)| run[0])
    }

    fn occupied_buckets(g: &Group<u32>) -> Vec<usize> {
        (0..GROUP_SIZE).filter(|&i| g.run(i).is_some()).collect()
    }

    #[test]
    fn empty_group() {
        let g: Group<u32> = Group::new();
        assert_eq!(g.len(), 0);
        assert!(g.entries().is_empty());
        assert_eq!(get(&g, 0), None);
        assert_eq!(get(&g, 31), None);
        assert_eq!(occupied_buckets(&g), vec![]);
    }

    #[test]
    fn set_get_roundtrip_in_any_order() {
        let mut g: Group<u32> = Group::new();
        // Insert out of bucket order to exercise rank-based placement.
        g.insert(17, 170, 1700);
        g.insert(3, 30, 300);
        g.insert(31, 310, 3100);
        g.insert(0, 0, 1);
        assert_eq!(g.len(), 4);
        assert_eq!(get(&g, 3), Some((30, 300)));
        assert_eq!(get(&g, 17), Some((170, 1700)));
        assert_eq!(get(&g, 31), Some((310, 3100)));
        assert_eq!(get(&g, 0), Some((0, 1)));
        assert_eq!(get(&g, 5), None);
        // The packed array is in bucket order.
        let keys: Vec<u64> = g.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![0, 30, 170, 310]);
        assert_eq!(occupied_buckets(&g), vec![0, 3, 17, 31]);
    }

    #[test]
    fn set_replaces_existing() {
        let mut g: Group<u32> = Group::new();
        g.insert(9, 90, 900);
        let slot = g.insert(4, 40, 400);
        assert_eq!(slot, 0, "bucket 4 packs before bucket 9");
        let old = std::mem::replace(&mut g.entries_mut()[slot].1, 401);
        assert_eq!(old, 400);
        assert_eq!(g.len(), 2);
        assert_eq!(get(&g, 4), Some((40, 401)));
        assert_eq!(get(&g, 9), Some((90, 900)));
    }

    #[test]
    fn take_frees_slot_and_clears_bit() {
        let mut g: Group<u32> = Group::new();
        g.insert(1, 10, 100);
        g.insert(2, 20, 200);
        assert_eq!(g.take(1), (10, 100));
        assert_eq!(occupied_buckets(&g), vec![2]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.entries(), [(20, 200)], "slot freed, not left vacant");
        assert_eq!(get(&g, 2), Some((20, 200)));
        // The bucket is plain empty again: it ends a run and takes an entry.
        assert_eq!(get(&g, 1), None);
        g.insert(1, 11, 111);
        assert_eq!(get(&g, 1), Some((11, 111)));
        assert_eq!(g.run(1).unwrap().1.len(), 2);
    }

    #[test]
    fn get_mut_mutates_value() {
        let mut g: Group<u32> = Group::new();
        let slot = g.insert(9, 90, 900);
        g.entries_mut()[slot].1 = 901;
        assert_eq!(get(&g, 9), Some((90, 901)));
    }

    #[test]
    fn run_is_read_off_the_bitmap() {
        let mut g: Group<u32> = Group::new();
        for i in [2, 3, 4, 6, 30, 31] {
            g.insert(i, i as u64, 0);
        }
        let run_keys = |i| -> Option<(usize, Vec<u64>)> {
            g.run(i)
                .map(|(first, run)| (first, run.iter().map(|(k, _)| *k).collect()))
        };
        assert_eq!(run_keys(1), None);
        assert_eq!(run_keys(2), Some((0, vec![2, 3, 4])));
        assert_eq!(run_keys(4), Some((2, vec![4])));
        assert_eq!(run_keys(5), None);
        assert_eq!(run_keys(6), Some((3, vec![6])));
        // A run ends with the group even when its last bucket is occupied.
        assert_eq!(run_keys(30), Some((4, vec![30, 31])));
        assert_eq!(run_keys(31), Some((5, vec![31])));
    }

    #[test]
    fn entries_change_places_under_an_unchanged_bitmap() {
        let mut g: Group<u32> = Group::new();
        let mut other: Group<u32> = Group::new();
        for i in [4, 5, 6] {
            g.insert(i, i as u64, i as u32 * 10);
        }
        other.insert(0, 99, 990);
        g.entries_mut().swap(0, 2);
        assert_eq!(get(&g, 4), Some((6, 60)));
        assert_eq!(get(&g, 5), Some((5, 50)));
        assert_eq!(get(&g, 6), Some((4, 40)));
        std::mem::swap(&mut g.entries_mut()[1], &mut other.entries_mut()[0]);
        assert_eq!(get(&g, 5), Some((99, 990)));
        assert_eq!(get(&other, 0), Some((5, 50)));
        assert_eq!(occupied_buckets(&g), vec![4, 5, 6]);
    }

    #[test]
    fn full_group_all_buckets() {
        let mut g: Group<usize> = Group::new();
        for i in 0..GROUP_SIZE {
            g.insert(i, i as u64 * 7, i * 11);
        }
        assert_eq!(g.len(), GROUP_SIZE);
        for i in 0..GROUP_SIZE {
            let (first, run) = g.run(i).unwrap();
            assert_eq!(first, i);
            assert_eq!(run.len(), GROUP_SIZE - i);
            assert_eq!(run[0], (i as u64 * 7, i * 11));
        }
    }

    #[test]
    fn slot_heap_bytes_grows_with_entries() {
        let mut g: Group<u64> = Group::new();
        assert_eq!(g.slot_heap_bytes(), 0);
        g.insert(0, 1, 2);
        assert!(g.slot_heap_bytes() >= std::mem::size_of::<(u64, u64)>());
    }
}
