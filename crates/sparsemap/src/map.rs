//! The sparse hash map.

use std::cell::Cell;

use crate::group::{Group, GROUP_SIZE};
use crate::memory::{sparse_modeled_bytes, MapMemory};

/// Minimum table size in buckets (two groups).
const MIN_BUCKETS: usize = 2 * GROUP_SIZE;

/// A new key grows the table when it would push `len / buckets` past this.
const MAX_LOAD: f64 = 0.75;

/// Shrink when `len / buckets` falls below this (down to the minimum table).
const MIN_LOAD: f64 = 0.10;

/// A lookup's answer: see [`SparseHashMap::find`].
type Found = Result<(usize, usize, usize), usize>;

/// A hash map from 64-bit keys to values, stored sparsely.
///
/// The layout and the memory model are the paper's (§4.1, the Google sparse
/// hash map the SSC uses for its logical-to-physical mapping): `t` buckets
/// in groups of 32, each group a packed array plus a 32-bit occupancy
/// bitmap, fully associative (complete keys stored). Memory grows with
/// occupied entries, not table span, and the structure reports both the
/// paper's modeled footprint and its real heap footprint via
/// [`SparseHashMap::memory`].
///
/// Probing and deletion are ours; the paper specifies neither. Collisions
/// resolve by **linear probing read off the bitmap**: the candidates for a
/// key are the run of occupied buckets starting at its home bucket, whose
/// length is a count of trailing ones in the group's bitmap and whose
/// entries are neighbours in the packed array — one bitmap load and a short
/// contiguous scan, entering the next group only when the run reaches the
/// end of this one; an empty home bucket is a miss decided from the bitmap
/// alone. A repeat of the last lookup, hit or miss, is answered from a memo
/// without probing, because one operation looks its key up several times.
/// Removal is **backward-shift deletion**: the entries after the freed
/// bucket in its run move back over it unless that would carry them in front
/// of their own home, so a run never has a gap and a table whose live size
/// is constant is never rebuilt, however long keys come and go.
///
/// The paper bounds runtime by the constant `M` and observes "typically
/// there are no more than 4-5 probes per lookup";
/// [`SparseHashMap::probe_stats`] measures the table's figure on demand so
/// the §6.3 microbenchmarks can verify it.
///
/// # Examples
///
/// ```
/// use sparsemap::SparseHashMap;
///
/// let mut map = SparseHashMap::new();
/// for lba in (0..10_000u64).map(|i| i * 1_000_003) {
///     map.insert(lba, lba ^ 1);
/// }
/// assert_eq!(map.len(), 10_000);
/// assert_eq!(map.get(5 * 1_000_003), Some(&(5 * 1_000_003 ^ 1)));
/// ```
#[derive(Debug, Clone)]
pub struct SparseHashMap<V> {
    groups: Vec<Group<V>>,
    buckets: usize,
    occupied: usize,
    /// Bumped by the two paths that move stored entries in place: a new
    /// key's packed insert and a removal's shifts. A resize rebuilds the
    /// map, and with it the epoch and the memo.
    epoch: u64,
    /// `(key, epoch)` of the last [`SparseHashMap::find`], whose answer,
    /// hit or miss, is `answer`: the memo, exact while `epoch` is the map's.
    /// A fresh map's memo names an epoch it never reaches. `Cell`s, so the
    /// map is `Send` but not `Sync`.
    last: Cell<(u64, u64)>,
    /// Kept apart from `last` so that a lookup loads it only to return it.
    answer: Cell<Found>,
}

impl<V> Default for SparseHashMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SparseHashMap<V> {
    /// Creates an empty map with the minimum table size.
    pub fn new() -> Self {
        Self::with_buckets(MIN_BUCKETS)
    }

    /// Creates an empty map sized for roughly `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        Self::with_buckets(Self::buckets_for(n))
    }

    /// The smallest table that holds `n` entries within [`MAX_LOAD`].
    fn buckets_for(n: usize) -> usize {
        let needed = (n as f64 / MAX_LOAD) as usize + 1;
        needed.next_power_of_two().max(MIN_BUCKETS)
    }

    fn with_buckets(buckets: usize) -> Self {
        debug_assert!(buckets.is_power_of_two());
        debug_assert!(buckets.is_multiple_of(GROUP_SIZE));
        SparseHashMap {
            groups: (0..buckets / GROUP_SIZE).map(|_| Group::new()).collect(),
            buckets,
            occupied: 0,
            epoch: 0,
            last: Cell::new((0, u64::MAX)),
            answer: Cell::new(Err(0)),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Current table size in buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The bucket `key`'s probe starts at.
    #[inline]
    fn home(&self, key: u64) -> usize {
        // Fibonacci multiplicative hashing; good bucket dispersion for both
        // sequential and strided LBA patterns.
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(17);
        hash as usize & (self.buckets - 1)
    }

    /// The one lookup. `Ok((bucket, group, slot))` locates `key`: the
    /// bucket it occupies, and the group and packed slot holding its entry.
    /// `Err(bucket)` is the first empty bucket of its probe sequence, where
    /// it would be stored.
    ///
    /// A repeat of the last lookup returns the memo, that lookup's answer,
    /// after two compares (key and epoch) and without touching the table.
    /// The answer is exact, a miss's as much as a hit's: only a new key's
    /// insert, a removal and a resize can change any key's answer, the first
    /// two bump the epoch and the third replaces the memo. Any other lookup
    /// probes, and its answer becomes the memo.
    #[inline]
    fn find(&self, key: u64) -> Found {
        if self.last.get() == (key, self.epoch) {
            return self.answer.get();
        }
        let found = self.probe(key);
        self.last.set((key, self.epoch));
        self.answer.set(found);
        found
    }

    /// The probe behind [`SparseHashMap::find`], same answer. Terminates
    /// because the load factor keeps at least a quarter of the buckets empty.
    #[inline]
    fn probe(&self, key: u64) -> Found {
        #[cfg(test)]
        tests::PROBES.with(|n| n.set(n.get() + 1));
        let mut bucket = self.home(key);
        loop {
            let gi = bucket / GROUP_SIZE;
            let Some((first, run)) = self.groups[gi].run(bucket % GROUP_SIZE) else {
                return Err(bucket);
            };
            // The scan starts with the home slot, where most hits are.
            if let Some(at) = run.iter().position(|(k, _)| *k == key) {
                return Ok((bucket + at, gi, first + at));
            }
            let end = bucket + run.len();
            if !end.is_multiple_of(GROUP_SIZE) {
                return Err(end);
            }
            // The run reached the end of its group and may go on in the
            // next (in the first, from the last).
            bucket = end & (self.buckets - 1);
        }
    }

    /// Stores the absent `key` at `bucket`, the `Err` of its `find`, and
    /// returns the group and packed slot it landed in, which become the
    /// memo. The only place a table grows: when this new key would push live
    /// load past `MAX_LOAD`.
    fn insert_absent(&mut self, mut bucket: usize, key: u64, value: V) -> (usize, usize) {
        if (self.occupied + 1) as f64 > self.buckets as f64 * MAX_LOAD {
            self.resize(self.buckets * 2);
            bucket = self.probe(key).expect_err("the key was absent");
        }
        self.occupied += 1;
        let gi = bucket / GROUP_SIZE;
        let slot = self.groups[gi].insert(bucket % GROUP_SIZE, key, value);
        // The packed insert moved the group's later entries up a slot.
        self.epoch += 1;
        self.last.set((key, self.epoch));
        self.answer.set(Ok((bucket, gi, slot)));
        (gi, slot)
    }

    /// Inserts or updates `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.find(key) {
            Ok((_, gi, slot)) => Some(std::mem::replace(
                &mut self.groups[gi].entries_mut()[slot].1,
                value,
            )),
            Err(bucket) => {
                self.insert_absent(bucket, key, value);
                None
            }
        }
    }

    /// Returns a mutable reference to the value for `key`, first inserting
    /// `default()` if the key is absent — one probe either way.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        let (gi, slot) = match self.find(key) {
            Ok((_, gi, slot)) => (gi, slot),
            Err(bucket) => self.insert_absent(bucket, key, default()),
        };
        &mut self.groups[gi].entries_mut()[slot].1
    }

    /// Returns a reference to the value for `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        let (_, gi, slot) = self.find(key).ok()?;
        Some(&self.groups[gi].entries()[slot].1)
    }

    /// Returns a mutable reference to the value for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let (_, gi, slot) = self.find(key).ok()?;
        Some(&mut self.groups[gi].entries_mut()[slot].1)
    }

    /// Removes `key`, returning its value. Frees a packed slot and leaves no
    /// gap in the probe run, so nothing of the entry remains.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (mut hole, mut hole_group, mut hole_slot) = self.find(key).ok()?;
        // The swaps and the packed take below move entries.
        self.epoch += 1;
        // Backward-shift deletion. The entry's bucket is a hole in its run:
        // walk the rest of the run and exchange the hole with every entry
        // that stays reachable in it (its home is not cyclically inside
        // `(hole, j]`), which carries the hole, and the removed entry with
        // it, to `j`. Bitmaps and all other slots stay put meanwhile; the
        // slot is freed where the hole settles.
        let mask = self.buckets - 1;
        let mut j = (hole + 1) & mask;
        loop {
            let group = j / GROUP_SIZE;
            let Some((first, run)) = self.groups[group].run(j % GROUP_SIZE) else {
                break;
            };
            for slot in first..first + run.len() {
                // Cyclic distances back from `j`: the entry probed at least
                // as far back as the hole iff its home is at or before it.
                let from_home = j.wrapping_sub(self.home(self.groups[group].entries()[slot].0));
                if from_home & mask >= j.wrapping_sub(hole) & mask {
                    self.swap_entries((hole_group, hole_slot), (group, slot));
                    (hole, hole_group, hole_slot) = (j, group, slot);
                }
                j += 1;
            }
            if !j.is_multiple_of(GROUP_SIZE) {
                break;
            }
            // The run reached the end of its group and may go on in the next.
            j &= mask;
        }
        let (_, value) = self.groups[hole_group].take(hole % GROUP_SIZE);
        self.occupied -= 1;
        if self.buckets > MIN_BUCKETS && (self.occupied as f64) < self.buckets as f64 * MIN_LOAD {
            self.resize(Self::buckets_for(self.occupied).min(self.buckets));
        }
        Some(value)
    }

    /// Exchanges two stored entries, each named by `(group, slot)`.
    fn swap_entries(&mut self, a: (usize, usize), b: (usize, usize)) {
        match self.groups.get_disjoint_mut([a.0, b.0]) {
            Ok([ga, gb]) => std::mem::swap(&mut ga.entries_mut()[a.1], &mut gb.entries_mut()[b.1]),
            Err(_) => self.groups[a.0].entries_mut().swap(a.1, b.1), // one group
        }
    }

    /// Rebuilds the table with `buckets` buckets: a new map, so a new epoch
    /// and memo too.
    fn resize(&mut self, buckets: usize) {
        let old = std::mem::replace(self, Self::with_buckets(buckets));
        self.occupied = old.occupied;
        for (key, value) in old.groups.into_iter().flat_map(Group::into_slots) {
            let bucket = self.probe(key).expect_err("stored keys are distinct");
            self.groups[bucket / GROUP_SIZE].insert(bucket % GROUP_SIZE, key, value);
        }
    }

    /// Iterates `(key, &value)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.groups
            .iter()
            .flat_map(|g| g.entries().iter().map(|(k, v)| (*k, v)))
    }

    /// Iterates all keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Mean probe length of the stored keys: the buckets a lookup of each
    /// visits (its displacement from home, plus one), found by looking every
    /// one of them up. 0 when empty.
    pub fn probe_stats(&self) -> f64 {
        let visited = |key| {
            let (bucket, ..) = self.find(key).expect("a stored key is found");
            (bucket.wrapping_sub(self.home(key)) & (self.buckets - 1)) + 1
        };
        self.keys().map(visited).sum::<usize>() as f64 / self.occupied.max(1) as f64
    }

    /// Panics unless the table is well formed: every group's bitmap counts
    /// its packed entries, `len()` is their sum, live load is within
    /// `MAX_LOAD`, and a lookup of every stored key ends at that very entry
    /// — it is reachable from its home through occupied buckets only, and
    /// stored once — and a lookup of the memo's key lands where the probe
    /// does. The oracle the property tests call after every step.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let (key, _) = self.last.get();
        assert_eq!(self.find(key), self.probe(key), "memo for key {key:#x}");
        assert_eq!(self.groups.len() * GROUP_SIZE, self.buckets);
        assert!(self.occupied as f64 <= self.buckets as f64 * MAX_LOAD);
        for (gi, g) in self.groups.iter().enumerate() {
            assert_eq!(g.len(), g.entries().len(), "group {gi}: bitmap vs slots");
            for (slot, (key, _)) in g.entries().iter().enumerate() {
                let found = self.probe(*key).map(|(_, gi, slot)| (gi, slot));
                assert_eq!(found, Ok((gi, slot)), "lookup of stored key {key:#x}");
            }
        }
        assert_eq!(self.occupied, self.groups.iter().map(Group::len).sum());
    }

    /// Memory report: the paper's modeled footprint and the real heap bytes.
    pub fn memory(&self) -> MapMemory {
        let heap: usize = self.groups.capacity() * std::mem::size_of::<Group<V>>()
            + self
                .groups
                .iter()
                .map(|g| g.slot_heap_bytes())
                .sum::<usize>();
        MapMemory {
            entries: self.occupied,
            modeled_bytes: sparse_modeled_bytes(self.occupied, std::mem::size_of::<V>()),
            heap_bytes: heap as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Probes this thread has run, counted in `SparseHashMap::probe`.
        pub(super) static PROBES: Cell<u64> = const { Cell::new(0) };
    }

    fn probes() -> u64 {
        PROBES.with(Cell::get)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SparseHashMap::new();
        assert_eq!(m.insert(10, "a"), None);
        assert_eq!(m.insert(20, "b"), None);
        assert_eq!(m.insert(10, "c"), Some("a"));
        assert_eq!(m.get(10), Some(&"c"));
        assert_eq!(m.get(20), Some(&"b"));
        assert_eq!(m.get(30), None);
        assert_eq!(m.remove(10), Some("c"));
        assert_eq!(m.remove(10), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_under_load_and_keeps_entries() {
        let mut m = SparseHashMap::new();
        let n = 10_000u64;
        for i in 0..n {
            // Sparse, strided keys like cached disk LBAs.
            m.insert(i * 8_191, i);
        }
        assert_eq!(m.len(), n as usize);
        assert!(m.buckets() >= n as usize);
        for i in 0..n {
            assert_eq!(m.get(i * 8_191), Some(&i), "key {i} lost after growth");
        }
        assert_eq!(m.get(7), None);
    }

    #[test]
    fn shrinks_after_mass_removal() {
        let mut m = SparseHashMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i);
        }
        let grown = m.buckets();
        for i in 0..9_990u64 {
            assert_eq!(m.remove(i), Some(i));
        }
        assert!(
            m.buckets() < grown,
            "table should shrink: {} vs {grown}",
            m.buckets()
        );
        for i in 9_990..10_000u64 {
            assert_eq!(m.get(i), Some(&i));
        }
        assert_eq!(m.len(), 10);
        for i in 9_990..10_000u64 {
            assert_eq!(m.remove(i), Some(i));
        }
        assert!(m.is_empty());
        assert_eq!(m.buckets(), MIN_BUCKETS, "an emptied table is the minimum");
        assert_eq!(m.get(5), None);
    }

    #[test]
    fn survivors_found_after_interleaved_removal_and_reinsertion() {
        // Remove every other key of a filled table: each removal closes its
        // gap, and every surviving key must still be reachable from home.
        let mut m = SparseHashMap::new();
        for i in 0..1_000u64 {
            m.insert(i, i);
        }
        for i in (0..1_000u64).step_by(2) {
            assert_eq!(m.remove(i), Some(i));
            m.check_invariants();
        }
        for i in 0..1_000u64 {
            assert_eq!(m.get(i), (i % 2 == 1).then_some(&i));
        }
        // Reinsert the removed keys; the table holds exactly what it did.
        let buckets = m.buckets();
        for i in (0..1_000u64).step_by(2) {
            assert_eq!(m.insert(i, i + 1), None);
        }
        m.check_invariants();
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.buckets(), buckets, "reinsertion fits the table it left");
        assert_eq!(m.get(0), Some(&1));
        assert_eq!(m.get(999), Some(&999));
    }

    #[test]
    fn overwriting_present_keys_never_grows_the_table() {
        // As full as a table gets: one more *new* key would grow it.
        let mut m = SparseHashMap::new();
        let full = (MIN_BUCKETS as f64 * MAX_LOAD) as u64;
        for i in 0..full {
            m.insert(i, i);
        }
        assert_eq!(m.buckets(), MIN_BUCKETS);
        for i in 0..full {
            assert_eq!(m.insert(i, i + 1), Some(i));
            *m.get_or_insert_with(i, || unreachable!("key {i} is present")) += 1;
            assert_eq!(m.buckets(), MIN_BUCKETS, "value update resized the table");
        }
        assert_eq!(m.get(7), Some(&9));
        // The growth check belongs to the absent-key arm.
        m.insert(full, 0);
        assert_eq!(m.buckets(), 2 * MIN_BUCKETS);
        m.check_invariants();
    }

    #[test]
    fn churn_at_constant_size_never_resizes() {
        // The `pages` traffic: every host write removes one key and inserts
        // a different one. Live size is constant, so the table is too.
        let live = 3_000u64;
        let mut m = SparseHashMap::with_capacity(live as usize);
        for i in 0..live {
            m.insert(i * 8_191, i);
        }
        let buckets = m.buckets();
        for i in 0..100_000u64 {
            assert_eq!(m.remove(i * 8_191), Some(i));
            assert_eq!(m.insert((i + live) * 8_191, i + live), None);
            assert_eq!(m.buckets(), buckets, "resized after {i} pairs");
        }
        m.check_invariants();
        assert_eq!(m.len(), live as usize);
        assert!(m.probe_stats() < 5.0, "avg probes {}", m.probe_stats());
    }

    /// The first `n` keys whose home in `m`'s table is `home`.
    fn homed_at(m: &SparseHashMap<u64>, home: usize, n: usize) -> Vec<u64> {
        (1u64..).filter(|&k| m.home(k) == home).take(n).collect()
    }

    #[test]
    fn every_entry_move_retires_the_memo() {
        // Three keys a home on 29..=33 of the 64-bucket table: one run from
        // bucket 29 to 43, across the group boundary at 32.
        let mut cluster = SparseHashMap::new();
        for home in 29..=33 {
            for k in homed_at(&cluster, home, 3) {
                cluster.insert(k, k);
            }
        }
        let head = homed_at(&cluster, 29, 1)[0];
        let spill = homed_at(&cluster, 30, 1)[0];
        let mut shifted = cluster.clone();
        shifted.remove(head);
        let bucket = |m: &SparseHashMap<u64>, k| m.probe(k).map(|(b, ..)| b);
        assert_eq!(
            (bucket(&cluster, spill), bucket(&shifted, spill)),
            (Ok(32), Ok(31))
        );
        // As full as the minimum table gets, and one key above the next
        // table's shrink line.
        let mut full = SparseHashMap::new();
        (0..48u64).for_each(|k| assert!(full.insert(k * 7, k).is_none()));
        let mut sparse = full.clone();
        sparse.insert(1 << 40, 0);
        (0..36u64).for_each(|k| assert!(sparse.remove(k * 7).is_some()));
        assert_eq!(
            (full.buckets(), sparse.buckets(), sparse.len()),
            (64, 128, 13)
        );

        type Step = fn(&mut SparseHashMap<u64>, u64);
        let (insert, remove): (Step, Step) = (
            |m, k| assert!(m.insert(k, 0).is_none()),
            |m, k| assert!(m.remove(k).is_some()),
        );
        let fresh = homed_at(&cluster, 28, 1)[0];
        let cases = [
            ("insert of a new key", &cluster, insert, fresh, false),
            (
                "remove across the group boundary",
                &cluster,
                remove,
                head,
                false,
            ),
            ("grow", &full, insert, 1 << 41, true),
            ("shrink", &sparse, remove, 1 << 40, true),
        ];
        for (what, map, step, key, resizes) in cases {
            let mut after = map.clone();
            step(&mut after, key);
            if resizes {
                assert_ne!(after.buckets(), map.buckets(), "{what}");
            } else {
                assert!(after.epoch > map.epoch, "{what}: the epoch stayed");
            }
            // Every key stored before or after, and misses whose answer
            // the step moves or keeps.
            let absent = [key, 3, 1 << 42, u64::MAX].into_iter();
            let misses = homed_at(map, 28, 2).into_iter().chain(homed_at(map, 31, 6));
            let keys: Vec<u64> = map
                .keys()
                .chain(after.keys())
                .chain(absent)
                .chain(misses)
                .collect();
            for &planted in &keys {
                let mut m = map.clone();
                let _ = m.find(planted);
                step(&mut m, key);
                for &k in std::iter::once(&planted).chain(&keys) {
                    assert_eq!(
                        m.find(k),
                        m.probe(k),
                        "{what}, memo of {planted:#x}, key {k:#x}"
                    );
                }
                m.check_invariants();
            }
        }

        // Value-only writes move nothing and keep the epoch.
        let mut m = cluster.clone();
        for k in cluster.keys() {
            assert_eq!(m.insert(k, 1), Some(k));
            *m.get_mut(k).unwrap() += 1;
            *m.get_or_insert_with(k, || unreachable!("present")) += 1;
        }
        assert_eq!(m.epoch, cluster.epoch);
    }

    #[test]
    fn repeat_lookups_of_one_key_probe_once() {
        let mut m = SparseHashMap::new();
        for k in 0..20u64 {
            m.insert(k << 8, k);
        }
        let (key, other) = (7, 5 << 8);
        let before = probes();
        assert_eq!(m.get(key), None);
        assert!(m.get_mut(key).is_none());
        *m.get_or_insert_with(key, || 1) += 1;
        assert_eq!(m.get(key), Some(&2));
        *m.get_mut(key).unwrap() += 1;
        assert_eq!(m.insert(key, 9), Some(3));
        assert_eq!(
            probes() - before,
            1,
            "the miss, the insert and the hits share one probe"
        );
        assert_eq!(m.get(other), Some(&5));
        assert_eq!(probes() - before, 2, "another key probes once");
        assert_eq!(m.get(key), Some(&9));
        assert_eq!(m.get(key), Some(&9));
        assert_eq!(probes() - before, 3, "the key probes again, once");
    }

    #[test]
    fn get_or_insert_with_probes_once_either_way() {
        let mut m: SparseHashMap<u64> = SparseHashMap::new();
        *m.get_or_insert_with(9, || 1) |= 0b100;
        assert_eq!(m.get(9), Some(&0b101));
        *m.get_or_insert_with(9, || unreachable!("present")) |= 0b010;
        assert_eq!(m.get(9), Some(&0b111));
        assert_eq!(m.len(), 1);
        // Absent keys count toward growth like any insert.
        for i in 0..1_000u64 {
            *m.get_or_insert_with(i << 20, || i) += 1;
        }
        m.check_invariants();
        assert_eq!(m.len(), 1_001);
        assert_eq!(m.get(5 << 20), Some(&6));
    }

    #[test]
    fn get_mut_and_contains() {
        let mut m = SparseHashMap::new();
        m.insert(42, 1);
        *m.get_mut(42).unwrap() += 10;
        assert_eq!(m.get(42), Some(&11));
        assert!(m.get(43).is_none());
        assert!(m.get_mut(43).is_none());
    }

    #[test]
    fn iter_and_keys_cover_all_entries() {
        let mut m = SparseHashMap::new();
        let keys = [5u64, 1 << 40, 77, 0, u64::MAX - 1];
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i);
        }
        let mut seen: Vec<u64> = m.keys().collect();
        seen.sort_unstable();
        let mut expect = keys.to_vec();
        expect.sort_unstable();
        assert_eq!(seen, expect);
        let sum: usize = m.iter().map(|(_, v)| *v).sum();
        assert_eq!(sum, 10);
    }

    #[test]
    fn probe_stats_small_at_paper_load() {
        let mut m = SparseHashMap::with_capacity(100_000);
        let mut key = 0x1234_5678u64;
        for i in 0..100_000u64 {
            key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.insert(key, i);
        }
        // The paper observes "no more than 4-5 probes per lookup" at its
        // operating point. Every stored key costs at least its home bucket.
        let probes = m.probe_stats();
        assert!((1.0..5.0).contains(&probes), "avg probes {probes}");
        assert_eq!(SparseHashMap::<u64>::new().probe_stats(), 0.0);
    }

    #[test]
    fn memory_grows_with_entries_not_span() {
        let mut m: SparseHashMap<u64> = SparseHashMap::new();
        // Span of keys is enormous; entries few.
        for i in 0..100u64 {
            m.insert(i * (1 << 40), i);
        }
        let mem = m.memory();
        assert_eq!(mem.entries, 100);
        // Modeled bytes per entry ~ size_of::<u64> + bitmap overhead.
        let per = mem.modeled_bytes_per_entry().unwrap();
        assert!((8.0..10.0).contains(&per), "modeled bytes/entry = {per}");
        assert!(mem.heap_bytes < 1 << 20);
    }

    #[test]
    fn with_capacity_avoids_rehash() {
        let mut m = SparseHashMap::with_capacity(1_000);
        let before = m.buckets();
        for i in 0..1_000u64 {
            m.insert(i, i);
        }
        assert_eq!(m.buckets(), before, "no growth expected");
    }

    #[test]
    fn dense_collision_heavy_keys() {
        // Keys that collide in low bits stress the probe sequence.
        let mut m = SparseHashMap::new();
        for i in 0..512u64 {
            m.insert(i << 32, i);
        }
        for i in 0..512u64 {
            assert_eq!(m.get(i << 32), Some(&i));
        }
    }
}
