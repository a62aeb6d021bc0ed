//! A sparse row: 64 slots addressed by position, stored as an occupancy
//! bitmap plus a packed array.
//!
//! This is the paper's group (§4.1: "an array that holds values for
//! allocated block addresses and an occupancy bitmap ... A lookup for bucket
//! `i` calculates the value location from the number of 1s in the bitmap
//! before location `i`") indexed by a caller-chosen offset instead of by a
//! hash: no keys are stored and nothing is probed. The SSC and the hybrid
//! FTL keep one row per logical block as its log directory, slot `i` holding
//! the log page of the block's `i`-th page.
//!
//! A row's packed array comes from a [`RowPool`] its owner keeps and goes
//! back to it: arrays come in five capacity classes (4, 8, 16, 32 and 64
//! slots), a full row moves its values into an array of the next class, and
//! a row that empties returns its array. Once the pool has seen a
//! directory's busiest moment, the directory's churn makes no allocator
//! call.

/// Number of capacity classes: arrays of 4, 8, 16, 32 and 64 slots.
const CLASSES: usize = 5;

/// Slots in an array of class `class`.
const fn class_slots(class: usize) -> usize {
    4 << class
}

/// The class of an array with `capacity` slots.
fn class_of(capacity: usize) -> usize {
    let class = (capacity / 4).max(1).ilog2() as usize;
    debug_assert_eq!(capacity, class_slots(class), "not a class size");
    class
}

/// Spare row arrays, one list per capacity class, all empty. The rows that
/// share a pool take their arrays from it and give them back; the arrays
/// are freed when the pool drops.
///
/// # Examples
///
/// ```
/// use sparsemap::{RowPool, SparseRow};
///
/// let mut pool = RowPool::new();
/// let mut row = SparseRow::new();
/// row.insert(3, 'a', &mut pool);
/// assert_eq!(row.heap_bytes(), 4 * 4, "a 4-slot array of `char`");
/// row.remove(3, &mut pool);
/// assert_eq!(row.heap_bytes(), 0, "its array is in the pool");
/// let held = pool.heap_bytes();
/// // The next row to need an array takes the spare one.
/// let mut other = SparseRow::new();
/// other.insert(9, 'b', &mut pool);
/// assert_eq!(pool.heap_bytes(), held - 4 * 4);
/// ```
#[derive(Debug)]
pub struct RowPool<V> {
    /// `spare[c]`: empty arrays of `class_slots(c)` slots.
    spare: [Vec<Vec<V>>; CLASSES],
}

impl<V> Default for RowPool<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> RowPool<V> {
    /// Creates an empty pool; allocates nothing.
    pub const fn new() -> Self {
        RowPool {
            spare: [const { Vec::new() }; CLASSES],
        }
    }

    /// An empty array of class `class`: a spare one when there is one.
    fn take(&mut self, class: usize) -> Vec<V> {
        self.spare[class]
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(class_slots(class)))
    }

    /// Keeps the empty `array` for the next row that needs its class.
    fn put(&mut self, array: Vec<V>) {
        debug_assert!(array.is_empty());
        self.spare[class_of(array.capacity())].push(array);
    }

    /// Heap bytes held by the spare arrays and the lists that hold them.
    pub fn heap_bytes(&self) -> usize {
        let value = std::mem::size_of::<V>();
        let handle = std::mem::size_of::<Vec<V>>();
        (0..CLASSES)
            .map(|c| {
                let list = &self.spare[c];
                list.capacity() * handle + list.len() * class_slots(c) * value
            })
            .sum()
    }
}

/// A 64-slot sparse array of `V`.
///
/// Its packed array is empty-and-unallocated exactly while the row is
/// empty; otherwise it is an array of one capacity class, taken from the
/// [`RowPool`] the caller passes to the methods that add or drop values.
///
/// # Examples
///
/// ```
/// use sparsemap::{RowPool, SparseRow};
///
/// let mut pool = RowPool::new();
/// let mut row = SparseRow::new();
/// row.insert(40, 'b', &mut pool);
/// row.insert(3, 'a', &mut pool);
/// assert_eq!(row.get(40), Some(&'b'));
/// assert_eq!(row.bits(), 1 << 40 | 1 << 3);
/// let mut taken = Vec::new();
/// row.drain(&mut pool, |slot, value| taken.push((slot, value)));
/// assert_eq!(taken, [(3, 'a'), (40, 'b')]);
/// assert_eq!(row.heap_bytes(), 0);
/// ```
#[derive(Debug)]
pub struct SparseRow<V> {
    /// Bit `i` set iff slot `i` is occupied; `bits.count_ones() ==
    /// packed.len()`.
    bits: u64,
    /// The occupied slots' values in ascending slot order. Unallocated
    /// whenever the row is empty, else of a class size.
    packed: Vec<V>,
}

impl<V> Default for SparseRow<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pairs each packed value with its slot: the `n`-th value sits in the slot
/// of the `n`-th set bit of `bits`.
fn with_slots<T>(mut bits: u64, packed: impl Iterator<Item = T>) -> impl Iterator<Item = (u32, T)> {
    packed.map(move |value| {
        let slot = bits.trailing_zeros();
        bits &= bits.wrapping_sub(1);
        (slot, value)
    })
}

impl<V> SparseRow<V> {
    /// Creates an empty row; allocates nothing.
    pub const fn new() -> Self {
        SparseRow {
            bits: 0,
            packed: Vec::new(),
        }
    }

    /// Whether slot `i` is occupied, and its packed index — where its value
    /// is, or where it would go: the number of occupied slots below `i`.
    #[inline]
    fn rank(&self, i: u32) -> (bool, usize) {
        debug_assert!(i < u64::BITS);
        let bit = 1u64 << i;
        (
            self.bits & bit != 0,
            (self.bits & (bit - 1)).count_ones() as usize,
        )
    }

    /// The value in slot `i`.
    #[inline]
    pub fn get(&self, i: u32) -> Option<&V> {
        let (occupied, at) = self.rank(i);
        occupied.then(|| &self.packed[at])
    }

    /// The value in slot `i`, mutably.
    #[inline]
    pub fn get_mut(&mut self, i: u32) -> Option<&mut V> {
        let (occupied, at) = self.rank(i);
        occupied.then(|| &mut self.packed[at])
    }

    /// Stores `value` in slot `i` (overwriting in place), returning the
    /// previous value. A full row first moves into an array of the next
    /// class from `pool`, and gives its old one back.
    pub fn insert(&mut self, i: u32, value: V, pool: &mut RowPool<V>) -> Option<V> {
        let (occupied, at) = self.rank(i);
        if occupied {
            return Some(std::mem::replace(&mut self.packed[at], value));
        }
        if self.packed.len() == self.packed.capacity() {
            self.grow(pool);
        }
        self.packed.insert(at, value);
        self.bits |= 1 << i;
        None
    }

    /// Moves the values into an empty array of the next class (the first
    /// class for an empty row) and gives the full array back to `pool`.
    fn grow(&mut self, pool: &mut RowPool<V>) {
        let next = match self.packed.capacity() {
            0 => 0,
            full => class_of(full) + 1,
        };
        let mut grown = pool.take(next);
        grown.append(&mut self.packed);
        let full = std::mem::replace(&mut self.packed, grown);
        if next > 0 {
            pool.put(full);
        }
    }

    /// Empties slot `i`, returning its value. The row gives its array back
    /// to `pool` with its last value.
    pub fn remove(&mut self, i: u32, pool: &mut RowPool<V>) -> Option<V> {
        let (occupied, at) = self.rank(i);
        if !occupied {
            return None;
        }
        self.bits &= !(1u64 << i);
        let value = self.packed.remove(at);
        if self.bits == 0 {
            pool.put(std::mem::take(&mut self.packed));
        }
        Some(value)
    }

    /// Empties the row, handing `each` every `(slot, value)` in ascending
    /// slot order, and gives its array back to `pool`.
    pub fn drain(&mut self, pool: &mut RowPool<V>, mut each: impl FnMut(u32, V)) {
        if self.bits == 0 {
            return;
        }
        let bits = std::mem::take(&mut self.bits);
        let mut packed = std::mem::take(&mut self.packed);
        for (slot, value) in with_slots(bits, packed.drain(..)) {
            each(slot, value);
        }
        pool.put(packed);
    }

    /// `(slot, &value)` in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        with_slots(self.bits, self.packed.iter())
    }

    /// The occupancy bitmap: bit `i` set iff slot `i` holds a value.
    #[inline]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Returns `true` if no slot is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Heap bytes held by the packed array; zero for an empty row, whose
    /// array is back in its pool.
    pub fn heap_bytes(&self) -> usize {
        self.packed.capacity() * std::mem::size_of::<V>()
    }
}
