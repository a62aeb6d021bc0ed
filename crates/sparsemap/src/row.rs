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

/// A 64-slot sparse array of `V`.
///
/// # Examples
///
/// ```
/// use sparsemap::SparseRow;
///
/// let mut row = SparseRow::new();
/// row.insert(40, 'b');
/// row.insert(3, 'a');
/// assert_eq!(row.get(40), Some(&'b'));
/// assert_eq!(row.bits(), 1 << 40 | 1 << 3);
/// assert_eq!(row.take().collect::<Vec<_>>(), [(3, 'a'), (40, 'b')]);
/// assert_eq!(row.heap_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct SparseRow<V> {
    /// Bit `i` set iff slot `i` is occupied; `bits.count_ones() ==
    /// packed.len()`.
    bits: u64,
    /// The occupied slots' values in ascending slot order. Unallocated
    /// whenever the row is empty.
    packed: Vec<V>,
}

impl<V> Default for SparseRow<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Pairs each packed value with its slot: the `n`-th value sits in the slot
/// of the `n`-th set bit of `bits`. Keeps the exact length of `packed`, so
/// collecting or extending from it reserves once.
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
    /// previous value.
    pub fn insert(&mut self, i: u32, value: V) -> Option<V> {
        let (occupied, at) = self.rank(i);
        if occupied {
            return Some(std::mem::replace(&mut self.packed[at], value));
        }
        self.packed.insert(at, value);
        self.bits |= 1 << i;
        None
    }

    /// Empties slot `i`, returning its value. The row releases its heap
    /// allocation with its last value.
    pub fn remove(&mut self, i: u32) -> Option<V> {
        let (occupied, at) = self.rank(i);
        if !occupied {
            return None;
        }
        self.bits &= !(1u64 << i);
        let value = self.packed.remove(at);
        if self.bits == 0 {
            self.packed = Vec::new();
        }
        Some(value)
    }

    /// Empties the row, yielding `(slot, value)` in ascending slot order.
    /// The values move into the iterator: the row is empty, and holds no
    /// heap allocation, as soon as this returns.
    pub fn take(&mut self) -> impl Iterator<Item = (u32, V)> + use<V> {
        let row = std::mem::take(self);
        with_slots(row.bits, row.packed.into_iter())
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

    /// Heap bytes held by the packed array; zero for an empty row.
    pub fn heap_bytes(&self) -> usize {
        self.packed.capacity() * std::mem::size_of::<V>()
    }
}
