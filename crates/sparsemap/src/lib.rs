//! Sparse hash map for SSC address translation.
//!
//! The FlashTier SSC "optimizes for sparseness in the blocks it caches with a
//! sparse hash map data structure, developed at Google" (§4.1). This crate
//! reproduces that structure from scratch:
//!
//! * The table has `t` buckets divided into `t / M` **groups** of `M = 32`
//!   buckets each.
//! * A group stores only the values of its *allocated* buckets, packed
//!   densely, plus an `M`-bit occupancy bitmap. The packed position of
//!   bucket `i` is the popcount of the bitmap below bit `i`.
//! * The map is fully associative, so every entry encodes the complete
//!   64-bit block address for lookups (unlike FlashCache's set-associative
//!   structure).
//! * Memory grows with the number of *occupied* entries — about 8.4 bytes
//!   per occupied entry for 64-bit values (8 bytes value + 3.5 bits of
//!   bitmap overhead per key) — rather than with the size of the address
//!   space, which is what makes it the right shape for a cache that stores a
//!   few gigabytes out of a terabyte-sized disk address space.
//!
//! That layout and the memory model of [`memory`] are the paper's. Collision
//! handling and deletion it does not specify; ours read the occupancy bitmap
//! as the probe sequence — linear probing over runs of occupied buckets,
//! backward-shift deletion, no deletion markers — and a repeat of the last
//! lookup, hit or miss, is answered from a memo that every entry move
//! retires (see [`SparseHashMap`]).
//!
//! [`SparseHashMap`] is the sparse structure; [`DenseMap`] is the
//! linear-table baseline an SSD uses for its own (dense) address space. Both
//! report memory through the same [`MapMemory`] model so the Table 4
//! comparison is apples-to-apples.
//!
//! [`SparseRow`] is the paper's group on its own — a bitmap plus a packed
//! array, 64 slots wide — addressed by position instead of by hash. Holding
//! the log-block directory as one row per logical block, slot = page offset,
//! is ours: the paper keys its page-granularity entries by block address in
//! the hash table, and the devices are still *charged* for them that way
//! (8 B address + 8 B value + 3.5 bits per log page, [`memory`]). A row's
//! packed array comes from a [`RowPool`] its owner keeps, in one of five
//! capacity classes, and goes back there when the row grows into the next
//! class or empties, so a warm directory's churn makes no allocator call.
//!
//! # Examples
//!
//! ```
//! use sparsemap::SparseHashMap;
//!
//! let mut map: SparseHashMap<u64> = SparseHashMap::new();
//! map.insert(0xdead_beef, 42);
//! assert_eq!(map.get(0xdead_beef), Some(&42));
//! assert_eq!(map.remove(0xdead_beef), Some(42));
//! assert!(map.is_empty());
//! ```

pub mod dense;
mod group;
pub mod map;
pub mod memory;
pub mod row;

pub use dense::DenseMap;
pub use map::SparseHashMap;
pub use memory::MapMemory;
pub use row::{RowPool, SparseRow};
