//! Wear-aware, plane-balanced free-block pool.
//!
//! Both the SSD FTLs and the SSC allocate erased blocks from a common pool
//! abstraction. Allocation policy implements the two concerns the paper
//! names:
//!
//! * **wear leveling** — within a plane, the free block with the lowest
//!   erase count is handed out first, spreading erases evenly;
//! * **plane balancing** — unless the caller pins a plane, allocation takes
//!   from the plane with the most free blocks ("we also implement
//!   inter-plane copy of valid pages for garbage collection ... to balance
//!   the number of free blocks across all planes", §5).
//!
//! The structure is as flat as the policy: one binary min-heap of
//! `(erase_count, pbn)` per plane, the fullest or emptiest plane found by
//! scanning the planes' lengths (the paper's device has ten), and one bit
//! per block recording pool membership, which a heap cannot answer.
//!
//! The pool also owns the rule every layer over it uses to reclaim a block,
//! [`FreeBlockPool::erase_or_retire`]: erase it and pool it, or retire it
//! for good when the media refuses the erase; and the block census those
//! layers' structural checks share, [`FreeBlockPool::census`]: every block
//! is pooled, owned once, or retired.

use flashsim::{FlashDevice, FlashError, Geometry, Pbn};
use simkit::Duration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pool of erased, allocatable blocks.
///
/// The pool tracks erase counts at insertion time; callers return blocks to
/// the pool after erasing them with the then-current count.
#[derive(Debug, Clone)]
pub struct FreeBlockPool {
    /// Per plane, a min-heap of `(erase_count, pbn)`.
    planes: Vec<BinaryHeap<Reverse<(u64, Pbn)>>>,
    /// Bit `pbn` set iff the block is pooled: set on release, cleared on
    /// alloc, grown on demand. Guards against a double release, which would
    /// hand one erase block to two owners.
    pooled: Vec<u64>,
    total: usize,
}

impl FreeBlockPool {
    /// Creates an empty pool for a device with `planes` planes.
    pub fn new(planes: u32) -> Self {
        FreeBlockPool {
            planes: vec![BinaryHeap::new(); planes as usize],
            pooled: Vec::new(),
            total: 0,
        }
    }

    /// Creates a pool pre-filled with every block of the geometry (a freshly
    /// erased device).
    pub fn full(geometry: &Geometry) -> Self {
        let mut pool = Self::new(geometry.planes());
        for plane in 0..geometry.planes() {
            for block in 0..geometry.blocks_per_plane() {
                pool.release(geometry.pbn(plane, block), 0, geometry);
            }
        }
        pool
    }

    /// Total free blocks across all planes.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Returns `true` if no block is free.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Returns `true` if `pbn` is pooled.
    pub fn contains(&self, pbn: Pbn) -> bool {
        let (word, bit) = ((pbn.raw() / 64) as usize, 1u64 << (pbn.raw() % 64));
        self.pooled.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Returns a freshly erased block to the pool. Releasing a block that
    /// is already pooled is ignored.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the block is already pooled.
    pub fn release(&mut self, pbn: Pbn, erase_count: u64, geometry: &Geometry) {
        let (word, bit) = ((pbn.raw() / 64) as usize, 1u64 << (pbn.raw() % 64));
        if word >= self.pooled.len() {
            self.pooled.resize(word + 1, 0);
        }
        let fresh = self.pooled[word] & bit == 0;
        debug_assert!(fresh, "block {pbn:?} double-released");
        if fresh {
            self.pooled[word] |= bit;
            self.planes[geometry.plane_of(pbn) as usize].push(Reverse((erase_count, pbn)));
            self.total += 1;
        }
    }

    /// Erases `pbn` on `dev` and pools it at its new erase count, returning
    /// the erase time; or, when the block is worn out or fails the erase,
    /// retires it — it never re-enters the pool — and returns `None`.
    pub fn erase_or_retire(
        &mut self,
        dev: &mut FlashDevice,
        pbn: Pbn,
    ) -> Result<Option<Duration>, FlashError> {
        match dev.erase_block(pbn) {
            Ok(cost) => {
                let erases = dev.block_state(pbn)?.erase_count;
                self.release(pbn, erases, dev.geometry());
                Ok(Some(cost))
            }
            Err(FlashError::WornOut(_) | FlashError::EraseFailed(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Allocates the least-worn free block from the fullest plane.
    ///
    /// Returns `None` when the pool is empty.
    pub fn alloc(&mut self) -> Option<Pbn> {
        if self.planes.is_empty() {
            return None;
        }
        self.alloc_in_plane(self.fullest_plane())
    }

    /// Allocates the least-worn free block of a specific plane (the lowest
    /// block number among equally worn ones).
    pub fn alloc_in_plane(&mut self, plane: u32) -> Option<Pbn> {
        let Reverse((_, pbn)) = self.planes[plane as usize].pop()?;
        self.pooled[(pbn.raw() / 64) as usize] &= !(1 << (pbn.raw() % 64));
        self.total -= 1;
        Some(pbn)
    }

    /// The plane currently holding the most free blocks (lowest plane number
    /// on ties).
    pub fn fullest_plane(&self) -> u32 {
        let lens = self.planes.iter().map(BinaryHeap::len);
        (0u32..)
            .zip(lens)
            .max_by_key(|&(plane, len)| (len, Reverse(plane)))
            .map_or(0, |(plane, _)| plane)
    }

    /// The plane currently holding the fewest free blocks (lowest plane
    /// number on ties).
    pub fn emptiest_plane(&self) -> u32 {
        let lens = self.planes.iter().map(BinaryHeap::len);
        (0u32..)
            .zip(lens)
            .min_by_key(|&(plane, len)| (len, plane))
            .map_or(0, |(plane, _)| plane)
    }

    /// The block census a layer's structural check runs over its device:
    /// every physical block of `dev` is exactly one of
    ///
    /// * pooled: erased, and filed at its erase count;
    /// * owned, named once by `owners` (the layer's data and log blocks);
    /// * retired: in neither, and refusing erase
    ///   ([`FlashDevice::refuses_erase`]) — and there are exactly
    ///   `blocks_retired` of those, the layer's own count.
    ///
    /// It also checks the pool itself: the membership bits name exactly
    /// the heaps' blocks, each heap holds blocks of its own plane only, and
    /// `len()` is the heaps' total. Returns the first broken rule. Test
    /// support; no pool or device operation calls it.
    pub fn census(
        &self,
        dev: &FlashDevice,
        owners: impl IntoIterator<Item = Pbn>,
        blocks_retired: u64,
    ) -> Result<(), String> {
        let geometry = dev.geometry();
        let mut heaped = 0;
        for (plane, heap) in (0u32..).zip(&self.planes) {
            for &Reverse((erases, pbn)) in heap {
                let block = pbn.raw();
                let state = dev.block_state(pbn).map_err(|e| e.to_string())?;
                if geometry.plane_of(pbn) != plane || !self.contains(pbn) {
                    return Err(format!(
                        "pool: block {block} misfiled in plane {plane}'s heap"
                    ));
                }
                if !state.is_empty() || state.erase_count != erases {
                    return Err(format!(
                        "pool: block {block} filed at {erases} erases holds {} pages at {}",
                        state.write_ptr, state.erase_count
                    ));
                }
            }
            heaped += heap.len();
        }
        let marked: usize = self.pooled.iter().map(|w| w.count_ones() as usize).sum();
        if marked != heaped || self.total != heaped {
            let total = self.total;
            return Err(format!(
                "pool: {marked} members marked, {heaped} in the heaps, {total} counted"
            ));
        }
        let mut owned = vec![false; geometry.total_blocks() as usize];
        for pbn in owners {
            let block = pbn.raw();
            let slot = owned
                .get_mut(block as usize)
                .ok_or_else(|| format!("owner names block {block}, past the device"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("block {block} owned twice"));
            }
        }
        let mut retired = 0;
        for (block, owned) in (0u64..).zip(owned) {
            let pbn = Pbn(block);
            match (owned, self.contains(pbn)) {
                (true, true) => return Err(format!("block {block} both owned and pooled")),
                (false, false) if dev.refuses_erase(pbn).map_err(|e| e.to_string())? => {
                    retired += 1;
                }
                (false, false) => {
                    return Err(format!("block {block} leaked: unowned, unpooled, erasable"))
                }
                _ => {}
            }
        }
        if retired != blocks_retired {
            return Err(format!(
                "{retired} blocks retired on the device, {blocks_retired} counted"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::FlashConfig;

    fn geom() -> Geometry {
        FlashConfig::small_test().geometry // 2 planes x 8 blocks
    }

    #[test]
    fn full_pool_has_every_block() {
        let g = geom();
        let pool = FreeBlockPool::full(&g);
        assert_eq!(pool.len(), g.total_blocks() as usize);
        assert!(!pool.is_empty());
    }

    #[test]
    fn alloc_prefers_fullest_plane() {
        let g = geom();
        let mut pool = FreeBlockPool::full(&g);
        // Drain plane 0 by pinned allocation.
        for _ in 0..5 {
            pool.alloc_in_plane(0).unwrap();
        }
        // Unpinned allocations now come from plane 1.
        let pbn = pool.alloc().unwrap();
        assert_eq!(g.plane_of(pbn), 1);
        assert_eq!(pool.fullest_plane(), 1);
        assert_eq!(pool.emptiest_plane(), 0);
    }

    #[test]
    fn alloc_prefers_least_worn() {
        let g = geom();
        let mut pool = FreeBlockPool::new(g.planes());
        pool.release(g.pbn(0, 0), 5, &g);
        pool.release(g.pbn(0, 1), 1, &g);
        pool.release(g.pbn(0, 2), 3, &g);
        assert_eq!(pool.alloc_in_plane(0).unwrap(), g.pbn(0, 1));
        assert_eq!(pool.alloc_in_plane(0).unwrap(), g.pbn(0, 2));
        assert_eq!(pool.alloc_in_plane(0).unwrap(), g.pbn(0, 0));
        assert_eq!(pool.alloc_in_plane(0), None);
    }

    #[test]
    fn empty_pool_allocs_none() {
        let g = geom();
        let mut pool = FreeBlockPool::new(g.planes());
        assert!(pool.is_empty());
        assert_eq!(pool.alloc(), None);
        assert_eq!(pool.alloc_in_plane(1), None);
    }

    #[test]
    fn occupancy_index_matches_scan_after_arbitrary_op_sequences() {
        // Oracle: after every operation of a random release/alloc trace the
        // pool must agree with a flat mirror of its content about every
        // plane's population, and alloc() must pick exactly the block the
        // policy names: least (erase_count, pbn) of the fullest plane.
        let g = Geometry::new(5, 8, 8, 64, 16);
        let mut pool = FreeBlockPool::new(g.planes());
        let mut free: Vec<(Pbn, u64)> = Vec::new(); // mirror of pool content
        let mut held: Vec<(Pbn, u64)> = (0..g.planes())
            .flat_map(|p| (0..g.blocks_per_plane()).map(move |b| (g.pbn(p, b), 0u64)))
            .collect();
        let in_plane = |free: &[(Pbn, u64)], plane: u32| {
            free.iter()
                .filter(|&&(b, _)| g.plane_of(b) == plane)
                .count()
        };
        let mut rng = 0xF00D_B10Cu64;
        let step = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *s >> 33
        };
        for _ in 0..2000 {
            let r = step(&mut rng);
            if r % 3 != 0 && !held.is_empty() {
                // Release a held block with a bumped erase count.
                let idx = (step(&mut rng) as usize) % held.len();
                let (pbn, erases) = held.swap_remove(idx);
                pool.release(pbn, erases + 1, &g);
                free.push((pbn, erases + 1));
            } else if !free.is_empty() {
                // Allocate: sometimes pinned, usually unpinned.
                let pick = if step(&mut rng) % 4 == 0 {
                    let plane = (step(&mut rng) % u64::from(g.planes())) as u32;
                    pool.alloc_in_plane(plane)
                } else {
                    let want_plane = (0..g.planes())
                        .max_by_key(|&p| (in_plane(&free, p), std::cmp::Reverse(p)))
                        .unwrap();
                    let want = free
                        .iter()
                        .filter(|&&(b, _)| g.plane_of(b) == want_plane)
                        .map(|&(b, e)| (e, b))
                        .min();
                    let got = pool.alloc();
                    assert_eq!(got, want.map(|(_, b)| b), "alloc diverged from the policy");
                    got
                };
                if let Some(pbn) = pick {
                    let idx = free.iter().position(|&(p, _)| p == pbn).unwrap();
                    held.push(free.swap_remove(idx));
                }
            }
            assert_eq!(pool.len(), free.len());
            for p in 0..g.planes() {
                assert_eq!(pool.planes[p as usize].len(), in_plane(&free, p));
            }
            let emptiest = (0..g.planes()).min_by_key(|&p| (in_plane(&free, p), p));
            assert_eq!(Some(pool.emptiest_plane()), emptiest);
        }
    }

    #[test]
    fn full_pool_drains_each_plane_in_wear_then_block_order() {
        let g = Geometry::new(5, 2000, 8, 64, 16);
        let mut pool = FreeBlockPool::full(&g);
        assert_eq!(pool.len(), 10_000);
        // Wear the ends and the middle of every plane.
        let worn = [(0, 2), (700, 1), (1999, 2)];
        for plane in 0..g.planes() {
            let held: Vec<_> = std::iter::from_fn(|| pool.alloc_in_plane(plane)).collect();
            for (block, pbn) in (0u32..).zip(held) {
                let erases = worn.iter().find(|w| w.0 == block).map_or(0, |w| w.1);
                pool.release(pbn, erases, &g);
            }
        }
        for plane in 0..g.planes() {
            let drained: Vec<_> = std::iter::from_fn(|| pool.alloc_in_plane(plane)).collect();
            let fresh = (0..2000).filter(|b| worn.iter().all(|w| w.0 != *b));
            let want: Vec<_> = fresh
                .chain([700, 0, 1999])
                .map(|b| g.pbn(plane, b))
                .collect();
            assert_eq!(drained, want, "plane {plane}");
        }
        assert!(pool.is_empty());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "double-released"))]
    fn double_release_is_refused() {
        let g = geom();
        let mut pool = FreeBlockPool::new(g.planes());
        pool.release(g.pbn(1, 3), 4, &g);
        pool.release(g.pbn(1, 3), 5, &g);
        // Release builds ignore the second call: one block, handed out once.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.alloc(), Some(g.pbn(1, 3)));
        assert_eq!(pool.alloc(), None);
    }

    #[test]
    fn erase_or_retire_pools_an_erased_block_and_drops_a_worn_one() {
        let config = FlashConfig::small_test().with_endurance(1);
        let mut dev = FlashDevice::new(config, flashsim::DataMode::Store);
        let mut pool = FreeBlockPool::new(dev.geometry().planes());
        let pbn = dev.geometry().pbn(1, 3);
        let cost = pool.erase_or_retire(&mut dev, pbn).unwrap();
        assert_eq!(cost, Some(config.timing.erase_cost()));
        assert_eq!(dev.block_state(pbn).unwrap().erase_count, 1);
        assert_eq!(pool.alloc(), Some(pbn), "the erased block is pooled");
        // Its endurance spent, the block refuses the next erase: retired.
        assert_eq!(pool.erase_or_retire(&mut dev, pbn), Ok(None));
        assert!(pool.is_empty(), "a worn-out block never re-enters the pool");
    }

    #[test]
    fn census_finds_every_block_pooled_owned_once_or_retired() {
        let config = FlashConfig::small_test();
        let mut dev = FlashDevice::new(config, flashsim::DataMode::Discard);
        let g = *dev.geometry();
        let mut pool = FreeBlockPool::full(&g);
        assert_eq!(pool.census(&dev, [], 0), Ok(()));
        let held = pool.alloc().unwrap();
        assert!(!pool.contains(held));
        let leaked = pool.census(&dev, [], 0).unwrap_err();
        assert!(leaked.contains("leaked"), "{leaked}");
        assert_eq!(pool.census(&dev, [held], 0), Ok(()));
        let twice = pool.census(&dev, [held, held], 0).unwrap_err();
        assert!(twice.contains("owned twice"), "{twice}");
        let pooled = g.pbn(1, 7);
        let both = pool.census(&dev, [held, pooled], 0).unwrap_err();
        assert!(both.contains("both owned and pooled"), "{both}");
        // A pool that files a block at the wrong erase count.
        let mut lone = FreeBlockPool::new(g.planes());
        lone.release(held, 5, &g);
        let rest = (0..g.total_blocks()).map(Pbn).filter(|&b| b != held);
        let misfiled = lone.census(&dev, rest, 0).unwrap_err();
        assert!(misfiled.contains("filed at 5 erases"), "{misfiled}");
        // The held block fails its erase: it grows bad and is retired.
        dev.set_fault_plan(flashsim::FaultPlan {
            erase_fail_ppm: 1_000_000,
            ..flashsim::FaultPlan::default()
        });
        assert_eq!(pool.erase_or_retire(&mut dev, held), Ok(None));
        assert_eq!(pool.census(&dev, [], 1), Ok(()));
        let uncounted = pool.census(&dev, [], 0).unwrap_err();
        assert!(uncounted.contains("1 blocks retired on the device, 0 counted"));
        pool.total += 1;
        let miscounted = pool.census(&dev, [], 1).unwrap_err();
        assert!(miscounted.starts_with("pool:"), "{miscounted}");
    }

    #[test]
    fn release_and_realloc_cycles() {
        let g = geom();
        let mut pool = FreeBlockPool::new(g.planes());
        let pbn = g.pbn(1, 3);
        pool.release(pbn, 0, &g);
        assert_eq!(pool.alloc().unwrap(), pbn);
        pool.release(pbn, 1, &g);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.alloc_in_plane(1).unwrap(), pbn);
        assert!(pool.is_empty());
    }
}
