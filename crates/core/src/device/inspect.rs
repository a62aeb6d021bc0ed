//! Read-only views of the device's maps for tests and debugging, and the
//! brute-force victim selection the eviction index is checked against.

use super::Ssc;
use crate::map::Resolved;

impl Ssc {
    /// Test/debug helper: block-level entries.
    pub fn debug_block_entries(&self) -> Vec<(u64, u64, u32, bool)> {
        self.maps
            .blocks()
            .map(|(lbn, e)| (lbn, e.pbn, e.valid_count(), e.is_clean()))
            .collect()
    }

    /// Test/debug helper: page-level entry count.
    pub fn debug_page_entries(&self) -> usize {
        self.maps.page_count()
    }

    /// Test/debug helper: current page-map target of an LBA.
    pub fn debug_lookup(&self, lba: u64) -> Option<(u64, bool, &'static str)> {
        self.maps.lookup(lba).map(|r| {
            let level = match r {
                Resolved::PageLevel { .. } => "page",
                Resolved::BlockLevel { .. } => "block",
            };
            (r.ppn().raw(), r.dirty(), level)
        })
    }
}

#[cfg(test)]
impl Ssc {
    /// Brute-force rebuild-and-sort victim selection — the reference
    /// implementation the index is checked against. Retained solely for the
    /// index/scan oracle tests.
    pub(super) fn select_eviction_victims_scan(&self) -> Vec<(u64, crate::map::BlockEntry)> {
        let geometry = self.dev.geometry();
        let preferred_plane = self.pool.emptiest_plane();
        let mut candidates: Vec<_> = self
            .maps
            .blocks()
            .filter(|(_, e)| e.is_clean())
            .map(|(lbn, e)| {
                let plane = geometry.plane_of(flashsim::Pbn(e.pbn));
                let primary = self.victim_score(e);
                (primary.0, primary.1, plane != preferred_plane, lbn, *e)
            })
            .collect();
        // Lowest score first; same-plane victims preferred; LBN for
        // determinism.
        candidates.sort_by_key(|&(a, b, off_plane, lbn, _)| (a, b, off_plane, lbn));
        candidates
            .into_iter()
            .take(self.config.evict_batch)
            .map(|(_, _, _, lbn, e)| (lbn, e))
            .collect()
    }
}
