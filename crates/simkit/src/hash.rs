//! A fast deterministic hasher for maps keyed by block addresses.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 with a per-process key:
//! safe against crafted collisions, but several times the cost of the
//! probe it guards on the per-event path, and it makes iteration order
//! differ from one process to the next. Simulator tables keyed by a block
//! address need neither property; [`BlockHash`] gives them one multiply-mix
//! per key and the same layout on every run.

use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::splitmix64;

/// `BuildHasher` for `HashMap`s keyed by block addresses:
/// `HashMap<u64, V, BlockHash>`.
pub type BlockHash = BuildHasherDefault<BlockHasher>;

/// The [`Hasher`] behind [`BlockHash`]: each written word is folded into
/// the state and passed through one SplitMix64 step. The finalizer mixes
/// every input bit into every output bit — `std`'s table takes its bucket
/// from the low bits and its control tag from the high ones, and block
/// addresses arrive in sequential runs that differ only in their low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        let mut state = self.0 ^ word;
        self.0 = splitmix64(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_a_pure_function_of_the_key() {
        let (a, b) = (BlockHash::default(), BlockHash::default());
        for key in [0u64, 1, 4096, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_ne!(a.hash_one(1u64), a.hash_one(2u64));
        // The byte-slice path agrees with the word path it is built on.
        let mut h = BlockHasher::default();
        h.write(&7u64.to_le_bytes());
        assert_eq!(h.finish(), a.hash_one(7u64));
    }

    #[test]
    fn sequential_keys_spread_over_low_and_high_bits() {
        // 4096 consecutive addresses into 64 buckets taken from the low six
        // bits and from the high six: a perfect spread is 64 per bucket.
        for base in [0u64, 1 << 20, 0xDEAD_BEEF_0000] {
            let (mut low, mut high) = ([0u32; 64], [0u32; 64]);
            for key in base..base + 4096 {
                let h = BlockHash::default().hash_one(key);
                low[(h & 63) as usize] += 1;
                high[(h >> 58) as usize] += 1;
            }
            for counts in [low, high] {
                let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
                assert!(*min >= 32 && *max <= 112, "skewed: {min}..{max}");
            }
        }
    }

    #[test]
    fn maps_iterate_in_the_same_order_every_time() {
        let build = || {
            let mut m: HashMap<u64, u64, BlockHash> = HashMap::default();
            for k in 0..1000u64 {
                m.insert(k * 7919, k);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
