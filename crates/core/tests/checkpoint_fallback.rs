//! Checkpoint-slot corruption fallback (§4.2.2).
//!
//! The SSC "maintains two checkpoints on dedicated regions" precisely so a
//! corrupted or torn newest snapshot is survivable: recovery detects the
//! bad CRC, falls back to the older slot, and replays the *longer* log
//! suffix. Because log replay is deterministic, recovering from the older
//! slot over more records must converge to exactly the same maps as
//! recovering from the newest slot over fewer — which this test checks by
//! running the identical seeded workload on two devices, scribbling on one
//! device's newest checkpoint, and demanding bit-identical recovered state.

use flashtier_core::{Ssc, SscConfig, SscError};
use flashtier_testkit::{lcg, Codec, Tagged};

fn config() -> SscConfig {
    let mut config = SscConfig::small_test();
    config.checkpoint_write_interval = 25; // populate both slots quickly
    config
}

/// Runs the same seeded workload on one SSC.
fn drive(ssc: &mut Ssc, seed: u64) {
    const SPAN: u64 = 28;
    const OPS: u64 = 160;
    let mut rng = seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
    let page_size = ssc.page_size();
    for version in 1..=OPS {
        let lba = lcg(&mut rng) % SPAN;
        match lcg(&mut rng) % 8 {
            0..=4 => ssc
                .write_dirty(lba, &Tagged.encode(lba, version, page_size))
                .map(|_| ())
                .unwrap(),
            5 => match ssc.write_clean(lba, &Tagged.encode(lba, version, page_size)) {
                Ok(_) | Err(SscError::OutOfSpace) => {}
                Err(e) => panic!("seed {seed}: {e}"),
            },
            6 => drop(ssc.evict(lba).unwrap()),
            _ => drop(ssc.clean(lba).unwrap()),
        }
    }
}

#[test]
fn corrupted_newest_slot_recovers_identically_to_uncorrupted() {
    for seed in 0..25u64 {
        let mut pristine = Ssc::new(config());
        let mut scribbled = Ssc::new(config());
        drive(&mut pristine, seed);
        drive(&mut scribbled, seed);
        assert!(
            pristine.counters().checkpoints >= 2,
            "seed {seed}: both checkpoint slots must be populated"
        );

        scribbled.corrupt_latest_checkpoint();
        pristine.crash();
        scribbled.crash();
        let t_pristine = pristine.recover().unwrap();
        let t_scribbled = scribbled.recover().unwrap();

        // Same maps, bit for bit: the older slot plus the longer log suffix
        // replays to exactly what the newest slot plus the shorter one does.
        assert_eq!(
            pristine.debug_block_entries(),
            scribbled.debug_block_entries(),
            "seed {seed}: block maps diverged after fallback"
        );
        assert_eq!(
            pristine.debug_page_entries(),
            scribbled.debug_page_entries(),
            "seed {seed}: page-map sizes diverged after fallback"
        );
        // Every block reads identically (same data or same not-present).
        for lba in 0..40u64 {
            match (pristine.read(lba), scribbled.read(lba)) {
                (Ok((a, _)), Ok((b, _))) => assert_eq!(a, b, "seed {seed} lba {lba}"),
                (Err(SscError::NotPresent(_)), Err(SscError::NotPresent(_))) => {}
                (a, b) => panic!(
                    "seed {seed} lba {lba}: recoveries disagree: {:?} vs {:?}",
                    a.map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
        // Fallback replays a longer suffix, so it cannot be faster.
        assert!(
            t_scribbled >= t_pristine,
            "seed {seed}: fallback recovery should cost at least as much"
        );
        // The device with the corrupted slot stays fully operational and
        // can checkpoint again.
        let page = Tagged.encode(7, 10_000, scribbled.page_size());
        scribbled.write_dirty(7, &page).unwrap();
        assert_eq!(scribbled.read(7).unwrap().0, page);
    }
}
