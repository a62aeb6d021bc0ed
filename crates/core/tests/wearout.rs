//! Wear-out survival: an SSC whose flash has a tiny erase-endurance limit
//! must *complete* a long churn — worn-out blocks retire from the free
//! pool and capacity shrinks, but no `WornOut` ever reaches the host.

use flashsim::FlashConfig;
use flashtier_core::{Ssc, SscConfig, SscError};
use flashtier_testkit::lcg;

#[test]
fn ssc_survives_wearout_by_retiring_blocks() {
    let mut config = SscConfig::small_test();
    config.flash = FlashConfig::small_test().with_endurance(25);
    let total_blocks = config.flash.geometry.total_blocks();
    let mut ssc = Ssc::new(config);
    let page_size = ssc.page_size();
    let data = vec![0xAB; page_size];

    // Churn until wear has visibly retired capacity, then stop — running
    // the 16-block device all the way to zero capacity is legal but leaves
    // nothing to probe.
    let mut rng = 0x5EED_u64;
    let mut completed = 0u64;
    for _ in 0..20_000 {
        if ssc.counters().blocks_retired >= 3 && completed > 500 {
            break;
        }
        let lba = lcg(&mut rng) % 40;
        // A device that has retired most of its capacity may legally run
        // out of space; it must never surface a media error.
        match ssc.write_dirty(lba, &data) {
            Ok(_) => completed += 1,
            Err(SscError::OutOfSpace) => {
                ssc.evict(lba).unwrap();
            }
            Err(e) => panic!("wear-out leaked to the host: {e}"),
        }
    }
    let counters = ssc.counters();
    assert!(completed > 500, "churn barely ran: {completed} writes");
    assert!(
        counters.blocks_retired >= 3,
        "tiny endurance must retire blocks (got {})",
        counters.blocks_retired
    );
    // Retired capacity is gone for good: what remains in the free pool
    // cannot include the retired blocks.
    assert!(
        (ssc.free_blocks() as u64) < total_blocks - counters.blocks_retired,
        "retired blocks must leave the free pool"
    );
    // Still operational on the shrunken device: some block can be written
    // and read back (evicting first when the shrunken capacity is full).
    let mut wrote = false;
    for lba in 0..40 {
        match ssc.write_dirty(lba, &data) {
            Ok(_) => {
                assert_eq!(ssc.read(lba).expect("readable after write").0, data);
                wrote = true;
                break;
            }
            Err(SscError::OutOfSpace) => {
                let _ = ssc.evict(lba);
            }
            Err(e) => panic!("wear-out leaked to the host: {e}"),
        }
    }
    assert!(wrote, "device wedged after wear-out");
}
