//! Torn-tail WAL recovery properties.
//!
//! A power failure during a *non-atomic* final log flush may destroy an
//! arbitrary suffix of the bytes that flush wrote — including a cut in the
//! middle of a frame. Two properties must hold for every tear offset:
//!
//! 1. **Prefix durability** — the records that survive decoding are exactly
//!    a prefix of the records appended, and every record made durable by an
//!    *earlier* flush survives (only the final flush is tearable).
//! 2. **Never stale, never wedged** — an SSC recovering over a torn log
//!    serves each block at a version no older than its state at the
//!    penultimate flush, or not-present where that is legal; it never
//!    panics and stays fully operational.

use flashsim::FlashTiming;
use flashtier_core::wal::{LogRecord, Wal, RECORD_BYTES};
use flashtier_core::{Ssc, SscConfig, SscError};
use flashtier_testkit::{lcg, read_ssc, Model};

fn random_record(rng: &mut u64) -> LogRecord {
    match lcg(rng) % 6 {
        0 => LogRecord::InsertPage {
            lba: lcg(rng) % 512,
            ppn: lcg(rng) % 512,
            dirty: lcg(rng).is_multiple_of(2),
        },
        1 => LogRecord::RemovePage {
            lba: lcg(rng) % 512,
        },
        2 => LogRecord::InsertBlock {
            lbn: lcg(rng) % 64,
            pbn: lcg(rng) % 64,
            valid: lcg(rng),
            dirty: lcg(rng),
        },
        3 => LogRecord::RemoveBlock { lbn: lcg(rng) % 64 },
        4 => LogRecord::MaskBlockPage {
            lba: lcg(rng) % 512,
        },
        _ => LogRecord::SetClean {
            lba: lcg(rng) % 512,
        },
    }
}

#[test]
fn torn_tail_recovers_an_exact_prefix_for_random_offsets() {
    for seed in 0..300u64 {
        let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut w = Wal::new(FlashTiming::paper_default(), 4096);
        let mut appended: Vec<(u64, LogRecord)> = Vec::new();
        let mut safe = 0usize; // records durable before the final flush
        let flushes = 1 + lcg(&mut rng) % 4;
        for f in 0..flushes {
            for _ in 0..1 + lcg(&mut rng) % 12 {
                let record = random_record(&mut rng);
                let lsn = w.append(record);
                appended.push((lsn, record));
            }
            if f + 1 < flushes {
                w.flush();
                safe = appended.len();
            }
        }
        let before_final = w.bytes_since(0);
        w.flush();
        let final_bytes = (w.bytes_since(0) - before_final) as usize;

        // Tear anywhere from nothing to well past the final flush (the cap
        // must clamp it — earlier flushes are not tearable).
        let tear = (lcg(&mut rng) as usize) % (final_bytes + 2 * RECORD_BYTES as usize + 1);
        w.crash_torn(tear);

        let recovered = w.records_since(0);
        assert_eq!(
            recovered.as_slice(),
            &appended[..recovered.len()],
            "seed {seed}: recovered records are not a prefix"
        );
        assert!(
            recovered.len() >= safe,
            "seed {seed}: a tear of the final flush destroyed an earlier one \
             ({} < {safe})",
            recovered.len()
        );
        // The log stays appendable at a clean record boundary.
        let lsn = w.append(LogRecord::SetClean { lba: 9999 });
        w.flush();
        let after = w.records_since(0);
        assert_eq!(after.last().map(|&(l, _)| l), Some(lsn));
        assert_eq!(after.len(), recovered.len() + 1);
    }
}

#[test]
fn torn_recovery_never_serves_data_older_than_the_penultimate_flush() {
    const SPAN: u64 = 24;
    const OPS: u64 = 140;
    for seed in 0..60u64 {
        let mut rng = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
        let mut ssc = Ssc::new(SscConfig::small_test());
        let mut model = Model::new(ssc.page_size());

        // The model at the last two flush boundaries: only the final flush
        // is tearable, so recovery may lose what happened since the
        // penultimate one (an in-flight overwrite logs remove-then-insert in
        // the final flush; a tear can keep the remove but lose the insert).
        let (mut last, mut penultimate) = (model.mark(), model.mark());
        let (mut flushes_seen, mut version) = (0u64, 0u64);

        for _ in 0..OPS {
            let lba = lcg(&mut rng) % SPAN;
            version += 1;
            match lcg(&mut rng) % 8 {
                0..=3 => {
                    ssc.write_dirty(lba, &model.payload(lba, version)).unwrap();
                    model.ack(lba, version);
                }
                4..=5 => match ssc.write_clean(lba, &model.payload(lba, version)) {
                    Ok(_) => model.ack_clean(lba, version),
                    Err(SscError::OutOfSpace) => {} // cache full of dirty data
                    Err(e) => panic!("seed {seed}: {e}"),
                },
                6 => {
                    ssc.evict(lba).unwrap();
                    model.evict(lba);
                }
                _ => {
                    ssc.clean(lba).unwrap();
                    model.clean(lba);
                }
            }
            let flushes = ssc.wal_counters().flushes;
            if flushes > flushes_seen {
                flushes_seen = flushes;
                penultimate = std::mem::replace(&mut last, model.mark());
            }
        }

        // Tear a random amount off the final flush, crash, recover.
        let tear = (lcg(&mut rng) as usize) % (3 * RECORD_BYTES as usize);
        ssc.wal_crash_torn(tear);
        ssc.crash();
        ssc.recover().unwrap();
        ssc.check()
            .unwrap_or_else(|broken| panic!("seed {seed}: {broken}"));
        model.tear_back_to(&penultimate);

        for lba in 0..SPAN {
            read_ssc(&mut ssc, &model, lba, format_args!("seed {seed}"));
        }

        // Fully operational after the torn recovery.
        version += 1;
        ssc.write_dirty(0, &model.payload(0, version)).unwrap();
        assert_eq!(ssc.read(0).unwrap().0, model.payload(0, version));
    }
}
