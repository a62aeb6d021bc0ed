//! Property tests of the SSC's §3.5 guarantees:
//!
//! 1. A read following a write of dirty data returns that data.
//! 2. A read following a write of clean data returns that data or
//!    not-present.
//! 3. A read following an eviction returns not-present.
//!
//! Arbitrary operation sequences — including crash/recover at arbitrary
//! points — run against the guarantee model of `flashtier_testkit`, which
//! tracks what each guarantee permits. Sequences come from the
//! deterministic `simkit::SimRng`, so every failure reproduces by case
//! number.

use flashtier_core::{ConsistencyMode, Ssc, SscConfig, SscError};
use flashtier_testkit::{read_ssc, Model};
use simkit::SimRng;

#[derive(Debug, Clone)]
enum Op {
    WriteDirty(u64),
    WriteClean(u64),
    Read(u64),
    Evict(u64),
    Clean(u64),
    Crash,
    /// Crash with a torn (non-atomic) tail of the durable log: the last
    /// `n` bytes vanish mid-frame. CRC framing must keep recovery sound.
    CrashTorn(u16),
}

fn random_ops(rng: &mut SimRng, consistency_modelled: bool) -> Vec<Op> {
    // Dense LBA domain so block-granularity space accounting stays healthy
    // and operations actually collide. Weights mirror the original
    // distribution: 3 write-clean : 2 write-dirty : 3 read : 1 evict :
    // 2 clean (: 1 crash-recover : 1 crash-torn when crashes are modelled).
    let n = 1 + rng.gen_range(249) as usize;
    let total_weight = if consistency_modelled { 13 } else { 11 };
    (0..n)
        .map(|_| {
            let lba = rng.gen_range(24);
            // Once a fill byte; still drawn so every case keeps its ops.
            rng.gen_range(256);
            match rng.gen_range(total_weight) {
                0..=2 => Op::WriteClean(lba),
                3..=4 => Op::WriteDirty(lba),
                5..=7 => Op::Read(lba),
                8 => Op::Evict(lba),
                9..=10 => Op::Clean(lba),
                11 => Op::Crash,
                _ => Op::CrashTorn(1 + rng.gen_range(199) as u16),
            }
        })
        .collect()
}

fn run(mode: ConsistencyMode, ops: &[Op], case: u64) {
    let mut ssc = Ssc::new(SscConfig::small_test().with_consistency(mode));
    let mut model = Model::new(ssc.page_size());
    let mut version = 0u64;
    for (i, op) in ops.iter().enumerate() {
        let context = format!("{mode:?} case {case} op {i} {op:?}");
        match *op {
            Op::WriteDirty(lba) => {
                version += 1;
                let data = model.payload(lba, version);
                match ssc.write_dirty(lba, &data) {
                    Ok(_) => model.ack(lba, version),
                    Err(SscError::OutOfSpace) => {
                        // Legal when the cache is full of dirty data; clean a
                        // few blocks like a real manager and retry once.
                        let (dirty, _) = ssc.exists(0, u64::MAX);
                        for &l in dirty.iter().take(8) {
                            ssc.clean(l).unwrap();
                            model.clean(l);
                        }
                        if ssc.write_dirty(lba, &data).is_ok() {
                            model.ack(lba, version);
                        }
                    }
                    Err(e) => panic!("{context}: unexpected write_dirty error {e}"),
                }
            }
            Op::WriteClean(lba) => {
                version += 1;
                ssc.write_clean(lba, &model.payload(lba, version)).unwrap();
                model.ack_clean(lba, version);
            }
            Op::Read(lba) => drop(read_ssc(&mut ssc, &model, lba, &context)),
            Op::Evict(lba) => {
                ssc.evict(lba).unwrap();
                model.evict(lba);
                read_ssc(&mut ssc, &model, lba, &context);
            }
            Op::Clean(lba) => {
                ssc.clean(lba).unwrap();
                model.clean(lba);
            }
            // Dirty data stays exact; clean data may vanish (silent
            // eviction) but never goes stale. No case crashes in
            // `ConsistencyMode::None`, where nothing survives a crash.
            Op::Crash => {
                ssc.crash();
                ssc.recover().unwrap();
            }
            Op::CrashTorn(n) => {
                // Without the atomic-write primitive, durability of any
                // suffix of the log may vanish: every block degrades to
                // "some version ever written, or absent".
                ssc.wal_crash_torn(n as usize);
                ssc.crash();
                ssc.recover().unwrap();
                model.tear();
            }
        }
    }
    // Final audit: every block the sequence touched.
    for lba in model.lbas().collect::<Vec<_>>() {
        read_ssc(
            &mut ssc,
            &model,
            lba,
            format_args!("{mode:?} case {case} final"),
        );
    }
}

#[test]
fn guarantees_hold_with_full_consistency() {
    for case in 0..96u64 {
        let mut rng = SimRng::seed_from(0x55C_0000 ^ case);
        let ops = random_ops(&mut rng, true);
        run(ConsistencyMode::CleanAndDirty, &ops, case);
    }
}

#[test]
fn guarantees_hold_with_dirty_only_consistency() {
    for case in 0..96u64 {
        let mut rng = SimRng::seed_from(0x55C_1000 ^ case);
        let ops = random_ops(&mut rng, true);
        run(ConsistencyMode::DirtyOnly, &ops, case);
    }
}

#[test]
fn semantics_hold_without_consistency_machinery() {
    // No crashes injected: in ConsistencyMode::None nothing survives a
    // crash, but live semantics must be identical.
    for case in 0..96u64 {
        let mut rng = SimRng::seed_from(0x55C_2000 ^ case);
        let ops = random_ops(&mut rng, false);
        run(ConsistencyMode::None, &ops, case);
    }
}
