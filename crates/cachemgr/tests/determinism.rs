//! Replay determinism: the entire stack is deterministic simulated time, so
//! identical systems replaying identical traces must produce bit-identical
//! results — the property every experiment in the paper reproduction rests
//! on.

use cachemgr::{replay, CacheSystem, NativeConsistency, NativeMode, StackSpec};
use flashsim::{FaultCounters, FlashConfig};
use flashtier_core::ConsistencyMode;
use trace::{generate, WorkloadSpec};

fn workload() -> trace::Trace {
    generate(&WorkloadSpec::homes().scaled(2_000.0))
}

/// The stacks under test: 8 MB of flash over the workload's span.
fn stack() -> StackSpec {
    StackSpec::new(
        FlashConfig::with_capacity_bytes(8 << 20),
        workload().range_blocks,
    )
}

fn assert_deterministic<S: CacheSystem>(mut build: impl FnMut() -> S) {
    let t = workload();
    let mut a = build();
    let mut b = build();
    let ra = replay(&mut a, &t.events).unwrap();
    let rb = replay(&mut b, &t.events).unwrap();
    assert_eq!(ra.sim_time, rb.sim_time, "simulated time must be identical");
    assert_eq!(ra.counters, rb.counters);
    assert_eq!(
        a.device_memory().modeled_bytes,
        b.device_memory().modeled_bytes
    );
    assert_eq!(a.host_memory().modeled_bytes, b.host_memory().modeled_bytes);
}

#[test]
fn flashtier_wt_replay_is_deterministic() {
    let stack = stack();
    assert_deterministic(|| stack.wt(false, ConsistencyMode::CleanAndDirty));
}

#[test]
fn flashtier_wb_replay_is_deterministic() {
    let stack = stack();
    assert_deterministic(|| stack.wb(true, ConsistencyMode::DirtyOnly));
}

#[test]
fn native_replay_is_deterministic() {
    let stack = stack();
    assert_deterministic(|| stack.native(NativeMode::WriteBack, NativeConsistency::Durable));
}

/// A plan that sets every fault class, so determinism is checked on the
/// degraded paths too. Which classes fire at this seed depends on the
/// stack, and each test asserts the ones its replay reaches. The
/// write-through stacks read flash only on their 259 cache hits, and those
/// draw no read fault here, so only program failures fire. The write-back
/// stacks' destage reads add read faults: transients, failures and a
/// corruption on FlashTier WB; transients, failures and an erase failure
/// on Native WB.
fn fault_plan() -> flashsim::FaultPlan {
    flashsim::FaultPlan {
        seed: 0xDE7E_12A1,
        read_transient_ppm: 3_000,
        read_permanent_ppm: 1_500,
        read_corrupt_ppm: 1_500,
        program_fail_ppm: 2_000,
        erase_fail_ppm: 1_000,
    }
}

/// One fault class: its counter's name and how to read it.
type FaultClass = (&'static str, fn(&FaultCounters) -> u64);

const READ_TRANSIENT: FaultClass = ("read_transients", |f| f.read_transients);
const READ_FAILURE: FaultClass = ("read_failures", |f| f.read_failures);
const READ_CORRUPTION: FaultClass = ("read_corruptions", |f| f.read_corruptions);
const PROGRAM_FAILURE: FaultClass = ("program_failures", |f| f.program_failures);
const ERASE_FAILURE: FaultClass = ("erase_failures", |f| f.erase_failures);

/// Same seed + same fault plan must give bit-identical time, manager
/// counters and fault/retirement counts across two runs, and every class
/// in `fires` must have fired.
fn assert_fault_deterministic<S: CacheSystem>(
    mut build: impl FnMut() -> S,
    fault_state: impl Fn(&S) -> (FaultCounters, u64),
    fires: &[FaultClass],
) {
    let t = workload();
    let run = |mut s: S| {
        let r = replay(&mut s, &t.events).unwrap();
        let (faults, retired) = fault_state(&s);
        for (name, count) in fires {
            assert!(count(&faults) > 0, "{name} never fired: {faults:?}");
        }
        (r.sim_time, r.counters, faults, retired)
    };
    assert_eq!(run(build()), run(build()));
}

#[test]
fn flashtier_wt_faulted_replay_is_deterministic() {
    let stack = stack().with_faults(Some(fault_plan()));
    assert_fault_deterministic(
        || stack.wt(false, ConsistencyMode::CleanAndDirty),
        |s| (s.ssc().fault_counters(), s.ssc().counters().blocks_retired),
        &[PROGRAM_FAILURE],
    );
}

#[test]
fn flashtier_wb_faulted_replay_is_deterministic() {
    let stack = stack().with_faults(Some(fault_plan()));
    assert_fault_deterministic(
        || stack.wb(true, ConsistencyMode::DirtyOnly),
        |s| (s.ssc().fault_counters(), s.ssc().counters().blocks_retired),
        &[
            READ_TRANSIENT,
            READ_FAILURE,
            READ_CORRUPTION,
            PROGRAM_FAILURE,
        ],
    );
}

#[test]
fn native_faulted_replay_is_deterministic() {
    let stack = stack().with_faults(Some(fault_plan()));
    assert_fault_deterministic(
        || stack.native(NativeMode::WriteBack, NativeConsistency::Durable),
        |s| {
            use ftl::BlockDev;
            (s.fault_counters(), s.ssd().ftl_counters().blocks_retired)
        },
        &[READ_TRANSIENT, READ_FAILURE, PROGRAM_FAILURE, ERASE_FAILURE],
    );
}

#[test]
fn native_wt_faulted_replay_is_deterministic() {
    let stack = stack().with_faults(Some(fault_plan()));
    assert_fault_deterministic(
        || stack.native(NativeMode::WriteThrough, NativeConsistency::None),
        |s| {
            use ftl::BlockDev;
            (s.fault_counters(), s.ssd().ftl_counters().blocks_retired)
        },
        &[PROGRAM_FAILURE],
    );
}

#[test]
fn crash_recovery_is_deterministic() {
    let t = workload();
    let stack = stack();
    let run = || {
        let mut system = stack.wb(false, ConsistencyMode::CleanAndDirty);
        replay(&mut system, t.prefix(0.5)).unwrap();
        let recovery = system.crash_and_recover().unwrap();
        let stats = replay(&mut system, t.suffix(0.5)).unwrap();
        (recovery, stats.sim_time, system.dirty_blocks())
    };
    assert_eq!(run(), run());
}
