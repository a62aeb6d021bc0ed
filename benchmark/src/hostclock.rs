//! Host-side clocks and memory the standard library does not expose:
//! per-thread and per-process CPU time, and the process's peak resident
//! set.
//!
//! Thread CPU time is the preemption detector: when a repeat's wall time
//! jumps but its CPU time does not, the box — not the code — was slow.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }

    fn read(clock_id: i32) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the libc symbol std itself links; on
        // 64-bit Linux `struct timespec` is two 64-bit signed integers,
        // which `Timespec` mirrors with `repr(C)`. The pointer is to a
        // live, exclusively borrowed stack value, and the call writes
        // nothing else.
        let rc = unsafe { clock_gettime(clock_id, &mut ts) };
        if rc != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    pub fn thread_cpu_ns() -> u64 {
        read(CLOCK_THREAD_CPUTIME_ID)
    }

    pub fn process_cpu_ns() -> u64 {
        read(CLOCK_PROCESS_CPUTIME_ID)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn thread_cpu_ns() -> u64 {
        0
    }

    pub fn process_cpu_ns() -> u64 {
        0
    }
}

/// CPU time consumed by the calling thread, nanoseconds (0 where the
/// platform clock is unavailable).
pub fn thread_cpu_ns() -> u64 {
    imp::thread_cpu_ns()
}

/// CPU time consumed by the whole process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    imp::process_cpu_ns()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let t0 = thread_cpu_ns();
        let p0 = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(thread_cpu_ns() > t0);
            assert!(process_cpu_ns() > p0);
            assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        }
    }
}
