//! A counting semaphore bounding concurrent connections.
//!
//! The standard library has no semaphore; this is the classic
//! mutex-plus-condvar construction with an RAII permit, shared through an
//! `Arc` so permits can be released from whichever thread finishes the
//! connection. Acquisition waits, up to a timeout — under connection
//! pressure the accept loop waits instead of spawning unboundedly, which is
//! the back-pressure behaviour an open-loop load generator measures as
//! queueing delay.

use std::sync::{Arc, Condvar, Mutex};

/// A counting semaphore with timed acquisition.
#[derive(Debug)]
pub struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initially free.
    pub fn new(permits: usize) -> Arc<Semaphore> {
        Arc::new(Semaphore {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        })
    }

    /// Blocks up to `timeout` for a permit; `None` if none freed in time.
    /// Lets a waiter (the accept loop watching its stop flag) poll
    /// without a busy sleep: the condvar wakes it the moment a permit is
    /// released.
    pub fn acquire_timeout(self: &Arc<Self>, timeout: std::time::Duration) -> Option<Permit> {
        let deadline = std::time::Instant::now() + timeout;
        let mut n = self.permits.lock().expect("semaphore mutex poisoned");
        while *n == 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, result) = self
                .freed
                .wait_timeout(n, deadline - now)
                .expect("semaphore mutex poisoned");
            n = guard;
            if result.timed_out() && *n == 0 {
                return None;
            }
        }
        *n -= 1;
        Some(Permit {
            sem: Arc::clone(self),
        })
    }

    fn release(&self) {
        let mut n = self.permits.lock().expect("semaphore mutex poisoned");
        *n += 1;
        self.freed.notify_one();
    }
}

/// An acquired permit; dropping it releases the slot.
#[derive(Debug)]
pub struct Permit {
    sem: Arc<Semaphore>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn bounds_concurrency() {
        let sem = Semaphore::new(2);
        let short = Duration::from_millis(10);
        let a = sem.acquire_timeout(short).expect("first permit");
        let _b = sem.acquire_timeout(short).expect("second permit");
        assert!(
            sem.acquire_timeout(short).is_none(),
            "both permits taken: no permit frees within the timeout"
        );
        drop(a);
        assert!(
            sem.acquire_timeout(short).is_some(),
            "released permit reusable"
        );
    }

    #[test]
    fn blocked_acquirer_wakes_on_release() {
        let sem = Semaphore::new(1);
        let held = sem.acquire_timeout(Duration::from_millis(10)).unwrap();
        let sem2 = Arc::clone(&sem);
        let waiter = thread::spawn(move || sem2.acquire_timeout(Duration::from_secs(10)).is_some());
        thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "the waiter must wait while the permit is held"
        );
        drop(held);
        assert!(
            waiter.join().unwrap(),
            "the released permit reaches the waiter"
        );
    }
}
