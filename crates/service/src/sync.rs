//! Poison-recovering synchronization helpers.
//!
//! A `Mutex` is poisoned when a thread panics while holding it, and
//! every later `lock().unwrap()` then panics too — so one bad request
//! (say, a panicking experiment body that slipped past the sweep
//! executor's isolation) would cascade into every subsequent
//! connection. All state guarded by the service's mutexes is
//! plain-old-data (counters, maps of `Arc`s, small flags) that is valid
//! at every instant a lock is held; there are no multi-step invariants
//! a mid-update panic could tear. Recovering the guard is therefore
//! safe, and strictly better than taking the whole daemon down.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait_timeout` with the same poison recovery as [`lock`]; returns the guard and
/// whether the wait timed out.
pub fn wait_timeout_recover<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    let (guard, result) = cond
        .wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner);
    (guard, result.timed_out())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    fn poisoned(value: u32) -> Arc<Mutex<u32>> {
        let mutex = Arc::new(Mutex::new(value));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the mutex on purpose");
        })
        .join();
        assert!(mutex.is_poisoned(), "setup: mutex should be poisoned");
        mutex
    }

    #[test]
    fn lock_recovers_from_poison() {
        let mutex = poisoned(7);
        assert_eq!(*lock(&mutex), 7);
        *lock(&mutex) += 1;
        assert_eq!(*lock(&mutex), 8);
    }

    #[test]
    fn wait_timeout_recovers_and_reports_expiry() {
        let mutex = poisoned(0);
        let cond = Condvar::new();
        let guard = lock(&mutex);
        let (guard, timed_out) =
            wait_timeout_recover(&cond, guard, Duration::from_millis(10));
        assert!(timed_out);
        assert_eq!(*guard, 0);
    }

}
