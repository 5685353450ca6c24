//! Stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Only the surface this workspace uses is provided: a `Mutex` with the
//! parking-lot calling convention (`lock()` returns the guard directly,
//! never a poison `Result`). Poisoning is absorbed by handing the caller
//! the inner guard — the simulator is single-threaded, so a poisoned lock
//! can only come from a failing test's unwind and the state is still
//! consistent enough to inspect. This is where the workspace's one poison
//! policy is written: its library crates lock through this type instead
//! of spelling the recovery out at each of their lock sites.

use std::fmt;

/// A mutex whose `lock` never returns a poison error.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock if nobody holds it (the caller included), ignoring
    /// poisoning; `None` instead of waiting.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Mutex").field(&&*self.lock()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(1);
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert_eq!(m.try_lock().map(|guard| *guard), Some(1));
    }
}
