//! Offline stand-in for `parking_lot`: wraps std's `Mutex`/`RwLock` with
//! parking_lot's non-poisoning, non-`Result` API. A panicked holder does
//! not poison the lock — subsequent acquisitions recover the inner
//! guard, which is exactly parking_lot's observable behavior.

#![forbid(unsafe_code)]

pub use std::sync::MutexGuard;
use std::sync::{self, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// A mutual-exclusion lock returning guards directly (no poisoning).
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock if it is free; `None` while another thread
    /// holds it. Never blocks.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock returning guards directly (no poisoning).
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new rwlock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_and_rwlock_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = RwLock::new(10);
        assert_eq!(*rw.read(), 10);
        *rw.write() = 11;
        assert_eq!(*rw.read(), 11);
    }

    #[test]
    fn try_lock_fails_only_while_held_and_ignores_poison() {
        let m = std::sync::Arc::new(Mutex::new(1));
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        *m.try_lock().expect("free") += 1;
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison the std mutex underneath");
        })
        .join();
        assert_eq!(*m.try_lock().expect("a panicked holder does not poison"), 2);
    }
}
