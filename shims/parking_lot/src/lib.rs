//! Offline stand-in for `parking_lot` (`Mutex` only): a thin wrapper over
//! the std mutex with parking_lot's poison-free API (`lock()` returns the
//! guard directly).

use std::sync;

/// Mutual exclusion lock; `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn mutex_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let mut joins = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }
}
