//! Offline stand-in for `crossbeam` (the `channel` module only): an MPMC
//! unbounded channel built on `Mutex` + `Condvar`. Unlike
//! `std::sync::mpsc`, senders *and* receivers are cloneable — the property
//! the shard barrier's exchange relies on.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
    }

    /// Sending half; cloneable, usable from any thread.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half; cloneable, usable from any thread.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// The channel is disconnected (no receivers left); carries the value back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// The channel is empty and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Creates a channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    fn lock<T>(inner: &Inner<T>) -> std::sync::MutexGuard<'_, State<T>> {
        inner
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    impl<T> Sender<T> {
        /// Enqueues the message without blocking. Fails only when every
        /// receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = lock(&self.inner);
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.inner.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            lock(&self.inner).senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = lock(&self.inner);
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = lock(&self.inner);
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self
                    .inner
                    .not_empty
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            lock(&self.inner).receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            lock(&self.inner).receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::unbounded;

    #[test]
    fn unbounded_fifo() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn disconnect_on_sender_drop() {
        let (tx, rx) = unbounded::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn mpmc_all_messages_arrive_once() {
        let (tx, rx) = unbounded::<u64>();
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..250 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            }));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000);
    }
}
