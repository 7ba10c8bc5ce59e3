//! A bounded MPMC queue with explicit shedding semantics.
//!
//! The server's backpressure story is built on this queue: a full queue
//! *rejects* the push (so the caller can answer [`Overloaded`] instead of
//! hanging the connection), and a closed queue drains — consumers keep
//! popping until it is empty, which is exactly the graceful-shutdown
//! contract (in-flight work completes; only new work is refused).
//!
//! Consumers blocked in [`Bounded::pop`] are woken by a condvar. A
//! consumer that *cannot* block on a condvar — the event loop, which
//! sleeps in `epoll_wait` — instead installs a [`Bounded::set_waker`]
//! hook (in practice [`crate::poll::Doorbell::ring`]) that fires after
//! every push and on close, and drains the queue with the non-blocking
//! [`Bounded::try_pop`] when the doorbell wakes it.
//!
//! [`Overloaded`]: crate::proto::Status::Overloaded

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, OnceLock};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity: shed the item (the value comes back so
    /// the caller can still respond on its connection).
    Full(T),
    /// The queue was closed: no new work is accepted.
    Closed(T),
}

/// Outcome of a pop.
#[derive(Debug)]
pub enum Pop<T> {
    /// An item.
    Item(T),
    /// Nothing queued yet (queue still open); only [`Bounded::try_pop`]
    /// answers this.
    Empty,
    /// Closed *and* drained — the consumer is done.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded queue. All methods are `&self`; share it via `Arc`.
pub struct Bounded<T> {
    cap: usize,
    state: Mutex<State<T>>,
    available: Condvar,
    waker: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1).
    pub fn new(cap: usize) -> Bounded<T> {
        Bounded {
            cap: cap.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            waker: OnceLock::new(),
        }
    }

    /// Installs a wakeup hook fired after every successful push and on
    /// close — how a poll-loop consumer (which sleeps in `epoll_wait`,
    /// not on this queue's condvar) learns there is something to
    /// [`Bounded::try_pop`]. At most one waker per queue; later calls are
    /// ignored.
    pub fn set_waker(&self, waker: Box<dyn Fn() + Send + Sync>) {
        let _ = self.waker.set(waker);
    }

    fn wake(&self) {
        if let Some(w) = self.waker.get() {
            w();
        }
    }

    /// Non-blocking push: `Err(Full)` when at capacity — the caller sheds.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.available.notify_one();
        self.wake();
        Ok(())
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pushes fail from now on, pops drain what remains.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
        self.wake();
    }

    /// Non-blocking pop: an item if one is queued, [`Pop::Empty`] if the
    /// queue is open but empty, [`Pop::Closed`] once closed and drained.
    pub fn try_pop(&self) -> Pop<T> {
        let mut s = self.state.lock().expect("queue poisoned");
        match s.items.pop_front() {
            Some(item) => Pop::Item(item),
            None if s.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Blocking pop: waits for an item; returns [`Pop::Closed`] once the
    /// queue is closed *and* empty (never [`Pop::Empty`]).
    pub fn pop(&self) -> Pop<T> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                return Pop::Item(item);
            }
            if s.closed {
                return Pop::Closed;
            }
            s = self.available.wait(s).expect("queue poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_drains_then_reports_closed() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        assert!(matches!(q.pop(), Pop::Item(1)));
        assert!(matches!(q.pop(), Pop::Item(2)));
        assert!(matches!(q.pop(), Pop::Closed));
    }

    #[test]
    fn waker_fires_on_push_and_close_and_try_pop_drains() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        let rings = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&rings);
        q.set_waker(Box::new(move || {
            r.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(matches!(q.try_pop(), Pop::Empty));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(rings.load(Ordering::SeqCst), 2, "one ring per push");
        assert!(matches!(q.try_pop(), Pop::Item(1)));
        q.close();
        assert_eq!(rings.load(Ordering::SeqCst), 3, "close rings too");
        assert!(matches!(q.try_pop(), Pop::Item(2)));
        assert!(matches!(q.try_pop(), Pop::Closed));
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = Arc::new(Bounded::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || match q2.pop() {
            Pop::Item(v) => v,
            other => panic!("unexpected {other:?}"),
        });
        std::thread::sleep(Duration::from_millis(10));
        q.try_push(42u32).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }
}
