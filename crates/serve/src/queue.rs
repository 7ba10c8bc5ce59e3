//! A bounded MPMC queue with explicit shedding semantics.
//!
//! The server's backpressure story is built on this queue: a full queue
//! *rejects* the push (so the caller can answer [`Overloaded`] instead of
//! hanging the connection), and a closed queue drains — consumers keep
//! popping until it is empty, which is exactly the graceful-shutdown
//! contract (in-flight work completes; only new work is refused).
//!
//! Consumers blocked in [`Bounded::pop`] are woken by a condvar.
//!
//! [`Overloaded`]: crate::proto::Status::Overloaded

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity: shed the item (the value comes back so
    /// the caller can still respond on its connection).
    Full(T),
    /// The queue was closed: no new work is accepted.
    Closed(T),
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
    }

    /// Blocking pop: waits for an item; returns `None` once the queue is
    /// closed *and* drained — the consumer is done.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
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
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_wakes_on_cross_thread_push() {
        let q = Arc::new(Bounded::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(10));
        q.try_push(42u32).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }
}
