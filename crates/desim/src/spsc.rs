//! Unbounded lock-free single-producer/single-consumer queue.
//!
//! The asynchronous sharded engine ([`crate::ShardedSim`]) keeps one of
//! these per *directed* cross-shard link: the worker that owns the source
//! shard is the only pusher and the worker that owns the destination shard
//! is the only popper, so the single-producer/single-consumer contract holds
//! by construction. The queue is a classic dummy-node linked list — `push`
//! is one allocation plus one `Release` store, `pop` is one `Acquire` load —
//! with no mutex, no condvar, and no spinning, which is what lets shards
//! exchange messages while both sides keep executing.
//!
//! A blocking channel (a mutex+condvar ring) is deliberately *not* used
//! here: a blocking mailbox at every link would reintroduce the barrier
//! this engine exists to remove.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    /// `None` only in the dummy node (and after a value is popped).
    val: Option<T>,
}

struct Inner<T> {
    /// Consumer side: points at the current dummy node; the value stream
    /// starts at `head.next`.
    head: AtomicPtr<Node<T>>,
    /// Producer side: the most recently pushed node.
    tail: AtomicPtr<Node<T>>,
    /// The queue owns `T`s in transit.
    _owns: PhantomData<T>,
}

// The raw pointers are only dereferenced under the SPSC discipline: `head`
// by the single consumer, `tail` by the single producer, `next` hand-off via
// Release/Acquire. Values merely move through, so `T: Send` suffices.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // Safety: nodes between head and tail are exclusively ours now.
            let mut boxed = unsafe { Box::from_raw(p) };
            p = *boxed.next.get_mut();
        }
    }
}

/// The producer half. Not cloneable: exactly one producer may exist.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The consumer half. Not cloneable: exactly one consumer may exist.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create a connected `(Sender, Receiver)` pair.
pub fn pair<T: Send>() -> (Sender<T>, Receiver<T>) {
    let dummy = Box::into_raw(Box::new(Node {
        next: AtomicPtr::new(ptr::null_mut()),
        val: None,
    }));
    let inner = Arc::new(Inner {
        head: AtomicPtr::new(dummy),
        tail: AtomicPtr::new(dummy),
        _owns: PhantomData,
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T: Send> Sender<T> {
    /// Append `v` to the queue. Never blocks.
    pub fn push(&self, v: T) {
        let node = Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            val: Some(v),
        }));
        // Single producer: we are the only thread that moves `tail`.
        let prev = self.inner.tail.swap(node, Ordering::AcqRel);
        // Publish the node; the consumer's Acquire load of `next` pairs with
        // this store and makes the freshly written value visible.
        unsafe { (*prev).next.store(node, Ordering::Release) };
    }
}

impl<T: Send> Receiver<T> {
    /// Remove and return the oldest element, or `None` if the queue is
    /// currently empty. Never blocks.
    pub fn pop(&self) -> Option<T> {
        // Single consumer: we are the only thread that moves `head`.
        let head = self.inner.head.load(Ordering::Relaxed);
        let next = unsafe { (*head).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // Safety: `next` was fully initialized before the Release store that
        // published it; taking the value leaves it as the new dummy.
        let v = unsafe { (*next).val.take() };
        self.inner.head.store(next, Ordering::Relaxed);
        drop(unsafe { Box::from_raw(head) });
        Some(v.expect("SPSC node published without a value"))
    }

    /// True iff no element is currently queued (advisory: the producer may
    /// push concurrently).
    pub fn is_empty(&self) -> bool {
        let head = self.inner.head.load(Ordering::Relaxed);
        unsafe { (*head).next.load(Ordering::Acquire) }.is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_same_thread() {
        let (tx, rx) = pair::<u32>();
        assert!(rx.is_empty());
        for i in 0..100 {
            tx.push(i);
        }
        assert!(!rx.is_empty());
        for i in 0..100 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn cross_thread_stream() {
        let (tx, rx) = pair::<u64>();
        let n = 10_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                tx.push(i);
            }
        });
        let mut got = 0u64;
        while got < n {
            if let Some(v) = rx.pop() {
                assert_eq!(v, got, "SPSC reordered");
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }

    #[test]
    fn drop_releases_queued_values() {
        // Drop with values still queued: every element must be dropped once.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = pair::<D>();
        for _ in 0..5 {
            tx.push(D);
        }
        let _ = rx.pop(); // one popped and dropped
        drop(tx);
        drop(rx); // four queued, dropped by Inner::drop
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }
}
