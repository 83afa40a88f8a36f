//! The Broker Work Distributor: a bounded, linearizable MPMC queue.
//!
//! This reimplements the data structure the paper adopts for its global
//! worklist (Kerbl et al., *The Broker Queue: A Fast, Linearizable FIFO
//! Queue for Fine-Granular Work Distribution on the GPU*, ICS'18). The
//! defining idea is a two-phase protocol:
//!
//! 1. **Broker phase** — producers/consumers negotiate on an atomic
//!    element `count`. An enqueue claims `count += 1` by
//!    compare-exchange while the count is below capacity, and reports
//!    *full* without ever touching the ring otherwise. A dequeue claims
//!    `count -= 1`; if the count was non-positive it rolls back and
//!    reports *empty*. So the count never includes an element that
//!    will not arrive, and a dequeue that claims one always gets it.
//! 2. **Ring phase** — winners take a monotone head/tail ticket and
//!    rendezvous with their slot via a per-slot sequence number. Because
//!    the broker phase guaranteed an element (or a free slot) is
//!    *committed*, the rendezvous always completes.
//!
//! The same protocol (Vyukov-style sequence slots + count brokering)
//! works unchanged with OS threads, which is what our simulated thread
//! blocks are.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// One ring slot. `seq` encodes the rendezvous state relative to the
/// lap of a ticket that maps to this slot (the ticket with its index
/// bits cleared): `== lap` → free for the producer holding the ticket;
/// `== lap + 1` → filled, awaiting the consumer holding the ticket.
/// Slot `i` starts free for ticket `i`, whose lap is 0, so a ring of
/// all-zero bytes is an empty queue.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded multi-producer multi-consumer FIFO queue (the BWD of §IV-C).
///
/// `try_push`/`try_pop` are lock-free in the broker phase and
/// wait-free-in-practice in the ring phase (a claimed slot is always
/// released by a peer that already holds a matching ticket).
///
/// # Examples
///
/// ```
/// use parvc_worklist::BrokerQueue;
/// let q = BrokerQueue::with_capacity(4);
/// assert!(q.try_push(7).is_ok());
/// assert_eq!(q.len_hint(), 1);
/// assert_eq!(q.try_pop(), Some(7));
/// assert_eq!(q.try_pop(), None);
/// ```
pub struct BrokerQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Broker count: committed elements. May transiently exceed the
    /// number of *visible* elements while a producer is mid-write.
    count: AtomicI64,
    head: AtomicUsize,
    tail: AtomicUsize,
}

// SAFETY: the slot protocol hands each `value` cell to exactly one thread
// at a time (the holder of the matching ticket), so sending T between
// threads is the only requirement.
unsafe impl<T: Send> Sync for BrokerQueue<T> {}
unsafe impl<T: Send> Send for BrokerQueue<T> {}

impl<T> BrokerQueue<T> {
    /// Creates a queue holding at most `capacity` elements
    /// (rounded up to the next power of two, minimum 2).
    ///
    /// The ring comes from zeroed memory, which is already an empty
    /// queue (see `Slot`). The allocator hands over fresh pages without
    /// writing them, so a ring on fresh pages touches only the slots
    /// its tickets reach, however large its capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        // SAFETY: all-zero bytes are a valid `Slot`: a zero `AtomicUsize`
        // and an uninitialised value cell.
        let slots = unsafe { Box::<[Slot<T>]>::new_zeroed_slice(cap).assume_init() };
        BrokerQueue {
            slots,
            mask: cap - 1,
            count: AtomicI64::new(0),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Best-effort element count — the `numEntries` the Hybrid scheme
    /// compares against its donation threshold (Figure 4 line 23).
    /// Exact when quiescent; may lag by in-flight operations otherwise.
    pub fn len_hint(&self) -> usize {
        self.count.load(Ordering::Relaxed).max(0) as usize
    }

    /// Whether the queue currently commits to zero elements.
    pub fn is_empty_hint(&self) -> bool {
        self.count.load(Ordering::Acquire) <= 0
    }

    /// Attempts to enqueue; returns the value back if the queue is full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        // Broker phase: claim space by compare-exchange, so the count
        // never includes an element that will not arrive: a consumer
        // that claimed one would wait on its slot forever.
        let cap = self.capacity() as i64;
        let mut count = self.count.load(Ordering::Acquire);
        loop {
            if count >= cap {
                return Err(value);
            }
            match self.count.compare_exchange_weak(
                count,
                count + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => count = now,
            }
        }
        // Ring phase: claim a ticket; rendezvous is now guaranteed.
        let ticket = self.tail.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[ticket & self.mask];
        let lap = ticket & !self.mask;
        let mut spins = 0u32;
        while slot.seq.load(Ordering::Acquire) != lap {
            spin_wait(&mut spins);
        }
        // SAFETY: seq == lap grants us exclusive write access.
        unsafe { (*slot.value.get()).write(value) };
        slot.seq.store(lap + 1, Ordering::Release);
        Ok(())
    }

    /// Attempts to dequeue; returns `None` if the queue is empty.
    pub fn try_pop(&self) -> Option<T> {
        // Broker phase: claim an element.
        let prev = self.count.fetch_sub(1, Ordering::AcqRel);
        if prev <= 0 {
            self.count.fetch_add(1, Ordering::AcqRel);
            return None;
        }
        // Ring phase.
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[ticket & self.mask];
        let lap = ticket & !self.mask;
        let mut spins = 0u32;
        while slot.seq.load(Ordering::Acquire) != lap + 1 {
            spin_wait(&mut spins);
        }
        // SAFETY: seq == lap + 1 grants us exclusive read access to a
        // value written by the producer holding the same ticket.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        // Recycle the slot for the producer one lap ahead.
        slot.seq.store(lap + self.mask + 1, Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for BrokerQueue<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

#[inline]
fn spin_wait(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = BrokerQueue::with_capacity(8);
        for i in 0..8 {
            q.try_push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn full_rejects_without_losing_items() {
        let q = BrokerQueue::with_capacity(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len_hint(), 2);
        assert_eq!(q.try_pop(), Some(1));
        q.try_push(4).unwrap();
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(4));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let q = BrokerQueue::<u32>::with_capacity(5);
        assert_eq!(q.capacity(), 8);
        let q = BrokerQueue::<u32>::with_capacity(0);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn wraparound_many_laps() {
        let q = BrokerQueue::with_capacity(4);
        for lap in 0..100 {
            for i in 0..4 {
                q.try_push(lap * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(q.try_pop(), Some(lap * 4 + i));
            }
        }
    }

    #[test]
    fn drops_remaining_items() {
        // Leak detector: every Arc clone pushed must be dropped with the
        // queue, or the strong count stays inflated.
        let sentinel = Arc::new(());
        {
            let q = BrokerQueue::with_capacity(16);
            for _ in 0..10 {
                q.try_push(Arc::clone(&sentinel)).unwrap();
            }
            assert_eq!(Arc::strong_count(&sentinel), 11);
        }
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn mpmc_stress_no_loss_no_duplication() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: u64 = 20_000;
        let q = Arc::new(BrokerQueue::with_capacity(64));
        let popped_sum = Arc::new(AtomicU64::new(0));
        let popped_count = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut item = (p as u64) * PER_PRODUCER + i;
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(back) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let sum = Arc::clone(&popped_sum);
                let cnt = Arc::clone(&popped_count);
                s.spawn(move || loop {
                    if let Some(v) = q.try_pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        if cnt.fetch_add(1, Ordering::Relaxed) + 1
                            == (PRODUCERS as u64) * PER_PRODUCER
                        {
                            return;
                        }
                    } else if cnt.load(Ordering::Relaxed) == (PRODUCERS as u64) * PER_PRODUCER {
                        return;
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });

        let total = (PRODUCERS as u64) * PER_PRODUCER;
        assert_eq!(popped_count.load(Ordering::Relaxed), total);
        // Sum of 0..total since the items partition that range.
        assert_eq!(popped_sum.load(Ordering::Relaxed), total * (total - 1) / 2);
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn mpmc_count_overshoot_is_bounded() {
        // The broker count is a *commitment* count: a push that will fail
        // transiently inflates it before rolling back, so under P
        // concurrent producers the observable count may exceed capacity
        // by at most P (each thread has one in-flight operation). That
        // bounded overshoot is inherent to the BWD protocol; committed
        // elements never exceed capacity (checked at quiescence).
        const THREADS: usize = 4;
        let q = Arc::new(BrokerQueue::with_capacity(8));
        let overshoot = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let q = Arc::clone(&q);
                let overshoot = Arc::clone(&overshoot);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        if q.try_push(i).is_ok() {
                            if q.len_hint() > 8 + THREADS {
                                overshoot.fetch_add(1, Ordering::Relaxed);
                            }
                        } else {
                            // Full: drain one to keep making progress.
                            let _ = q.try_pop();
                        }
                    }
                });
            }
        });
        assert_eq!(
            overshoot.load(Ordering::Relaxed),
            0,
            "count overshoot exceeded bound"
        );
        // Quiescent state: the committed count is exact and within capacity.
        assert!(
            q.len_hint() <= 8,
            "quiescent count {} exceeds capacity",
            q.len_hint()
        );
        let mut drained = 0;
        while q.try_pop().is_some() {
            drained += 1;
        }
        assert!(drained <= 8);
    }
}
