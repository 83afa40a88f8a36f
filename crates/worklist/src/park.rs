//! Wake-on-donation waiting for starved blocks.
//!
//! A block that finds no work parks on a [`Parker`] until a peer
//! donates, termination is signalled or detected, or [`POLL_SLEEP`]
//! elapses, whichever comes first. The paper's §IV-C wait loop naps a
//! fixed interval instead; the cap keeps that nap as the worst case, so
//! a missed wakeup costs no more than it did.
//!
//! Notifying is free while nobody waits: [`Parker::notify`] reads the
//! waiter count and takes the lock only when it is non-zero. The lost
//! wakeup a lock-free check invites is closed by the usual pair of
//! `SeqCst` fences (a waiter counts itself, then re-checks; a notifier
//! publishes its change, then reads the count: one of the two sees the
//! other) plus a wake epoch bumped under the lock, which the waiter holds
//! from its re-check until the condvar releases it.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::POLL_SLEEP;

/// Where starved blocks wait for work (see the module docs).
pub(crate) struct Parker {
    /// Blocks inside [`park`](Self::park): the paper's "blocks trying
    /// to remove" count.
    waiters: AtomicUsize,
    /// Wake epoch, bumped by every notify that finds a waiter.
    epoch: Mutex<u64>,
    wake: Condvar,
    /// Upper bound on one wait.
    cap: Duration,
}

impl Parker {
    /// A parker whose waits last at most [`POLL_SLEEP`].
    pub(crate) fn new() -> Self {
        Parker::with_cap(POLL_SLEEP)
    }

    /// A parker whose waits last at most `cap`.
    pub(crate) fn with_cap(cap: Duration) -> Self {
        Parker {
            waiters: AtomicUsize::new(0),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
            cap,
        }
    }

    /// Waits until notified or until the cap elapses, unless `ready()`
    /// already holds. Returns how long the wait took in whole caps,
    /// rounded up: 0 when `ready()` held, else at least 1.
    pub(crate) fn park(&self, ready: impl FnOnce() -> bool) -> u64 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let epoch = self.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        let intervals = if ready() {
            0
        } else {
            let seen = *epoch;
            let start = Instant::now();
            let woken = self
                .wake
                .wait_timeout_while(epoch, self.cap, |e| *e == seen);
            drop(woken.unwrap_or_else(PoisonError::into_inner));
            let waited = start.elapsed().as_nanos();
            waited.div_ceil(self.cap.as_nanos().max(1)).max(1) as u64
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        intervals
    }

    /// Wakes every parked block, if there is one. Call after publishing
    /// the change a waiter's `ready()` looks for.
    pub(crate) fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            *self.epoch.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            self.wake.notify_all();
        }
    }

    /// Spins until at least `n` blocks are inside [`park`](Self::park):
    /// lets a test release a waiter only once it is known to wait.
    #[cfg(test)]
    pub(crate) fn await_waiters(&self, n: usize) {
        while self.waiters.load(Ordering::SeqCst) < n {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn a_ready_check_skips_the_wait() {
        let parker = Parker::with_cap(LONG);
        let start = Instant::now();
        assert_eq!(parker.park(|| true), 0);
        assert!(start.elapsed() < LONG / 2);
        assert_eq!(parker.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_notify_wakes_the_waiter_long_before_the_cap() {
        let parker = Parker::with_cap(LONG);
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let start = Instant::now();
                let mut intervals = 0;
                while !flag.load(Ordering::SeqCst) {
                    intervals += parker.park(|| flag.load(Ordering::SeqCst));
                }
                (start.elapsed(), intervals)
            });
            parker.await_waiters(1);
            flag.store(true, Ordering::SeqCst);
            parker.notify();
            let (waited, intervals) = waiter.join().unwrap();
            // A lost wakeup would sit out the whole 10 s cap.
            assert!(waited < LONG / 2, "woke after {waited:?}");
            assert!(intervals <= 1, "{intervals} intervals for one short wait");
        });
        assert_eq!(parker.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_timed_out_wait_counts_whole_intervals() {
        let cap = Duration::from_millis(2);
        let parker = Parker::with_cap(cap);
        let start = Instant::now();
        let intervals = parker.park(|| false);
        let waited = start.elapsed();
        // The wait ran out its cap, and counts no more whole intervals
        // than the caller saw elapse, rounded up.
        assert!(waited >= cap);
        assert!(intervals >= 1);
        assert!(intervals as u128 <= waited.as_nanos().div_ceil(cap.as_nanos()));
    }
}
