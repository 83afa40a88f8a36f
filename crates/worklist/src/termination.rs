//! The paper's §IV-C worklist wrapper: waiting, quiescence detection,
//! and early termination.
//!
//! By design the bare BWD just reports "empty" — but an empty worklist
//! means one of two very different things (§IV-C): either other blocks
//! are still traversing and may donate work later (*keep polling*), or
//! every block is starved (*the traversal is over; terminate*).
//!
//! The paper distinguishes the two by atomically checking "worklist
//! empty ∧ all blocks are trying to remove". We implement the same
//! condition with an explicit *outstanding-work token count*, which
//! closes the classic race where a block grabs the last entry between a
//! peer's emptiness check and its waiting-count check:
//!
//! * every queued entry holds one token;
//! * every block holds one token from the moment it obtains work until
//!   it next asks for work (blocks only donate entries while holding a
//!   token, never while waiting);
//! * therefore `tokens == 0` ⇔ queue empty ∧ all blocks waiting, with no
//!   in-flight work — exactly the paper's condition, race-free.
//!
//! Where the paper lets a starved block "sleep for some time", ours
//! parks on the worklist's [`Parker`]: a donation, an early-termination
//! signal, or the release of the last token wakes it at once, and
//! `POLL_SLEEP` only bounds the wait.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use crate::park::Parker;
use crate::BrokerQueue;

/// Effort statistics for one [`WorkerHandle::pop_with_stats`] call.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PopStats {
    /// Pop attempts made (1 = immediate success).
    pub attempts: u64,
    /// Time spent parked waiting for peers to donate, in whole
    /// `POLL_SLEEP` intervals, rounded up per wait: a wait cut short
    /// by a donation counts 1.
    pub sleeps: u64,
}

/// Result of a [`WorkerHandle::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum PopOutcome<T> {
    /// A tree node to process.
    Item(T),
    /// The traversal is complete (quiescence or early termination);
    /// the block should exit (Figure 4 lines 9–10).
    Done,
}

/// The global worklist: a [`BrokerQueue`] plus termination protocol.
///
/// Create one per kernel launch with the number of participating blocks,
/// [`seed`](Worklist::seed) it with the root tree node, and hand each
/// block a [`WorkerHandle`] via [`handle`](Worklist::handle).
pub struct Worklist<T> {
    queue: BrokerQueue<T>,
    /// Outstanding-work tokens: queued entries + busy blocks.
    tokens: AtomicUsize,
    /// Set once: either quiescence was detected or a PVC solution ended
    /// the search early.
    done: AtomicBool,
    /// Where starved blocks wait for a donation or for termination.
    parker: Parker,
    /// Total failed pop attempts (contention/starvation metric).
    failed_pops: AtomicU64,
}

impl<T> Worklist<T> {
    /// Creates a worklist with the given entry capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Worklist {
            queue: BrokerQueue::with_capacity(capacity),
            tokens: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            parker: Parker::new(),
            failed_pops: AtomicU64::new(0),
        }
    }

    /// Seeds the worklist before launch. Panics if the queue is full —
    /// seeding happens before any block runs.
    pub fn seed(&self, item: T) {
        self.tokens.fetch_add(1, Ordering::AcqRel);
        if self.queue.try_push(item).is_err() {
            panic!("worklist seeded beyond capacity");
        }
    }

    /// Entry count, for the Hybrid donation threshold (Fig. 4 line 23).
    pub fn len_hint(&self) -> usize {
        self.queue.len_hint()
    }

    /// Entry capacity of the underlying queue.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Signals early termination (the PVC "vertex cover found" flag).
    /// All subsequent and in-progress `pop`s return [`PopOutcome::Done`].
    pub fn signal_done(&self) {
        self.done.store(true, Ordering::Release);
        self.parker.notify();
    }

    /// Whether termination has been signalled or detected.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Total failed pop attempts across all blocks.
    pub fn total_failed_pops(&self) -> u64 {
        self.failed_pops.load(Ordering::Relaxed)
    }

    /// Creates the per-block handle. One per thread block.
    pub fn handle(&self) -> WorkerHandle<'_, T> {
        WorkerHandle {
            wl: self,
            holds_token: false,
        }
    }
}

/// Per-block view of the [`Worklist`], tracking whether this block holds
/// an outstanding-work token (i.e. is busy processing a sub-tree).
pub struct WorkerHandle<'a, T> {
    wl: &'a Worklist<T>,
    holds_token: bool,
}

impl<'a, T> WorkerHandle<'a, T> {
    /// Donates a tree node to the global worklist (Figure 4 line 26).
    ///
    /// Fails with the node back if the queue is at capacity; the caller
    /// must then push it onto its local stack instead. May only be
    /// called while busy (holding a token), which the Hybrid loop
    /// guarantees structurally.
    pub fn add(&self, item: T) -> Result<(), T> {
        debug_assert!(self.holds_token, "donating while not processing");
        self.wl.tokens.fetch_add(1, Ordering::AcqRel);
        match self.wl.queue.try_push(item) {
            Ok(()) => {
                self.wl.parker.notify();
                Ok(())
            }
            Err(back) => {
                self.wl.tokens.fetch_sub(1, Ordering::AcqRel);
                Err(back)
            }
        }
    }

    /// Worklist entry count, for the donation threshold check.
    pub fn len_hint(&self) -> usize {
        self.wl.len_hint()
    }

    /// The §IV-C remove loop: releases this block's token (its previous
    /// sub-tree is finished), then waits until work arrives or the
    /// traversal provably ends.
    pub fn pop(&mut self) -> PopOutcome<T> {
        self.pop_with_stats().0
    }

    /// [`pop`](Self::pop) plus how hard it was: the attempt and sleep
    /// counts feed the Figure 6 "remove from worklist" cycle accounting
    /// (contention and starvation are the whole cost of that activity).
    pub fn pop_with_stats(&mut self) -> (PopOutcome<T>, PopStats) {
        self.release_token();
        let mut stats = PopStats::default();
        let outcome = loop {
            stats.attempts += 1;
            if self.wl.done.load(Ordering::Acquire) {
                break PopOutcome::Done;
            }
            if let Some(item) = self.wl.queue.try_pop() {
                // Token transfers from the queue entry to this block.
                self.holds_token = true;
                break PopOutcome::Item(item);
            }
            self.wl.failed_pops.fetch_add(1, Ordering::Relaxed);
            // Quiescence: no queued entries and no busy blocks anywhere
            // ⇒ nothing can ever be added again.
            if self.wl.tokens.load(Ordering::Acquire) == 0 {
                self.wl.signal_done();
                break PopOutcome::Done;
            }
            let wl = self.wl;
            stats.sleeps += wl.parker.park(|| {
                wl.is_done() || !wl.queue.is_empty_hint() || wl.tokens.load(Ordering::Acquire) == 0
            });
        };
        (outcome, stats)
    }

    /// Releases this block's token without popping (used when a block
    /// exits for a reason other than starvation, e.g. PVC found-flag).
    pub fn release_token(&mut self) {
        if self.holds_token {
            self.holds_token = false;
            // The last token wakes the waiters to detect quiescence.
            if self.wl.tokens.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.wl.parker.notify();
            }
        }
    }
}

impl<'a, T> Drop for WorkerHandle<'a, T> {
    fn drop(&mut self) {
        self.release_token();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A wait cap no passing test comes near: a missed wakeup shows up
    /// as a 10 s stall, not as a flake around `POLL_SLEEP`.
    const LONG: Duration = Duration::from_secs(10);

    fn long_capped(capacity: usize) -> Worklist<u32> {
        Worklist {
            parker: Parker::with_cap(LONG),
            ..Worklist::with_capacity(capacity)
        }
    }

    /// Parks a starved block in `wl` while the caller's block holds the
    /// only token, runs `wake` once the block is known to wait, and
    /// returns what its pop got, with the time it took.
    fn park_then<'w>(
        wl: &'w Worklist<u32>,
        wake: impl FnOnce(WorkerHandle<'w, u32>),
    ) -> (PopOutcome<u32>, PopStats, Duration) {
        wl.seed(0);
        let mut holder = wl.handle();
        assert_eq!(holder.pop(), PopOutcome::Item(0));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let start = Instant::now();
                let (outcome, stats) = wl.handle().pop_with_stats();
                (outcome, stats, start.elapsed())
            });
            wl.parker.await_waiters(1);
            wake(holder);
            waiter.join().unwrap()
        })
    }

    #[test]
    fn single_worker_drains_and_terminates() {
        let wl = Worklist::with_capacity(8);
        wl.seed(1u32);
        let mut h = wl.handle();
        assert_eq!(h.pop(), PopOutcome::Item(1));
        // While busy, donate two children.
        h.add(2).unwrap();
        h.add(3).unwrap();
        assert_eq!(h.pop(), PopOutcome::Item(2));
        assert_eq!(h.pop(), PopOutcome::Item(3));
        assert_eq!(h.pop(), PopOutcome::Done);
        assert!(wl.is_done());
    }

    #[test]
    fn full_queue_bounces_donation() {
        let wl = Worklist::with_capacity(2);
        wl.seed(0u32);
        let mut h = wl.handle();
        assert_eq!(h.pop(), PopOutcome::Item(0));
        h.add(1).unwrap();
        h.add(2).unwrap();
        assert_eq!(h.add(3), Err(3), "third donation must bounce (capacity 2)");
        // The bounced donation must not corrupt the token count: drain.
        assert_eq!(h.pop(), PopOutcome::Item(1));
        assert_eq!(h.pop(), PopOutcome::Item(2));
        assert_eq!(h.pop(), PopOutcome::Done);
    }

    #[test]
    fn signal_done_preempts_pending_work() {
        // The PVC early-exit flag: once set, blocks stop taking new tree
        // nodes even if the worklist still has entries (Fig. 4 variant).
        let wl = Worklist::<u32>::with_capacity(4);
        wl.seed(0);
        wl.seed(1);
        wl.signal_done();
        let mut h = wl.handle();
        assert_eq!(h.pop(), PopOutcome::Done);
        assert!(wl.is_done());
        // Entries remain queued but unreachable — by design.
        assert_eq!(wl.len_hint(), 2);
    }

    #[test]
    fn a_parked_block_wakes_for_a_donation() {
        let wl = long_capped(8);
        let (outcome, stats, waited) = park_then(&wl, |holder| holder.add(1).unwrap());
        assert_eq!(outcome, PopOutcome::Item(1));
        assert!(waited < LONG / 2, "woke after {waited:?}");
        assert!(stats.sleeps <= 1, "one short wait is one interval");
        assert!(!wl.is_done());
    }

    #[test]
    fn a_parked_block_ends_when_the_last_token_is_released() {
        let wl = long_capped(8);
        let (outcome, _, waited) = park_then(&wl, drop);
        assert_eq!(outcome, PopOutcome::Done);
        assert!(waited < LONG / 2, "woke after {waited:?}");
        assert!(wl.is_done());
    }

    #[test]
    fn a_parked_block_ends_on_signal_done() {
        let wl = long_capped(8);
        let (outcome, _, waited) = park_then(&wl, |_holder| wl.signal_done());
        assert_eq!(outcome, PopOutcome::Done);
        assert!(waited < LONG / 2, "woke after {waited:?}");
    }

    /// A miniature tree traversal: every worker pops a "node" carrying a
    /// remaining depth, donates one child, keeps one locally (simulating
    /// the hybrid split), and all workers must terminate with exactly
    /// 2^depth leaves processed in total.
    #[test]
    fn multi_worker_tree_traversal_terminates_exactly() {
        const WORKERS: usize = 8;
        const DEPTH: u32 = 10;
        let wl = Arc::new(Worklist::<u32>::with_capacity(1024));
        wl.seed(DEPTH);
        let leaves = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                let wl = Arc::clone(&wl);
                let leaves = Arc::clone(&leaves);
                s.spawn(move || {
                    let mut h = wl.handle();
                    let mut local: Vec<u32> = Vec::new();
                    'outer: loop {
                        let mut node = match local.pop() {
                            Some(n) => n,
                            None => match h.pop() {
                                PopOutcome::Item(n) => n,
                                PopOutcome::Done => break 'outer,
                            },
                        };
                        // Descend this sub-tree depth-first.
                        loop {
                            if node == 0 {
                                leaves.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            // Donate one child if the worklist is low,
                            // else keep it locally (the hybrid rule).
                            let child = node - 1;
                            if h.len_hint() < 16 {
                                if let Err(back) = h.add(child) {
                                    local.push(back);
                                }
                            } else {
                                local.push(child);
                            }
                            node -= 1;
                        }
                    }
                });
            }
        });

        assert_eq!(leaves.load(Ordering::Relaxed), 1 << DEPTH);
        assert!(wl.is_done());
        assert_eq!(wl.len_hint(), 0);
    }

    #[test]
    fn tokens_prevent_premature_termination() {
        // One worker holds work for a while; a starved worker must NOT
        // declare done until the holder finishes.
        let wl = Arc::new(Worklist::<u32>::with_capacity(8));
        wl.seed(1);
        let (sender, receiver) = std::sync::mpsc::channel::<()>();

        let drain = |wl: &Worklist<u32>| {
            let mut h = wl.handle();
            let mut items = Vec::new();
            loop {
                match h.pop() {
                    PopOutcome::Item(i) => items.push(i),
                    PopOutcome::Done => return items,
                }
            }
        };
        let (popped_tx, popped_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let wl_holder = Arc::clone(&wl);
            let holder = s.spawn(move || {
                let mut h = wl_holder.handle();
                assert_eq!(h.pop(), PopOutcome::Item(1));
                popped_tx.send(()).unwrap();
                // Simulate long processing; starved peer polls meanwhile.
                receiver.recv().unwrap();
                h.add(2).unwrap();
                drop(h); // release the busy token without popping
                drain(&wl_holder)
            });
            // Only start the peer once the holder owns the seed.
            popped_rx.recv().unwrap();
            let wl_starved = Arc::clone(&wl);
            let starved = s.spawn(move || drain(&wl_starved));
            wl.parker.await_waiters(1);
            assert!(!wl.is_done(), "must not terminate while a token is held");
            sender.send(()).unwrap();
            let a = holder.join().unwrap();
            let b = starved.join().unwrap();
            // Exactly one of the two drained item 2.
            assert_eq!(a.len() + b.len(), 1);
        });
        assert!(wl.is_done());
    }
}
