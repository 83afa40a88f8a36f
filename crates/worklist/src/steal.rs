//! Per-block work-stealing deques.
//!
//! An alternative to the single shared [`Worklist`](crate::Worklist):
//! every block owns a deque, treats its back as its DFS stack (LIFO),
//! and — when starved — steals from the *front* of a peer's deque,
//! taking the shallowest (largest) pending sub-tree. Donation is
//! implicit: every locally pushed child is stealable, so there is no
//! threshold to tune, at the price of per-deque synchronization on the
//! owner's hot path (on a real GPU this is the classic deque scheme of
//! persistent-threads runtimes).
//!
//! Termination reuses the outstanding-work token protocol documented
//! in [`crate::termination`]: every queued entry holds one token, every
//! block holds one from obtaining work until its next pop, and
//! `tokens == 0` ⇔ every deque empty ∧ every block starved — the
//! quiescence condition, race-free.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{PopStats, POLL_SLEEP};

/// Where a successful steal-pool pop found its item — callers charge
/// different activities for a local pop vs. a steal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealSource {
    /// Popped from the back of the block's own deque (its DFS stack).
    Own,
    /// Stolen from the front of the given peer's deque.
    Stolen {
        /// Index of the victim worker.
        victim: usize,
    },
}

/// Result of a [`StealHandle::pop_with_stats`].
#[derive(Debug, PartialEq, Eq)]
pub enum StealOutcome<T> {
    /// A tree node to process, and where it came from.
    Item(T, StealSource),
    /// The traversal is complete (quiescence or early termination).
    Done,
}

/// A set of per-worker deques with steal-based balancing and exact
/// quiescence detection.
///
/// Create one per launch with the number of participating workers,
/// [`seed`](StealPool::seed) a root item, and hand each worker its
/// [`StealHandle`] via [`handle`](StealPool::handle).
pub struct StealPool<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Outstanding-work tokens: queued entries + busy workers.
    tokens: AtomicUsize,
    /// Set once: quiescence detected or early termination signalled.
    done: AtomicBool,
    /// Successful steals (load-balancing traffic metric).
    steals: AtomicU64,
    /// Successful steals per *victim* deque — the Figure-5-style
    /// locality signal: a hot victim is a block whose sub-tree the
    /// rest of the pool lived off.
    steals_from: Vec<AtomicU64>,
    /// Failed full scans (starvation metric).
    failed_scans: AtomicU64,
}

impl<T> StealPool<T> {
    /// Creates a pool of `workers` deques, each pre-allocating
    /// `depth_hint` slots (the §IV-E stack-depth bound).
    pub fn new(workers: usize, depth_hint: usize) -> Self {
        assert!(workers > 0, "a steal pool needs at least one worker");
        StealPool {
            deques: (0..workers)
                .map(|_| Mutex::new(VecDeque::with_capacity(depth_hint)))
                .collect(),
            tokens: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            steals_from: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            failed_scans: AtomicU64::new(0),
        }
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Seeds `worker`'s deque before launch.
    pub fn seed(&self, worker: usize, item: T) {
        self.tokens.fetch_add(1, Ordering::AcqRel);
        self.lock(worker).push_back(item);
    }

    /// Signals early termination (the PVC "vertex cover found" flag).
    pub fn signal_done(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether termination has been signalled or detected.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Total successful steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Successful steals broken down by victim deque, indexed by
    /// worker. Sums to [`total_steals`](Self::total_steals).
    pub fn steals_per_victim(&self) -> Vec<u64> {
        self.steals_from
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total failed whole-pool scans across all workers.
    pub fn total_failed_scans(&self) -> u64 {
        self.failed_scans.load(Ordering::Relaxed)
    }

    /// Items currently queued across all deques (racy snapshot).
    pub fn len_hint(&self) -> usize {
        self.deques.iter().map(|d| self.peek_len(d)).sum()
    }

    /// Creates the handle for `worker`. One per worker, each index
    /// used exactly once.
    pub fn handle(&self, worker: usize) -> StealHandle<'_, T> {
        assert!(worker < self.deques.len(), "worker index out of range");
        StealHandle {
            pool: self,
            me: worker,
            holds_token: false,
        }
    }

    fn lock(&self, worker: usize) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.deques[worker]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn peek_len(&self, deque: &Mutex<VecDeque<T>>) -> usize {
        deque.lock().map(|d| d.len()).unwrap_or(0)
    }
}

/// One worker's view of the [`StealPool`], tracking its
/// outstanding-work token.
pub struct StealHandle<'a, T> {
    pool: &'a StealPool<T>,
    me: usize,
    holds_token: bool,
}

impl<T> StealHandle<'_, T> {
    /// Pushes a branched child onto the back of this worker's own
    /// deque, where it is stealable by starving peers. May only be
    /// called while busy (holding a token), which the engine loop
    /// guarantees structurally. Returns the resulting deque length.
    pub fn push(&self, item: T) -> usize {
        debug_assert!(self.holds_token, "pushing while not processing");
        self.pool.tokens.fetch_add(1, Ordering::AcqRel);
        let mut deque = self.pool.lock(self.me);
        deque.push_back(item);
        deque.len()
    }

    /// Length of this worker's own deque (racy snapshot).
    pub fn own_len(&self) -> usize {
        self.pool.peek_len(&self.pool.deques[self.me])
    }

    /// Pops the next item: own back first (LIFO), then peers' fronts
    /// (FIFO steal), with the token-based quiescence check between
    /// scans. `attempts` counts whole-pool scans and `sleeps` the
    /// starvation naps, mirroring [`crate::WorkerHandle`]'s stats.
    pub fn pop_with_stats(&mut self) -> (StealOutcome<T>, PopStats) {
        self.release_token();
        let mut stats = PopStats::default();
        let outcome = loop {
            stats.attempts += 1;
            if self.pool.done.load(Ordering::Acquire) {
                break StealOutcome::Done;
            }
            if let Some(item) = self.pool.lock(self.me).pop_back() {
                // Token transfers from the queued entry to this worker.
                self.holds_token = true;
                break StealOutcome::Item(item, StealSource::Own);
            }
            if let Some((item, victim)) = self.try_steal() {
                self.holds_token = true;
                self.pool.steals.fetch_add(1, Ordering::Relaxed);
                self.pool.steals_from[victim].fetch_add(1, Ordering::Relaxed);
                break StealOutcome::Item(item, StealSource::Stolen { victim });
            }
            self.pool.failed_scans.fetch_add(1, Ordering::Relaxed);
            // Quiescence: no queued entries and no busy workers anywhere
            // ⇒ nothing can ever be pushed again.
            if self.pool.tokens.load(Ordering::Acquire) == 0 {
                self.pool.done.store(true, Ordering::Release);
                break StealOutcome::Done;
            }
            stats.sleeps += 1;
            std::thread::sleep(POLL_SLEEP);
        };
        (outcome, stats)
    }

    /// [`pop_with_stats`](Self::pop_with_stats) without the stats.
    pub fn pop(&mut self) -> StealOutcome<T> {
        self.pop_with_stats().0
    }

    fn try_steal(&self) -> Option<(T, usize)> {
        let n = self.pool.deques.len();
        for offset in 1..n {
            let victim = (self.me + offset) % n;
            if let Some(item) = self.pool.lock(victim).pop_front() {
                return Some((item, victim));
            }
        }
        None
    }

    /// Releases this worker's token without popping (used when a worker
    /// exits for a reason other than starvation).
    pub fn release_token(&mut self) {
        if self.holds_token {
            self.pool.tokens.fetch_sub(1, Ordering::AcqRel);
            self.holds_token = false;
        }
    }
}

impl<T> Drop for StealHandle<'_, T> {
    fn drop(&mut self) {
        self.release_token();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn single_worker_lifo_and_terminates() {
        let pool = StealPool::new(1, 8);
        pool.seed(0, 1u32);
        let mut h = pool.handle(0);
        assert_eq!(h.pop(), StealOutcome::Item(1, StealSource::Own));
        h.push(2);
        h.push(3);
        assert_eq!(
            h.pop(),
            StealOutcome::Item(3, StealSource::Own),
            "own pops are LIFO"
        );
        assert_eq!(h.pop(), StealOutcome::Item(2, StealSource::Own));
        assert_eq!(h.pop(), StealOutcome::Done);
        assert!(pool.is_done());
    }

    #[test]
    fn steals_take_the_oldest_entry() {
        let pool = StealPool::new(2, 8);
        pool.seed(0, 10u32);
        let mut h0 = pool.handle(0);
        let mut h1 = pool.handle(1);
        assert_eq!(h0.pop(), StealOutcome::Item(10, StealSource::Own));
        h0.push(11);
        h0.push(12);
        // The thief takes from the FRONT: the shallowest pending node.
        assert_eq!(
            h1.pop(),
            StealOutcome::Item(11, StealSource::Stolen { victim: 0 })
        );
        assert_eq!(pool.total_steals(), 1);
        assert_eq!(pool.steals_per_victim(), vec![1, 0]);
        assert_eq!(h0.pop(), StealOutcome::Item(12, StealSource::Own));
        // Single-threaded drain: a blocking pop would wait for the
        // other handle's token, so release h0's explicitly (concurrent
        // pops do this for real launches) and let h1 detect quiescence.
        h0.release_token();
        assert_eq!(h1.pop(), StealOutcome::Done);
        assert_eq!(h0.pop(), StealOutcome::Done);
        assert_eq!(pool.len_hint(), 0);
    }

    #[test]
    fn signal_done_preempts_pending_work() {
        let pool = StealPool::new(2, 8);
        pool.seed(0, 1u32);
        pool.signal_done();
        assert_eq!(pool.handle(1).pop(), StealOutcome::Done);
        assert_eq!(
            pool.len_hint(),
            1,
            "entries remain queued but unreachable — by design"
        );
    }

    /// The steal-pool analogue of the worklist's tree-traversal test:
    /// all workers must terminate with exactly 2^depth leaves processed.
    #[test]
    fn multi_worker_tree_traversal_terminates_exactly() {
        const WORKERS: usize = 8;
        const DEPTH: u32 = 10;
        let pool = Arc::new(StealPool::<u32>::new(WORKERS, 64));
        pool.seed(0, DEPTH);
        let leaves = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let pool = Arc::clone(&pool);
                let leaves = Arc::clone(&leaves);
                s.spawn(move || {
                    let mut h = pool.handle(w);
                    while let StealOutcome::Item(mut node, _) = h.pop() {
                        // Descend depth-first, leaving siblings stealable.
                        loop {
                            if node == 0 {
                                leaves.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            h.push(node - 1);
                            node -= 1;
                        }
                    }
                });
            }
        });

        assert_eq!(leaves.load(Ordering::Relaxed), 1 << DEPTH);
        assert!(pool.is_done());
        assert_eq!(pool.len_hint(), 0);
        assert_eq!(
            pool.steals_per_victim().iter().sum::<u64>(),
            pool.total_steals(),
            "per-victim counters must partition the steal total"
        );
    }

    #[test]
    fn tokens_prevent_premature_termination() {
        // A worker holding in-flight work (token, empty deques) must
        // keep a starved peer polling, not terminating.
        let pool = Arc::new(StealPool::<u32>::new(2, 8));
        pool.seed(0, 7);
        let (popped_tx, popped_rx) = std::sync::mpsc::channel::<()>();
        let (resume_tx, resume_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let pool_holder = Arc::clone(&pool);
            let holder = s.spawn(move || {
                let mut h = pool_holder.handle(0);
                assert_eq!(h.pop(), StealOutcome::Item(7, StealSource::Own));
                popped_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
                h.push(8);
                drop(h); // release the busy token without popping
                let mut h = pool_holder.handle(0);
                let mut got = 0;
                while let StealOutcome::Item(..) = h.pop() {
                    got += 1;
                }
                got
            });
            popped_rx.recv().unwrap();
            let pool_starved = Arc::clone(&pool);
            let starved = s.spawn(move || {
                let mut h = pool_starved.handle(1);
                let mut got = 0;
                while let StealOutcome::Item(..) = h.pop() {
                    got += 1;
                }
                got
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(!pool.is_done(), "must not terminate while a token is held");
            resume_tx.send(()).unwrap();
            let total = holder.join().unwrap() + starved.join().unwrap();
            assert_eq!(total, 1, "item 8 is delivered exactly once");
        });
        assert!(pool.is_done());
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn handle_bounds_are_checked() {
        let pool = StealPool::<u32>::new(2, 4);
        let _ = pool.handle(2);
    }
}
