//! Thread blocks as resident OS threads.
//!
//! The persistent-kernel execution style the paper uses launches exactly
//! as many blocks as the device can keep resident (the [`LaunchConfig`]
//! grid), and every block loops taking work until the traversal ends. We
//! reproduce that one-to-one: every block of a launch runs on its own OS
//! thread, mapped round-robin onto virtual SMs. Real synchronization
//! (the worklist's atomics) happens between real threads; only
//! intra-block parallelism is cost-modeled.
//!
//! The threads stay resident across launches, like the paper's
//! persistent blocks. Block 0 runs on the launching thread itself.
//! Blocks `1..n` run on that thread's pool of parked helper threads,
//! created by its first multi-block launch and grown when a later launch
//! needs more blocks. A launch is then a condvar handoff instead of `n`
//! thread spawns and joins, and a one-block launch uses no extra thread
//! at all. The pool leaves its thread-local cell for the duration of a
//! launch, so a launch from inside a block builds a pool of its own.

use std::cell::Cell;

use scoped_threadpool::Pool;

use crate::counters::BlockCounters;
use crate::{DeviceSpec, LaunchConfig};

/// Identity and placement of one running block.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx {
    /// Block id within the grid, `0..grid_blocks`.
    pub block_id: u32,
    /// Virtual SM this block is resident on.
    pub sm_id: u32,
    /// Threads per block (feeds the cost model's `ceil(n/B)`).
    pub block_size: u32,
}

thread_local! {
    /// This thread's parked helper threads, which run blocks `1..n` of
    /// its launches. `None` until the first multi-block launch, and
    /// while a launch has the pool out.
    static HELPERS: Cell<Option<Pool>> = const { Cell::new(None) };
}

/// The launching thread's helper pool, out of its cell for one launch.
/// Dropping it (also while unwinding from a block panic) puts it back,
/// in place of any pool a launch nested inside block 0 left there.
struct Helpers(Option<Pool>);

impl Helpers {
    /// Takes this thread's pool, replacing it with a larger one if it
    /// has fewer than `blocks` threads.
    fn take(blocks: u32) -> Helpers {
        let pool = HELPERS
            .take()
            .filter(|p| p.thread_count() >= blocks)
            .unwrap_or_else(|| Pool::new(blocks));
        Helpers(Some(pool))
    }

    fn pool(&mut self) -> &mut Pool {
        self.0.as_mut().expect("the pool is out until drop")
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        HELPERS.set(self.0.take());
    }
}

/// Runs `body` once per grid block, each block on its own resident OS
/// thread, and returns the per-block counters in block-id order.
///
/// `body` receives the block's context and its fresh counters; whatever
/// state blocks share (worklist, `best`, the CSR graph) is captured by
/// the closure's environment, exactly like kernel arguments in global
/// memory. Block 0 runs on the calling thread; blocks `1..n` on its
/// parked helper threads (see the module docs). A panicking block
/// propagates to the caller once every block has returned, like a
/// faulting kernel aborting the launch.
pub fn run_blocks<F>(device: &DeviceSpec, config: &LaunchConfig, body: F) -> Vec<BlockCounters>
where
    F: Fn(BlockCtx, &mut BlockCounters) + Sync,
{
    run_resident(config.grid_blocks, |block_id| {
        let ctx = BlockCtx {
            block_id,
            sm_id: device.sm_of_block(block_id),
            block_size: config.block_size,
        };
        let mut counters = BlockCounters::new(block_id);
        if config.record_trace {
            counters.enable_tracing();
        }
        body(ctx, &mut counters);
        counters
    })
}

/// Runs `body(b)` once for every block `b` in `0..n` on the resident
/// block threads and returns the results in block-id order: block 0 on
/// the calling thread, blocks `1..n` on its parked helpers. This is
/// [`run_blocks`] without the grid's counters, for callers that spread
/// their own work units over the blocks. A panicking block propagates
/// like in [`run_blocks`].
pub fn run_resident<T, F>(n: u32, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    if n <= 1 {
        return (0..n).map(body).collect();
    }
    let body = &body;
    let mut rest: Vec<Option<T>> = (1..n).map(|_| None).collect();
    let mut helpers = Helpers::take(n - 1);
    let first = helpers.pool().scoped(|scope| {
        for (block_id, slot) in (1..).zip(&mut rest) {
            scope.execute(move || *slot = Some(body(block_id)));
        }
        body(0)
    });
    let rest = rest.into_iter().map(|r| r.expect("every block ran"));
    std::iter::once(first).chain(rest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Activity;
    use crate::occupancy::{select_launch, LaunchRequest};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    fn config(grid: u32) -> LaunchConfig {
        let mut cfg = select_launch(
            &DeviceSpec::test_tiny(),
            &LaunchRequest {
                num_vertices: 64,
                stack_depth: 4,
                worklist_entries: 8,
                force_variant: None,
                force_block_size: None,
            },
        )
        .unwrap();
        cfg.grid_blocks = grid;
        cfg
    }

    #[test]
    fn every_block_runs_once() {
        let device = DeviceSpec::test_tiny();
        let ran = AtomicU64::new(0);
        let counters = run_blocks(&device, &config(6), |ctx, c| {
            ran.fetch_add(1, Ordering::Relaxed);
            c.charge(Activity::Terminate, ctx.block_id as u64 + 1);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 6);
        assert_eq!(counters.len(), 6);
        // Returned in block-id order with the right charges.
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.block_id, i as u32);
            assert_eq!(c.cycles(Activity::Terminate), i as u64 + 1);
        }
    }

    #[test]
    fn blocks_share_environment() {
        let device = DeviceSpec::test_tiny();
        let sum = AtomicU64::new(0);
        run_blocks(&device, &config(8), |ctx, _| {
            sum.fetch_add(ctx.block_id as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..8).sum());
    }

    #[test]
    fn sm_ids_follow_device_mapping() {
        let device = DeviceSpec::test_tiny(); // 2 SMs
        run_blocks(&device, &config(4), |ctx, _| {
            assert_eq!(ctx.sm_id, ctx.block_id % 2);
        });
    }

    /// Runs a `grid`-block launch whose blocks all rendezvous before
    /// returning (so each one holds a distinct thread), and returns the
    /// thread each block ran on, in block-id order.
    fn launch_threads(grid: u32) -> Vec<ThreadId> {
        let device = DeviceSpec::test_tiny();
        let barrier = Barrier::new(grid as usize);
        let threads = Mutex::new(vec![None; grid as usize]);
        run_blocks(&device, &config(grid), |ctx, _| {
            barrier.wait();
            threads.lock().unwrap()[ctx.block_id as usize] = Some(thread::current().id());
        });
        threads
            .into_inner()
            .unwrap()
            .into_iter()
            .flatten()
            .collect()
    }

    /// Runs `f` on a fresh OS thread, whose helper pool starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send) {
        thread::scope(|s| {
            s.spawn(f);
        });
    }

    #[test]
    fn block_zero_runs_on_the_callers_thread() {
        on_fresh_thread(|| {
            let me = thread::current().id();
            // A one-block launch needs no helper thread at all.
            assert_eq!(launch_threads(1), vec![me]);
            assert!(HELPERS.take().is_none(), "grid 1 built a pool");
            let threads = launch_threads(4);
            assert_eq!(threads[0], me);
            assert!(!threads[1..].contains(&me));
        });
    }

    #[test]
    fn consecutive_launches_reuse_the_helper_threads() {
        on_fresh_thread(|| {
            let first: HashSet<ThreadId> = launch_threads(4)[1..].iter().copied().collect();
            assert_eq!(first.len(), 3, "blocks 1..4 each hold their own helper");
            for _ in 0..5 {
                let again: HashSet<ThreadId> = launch_threads(4)[1..].iter().copied().collect();
                assert_eq!(again, first, "a repeated launch spawned threads");
            }
        });
    }

    #[test]
    fn a_wider_launch_grows_the_pool() {
        on_fresh_thread(|| {
            let narrow: HashSet<ThreadId> = launch_threads(2)[1..].iter().copied().collect();
            let wide: HashSet<ThreadId> = launch_threads(6)[1..].iter().copied().collect();
            assert_eq!(narrow.len(), 1);
            assert_eq!(wide.len(), 5, "the pool grew to the wider grid");
            // The grown pool serves every narrower launch after it.
            for grid in [2, 4, 6] {
                let helpers: HashSet<ThreadId> =
                    launch_threads(grid)[1..].iter().copied().collect();
                assert!(helpers.is_subset(&wide), "grid {grid} spawned threads");
            }
        });
    }

    #[test]
    fn a_panicking_block_reaches_the_caller_and_the_pool_survives() {
        on_fresh_thread(|| {
            let device = DeviceSpec::test_tiny();
            let helpers: HashSet<ThreadId> = launch_threads(3)[1..].iter().copied().collect();
            for culprit in [0, 2] {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    run_blocks(&device, &config(3), |ctx, _| {
                        if ctx.block_id == culprit {
                            panic!("block {culprit} faulted");
                        }
                    })
                }));
                let payload = caught.expect_err("the block panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>().map(String::as_str),
                    Some(format!("block {culprit} faulted").as_str())
                );
                let after: HashSet<ThreadId> = launch_threads(3)[1..].iter().copied().collect();
                assert_eq!(after, helpers, "the launch after a panic lost its pool");
            }
        });
    }

    #[test]
    fn a_launch_from_inside_a_block_completes() {
        on_fresh_thread(|| {
            let device = DeviceSpec::test_tiny();
            let inner_blocks = AtomicU64::new(0);
            let outer = run_blocks(&device, &config(3), |_, _| {
                let inner = run_blocks(&device, &config(4), |_, _| {
                    inner_blocks.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(inner.len(), 4);
            });
            assert_eq!(outer.len(), 3);
            assert_eq!(inner_blocks.load(Ordering::Relaxed), 12);
            // The caller's pool is back in its cell and still serves.
            assert_eq!(launch_threads(3).len(), 3);
        });
    }
}
