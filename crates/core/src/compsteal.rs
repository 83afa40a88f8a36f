//! The steal-pool scheme — per-block deques with steal-based
//! balancing — as one [`SchedulePolicy`] serving both
//! [`Algorithm::WorkStealing`](crate::Algorithm::WorkStealing) and
//! [`Algorithm::ComponentSteal`](crate::Algorithm::ComponentSteal).
//!
//! Each block's DFS stack *is* its deque: a branched child pushed to
//! the back is implicitly donated, because a starving peer can steal it
//! from the front (the shallowest, and therefore largest, pending
//! sub-tree). There is no donation threshold to tune and no single
//! queue to contend on; the price is synchronization on the owner's
//! own push/pop path.
//!
//! A stolen child is a slice of a graph every other block is also
//! chewing on. arXiv 2512.18334's observation is that a *component* of
//! a disconnected residual is the natural donation unit — a complete,
//! independent sub-problem with its own bound. So the work item is
//! richer than a tree node: when the engine detects a component-sum
//! node (see [`crate::split`]) and the policy **adopts** splits
//! (ComponentSteal; WorkStealing declines, and the engine solves the
//! split inline), the components are pushed onto the block's
//! own deque, where starving peers steal them front-first (the oldest
//! push; component order follows BFS discovery over vertex ids). Each
//! component is solved by the budgeted sub-search of
//! `split::solve_bounded`, with sibling budgets tightened by the
//! results already recorded on the shared `SplitJob`. Whoever
//! finishes a job's **last** component combines the sub-covers onto
//! the parent node and feeds the component-sum solution back into the
//! engine as its next "tree node", where the ordinary bound/solution
//! machinery takes over.
//!
//! Counter semantics mirror the other parallel policies: own-deque
//! traffic is stack activity, steals are worklist removes (counted in
//! `nodes_from_worklist`), and every solved sub-search node counts
//! toward the Figure 5 load metric.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::runtime::BlockCtx;
use parvc_worklist::{StealHandle, StealOutcome, StealPool, StealSource};

use crate::connect::ConnPool;
use crate::engine::{ExitCause, PolicyFactory, SchedulePolicy};
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::shared::BoundSrc;
use crate::split::{self, PendingSplit, SubInstance};
use crate::TreeNode;

/// One adopted component-sum node: the parent, its components, and the
/// cross-block accounting that reassembles the summed solution.
struct SplitJob {
    /// The node whose residual disconnected (its cover is the shared
    /// prefix of the combined solution).
    parent: TreeNode,
    /// The extracted components.
    comps: Vec<SubInstance>,
    /// `results[i]`: `None` = unsolved; `Some(None)` = the component
    /// cannot fit its budget (the whole job is pruned); `Some(Some(c))`
    /// = the component's optimal sub-cover.
    results: Mutex<Vec<Option<Option<Vec<u32>>>>>,
    /// Components not yet solved; the block that takes this to zero
    /// combines the results.
    outstanding: AtomicUsize,
    /// Nested-split depth available to the sub-searches.
    max_depth: u32,
}

/// A unit of stealable work: an ordinary tree node, or one component
/// of an adopted split.
enum CompTask {
    Node(TreeNode),
    Component { job: Arc<SplitJob>, index: usize },
}

/// Shared state: one deque of steal-pool work items per block.
pub struct CompStealFactory {
    pool: StealPool<CompTask>,
    adopt: bool,
}

impl CompStealFactory {
    /// A fresh factory for a launch of `workers` blocks (one per
    /// solve). `depth_hint` pre-sizes each deque (§IV-E). `adopt`
    /// donates component-sum nodes as stealable components
    /// (ComponentSteal); without it every split is solved inline
    /// (WorkStealing).
    pub fn new(workers: usize, depth_hint: usize, adopt: bool) -> Self {
        CompStealFactory {
            pool: StealPool::new(workers, depth_hint),
            adopt,
        }
    }
}

impl PolicyFactory for CompStealFactory {
    fn seed(&self, root: TreeNode) {
        self.pool.seed(0, CompTask::Node(root));
    }

    fn block_policy<'s>(
        &'s self,
        ctx: BlockCtx,
        _depth_bound: usize,
    ) -> Box<dyn SchedulePolicy + 's> {
        Box::new(CompStealPolicy {
            pool: &self.pool,
            handle: self.pool.handle(ctx.block_id as usize),
            adopt: self.adopt,
            conns: ConnPool::new(),
            scratch: BlockScratch::new(),
        })
    }
}

/// One block's view: its own deque plus its peers as steal targets.
pub struct CompStealPolicy<'a> {
    pool: &'a StealPool<CompTask>,
    handle: StealHandle<'a, CompTask>,
    /// Whether offered splits are donated as components.
    adopt: bool,
    /// Tracker-reuse pool for the per-component sub-searches this block
    /// runs: each solved component recycles the previous one's
    /// union-find allocations instead of growing fresh ones.
    conns: ConnPool,
    /// Phase scratch shared by every sub-search on this block.
    scratch: BlockScratch,
}

impl CompStealPolicy<'_> {
    /// Solves component `index` of `job` on this block and records the
    /// result. If that was the job's last outstanding component,
    /// returns the combined component-sum solution (or `None` when any
    /// component proved the node prunable).
    fn run_component(
        &mut self,
        job: &Arc<SplitJob>,
        index: usize,
        kernel: &Kernel<'_>,
        bound: BoundSrc<'_>,
        counters: &mut BlockCounters,
    ) -> Option<TreeNode> {
        let inst = &job.comps[index];
        let search = bound.bound();
        // The freshest budget (in the search's units — weight for
        // weighted traversals): the launch bound as of now, minus the
        // parent's cover cost, minus what the sibling components are
        // known to need (their exact optimum once solved, else their
        // matching lower bound). A sibling that already proved it
        // cannot fit dooms the whole job — no budget, skip the solve.
        let limit = {
            let results = job.results.lock();
            let doomed = results.iter().any(|r| matches!(r, Some(None)));
            if doomed {
                None
            } else {
                split::remaining_budget(search, search.node_cost(&job.parent)).map(
                    |mut remaining| {
                        for (j, r) in results.iter().enumerate() {
                            if j == index {
                                continue;
                            }
                            remaining -= match r {
                                Some(Some(cover)) => {
                                    if search.is_weighted() {
                                        job.comps[j].graph.cover_weight(cover) as i64
                                    } else {
                                        cover.len() as i64
                                    }
                                }
                                _ => job.comps[j].lower_bound as i64,
                            };
                        }
                        remaining
                    },
                )
            }
        };
        let outcome = match limit {
            Some(limit) if limit >= inst.lower_bound as i64 => {
                let sub_kernel = Kernel {
                    graph: &inst.graph,
                    ..*kernel
                };
                split::solve_bounded(
                    &sub_kernel,
                    inst.greedy.clone(),
                    limit as u64,
                    search.is_weighted(),
                    &mut || bound.should_abort(),
                    &mut self.scratch,
                    &mut self.conns,
                    counters,
                    job.max_depth,
                )
                .map(|(_, cover)| cover)
            }
            // Budget spent before this component even started: the
            // whole job is prunable.
            _ => None,
        };
        job.results.lock()[index] = Some(outcome);
        if job.outstanding.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        // Last component done: combine S with every sub-cover into an
        // ordinary (edgeless) tree node and hand it to the engine.
        let results = job.results.lock();
        let mut combined = job.parent.clone();
        for (inst, r) in job.comps.iter().zip(results.iter()) {
            let Some(Some(cover)) = r else {
                // A sibling was pruned or never got a budget — the
                // component-sum node cannot beat the bound.
                return None;
            };
            for &v in cover {
                combined.remove_into_cover(kernel.graph, inst.old_ids[v as usize]);
            }
        }
        kernel.charge_node_copy(combined.len(), Activity::ComponentSplit, counters);
        Some(combined)
    }
}

impl SchedulePolicy for CompStealPolicy<'_> {
    fn next(
        &mut self,
        kernel: &Kernel<'_>,
        bound: BoundSrc<'_>,
        counters: &mut BlockCounters,
    ) -> Option<TreeNode> {
        loop {
            let (outcome, stats) = self.handle.pop_with_stats();
            let (task, copy) = match outcome {
                StealOutcome::Item(task, StealSource::Own) => (task, Activity::PopFromStack),
                StealOutcome::Item(task, StealSource::Stolen { victim }) => {
                    // A steal pays like a worklist remove: the scan
                    // attempts, the starvation waits, and the node copy.
                    counters.charge(
                        Activity::RemoveFromWorklist,
                        stats.attempts * kernel.cost.queue_op
                            + stats.sleeps * kernel.cost.poll_sleep,
                    );
                    counters.nodes_from_worklist += 1;
                    counters.record_steal(victim as u32);
                    if kernel.sink.enabled() {
                        parvc_obs::instant(
                            kernel.sink,
                            "steal",
                            "steal",
                            kernel.track,
                            victim as u64,
                        );
                        kernel.sink.counter("steal.steals", 1);
                    }
                    (task, Activity::RemoveFromWorklist)
                }
                StealOutcome::Done => {
                    counters.charge(
                        Activity::RemoveFromWorklist,
                        stats.attempts * kernel.cost.queue_op
                            + stats.sleeps * kernel.cost.poll_sleep,
                    );
                    return None;
                }
            };
            match task {
                CompTask::Node(n) => {
                    kernel.charge_node_copy(n.len(), copy, counters);
                    return Some(n);
                }
                CompTask::Component { job, index } => {
                    if let Some(combined) = self.run_component(&job, index, kernel, bound, counters)
                    {
                        return Some(combined);
                    }
                    // Sibling components still outstanding (or the job
                    // pruned): keep draining the pool.
                }
            }
        }
    }

    fn dispose(&mut self, child: TreeNode, kernel: &Kernel<'_>, counters: &mut BlockCounters) {
        kernel.charge_node_copy(child.len(), Activity::PushToStack, counters);
        counters.charge(Activity::PushToStack, kernel.cost.atomic_op);
        let depth = self.handle.push(CompTask::Node(child));
        counters.max_stack_depth = counters.max_stack_depth.max(depth as u64);
    }

    fn adopt_split(
        &mut self,
        split: PendingSplit,
        kernel: &Kernel<'_>,
        counters: &mut BlockCounters,
    ) -> Result<(), PendingSplit> {
        if !self.adopt {
            return Err(split);
        }
        let n = split.comps.len();
        let job = Arc::new(SplitJob {
            parent: split.parent,
            comps: split.comps,
            results: Mutex::new(vec![None; n]),
            outstanding: AtomicUsize::new(n),
            max_depth: kernel.ext.component_branching.map_or(0, |p| p.max_depth),
        });
        for index in 0..n {
            // Donating a component costs one queue push; the node data
            // itself stays shared behind the job handle.
            counters.charge(Activity::ComponentSplit, kernel.cost.queue_op);
            counters.nodes_donated += 1;
            let depth = self.handle.push(CompTask::Component {
                job: Arc::clone(&job),
                index,
            });
            counters.max_stack_depth = counters.max_stack_depth.max(depth as u64);
        }
        Ok(())
    }

    fn on_exit(&mut self, cause: ExitCause, kernel: &Kernel<'_>, counters: &mut BlockCounters) {
        match cause {
            ExitCause::Aborted => {
                self.pool.signal_done();
                counters.charge(Activity::Terminate, kernel.cost.atomic_op);
            }
            ExitCause::Exhausted => {
                counters.charge(Activity::Terminate, kernel.cost.queue_op);
            }
            ExitCause::SolutionFound => {
                self.pool.signal_done();
            }
        }
    }
}
