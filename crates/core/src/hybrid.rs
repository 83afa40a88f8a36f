//! The Hybrid scheme — the paper's contribution (Figure 4, §IV-A) —
//! as a [`SchedulePolicy`], plus its batched hand-off variant
//! ([`Algorithm::Batched`](crate::Algorithm::Batched)).
//!
//! Every thread block traverses a sub-tree depth-first with its local
//! stack, **but** on each branching it first looks at the global
//! worklist: below the threshold, the remove-`N(vmax)` child is donated
//! there for any starving block to pick up; at or above it, the child
//! goes onto the local stack as usual. Blocks that run out of local work
//! pull a new sub-tree root from the worklist, and the §IV-C protocol
//! detects when the whole traversal is finished.
//!
//! The threshold is the whole trick: it caps the worklist population, so
//! the breadth-first explosion and the queue contention of a pure
//! worklist scheme never materialize, while still keeping *just enough*
//! shareable work around that no block sits idle.
//!
//! With a batch of `k > 1` the block amortizes that queue traffic: a
//! hungry worklist gets nothing until the local stack holds `k` nodes,
//! and then receives the child plus the `k − 1` newest stack entries in
//! **one negotiation**. A batch of 1 is Figure 4 exactly.

use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::runtime::BlockCtx;
use parvc_worklist::{LocalStack, PopOutcome, WorkerHandle, Worklist};

use crate::engine::{ExitCause, PolicyFactory, SchedulePolicy};
use crate::ops::Kernel;
use crate::shared::BoundSrc;
use crate::TreeNode;

/// How many children a [`Algorithm::Batched`](crate::Algorithm::Batched)
/// block hands off in one queue negotiation.
pub const DEFAULT_BATCH: usize = 8;

/// Hybrid tuning knobs. The paper sweeps worklist sizes of 128K–512K
/// entries and thresholds of 0.25–1.0× the size.
#[derive(Debug, Clone)]
pub struct HybridParams {
    /// Global worklist capacity, in tree-node entries.
    pub worklist_capacity: usize,
    /// Donation threshold, as a fraction of capacity: donate only while
    /// `numEntries < threshold_frac * capacity` (Figure 4 line 23).
    pub threshold_frac: f64,
}

impl Default for HybridParams {
    fn default() -> Self {
        HybridParams {
            worklist_capacity: 1 << 14,
            threshold_frac: 0.75,
        }
    }
}

impl HybridParams {
    /// The absolute entry-count threshold.
    pub fn threshold_entries(&self) -> usize {
        ((self.worklist_capacity as f64) * self.threshold_frac).ceil() as usize
    }
}

/// Shared state: the §IV-C worklist, the donation threshold, and the
/// batch size. One per launch, or one per solve reset between launches.
pub struct HybridFactory {
    worklist: Worklist<TreeNode>,
    threshold: usize,
    batch: usize,
}

impl HybridFactory {
    /// A fresh factory (one per launch) handing off `batch` children
    /// per negotiation: 1 for Figure 4, [`DEFAULT_BATCH`] for the
    /// batched variant.
    pub fn new(params: &HybridParams, batch: usize) -> Self {
        HybridFactory {
            worklist: Worklist::with_capacity(params.worklist_capacity),
            threshold: params.threshold_entries(),
            batch,
        }
    }

    /// Readies the factory for another launch on the same worklist
    /// ring ([`Worklist::reset`]). The launch then runs exactly as on a
    /// fresh factory: the solver reuses one factory across all of a
    /// solve's engine searches instead of allocating a ring per kernel
    /// component.
    pub fn reset(&mut self) {
        self.worklist.reset();
    }
}

impl PolicyFactory for HybridFactory {
    fn seed(&self, root: TreeNode) {
        self.worklist.seed(root);
    }

    fn block_policy<'s>(
        &'s self,
        _ctx: BlockCtx,
        depth_bound: usize,
    ) -> Box<dyn SchedulePolicy + 's> {
        Box::new(HybridPolicy {
            worklist: &self.worklist,
            handle: self.worklist.handle(),
            threshold: self.threshold,
            batch: self.batch,
            stack: LocalStack::with_depth_bound(depth_bound),
        })
    }
}

/// One block's view: local stack first, then the global worklist.
pub struct HybridPolicy<'a> {
    worklist: &'a Worklist<TreeNode>,
    handle: WorkerHandle<'a, TreeNode>,
    threshold: usize,
    batch: usize,
    stack: LocalStack<TreeNode>,
}

impl SchedulePolicy for HybridPolicy<'_> {
    fn next(
        &mut self,
        kernel: &Kernel<'_>,
        _bound: BoundSrc<'_>,
        counters: &mut BlockCounters,
    ) -> Option<TreeNode> {
        // Figure 4 lines 5–10: stack, else worklist (with the §IV-C
        // wait loop inside `pop_with_stats`).
        if let Some(n) = self.stack.pop() {
            kernel.charge_node_copy(n.len(), Activity::PopFromStack, counters);
            return Some(n);
        }
        let (outcome, pop_stats) = self.handle.pop_with_stats();
        counters.charge(
            Activity::RemoveFromWorklist,
            pop_stats.attempts * kernel.cost.queue_op + pop_stats.sleeps * kernel.cost.poll_sleep,
        );
        match outcome {
            PopOutcome::Item(n) => {
                counters.nodes_from_worklist += 1;
                kernel.charge_node_copy(n.len(), Activity::RemoveFromWorklist, counters);
                Some(n)
            }
            PopOutcome::Done => None,
        }
    }

    fn dispose(&mut self, child: TreeNode, kernel: &Kernel<'_>, counters: &mut BlockCounters) {
        // Figure 4 lines 20–29: donate while the worklist is hungry,
        // else keep the child on the local stack. A batched block also
        // keeps it until the stack holds a full batch, so one node of
        // look-ahead stays local after the hand-off.
        let hungry = self.handle.len_hint() < self.threshold;
        if !hungry || (self.batch > 1 && self.stack.len() < self.batch) {
            kernel.charge_node_copy(child.len(), Activity::PushToStack, counters);
            self.push_local(child, counters);
            return;
        }
        // The child, then the newest stack entries, until the batch is
        // full: one negotiation amortized across all of them.
        let mut handed = 0;
        let mut next = Some(child);
        while let Some(node) = next.take() {
            let len = node.len();
            match self.handle.add(node) {
                Ok(()) => {
                    handed += 1;
                    counters.nodes_donated += 1;
                    kernel.charge_node_copy(len, Activity::AddToWorklist, counters);
                    if handed < self.batch {
                        next = self.stack.pop();
                    }
                }
                Err(back) => {
                    // Queue filled between the check and the add: keep
                    // the rest local (never drop work).
                    counters.donations_bounced += 1;
                    kernel.charge_node_copy(back.len(), Activity::PushToStack, counters);
                    self.push_local(back, counters);
                }
            }
        }
        if handed > 0 {
            counters.charge(Activity::AddToWorklist, kernel.cost.queue_op);
        }
    }

    fn on_exit(&mut self, cause: ExitCause, kernel: &Kernel<'_>, counters: &mut BlockCounters) {
        match cause {
            // Deadline / PVC found-flag: wake starving peers promptly.
            ExitCause::Aborted => {
                self.worklist.signal_done();
                counters.charge(Activity::Terminate, kernel.cost.atomic_op);
            }
            // The §IV-C protocol already concluded the traversal.
            ExitCause::Exhausted => {
                counters.charge(Activity::Terminate, kernel.cost.queue_op);
            }
            // Our own PVC solution ends the search for everyone.
            ExitCause::SolutionFound => {
                self.worklist.signal_done();
            }
        }
        counters.max_stack_depth = counters.max_stack_depth.max(self.stack.high_water() as u64);
    }
}

impl HybridPolicy<'_> {
    fn push_local(&mut self, node: TreeNode, counters: &mut BlockCounters) {
        self.stack.push(node).unwrap_or_else(|_| {
            panic!("stack depth bound violated (bound {})", self.stack.bound())
        });
        counters.max_stack_depth = counters.max_stack_depth.max(self.stack.len() as u64);
    }
}
