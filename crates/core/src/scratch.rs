//! Per-block scratch: the per-phase delta buffers of the phase-split
//! engine.
//!
//! Node processing is organized as flat passes over the immutable CSR
//! adjacency (see `ARCHITECTURE.md` § "The phase contract"): a
//! *classify* pass gathers candidate vertices into a delta buffer, an
//! *apply* pass walks that buffer serially in ascending id (the §IV-D
//! tie-break), a *bound* pass scans the residual. None of those passes
//! owns hidden mutable state — everything they write between phases
//! lives here, allocated once per block and reused across rounds,
//! tree nodes, and nested sub-searches, so the hot loop stays
//! allocation-free after warm-up.

use parvc_simgpu::exec::ChunkSlots;

use crate::TreeNode;

/// The reusable per-block buffers of the phase-split passes.
///
/// One instance per block thread (and one per nested sub-search
/// context); never shared across threads, only the per-chunk `slots`
/// interior is touched by pool workers during a dispatched pass.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Classify-phase delta buffer: the vertex ids the flat scan
    /// gathered, consumed in ascending order by the apply phase.
    pub candidates: Vec<u32>,
    /// Per-chunk gather slots for pooled classify passes.
    pub slots: ChunkSlots,
    /// Bound-phase mask of the live vertices the greedy matching has
    /// not matched yet, laid out like the node's live mask.
    pub free: Vec<u64>,
    /// Bound-phase residual vertex capacities for the weighted bound's
    /// edge packing.
    pub residual: Vec<u64>,
}

impl BlockScratch {
    /// Fresh, empty scratch; buffers grow to instance size on first
    /// use and are retained afterwards.
    pub fn new() -> Self {
        BlockScratch::default()
    }

    /// `free` holding `node`'s live mask, without reallocation after
    /// the first call at a given size: the greedy matching's start.
    pub fn free_for(&mut self, node: &TreeNode) -> &mut [u64] {
        self.free.clear();
        self.free.extend(node.live_words());
        &mut self.free
    }

    /// `free` as [`free_for`](Self::free_for) leaves it, and `residual`
    /// holding the vertex weights (all 1 when `weights` is `None`): the
    /// state the weighted bound's packing starts from.
    pub fn packing_for(
        &mut self,
        node: &TreeNode,
        weights: Option<&[u64]>,
    ) -> (&mut [u64], &mut [u64]) {
        self.free_for(node);
        self.residual.clear();
        match weights {
            Some(w) => self.residual.extend_from_slice(w),
            None => self.residual.resize(node.len() as usize, 1),
        }
        (&mut self.free, &mut self.residual)
    }
}
