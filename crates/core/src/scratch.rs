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
    /// Bound-phase endpoint flags for the residual matching bound.
    pub matched: Vec<bool>,
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

    /// `matched`, cleared and sized to `n` without reallocation after
    /// the first call at a given size.
    pub fn matched_for(&mut self, n: usize) -> &mut Vec<bool> {
        self.matched.clear();
        self.matched.resize(n, false);
        &mut self.matched
    }

    /// `matched` as [`matched_for`](Self::matched_for) leaves it, and
    /// `residual` holding the `n` vertex weights (all 1 when `weights`
    /// is `None`): the state the weighted bound's packing starts from.
    pub fn packing_for(&mut self, n: usize, weights: Option<&[u64]>) -> (&mut [bool], &mut [u64]) {
        self.matched_for(n);
        self.residual.clear();
        match weights {
            Some(w) => self.residual.extend_from_slice(w),
            None => self.residual.resize(n, 1),
        }
        (&mut self.matched, &mut self.residual)
    }
}
