//! The model-cycle cost model for intra-block parallel primitives.
//!
//! A GPU thread block executes the paper's graph operations
//! cooperatively: all `B` threads scan slices of the degree array,
//! reduction trees find the max-degree vertex, neighborhoods are
//! decremented in parallel. We charge those costs instead of spawning
//! `B` threads per block: an operation touching `n` items takes
//! `ceil(n/B)` *parallel steps*, each step costing one compute unit plus
//! one memory access whose price depends on where the working node lives
//! (shared vs global — the two kernel variants of §IV-E).
//!
//! The constants are deliberately round numbers: the reproduction
//! targets relative shape (which activities dominate, how load spreads),
//! not absolute V100 latencies.

use crate::occupancy::KernelVariant;

/// Cycle prices for the primitive operations of the traversal kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Compute cost of one parallel step (per `B`-thread wavefront).
    pub step: u64,
    /// Cost of a block-wide barrier (`__syncthreads()`).
    pub sync: u64,
    /// Per-step access cost when the working node is in shared memory.
    pub shared_access: u64,
    /// Per-step access cost when the working node is in global memory.
    pub global_access: u64,
    /// Cost of one worklist/queue operation (atomics + slot traffic).
    pub queue_op: u64,
    /// Cost of a single global atomic (e.g. updating `best`).
    pub atomic_op: u64,
    /// Cycles charged per `POLL_SLEEP` interval a starved block waits
    /// in the §IV-C wait loop. A wait is counted in whole intervals,
    /// rounded up, so one cut short by a donation costs one.
    pub poll_sleep: u64,
    /// Cost of copying one intermediate graph (stack push/pop moves a
    /// degree array between the working area and the stack), per vertex.
    pub copy_per_vertex_milli: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            step: 4,
            sync: 8,
            shared_access: 2,
            global_access: 12,
            queue_op: 64,
            atomic_op: 16,
            poll_sleep: 512,
            copy_per_vertex_milli: 500, // 0.5 cycles/vertex: wide coalesced copy
        }
    }
}

impl CostModel {
    /// Cycles for a cooperative operation over `items` elements with
    /// `block_size` threads: `ceil(items/B)` steps plus one barrier.
    pub fn parallel_op(&self, items: u64, block_size: u32, variant: KernelVariant) -> u64 {
        let waves = items.div_ceil(block_size.max(1) as u64);
        waves * (self.step + self.access(variant)) + self.sync
    }

    /// Cycles for a reduction tree over `items` elements (find-max,
    /// count): `ceil(log2)` extra barrier rounds after the scan.
    pub fn reduction_tree(&self, items: u64, block_size: u32, variant: KernelVariant) -> u64 {
        let levels = 64 - u64::leading_zeros(block_size.max(2) as u64 - 1) as u64;
        self.parallel_op(items, block_size, variant) + levels * (self.step + self.sync)
    }

    /// Cycles to move one intermediate graph of `num_vertices` between
    /// the working area and a stack slot.
    pub fn node_copy(&self, num_vertices: u32, block_size: u32, variant: KernelVariant) -> u64 {
        let copy = (num_vertices as u64 * self.copy_per_vertex_milli) / 1000;
        copy.max(1) + self.parallel_op(num_vertices as u64, block_size, variant) / 4
    }

    /// Per-step memory access price for a variant.
    #[inline]
    pub fn access(&self, variant: KernelVariant) -> u64 {
        match variant {
            KernelVariant::SharedMem => self.shared_access,
            KernelVariant::GlobalMem => self.global_access,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_op_scales_with_items_and_block() {
        let m = CostModel::default();
        let small = m.parallel_op(100, 128, KernelVariant::SharedMem);
        let large = m.parallel_op(1000, 128, KernelVariant::SharedMem);
        assert!(large > small);
        let wide = m.parallel_op(1000, 1024, KernelVariant::SharedMem);
        assert!(wide < large, "more threads must reduce cycles");
    }

    #[test]
    fn global_variant_costs_more() {
        let m = CostModel::default();
        assert!(
            m.parallel_op(500, 128, KernelVariant::GlobalMem)
                > m.parallel_op(500, 128, KernelVariant::SharedMem)
        );
    }

    #[test]
    fn reduction_tree_adds_log_rounds() {
        let m = CostModel::default();
        let flat = m.parallel_op(256, 256, KernelVariant::SharedMem);
        let tree = m.reduction_tree(256, 256, KernelVariant::SharedMem);
        assert!(tree > flat);
    }

    #[test]
    fn zero_items_still_costs_a_sync() {
        let m = CostModel::default();
        assert_eq!(m.parallel_op(0, 128, KernelVariant::SharedMem), m.sync);
    }

    #[test]
    fn node_copy_positive() {
        let m = CostModel::default();
        assert!(m.node_copy(1, 32, KernelVariant::SharedMem) >= 1);
        assert!(
            m.node_copy(10_000, 256, KernelVariant::GlobalMem)
                > m.node_copy(100, 256, KernelVariant::GlobalMem)
        );
    }
}
