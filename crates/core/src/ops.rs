//! Block-cooperative graph operations with cost accounting (§IV-B).
//!
//! On the GPU every operation on the intermediate graph is executed
//! cooperatively by the block's threads: a reduction tree finds the
//! max-degree vertex, neighborhood updates are spread across threads.
//! [`Kernel`] bundles what those operations need — the immutable CSR
//! graph and the "hardware" context (cost model, block size, kernel
//! variant) — and charges model cycles to the right Figure 6 activity as
//! it goes.

use parvc_graph::{CsrGraph, VertexId};
use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::exec::{ParallelExecutor, SERIAL};
use parvc_simgpu::{CostModel, KernelVariant};

use crate::extensions::Extensions;

/// Execution context for one thread block: the shared original graph
/// plus the cost-model parameters of the launch.
#[derive(Clone, Copy)]
pub struct Kernel<'a> {
    /// The immutable original graph (single copy, all blocks).
    pub graph: &'a CsrGraph,
    /// Cycle prices.
    pub cost: &'a CostModel,
    /// Threads per block (`B` in `ceil(n/B)`).
    pub block_size: u32,
    /// Where the working node lives (shared vs global memory).
    pub variant: KernelVariant,
    /// Optional pruning/reduction extensions (off = paper-faithful).
    pub ext: Extensions,
    /// How intra-block flat passes actually execute. Purely a
    /// wall-clock knob: charges and results are executor-invariant
    /// (see `parvc_simgpu::exec`).
    pub exec: &'a dyn ParallelExecutor,
    /// Telemetry sink ([`parvc_obs::NOOP`] by default). Observation
    /// only: results, charges, and counters are sink-invariant.
    pub sink: &'a dyn parvc_obs::Sink,
    /// Wall-clock progress heartbeat, ticked once per tree node
    /// (`None` = off).
    pub progress: Option<&'a crate::progress::Heartbeat>,
    /// The wall-lane telemetry track this block's spans record on:
    /// `b + 1` for block `b` of a launch, and the caller's choice for
    /// an inline search (1 by default).
    pub track: u32,
}

impl<'a> Kernel<'a> {
    /// A kernel context for single-thread execution (the Sequential
    /// baseline): `B = 1`, working state in CPU memory (charged at the
    /// shared-memory rate; sequential results are reported in wall time,
    /// the cycles are informational).
    pub fn sequential(graph: &'a CsrGraph, cost: &'a CostModel) -> Self {
        Kernel {
            graph,
            cost,
            block_size: 1,
            variant: KernelVariant::SharedMem,
            ext: Extensions::NONE,
            exec: &SERIAL,
            sink: &parvc_obs::NOOP,
            progress: None,
            track: 1,
        }
    }

    /// Finds the live vertex with maximum degree (smallest id wins
    /// ties), via a parallel reduction tree over the degree array.
    /// Returns `None` when no vertex is live.
    ///
    /// Two flat passes: a branch-free maximum, which the compiler
    /// vectorizes, then the first slot holding it. [`REMOVED`] is
    /// below every live degree, so a negative maximum means no live
    /// vertex.
    ///
    /// [`REMOVED`]: crate::REMOVED
    pub fn find_max_degree(
        &self,
        node: &crate::TreeNode,
        counters: &mut BlockCounters,
    ) -> Option<VertexId> {
        counters.charge(
            Activity::FindMaxDegree,
            self.cost
                .reduction_tree(node.len() as u64, self.block_size, self.variant),
        );
        let degrees = node.degrees();
        let max = degrees.iter().copied().fold(crate::REMOVED, i32::max);
        if max < 0 {
            return None;
        }
        degrees
            .iter()
            .position(|&d| d == max)
            .map(|v| v as VertexId)
    }

    /// Removes a single vertex into the cover (Figure 4 lines 27–28 when
    /// branching; also the mechanism of the high-degree and degree-one
    /// rules). One thread writes the sentinel; the neighbors'
    /// decrements are distributed across the block.
    pub fn remove_vertex(
        &self,
        node: &mut crate::TreeNode,
        v: VertexId,
        activity: Activity,
        counters: &mut BlockCounters,
    ) {
        let d = node.remove_into_cover(self.graph, v);
        counters.charge(
            activity,
            self.cost
                .parallel_op(d as u64 + 1, self.block_size, self.variant)
                + self.cost.atomic_op,
        );
    }

    /// Removes all live neighbors of `v` into the cover (Figure 4 lines
    /// 21–22), in ascending order. Each neighbor is handled by a thread
    /// that walks the neighbor's own adjacency to decrement degrees, so
    /// the charged work is `Σ (d + 1)` over the removed vertices'
    /// degrees at their removal.
    ///
    /// With [`AdjacencyRows`](parvc_graph::AdjacencyRows) the live
    /// neighbors come a mask word at a time. Removing one neighbor
    /// clears only its own live bit, so a word read before its first
    /// removal still lists the rest.
    pub fn remove_neighbors(
        &self,
        node: &mut crate::TreeNode,
        v: VertexId,
        activity: Activity,
        counters: &mut BlockCounters,
    ) {
        let mut updates = 0u64;
        match self.graph.adjacency_rows() {
            Some(rows) => {
                for (i, &r) in rows.row(v).iter().enumerate() {
                    let mut bits = r & node.live_word(i);
                    while bits != 0 {
                        let u = (i * 64) as VertexId + bits.trailing_zeros();
                        bits &= bits - 1;
                        updates += node.remove_into_cover(self.graph, u) as u64 + 1;
                    }
                }
            }
            None => {
                for &u in self.graph.neighbors(v) {
                    if !node.is_removed(u) {
                        updates += node.remove_into_cover(self.graph, u) as u64 + 1;
                    }
                }
            }
        }
        counters.charge(
            activity,
            self.cost
                .parallel_op(updates, self.block_size, self.variant)
                + self.cost.atomic_op,
        );
    }

    /// Charges the cost of moving a node between the working area and a
    /// stack/worklist slot.
    pub fn charge_node_copy(
        &self,
        node_len: u32,
        activity: Activity,
        counters: &mut BlockCounters,
    ) {
        counters.charge(
            activity,
            self.cost.node_copy(node_len, self.block_size, self.variant),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeNode;
    use parvc_graph::gen;

    fn kernel<'a>(g: &'a CsrGraph, cost: &'a CostModel) -> Kernel<'a> {
        Kernel {
            block_size: 32,
            ..Kernel::sequential(g, cost)
        }
    }

    #[test]
    fn find_max_prefers_smallest_id_on_tie() {
        let g = gen::cycle(6); // all degree 2
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        assert_eq!(k.find_max_degree(&node, &mut c), Some(0));
        assert!(c.cycles(Activity::FindMaxDegree) > 0);
    }

    #[test]
    fn find_max_skips_removed() {
        let g = gen::star(4);
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let mut node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        k.remove_vertex(&mut node, 0, Activity::RemoveMaxVertex, &mut c);
        // Only leaves remain, all isolated now.
        let v = k.find_max_degree(&node, &mut c).unwrap();
        assert_ne!(v, 0);
        assert_eq!(node.degree(v), 0);
    }

    /// The two-pass fold against a naive scan on random partial covers,
    /// up to covers of every vertex: ties go to the smallest id, an
    /// edgeless live vertex is still returned, and no live vertex
    /// gives `None`.
    #[test]
    fn find_max_matches_a_naive_scan() {
        let cost = CostModel::default();
        let mut c = BlockCounters::new(0);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut seen = [false; 3];
        for seed in 0..40u64 {
            let n = 1 + (seed % 17) as u32;
            let g = gen::gnp(n, [0.15, 0.4, 0.8][seed as usize % 3], seed);
            let k = kernel(&g, &cost);
            for keep in [3u64, 2, 1, 0] {
                let mut node = TreeNode::root(&g);
                for v in 0..n {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 4 >= keep {
                        node.remove_into_cover(&g, v);
                    }
                }
                let mut naive: Option<(i32, u32)> = None;
                for v in (0..n).filter(|&v| !node.is_removed(v)) {
                    if naive.is_none_or(|(d, _)| node.degree(v) > d) {
                        naive = Some((node.degree(v), v));
                    }
                }
                let got = k.find_max_degree(&node, &mut c);
                assert_eq!(got, naive.map(|(_, v)| v), "seed {seed} keep {keep}");
                seen[match naive {
                    None => 0,
                    Some((0, _)) => 1,
                    Some(_) => 2,
                }] = true;
            }
        }
        assert_eq!(seen, [true; 3], "none / edgeless / live edges");
    }

    #[test]
    fn find_max_none_on_empty_graph() {
        let g = CsrGraph::from_edges(0, &[]).unwrap();
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        assert_eq!(k.find_max_degree(&node, &mut c), None);
    }

    #[test]
    fn remove_neighbors_covers_all_incident_edges() {
        let g = gen::paper_example();
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let mut node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        k.remove_neighbors(&mut node, 2, Activity::RemoveNeighbors, &mut c);
        // N(c) = {a, b, d, e}: all removed, graph edgeless, c isolated.
        assert_eq!(node.cover_size(), 4);
        assert!(node.is_edgeless());
        assert_eq!(node.degree(2), 0);
        node.check_consistency(&g).unwrap();
        assert!(c.cycles(Activity::RemoveNeighbors) > 0);
    }

    #[test]
    fn remove_neighbors_skips_already_removed() {
        let g = gen::path(4); // 0-1-2-3
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let mut node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        k.remove_vertex(&mut node, 1, Activity::RemoveMaxVertex, &mut c);
        k.remove_neighbors(&mut node, 2, Activity::RemoveNeighbors, &mut c);
        // N(2) = {1 (already removed), 3}: only 3 joins.
        assert_eq!(node.cover_size(), 2);
        assert!(node.is_edgeless());
        node.check_consistency(&g).unwrap();
    }

    /// On both sides of the row threshold and on random partial
    /// covers, removing a live vertex's neighbors leaves the degree
    /// array a naive CSR walk leaves, and charges `Σ (d + 1)` over the
    /// neighbors' degrees at their removal.
    #[test]
    fn remove_neighbors_matches_a_csr_walk_on_both_sides_of_the_threshold() {
        let cost = CostModel::default();
        for (i, g) in crate::node::testing::graphs().iter().enumerate() {
            let k = Kernel::sequential(g, &cost);
            for node in crate::node::testing::partial_covers(g, i as u64) {
                for v in g.vertices().filter(|&v| !node.is_removed(v)) {
                    let mut degrees = node.degrees().to_vec();
                    let mut updates = 0u64;
                    for &u in g.neighbors(v) {
                        if degrees[u as usize] == crate::REMOVED {
                            continue;
                        }
                        updates += degrees[u as usize] as u64 + 1;
                        degrees[u as usize] = crate::REMOVED;
                        for &x in g.neighbors(u) {
                            if degrees[x as usize] != crate::REMOVED {
                                degrees[x as usize] -= 1;
                            }
                        }
                    }
                    let mut got = node.clone();
                    let mut c = BlockCounters::new(0);
                    k.remove_neighbors(&mut got, v, Activity::RemoveNeighbors, &mut c);
                    let ctx = format!("graph {i}, vertex {v}");
                    assert_eq!(got.degrees(), &degrees[..], "{ctx}");
                    let charge = cost.parallel_op(updates, 1, k.variant) + cost.atomic_op;
                    assert_eq!(c.cycles(Activity::RemoveNeighbors), charge, "{ctx}");
                    got.check_consistency(g).unwrap();
                }
            }
        }
    }

    #[test]
    fn wider_blocks_charge_fewer_cycles() {
        let g = gen::complete(64);
        let cost = CostModel::default();
        let node = TreeNode::root(&g);
        let mut narrow = BlockCounters::new(0);
        let mut wide = BlockCounters::new(1);
        Kernel {
            block_size: 32,
            ..Kernel::sequential(&g, &cost)
        }
        .find_max_degree(&node, &mut narrow);
        Kernel {
            block_size: 512,
            ..Kernel::sequential(&g, &cost)
        }
        .find_max_degree(&node, &mut wide);
        assert!(
            narrow.cycles(Activity::FindMaxDegree) > wide.cycles(Activity::FindMaxDegree) / 2,
            "reduction-tree log term keeps wide blocks from being free"
        );
    }
}
