//! Optional solver extensions beyond the paper's three rules.
//!
//! The paper's related work (Akiba & Iwata \[38\], the PACE solvers \[37\])
//! builds on richer reduction/pruning portfolios. One classic piece
//! that fits the degree-array representation (it never merges
//! vertices) is implemented here behind an [`Extensions`] flag:
//!
//! * **Matching lower bound** — a maximal matching of the intermediate
//!   graph needs one cover vertex per edge, so
//!   `|S| + |M| ≥` any completion; prune when that already meets the
//!   bound. Strictly stronger than the paper's edge-count test on
//!   sparse residuals.
//!
//! The bound is not charged to the Figure 6 activity accounting — it
//! is deliberately outside the paper's instrumentation so the
//! reproduced breakdown stays comparable.

use crate::bound::SearchBound;
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::split::SplitParams;
use crate::TreeNode;

/// Optional pruning/reduction extensions (all off by default — the
/// paper-faithful configuration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extensions {
    /// Prune with a greedy maximal-matching lower bound.
    pub matching_lower_bound: bool,
    /// Re-split the search at tree nodes whose residual graph has
    /// disconnected (see [`crate::split`]). `None` = off.
    ///
    /// Not part of [`Extensions::ALL`]: the matching bound
    /// strengthens every node the same way, while component branching
    /// changes the search-tree *shape* and is toggled separately (via
    /// [`SolverBuilder::component_branching`](crate::SolverBuilder::component_branching)
    /// or the `ComponentSteal` policy).
    pub component_branching: Option<SplitParams>,
    /// Which algorithm produces the initial upper bounds — the solve
    /// launch seed and `split`'s per-component sub-instance budgets
    /// (see [`crate::approx`]). Not part of [`Extensions::ALL`]:
    /// seeding changes where the search *starts*, not how nodes are
    /// strengthened.
    pub seed_strategy: crate::approx::SeedStrategy,
}

impl Extensions {
    /// The paper-faithful configuration (no extensions).
    pub const NONE: Extensions = Extensions {
        matching_lower_bound: false,
        component_branching: None,
        seed_strategy: crate::approx::SeedStrategy::Greedy,
    };

    /// The pruning extension on: the matching lower bound (component
    /// branching stays a separate toggle — see
    /// [`Extensions::component_branching`]).
    pub const ALL: Extensions = Extensions {
        matching_lower_bound: true,
        component_branching: None,
        seed_strategy: crate::approx::SeedStrategy::Greedy,
    };
}

impl<'a> Kernel<'a> {
    /// The stopping condition, strengthened by the matching lower bound
    /// when enabled. Replaces bare `bound.prune(node)` in the traversal
    /// loops.
    /// `scratch` provides the bound phase's endpoint flags (reused
    /// across nodes — no allocation on the hot path).
    pub fn prune(&self, node: &TreeNode, bound: SearchBound, scratch: &mut BlockScratch) -> bool {
        if bound.prune(node) {
            return true;
        }
        if self.ext.matching_lower_bound && !node.is_edgeless() {
            return match bound {
                SearchBound::Mvc { best } => {
                    node.cover_size() as u64 + self.residual_matching_bound(node, scratch)
                        >= best as u64
                }
                // Weight units: each matched edge needs a cover vertex
                // costing at least its cheaper endpoint, and matched
                // edges are disjoint, so the minima sum.
                SearchBound::WeightedMvc { best } => {
                    node.cover_weight()
                        .saturating_add(self.residual_weighted_matching_bound(node, scratch))
                        >= best
                }
                SearchBound::Pvc { k } => {
                    node.cover_size() as u64 + self.residual_matching_bound(node, scratch)
                        > k as u64
                }
            };
        }
        false
    }

    /// Size of a greedy maximal matching of the intermediate graph —
    /// every completion of `S` needs at least this many more vertices.
    pub fn residual_matching_bound(&self, node: &TreeNode, scratch: &mut BlockScratch) -> u64 {
        let matched = scratch.matched_for(node.len() as usize);
        let mut size = 0u64;
        for u in 0..node.len() {
            if matched[u as usize] || node.degree(u) <= 0 {
                continue;
            }
            for &v in self.graph.neighbors(u) {
                if v > u && !matched[v as usize] && !node.is_removed(v) {
                    matched[u as usize] = true;
                    matched[v as usize] = true;
                    size += 1;
                    break;
                }
            }
        }
        size
    }

    /// Weighted analogue of
    /// [`residual_matching_bound`](Self::residual_matching_bound):
    /// every completion of `S` pays
    /// at least the cheaper endpoint of each greedily matched residual
    /// edge (see [`parvc_graph::matching::min_weight_matching_bound`]).
    pub fn residual_weighted_matching_bound(
        &self,
        node: &TreeNode,
        scratch: &mut BlockScratch,
    ) -> u64 {
        let matched = scratch.matched_for(node.len() as usize);
        let mut weight = 0u64;
        for u in 0..node.len() {
            if matched[u as usize] || node.degree(u) <= 0 {
                continue;
            }
            for &v in self.graph.neighbors(u) {
                if v > u && !matched[v as usize] && !node.is_removed(v) {
                    matched[u as usize] = true;
                    matched[v as usize] = true;
                    weight += self.graph.weight(u).min(self.graph.weight(v));
                    break;
                }
            }
        }
        weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::{gen, CsrGraph};
    use parvc_simgpu::CostModel;

    fn kernel<'a>(g: &'a CsrGraph, cost: &'a CostModel, ext: Extensions) -> Kernel<'a> {
        Kernel {
            block_size: 32,
            ext,
            ..Kernel::sequential(g, cost)
        }
    }

    #[test]
    fn matching_bound_on_known_graphs() {
        let cost = CostModel::default();
        // A perfect matching on C6 has 3 edges → bound 3 (= MVC).
        let c6 = gen::cycle(6);
        let mut scratch = BlockScratch::new();
        let k = kernel(&c6, &cost, Extensions::NONE);
        assert_eq!(
            k.residual_matching_bound(&TreeNode::root(&c6), &mut scratch),
            3
        );
        // Star: one matched edge regardless of leaves.
        let star = gen::star(9);
        let k = kernel(&star, &cost, Extensions::NONE);
        assert_eq!(
            k.residual_matching_bound(&TreeNode::root(&star), &mut scratch),
            1
        );
    }

    #[test]
    fn matching_bound_respects_removals() {
        let g = gen::path(5); // 0-1-2-3-4
        let cost = CostModel::default();
        let k = kernel(&g, &cost, Extensions::NONE);
        let mut node = TreeNode::root(&g);
        node.remove_into_cover(&g, 2); // splits into two disjoint edges
        assert_eq!(
            k.residual_matching_bound(&node, &mut BlockScratch::new()),
            2
        );
    }

    #[test]
    fn matching_prune_is_stronger_than_edge_count() {
        // A perfect matching on 12 vertices: 6 edges. The paper's edge
        // test with best=4 allows (4-0-1)²=9 ≥ 6 edges → no prune; the
        // matching bound sees 6 ≥ 4 → prune.
        let edges: Vec<(u32, u32)> = (0..6).map(|i| (2 * i, 2 * i + 1)).collect();
        let g = CsrGraph::from_edges(12, &edges).unwrap();
        let cost = CostModel::default();
        let node = TreeNode::root(&g);
        let bound = SearchBound::Mvc { best: 4 };
        assert!(!bound.prune(&node), "edge-count test must not fire");
        let k = kernel(
            &g,
            &cost,
            Extensions {
                matching_lower_bound: true,
                ..Extensions::NONE
            },
        );
        assert!(
            k.prune(&node, bound, &mut BlockScratch::new()),
            "matching bound must fire"
        );
    }
}
