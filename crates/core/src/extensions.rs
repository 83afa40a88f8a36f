//! Solver extensions beyond the paper's three rules.
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
//!   sparse residuals. On by default ([`Extensions::default`]);
//!   [`Extensions::NONE`] is the paper's bounds alone.
//!
//! The greedy matching costs a scan of the residual, so it is skipped
//! at nodes where it cannot fire: a matching has at most
//! `min(|E'|, ⌊(|V| − |S|) / 2⌋)` edges, and when `|S|` plus that many
//! still misses the bound, the scan would not prune either. The skip
//! changes no answer, tree or counter.
//!
//! The bound is not charged to the Figure 6 activity accounting — it
//! is deliberately outside the paper's instrumentation so the
//! reproduced breakdown stays comparable.

use crate::bound::SearchBound;
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::split::SplitParams;
use crate::TreeNode;

/// Pruning and search extensions beyond the paper's rules. The default
/// turns the matching lower bound on; [`Extensions::NONE`] is the
/// paper-faithful configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extensions {
    /// Prune with a greedy maximal-matching lower bound.
    pub matching_lower_bound: bool,
    /// Re-split the search at tree nodes whose residual graph has
    /// disconnected (see [`crate::split`]). `None` = off.
    ///
    /// Off in both [`Extensions::NONE`] and the default: the matching
    /// bound strengthens every node the same way, while component
    /// branching changes the search-tree *shape* and is toggled
    /// separately (via
    /// [`SolverBuilder::component_branching`](crate::SolverBuilder::component_branching)
    /// or the `ComponentSteal` policy).
    pub component_branching: Option<SplitParams>,
    /// Which algorithm produces the initial upper bounds — the solve
    /// launch seed and `split`'s per-component sub-instance budgets
    /// (see [`crate::approx`]). Greedy in both [`Extensions::NONE`] and
    /// the default: seeding changes where the search *starts*, not how
    /// nodes are strengthened.
    pub seed_strategy: crate::approx::SeedStrategy,
}

impl Extensions {
    /// The paper-faithful configuration (no extensions).
    pub const NONE: Extensions = Extensions {
        matching_lower_bound: false,
        component_branching: None,
        seed_strategy: crate::approx::SeedStrategy::Greedy,
    };
}

impl Default for Extensions {
    /// The paper's rules plus the matching lower bound.
    fn default() -> Self {
        Extensions {
            matching_lower_bound: true,
            ..Extensions::NONE
        }
    }
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
        if !self.ext.matching_lower_bound || node.is_edgeless() {
            return false;
        }
        // The matching size that proves the node hopeless. `bound.prune`
        // passed, so the budgets below do not underflow.
        let need = match bound {
            SearchBound::Mvc { best } => u64::from(best - node.cover_size()),
            SearchBound::Pvc { k } => u64::from(k - node.cover_size()) + 1,
            // Weight units: each matched edge needs a cover vertex
            // costing at least its cheaper endpoint, and matched edges
            // are disjoint, so the minima sum. A cardinality cap does not
            // bound that sum, so weighted mode always scans.
            SearchBound::WeightedMvc { best } => {
                return node
                    .cover_weight()
                    .saturating_add(self.residual_weighted_matching_bound(node, scratch))
                    >= best;
            }
        };
        // A matching has at most one edge per live edge and one per two
        // vertices outside the cover. Below `need`, the scan cannot fire.
        let cap = node
            .num_edges()
            .min(u64::from(node.len() - node.cover_size()) / 2);
        cap >= need && self.residual_matching_bound(node, scratch) >= need
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
        let k = kernel(&g, &cost, Extensions::default());
        assert!(
            k.prune(&node, bound, &mut BlockScratch::new()),
            "matching bound must fire"
        );
    }

    /// `prune` skips the scan where it cannot fire; on random graphs,
    /// random partial covers and every MVC `best` and PVC `k` up to
    /// `|V| + 1`, its verdict must equal the unconditional check.
    #[test]
    fn skipping_the_scan_never_changes_the_verdict() {
        let cost = CostModel::default();
        let mut scratch = BlockScratch::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut coin = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.is_multiple_of(3)
        };
        let mut verdicts = [0u32; 2];
        for seed in 0..60u64 {
            let n = 2 + (seed % 23) as u32;
            let g = gen::gnp(n, [0.1, 0.3, 0.7][seed as usize % 3], seed);
            let k = kernel(&g, &cost, Extensions::default());
            for _ in 0..6 {
                let mut node = TreeNode::root(&g);
                for v in 0..n {
                    if coin() {
                        node.remove_into_cover(&g, v);
                    }
                }
                let cover = u64::from(node.cover_size());
                let matching = k.residual_matching_bound(&node, &mut scratch);
                for t in 0..=n + 1 {
                    let mvc = SearchBound::Mvc { best: t };
                    let mvc_want = mvc.prune(&node) || cover + matching >= u64::from(t);
                    assert_eq!(k.prune(&node, mvc, &mut scratch), mvc_want, "{mvc:?}");
                    let pvc = SearchBound::Pvc { k: t };
                    let pvc_want = pvc.prune(&node) || cover + matching > u64::from(t);
                    assert_eq!(k.prune(&node, pvc, &mut scratch), pvc_want, "{pvc:?}");
                    if !mvc.prune(&node) {
                        verdicts[usize::from(mvc_want)] += 1;
                    }
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "{verdicts:?}");
    }
}
