//! The reduction rules (§II-B) with the paper's parallel-round conflict
//! resolution (§IV-D).
//!
//! On the GPU all threads of a block scan the degree array
//! simultaneously; the races the paper enumerates — two adjacent
//! degree-one vertices, two degree-two vertices in the same triangle, a
//! neighbor shared by several rule applications — are resolved by
//! "smaller vertex id wins / remove only once". We reproduce those exact
//! semantics deterministically: each *round* snapshots the eligible
//! vertices, then applies them in ascending id with a liveness/degree
//! recheck. A vertex invalidated by an earlier (smaller-id) application
//! is skipped, which is precisely the paper's tie-break.

use parvc_graph::VertexId;
use parvc_simgpu::counters::{Activity, BlockCounters};
use parvc_simgpu::exec::gather_indices;

use crate::bound::SearchBound;
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::TreeNode;

/// Statistics from one `reduce` fixpoint (how much each rule fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Vertices covered by the degree-one rule.
    pub degree_one: u64,
    /// Vertices covered by the degree-two-triangle rule.
    pub degree_two_triangle: u64,
    /// Vertices covered by the high-degree rule.
    pub high_degree: u64,
    /// Fixpoint iterations of the outer loop.
    pub rounds: u32,
}

impl<'a> Kernel<'a> {
    /// Applies all three rules until the graph stops changing
    /// (Figure 1's `reduce`, lines 14–30). Mutates `node` in place.
    /// Each round is phase-split: a flat **classify** pass over the
    /// degree array gathers the eligible vertices into
    /// `scratch.candidates` (executed through the kernel's
    /// [`ParallelExecutor`](parvc_simgpu::exec::ParallelExecutor) —
    /// this is the reduce-fixpoint degree scan, the hottest flat pass
    /// in the engine), then a serial **apply** pass walks the buffer
    /// in ascending id with the liveness recheck. A round whose rule
    /// no vertex qualifies for ends after one fold over the degree
    /// array, before the gather. `scratch` holds the per-block delta
    /// buffers, reused across rounds and tree nodes.
    pub fn reduce(
        &self,
        node: &mut TreeNode,
        bound: SearchBound,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
    ) -> ReduceStats {
        let mut stats = ReduceStats::default();
        loop {
            stats.rounds += 1;
            let mut changed = false;
            // Figure 1 applies each rule to ITS OWN fixpoint before the
            // next (the inner `while ∃v` loops), then repeats all three
            // while anything changed.
            while self.degree_one_round(node, bound, scratch, counters, &mut stats) {
                changed = true;
            }
            while self.degree_two_triangle_round(node, bound, scratch, counters, &mut stats) {
                changed = true;
            }
            while self.high_degree_round(node, bound, scratch, counters, &mut stats) {
                changed = true;
            }
            if !changed {
                return stats;
            }
        }
    }

    /// One parallel round of the degree-one rule: for a degree-one
    /// vertex `v` with neighbor `u`, taking `u` is never worse than
    /// taking `v`. Returns whether anything changed.
    ///
    /// **Weighted gate**: the swap argument (`u` covers a superset of
    /// `v`'s edges) only bounds the cover weight when `w(u) ≤ w(v)`;
    /// a weighted search skips applications that fail that test — the
    /// leaf may genuinely be the cheaper endpoint (a weight-1 leaf on
    /// a weight-100 hub belongs in the optimum).
    fn degree_one_round(
        &self,
        node: &mut TreeNode,
        bound: SearchBound,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
        stats: &mut ReduceStats,
    ) -> bool {
        // Classify: all threads scan the degree array for d(v) == 1
        // (one wave, chunked across the executor).
        counters.charge(
            Activity::DegreeOneRule,
            self.cost
                .parallel_op(node.len() as u64, self.block_size, self.variant),
        );
        if !any_degree(node, |d| d == 1) {
            return false;
        }
        gather_indices(
            self.exec,
            node.len() as usize,
            &|v| node.degree(v) == 1,
            &mut scratch.slots,
            &mut scratch.candidates,
        );
        let mut changed = false;
        // Apply: ascending id with recheck (the §IV-D tie-break).
        for &v in &scratch.candidates {
            // Recheck: an earlier (smaller-id) application may have
            // removed v's neighbor or v itself — the §IV-D tie-break.
            if node.degree(v) != 1 {
                continue;
            }
            let u = node
                .live_neighbor(self.graph, v)
                .expect("degree-one vertex has a live neighbor");
            if bound.is_weighted() && self.graph.weight(u) > self.graph.weight(v) {
                continue;
            }
            self.remove_vertex(node, u, Activity::DegreeOneRule, counters);
            stats.degree_one += 1;
            changed = true;
        }
        changed
    }

    /// One parallel round of the degree-two-triangle rule: if
    /// `N(v) = {u, w}` and `uw ∈ E`, two of the triangle's vertices must
    /// be covered and `{u, w}` is never worse. Returns whether anything
    /// changed.
    ///
    /// **Weighted gate**: swapping `v` out for whichever of `{u, w}` a
    /// cover is missing only bounds the weight when both partners cost
    /// at most `w(v)`; a weighted search skips the rest.
    fn degree_two_triangle_round(
        &self,
        node: &mut TreeNode,
        bound: SearchBound,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
        stats: &mut ReduceStats,
    ) -> bool {
        counters.charge(
            Activity::DegreeTwoTriangleRule,
            self.cost
                .parallel_op(node.len() as u64, self.block_size, self.variant),
        );
        if !any_degree(node, |d| d == 2) {
            return false;
        }
        gather_indices(
            self.exec,
            node.len() as usize,
            &|v| node.degree(v) == 2,
            &mut scratch.slots,
            &mut scratch.candidates,
        );
        let mut changed = false;
        for &v in &scratch.candidates {
            if node.degree(v) != 2 {
                continue;
            }
            let (u, w, adjacent) = self.degree_two_pair(node, v);
            counters.charge(
                Activity::DegreeTwoTriangleRule,
                self.cost.parallel_op(1, self.block_size, self.variant),
            );
            if bound.is_weighted()
                && self.graph.weight(u).max(self.graph.weight(w)) > self.graph.weight(v)
            {
                continue;
            }
            if adjacent {
                self.remove_vertex(node, u, Activity::DegreeTwoTriangleRule, counters);
                self.remove_vertex(node, w, Activity::DegreeTwoTriangleRule, counters);
                stats.degree_two_triangle += 2;
                changed = true;
            }
        }
        changed
    }

    /// The live neighbors `u < w` of a degree-two vertex `v`, and
    /// whether `uw` is an edge. The test runs against the ORIGINAL
    /// graph: `u` and `w` are both live, so the edge survives iff it
    /// existed originally. It is a bit test on a graph with
    /// [`AdjacencyRows`](parvc_graph::AdjacencyRows), else a binary
    /// search of `u`'s CSR list.
    fn degree_two_pair(&self, node: &TreeNode, v: VertexId) -> (VertexId, VertexId, bool) {
        let mut live = node.live_neighbors(self.graph, v);
        let (Some(u), Some(w)) = (live.next(), live.next()) else {
            panic!("degree-two vertex {v} has two live neighbors");
        };
        let adjacent = match self.graph.adjacency_rows() {
            Some(rows) => rows.has_edge(u, w),
            None => self.graph.has_edge(u, w),
        };
        (u, w, adjacent)
    }

    /// One parallel round of the high-degree rule: a live vertex whose
    /// degree exceeds the remaining cover budget can never be covered
    /// "from the other side" within the bound, so it joins the cover.
    /// Returns whether anything changed. Under a weighted bound the
    /// budget is in weight units, which only strengthens the argument:
    /// `d` forced neighbors cost at least `d` weight (each weight ≥ 1).
    ///
    /// When the budget is already negative the rule is skipped — the
    /// stopping condition prunes such nodes right after `reduce`
    /// (Figure 1 line 5), and a negative threshold would degenerate the
    /// rule into "remove everything".
    fn high_degree_round(
        &self,
        node: &mut TreeNode,
        bound: SearchBound,
        scratch: &mut BlockScratch,
        counters: &mut BlockCounters,
        stats: &mut ReduceStats,
    ) -> bool {
        counters.charge(
            Activity::HighDegreeRule,
            self.cost
                .parallel_op(node.len() as u64, self.block_size, self.variant),
        );
        let Some(threshold) = bound.high_degree_threshold(bound.node_cost(node)) else {
            return false;
        };
        // A threshold past every `i32` degree admits no vertex.
        let t = i32::try_from(threshold).unwrap_or(i32::MAX);
        if !any_degree(node, |d| d > t) {
            return false;
        }
        gather_indices(
            self.exec,
            node.len() as usize,
            &|v| node.degree(v) as i64 > threshold,
            &mut scratch.slots,
            &mut scratch.candidates,
        );
        let mut changed = false;
        for &v in &scratch.candidates {
            // The budget shrinks as the rule fires; recompute like the
            // serial `while ∃v s.t. d(v) > best − |S| − 1` does.
            let Some(threshold) = bound.high_degree_threshold(bound.node_cost(node)) else {
                break;
            };
            if node.degree(v) < 0 || (node.degree(v) as i64) <= threshold {
                continue;
            }
            self.remove_vertex(node, v, Activity::HighDegreeRule, counters);
            stats.high_degree += 1;
            changed = true;
        }
        changed
    }
}

/// Whether any slot of the degree array satisfies `pred`. A round
/// runs this before its gather so that a round with nothing to apply
/// skips it: one branch-free fold, which the compiler vectorizes,
/// against a gather that branches per vertex. The round's classify
/// charge covers it.
fn any_degree(node: &TreeNode, pred: impl Fn(i32) -> bool) -> bool {
    node.degrees().iter().fold(false, |any, &d| any | pred(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::{gen, CsrGraph};
    use parvc_simgpu::CostModel;

    fn run_reduce(g: &CsrGraph, bound: SearchBound) -> (TreeNode, ReduceStats) {
        let cost = CostModel::default();
        let k = Kernel {
            block_size: 32,
            ..Kernel::sequential(g, &cost)
        };
        let mut node = TreeNode::root(g);
        let mut c = BlockCounters::new(0);
        let stats = k.reduce(&mut node, bound, &mut BlockScratch::new(), &mut c);
        node.check_consistency(g).unwrap();
        (node, stats)
    }

    #[test]
    fn degree_one_solves_paths_completely() {
        // A path reduces to nothing by repeated degree-one application.
        let g = gen::path(10);
        let (node, stats) = run_reduce(&g, SearchBound::Mvc { best: u32::MAX });
        assert!(node.is_edgeless());
        assert_eq!(node.cover_size(), 5); // optimal for P10
        assert!(stats.degree_one >= 1);
    }

    #[test]
    fn degree_one_takes_the_neighbor_not_the_leaf() {
        let g = gen::star(6);
        let (node, _) = run_reduce(&g, SearchBound::Mvc { best: u32::MAX });
        assert!(node.is_removed(0), "the hub must join the cover");
        assert_eq!(node.cover_size(), 1);
        assert!(node.is_edgeless());
    }

    #[test]
    fn isolated_edge_covers_exactly_one_endpoint() {
        // Both endpoints are degree-one; §IV-D: only one application
        // fires (smaller id acts, removing its neighbor).
        let g = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let (node, stats) = run_reduce(&g, SearchBound::Mvc { best: u32::MAX });
        assert_eq!(node.cover_size(), 1);
        assert!(
            node.is_removed(1),
            "vertex 0 acts first, covering its neighbor 1"
        );
        assert!(!node.is_removed(0));
        assert_eq!(stats.degree_one, 1);
    }

    #[test]
    fn shared_neighbor_removed_once() {
        // Two leaves hanging off the same hub: one removal suffices.
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let (node, stats) = run_reduce(&g, SearchBound::Mvc { best: u32::MAX });
        assert_eq!(node.cover_size(), 1);
        assert!(node.is_removed(2));
        assert_eq!(stats.degree_one, 1);
    }

    #[test]
    fn triangle_rule_takes_the_two_outer_vertices() {
        // Triangle {0,1,2} where 0 has degree 2: rule covers {1, 2}.
        // Extra pendant edges off 1 and 2 keep their degrees at 3 so the
        // degree-one rule (on 3 and 4) fires first in a different shape;
        // build it so only the triangle rule applies initially.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)]).unwrap();
        // Degrees: 0:2, 1:3, 2:3, 3:2, 4:2 — no degree-one vertices.
        let (node, stats) = run_reduce(&g, SearchBound::Mvc { best: u32::MAX });
        assert!(node.is_edgeless());
        assert!(stats.degree_two_triangle >= 2);
        assert!(
            node.is_removed(1) && node.is_removed(2),
            "triangle partners of 0 join"
        );
    }

    #[test]
    fn two_triangle_vertices_conflict_resolved_by_id() {
        // K3: every vertex has degree 2 and all are in one triangle.
        // Only the smallest id (0) applies; its neighbors {1,2} join.
        let g = gen::complete(3);
        let (node, stats) = run_reduce(&g, SearchBound::Mvc { best: u32::MAX });
        assert_eq!(node.cover_size(), 2);
        assert!(node.is_removed(1) && node.is_removed(2));
        assert!(!node.is_removed(0));
        assert_eq!(stats.degree_two_triangle, 2);
    }

    #[test]
    fn high_degree_rule_fires_against_tight_bound() {
        // Star K_{1,5} with best = 3: hub degree 5 > 3-0-1 = 2 → hub
        // joins the cover immediately; graph becomes edgeless.
        let g = gen::star(6);
        let (node, stats) = run_reduce(&g, SearchBound::Mvc { best: 3 });
        assert!(node.is_removed(0));
        assert!(node.is_edgeless());
        // The degree-one rule may get there first (it also targets the
        // hub); accept either attribution but require the hub covered.
        assert!(stats.high_degree + stats.degree_one >= 1);
    }

    #[test]
    fn high_degree_skipped_when_budget_negative() {
        let g = gen::complete(4);
        let cost = CostModel::default();
        let k = Kernel {
            block_size: 32,
            ..Kernel::sequential(&g, &cost)
        };
        let mut node = TreeNode::root(&g);
        // Burn the budget: cover 2 vertices with best = 1.
        node.remove_into_cover(&g, 0);
        node.remove_into_cover(&g, 1);
        let mut c = BlockCounters::new(0);
        let before = node.cover_size();
        k.reduce(
            &mut node,
            SearchBound::Mvc { best: 1 },
            &mut BlockScratch::new(),
            &mut c,
        );
        // Remaining K2 on {2,3} triggers degree-one, but high-degree
        // must not mass-remove with a negative threshold.
        assert!(node.cover_size() <= before + 1);
    }

    #[test]
    fn reduction_preserves_optimal_cover_size() {
        // Safety of the rules: opt(G) = |S_reduce| + opt(G_reduced).
        // Verified by brute force on random graphs.
        for seed in 0..10 {
            let g = gen::gnp(12, 0.3, seed);
            let opt = crate::brute::brute_force_mvc(&g).0;
            let (node, _) = run_reduce(&g, SearchBound::Mvc { best: u32::MAX });
            let residual = residual_graph(&g, &node);
            let opt_rest = crate::brute::brute_force_mvc(&residual).0;
            assert_eq!(
                node.cover_size() + opt_rest,
                opt,
                "seed {seed}: reduction changed the optimum"
            );
        }
    }

    /// The intermediate graph as a standalone CSR (for oracle checks).
    fn residual_graph(g: &CsrGraph, node: &TreeNode) -> CsrGraph {
        let edges: Vec<(u32, u32)> = g
            .edges()
            .filter(|&(u, v)| !node.is_removed(u) && !node.is_removed(v))
            .collect();
        CsrGraph::from_edges(g.num_vertices(), &edges).unwrap()
    }

    /// On both sides of the row threshold and on random partial
    /// covers, every degree-two vertex's pair is its first two live
    /// CSR neighbors and the adjacency test is the CSR binary search.
    #[test]
    fn degree_two_pairs_match_a_csr_scan_on_both_sides_of_the_threshold() {
        let cost = CostModel::default();
        let mut seen = [[0u32; 2]; 2];
        for (i, g) in crate::node::testing::graphs().iter().enumerate() {
            let k = Kernel::sequential(g, &cost);
            for node in crate::node::testing::partial_covers(g, i as u64) {
                for v in g.vertices().filter(|&v| node.degree(v) == 2) {
                    let mut live = g.neighbors(v).iter().filter(|&&u| !node.is_removed(u));
                    let (u, w) = (*live.next().unwrap(), *live.next().unwrap());
                    let adjacent = g.has_edge(u, w);
                    assert_eq!(k.degree_two_pair(&node, v), (u, w, adjacent), "graph {i}");
                    seen[usize::from(g.adjacency_rows().is_some())][usize::from(adjacent)] += 1;
                }
            }
        }
        assert!(seen.iter().flatten().all(|&n| n > 0), "{seen:?}");
    }

    #[test]
    fn pvc_bound_threshold_used() {
        // PVC k: threshold is k - |S| (one more than MVC's best-|S|-1).
        // Star hub degree 5: with k = 5 the threshold is 5 → no fire;
        // with k = 4 threshold 4 → fires.
        let g = gen::star(7); // hub degree 6
        let (node_k6, _) = run_reduce(&g, SearchBound::Pvc { k: 6 });
        assert!(node_k6.is_edgeless());
        let (node_k4, stats_k4) = run_reduce(&g, SearchBound::Pvc { k: 4 });
        assert!(node_k4.is_removed(0));
        assert!(stats_k4.high_degree + stats_k4.degree_one >= 1);
    }
}
