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
//! * **Edge-packing lower bound** (weighted MVC, same flag) — the
//!   matching, each matched edge worth its cheaper endpoint, extended
//!   to a maximal edge packing: the LP dual that the Bar-Yehuda–Even
//!   primal-dual pass builds. By weak duality every completion pays at
//!   least the packing's value, which is never below the matching's.
//!
//! Each bound costs a scan of the residual, so it is skipped at nodes
//! where it cannot fire: a matching has at most
//! `min(|E'|, ⌊(|V| − |S|) / 2⌋)` edges, and a packing is worth at most
//! half the weight of the live vertices that still have an edge; when
//! the cover plus that much still misses the bound, the scan would not
//! prune either. A scan that runs stops as soon as it reaches the
//! pruning threshold, since its sum only grows. No shortcut changes an
//! answer, tree or counter.
//!
//! The bounds are not charged to the Figure 6 activity accounting —
//! they are deliberately outside the paper's instrumentation so the
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
    /// Prune with a greedy maximal-matching lower bound (an edge
    /// packing seeded by that matching in weighted MVC).
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
}

impl Extensions {
    /// The paper-faithful configuration (no extensions).
    pub const NONE: Extensions = Extensions {
        matching_lower_bound: false,
        component_branching: None,
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
    /// The stopping condition, strengthened by a lower bound on the
    /// residual when enabled: the greedy matching in MVC and PVC, the
    /// edge packing in weighted MVC. Replaces bare `bound.prune(node)`
    /// in the traversal loops.
    /// `scratch` provides the bound phase's endpoint flags and residual
    /// capacities (reused across nodes — no allocation on the hot path).
    pub fn prune(&self, node: &TreeNode, bound: SearchBound, scratch: &mut BlockScratch) -> bool {
        if bound.prune(node) {
            return true;
        }
        if !self.ext.matching_lower_bound || node.is_edgeless() {
            return false;
        }
        // What the residual bound must reach to prove the node
        // hopeless. `bound.prune` passed, so the budgets below do not
        // underflow.
        let need = match bound {
            SearchBound::Mvc { best } => u64::from(best - node.cover_size()),
            SearchBound::Pvc { k } => u64::from(k - node.cover_size()) + 1,
            // Weight units. Each edge's dual counts at both endpoints,
            // and each endpoint caps it at its weight, so a packing is
            // worth at most half the weight of the live vertices that
            // still have an edge. Above that, the scan cannot fire.
            SearchBound::WeightedMvc { best } => {
                let need = best - node.cover_weight();
                if need > self.edge_weight(node) / 2 {
                    return false;
                }
                return self.residual_packing_bound(node, scratch, need) >= need;
            }
        };
        // A matching has at most one edge per live edge and one per two
        // vertices outside the cover. Below `need`, the scan cannot fire.
        let cap = node
            .num_edges()
            .min(u64::from(node.len() - node.cover_size()) / 2);
        cap >= need && self.residual_matching_bound(node, scratch, need) >= need
    }

    /// Size of a greedy maximal matching of the intermediate graph —
    /// every completion of `S` needs at least this many more vertices.
    /// The scan stops once the size reaches `stop_at`, which is all a
    /// threshold test needs; `u64::MAX` gives the full size.
    pub fn residual_matching_bound(
        &self,
        node: &TreeNode,
        scratch: &mut BlockScratch,
        stop_at: u64,
    ) -> u64 {
        let mut size = 0u64;
        self.greedy_matching(node, scratch.free_for(node), |_, _| {
            size += 1;
            size >= stop_at
        });
        size
    }

    /// Value of a maximal edge packing of the intermediate graph: edge
    /// duals `y_uv ≥ 0` whose sum at each vertex stays within its
    /// weight. Every completion of `S` pays at least `Σ y` more, by
    /// weak LP duality: each cover vertex's weight pays for the duals
    /// of its edges, and every edge has an endpoint in the cover.
    ///
    /// The packing starts from the greedy matching of
    /// [`residual_matching_bound`](Self::residual_matching_bound),
    /// each matched edge taking its cheaper endpoint's weight, so it is
    /// never below that matching's weighted bound
    /// ([`parvc_graph::matching::min_weight_matching_bound`]). A second
    /// pass then raises every live edge's dual to
    /// `min(res(u), res(v))` from the residual capacities in `scratch`,
    /// the Bar-Yehuda–Even step of
    /// [`parvc_graph::matching::primal_dual_cover`]. Both passes stop
    /// once the sum reaches `stop_at`; `u64::MAX` gives the full value.
    ///
    /// With [`AdjacencyRows`](parvc_graph::AdjacencyRows) the second
    /// pass visits only the slack vertices, live ones with capacity
    /// left, and walks `row(u) & slack` above each. A raise drains at
    /// least one endpoint, which then leaves `slack`; a pair it skips
    /// would have raised by zero, so every sum it reaches is the one
    /// the walk over every live edge reaches.
    pub fn residual_packing_bound(
        &self,
        node: &TreeNode,
        scratch: &mut BlockScratch,
        stop_at: u64,
    ) -> u64 {
        let (free, res, slack) = scratch.packing_for(node, self.graph.weights());
        let mut packed = 0u64;
        let stopped = self.greedy_matching(node, free, |u, v| {
            raise(res, &mut packed, u, v);
            drain(res, slack, u);
            drain(res, slack, v);
            packed >= stop_at
        });
        if stopped {
            return packed;
        }
        let Some(rows) = self.graph.adjacency_rows() else {
            for u in 0..node.len() {
                if node.degree(u) <= 0 {
                    continue;
                }
                for v in node.live_neighbors_above(self.graph, u) {
                    if res[u as usize] == 0 {
                        break;
                    }
                    if raise(res, &mut packed, u, v) >= stop_at {
                        return packed;
                    }
                }
            }
            return packed;
        };
        for i in 0..slack.len() {
            let mut us = slack[i];
            while us != 0 {
                let u = (i * 64) as u32 + us.trailing_zeros();
                us &= us - 1;
                let row = rows.row(u);
                let mut j = i;
                let mut vs = row[i] & slack[i] & (u64::MAX << (u % 64) << 1);
                'walk: loop {
                    while vs != 0 {
                        let v = (j * 64) as u32 + vs.trailing_zeros();
                        vs &= vs - 1;
                        if raise(res, &mut packed, u, v) >= stop_at {
                            return packed;
                        }
                        drain(res, slack, v);
                        if res[u as usize] == 0 {
                            drain(res, slack, u);
                            break 'walk;
                        }
                    }
                    j += 1;
                    match row.get(j) {
                        Some(&r) => vs = r & slack[j],
                        None => break,
                    }
                }
                us &= slack[i];
            }
        }
        packed
    }

    /// Total weight of the live vertices with a live edge: twice an
    /// upper bound on any edge packing of the residual. A fold over the
    /// degree array and the weights.
    fn edge_weight(&self, node: &TreeNode) -> u64 {
        let degrees = node.degrees().iter();
        match self.graph.weights() {
            Some(w) => degrees.zip(w).map(|(&d, &w)| u64::from(d > 0) * w).sum(),
            None => degrees.map(|&d| u64::from(d > 0)).sum(),
        }
    }

    /// The greedy maximal matching both bounds start from: each live,
    /// unmatched vertex, in id order, takes its first live, unmatched
    /// neighbor above it. `free` starts as the node's live mask and
    /// loses both endpoints of each matched edge; with
    /// [`AdjacencyRows`](parvc_graph::AdjacencyRows) the partner is the
    /// lowest bit of `row & free` above `u`. Calls `on_match(u, v)` per
    /// matched edge and stops as soon as it returns `true`, returning
    /// whether it did.
    fn greedy_matching(
        &self,
        node: &TreeNode,
        free: &mut [u64],
        mut on_match: impl FnMut(u32, u32) -> bool,
    ) -> bool {
        let rows = self.graph.adjacency_rows();
        for i in 0..free.len() {
            let mut us = free[i];
            while us != 0 {
                let u = (i * 64) as u32 + us.trailing_zeros();
                us &= us - 1;
                if node.degree(u) == 0 {
                    continue;
                }
                let partner = match rows {
                    Some(rows) => first_free_above(rows.row(u), free, u),
                    None => self
                        .graph
                        .neighbors(u)
                        .iter()
                        .copied()
                        .find(|&v| v > u && free[v as usize / 64] >> (v % 64) & 1 == 1),
                };
                let Some(v) = partner else {
                    continue;
                };
                free[i] &= !(1 << (u % 64));
                free[v as usize / 64] &= !(1 << (v % 64));
                us &= free[i];
                if on_match(u, v) {
                    return true;
                }
            }
        }
        false
    }
}

/// The lowest set bit of `row & free` above `u`.
fn first_free_above(row: &[u64], free: &[u64], u: u32) -> Option<u32> {
    let first = u as usize / 64;
    let mut bits = row[first] & free[first] & (u64::MAX << (u % 64) << 1);
    let mut i = first;
    while bits == 0 {
        i += 1;
        bits = row.get(i)? & free[i];
    }
    Some((i * 64) as u32 + bits.trailing_zeros())
}

/// Raises edge `uv`'s dual by `min(res(u), res(v))`, paying it out of
/// both endpoints' residual capacities; returns the packing's new sum.
fn raise(res: &mut [u64], packed: &mut u64, u: u32, v: u32) -> u64 {
    let y = res[u as usize].min(res[v as usize]);
    res[u as usize] -= y;
    res[v as usize] -= y;
    *packed += y;
    *packed
}

/// Clears `u`'s bit in `slack` once its residual capacity is drained.
fn drain(res: &[u64], slack: &mut [u64], u: u32) {
    slack[u as usize / 64] &= !(u64::from(res[u as usize] == 0) << (u % 64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::weighted_brute_force;
    use parvc_graph::matching::min_weight_matching_bound;
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
            k.residual_matching_bound(&TreeNode::root(&c6), &mut scratch, u64::MAX),
            3
        );
        // Star: one matched edge regardless of leaves.
        let star = gen::star(9);
        let k = kernel(&star, &cost, Extensions::NONE);
        assert_eq!(
            k.residual_matching_bound(&TreeNode::root(&star), &mut scratch, u64::MAX),
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
            k.residual_matching_bound(&node, &mut BlockScratch::new(), u64::MAX),
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

    /// `prune` skips the scan where it cannot fire and stops it at the
    /// threshold; on random weighted graphs and random partial covers,
    /// for every MVC `best` and PVC `k` up to `|V| + 1` and every
    /// weighted `best` up to the total weight + 1, its verdict must
    /// equal the full computation. The weighted half-weight skip must
    /// both fire and not fire. The full packing must lie between
    /// the greedy matching's weighted bound on the residual and the
    /// residual's optimum.
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
        let mut weighted_verdicts = [0u32; 2];
        let mut half_weight_skips = [0u32; 2];
        let mut packing_gains = 0;
        for seed in 0..60u64 {
            let n = 2 + (seed % 23) as u32;
            let g = gen::gnp(n, [0.1, 0.3, 0.7][seed as usize % 3], seed);
            let g = gen::with_uniform_weights(g, 10, seed);
            let total = g.cover_weight(&g.vertices().collect::<Vec<_>>());
            let k = kernel(&g, &cost, Extensions::default());
            for _ in 0..6 {
                let mut node = TreeNode::root(&g);
                for v in 0..n {
                    if coin() {
                        node.remove_into_cover(&g, v);
                    }
                }
                let cover = u64::from(node.cover_size());
                let matching = k.residual_matching_bound(&node, &mut scratch, u64::MAX);
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

                let packing = k.residual_packing_bound(&node, &mut scratch, u64::MAX);
                for t in 0..=total + 1 {
                    let wmvc = SearchBound::WeightedMvc { best: t };
                    let want = wmvc.prune(&node) || node.cover_weight() + packing >= t;
                    assert_eq!(k.prune(&node, wmvc, &mut scratch), want, "{wmvc:?}");
                    if !wmvc.prune(&node) {
                        weighted_verdicts[usize::from(want)] += 1;
                        let need = t - node.cover_weight();
                        let skipped = need > k.edge_weight(&node) / 2;
                        half_weight_skips[usize::from(skipped)] += 1;
                    }
                }
                let residual = residual_graph(&g, &node);
                let matched = min_weight_matching_bound(&residual);
                assert!(matched <= packing, "seed {seed}: {matched} > {packing}");
                packing_gains += u32::from(matched < packing);
                // The oracle enumerates 2^n subsets.
                if n <= 16 {
                    let opt = weighted_brute_force(&residual).0;
                    assert!(packing <= opt, "seed {seed}: {packing} > {opt}");
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "{verdicts:?}");
        assert!(
            weighted_verdicts.iter().all(|&n| n > 0),
            "{weighted_verdicts:?}"
        );
        assert!(
            half_weight_skips.iter().all(|&n| n > 0),
            "scanned / skipped: {half_weight_skips:?}"
        );
        assert!(packing_gains > 0, "the packing never beat the matching");
    }

    /// The greedy matching and the packing as CSR walks over the
    /// degree array, with per-vertex flags: each live, unmatched `u` in
    /// id order takes its first live, unmatched CSR neighbor above it,
    /// then the raise pass visits every live edge `u < v` in CSR order.
    /// Returns the matching's size and the packing's sum after each
    /// raise.
    fn naive_scans(g: &CsrGraph, node: &TreeNode) -> (u64, Vec<u64>) {
        let n = g.num_vertices() as usize;
        let live = |v: u32| !node.is_removed(v);
        let mut matched = vec![false; n];
        let mut res: Vec<u64> = g.vertices().map(|v| g.weight(v)).collect();
        let (mut size, mut sums, mut sum) = (0, Vec::new(), 0);
        let mut raise = |res: &mut Vec<u64>, u: u32, v: u32| {
            let y = res[u as usize].min(res[v as usize]);
            res[u as usize] -= y;
            res[v as usize] -= y;
            sum += y;
            sums.push(sum);
        };
        for u in g.vertices().filter(|&u| live(u) && node.degree(u) > 0) {
            if matched[u as usize] {
                continue;
            }
            let partner = g
                .neighbors(u)
                .iter()
                .copied()
                .find(|&v| v > u && live(v) && !matched[v as usize]);
            if let Some(v) = partner {
                matched[u as usize] = true;
                matched[v as usize] = true;
                size += 1;
                raise(&mut res, u, v);
            }
        }
        for u in g.vertices().filter(|&u| live(u)) {
            for &v in g.neighbors(u) {
                if v > u && live(v) && res[u as usize] > 0 {
                    raise(&mut res, u, v);
                }
            }
        }
        (size, sums)
    }

    /// On both sides of the row threshold and on random partial
    /// covers, the matching and packing scans return the naive CSR
    /// walks' values, in full and when stopped at every threshold up
    /// to one past the full value. On the graphs with rows the raise
    /// pass is the walk over slack vertices.
    #[test]
    fn bound_scans_match_csr_walks_on_both_sides_of_the_threshold() {
        let cost = CostModel::default();
        let mut scratch = BlockScratch::new();
        for (i, g) in crate::node::testing::graphs().iter().enumerate() {
            let k = kernel(g, &cost, Extensions::default());
            for node in crate::node::testing::partial_covers(g, i as u64) {
                let (size, sums) = naive_scans(g, &node);
                let packed = sums.last().copied().unwrap_or(0);
                let ctx = format!("graph {i}, cover {}", node.cover_size());
                for stop in (0..=size + 1).chain([u64::MAX]) {
                    let want = (1..=size).find(|&s| s >= stop).unwrap_or(size);
                    let got = k.residual_matching_bound(&node, &mut scratch, stop);
                    assert_eq!(got, want, "{ctx}: matching stopped at {stop}");
                }
                for stop in (0..=packed + 1).chain([u64::MAX]) {
                    let want = sums.iter().copied().find(|&s| s >= stop).unwrap_or(packed);
                    let got = k.residual_packing_bound(&node, &mut scratch, stop);
                    assert_eq!(got, want, "{ctx}: packing stopped at {stop}");
                }
            }
        }
    }

    /// The live edges of `node` as a graph on the same vertex ids and
    /// weights: its greedy matching is the one the node scan builds.
    fn residual_graph(g: &CsrGraph, node: &TreeNode) -> CsrGraph {
        let edges: Vec<(u32, u32)> = g
            .edges()
            .filter(|&(u, v)| !node.is_removed(u) && !node.is_removed(v))
            .collect();
        CsrGraph::from_edges(g.num_vertices(), &edges)
            .unwrap()
            .with_weights(g.vertices().map(|v| g.weight(v)).collect())
            .unwrap()
    }
}
