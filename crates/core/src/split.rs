//! In-search component branching (arXiv 2512.18334).
//!
//! `parvc-prep` splits the instance into connected components **once,
//! before** the search. But the reduction rules keep firing at every
//! tree node, and they routinely *disconnect the intermediate graph
//! mid-search* — a cut vertex joins the cover, a bridge edge loses an
//! endpoint — at which point the remaining components are independent
//! sub-problems whose optima simply **sum**. Continuing the ordinary
//! branch-and-reduce over the union instead multiplies the sub-trees
//! together: every branching in component A is re-explored under every
//! partial solution of component B. Re-splitting inside the search
//! collapses that multiplicative tree into additive per-component
//! sub-trees.
//!
//! The lifecycle of a **component-sum node**:
//!
//! 1. After a node's reduction fixpoint (and the bound check), the
//!    engine asks `detect_components` whether the residual graph has
//!    disconnected; the incremental union-find tracker
//!    ([`crate::connect`]) answers. The check is skipped while fewer
//!    than [`SplitParams::min_live`] live vertices remain — tiny
//!    residuals finish faster than they split — and is charged to
//!    [`Activity::ComponentSplit`].
//! 2. If ≥ 2 non-trivial components exist, each is extracted as a
//!    standalone relabeled [`SubInstance`] (by
//!    `ops::induced_components`, the one-pass extraction `parvc-prep`
//!    splits its kernel with), with a greedy upper bound and a lower
//!    bound computed per component: the LP relaxation in cardinality
//!    searches, the weight-sound bound in weighted ones.
//! 3. The node becomes a [`PendingSplit`] and is offered to the
//!    scheduling policy
//!    ([`SchedulePolicy::adopt_split`](crate::SchedulePolicy::adopt_split)).
//!    The [`ComponentSteal`](crate::Algorithm::ComponentSteal) policy
//!    adopts it — whole components are the natural unit of stealable
//!    work — while every other policy declines and the engine solves
//!    the components inline (`solve_split`).
//! 4. Each component is solved by a budgeted sub-search
//!    (`solve_bounded`): component `i` must fit within
//!    `bound − |S| − Σ_{j≠i} lb_j`, where the `lb_j` are the sibling
//!    lower bounds (replaced by exact optima as siblings finish). A
//!    component that cannot fit proves the whole node prunable.
//! 5. The per-component covers are written back onto a clone of the
//!    parent node, producing an ordinary edgeless [`TreeNode`] whose
//!    cover is `S ∪ ⋃ sub-covers` — the component-sum solution — which
//!    flows through the normal `on_solution` machinery.
//!
//! Sub-searches run the same reduce/prune/branch step as the engine
//! and re-check connectivity recursively (at most `MAX_DEPTH` = 32
//! levels deep), so deeply nested disconnections keep decomposing.

use parvc_graph::{ops, CsrGraph, VertexId};
use parvc_obs::SpanTimer;
use parvc_simgpu::counters::{Activity, BlockCounters};

use crate::bound::SearchBound;
use crate::connect::{ConnPool, Connectivity};
use crate::greedy::{greedy_mvc, greedy_weighted_mvc};
use crate::ops::Kernel;
use crate::scratch::BlockScratch;
use crate::TreeNode;

/// Tuning knob for in-search component branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitParams {
    /// Skip the connectivity check while fewer than this many live
    /// (degree ≥ 1) vertices remain: tiny residuals are solved faster
    /// than they are split.
    pub min_live: u32,
}

impl Default for SplitParams {
    fn default() -> Self {
        SplitParams { min_live: 8 }
    }
}

/// Maximum nesting depth of splits inside component sub-searches (a
/// backstop against pathological recursion on chain-like graphs; each
/// level strictly shrinks the graph).
pub(crate) const MAX_DEPTH: u32 = 32;

/// One connected component of a disconnected residual, extracted as a
/// standalone instance (vertices relabeled to `0..n`).
///
/// All cost fields are in the units of the search that produced the
/// split: cover *weight* for [`SearchBound::WeightedMvc`] traversals,
/// cover cardinality otherwise. The extracted `graph` carries the
/// parent's vertex weights through the relabeling
/// ([`parvc_graph::ops::induced_subgraph`]), so weighted sub-searches
/// see exactly the weights of the vertices they stand for.
pub struct SubInstance {
    /// The component as its own graph (weights relabeled from the
    /// parent when the parent is weighted).
    pub graph: CsrGraph,
    /// `old_ids[new_id]` = the vertex's id in the graph the split
    /// happened on.
    pub old_ids: Vec<VertexId>,
    /// The component's greedy cover — the sub-search's initial upper
    /// bound and its fallback witness. `(cost, witness)` in the
    /// search's units.
    pub greedy: (u64, Vec<VertexId>),
    /// Lower bound on the component's optimum —
    /// [`parvc_prep::lp_lower_bound`] in cardinality searches,
    /// [`parvc_prep::weighted_lower_bound`] (matching ∨ primal-dual
    /// dual) in weighted ones; the sibling budgets are derived from
    /// these.
    pub lower_bound: u64,
}

/// A tree node whose residual graph disconnected, together with its
/// extracted components — what the engine offers to
/// [`SchedulePolicy::adopt_split`](crate::SchedulePolicy::adopt_split).
pub struct PendingSplit {
    /// The node after its reduction fixpoint (its cover `S` is the
    /// shared prefix of every component solution).
    pub parent: TreeNode,
    /// The residual's connected components.
    pub comps: Vec<SubInstance>,
}

/// Outcome of solving a [`PendingSplit`].
pub enum SplitVerdict {
    /// Every component fit its budget: an edgeless node carrying
    /// `S ∪ ⋃ sub-covers`, ready for `on_solution`.
    Solved(TreeNode),
    /// Some component provably cannot fit within the bound — the whole
    /// node is pruned.
    Pruned,
}

/// Whether the split trigger fires: at least [`SplitParams::min_live`]
/// live (degree ≥ 1) vertices remain. A bare counting pass, no
/// allocation, so the tiny residuals the trigger exists for skip at
/// degree-array-scan cost only.
fn trigger(node: &TreeNode, params: SplitParams) -> bool {
    let mut live_count = 0u32;
    for v in 0..node.len() {
        if node.degree(v) > 0 {
            live_count += 1;
        }
    }
    live_count >= params.min_live
}

/// The number of components of `node`'s residual, from the caller's
/// union-find tracker. Records the check and its work in
/// `counters.splits` and charges the cooperative-scan cycles.
fn component_count(
    kernel: &Kernel<'_>,
    node: &TreeNode,
    conn: &mut Connectivity,
    counters: &mut BlockCounters,
) -> u32 {
    counters.splits.checks += 1;
    kernel.sink.counter("split.checks", 1);
    let t_detect = SpanTimer::start(kernel.sink);
    let (count, work) = conn.update(kernel.graph, |v| node.degree(v), kernel.exec);
    let rebuilds = conn.take_rebuilds();
    counters.splits.uf_rebuilds += rebuilds;
    if rebuilds > 0 && kernel.sink.enabled() {
        parvc_simgpu::obs::rebuild_instant(kernel.sink, kernel.track, rebuilds);
    }
    counters.splits.check_work += work;
    counters.charge(
        Activity::ComponentSplit,
        kernel
            .cost
            .parallel_op(work, kernel.block_size, kernel.variant),
    );
    t_detect.finish(kernel.sink, "split", "detect", kernel.track, count as u64);
    count
}

/// Whether `node`'s residual graph has disconnected — the cheap probe
/// [`StackOnly::descend`](crate::stackonly) uses to stop a root
/// re-descent at a component-sum node without paying for extraction.
/// Respects the [`SplitParams::min_live`] trigger and records the
/// check exactly like [`detect_components`].
pub(crate) fn residual_disconnected(
    kernel: &Kernel<'_>,
    node: &TreeNode,
    params: SplitParams,
    conn: &mut Connectivity,
    counters: &mut BlockCounters,
) -> bool {
    trigger(node, params) && component_count(kernel, node, conn, counters) >= 2
}

/// Checks whether `node`'s residual graph (live vertices with degree
/// ≥ 1) is disconnected and, when it is, extracts the components.
///
/// `conn` is the caller's incremental connectivity tracker. Returns
/// `None` when the trigger does not fire, the residual is connected,
/// or fewer than two non-trivial components remain.
///
/// Public so policy authors can drive the split machinery directly;
/// the engine calls it for every policy from `drive_block`.
pub fn detect_components(
    kernel: &Kernel<'_>,
    node: &TreeNode,
    params: SplitParams,
    conn: &mut Connectivity,
    counters: &mut BlockCounters,
    weighted: bool,
) -> Option<Vec<SubInstance>> {
    if !trigger(node, params) || component_count(kernel, node, conn, counters) < 2 {
        return None;
    }
    // Components ordered by their smallest vertex id, members
    // ascending: `induced_components` of the ascending live vertices.
    let t_extract = SpanTimer::start(kernel.sink);
    let live: Vec<VertexId> = (0..node.len()).filter(|&v| node.degree(v) > 0).collect();
    let comps: Vec<SubInstance> = ops::induced_components(kernel.graph, &live)
        .into_iter()
        .map(|(graph, old_ids)| {
            let (greedy, lower_bound) = if weighted {
                // The unweighted LP certifies nothing about cover
                // weight; the weight-sound budget is the better of the
                // min-weight matching bound and the primal-dual LP
                // dual.
                (
                    greedy_weighted_mvc(&graph),
                    parvc_prep::weighted_lower_bound(&graph),
                )
            } else {
                let (size, cover) = greedy_mvc(&graph);
                (
                    (size as u64, cover),
                    parvc_prep::lp_lower_bound_exec(&graph, kernel.exec),
                )
            };
            SubInstance {
                graph,
                old_ids,
                greedy,
                lower_bound,
            }
        })
        .collect();
    t_extract.finish(
        kernel.sink,
        "split",
        "extract",
        kernel.track,
        comps.len() as u64,
    );
    if comps.len() < 2 {
        return None;
    }
    // Extraction builds each component's CSR and seeds: charge the
    // adjacency traffic once more.
    counters.charge(
        Activity::ComponentSplit,
        kernel.cost.parallel_op(
            2 * node.num_edges() + live.len() as u64,
            kernel.block_size,
            kernel.variant,
        ),
    );
    counters
        .splits
        .record_split(comps.iter().map(|c| c.graph.num_vertices()));
    if kernel.sink.enabled() {
        kernel.sink.counter("split.taken", 1);
        for c in &comps {
            kernel
                .sink
                .observe("split.component_size", c.graph.num_vertices() as u64);
        }
    }
    Some(comps)
}

/// The remaining cover budget below a node, in the bound's own units
/// (`spent` is the node's [`SearchBound::node_cost`]): how much more
/// cost a solution through this node may still add. `None` when the
/// budget is already spent (MVC and weighted MVC must *beat* `best`;
/// PVC must stay ≤ `k`).
pub(crate) fn remaining_budget(bound: SearchBound, spent: u64) -> Option<i64> {
    let r: i128 = match bound {
        SearchBound::Mvc { best } => best as i128 - 1 - spent as i128,
        SearchBound::WeightedMvc { best } => best as i128 - 1 - spent as i128,
        SearchBound::Pvc { k } => k as i128 - spent as i128,
    };
    // `CsrGraph::with_weights` caps the total weight at i64::MAX, so
    // real costs always fit; the clamp only tames the inert `u64::MAX`
    // seed bound.
    (r >= 0).then_some(r.min(i64::MAX as i128) as i64)
}

/// Solves every component of a split inline and combines the result —
/// the default (non-adopting) policy path.
///
/// Sibling budgets tighten as components finish: component `i` gets
/// `remaining − Σ_{j<i} opt_j − Σ_{j>i} lb_j`, so when every component
/// fits, the combined cover provably beats the bound.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_split(
    kernel: &Kernel<'_>,
    parent: &TreeNode,
    bound: SearchBound,
    comps: &[SubInstance],
    abort: &mut dyn FnMut() -> bool,
    scratch: &mut BlockScratch,
    pool: &mut ConnPool,
    counters: &mut BlockCounters,
    depth: u32,
) -> SplitVerdict {
    let t_solve = SpanTimer::start(kernel.sink);
    let verdict = solve_split_inner(
        kernel, parent, bound, comps, abort, scratch, pool, counters, depth,
    );
    t_solve.finish(
        kernel.sink,
        "split",
        "solve",
        kernel.track,
        comps.len() as u64,
    );
    verdict
}

#[allow(clippy::too_many_arguments)]
fn solve_split_inner(
    kernel: &Kernel<'_>,
    parent: &TreeNode,
    bound: SearchBound,
    comps: &[SubInstance],
    abort: &mut dyn FnMut() -> bool,
    scratch: &mut BlockScratch,
    pool: &mut ConnPool,
    counters: &mut BlockCounters,
    depth: u32,
) -> SplitVerdict {
    let Some(mut remaining) = remaining_budget(bound, bound.node_cost(parent)) else {
        return SplitVerdict::Pruned;
    };
    let mut lb_rest: i64 = comps.iter().map(|c| c.lower_bound as i64).sum();
    let mut combined = parent.clone();
    for c in comps {
        lb_rest -= c.lower_bound as i64;
        let limit = remaining - lb_rest;
        if limit < c.lower_bound as i64 {
            return SplitVerdict::Pruned;
        }
        let sub_kernel = Kernel {
            graph: &c.graph,
            ..*kernel
        };
        let Some((opt, cover)) = solve_bounded(
            &sub_kernel,
            c.greedy.clone(),
            limit as u64,
            bound.is_weighted(),
            abort,
            scratch,
            pool,
            counters,
            depth,
        ) else {
            return SplitVerdict::Pruned;
        };
        remaining -= opt as i64;
        debug_assert!(remaining >= lb_rest, "budget accounting went negative");
        for &v in &cover {
            combined.remove_into_cover(kernel.graph, c.old_ids[v as usize]);
        }
    }
    SplitVerdict::Solved(combined)
}

/// Exhaustive bounded MVC sub-search on a standalone (component) graph:
/// the engine's reduce/prune/branch step driven by a plain DFS stack,
/// with nested component splitting. `weighted` selects the bound's
/// units — cover weight over the component graph's weight channel, or
/// cover cardinality — and `seed`/`limit`/the returned optimum are all
/// in those units.
///
/// Returns the component optimum and a witness when it is ≤ `limit`,
/// `None` when the optimum provably exceeds `limit` (the caller prunes
/// the component-sum node). On abort the best witness so far is
/// returned — a valid (possibly non-optimal) cover, consistent with
/// the engine's deadline semantics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_bounded(
    kernel: &Kernel<'_>,
    seed: (u64, Vec<VertexId>),
    limit: u64,
    weighted: bool,
    abort: &mut dyn FnMut() -> bool,
    scratch: &mut BlockScratch,
    pool: &mut ConnPool,
    counters: &mut BlockCounters,
    depth: u32,
) -> Option<(u64, Vec<VertexId>)> {
    let (mut best, mut witness) = if seed.0 <= limit {
        (seed.0, Some(seed.1))
    } else {
        (limit.saturating_add(1), None)
    };
    let make_bound = |best: u64| {
        if weighted {
            SearchBound::WeightedMvc { best }
        } else {
            SearchBound::Mvc {
                best: best.min(u32::MAX as u64) as u32,
            }
        }
    };
    // This sub-search runs on its own (component) graph, so it needs
    // its own tracker — acquired from the caller's reuse pool, so the
    // allocations (not the labels) survive across sub-searches; jumps
    // between stack pops fall back to a rebuild automatically.
    let mut conn = pool.acquire();
    let mut stack = vec![TreeNode::root(kernel.graph)];
    while let Some(mut node) = stack.pop() {
        if abort() {
            break;
        }
        kernel.charge_node_copy(node.len(), Activity::PopFromStack, counters);
        counters.tree_nodes_visited += 1;
        let bound = make_bound(best);
        kernel.reduce(&mut node, bound, scratch, counters);
        if kernel.prune(&node, bound, scratch) {
            continue;
        }
        if depth > 0 {
            if let Some(params) = kernel.ext.component_branching {
                if let Some(comps) =
                    detect_components(kernel, &node, params, &mut conn, counters, weighted)
                {
                    if let SplitVerdict::Solved(combined) = solve_split(
                        kernel,
                        &node,
                        bound,
                        &comps,
                        abort,
                        scratch,
                        pool,
                        counters,
                        depth - 1,
                    ) {
                        if bound.node_cost(&combined) < best {
                            best = bound.node_cost(&combined);
                            witness = Some(combined.cover_vertices());
                        }
                    }
                    continue;
                }
            }
        }
        let vmax = match kernel.find_max_degree(&node, counters) {
            None => {
                if bound.node_cost(&node) < best {
                    best = bound.node_cost(&node);
                    witness = Some(node.cover_vertices());
                }
                continue;
            }
            Some(v) if node.degree(v) == 0 => {
                if bound.node_cost(&node) < best {
                    best = bound.node_cost(&node);
                    witness = Some(node.cover_vertices());
                }
                continue;
            }
            Some(v) => v,
        };
        let mut left = node.clone();
        kernel.remove_neighbors(&mut left, vmax, Activity::RemoveNeighbors, counters);
        kernel.charge_node_copy(left.len(), Activity::PushToStack, counters);
        stack.push(left);
        kernel.remove_vertex(&mut node, vmax, Activity::RemoveMaxVertex, counters);
        kernel.charge_node_copy(node.len(), Activity::PushToStack, counters);
        stack.push(node);
    }
    pool.release(conn);
    witness.map(|w| {
        let cost = if weighted {
            kernel.graph.cover_weight(&w)
        } else {
            w.len() as u64
        };
        (cost, w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_mvc;
    use crate::extensions::Extensions;
    use crate::verify::is_vertex_cover;
    use parvc_graph::gen;
    use parvc_simgpu::{CostModel, KernelVariant};

    fn kernel<'a>(g: &'a CsrGraph, cost: &'a CostModel) -> Kernel<'a> {
        Kernel {
            block_size: 32,
            variant: KernelVariant::SharedMem,
            ext: Extensions {
                component_branching: Some(SplitParams { min_live: 4 }),
                ..Extensions::NONE
            },
            ..Kernel::sequential(g, cost)
        }
    }

    #[test]
    fn detect_finds_disjoint_communities() {
        // Two triangles, no connection.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]).unwrap();
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        let comps = detect_components(
            &k,
            &node,
            SplitParams { min_live: 4 },
            &mut Connectivity::new(),
            &mut c,
            false,
        )
        .expect("two components");
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].old_ids, vec![0, 1, 2]);
        assert_eq!(comps[1].old_ids, vec![3, 4, 5]);
        // The default LP bound certifies 2 on a triangle (LP optimum
        // 3/2, rounded up) — exactly the optimum, where the matching
        // bound only reaches 1.
        assert_eq!(comps[0].lower_bound, 2);
        assert_eq!(c.splits.taken, 1);
        assert_eq!(c.splits.components, 2);
    }

    #[test]
    fn detect_skips_connected_and_tiny_residuals() {
        let g = gen::cycle(8);
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        assert!(detect_components(
            &k,
            &node,
            SplitParams { min_live: 4 },
            &mut Connectivity::new(),
            &mut c,
            false
        )
        .is_none());
        assert_eq!(c.splits.checks, 1, "connected graphs still pay the check");
        assert!(
            detect_components(
                &k,
                &node,
                SplitParams { min_live: 9 },
                &mut Connectivity::new(),
                &mut c,
                false
            )
            .is_none(),
            "below the trigger the check must not run"
        );
        assert_eq!(c.splits.checks, 1);
    }

    #[test]
    fn solve_split_sums_component_optima() {
        // A triangle (opt 2) next to a 4-cycle (opt 2): total 4.
        let g = CsrGraph::from_edges(7, &[(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
            .unwrap();
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        let comps = detect_components(
            &k,
            &node,
            SplitParams { min_live: 4 },
            &mut Connectivity::new(),
            &mut c,
            false,
        )
        .unwrap();
        let verdict = solve_split(
            &k,
            &node,
            SearchBound::Mvc { best: 7 },
            &comps,
            &mut || false,
            &mut BlockScratch::new(),
            &mut ConnPool::new(),
            &mut c,
            4,
        );
        let SplitVerdict::Solved(combined) = verdict else {
            panic!("split must solve within best=7");
        };
        assert_eq!(combined.cover_size(), 4);
        assert!(combined.is_edgeless());
        assert!(is_vertex_cover(&g, &combined.cover_vertices()));
        combined.check_consistency(&g).unwrap();
    }

    #[test]
    fn solve_split_prunes_against_tight_bound() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]).unwrap();
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        let comps = detect_components(
            &k,
            &node,
            SplitParams { min_live: 4 },
            &mut Connectivity::new(),
            &mut c,
            false,
        )
        .unwrap();
        // Optimum is 4 (2 per triangle); best = 4 demands ≤ 3 total.
        assert!(matches!(
            solve_split(
                &k,
                &node,
                SearchBound::Mvc { best: 4 },
                &comps,
                &mut || false,
                &mut BlockScratch::new(),
                &mut ConnPool::new(),
                &mut c,
                4,
            ),
            SplitVerdict::Pruned
        ));
    }

    /// The cardinality greedy seed in `solve_bounded`'s `(u64, _)` form.
    fn greedy_seed(g: &CsrGraph) -> (u64, Vec<VertexId>) {
        let (size, cover) = greedy_mvc(g);
        (size as u64, cover)
    }

    #[test]
    fn solve_bounded_is_exact_within_limit() {
        let cost = CostModel::default();
        for seed in 0..8 {
            let g = gen::gnp(12, 0.3, seed);
            let (opt, _) = brute_force_mvc(&g);
            let k = kernel(&g, &cost);
            let mut c = BlockCounters::new(0);
            let (size, cover) = solve_bounded(
                &k,
                greedy_seed(&g),
                g.num_vertices() as u64,
                false,
                &mut || false,
                &mut BlockScratch::new(),
                &mut ConnPool::new(),
                &mut c,
                4,
            )
            .expect("limit = |V| always admits a cover");
            assert_eq!(size, opt as u64, "seed {seed}");
            assert!(is_vertex_cover(&g, &cover));
            // Below the optimum the search must prove infeasibility.
            if opt > 0 {
                assert!(solve_bounded(
                    &k,
                    greedy_seed(&g),
                    opt as u64 - 1,
                    false,
                    &mut || false,
                    &mut BlockScratch::new(),
                    &mut ConnPool::new(),
                    &mut c,
                    4
                )
                .is_none());
            }
        }
    }

    #[test]
    fn weighted_solve_bounded_is_exact_within_limit() {
        let cost = CostModel::default();
        for seed in 0..6 {
            let g = gen::with_uniform_weights(gen::gnp(12, 0.3, seed), 10, seed + 30);
            let (opt, _) = crate::brute::weighted_brute_force(&g);
            let k = kernel(&g, &cost);
            let mut c = BlockCounters::new(0);
            let (weight, cover) = solve_bounded(
                &k,
                crate::greedy::greedy_weighted_mvc(&g),
                u64::MAX - 1,
                true,
                &mut || false,
                &mut BlockScratch::new(),
                &mut ConnPool::new(),
                &mut c,
                4,
            )
            .expect("an unbounded limit always admits a cover");
            assert_eq!(weight, opt, "seed {seed}");
            assert!(is_vertex_cover(&g, &cover));
            assert_eq!(weight, g.cover_weight(&cover));
            if opt > 0 {
                assert!(
                    solve_bounded(
                        &k,
                        crate::greedy::greedy_weighted_mvc(&g),
                        opt - 1,
                        true,
                        &mut || false,
                        &mut BlockScratch::new(),
                        &mut ConnPool::new(),
                        &mut c,
                        4
                    )
                    .is_none(),
                    "seed {seed}: a limit below the weighted optimum must be infeasible"
                );
            }
        }
    }

    /// The satellite regression: a component split on a *weighted*
    /// graph must carry the parent's weights through the relabeling
    /// and preserve the weighted optimum when the components' covers
    /// are combined.
    #[test]
    fn weighted_split_carries_weights_and_preserves_the_optimum() {
        // A triangle next to a 4-cycle, with weights chosen so the
        // weighted optimum differs from the unweighted one on both
        // components.
        let g = CsrGraph::from_edges(7, &[(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
            .unwrap()
            .with_weights(vec![1, 9, 2, 8, 1, 8, 1])
            .unwrap();
        let (opt, _) = crate::brute::weighted_brute_force(&g);
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        let comps = detect_components(
            &k,
            &node,
            SplitParams { min_live: 4 },
            &mut Connectivity::new(),
            &mut c,
            true,
        )
        .unwrap();
        assert_eq!(comps.len(), 2);
        // Relabeled weights mirror the parent's.
        for comp in &comps {
            assert!(comp.graph.is_weighted());
            for (new, &old) in comp.old_ids.iter().enumerate() {
                assert_eq!(comp.graph.weight(new as u32), g.weight(old));
            }
            assert!(comp.lower_bound >= 1, "weighted matching LB present");
            assert_eq!(comp.greedy.0, comp.graph.cover_weight(&comp.greedy.1));
        }
        let verdict = solve_split(
            &k,
            &node,
            SearchBound::WeightedMvc { best: opt + 1 },
            &comps,
            &mut || false,
            &mut BlockScratch::new(),
            &mut ConnPool::new(),
            &mut c,
            4,
        );
        let SplitVerdict::Solved(combined) = verdict else {
            panic!("split must solve within best = opt + 1");
        };
        assert_eq!(combined.cover_weight(), opt, "split changed the optimum");
        assert!(is_vertex_cover(&g, &combined.cover_vertices()));
        combined.check_consistency(&g).unwrap();
        // And a bound at the optimum itself must prune (weighted MVC
        // must strictly beat `best`).
        assert!(matches!(
            solve_split(
                &k,
                &node,
                SearchBound::WeightedMvc { best: opt },
                &comps,
                &mut || false,
                &mut BlockScratch::new(),
                &mut ConnPool::new(),
                &mut c,
                4,
            ),
            SplitVerdict::Pruned
        ));
    }

    /// Satellite regression: the weighted sibling budgets use
    /// `max(matching, dual)`, and on shapes where the dual is strictly
    /// tighter it prunes the component-sum node *before* any
    /// sub-search runs — counter-pinned via `tree_nodes_visited`.
    #[test]
    fn weighted_split_prunes_on_the_dual_alone() {
        // Two P3 components 0-1-2 and 3-4-5, weights (1,2,1) each:
        // per-component optimum 2, matching bound 1, primal-dual dual
        // 2. With best = 4 the budget is 3; under dual bounds the
        // first component's limit is 3 − 2 = 1 < lb 2 → pruned with
        // zero nodes searched. Matching-only bounds (limit 2 ≥ 1)
        // would have to run the sub-searches to discover this.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)])
            .unwrap()
            .with_weights(vec![1, 2, 1, 1, 2, 1])
            .unwrap();
        let cost = CostModel::default();
        let k = kernel(&g, &cost);
        let node = TreeNode::root(&g);
        let mut c = BlockCounters::new(0);
        let comps = detect_components(
            &k,
            &node,
            SplitParams { min_live: 4 },
            &mut Connectivity::new(),
            &mut c,
            true,
        )
        .expect("two path components");
        assert_eq!(comps.len(), 2);
        for comp in &comps {
            assert_eq!(
                parvc_graph::matching::min_weight_matching_bound(&comp.graph),
                1,
                "the matching bound alone certifies only 1"
            );
            assert_eq!(comp.lower_bound, 2, "the dual certifies the optimum");
        }
        assert!(matches!(
            solve_split(
                &k,
                &node,
                SearchBound::WeightedMvc { best: 4 },
                &comps,
                &mut || false,
                &mut BlockScratch::new(),
                &mut ConnPool::new(),
                &mut c,
                4,
            ),
            SplitVerdict::Pruned
        ));
        assert_eq!(
            c.tree_nodes_visited, 0,
            "the dual bound must prune before any sub-search node"
        );
    }

    #[test]
    fn remaining_budgets() {
        assert_eq!(remaining_budget(SearchBound::Mvc { best: 10 }, 4), Some(5));
        assert_eq!(remaining_budget(SearchBound::Mvc { best: 5 }, 4), Some(0));
        assert_eq!(remaining_budget(SearchBound::Mvc { best: 4 }, 4), None);
        assert_eq!(remaining_budget(SearchBound::Pvc { k: 10 }, 4), Some(6));
        assert_eq!(remaining_budget(SearchBound::Pvc { k: 4 }, 4), Some(0));
        assert_eq!(remaining_budget(SearchBound::Pvc { k: 3 }, 4), None);
        assert_eq!(
            remaining_budget(SearchBound::WeightedMvc { best: 10 }, 4),
            Some(5)
        );
        assert_eq!(
            remaining_budget(SearchBound::WeightedMvc { best: 4 }, 4),
            None
        );
        assert_eq!(
            remaining_budget(SearchBound::WeightedMvc { best: u64::MAX }, 0),
            Some(i64::MAX),
            "the inert seed bound clamps instead of overflowing"
        );
    }
}
