//! Incremental re-solve for dynamic graphs.
//!
//! A solved instance plus an [`EditScript`] rarely needs a full
//! re-solve: churn is local, and the paper line's component machinery
//! (prep decomposition, in-search splitting, the union-find
//! connectivity tracker) already treats connected components as
//! independent sub-problems. This module turns that into the
//! **invalidation unit** for dynamic graphs:
//!
//! 1. **Restriction.** Every solve in this workspace decides each
//!    connected component of the input independently (the engine never
//!    lets information flow between components — prep literally solves
//!    them as separate sub-searches, and an optimal cover restricted
//!    to a component is optimal for that component). So a previous
//!    *exact* result implicitly caches one optimum per component.
//! 2. **Invalidation.** Each edit op names the vertices it touches;
//!    a component none of the batch's ops touch keeps its cached
//!    optimum verbatim. Inserts that bridge two components dirty both
//!    (their invalidation sets merge — both endpoints are touched);
//!    deletes that split a component dirty it once and the relabel
//!    step discovers the new pieces.
//! 3. **Warm bounds.** The dirty region is re-solved as one induced
//!    sub-instance seeded with a *patched* previous cover (upper
//!    bound) and a *slack-discounted* previous optimum (lower bound):
//!
//!    * **UB** — take the previous cover's dirty-region vertices,
//!      drop any the edits isolated, then for each inserted edge left
//!      uncovered add its lighter endpoint. Every surviving old edge
//!      still has its old coverage and every new edge is explicitly
//!      patched, so this is a valid cover of the edited dirty region.
//!    * **LB** — deleting an edge `{u, v}` lowers the optimum by at
//!      most `min(w(u), w(v))` (cover the smaller graph, add that
//!      endpoint back); deleting a vertex by at most its own weight;
//!      insertions never lower it. So
//!      `old dirty optimum − Σ deletion slack` is a true lower bound.
//!
//!    When the two meet, the patched cover is already optimal and the
//!    search is skipped outright ([`ResolveStats::warm_skips`]);
//!    otherwise the engine starts from the patched incumbent under
//!    any policy/executor.
//! 4. **Label reuse.** The session keeps per-vertex component labels
//!    across calls: one full build at session start, then only the
//!    dirty region is relabeled (fresh label ids) after each batch.
//!    [`ResolveStats::uf_rebuilds`] counts full builds.
//!
//! A result produced by a timed-out solve is not exact, so nothing can
//! be reused from it: the session falls back to a full from-scratch
//! solve (every component counted invalidated) and becomes exact again
//! the moment one completes within budget.
//!
//! ```
//! use parvc_core::{Algorithm, Solver, is_vertex_cover};
//! use parvc_graph::gen;
//!
//! let g = gen::sparse_components(60, 10, 0.5, 3);
//! let solver = Solver::builder().algorithm(Algorithm::Sequential).build();
//! let prev = solver.solve_mvc(&g);
//!
//! // Churn confined to one of the six communities…
//! let edits = gen::edit_script(&g, 6, 0.5, 7);
//! let r = solver.resolve(&g, &prev, &edits).unwrap();
//!
//! // …matches a from-scratch solve of the edited graph.
//! let scratch = solver.solve_mvc(&r.graph);
//! assert_eq!(r.result.size, scratch.size);
//! assert!(is_vertex_cover(&r.graph, &r.result.cover));
//! assert!(r.stats.components_reused + r.stats.components_invalidated
//!     == r.stats.components_total);
//! ```

use std::collections::BTreeSet;
use std::time::Instant;

use parvc_graph::ops::{connected_components, induced_subgraph};
use parvc_graph::{CsrGraph, EditError, EditScript, VertexId};
use parvc_obs::SpanTimer;

use crate::solver::{SolveObs, Solver};
use crate::stats::{MvcResult, SolveStats};

/// What one [`ResolveSession::resolve`] call reused, invalidated, and
/// re-computed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Connected components of the graph **before** this batch.
    pub components_total: u32,
    /// Components no op touched — their cached optima were taken
    /// verbatim.
    pub components_reused: u32,
    /// Components at least one op touched (a bridging insert touches,
    /// and therefore merges, both sides).
    pub components_invalidated: u32,
    /// Invalidated components actually re-solved by the engine (0 when
    /// the warm bounds met and the search was skipped).
    pub components_resolved: u32,
    /// Calls where the warm upper bound turned out to equal the dirty
    /// region's new optimum (the patched previous cover was already
    /// optimal).
    pub warm_bound_hits: u32,
    /// Calls where warm UB == warm LB *before* searching, skipping the
    /// engine entirely.
    pub warm_skips: u32,
    /// Cumulative full component-label builds over the session's
    /// lifetime: 1 after construction, and one more per call that
    /// re-solves from scratch after a timed-out result.
    pub uf_rebuilds: u64,
    /// Tree nodes the dirty-region re-solve visited (0 on reuse-only
    /// calls) — the work a from-scratch solve would have multiplied.
    pub resolve_tree_nodes: u64,
}

/// The outcome of one incremental re-solve: the edited graph, a result
/// equivalent to a from-scratch [`Solver::solve_mvc`] on it, and the
/// reuse accounting.
#[derive(Debug)]
pub struct Resolved {
    /// The graph after applying the edit script.
    pub graph: CsrGraph,
    /// The new optimum — same contract as [`Solver::solve_mvc`] on
    /// [`graph`](Self::graph) (exact when nothing timed out).
    pub result: MvcResult,
    /// Reuse/invalidation accounting for this call.
    pub stats: ResolveStats,
}

/// A long-lived incremental re-solve session: the current graph, its
/// current optimal cover, and per-vertex component labels reused call
/// to call. Create one with [`Solver::resolve_session`] (or use the
/// one-shot [`Solver::resolve`]) and feed it successive edit batches.
/// The session holds its own view of the solver, sharing the built
/// executor, so it may outlive the `Solver` it was opened from.
pub struct ResolveSession {
    solver: Solver,
    graph: CsrGraph,
    cover: Vec<VertexId>,
    /// Component label per vertex. Labels are never recycled within a
    /// session (fresh ids per relabel), so stale and fresh regions
    /// cannot collide.
    label: Vec<u32>,
    comp_count: u32,
    next_label: u32,
    uf_rebuilds: u64,
    /// Whether `cover` is a known optimum (false after a timeout —
    /// then nothing is reusable and the next call re-solves fully).
    exact: bool,
}

impl Solver {
    /// One-shot incremental re-solve: `prev` must be this solver's
    /// [`solve_mvc`](Solver::solve_mvc) result for `g` (or any exact
    /// optimum with a valid cover of `g`). Applies `edits`, re-solves
    /// only the components the batch touches, and returns the edited
    /// graph with its new optimum. For repeated churn against the
    /// same instance, hold a [`ResolveSession`] instead — it carries
    /// the component labels forward so later batches skip the full
    /// union-find rebuild this constructor performs.
    pub fn resolve(
        &self,
        g: &CsrGraph,
        prev: &MvcResult,
        edits: &EditScript,
    ) -> Result<Resolved, EditError> {
        self.resolve_session(g, prev).resolve(edits)
    }

    /// Starts an incremental re-solve session from a solved instance.
    /// Performs the session's one full component labeling (counted in
    /// [`ResolveStats::uf_rebuilds`]).
    pub fn resolve_session(&self, g: &CsrGraph, prev: &MvcResult) -> ResolveSession {
        ResolveSession::from_solved(self, g, prev)
    }
}

impl ResolveSession {
    /// See [`Solver::resolve_session`].
    pub fn from_solved(solver: &Solver, g: &CsrGraph, prev: &MvcResult) -> Self {
        debug_assert!(
            crate::verify::is_vertex_cover(g, &prev.cover),
            "previous result must carry a valid cover of the session graph"
        );
        let (label, comp_count) = connected_components(g);
        ResolveSession {
            // An owned copy of the configuration on the same executor.
            solver: solver.with_deadline(solver.cfg.deadline),
            graph: g.clone(),
            cover: prev.cover.clone(),
            label,
            comp_count,
            next_label: comp_count,
            uf_rebuilds: 1,
            exact: !prev.stats.timed_out,
        }
    }

    /// The session's current graph (after all batches so far).
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The session's current cover.
    pub fn cover(&self) -> &[VertexId] {
        &self.cover
    }

    /// Applies one edit batch and returns the edited graph's new
    /// optimum, re-solving only what the batch dirtied (see the module
    /// docs for the invalidation and warm-bound rules). Errors leave
    /// the session untouched.
    pub fn resolve(&mut self, edits: &EditScript) -> Result<Resolved, EditError> {
        let start = Instant::now();
        let (sink, heartbeat) = self.solver.solve_observers();
        let obs = SolveObs::new(sink.as_ref(), heartbeat.as_ref());
        let t_total = SpanTimer::start(obs.sink);

        let t_patch = SpanTimer::start(obs.sink);
        let edited = edits.apply(&self.graph)?;
        t_patch.finish(obs.sink, "resolve", "patch", 0, edits.len() as u64);

        let mut resolved = if self.exact {
            self.resolve_incremental(&edited, edits, obs)
        } else {
            // A timed-out previous solve caches nothing trustworthy:
            // re-solve the whole edited instance from scratch.
            self.resolve_from_scratch(&edited, obs)
        };
        resolved.stats.uf_rebuilds = self.uf_rebuilds;

        obs.sink.counter(
            "resolve.components_reused",
            resolved.stats.components_reused as u64,
        );
        obs.sink.counter(
            "resolve.components_invalidated",
            resolved.stats.components_invalidated as u64,
        );
        obs.sink.counter(
            "resolve.components_resolved",
            resolved.stats.components_resolved as u64,
        );
        obs.sink.counter(
            "resolve.warm_bound_hits",
            resolved.stats.warm_bound_hits as u64,
        );
        obs.sink
            .counter("resolve.warm_skips", resolved.stats.warm_skips as u64);
        t_total.finish(obs.sink, "resolve", "resolve", 0, edits.len() as u64);

        self.graph = resolved.graph.clone();
        self.cover = resolved.result.cover.clone();
        self.exact = !resolved.result.stats.timed_out;
        resolved.result.stats.wall_time = start.elapsed();
        self.solver
            .finish_telemetry(sink, &mut resolved.result.stats);
        Ok(resolved)
    }

    /// The trusted path: previous optimum is exact, so untouched
    /// components keep their restricted optima and only the dirty
    /// region is re-solved under warm bounds.
    fn resolve_incremental(
        &mut self,
        edited: &CsrGraph,
        edits: &EditScript,
        obs: SolveObs<'_>,
    ) -> Resolved {
        let n_before = self.graph.num_vertices();
        let touched = edits.touched_existing(n_before);
        let dirty: BTreeSet<u32> = touched.iter().map(|&v| self.label[v as usize]).collect();

        let mut stats = ResolveStats {
            components_total: self.comp_count,
            components_invalidated: dirty.len() as u32,
            components_reused: self.comp_count - dirty.len() as u32,
            ..ResolveStats::default()
        };

        // The dirty sub-instance: every old vertex in a touched
        // component plus every vertex the script appended (new
        // vertices have no cached component; edges to old vertices
        // already dirtied those endpoints' components).
        let mut keep: Vec<VertexId> = (0..n_before)
            .filter(|&v| dirty.contains(&self.label[v as usize]))
            .collect();
        keep.extend(n_before..edited.num_vertices());

        // The reused part of the cover: previous cover minus the
        // dirty region (clean components are untouched by every op,
        // so their restricted optima still cover exactly their edges).
        let clean_cover: Vec<VertexId> = self
            .cover
            .iter()
            .copied()
            .filter(|&v| !dirty.contains(&self.label[v as usize]))
            .collect();

        if keep.is_empty() {
            // Empty batch: nothing dirtied, the cached result stands.
            let result = MvcResult {
                size: self.cover.len() as u32,
                weight: edited.cover_weight(&self.cover),
                cover: self.cover.clone(),
                stats: SolveStats::empty(),
            };
            self.relabel(edited, &[], 0);
            return Resolved {
                graph: edited.clone(),
                result,
                stats,
            };
        }

        let (sub, old_to_new) = induced_subgraph(edited, &keep);

        // Warm upper bound: patch the previous cover onto the edited
        // dirty region (see the module docs for why this is a cover).
        let warm = self.patch_cover(&sub, &old_to_new);
        let weighted = self.solver.cfg.weighted;
        let warm_ub = objective(&sub, &warm, weighted);

        // Warm lower bound: the old dirty region's restricted optimum
        // minus the batch's deletion slack.
        let summary = edits.summary(&self.graph);
        let slack = if weighted {
            summary.slack_weight
        } else {
            summary.slack_cardinality
        };
        let old_dirty_cover: Vec<VertexId> = self
            .cover
            .iter()
            .copied()
            .filter(|&v| dirty.contains(&self.label[v as usize]))
            .collect();
        let warm_lb = objective(&self.graph, &old_dirty_cover, weighted).saturating_sub(slack);

        let sub_result = if warm_ub == warm_lb {
            // The patched cover is provably optimal — skip the search.
            stats.warm_skips = 1;
            stats.warm_bound_hits = 1;
            MvcResult {
                size: warm.len() as u32,
                weight: sub.cover_weight(&warm),
                cover: warm,
                stats: SolveStats::empty(),
            }
        } else {
            stats.components_resolved = stats.components_invalidated;
            let t_solve = SpanTimer::start(obs.sink);
            let mut r = self.solver.solve_mvc_with(&sub, Some(&warm), obs);
            t_solve.finish(obs.sink, "resolve", "sub-solve", 0, keep.len() as u64);
            // The kernelized path cannot thread the warm incumbent
            // through prep's relabeling, and a timed-out search can
            // return worse than its seed: the patched cover is always
            // available, so never do worse than it.
            if objective(&sub, &r.cover, weighted) > warm_ub {
                r.size = warm.len() as u32;
                r.weight = sub.cover_weight(&warm);
                r.cover = warm;
            }
            if objective(&sub, &r.cover, weighted) == warm_ub {
                stats.warm_bound_hits = 1;
            }
            r
        };
        stats.resolve_tree_nodes = sub_result.stats.tree_nodes;

        // Stitch: reused clean optima + the dirty region's new
        // optimum mapped back to global ids.
        let mut cover = clean_cover;
        cover.extend(sub_result.cover.iter().map(|&v| keep[v as usize]));
        cover.sort_unstable();

        self.relabel(edited, &keep, dirty.len() as u32);

        let result = MvcResult {
            size: cover.len() as u32,
            weight: edited.cover_weight(&cover),
            cover,
            stats: sub_result.stats,
        };
        Resolved {
            graph: edited.clone(),
            result,
            stats,
        }
    }

    /// The untrusted path: previous result was inexact (timeout), so
    /// every component counts as invalidated and the edited graph is
    /// solved from scratch.
    fn resolve_from_scratch(&mut self, edited: &CsrGraph, obs: SolveObs<'_>) -> Resolved {
        let stats = ResolveStats {
            components_total: self.comp_count,
            components_invalidated: self.comp_count,
            components_resolved: self.comp_count,
            ..ResolveStats::default()
        };
        let result = self.solver.solve_mvc_with(edited, None, obs);
        let mut stats = stats;
        stats.resolve_tree_nodes = result.stats.tree_nodes;
        let (label, count) = connected_components(edited);
        self.label = label;
        self.comp_count = count;
        self.next_label = count;
        self.uf_rebuilds += 1;
        Resolved {
            graph: edited.clone(),
            result,
            stats,
        }
    }

    /// Maps the previous cover onto the dirty sub-instance and patches
    /// it into a valid cover of the edited dirty region: keep mapped
    /// survivors, drop the now-isolated, then cover each remaining
    /// uncovered (inserted) edge with its lighter endpoint.
    fn patch_cover(&self, sub: &CsrGraph, old_to_new: &[u32]) -> Vec<VertexId> {
        let n = sub.num_vertices() as usize;
        let mut in_cover = vec![false; n];
        for &v in &self.cover {
            let nv = old_to_new[v as usize];
            if nv != u32::MAX && sub.degree(nv) > 0 {
                in_cover[nv as usize] = true;
            }
        }
        for (u, v) in sub.edges() {
            if !in_cover[u as usize] && !in_cover[v as usize] {
                let pick = if sub.weight(u) <= sub.weight(v) { u } else { v };
                in_cover[pick as usize] = true;
            }
        }
        (0..n as u32).filter(|&v| in_cover[v as usize]).collect()
    }

    /// Refreshes component labels after a batch: relabels only the
    /// dirty sub-instance's vertices, with fresh label ids.
    fn relabel(&mut self, edited: &CsrGraph, keep: &[VertexId], dirtied: u32) {
        if keep.is_empty() {
            return;
        }
        // Localized relabel: fresh labels for the dirty region only.
        // Clean components keep their labels; dirtied label ids are
        // simply abandoned (labels are never recycled in-session).
        let (sub, _) = induced_subgraph(edited, keep);
        let (sub_label, sub_count) = connected_components(&sub);
        self.label.resize(edited.num_vertices() as usize, 0);
        for (new, &old) in keep.iter().enumerate() {
            self.label[old as usize] = self.next_label + sub_label[new];
        }
        self.next_label += sub_count;
        self.comp_count = self.comp_count - dirtied + sub_count;
    }
}

/// The cover's objective in the solve's own units: cardinality for
/// plain MVC, total weight for weighted MVC.
fn objective(g: &CsrGraph, cover: &[VertexId], weighted: bool) -> u64 {
    if weighted {
        g.cover_weight(cover)
    } else {
        cover.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Algorithm;
    use crate::verify::is_vertex_cover;
    use parvc_graph::gen;
    use parvc_graph::Edit;

    fn seq() -> Solver {
        Solver::builder().algorithm(Algorithm::Sequential).build()
    }

    #[test]
    fn empty_script_is_a_pure_cache_hit() {
        let g = gen::sparse_components(40, 8, 0.5, 1);
        let solver = seq();
        let prev = solver.solve_mvc(&g);
        let r = solver.resolve(&g, &prev, &EditScript::new()).unwrap();
        assert_eq!(r.result.size, prev.size);
        assert_eq!(r.result.cover, prev.cover);
        assert_eq!(r.stats.components_invalidated, 0);
        assert_eq!(r.stats.components_reused, r.stats.components_total);
        assert_eq!(r.stats.resolve_tree_nodes, 0);
    }

    #[test]
    fn single_edge_delete_matches_scratch() {
        let g = gen::gnp(20, 0.25, 5);
        let solver = seq();
        let prev = solver.solve_mvc(&g);
        let (u, v) = g.edges().next().unwrap();
        let edits = EditScript::from_ops(vec![Edit::DeleteEdge(u, v)]);
        let r = solver.resolve(&g, &prev, &edits).unwrap();
        let scratch = solver.solve_mvc(&r.graph);
        assert_eq!(r.result.size, scratch.size);
        assert!(is_vertex_cover(&r.graph, &r.result.cover));
    }

    #[test]
    fn bridging_insert_merges_both_invalidation_sets() {
        // Two disjoint triangles; an inserted bridge dirties both.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let solver = seq();
        let prev = solver.solve_mvc(&g);
        let edits = EditScript::from_ops(vec![Edit::InsertEdge(0, 3)]);
        let r = solver.resolve(&g, &prev, &edits).unwrap();
        assert_eq!(r.stats.components_total, 2);
        assert_eq!(r.stats.components_invalidated, 2);
        assert_eq!(r.stats.components_reused, 0);
        let scratch = solver.solve_mvc(&r.graph);
        assert_eq!(r.result.size, scratch.size);
    }

    #[test]
    fn session_chains_batches() {
        let g = gen::gnp(24, 0.2, 9);
        let solver = seq();
        let prev = solver.solve_mvc(&g);
        let mut session = solver.resolve_session(&g, &prev);
        for round in 0..4u64 {
            let edits = gen::edit_script(session.graph(), 8, 0.5, round);
            let r = session.resolve(&edits).unwrap();
            let scratch = solver.solve_mvc(&r.graph);
            assert_eq!(r.result.size, scratch.size, "round {round}");
            assert!(is_vertex_cover(&r.graph, &r.result.cover));
        }
        assert_eq!(session.uf_rebuilds, 1, "label reuse never rebuilds");
    }

    #[test]
    fn inexact_previous_result_falls_back_to_scratch() {
        let g = gen::gnp(20, 0.25, 4);
        let solver = seq();
        let mut prev = solver.solve_mvc(&g);
        prev.stats.timed_out = true; // simulate a budget hit
        let edits = EditScript::from_ops(vec![]);
        let r = solver.resolve(&g, &prev, &edits).unwrap();
        assert_eq!(
            r.stats.components_invalidated, r.stats.components_total,
            "nothing is reusable from an inexact result"
        );
        let scratch = solver.solve_mvc(&g);
        assert_eq!(r.result.size, scratch.size);
    }

    #[test]
    fn vertex_insert_with_edges_matches_scratch() {
        let g = gen::gnp(15, 0.3, 6);
        let solver = seq();
        let prev = solver.solve_mvc(&g);
        let edits = EditScript::from_ops(vec![
            Edit::InsertVertex { weight: 1 },
            Edit::InsertEdge(15, 0),
            Edit::InsertEdge(15, 7),
        ]);
        let r = solver.resolve(&g, &prev, &edits).unwrap();
        let scratch = solver.solve_mvc(&r.graph);
        assert_eq!(r.result.size, scratch.size);
        assert!(is_vertex_cover(&r.graph, &r.result.cover));
    }

    #[test]
    fn weighted_resolve_matches_scratch() {
        let g = gen::with_uniform_weights(gen::gnp(16, 0.25, 8), 9, 3);
        let solver = Solver::builder()
            .algorithm(Algorithm::Sequential)
            .weighted()
            .build();
        let prev = solver.solve_mvc(&g);
        for seed in 0..4u64 {
            let edits = gen::edit_script(&g, 6, 0.5, seed);
            let r = solver.resolve(&g, &prev, &edits).unwrap();
            let scratch = solver.solve_mvc(&r.graph);
            assert_eq!(r.result.weight, scratch.weight, "seed {seed}");
            assert!(is_vertex_cover(&r.graph, &r.result.cover));
        }
    }

    #[test]
    fn invalid_script_leaves_the_session_untouched() {
        let g = gen::gnp(12, 0.3, 1);
        let solver = seq();
        let prev = solver.solve_mvc(&g);
        let mut session = solver.resolve_session(&g, &prev);
        let (u, v) = g.edges().next().unwrap();
        let bad = EditScript::from_ops(vec![Edit::InsertEdge(u, v)]);
        assert!(session.resolve(&bad).is_err());
        assert_eq!(session.graph().num_edges(), g.num_edges());
        // The session still works afterwards.
        let ok = EditScript::from_ops(vec![Edit::DeleteEdge(u, v)]);
        let r = session.resolve(&ok).unwrap();
        let scratch = solver.solve_mvc(&r.graph);
        assert_eq!(r.result.size, scratch.size);
    }
}
