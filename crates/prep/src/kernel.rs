//! The preprocessing output: reduced per-component instances plus the
//! trace that lifts sub-covers back to the original graph.

use parvc_graph::{ops, CsrGraph, GraphBuilder, VertexId};

use crate::PrepStats;

/// One connected component of the kernel, relabeled to `0..n`.
pub struct ReducedInstance {
    /// The component as a standalone graph.
    pub graph: CsrGraph,
    /// `old_ids[new_id]` = the vertex's id in the original graph.
    pub old_ids: Vec<VertexId>,
}

/// Everything needed to reconstruct a cover of the original graph from
/// per-component sub-covers.
#[derive(Debug, Clone)]
pub struct LiftTrace {
    /// Vertices the rules forced into the cover (original ids).
    pub forced: Vec<VertexId>,
    /// Vertices the rules proved avoidable (original ids).
    pub excluded: Vec<VertexId>,
    /// `|V|` of the original graph, for validation.
    pub original_vertices: u32,
}

/// The kernelized problem: independent reduced components plus the
/// lift trace. Produced by [`preprocess`](crate::preprocess).
pub struct Kernel {
    /// The kernel, split into connected components (or a single
    /// instance when splitting is disabled). Edgeless residual
    /// vertices are dropped — no cover ever needs them.
    pub components: Vec<ReducedInstance>,
    /// The reconstruction trace.
    pub trace: LiftTrace,
    /// Pipeline statistics (per-rule fire counts, sizes, rounds).
    pub stats: PrepStats,
}

impl Kernel {
    /// Reconstructs a cover of the **original** graph from one
    /// sub-cover per component (in component-local ids, as returned by
    /// solving [`ReducedInstance::graph`]): the forced vertices plus
    /// every sub-cover mapped through its component's relabeling.
    ///
    /// If each sub-cover is optimal for its component, the lifted cover
    /// is optimal for the original graph.
    ///
    /// # Panics
    ///
    /// Panics if the number of sub-covers does not match the number of
    /// components or a sub-cover contains an out-of-range vertex.
    pub fn lift(&self, sub_covers: &[Vec<VertexId>]) -> Vec<VertexId> {
        assert_eq!(
            sub_covers.len(),
            self.components.len(),
            "one sub-cover per component"
        );
        let mut cover = self.trace.forced.clone();
        for (inst, sub) in self.components.iter().zip(sub_covers) {
            for &v in sub {
                cover.push(inst.old_ids[v as usize]);
            }
        }
        cover.sort_unstable();
        debug_assert!(
            cover.windows(2).all(|w| w[0] < w[1]),
            "lifted cover has duplicate vertices"
        );
        cover
    }

    /// Total vertices across the kernel components.
    pub fn kernel_vertices(&self) -> u32 {
        self.components.iter().map(|c| c.graph.num_vertices()).sum()
    }

    /// Total edges across the kernel components.
    pub fn kernel_edges(&self) -> u64 {
        self.components.iter().map(|c| c.graph.num_edges()).sum()
    }

    /// Whether the rules solved the instance outright (empty kernel).
    pub fn is_fully_reduced(&self) -> bool {
        self.components.is_empty()
    }

    /// The kernel as one graph (the disjoint union of the components,
    /// in order) — what `parvc prep --out` writes as DIMACS. Weighted
    /// components keep their weights (shifted with the ids), so a
    /// weighted kernel round-trips through the DIMACS `n`-lines.
    pub fn kernel_graph(&self) -> CsrGraph {
        let n = self.kernel_vertices();
        let mut b = GraphBuilder::with_capacity(n, self.kernel_edges() as usize);
        let mut shift = 0u32;
        for inst in &self.components {
            for (u, v) in inst.graph.edges() {
                b.add_edge(u + shift, v + shift)
                    .expect("shifted kernel ids in range");
            }
            shift += inst.graph.num_vertices();
        }
        let union = b.build();
        if self.components.iter().all(|c| !c.graph.is_weighted()) {
            return union;
        }
        let weights: Vec<u64> = self
            .components
            .iter()
            .flat_map(|c| (0..c.graph.num_vertices()).map(|v| c.graph.weight(v)))
            .collect();
        union
            .with_weights(weights)
            .expect("component weights are valid")
    }
}

/// Splits the residual (live) part of the graph into relabeled
/// standalone instances, in one pass ([`ops::induced_components`]).
/// With `split` off, the whole residual becomes a single instance;
/// either way, edgeless components are dropped. `live` is ascending.
pub fn split_residual(g: &CsrGraph, live: &[VertexId], split: bool) -> Vec<ReducedInstance> {
    if live.is_empty() {
        return Vec::new();
    }
    if !split {
        let (residual, _) = ops::induced_subgraph(g, live);
        if residual.num_edges() == 0 {
            return Vec::new();
        }
        return vec![ReducedInstance {
            graph: residual,
            old_ids: live.to_vec(),
        }];
    }
    ops::induced_components(g, live)
        .into_iter()
        .map(|(graph, old_ids)| ReducedInstance { graph, old_ids })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    #[test]
    fn split_drops_isolated_and_relabels() {
        // {0,1,2} triangle, {3,4} edge, {5} isolated.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (3, 4)]).unwrap();
        let live: Vec<u32> = (0..6).collect();
        let comps = split_residual(&g, &live, true);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].graph.num_vertices(), 3);
        assert_eq!(comps[0].old_ids, vec![0, 1, 2]);
        assert_eq!(comps[1].graph.num_vertices(), 2);
        assert_eq!(comps[1].old_ids, vec![3, 4]);
        assert!(comps[1].graph.has_edge(0, 1));
    }

    #[test]
    fn split_respects_partial_liveness() {
        let g = gen::path(5); // 0-1-2-3-4
        let comps = split_residual(&g, &[0, 1, 3, 4], true);
        assert_eq!(comps.len(), 2, "removing 2 cuts the path");
        assert_eq!(comps[0].old_ids, vec![0, 1]);
        assert_eq!(comps[1].old_ids, vec![3, 4]);
    }

    #[test]
    fn unsplit_residual_is_one_instance() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let comps = split_residual(&g, &[0, 1, 2, 3, 4], false);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].graph.num_vertices(), 5);
        assert_eq!(comps[0].graph.num_edges(), 2);
    }
}
