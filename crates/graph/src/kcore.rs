//! k-core decomposition and degeneracy ordering.
//!
//! The degeneracy of a graph bounds how much the reduction rules can
//! bite: a graph whose `2`-core is empty dissolves completely under the
//! degree-one rule, which is why tree-like stand-ins make useless
//! vertex-cover benchmarks; [`crate::gen::power_grid_like`] is a
//! spanning tree plus random chords, so its `2`-core is not empty. The
//! suite uses these tools to characterize instances; the `analyze` CLI
//! surfaces them.

use crate::{CsrGraph, VertexId};

/// Result of a core decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreDecomposition {
    /// `core[v]` = the largest `k` such that `v` belongs to the k-core.
    pub core_number: Vec<u32>,
    /// The graph's degeneracy (maximum core number; 0 for edgeless).
    pub degeneracy: u32,
    /// A degeneracy ordering: peeling order of minimum-degree removal.
    pub ordering: Vec<VertexId>,
}

/// Computes core numbers, degeneracy, and a degeneracy ordering with
/// the Matula–Beck peeling algorithm, `O(|V| + |E|)`.
pub fn core_decomposition(g: &CsrGraph) -> CoreDecomposition {
    let n = g.num_vertices() as usize;
    let mut degree: Vec<u32> = (0..n as u32).map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;

    // Bucket queue of vertices by current degree.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n as u32 {
        buckets[degree[v as usize] as usize].push(v);
    }
    let mut removed = vec![false; n];
    let mut core_number = vec![0u32; n];
    let mut ordering = Vec::with_capacity(n);
    let mut degeneracy = 0u32;
    let mut current = 0usize;

    for _ in 0..n {
        // Find the lowest bucket holding a live, up-to-date vertex.
        // Buckets carry stale entries (vertices whose degree dropped
        // further after insertion), so popping may empty a bucket
        // without yielding a vertex — rescan upward when that happens.
        let v = 'find: loop {
            while current <= max_deg && buckets[current].is_empty() {
                current += 1;
            }
            while let Some(v) = buckets[current].pop() {
                if !removed[v as usize] && degree[v as usize] as usize == current {
                    break 'find v;
                }
            }
        };
        removed[v as usize] = true;
        degeneracy = degeneracy.max(current as u32);
        core_number[v as usize] = degeneracy;
        ordering.push(v);
        for &w in g.neighbors(v) {
            if !removed[w as usize] {
                let d = &mut degree[w as usize];
                *d -= 1;
                buckets[*d as usize].push(w);
                if (*d as usize) < current {
                    current = *d as usize;
                }
            }
        }
    }
    CoreDecomposition {
        core_number,
        degeneracy,
        ordering,
    }
}

/// The vertices of the k-core (possibly empty).
pub fn k_core(g: &CsrGraph, k: u32) -> Vec<VertexId> {
    let d = core_decomposition(g);
    (0..g.num_vertices())
        .filter(|&v| d.core_number[v as usize] >= k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn trees_have_degeneracy_one() {
        let d = core_decomposition(&gen::path(20));
        assert_eq!(d.degeneracy, 1);
        assert!(k_core(&gen::path(20), 2).is_empty());
    }

    #[test]
    fn cliques_have_degeneracy_n_minus_one() {
        let d = core_decomposition(&gen::complete(7));
        assert_eq!(d.degeneracy, 6);
        assert!(d.core_number.iter().all(|&c| c == 6));
    }

    #[test]
    fn cycle_is_its_own_two_core() {
        let g = gen::cycle(9);
        assert_eq!(core_decomposition(&g).degeneracy, 2);
        assert_eq!(k_core(&g, 2).len(), 9);
        assert!(k_core(&g, 3).is_empty());
    }

    #[test]
    fn pendant_tree_peels_off_a_clique() {
        // K5 with a path hanging off vertex 0: the 4-core is exactly K5.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        edges.extend([(0, 5), (5, 6), (6, 7)]);
        let g = crate::CsrGraph::from_edges(8, &edges).unwrap();
        let core4 = k_core(&g, 4);
        assert_eq!(core4, vec![0, 1, 2, 3, 4]);
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 4);
        assert_eq!(d.core_number[7], 1);
    }

    #[test]
    fn ordering_is_a_permutation() {
        let g = gen::gnp(60, 0.1, 3);
        let d = core_decomposition(&g);
        let mut seen = [false; 60];
        for &v in &d.ordering {
            assert!(!seen[v as usize], "vertex {v} repeated");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn degeneracy_ordering_property() {
        // Each vertex has at most `degeneracy` neighbors later in the
        // peeling order (the defining property).
        let g = gen::barabasi_albert(100, 3, 7);
        let d = core_decomposition(&g);
        let mut pos = vec![0usize; 100];
        for (i, &v) in d.ordering.iter().enumerate() {
            pos[v as usize] = i;
        }
        for v in 0..100u32 {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&w| pos[w as usize] > pos[v as usize])
                .count();
            assert!(
                later as u32 <= d.degeneracy,
                "vertex {v} has {later} later neighbors > degeneracy {}",
                d.degeneracy
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = crate::CsrGraph::from_edges(0, &[]).unwrap();
        let d = core_decomposition(&g);
        assert_eq!(d.degeneracy, 0);
        assert!(d.ordering.is_empty());
    }
}
