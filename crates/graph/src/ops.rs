//! Whole-graph operations: complement, induced subgraphs, components.

use crate::{CsrGraph, VertexId};

/// Returns the complement graph `G̅`.
///
/// The paper evaluates on *edge complements* of the DIMACS `p_hat`
/// maximum-clique instances (§V-A): a clique in `G` is an independent set
/// in `G̅`, turning clique benchmarks into vertex-cover benchmarks.
///
/// `O(|V|² )` time and `O(|V| + |E(G̅)|)` space.
///
/// # Examples
///
/// ```
/// use parvc_graph::{CsrGraph, ops};
/// let path = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let comp = ops::complement(&path);
/// assert_eq!(comp.num_edges(), 1); // only {0,2} was missing
/// assert!(comp.has_edge(0, 2));
/// ```
pub fn complement(g: &CsrGraph) -> CsrGraph {
    let n = g.num_vertices();
    let full = (n as u64 * (n as u64).saturating_sub(1)) / 2;
    let m_comp = (full - g.num_edges()) as usize;
    let mut b = crate::GraphBuilder::with_capacity(n, m_comp);
    for u in 0..n {
        let adj = g.neighbors(u);
        let mut i = 0usize;
        for v in (u + 1)..n {
            while i < adj.len() && adj[i] < v {
                i += 1;
            }
            let adjacent = i < adj.len() && adj[i] == v;
            if !adjacent {
                b.add_edge(u, v).expect("complement endpoints in range");
            }
        }
    }
    carry_weights(b.build(), g, |v| v)
}

/// Re-attaches weights to `built` from `src`, mapping each vertex of
/// `built` to its `src` counterpart through `old_id`. No-op for
/// unweighted sources.
fn carry_weights(
    built: CsrGraph,
    src: &CsrGraph,
    old_id: impl Fn(VertexId) -> VertexId,
) -> CsrGraph {
    if !src.is_weighted() {
        return built;
    }
    let weights: Vec<u64> = (0..built.num_vertices())
        .map(|v| src.weight(old_id(v)))
        .collect();
    built
        .with_weights(weights)
        .expect("source weights are valid")
}

/// Returns the subgraph induced by `keep`, with vertices relabeled to
/// `0..keep.len()` in the order given, plus the relabeling map
/// (`new_id -> old_id` is simply `keep`; the returned vector maps
/// `old_id -> Option<new_id>` style via `u32::MAX` for dropped vertices).
///
/// Vertex weights are carried through the relabeling: on a weighted
/// graph the extracted subgraph is itself a weighted instance with
/// `sub.weight(new) == g.weight(keep[new])`.
pub fn induced_subgraph(g: &CsrGraph, keep: &[VertexId]) -> (CsrGraph, Vec<u32>) {
    let mut old_to_new = vec![u32::MAX; g.num_vertices() as usize];
    for (new, &old) in keep.iter().enumerate() {
        assert!(
            old_to_new[old as usize] == u32::MAX,
            "duplicate vertex {old} in induced_subgraph keep-list"
        );
        old_to_new[old as usize] = new as u32;
    }
    let mut b = crate::GraphBuilder::new(keep.len() as u32);
    for (new_u, &old_u) in keep.iter().enumerate() {
        for &old_v in g.neighbors(old_u) {
            let new_v = old_to_new[old_v as usize];
            if new_v != u32::MAX && (new_u as u32) < new_v {
                b.add_edge(new_u as u32, new_v)
                    .expect("relabeled endpoints in range");
            }
        }
    }
    let sub = carry_weights(b.build(), g, |new| keep[new as usize]);
    (sub, old_to_new)
}

/// The connected components of the subgraph induced by `keep` that have
/// at least one edge, each as a standalone graph relabeled to `0..k`,
/// with its `new_id -> old_id` map.
///
/// `keep` must be ascending and free of repeats. Components come out
/// ordered by their smallest vertex and each map is ascending: exactly
/// what [`induced_subgraph`] on `keep`, then [`connected_components`],
/// then one [`induced_subgraph`] per component would give, without
/// building the intermediate graph or a `|V|`-sized map per component.
/// One pass labels the components; one relabel array, shared by all of
/// them, then maps each vertex to its place in its component. That
/// relabeling is monotone, so every row is written sorted, straight
/// into its component's CSR arrays. Vertex weights are carried over.
///
/// ```
/// use parvc_graph::{ops, CsrGraph};
///
/// // 0-1-2 and 4-5, with 3 isolated once 6 is dropped.
/// let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (3, 6), (4, 5)]).unwrap();
/// let comps = ops::induced_components(&g, &[0, 1, 2, 3, 4, 5]);
/// assert_eq!(comps.len(), 2);
/// assert_eq!(comps[0].1, vec![0, 1, 2]);
/// assert_eq!(comps[1].1, vec![4, 5]);
/// assert!(comps[1].0.has_edge(0, 1));
/// ```
pub fn induced_components(g: &CsrGraph, keep: &[VertexId]) -> Vec<(CsrGraph, Vec<VertexId>)> {
    const OUT: u32 = u32::MAX;
    const UNSEEN: u32 = u32::MAX - 1;
    // Sorted rows rest on this: the relabeling is monotone only for
    // an ascending `keep`.
    assert!(
        keep.windows(2).all(|w| w[0] < w[1]),
        "induced_components needs an ascending keep-list"
    );
    // label[v]: OUT outside `keep`; inside, first the component id,
    // then the vertex's new id within its component.
    let mut label = vec![OUT; g.num_vertices() as usize];
    for &v in keep {
        label[v as usize] = UNSEEN;
    }
    let mut sizes: Vec<u32> = Vec::new();
    let mut stack = Vec::new();
    for &start in keep {
        if label[start as usize] != UNSEEN {
            continue;
        }
        let c = sizes.len() as u32;
        label[start as usize] = c;
        stack.push(start);
        let mut size = 0u32;
        while let Some(v) = stack.pop() {
            size += 1;
            for &w in g.neighbors(v) {
                if label[w as usize] == UNSEEN {
                    label[w as usize] = c;
                    stack.push(w);
                }
            }
        }
        sizes.push(size);
    }
    // Members per component, ascending: bucket `keep` in order.
    let mut old_ids: Vec<Vec<VertexId>> = sizes
        .iter()
        .map(|&k| Vec::with_capacity(if k > 1 { k as usize } else { 0 }))
        .collect();
    for &v in keep {
        let c = label[v as usize] as usize;
        if sizes[c] > 1 {
            label[v as usize] = old_ids[c].len() as u32;
            old_ids[c].push(v);
        } else {
            label[v as usize] = OUT;
        }
    }
    old_ids
        .into_iter()
        .filter(|ids| !ids.is_empty())
        .map(|ids| {
            let mut row_ptr = Vec::with_capacity(ids.len() + 1);
            let mut col_idx = Vec::new();
            row_ptr.push(0);
            for &v in &ids {
                col_idx.extend(
                    g.neighbors(v)
                        .iter()
                        .map(|&w| label[w as usize])
                        .filter(|&w| w != OUT),
                );
                row_ptr.push(col_idx.len());
            }
            let sub = carry_weights(CsrGraph::from_parts(row_ptr, col_idx), g, |new| {
                ids[new as usize]
            });
            (sub, ids)
        })
        .collect()
}

/// Connected components; returns `(component_id_per_vertex, count)`.
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, u32) {
    let n = g.num_vertices() as usize;
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = Vec::new();
    for start in 0..n as u32 {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        comp[start as usize] = next;
        queue.push(start);
        while let Some(v) = queue.pop() {
            for &w in g.neighbors(v) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = next;
                    queue.push(w);
                }
            }
        }
        next += 1;
    }
    (comp, next)
}

/// Whether `g` is connected (the empty graph counts as connected).
pub fn is_connected(g: &CsrGraph) -> bool {
    let (_, count) = connected_components(g);
    count <= 1
}

/// Disjoint union of two graphs; vertices of `b` are shifted by
/// `a.num_vertices()`.
pub fn disjoint_union(a: &CsrGraph, b: &CsrGraph) -> CsrGraph {
    let shift = a.num_vertices();
    let mut builder = crate::GraphBuilder::with_capacity(
        shift + b.num_vertices(),
        (a.num_edges() + b.num_edges()) as usize,
    );
    for (u, v) in a.edges() {
        builder.add_edge(u, v).expect("union endpoints in range");
    }
    for (u, v) in b.edges() {
        builder
            .add_edge(u + shift, v + shift)
            .expect("union endpoints in range");
    }
    let union = builder.build();
    if !a.is_weighted() && !b.is_weighted() {
        return union;
    }
    let weights: Vec<u64> = (0..shift)
        .map(|v| a.weight(v))
        .chain((0..b.num_vertices()).map(|v| b.weight(v)))
        .collect();
    union
        .with_weights(weights)
        .expect("operand weights are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_of_complete_is_edgeless() {
        let k4 = crate::gen::complete(4);
        let c = complement(&k4);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.num_vertices(), 4);
    }

    #[test]
    fn complement_involution() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]).unwrap();
        assert_eq!(complement(&complement(&g)), g);
    }

    #[test]
    fn complement_edge_count() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let c = complement(&g);
        assert_eq!(c.num_edges() + g.num_edges(), 15);
        c.validate().unwrap();
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let (sub, map) = induced_subgraph(&g, &[1, 2, 4]);
        assert_eq!(sub.num_vertices(), 3);
        // Only edge {1,2} survives, relabeled {0,1}.
        assert_eq!(sub.num_edges(), 1);
        assert!(sub.has_edge(0, 1));
        assert_eq!(map[1], 0);
        assert_eq!(map[4], 2);
        assert_eq!(map[0], u32::MAX);
    }

    #[test]
    fn components_counts() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn induced_subgraph_relabels_weights() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
            .unwrap()
            .with_weights(vec![10, 20, 30, 40, 50])
            .unwrap();
        let (sub, _) = induced_subgraph(&g, &[1, 2, 4]);
        assert_eq!(sub.weights(), Some(&[20, 30, 50][..]));
        let c = complement(&g);
        assert_eq!(c.weight(4), 50, "complement keeps weights");
    }

    #[test]
    fn union_combines_weights() {
        let a = CsrGraph::from_edges(2, &[(0, 1)])
            .unwrap()
            .with_weights(vec![3, 4])
            .unwrap();
        let b = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let u = disjoint_union(&a, &b);
        assert_eq!(u.weights(), Some(&[3, 4, 1, 1][..]));
        let plain = disjoint_union(&b, &b);
        assert!(!plain.is_weighted());
    }

    #[test]
    fn union_shifts_ids() {
        let a = CsrGraph::from_edges(2, &[(0, 1)]).unwrap();
        let b = CsrGraph::from_edges(3, &[(0, 2)]).unwrap();
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_vertices(), 5);
        assert_eq!(u.num_edges(), 2);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 4));
    }
}
