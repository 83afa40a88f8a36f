//! The degree-array intermediate graph (§IV-B).
//!
//! A tree node `(G', S)` of the vertex-cover search tree is represented
//! *jointly* by a degree array over the original vertices: a live vertex
//! stores its degree in the current intermediate graph; a vertex removed
//! into the solution stores the sentinel [`REMOVED`]. Together with the
//! immutable CSR original this is **self-contained** — any thread block
//! can pick the node up from the global worklist and reconstruct every
//! adjacency — and **compact** (`O(|V|)`), which is what keeps the
//! per-block stacks and the worklist from exhausting device memory.
//!
//! Two counters ride along, both paper optimizations: the cover size
//! `|S|` (instead of counting sentinels with a reduction) and the live
//! edge count `|E'|` (for the stopping condition's edge test).

use parvc_graph::{CsrGraph, VertexId};

/// Sentinel degree marking a vertex removed from the graph and added to
/// the cover.
pub const REMOVED: i32 = -1;

/// One node of the search tree: an intermediate graph plus its partial
/// cover, in degree-array form.
#[derive(Clone, PartialEq, Eq)]
pub struct TreeNode {
    degrees: Box<[i32]>,
    cover_size: u32,
    cover_weight: u64,
    num_edges: u64,
}

impl TreeNode {
    /// The root node: the whole graph, empty cover.
    pub fn root(g: &CsrGraph) -> Self {
        let degrees: Box<[i32]> = g.vertices().map(|v| g.degree(v) as i32).collect();
        TreeNode {
            degrees,
            cover_size: 0,
            cover_weight: 0,
            num_edges: g.num_edges(),
        }
    }

    /// Number of vertex slots (original `|V|`).
    #[inline]
    pub fn len(&self) -> u32 {
        self.degrees.len() as u32
    }

    /// Whether the original graph had no vertices.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Current degree of `v`, or [`REMOVED`].
    #[inline]
    pub fn degree(&self, v: VertexId) -> i32 {
        self.degrees[v as usize]
    }

    /// The whole degree array: each slot is a live degree or
    /// [`REMOVED`]. For flat passes that fold over every vertex.
    #[inline]
    pub fn degrees(&self) -> &[i32] {
        &self.degrees
    }

    /// Whether `v` has been removed into the cover.
    #[inline]
    pub fn is_removed(&self, v: VertexId) -> bool {
        self.degrees[v as usize] == REMOVED
    }

    /// `|S|` — vertices removed into the cover so far.
    #[inline]
    pub fn cover_size(&self) -> u32 {
        self.cover_size
    }

    /// `w(S)` — total weight of the cover so far, maintained from the
    /// graph's weight channel by
    /// [`remove_into_cover`](Self::remove_into_cover). Equals
    /// [`cover_size`](Self::cover_size) on unweighted graphs (every
    /// weight is 1), so weighted and unweighted bound arithmetic share
    /// this one counter.
    #[inline]
    pub fn cover_weight(&self) -> u64 {
        self.cover_weight
    }

    /// `|E'|` — edges remaining in the intermediate graph.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Whether the intermediate graph is edgeless — i.e. `S` is now a
    /// vertex cover (Figure 1 line 7 / Figure 4 line 17).
    #[inline]
    pub fn is_edgeless(&self) -> bool {
        self.num_edges == 0
    }

    /// Removes live vertex `v` into the cover, decrementing its live
    /// neighbors' degrees. Returns the degree `v` had.
    ///
    /// This is the *mechanism* shared by branching and every reduction
    /// rule; callers charge its cost to the appropriate activity.
    ///
    /// Every neighbor slot is written, the way the paper's block
    /// threads decrement the neighbors together (§IV-B): a live slot
    /// loses one and a [`REMOVED`] slot subtracts zero and keeps the
    /// sentinel. On dense graphs about half the neighbors are removed,
    /// so a branch on liveness would be mispredicted about half the
    /// time; the unconditional store has no branch to mispredict and
    /// leaves every slot as the conditional one did.
    pub fn remove_into_cover(&mut self, g: &CsrGraph, v: VertexId) -> u32 {
        let d = self.degrees[v as usize];
        debug_assert!(d >= 0, "removing already-removed vertex {v}");
        self.degrees[v as usize] = REMOVED;
        self.cover_size += 1;
        self.cover_weight += g.weight(v);
        self.num_edges -= d as u64;
        if d > 0 {
            for &u in g.neighbors(v) {
                let du = &mut self.degrees[u as usize];
                *du -= i32::from(*du >= 0);
            }
        }
        d as u32
    }

    /// First live neighbor of `v` (for the degree-one rule), if any.
    pub fn live_neighbor(&self, g: &CsrGraph, v: VertexId) -> Option<VertexId> {
        g.neighbors(v)
            .iter()
            .copied()
            .find(|&u| !self.is_removed(u))
    }

    /// The (up to `cap`) live neighbors of `v`.
    pub fn live_neighbors<'a>(
        &'a self,
        g: &'a CsrGraph,
        v: VertexId,
    ) -> impl Iterator<Item = VertexId> + 'a {
        g.neighbors(v)
            .iter()
            .copied()
            .filter(move |&u| !self.is_removed(u))
    }

    /// The cover vertices (every slot holding [`REMOVED`]).
    pub fn cover_vertices(&self) -> Vec<VertexId> {
        (0..self.len()).filter(|&v| self.is_removed(v)).collect()
    }

    /// Bytes this node occupies — the §III-C memory-pressure quantity.
    pub fn memory_bytes(&self) -> usize {
        self.degrees.len() * std::mem::size_of::<i32>() + 16
    }

    /// Verifies the counters and degrees against a recomputation from
    /// the CSR graph. Test / debug aid.
    pub fn check_consistency(&self, g: &CsrGraph) -> Result<(), String> {
        if g.num_vertices() != self.len() {
            return Err("vertex count mismatch".into());
        }
        let mut edges = 0u64;
        let mut removed = 0u32;
        let mut removed_weight = 0u64;
        for v in g.vertices() {
            if self.is_removed(v) {
                removed += 1;
                removed_weight += g.weight(v);
                continue;
            }
            let live_deg = self.live_neighbors(g, v).count() as i32;
            if live_deg != self.degree(v) {
                return Err(format!(
                    "vertex {v}: stored degree {} but {live_deg} live neighbors",
                    self.degree(v)
                ));
            }
            edges += live_deg as u64;
        }
        if removed != self.cover_size {
            return Err(format!(
                "cover_size {} but {removed} sentinels",
                self.cover_size
            ));
        }
        if removed_weight != self.cover_weight {
            return Err(format!(
                "cover_weight {} but sentinels weigh {removed_weight}",
                self.cover_weight
            ));
        }
        if edges / 2 != self.num_edges {
            return Err(format!(
                "num_edges {} but recount {}",
                self.num_edges,
                edges / 2
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for TreeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeNode")
            .field("len", &self.len())
            .field("cover_size", &self.cover_size)
            .field("cover_weight", &self.cover_weight)
            .field("num_edges", &self.num_edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvc_graph::gen;

    #[test]
    fn root_mirrors_graph() {
        let g = gen::paper_example();
        let n = TreeNode::root(&g);
        assert_eq!(n.len(), 5);
        assert_eq!(n.cover_size(), 0);
        assert_eq!(n.num_edges(), 6);
        assert_eq!(n.degree(2), 4);
        n.check_consistency(&g).unwrap();
    }

    #[test]
    fn remove_updates_neighbors_and_counters() {
        let g = gen::paper_example();
        let mut n = TreeNode::root(&g);
        let d = n.remove_into_cover(&g, 2); // the hub c
        assert_eq!(d, 4);
        assert_eq!(n.cover_size(), 1);
        assert_eq!(n.num_edges(), 2); // ab and de remain
        assert!(n.is_removed(2));
        assert_eq!(n.degree(0), 1);
        assert_eq!(n.degree(3), 1);
        n.check_consistency(&g).unwrap();
    }

    #[test]
    fn removing_all_yields_edgeless() {
        let g = gen::complete(4);
        let mut n = TreeNode::root(&g);
        for v in 0..3 {
            n.remove_into_cover(&g, v);
        }
        assert!(n.is_edgeless());
        assert_eq!(n.cover_size(), 3);
        assert_eq!(n.degree(3), 0); // live but isolated
        assert_eq!(n.cover_vertices(), vec![0, 1, 2]);
        n.check_consistency(&g).unwrap();
    }

    /// Removes every vertex of random graphs, sparse to dense, weighted
    /// and not, in random orders. After each removal the node is
    /// consistent, the returned degree is the live-neighbor count taken
    /// just before, and no slot falls below the sentinel: a removed
    /// neighbor keeps [`REMOVED`] however often its neighbors go.
    #[test]
    fn removing_every_vertex_in_random_orders_keeps_the_degrees_exact() {
        for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
            for seed in 0..4u64 {
                let plain = gen::gnp(20 + 3 * seed as u32, p, seed);
                let weighted = gen::with_uniform_weights(plain.clone(), 9, seed);
                for (i, g) in [plain, weighted].into_iter().enumerate() {
                    let ctx = format!("p={p} seed={seed} weighted={}", i == 1);
                    // Sorting by random keys gives a random order.
                    let keys = gen::uniform_weights(g.num_vertices(), u64::MAX, seed + 100);
                    let mut order: Vec<VertexId> = g.vertices().collect();
                    order.sort_by_key(|&v| keys[v as usize]);
                    let mut n = TreeNode::root(&g);
                    for &v in &order {
                        let live = n.live_neighbors(&g, v).count() as u32;
                        assert_eq!(n.remove_into_cover(&g, v), live, "{ctx}: vertex {v}");
                        assert!(
                            n.degrees().iter().all(|&d| d >= REMOVED),
                            "{ctx}: a slot fell below the sentinel removing {v}"
                        );
                        n.check_consistency(&g)
                            .unwrap_or_else(|e| panic!("{ctx}: removing {v}: {e}"));
                    }
                    assert!(n.is_edgeless(), "{ctx}");
                    assert_eq!(n.cover_size(), g.num_vertices(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn cover_weight_tracks_graph_weights() {
        let g = gen::path(4).with_weights(vec![2, 7, 3, 1]).unwrap();
        let mut n = TreeNode::root(&g);
        assert_eq!(n.cover_weight(), 0);
        n.remove_into_cover(&g, 1);
        n.remove_into_cover(&g, 2);
        assert_eq!(n.cover_size(), 2);
        assert_eq!(n.cover_weight(), 10);
        n.check_consistency(&g).unwrap();

        // Unweighted: weight mirrors size.
        let u = gen::path(4);
        let mut n = TreeNode::root(&u);
        n.remove_into_cover(&u, 1);
        assert_eq!(n.cover_weight(), n.cover_size() as u64);
    }

    #[test]
    fn live_neighbor_skips_removed() {
        let g = gen::path(4); // 0-1-2-3
        let mut n = TreeNode::root(&g);
        n.remove_into_cover(&g, 1);
        assert_eq!(n.live_neighbor(&g, 2), Some(3));
        assert_eq!(n.live_neighbor(&g, 0), None);
    }

    #[test]
    fn clone_is_independent() {
        let g = gen::cycle(5);
        let a = TreeNode::root(&g);
        let mut b = a.clone();
        b.remove_into_cover(&g, 0);
        assert_eq!(a.cover_size(), 0);
        assert_eq!(b.cover_size(), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn consistency_catches_corruption() {
        let g = gen::cycle(5);
        let mut n = TreeNode::root(&g);
        n.num_edges = 99;
        assert!(n.check_consistency(&g).is_err());
    }

    #[test]
    fn empty_graph_root() {
        let g = parvc_graph::CsrGraph::from_edges(0, &[]).unwrap();
        let n = TreeNode::root(&g);
        assert!(n.is_empty());
        assert!(n.is_edgeless());
    }
}
